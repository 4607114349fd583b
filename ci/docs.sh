#!/usr/bin/env bash
# The docs job, one function per CI step: rustdoc with warnings and
# broken intra-doc links as errors, then every doc-test. CI runs each
# step on its own (`ci/docs.sh <step>`); run with no argument, the
# script runs both and exits 1 if either fails.
#
#   rustdoc    cargo doc --no-deps --workspace, RUSTDOCFLAGS
#              -D warnings -D rustdoc::broken-intra-doc-links
#   doc_tests  cargo test --doc --workspace at the quick scale
set -euo pipefail
cd "$(dirname "$0")/.."

rustdoc() {
  RUSTDOCFLAGS="-D warnings -D rustdoc::broken-intra-doc-links" \
    cargo doc --no-deps --workspace
}

doc_tests() {
  EDGESCOPE_SCALE=quick cargo test -q --doc --workspace
}

all=(rustdoc doc_tests)
[ $# -gt 0 ] || set -- "${all[@]}"
fail=0
for step in "$@"; do
  if [[ " ${all[*]} " != *" $step "* ]]; then
    echo "unknown step '$step'; steps: ${all[*]}" >&2; exit 2
  fi
  if "$step"; then
    echo "$step: passed"
  else
    fail=1
  fi
done
exit "$fail"
