#!/usr/bin/env bash
# The clippy job, one function per CI step: the lint over every target
# with warnings as errors, then two kernel checks re-run in the dev
# profile, where debug assertions and overflow checks are on (the test
# job runs them in release). CI runs each step on its own
# (`ci/clippy.sh <step>`); run with no argument, the script runs all
# three and exits 1 if any of them fails.
#
#   clippy_all_targets   cargo clippy --workspace --all-targets, -D warnings
#   kernel_equivalence   packed GEMM LSTM / batched grid fit vs scalar
#                        references, debug profile
#   trace_kernel_golden  the trace kernel's pinned hashes, debug profile
set -euo pipefail
cd "$(dirname "$0")/.."

clippy_all_targets() {
  cargo clippy --workspace --all-targets -- -D warnings
}

kernel_equivalence() {
  cargo test -q -p edgescope-predict --test kernel_equiv
}

trace_kernel_golden() {
  cargo test -q -p edgescope-trace --test kernel_golden
}

all=(clippy_all_targets kernel_equivalence trace_kernel_golden)
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
