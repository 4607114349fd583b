#!/usr/bin/env bash
# CI's scripted jobs on a local checkout, in CI's order, with a pass/fail
# table and each step's wall time at the end:
#
#   guards       ci/guards.sh       the four grep guards
#   kernels      ci/kernels.sh      the release kernel checks
#   clippy       ci/clippy.sh       clippy with -D warnings, dev-profile kernels
#   docs         ci/docs.sh         rustdoc with -D warnings, doc-tests
#   test         ci/test.sh         the exit-code and smoke checks, after
#                                   `cargo build --release --workspace`
#   serve_smoke  ci/serve_smoke.sh  the serve-smoke job on a free port
#
# With no argument every step runs; with step names, those alone, in the
# order given; an unknown step exits 2. Every step runs even after one
# fails, and the script exits 1 if any failed.
#
# The build always goes to this checkout's own target/, whatever
# CARGO_TARGET_DIR the shell carries: ci/test.sh and ci/serve_smoke.sh
# run ./target/release/*, and two checkouts (say, a change and its
# parent) must not build into one directory.
set -uo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="$PWD/target"

run() {
  case $1 in
    test) cargo build --release --workspace && ci/test.sh ;;
    *) "ci/$1.sh" ;;
  esac
}

all=(guards kernels clippy docs test serve_smoke)
[ $# -gt 0 ] || set -- "${all[@]}"
for step in "$@"; do
  if [[ " ${all[*]} " != *" $step "* ]]; then
    echo "unknown step '$step'; steps: ${all[*]}" >&2; exit 2
  fi
done

fail=0
rows=()
for step in "$@"; do
  echo "== $step"
  start=$SECONDS
  if run "$step"; then result=pass; else result=FAIL; fail=1; fi
  rows+=("$(printf '%-12s %-5s %6ss' "$step" "$result" "$((SECONDS - start))")")
done
echo
printf '%-12s %-5s %7s\n' step result wall
printf '%s\n' "${rows[@]}"
exit "$fail"
