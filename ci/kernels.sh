#!/usr/bin/env bash
# The kernel checks, one function per CI step: each optimised kernel is
# run in release against its reference, then against its pinned
# outputs. CI runs each step on its own (`ci/kernels.sh <step>`); run
# with no argument, the script runs all five and exits 1 if any of them
# fails.
#
#   owned_math          obs::math's exp, sigmoid and tanh against libm over
#                       10^6 inputs each, their f32 twins against the f64
#                       formulas, their special values, and the AVX2
#                       slice kernel bit-identical to the baseline
#   kernel_equivalence  packed GEMM LSTM / batched grid fit vs scalar references
#   lstm_training       LSTM mini-batch training bit-identical to the batched
#                       reference; AVX2 copy bit-identical to the baseline
#   trace_kernel        the ziggurat normal's distribution and layer table; the
#                       trace kernel bit-identical to x(t) evaluated per sample,
#                       then to the pinned hashes
#   scheduling_day_loop the scheduling day loop bit-identical to the reference
#                       loop, then to the pinned outcomes
set -euo pipefail
cd "$(dirname "$0")/.."

# Each step chains its commands with && because `if "$step"` below
# suspends set -e inside the function.

owned_math() {
  cargo test --release -q -p edgescope-obs --lib math:: -- --nocapture
}

kernel_equivalence() {
  cargo test --release -q -p edgescope-predict --test kernel_equiv
}

lstm_training() {
  cargo test --release -q -p edgescope-predict --lib train_equals_the_batched_reference_bit_for_bit &&
  cargo test --release -q -p edgescope-predict --lib avx2_and_baseline_paths_agree_bit_for_bit -- --nocapture
}

trace_kernel() {
  cargo test --release -q -p edgescope-net --lib ziggurat_matches_the_normal_distribution &&
  cargo test --release -q -p edgescope-net --lib zig_table_regenerates_from_its_recurrence &&
  cargo test --release -q -p edgescope-trace --lib kernel_equals_the_per_sample_formula &&
  cargo test --release -q -p edgescope-trace --test kernel_golden
}

scheduling_day_loop() {
  cargo test --release -q -p edgescope-sched --lib simulate_day_equals_the_reference_loop_bit_for_bit &&
  cargo test --release -q -p edgescope-sched --test sim_golden
}

all=(owned_math kernel_equivalence lstm_training trace_kernel scheduling_day_loop)
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
