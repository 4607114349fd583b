#!/usr/bin/env bash
# The test job's exit-code and smoke checks, one function per CI step.
# They drive the release binaries, so build first
# (`cargo build --release --workspace`). CI runs each step on its own
# (`ci/test.sh <step>`); run with no argument, the script runs them all
# and exits 1 if any of them fails.
#
#   unknown_scale        an unknown EDGESCOPE_SCALE is rejected (exit 2, no
#                        silent fallback)
#   invalid_seed         an invalid seed is rejected (exit 2, nothing written
#                        or bound); every binary takes --flag=value
#   flag_without_value   a value flag without its value is rejected (exit 2,
#                        nothing written)
#   example_bad_size     an example given a bad size is rejected (exit 2 with
#                        its usage)
#   example_small_crowd  an example on a crowd too small for every access
#                        network still reports (exit 0)
#   operations_example   the operations example runs its three studies
#   qoe_example          the QoE example runs
#   committed_results    the committed results/ are what the code produces
#                        (paper tier, seed 42)
#   unwritable_output    an unwritable output path fails the run (exit 1
#                        after reporting)
#   structured_logging   every stderr line of --log json is JSON
#   pretty_logging       --log pretty writes one experiment.close line on
#                        stderr and leaves stdout unchanged
#
# Each step runs in a subshell with `set -e` in force, as a CI step does;
# its captured stderr and stdout go to ci-results-test/ (ignored by git).
set -euo pipefail
cd "$(dirname "$0")/.."

out=ci-results-test
mkdir -p "$out"

unknown_scale() {
  if EDGESCOPE_SCALE=big ./target/release/reproduce ci-results-bad 2> "$out/stderr.txt"; then
    echo "expected exit 2 for unknown scale"; exit 1
  fi
  grep -q 'valid tiers: quick, default, paper, metro' "$out/stderr.txt"
  test ! -e ci-results-bad
}

# One scanner and one flag -> EDGESCOPE_* -> default resolver
# (edgescope_obs::cli) serve all five binaries: a seed typo must not run
# world 42 instead.
invalid_seed() {
  export EDGESCOPE_SCALE=quick
  code=0
  EDGESCOPE_SEED=4x2 ./target/release/reproduce ci-results-badseed 2> "$out/stderr.txt" || code=$?
  test "$code" = 2 || { echo "expected exit 2 for EDGESCOPE_SEED=4x2, got $code"; exit 1; }
  grep -q 'invalid EDGESCOPE_SEED value "4x2"' "$out/stderr.txt"
  test ! -e ci-results-badseed
  code=0
  timeout 60 ./target/release/edgescope-serve --seed abc --port 7879 2> "$out/stderr.txt" || code=$?
  test "$code" = 2 || { echo "expected exit 2 for --seed abc, got $code"; exit 1; }
  grep -q 'invalid --seed value "abc"' "$out/stderr.txt"
  if grep -q listening "$out/stderr.txt"; then echo "serve bound despite a bad seed"; exit 1; fi
  mkdir -p ci-results-flags
  ./target/release/campaign-tool run --users=5 --sites=10 --pings=3 --out=ci-results-flags/campaign.tsv
  test -s ci-results-flags/campaign.tsv
}

flag_without_value() {
  export EDGESCOPE_SCALE=quick
  for flag in --only --jobs --log; do
    code=0
    ./target/release/reproduce ci-results-novalue "$flag" 2> "$out/stderr.txt" || code=$?
    test "$code" = 2 || { echo "expected exit 2 for a trailing $flag, got $code"; exit 1; }
    grep -q -- "$flag needs a value" "$out/stderr.txt"
    test ! -e ci-results-novalue
  done
}

example_bad_size() {
  cargo build --release --example crowd_campaign
  code=0
  ./target/release/examples/crowd_campaign abc 2> "$out/stderr.txt" > /dev/null || code=$?
  test "$code" = 2 || { echo "expected exit 2 for crowd_campaign abc, got $code"; exit 1; }
  grep -q 'usage: crowd_campaign' "$out/stderr.txt"
}

# Five users leave LTE without a user; the example must say so instead
# of taking the median of an empty slice.
example_small_crowd() {
  ./target/release/examples/crowd_campaign 5 7
}

# It drives sched's elastic::evaluate and migration::rebalance outside
# the experiments; the test build only compiles it.
operations_example() {
  cargo run --release --example edge_operations > /dev/null
}

# It drives the gaming and streaming pipelines' sweeps (GPU, game,
# resolution, transcoding, jitter buffer, player) outside the
# experiments; the test build only compiles it.
qoe_example() {
  cargo run --release --example qoe_study > /dev/null
}

# index.html and timings.csv carry wall-clock; every render, CSV and
# metrics.json must match the committed tree byte for byte.
committed_results() {
  export EDGESCOPE_SCALE=paper
  ./target/release/reproduce --jobs 2 ci-results-paper > /dev/null
  diff -r --exclude=index.html --exclude=timings.csv ci-results-paper results
}

# The output "directory" is an existing file: every CSV and the results
# files fail to write, and the run must not exit 0.
unwritable_output() {
  export EDGESCOPE_SCALE=quick
  touch ci-results-file
  code=0
  ./target/release/reproduce --only table1 ci-results-file 2> "$out/stderr.txt" > /dev/null || code=$?
  test "$code" = 1 || { echo "expected exit 1 for an unwritable output, got $code"; exit 1; }
  grep -q 'csv write failed' "$out/stderr.txt"
  grep -q 'results write failed' "$out/stderr.txt"
}

# The binary is invoked directly (not via `cargo run`) because cargo
# writes its own status lines to stderr, and this step asserts the
# *whole* stderr stream is JSON.
structured_logging() {
  export EDGESCOPE_SCALE=quick
  local log="$out/reproduce.stderr.jsonl"
  ./target/release/reproduce \
    --log json --jobs 2 --only fig2a ci-results-log \
    2> "$log" > /dev/null
  # Every stderr line must parse as a JSON object...
  jq -es 'all(type == "object")' "$log"
  # ...including the executor's span events.
  jq -es 'map(select(.event == "experiment.close")) | length == 1' "$log"
  # The span events carry their documented fields.
  jq -es 'map(select(.event == "study.close"))
          | length == 1 and all(has("study") and (.wall_ms | type == "number"))' \
    "$log"
  jq -es 'map(select(.event == "experiment.close"))
          | all(.name == "fig2a" and (.wall_ms | type == "number"))' \
    "$log"
  jq -es 'map(select(.event == "campaign.start"))
          | length == 1 and all(.jobs == 2 and .experiments == 1 and .seed == 42)' \
    "$log"
  # And metrics.json must match its documented schema.
  jq -e '.schema == "edgescope-metrics/1"
         and (.scopes | type == "array")
         and (.totals | all(has("name") and has("kind") and has("value")))' \
    ci-results-log/metrics.json
}

# --log pretty writes human-readable span lines to stderr only; the
# stdout render must be the same bytes as a run without logging.
pretty_logging() {
  export EDGESCOPE_SCALE=quick
  ./target/release/reproduce --only table1 ci-results-plain > "$out/plain.stdout"
  ./target/release/reproduce --log pretty --only table1 ci-results-pretty \
    2> "$out/pretty.stderr" > "$out/pretty.stdout"
  test "$(grep -c '^\[executor\] experiment.close name=table1 wall_ms=' "$out/pretty.stderr")" = 1 \
    || { echo "expected one experiment.close line for table1"; cat "$out/pretty.stderr"; exit 1; }
  diff "$out/plain.stdout" "$out/pretty.stdout"
}

all=(unknown_scale invalid_seed flag_without_value example_bad_size example_small_crowd
  operations_example qoe_example committed_results unwritable_output structured_logging
  pretty_logging)
[ $# -gt 0 ] || set -- "${all[@]}"
fail=0
for step in "$@"; do
  if [[ " ${all[*]} " != *" $step "* ]]; then
    echo "unknown step '$step'; steps: ${all[*]}" >&2; exit 2
  fi
  # A plain subshell, not an `if` condition, so the `set -e` inside it
  # is in force for the whole step; the step's exports end with it.
  set +e
  (set -e; "$step")
  status=$?
  set -e
  if [ "$status" = 0 ]; then
    echo "$step: passed"
  else
    echo "$step: failed (exit $status)" >&2
    fail=1
  fi
done
exit "$fail"
