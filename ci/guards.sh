#!/usr/bin/env bash
# The repository's grep guards, one function each. CI runs each guard
# as its own step (`ci/guards.sh <guard>`); run with no argument, the
# script runs all four and exits 1 if any of them fails.
#
#   one_fan_out       no thread::scope or crossbeam in crates/ outside obs::pool
#   unsafe_only_avx2  unsafe only at the three AVX2 dispatch points (LSTM, math)
#   hidden_api        #[doc(hidden)] only at the 13 perfbench shims
#   one_command_line  no environment reads in crates/ outside obs::cli
#
# Each guard searches with `grep -r`, in a checkout and in a tree without
# .git alike; a search that errors fails its guard.
set -euo pipefail
cd "$(dirname "$0")/.."

# search OPTIONS PATTERN PATH...: `grep -rH OPTIONS PATTERN` over the
# PATHs. Globs in a PATH expand in the shell; a `:!GLOB` PATH drops the
# matches in files that GLOB names. Exits 0 on a match and 1 on none,
# like grep; on an error it says so and exits 2, which every guard
# counts as a failure, never as "no match".
search() {
  local opts=$1 pattern=$2 rc=0 paths=() skip=() p out line g
  shift 2
  for p in "$@"; do
    case $p in
      ':!'*) skip+=("${p#:!}") ;;
      *) paths+=($p) ;;
    esac
  done
  out=$(grep -rH $opts -- "$pattern" "${paths[@]}") || rc=$?
  if [ "$rc" -eq 0 ]; then
    rc=1
    while IFS= read -r line; do
      for g in "${skip[@]}"; do
        # shellcheck disable=SC2053  # $g is a glob
        [[ ${line%%:*} == $g ]] && continue 2
      done
      printf '%s\n' "$line"
      rc=0
    done <<<"$out"
  fi
  if [ "$rc" -gt 1 ]; then
    echo "search for '$pattern' failed (exit $rc)" >&2
    return 2
  fi
  return "$rc"
}

# Every data-parallel loop goes through edgescope_obs::pool::fan_out,
# which owns the per-entity metric scopes and the index-order replay. A
# second pool would have to re-implement both.
one_fan_out() {
  local rc=0
  search -nE 'thread::scope|crossbeam' crates ':!crates/obs/src/pool.rs' ':!crates/*/tests/*' || rc=$?
  case $rc in
    0) echo "second fan-out found: use edgescope_obs::pool::fan_out"; return 1 ;;
    1) return 0 ;;
    *) return 1 ;;
  esac
}

# obs::math::mul_exp, Lstm::train and Lstm::forecast_online call their
# AVX2 copies, safe #[target_feature] fns, in one unsafe block each,
# right after is_x86_feature_detected!("avx2"). Comment lines are
# ignored.
unsafe_only_avx2() {
  local found expected rc=0
  found=$(search -nwE 'unsafe' 'crates/*/src/*') || rc=$?
  [ "$rc" -le 1 ] || return 1
  found=$(printf '%s\n' "$found" | cut -d: -f3- | grep -vE '^\s*//' | sed 's/^ *//' || true)
  expected=$'return unsafe { mul_exp_avx2(m, mu, sigma, z) };\nreturn unsafe { self.train_avx2(train_windows) };\nreturn unsafe { self.forecast_online_avx2(train_windows, test_windows) };'
  if [ "$found" != "$expected" ]; then
    printf '%s\n' "$found"
    echo "unsafe outside the AVX2 dispatch points"; return 1
  fi
}

# A public item is one some product path (a binary, an experiment, an
# example, a doc-test) reaches. The one declared exception is the 13
# hidden items perfbench/src/main.rs still calls while it rebuilds every
# study by struct literal; they go, with this expectation, when the
# benchmark stops doing so. Comment lines are ignored.
hidden_api() {
  local found expected rc=0
  found=$(search -nE '#\[doc\(hidden\)\]' 'crates/*/src/*') || rc=$?
  [ "$rc" -le 1 ] || return 1
  found=$(printf '%s\n' "$found" | grep -vE '^[^:]+:[0-9]+:\s*//' | cut -d: -f1 | LC_ALL=C sort | uniq -c | sed 's/^ *//' || true)
  expected=$'2 crates/core/src/experiments/streaming_study.rs\n1 crates/core/src/scenario.rs\n1 crates/net/src/path.rs\n1 crates/predict/src/eval.rs\n1 crates/probe/src/latency.rs\n3 crates/probe/src/stream.rs\n2 crates/trace/src/dataset.rs\n2 crates/trace/src/stream.rs'
  if [ "$found" != "$expected" ]; then
    printf '%s\n' "$found"
    echo "#[doc(hidden)] outside the perfbench shims"; return 1
  fi
}

# Every binary resolves its EDGESCOPE_* settings through
# edgescope_obs::cli, which owns the flag -> variable -> default
# precedence and the strict/lenient policy of each setting.
one_command_line() {
  local rc=0
  search -nE 'env::var' crates ':!crates/obs/src/cli.rs' || rc=$?
  case $rc in
    0) echo "environment read outside edgescope_obs::cli"; return 1 ;;
    1) return 0 ;;
    *) return 1 ;;
  esac
}

all=(one_fan_out unsafe_only_avx2 hidden_api one_command_line)
[ $# -gt 0 ] || set -- "${all[@]}"
fail=0
for guard in "$@"; do
  if [[ " ${all[*]} " != *" $guard "* ]]; then
    echo "unknown guard '$guard'; guards: ${all[*]}" >&2; exit 2
  fi
  if "$guard"; then
    echo "$guard: clean"
  else
    fail=1
  fi
done
exit "$fail"
