#!/usr/bin/env bash
# The serve smoke checks, one function per CI step. CI runs each step on
# its own (`ci/serve_smoke.sh <step>`): `start` leaves a quick-scale
# server running on port 7878 for the steps after it, and `stop` ends
# it. Run with no argument, the script builds, starts a server on a free
# port, runs every check, stops the server, and exits 1 if any step
# failed.
#
#   ci/serve_smoke.sh <step> [port [one_worker_port]]   (defaults 7878, 7880)
#
#   build            build edgescope-serve (release)
#   start            start the server at quick scale and wait for /healthz
#   endpoints        every endpoint answers schema-valid JSON
#   identical_seeds  identical seeds return byte-identical bodies
#   platforms        every platform answers under any spelling; another
#                    name is a 400 listing them
#   unknown_inputs   unknown inputs are structured 4xx, not panics
#   one_worker       a one-worker server answers from its one spawned worker
#   stop             stop the server
set -euo pipefail
cd "$(dirname "$0")/.."

port=${2:-7878}
one_worker_port=${3:-7880}
base=http://127.0.0.1:$port
# Response bodies and the server's pid file (ignored by git).
out=ci-results-serve-smoke
mkdir -p "$out"

build() {
  cargo build --release -p edgescope-serve
}

start() {
  ./target/release/edgescope-serve --scale quick --port "$port" --jobs 2 &
  echo $! > "$out/serve.pid"
  for _ in $(seq 1 120); do
    curl -sf "$base/healthz" > /dev/null && break
    sleep 0.5
  done
  curl -sf "$base/healthz"
}

endpoints() {
  curl -sf "$base/healthz" \
    | jq -e '.status == "ok" and .scale == "quick" and .studies.latency == true
             and .studies.workload == false'
  curl -sf "$base/experiments" \
    | jq -e '.experiments | type == "array" and length > 0 and all(has("name") and has("needs") and has("ready"))'
  curl -sf "$base/query/qoe?city=Shanghai&access=wifi&deployment=nep&seed=7" \
    | jq -e '.city == "Shanghai"
             and (.link.rtt_ms | type == "number")
             and (.gaming.mean_ms | type == "number")
             and (.streaming.p95_ms | type == "number")
             and (.crowd_median_nearest_edge_rtt_ms | type == "number")'
  curl -sf "$base/query/bill?city=Guangzhou&app=live-streaming&peak_mbps=500&operator=cmcc&seed=3" \
    | jq -e '(.nep_month_rmb | type == "number")
             and (.cloud_months_rmb | length == 6)
             and (.cheapest_cloud_over_nep | type == "number")'
  curl -sf "$base/query/placement?policy=delay-constrained&budget_ms=5&seed=2" \
    | jq -e '(.mean_delay_ms | type == "number") and (.p95_delay_ms | type == "number")'
  curl -sf "$base/metrics" \
    | jq -e '.schema == "edgescope-serve-metrics/1"
             and (.endpoints | all(has("endpoint") and has("metrics")))'
}

identical_seeds() {
  local q
  q="$base/query/qoe?city=Chengdu&access=5g&deployment=alicloud&seed=11"
  curl -sf "$q" > "$out/first.json"
  curl -sf "$q" > "$out/second.json"
  diff "$out/first.json" "$out/second.json"
  # The second precomputed placement candidate table (metroedge).
  q="$base/query/placement?provider=metroedge&policy=load-aware&seed=4"
  curl -sf "$q" > "$out/first.json"
  curl -sf "$q" > "$out/second.json"
  diff "$out/first.json" "$out/second.json"
  jq -e '.provider == "metroedge" and (.load_cv | type == "number")' "$out/first.json"
  # Another spelling of the same policy is the same query.
  curl -sf "$base/query/placement?provider=MetroEdge&policy=Load_Aware&k=8&seed=4" > "$out/spelled.json"
  diff "$out/first.json" "$out/spelled.json"
  # Every placement request sent so far is counted, memo hits
  # included: one in the step before, three here.
  curl -sf "$base/metrics" \
    | jq -e '.endpoints[] | select(.endpoint == "placement") | .metrics[]
             | select(.name == "serve.placement_queries") | .value == 4'
}

platforms() {
  local code
  same() {
    curl -sf "$base$1" > "$out/spelled.json"
    curl -sf "$base$2" > "$out/canonical.json"
    diff "$out/spelled.json" "$out/canonical.json"
  }
  same '/query/qoe?city=Wuhan&deployment=MetroEdge&seed=5' '/query/qoe?city=Wuhan&deployment=metroedge&seed=5'
  same '/query/qoe?city=Wuhan&deployment=AliCloud&seed=5' '/query/qoe?city=Wuhan&deployment=alicloud&seed=5'
  same '/query/placement?provider=METROEDGE&seed=8' '/query/placement?provider=metroedge&seed=8'
  jq -e '.provider == "metroedge"' "$out/canonical.json"
  code=$(curl -s -o "$out/body.json" -w '%{http_code}' "$base/query/qoe?city=Wuhan&deployment=azure")
  test "$code" = 400
  jq -e --arg want "unknown deployment 'azure'; valid: nep, metroedge, alicloud, huawei" \
    '.error == $want' "$out/body.json"
}

unknown_inputs() {
  local code
  code=$(curl -s -o "$out/body.json" -w '%{http_code}' "$base/query/qoe?city=Atlantis")
  test "$code" = 400
  jq -e '.error | type == "string"' "$out/body.json"
  # A delay budget above its 1000 ms ceiling is a 400 naming the range.
  code=$(curl -s -o "$out/body.json" -w '%{http_code}' \
    "$base/query/placement?policy=delay-constrained&budget_ms=1e300")
  test "$code" = 400
  jq -e --arg want "budget_ms '1e300' must be in (0, 1000]" '.error == $want' "$out/body.json"
  # The worker that served the 400 is still alive.
  curl -sf "$base/healthz" > /dev/null
}

# With one worker, Server::run spawns a single accepting thread and the
# main thread only joins it; the unit tests reach only Server::spawn.
one_worker() {
  local one=http://127.0.0.1:$one_worker_port q
  ./target/release/edgescope-serve --scale quick --port "$one_worker_port" --jobs 2 --workers 1 &
  trap "kill $! 2> /dev/null || true" EXIT
  for _ in $(seq 1 120); do
    curl -sf "$one/healthz" > /dev/null && break
    sleep 0.5
  done
  test "$(curl -s -o /dev/null -w '%{http_code}' "$one/healthz")" = 200
  q="$one/query/placement?policy=delay-constrained&budget_ms=5&seed=2"
  test "$(curl -s -o /dev/null -w '%{http_code}' "$q")" = 200
}

stop() {
  kill "$(cat "$out/serve.pid")" 2> /dev/null || true
}

all=(build start endpoints identical_seeds platforms unknown_inputs one_worker stop)
checks=(endpoints identical_seeds platforms unknown_inputs one_worker)

if [ $# -gt 0 ]; then
  if [[ " ${all[*]} " != *" $1 "* ]]; then
    echo "unknown step '$1'; steps: ${all[*]}" >&2; exit 2
  fi
  "$1"
  exit 0
fi

# No argument: every step against a server on free ports. Each step
# runs in its own shell, so `set -e` stops it at its first failing
# command, as in CI.
read -r port one_worker_port < <(python3 -c '
import socket
socks = [socket.socket() for _ in range(2)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(*(s.getsockname()[1] for s in socks))
')
run() {
  if ci/serve_smoke.sh "$1" "$port" "$one_worker_port"; then
    echo "$1: ok"
  else
    echo "$1: FAILED"; return 1
  fi
}
fail=0
if run build && run start; then
  for step in "${checks[@]}"; do
    run "$step" || fail=1
  done
else
  fail=1
fi
run stop
exit "$fail"
