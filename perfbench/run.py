#!/usr/bin/env python3
"""EdgeScope benchmark: end-to-end and per-layer numbers for `reproduce`
and `edgescope-serve`.

    python3 perfbench/run.py --workload campaign|serve_repeat|serve_unique \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the release binaries into
`$CARGO_TARGET_DIR` (default `.bench_build`), measures one workload and
prints, as its last stdout line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it is a
JSON detail record: host envelope, sample counts and per-phase values.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import queue
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import schedule  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("campaign", "serve_repeat", "serve_unique")
SCALE = "default"
REGISTRY_SIZE = 39
# The world `reproduce` and `edgescope-serve` build by default, the one
# the paper's artefacts come from. The campaign always renders it: the
# world's size depends on its seed (3 610 to 8 262 trace VMs over eight
# seeds tried), so a seed-dependent world would make the run-to-run
# spread measure the seed, not the program.
WORLD_SEED = 42

# Load generator: one process, at most this many threads and connections.
GEN_CONNS = 2
# Server cold starts answering the batch per serve run; campaign_s and
# cpu_s are medians over them, setup_s over them and the reference start.
SETUP_REPEATS = 6

# Traced run: the fixed offered rate, for `--seconds` seconds.
SERVE_FIXED_RPS = 500.0
SERVE_WARMUP = 500
# serve_*: the closed-loop batch each cold start answers.
SERVE_BATCH = 1500

# Seconds any single child may run before the run is abandoned.
CHILD_TIMEOUT = 150

HEADER = re.compile(rb"^==== \[([^\]]+)\] ", re.M)


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- processes

CHILDREN = []


def track(proc):
    CHILDREN.append(proc)
    return proc


def stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def stop_all():
    while CHILDREN:
        stop(CHILDREN.pop())


def run_measured(argv, stdout_path, env=None):
    """Run a child to completion; return (wall_s, cpu_s, peak_rss_mb)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = track(subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env))
        deadline = t0 + CHILD_TIMEOUT
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                stop(proc)
                raise BenchError(f"{argv[0]} exceeded {CHILD_TIMEOUT}s")
            time.sleep(0.005)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(proc)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv))} exited {proc.returncode}")
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def check_call(argv, **kw):
    proc = subprocess.run(argv, timeout=CHILD_TIMEOUT, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv))} exited {proc.returncode}")
    return proc


# ---------------------------------------------------------------- host

def steal_ticks():
    fields = open("/proc/stat").readline().split()[1:]
    ticks = [int(x) for x in fields[:8]]
    return ticks[7], sum(ticks)


def source_digest(root):
    h = hashlib.sha256()
    paths = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        paths += sorted(p for p in (root / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_envelope(root):
    cpus = len(os.sched_getaffinity(0))
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    # Only this tree's own repository counts, not one that encloses it.
    top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    lines = top.stdout.split()
    rev = lines[1] if top.returncode == 0 and Path(lines[0]) == root else None
    jobs = workers = cpus
    return {
        "available_parallelism": cpus,
        "rustc": rustc,
        "git_rev": rev,
        "source_digest": source_digest(root),
        "campaign_jobs": jobs,
        "serve_workers": workers,
        "generator_threads": GEN_CONNS,
        "oversubscribed": max(jobs, workers, GEN_CONNS) > cpus,
    }


# ---------------------------------------------------------------- build

def build(root):
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for argv in (
        cargo + ["-p", "edgescope-core", "--bin", "reproduce",
                 "-p", "edgescope-serve", "--bin", "edgescope-serve"],
        cargo + ["--manifest-path", "perfbench/Cargo.toml"],
    ):
        proc = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, timeout=850)
        if proc.returncode != 0:
            raise BenchError(f"build failed: {' '.join(argv)}")
    bins = target / "release"
    return {name: str(bins / name) for name in ("reproduce", "edgescope-serve", "perfbench")}


# ---------------------------------------------------------------- outputs

def render_digest(stdout_path, out_dir):
    """sha256 over the stdout render and every CSV series (timings.csv,
    the wall-clock record, is excluded)."""
    h = hashlib.sha256(Path(stdout_path).read_bytes())
    for csv in sorted(Path(out_dir).glob("*.csv")):
        if csv.name != "timings.csv":
            h.update(csv.name.encode())
            h.update(csv.read_bytes())
    return h.hexdigest()


def stage_ms(out_dir):
    """Sum of the `study:*` stage rows of timings.csv, in ms."""
    total = 0.0
    for line in (Path(out_dir) / "timings.csv").read_text().splitlines()[1:]:
        name, kind, _workers, wall_ms = line.split(",")
        if kind == "stage":
            total += float(wall_ms)
    return total


# ---------------------------------------------------------------- load

def write_schedule(path, due_us, targets):
    with open(path, "w") as f:
        for d, t in zip(due_us, targets):
            f.write(f"{d}\t{t}\n")


def read_outcomes(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        i, due, send, done, status, h = line.split("\t")
        rows.append((int(due), int(send), int(done), int(status), h))
    return rows


def replay(bins, work, name, due_us, targets, *, addr, closed=False, conns=GEN_CONNS):
    """Replay a schedule through the load generator; returns outcome rows
    `(due_us, send_us, done_us, status, body_hash)` in schedule order."""
    sched_path, out_path = work / f"{name}.tsv", work / f"{name}.out"
    write_schedule(sched_path, due_us if not closed else [0] * len(targets), targets)
    argv = [bins["perfbench"], "load", "--addr", addr, "--conns", str(conns),
            "--schedule", str(sched_path), "--out", str(out_path)]
    if closed:
        argv.append("--closed")
    check_call(argv)
    return read_outcomes(out_path)


def latencies_ms(rows, from_due=True):
    """Latency per request, from its due time (open loop) or its send
    time (closed loop). Failed requests count as infinitely slow."""
    out = []
    for due, send, done, status, _ in rows:
        out.append((done - (due if from_due else send)) / 1e3 if status == 200 else float("inf"))
    return out


def stolen_share(fn):
    """Run `fn`; return its result and the share of the host's CPU time
    the hypervisor stole meanwhile (the `steal` column of /proc/stat)."""
    s0 = steal_ticks()
    out = fn()
    s1 = steal_ticks()
    return out, (s1[0] - s0[0]) / max(1, s1[1] - s0[1])


# ---------------------------------------------------------------- server

class Server:
    def __init__(self, bins, work, tag):
        t0 = time.perf_counter()
        self.proc = track(subprocess.Popen(
            [bins["edgescope-serve"], "--scale", SCALE, "--workers", str(CPUS),
             "--port", "0", "--log", "off"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=work))
        lines = queue.Queue()
        log_path = work / f"serve-{tag}.log"

        def drain():
            with open(log_path, "wb") as f:
                for line in self.proc.stderr:
                    f.write(line)
                    lines.put(line)

        self.drainer = threading.Thread(target=drain, daemon=True)
        self.drainer.start()
        self.addr = None
        while self.addr is None:
            try:
                line = lines.get(timeout=max(0.1, t0 + 120 - time.perf_counter()))
            except queue.Empty:
                raise BenchError("edgescope-serve did not start listening")
            m = re.search(rb"listening on http://(\S+)", line)
            if m:
                self.addr = m.group(1).decode()
        while self.get("/healthz")[0] != 200:
            if time.perf_counter() > t0 + 120 or self.proc.poll() is not None:
                raise BenchError("edgescope-serve never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - t0

    def get(self, target):
        host, port = self.addr.rsplit(":", 1)
        try:
            with socket.create_connection((host, int(port)), timeout=10) as s:
                s.sendall(f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
                buf = b""
                while chunk := s.recv(65536):
                    buf += chunk
        except OSError:
            return 0, b""
        head, _, body = buf.partition(b"\r\n\r\n")
        parts = head.split()
        return (int(parts[1]) if len(parts) > 1 else 0), body

    def cpu_s(self):
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def close(self):
        stop(self.proc)
        CHILDREN.remove(self.proc)
        self.drainer.join(timeout=5)


# ---------------------------------------------------------------- workloads

def reproduce_env():
    env = dict(os.environ)
    env.update(EDGESCOPE_SCALE=SCALE, EDGESCOPE_SEED=str(WORLD_SEED), EDGESCOPE_LOG="off")
    env.pop("EDGESCOPE_JOBS", None)
    return env


def run_campaign_pair(bins, work):
    """The timed `--jobs nproc` campaign plus the untimed `--jobs 1`
    render of the same world; checks the reports and their identity."""
    env = reproduce_env()
    wall, cpu, rss = run_measured([bins["reproduce"], "--jobs", str(CPUS), str(work / "par")],
                                  work / "par.out", env)
    serial_wall, _, _ = run_measured([bins["reproduce"], "--jobs", "1", str(work / "ser")],
                                     work / "ser.out", env)
    par_out = (work / "par.out").read_bytes()
    names = [m.group(1) for m in HEADER.finditer(par_out)]
    digest = render_digest(work / "par.out", work / "par")
    checks = {
        "reports": len(set(names)),
        "digest": digest,
        "digest_equals_jobs1": digest == render_digest(work / "ser.out", work / "ser"),
        "metrics_json_equals_jobs1": (work / "par" / "metrics.json").read_bytes()
        == (work / "ser" / "metrics.json").read_bytes(),
    }
    ok = (checks["reports"] == REGISTRY_SIZE and checks["digest_equals_jobs1"]
          and checks["metrics_json_equals_jobs1"])
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "serial_wall_s": serial_wall,
            "setup_s": stage_ms(work / "par") / 1e3, "checks": checks, "ok": ok}


def campaign_workload(bins, work):
    camp = run_campaign_pair(bins, work)
    metrics = {
        "setup_s": (camp["setup_s"], "s"),
        "campaign_s": (camp["wall_s"], "s"),
        "cpu_s": (camp["cpu_s"], "s"),
        "peak_rss_mb": (camp["peak_rss_mb"], "MB"),
    }
    present = camp["checks"]["reports"]
    return camp["ok"], REGISTRY_SIZE, REGISTRY_SIZE - present, metrics, {"campaign": camp}


def serve_targets(seed, phase, kind, n):
    return schedule.serve_targets(seed, phase, kind, CITIES, n)


class Load:
    """Replays through the load generator and remembers every body hash
    per target, for the isolated-reply check."""

    def __init__(self, bins, work):
        self.bins, self.work = bins, work
        self.seen = {}
        self.rows = []

    def __call__(self, srv, name, due, targets, closed=False):
        rows = replay(self.bins, self.work, name, due, targets, addr=srv.addr, closed=closed)
        for t, r in zip(targets, rows):
            self.seen.setdefault(t, set()).add(r[4])
        self.rows.extend(rows)
        return rows

    def failed(self):
        return sum(1 for r in self.rows if r[3] != 200)


def serve_workload(bins, work, seed, kind):
    load = Load(bins, work)
    targets = serve_targets(seed, "batch", kind, SERVE_BATCH)
    # The reference: a cold start that has not seen the batch answers
    # each distinct target once, one at a time, in the reverse order of
    # first appearance. A reply that depends on earlier requests (a
    # cache keyed on too few parameters, state shared between requests)
    # then differs from the batch servers' replies.
    ref_srv = Server(bins, work, "reference")
    distinct = list(dict.fromkeys(targets))[::-1]
    ref_rows = replay(bins, work, "reference", None, distinct, addr=ref_srv.addr, closed=True,
                      conns=1)
    ref_srv.close()
    reference = {t: r[4] for t, r in zip(distinct, ref_rows) if r[3] == 200}
    # SETUP_REPEATS cold starts, each timed to its first /healthz 200
    # (setup_s), then answering the same closed-loop batch (campaign_s:
    # first send to last reply; cpu_s: the server CPU it took).
    setups, batches, cpus = [ref_srv.setup_s], [], []
    for i in range(SETUP_REPEATS):
        srv = Server(bins, work, str(i))
        cpu0 = srv.cpu_s()
        rows = load(srv, f"batch{i}", None, targets, closed=True)
        batches.append((max(r[2] for r in rows) - min(r[1] for r in rows)) / 1e6)
        cpus.append(srv.cpu_s() - cpu0)
        setups.append(srv.setup_s)
        if i + 1 < SETUP_REPEATS:
            srv.close()
    # Every target drew the same body from every batch server, equal to
    # the reference's reply.
    mismatched = [t for t in distinct if t not in reference or load.seen[t] != {reference[t]}]
    rss = srv.peak_rss_mb()
    alive = srv.proc.poll() is None
    srv.close()

    failed = load.failed() + sum(1 for r in ref_rows if r[3] != 200)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "campaign_s": (statistics.median(batches), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "batch_requests": SERVE_BATCH,
        "setup_samples_s": setups,
        "batch_samples_s": batches,
        "batch_cpu_samples_s": cpus,
        "repeat_share": schedule.repeat_share(targets),
        "reference_replies": {"targets": len(distinct), "mismatched": mismatched[:5]},
    }
    correct = failed == 0 and not mismatched and alive
    return correct, len(load.rows) + len(ref_rows), failed, metrics, details


# ---------------------------------------------------------------- traced run

def span_layers(spans):
    """Per-layer seconds and counts from the traced campaign's spans."""
    dur = {}
    counters = {}
    for s in spans:
        d = (s["end_ns"] - s["start_ns"]) / 1e9
        dur.setdefault(s["name"], []).append(d)
        for k, v in s["counters"].items():
            counters.setdefault(s["name"], {}).setdefault(k, 0)
            counters[s["name"]][k] += v

    def total(prefix):
        return sum(sum(v) for k, v in dur.items() if k.startswith(prefix))

    def count(prefix, name):
        return sum(c.get(name, 0) for k, c in counters.items() if k.startswith(prefix))

    families = {"fig": 0.0, "table": 0.0, "ext": 0.0, "dyn": 0.0, "ctn": 0.0, "metro": 0.0}
    for name, ds in dur.items():
        if name.startswith("experiment:") and name != "experiment:fig10":
            exp = name.split(":", 1)[1]
            fam = next((f for f in families if exp.startswith(f)), "fig")
            families[fam] += sum(ds)
    leaves = {
        "scenario.new_s": total("scenario.new"),
        "probe.latency_s": total("probe.latency"),
        "trace.generate_s": total("trace.generate."),
        "trace.stream_s": total("trace.stream."),
        "probe.stream_s": total("probe.stream."),
        "predict.cohort_s": total("predict.cohort"),
        "predict.lstm_s": total("predict.lstm"),
        "predict.holt_winters_s": total("predict.holt_winters"),
        "predict.baselines_s": total("predict.baselines"),
        "experiments.fig10_s": total("experiment:fig10"),
        "report.render_s": total("report.render"),
    }
    leaves.update({f"experiments.{f}_s": v for f, v in families.items()})
    traced_s = total("campaign")
    attributed = sum(leaves.values())
    cpu_samples = count("trace.generate.", "trace.cpu_samples")
    bw_samples = count("trace.generate.", "trace.bw_samples")
    probes = count("probe.latency", "net.probes_sent")
    epochs = count("predict.lstm", "predict.epochs_run")
    camp = counters.get("campaign", {})
    out = dict(leaves)
    out.update({
        "trace.cpu_samples": cpu_samples,
        "trace.bw_samples": bw_samples,
        "trace.ns_per_sample": leaves["trace.generate_s"] * 1e9 / max(1, cpu_samples + bw_samples),
        "net.probes_sent": probes,
        "net.ns_per_probe": leaves["probe.latency_s"] * 1e9 / max(1, probes),
        "predict.epochs_run": epochs,
        "predict.ms_per_epoch": leaves["predict.lstm_s"] * 1e3 / max(1, epochs),
        "engine.steps_run": count("experiment:dyn_", "engine.steps_run"),
        "platform.placed_share": camp.get("platform.placement_vms_placed", 0)
        / max(1, camp.get("platform.placement_requests", 0)),
        "campaign.traced_s": traced_s,
        "campaign.unattributed_s": traced_s - attributed,
        "campaign.attributed_share": attributed / traced_s,
    })
    return out


def isolated_ms(bins, work, srv, name, targets):
    rows = replay(bins, work, name, None, targets, addr=srv.addr, closed=True, conns=1)
    return latencies_ms(rows, from_due=False), rows


def traced_run(bins, work, seed, seconds, kind):
    # Campaign layers: the traced serial rebuild, checked against the
    # untraced renders of the same world.
    camp = run_campaign_pair(bins, work)
    traced_wall, _, _ = run_measured(
        [bins["perfbench"], "trace-campaign", "--seed", str(WORLD_SEED), "--jobs", "1",
         "--out", str(work / "traced"), "--spans", str(work / "spans.json")],
        work / "traced.out")
    traced_digest = render_digest(work / "traced.out", work / "traced")
    spans = json.loads((work / "spans.json").read_text())
    layers = span_layers(spans)
    layers["campaign.trace_overhead_s"] = traced_wall - camp["serial_wall_s"]
    layers["executor.idle_core_s"] = CPUS * camp["wall_s"] - camp["cpu_s"]

    # Serve layers: isolated endpoint latency, then the workload's fixed
    # rate, with each request's wait over its own isolated latency.
    srv = Server(bins, work, "traced")
    load = Load(bins, work)
    load(srv, "warmup", None, serve_targets(seed, "warmup", kind, SERVE_WARMUP), closed=True)
    health, _ = isolated_ms(bins, work, srv, "iso-healthz", ["/healthz"] * 300)
    http_ms = statistics.median(health)
    per_endpoint = {}
    probe_targets = serve_targets(seed, "isolated", kind, 2000)
    for ep, count in (("qoe", 300), ("bill", 300), ("placement", 60)):
        ts = [t for t in probe_targets if t.startswith(f"/query/{ep}?")][:count]
        lat, rows = isolated_ms(bins, work, srv, f"iso-{ep}", ts)
        load.rows.extend(rows)
        per_endpoint[ep] = statistics.median(lat) - http_ms
    n = round(seconds * SERVE_FIXED_RPS)
    fixed_targets = serve_targets(seed, "fixed", kind, n)
    fixed, fixed_steal = stolen_share(lambda: load(
        srv, "fixed", schedule.poisson_due_us(seed, "fixed", SERVE_FIXED_RPS, n), fixed_targets))
    lat = latencies_ms(fixed)
    p50, p99 = stats.percentile(lat, 50), stats.percentile(lat, 99)
    if p99 is None:
        raise BenchError(f"too few samples for a p99 ({len(lat)})")
    iso, iso_rows = isolated_ms(bins, work, srv, "fixed-isolated", fixed_targets)
    wait = [o - i for o, i in zip(lat, iso)]
    late = [(send - due) / 1e3 for due, send, *_ in fixed]
    _, metrics_body = srv.get("/metrics")
    served = {"serve.requests": 0, "serve.errors": 0}
    for ep in json.loads(metrics_body)["endpoints"]:
        for row in ep["metrics"]:
            if row["name"] in served:
                served[row["name"]] += row["value"]
    srv.close()

    fixed_failed = sum(1 for r in fixed if r[3] != 200)
    bodies_match = all(a[4] == b[4] for a, b in zip(fixed, iso_rows))
    layers.update({
        "p50_ms": p50,
        "p99_ms": p99,
        "serve.http_ms": http_ms,
        "serve.qoe_ms": per_endpoint["qoe"],
        "serve.bill_ms": per_endpoint["bill"],
        "serve.placement_ms": per_endpoint["placement"],
        "serve.wait_ms_p50": stats.percentile(wait, 50),
        "serve.wait_ms_p99": stats.percentile(wait, 99),
        "loadgen.late_ms_p99": stats.percentile(late, 99),
        "serve.repeat_share": schedule.repeat_share(fixed_targets),
        "loadgen.sent": len(fixed),
        "loadgen.ok": len(fixed) - fixed_failed,
        "loadgen.failed": fixed_failed,
        "serve.requests": served["serve.requests"],
        "serve.errors": served["serve.errors"],
    })
    failed = load.failed() + sum(1 for r in iso_rows if r[3] != 200)
    correct = (camp["ok"] and traced_digest == camp["checks"]["digest"] and failed == 0
               and bodies_match and served["serve.errors"] == 0
               and layers["campaign.attributed_share"] >= 0.9)
    metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    details = {"campaign": camp, "traced_digest": traced_digest,
               "traced_wall_s": traced_wall, "serve_kind": kind,
               "fixed": {"rps": SERVE_FIXED_RPS, "samples": len(lat),
                         "steal": round(fixed_steal, 4)}}
    attempted = 1 + len(load.rows) + len(iso_rows)
    return correct, attempted, failed, metrics, details


# ---------------------------------------------------------------- main

def benchmark_spec():
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


PER_LAYER_UNITS = {}
CPUS = 1
CITIES = []


def main(argv=None):
    global CPUS, CITIES
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    root = Path.cwd()
    for needed in ("Cargo.toml", "crates/core/Cargo.toml", "crates/serve/Cargo.toml"):
        if not (root / needed).is_file():
            log(f"{needed} not found: run from the root of a full checkout")
            return 2
    spec = benchmark_spec()
    PER_LAYER_UNITS.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    host = host_envelope(root)
    CPUS = host["available_parallelism"]
    if host["oversubscribed"]:
        log(f"refusing to measure: oversubscribed host {json.dumps(host)}")
        return 3

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bins = build(root)
        gazetteer = subprocess.run([bins["perfbench"], "cities"], capture_output=True,
                                   text=True, check=True).stdout.splitlines()
        CITIES = [(name, float(pop)) for name, pop in (line.split("\t") for line in gazetteer)]
        steal0 = steal_ticks()
        kind = {"serve_repeat": "repeat"}.get(args.workload, "unique")
        if args.trace:
            result = traced_run(bins, work, args.seed, args.seconds, kind)
        elif args.workload == "campaign":
            result = campaign_workload(bins, work)
        else:
            result = serve_workload(bins, work, args.seed, kind)
        steal1 = steal_ticks()
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"error: {e}")
        return 1
    finally:
        stop_all()
    shutil.rmtree(work, ignore_errors=True)

    correct, attempted, failed, metrics, details = result
    host["steal_share"] = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        log(f"metric set mismatch: {sorted(set(metrics) ^ set(expected))}")
        return 1
    unmeasured = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if unmeasured:
        log(f"no finite value for {unmeasured}")
        return 1
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "details": details}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    final = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = final
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(record, default=str))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
