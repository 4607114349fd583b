"""Request schedules: pure functions of (workload seed, phase, kind).

A schedule is a list of (due_us, target) pairs, the target an HTTP path
with its query string. Arrivals are Poisson (independent users), so the
load is an open loop whose offered rate is fixed by the schedule.
"""

import random
from urllib.parse import quote

# Share of each endpoint in the serve mix.
MIX = (("qoe", 0.70), ("bill", 0.25), ("placement", 0.05))

ACCESS = ("wifi", "lte", "5g", "wired")
DEPLOYMENTS = ("nep", "metroedge", "alicloud", "huawei")
APPS = (
    "live-streaming", "online-education", "content-delivery", "video-conference",
    "video-surveillance", "cloud-gaming", "web-service", "dev-test", "batch-compute",
    "database",
)
OPERATORS = ("telecom", "cmcc")
POLICIES = ("nearest", "round-robin", "load-aware", "delay-constrained")
PROVIDERS = ("nep", "metroedge")

# Zipf exponent of city popularity over the cities ranked by population
# (the gazetteer's `population_m`, the weight the repo's own demand
# models use); city sizes themselves are close to Zipf with s = 1.
ZIPF_S = 1.0
# serve_repeat: share of requests that carry an explicit `seed`; the
# rest omit it (server default 0), as a dashboard polling cities would.
# A chosen value, not a measured one: it only has to leave most requests
# unseeded, so that exact repeats are common.
REPEAT_SEEDED_SHARE = 0.10

KINDS = ("repeat", "unique")


def rng_for(seed, phase, kind):
    # String seeds hash through SHA-512 in `random`, independent of
    # PYTHONHASHSEED, so a schedule is reproducible across processes.
    return random.Random(f"perfbench/{kind}/{phase}/{seed}")


def zipf_cdf(n, s=ZIPF_S):
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def _pick_cdf(rng, cdf):
    u = rng.random()
    lo, hi = 0, len(cdf) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


def by_population(cities):
    """City names from the most to the least populous; `cities` is a list
    of `(name, population_m)` pairs in gazetteer order (ties keep it)."""
    return [name for name, _ in sorted(cities, key=lambda c: -c[1])]


def serve_targets(seed, phase, kind, cities, n):
    """`n` request targets of the 70/25/5 qoe/bill/placement mix over
    `cities`, `(name, population_m)` pairs.

    `kind="repeat"`: most requests omit `seed`, so popular queries repeat
    exactly. `kind="unique"`: every request carries a distinct `seed`, so
    no two targets are equal. The numeric parameters (`peak_mbps`,
    `density`, `k`, `budget_ms`, `total_rps`) and `contention` are left at
    the server's defaults.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}")
    rng = rng_for(seed, phase, kind)
    cities = by_population(cities)
    cdf = zipf_cdf(len(cities))
    # The mix is exact in every schedule, in seeded order: placement is
    # 5 % of requests but about 60 % of handler time, so drawing each
    # endpoint independently would make the work per batch a property
    # of the seed.
    endpoints = []
    for name, share in MIX[:-1]:
        endpoints += [name] * round(share * n)
    endpoints += [MIX[-1][0]] * (n - len(endpoints))
    rng.shuffle(endpoints)
    used_seeds = set()
    targets = []
    for endpoint in endpoints:
        if endpoint == "qoe":
            city = cities[_pick_cdf(rng, cdf)]
            params = [("city", city), ("access", rng.choice(ACCESS)),
                      ("deployment", rng.choice(DEPLOYMENTS))]
        elif endpoint == "bill":
            city = cities[_pick_cdf(rng, cdf)]
            params = [("city", city), ("app", rng.choice(APPS)),
                      ("operator", rng.choice(OPERATORS))]
        else:
            params = [("policy", rng.choice(POLICIES)), ("provider", rng.choice(PROVIDERS)),
                      ("app", rng.choice(APPS))]
        if kind == "unique" or rng.random() < REPEAT_SEEDED_SHARE:
            s = rng.getrandbits(32)
            while kind == "unique" and s in used_seeds:
                s = rng.getrandbits(32)
            used_seeds.add(s)
            params.append(("seed", str(s)))
        query = "&".join(f"{k}={quote(v, safe='')}" for k, v in params)
        targets.append(f"/query/{endpoint}?{query}")
    return targets


def poisson_due_us(seed, phase, rate, n):
    """`n` Poisson arrival times (microseconds) at `rate` per second."""
    rng = random.Random(f"perfbench/arrivals/{phase}/{seed}")
    t, due = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        due.append(int(t * 1e6))
    return due


def repeat_share(targets):
    """Share of requests whose exact target appeared earlier."""
    if not targets:
        return 0.0
    return 1.0 - len(set(targets)) / len(targets)
