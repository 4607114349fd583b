"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import re
import unittest
from pathlib import Path

import run
import schedule
import stats

HERE = Path(__file__).resolve().parent
# 138 cities like the gazetteer's: the repeat share depends on which
# popularity rank each draw picks, not on the names or populations.
CITIES = [(f"City {i}", float((i * 37) % 138 + 1)) for i in range(138)]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


class ScheduleTest(unittest.TestCase):
    def test_pure_function_of_seed(self):
        for kind in schedule.KINDS:
            a = schedule.serve_targets(7, "fixed", kind, CITIES, 500)
            self.assertEqual(a, schedule.serve_targets(7, "fixed", kind, CITIES, 500))
            self.assertNotEqual(a, schedule.serve_targets(8, "fixed", kind, CITIES, 500))
        due = schedule.poisson_due_us(7, "fixed", 500.0, 500)
        self.assertEqual(due, schedule.poisson_due_us(7, "fixed", 500.0, 500))
        self.assertNotEqual(due, schedule.poisson_due_us(8, "fixed", 500.0, 500))
        self.assertEqual(due, sorted(due))

    def test_phases_draw_independent_requests(self):
        a = schedule.serve_targets(7, "fixed", "unique", CITIES, 300)
        b = schedule.serve_targets(7, "warmup", "unique", CITIES, 300)
        self.assertFalse(set(a) & set(b))

    def test_every_schedule_has_the_exact_mix(self):
        for n in (250, 1000):
            for kind in schedule.KINDS:
                targets = schedule.serve_targets(3, "fixed", kind, CITIES, n)
                for endpoint, share in schedule.MIX:
                    got = sum(t.startswith(f"/query/{endpoint}?") for t in targets)
                    self.assertLessEqual(abs(got - share * n), 1)

    def test_cities_follow_population_rank(self):
        counts = {}
        for t in schedule.serve_targets(5, "batch", "repeat", CITIES, 5000):
            if "city=" in t:
                city = t.split("city=")[1].split("&")[0].replace("%20", " ")
                counts[city] = counts.get(city, 0) + 1
        ranked = schedule.by_population(CITIES)
        self.assertEqual(ranked[0], "City 41")  # (41 * 37) % 138 + 1 = 138
        self.assertEqual(max(counts, key=counts.get), ranked[0])
        self.assertGreater(counts[ranked[0]], counts.get(ranked[-1], 0))

    def batch(self, seed, kind):
        run.CITIES = CITIES
        return run.serve_targets(seed, "batch", kind, run.SERVE_BATCH)

    def test_repeat_share_is_zero_without_repetition(self):
        for seed in (1, 2, 42):
            self.assertEqual(schedule.repeat_share(self.batch(seed, "unique")), 0.0)

    def test_repeat_share_matches_recorded_values(self):
        # The batch of serve_repeat, as recorded from this generator; a
        # change to the mix, the Zipf exponent, the population ranking or
        # the seeded share moves them and must say so.
        recorded = {1: 0.3586666666666667, 42: 0.3826666666666667}
        for seed, share in recorded.items():
            self.assertEqual(schedule.repeat_share(self.batch(seed, "repeat")), share)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.percentile(values, 99), 990)
        self.assertIsNone(stats.percentile(values[:999], 99))
        self.assertEqual(stats.percentile(values[:20], 50), 10)
        self.assertIsNone(stats.percentile(values[:19], 50))
        self.assertIsNone(stats.percentile([], 50))

    def test_failures_sort_last(self):
        values = [1.0] * 995 + [float("inf")] * 5
        self.assertEqual(stats.percentile(values, 99), 1.0)
        values = [1.0] * 985 + [float("inf")] * 15
        self.assertEqual(stats.percentile(values, 99), float("inf"))


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_traced_run_reports_every_campaign_layer(self):
        spans = [
            {"name": "campaign", "start_ns": 0, "end_ns": 10, "counters": {}},
            {"name": "scenario.new", "start_ns": 0, "end_ns": 1, "counters": {}},
            {"name": "probe.latency", "start_ns": 1, "end_ns": 2,
             "counters": {"net.probes_sent": 4}},
            {"name": "trace.generate.nep", "start_ns": 2, "end_ns": 4,
             "counters": {"trace.cpu_samples": 3, "trace.bw_samples": 1}},
            {"name": "predict.lstm", "start_ns": 4, "end_ns": 6,
             "counters": {"predict.epochs_run": 2}},
            {"name": "experiment:dyn_outage_qoe", "start_ns": 6, "end_ns": 8,
             "counters": {"engine.steps_run": 5}},
            {"name": "report.render", "start_ns": 8, "end_ns": 9, "counters": {}},
        ]
        layers = run.span_layers(spans)
        self.assertAlmostEqual(layers["campaign.attributed_share"], 0.9)
        self.assertAlmostEqual(layers["campaign.unattributed_s"], 1e-9)
        self.assertEqual(layers["trace.ns_per_sample"], 0.5)
        self.assertEqual(layers["engine.steps_run"], 5)
        added_later = {"executor.idle_core_s", "campaign.trace_overhead_s"}
        campaign_layers = {m["name"] for m in self.spec["per_layer"]
                           if not m["name"].startswith(("serve.", "loadgen."))
                           and m["name"] not in ("p50_ms", "p99_ms")}
        self.assertEqual(campaign_layers - set(layers), added_later)


if __name__ == "__main__":
    unittest.main()
