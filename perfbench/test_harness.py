"""Self-tests of the benchmark's analysis code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import harness


class PercentileRule(unittest.TestCase):
    def test_ninetieth_needs_a_hundred_samples(self):
        values = list(range(1, 101))  # 1..100
        pct, value = harness.tail_percentile(values)
        self.assertEqual((pct, value), (90, 90))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_fewer_samples_report_a_lower_percentile_with_ten_beyond(self):
        for n in (11, 20, 37, 50, 99):
            values = [float(i) for i in range(n)]
            pct, value = harness.tail_percentile(values)
            self.assertLess(pct, 90, n)
            self.assertGreaterEqual(sum(v > value for v in values), 10, n)
            # The next whole percentile up would leave fewer than ten beyond.
            nxt = harness.nearest_rank(sorted(values), pct + 1)
            self.assertLess(sum(v > nxt for v in values), 10, n)

    def test_ten_or_fewer_samples_report_the_maximum(self):
        self.assertEqual(harness.tail_percentile([3.0]), (100, 3.0))
        self.assertEqual(harness.tail_percentile([5.0, 1.0, 9.0]), (100, 9.0))
        self.assertEqual(harness.tail_percentile(list(range(10)))[0], 100)

    def test_order_does_not_matter(self):
        values = [7, 3, 9, 1, 5] * 30
        self.assertEqual(harness.tail_percentile(values),
                         harness.tail_percentile(sorted(values)))


class SelfTime(unittest.TestCase):
    def test_nested_chain(self):
        # flow [0,100) > stage [10,60) > sim.op [20,30) and sim.op [40,45)
        spans = [(1, 0, 0, 100), (2, 1, 10, 50), (3, 2, 20, 10), (4, 2, 40, 5)]
        self.assertEqual(harness.self_times(spans), {1: 50, 2: 35, 3: 10, 4: 5})

    def test_parallel_children_are_counted_once(self):
        # Two worker spans under one parent overlap on [30, 50).
        spans = [(1, 0, 0, 100), (2, 1, 10, 40), (3, 1, 30, 40)]
        self.assertEqual(harness.self_times(spans)[1], 100 - 60)

    def test_child_outside_parent_is_clipped(self):
        spans = [(1, 0, 0, 10), (2, 1, 5, 20)]
        self.assertEqual(harness.self_times(spans)[1], 5)

    def test_child_of_missing_parent_is_a_root(self):
        spans = [(5, 3, 0, 10)]
        self.assertEqual(harness.self_times(spans), {5: 10})

    def test_union_length(self):
        self.assertEqual(harness.union_length([]), 0)
        self.assertEqual(harness.union_length([(0, 5), (5, 7), (10, 12)]), 9)
        self.assertEqual(harness.union_length([(0, 10), (2, 3), (4, 12)]), 12)


def flow_op(decisions="chosen a=1", status="ok", seed=1):
    return {"op": "flow", "circuit": "ota", "seed": seed, "mode": "optimize",
            "status": status, "decisions": decisions}


def measure_op(metrics, seed=1, vctrl=None):
    op = {"op": "measure", "circuit": "vco", "seed": seed, "of": "optimize",
          "status": "ok", "metrics": metrics}
    if vctrl is not None:
        op["vctrl"] = vctrl
    return op


class ReferenceComparator(unittest.TestCase):
    def setUp(self):
        self.reference = {
            harness.op_key(flow_op()): harness.reference_entry(flow_op()),
            harness.op_key(measure_op({}, vctrl=0.5)):
                harness.reference_entry(measure_op({"freq_hz": 2.0e10}, vctrl=0.5)),
            harness.op_key(measure_op({}, vctrl=0.0)):
                harness.reference_entry(measure_op({"freq_hz": None}, vctrl=0.0)),
        }

    def verdict(self, op):
        return harness.compare(op, self.reference)[0]

    def test_decisions_must_match_exactly(self):
        self.assertEqual(self.verdict(flow_op()), "ok")
        self.assertEqual(self.verdict(flow_op("chosen a=2")), "failed")
        self.assertEqual(self.verdict(flow_op("chosen a=1 ")), "failed")

    def test_status_must_match(self):
        self.assertEqual(self.verdict(flow_op(status="degraded")), "failed")
        self.assertEqual(self.verdict(flow_op(status="failed")), "failed")

    def test_metrics_within_one_in_a_million(self):
        self.assertEqual(self.verdict(measure_op({"freq_hz": 2.0e10 * (1 + 9e-7)}, vctrl=0.5)),
                         "ok")
        self.assertEqual(self.verdict(measure_op({"freq_hz": 2.0e10 * (1 + 2e-6)}, vctrl=0.5)),
                         "failed")
        self.assertEqual(self.verdict(measure_op({"freq_hz": None}, vctrl=0.5)), "failed")
        self.assertEqual(self.verdict(measure_op({"freq_hz": None}, vctrl=0.0)), "ok")
        self.assertEqual(self.verdict(measure_op({"freq_hz": 1.0}, vctrl=0.0)), "failed")

    def test_metric_names_must_match(self):
        self.assertEqual(self.verdict(measure_op({"freq_hz": 2.0e10, "x": 1.0}, vctrl=0.5)),
                         "failed")

    def test_seed_without_reference_is_unchecked(self):
        self.assertEqual(self.verdict(flow_op(seed=99)), "unchecked")
        self.assertEqual(self.verdict(flow_op(seed=99, status="failed")), "failed")


class Inputs(unittest.TestCase):
    def test_same_seed_same_rounds(self):
        for w in harness.WORKLOADS:
            self.assertEqual(harness.make_rounds(w, 7, 5), harness.make_rounds(w, 7, 5))
            self.assertNotEqual(harness.make_rounds(w, 7, 5), harness.make_rounds(w, 8, 5))

    def test_rounds_draw_from_the_reference_pool(self):
        for w in harness.WORKLOADS:
            for round_ in harness.make_rounds(w, 3, 10):
                for _, seed in round_:
                    self.assertIn(seed, harness.POOLS[w])

    def test_round_count_depends_only_on_seconds(self):
        self.assertEqual(harness.round_count("vco_tran", 1), 1)
        self.assertEqual(harness.round_count("vco_tran", 20), 1)
        self.assertEqual(harness.round_count("table6_flows", 0.1), 2)  # warm-up + 1
        self.assertLess(harness.round_count("table6_flows", 10),
                        harness.round_count("table6_flows", 20))

    def test_batch_round_is_half_ota_half_strongarm(self):
        jobs = harness.make_rounds("batch_explore", 1, 1)[0]
        self.assertEqual(len(jobs), harness.BATCH_JOBS)
        self.assertEqual(sum(c == "ota" for c, _ in jobs), harness.BATCH_JOBS // 2)
        self.assertEqual(len(set(jobs)), len(jobs))


def tiny_run():
    """Driver records of a two-pair traced run with one flow per round."""
    records = {"setup_s": [1e-4, 2e-4, 3e-4], "setup_probe_s": [harness.PROBE_REF_S] * 3,
               "peak_rss_kb": 20480, "rounds": [], "ops": [], "batches": [], "traces": []}
    for r in range(2):
        for traced in (0, 1):
            records["rounds"].append({"round": r, "traced": traced, "wall_s": 1.0 + traced,
                                      "calls_s": 0.99, "probe_s": harness.PROBE_REF_S})
            records["ops"].append({"op": "flow", "round": r, "traced": traced,
                                   "circuit": "ota", "seed": r + 1, "mode": "optimize",
                                   "secs": 0.5, "probe_s": harness.PROBE_REF_S,
                                   "status": "ok", "decisions": ""})
        records["traces"].append({
            "names": ["flow.optimize", "sim.op"],
            "spans": [[1, 0, 0, 0, 500000], [2, 1, 1, 100, 200000]],
            "counters": {"sim.op": 1, "eval.testbench": 3}, "dists": {}, "hists": {}})
    return records


class Metrics(unittest.TestCase):
    def setUp(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        with open(path) as f:
            self.spec = json.load(f)

    def test_end_to_end_names_and_units_match_benchmark_json(self):
        m = harness.end_to_end(tiny_run(), "table6_flows")
        self.assertEqual({n: v["unit"] for n, v in m.items()},
                         {e["name"]: e["unit"] for e in self.spec["end_to_end"]})
        self.assertTrue(all(v["value"] > 0 for v in m.values()))

    def test_end_to_end_sums_host_scaled_rounds_after_the_warmup(self):
        ref = harness.PROBE_REF_S
        # Round 0 is the warm-up; round 2 ran with the host at half speed,
        # and its flow call at a quarter.
        walls = [5.0, 1.0, 2.0, 1.5]
        probes = [ref, ref, 2 * ref, ref]
        flows = [4.0, 0.5, 2.0, 0.6]
        flow_probes = [ref, ref, 4 * ref, ref]
        # The set-ups ran at full, half and full speed.
        records = {"setup_s": [1e-4, 4e-4, 3e-4],
                   "setup_probe_s": [ref, 2 * ref, ref], "peak_rss_kb": 20480, "batches": [],
                   "rounds": [{"round": r, "traced": 0, "wall_s": w, "calls_s": w,
                               "probe_s": p} for r, (w, p) in enumerate(zip(walls, probes))],
                   "ops": [{"op": "flow", "round": r, "traced": 0, "secs": f, "probe_s": p}
                           for r, (f, p) in enumerate(zip(flows, flow_probes))]}
        m = harness.end_to_end(records, "table6_flows")
        self.assertAlmostEqual(m["wall_s"]["value"], 1.0 + 1.0 + 1.5)
        self.assertAlmostEqual(m["flow_s"]["value"], 0.5 + 0.5 + 0.6)
        self.assertAlmostEqual(m["flows_per_s"]["value"], 3 / 3.5)
        # Scaled set-ups are 1e-4, 2e-4 and 3e-4.
        self.assertAlmostEqual(m["setup_s"]["value"], 2e-4)
        self.assertEqual(m["peak_rss_mb"]["value"], 20.0)
        u = harness.unscaled(records, "table6_flows")
        self.assertAlmostEqual(u["wall_s_measured"], 4.5)
        self.assertAlmostEqual(u["probe_ms"], 1e3 * ref * 4 / 3)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        m, bases = harness.per_layer(tiny_run(), "table6_flows", attempted=4, failed=0)
        self.assertEqual({n: v["unit"] for n, v in m.items()},
                         {e["name"]: e["unit"] for e in self.spec["per_layer"]})
        self.assertFalse(set(bases) & set(m))

    def test_per_layer_arithmetic(self):
        m, bases = harness.per_layer(tiny_run(), "table6_flows", attempted=4, failed=1)
        self.assertEqual(bases["trace.rounds"], 2)
        self.assertEqual(bases["trace.base_s"], 2.0)
        self.assertAlmostEqual(m["trace.overhead"]["value"], 1.0)  # 4 s traced, 2 s not
        self.assertAlmostEqual(m["trace.attributed_share"]["value"], 0.99)
        self.assertEqual(m["core.testbenches"]["value"], 3)
        # 2 x 0.2 s of sim.op self time over 4 s of traced wall.
        self.assertAlmostEqual(m["spice.op.self_share"]["value"], 0.1)
        self.assertAlmostEqual(m["spice.self_share"]["value"], 0.1)
        self.assertAlmostEqual(m["circuits.flow.optimize_share"]["value"], 0.25)
        self.assertEqual(m["fail_rate"]["value"], 0.25)
        self.assertEqual(bases["flow.samples"], 2)
        self.assertEqual(bases["flow.tail_pct"], 100)


if __name__ == "__main__":
    unittest.main()
