"""Fast self-test of the benchmark harness: the percentile rule, failure
counting, self times, and that tracing wrappers are put back.

Run from the repository root:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import unittest

import run
import tracer
from workloads import SimWorkload, Unit

privcache, _ = run.import_privcache()


class PercentileRule(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(5000), 90)
        self.assertEqual(run.tail_percentile(99), 89)

    def test_fewer_samples_keep_ten_beyond(self):
        for n in range(20, 100):
            p = run.tail_percentile(n)
            beyond = n - (p * n + 99) // 100
            self.assertGreaterEqual(beyond, 10, n)
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertIsNone(run.tail_percentile(19))

    def test_nearest_rank(self):
        values = [float(v) for v in range(100, 0, -1)]
        self.assertEqual(run.percentile(values, 90), 90.0)
        self.assertEqual(run.percentile(values, 50), 50.0)
        self.assertEqual(run.percentile([3.0], 90), 3.0)


class FakeCli:
    """Stands in for privcache.cli: exit code and output keyed by argv[0]."""

    def __init__(self, replies):
        self.replies = replies

    def main(self, argv):
        rc, out = self.replies[argv[0]]
        if rc is None:
            raise RuntimeError("crash")
        print(out, end="")
        return rc


class FailCounting(unittest.TestCase):
    def test_exit_codes_crashes_and_check_flags(self):
        cli = FakeCli({"ok": (0, "a"), "bad-exit": (1, "a"), "crash": (None, ""), "odd": (0, "b")})

        def check(results):
            return [rc != 0 or out != "a" for rc, out in results]

        units = [Unit([("k", [name])], check) for name in ("ok", "bad-exit", "crash", "odd", "ok")]
        runner = run.Runner(cli)
        runner.run_units(units)
        self.assertEqual((runner.attempted, runner.failed), (5, 3))
        self.assertEqual(len(runner.times("k")), 2)  # only passing ops give latencies
        self.assertEqual(len(runner.times()), 5)  # every completed op counts for throughput

    def test_decoder_mismatch_fails_the_structural_op(self):
        sim = SimWorkload("sim-test", 5, 2, 2, 1)
        sim.prepare(privcache.tradeoff)
        unit = sim._trial(7)
        outs = []
        for _, argv in unit.ops:
            rc, out, _ = run.call(privcache.cli.main, argv)
            outs.append((rc, out))
        self.assertEqual(unit.check(outs), [False, False])
        self.assertEqual(unit.check([outs[0], (0, outs[1][1] + " ")]), [False, True])
        self.assertEqual(unit.check([(2, ""), outs[1]]), [True, True])


class SpeedScaling(unittest.TestCase):
    def test_each_op_is_scaled_by_the_samples_around_it(self):
        cli = FakeCli({"ok": (0, "a")})
        ref = run.CALIBRATION_REF_S
        samples = iter([2 * ref] * 11 + [ref / 2] * 10)  # one sample first, then one after each op
        runner = run.Runner(cli, calibrate=lambda: next(samples))
        runner.run_units([Unit([("k", ["ok"])], lambda results: [False]) for _ in range(20)])
        raw, scaled = runner.times("k", scaled=False), runner.times("k")
        self.assertAlmostEqual(scaled[0], raw[0] / 2)
        self.assertAlmostEqual(scaled[10], raw[10] / 1.25)
        self.assertAlmostEqual(scaled[19], raw[19] * 2)


class Tracing(unittest.TestCase):
    def bindings(self):
        mods = tracer._package_modules()
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}

    def test_wrappers_cover_every_binding_and_are_restored(self):
        before = self.bindings()
        value_at = privcache.exact.Envelope.__dict__["value_at"]
        with self.assertRaises(KeyError):
            with tracer.traced() as trace:
                self.assertIsNot(privcache.ucc.solve_any, before[("privcache.ucc", "solve_any")])
                self.assertIsNot(privcache.tradeoff.lower_convex_envelope,
                                 before[("privcache.tradeoff", "lower_convex_envelope")])
                self.assertIsNot(privcache.run_simulation, before[("privcache", "run_simulation")])
                trace.begin_op("gap")
                rc, _, _ = run.call(privcache.cli.main, ["gap", "--N", "2", "--K", "2", "--L", "1"])
                self.assertEqual(rc, 0)
                raise KeyError("restore must survive an exception")
        after = self.bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertIs(privcache.exact.Envelope.__dict__["value_at"], value_at)

        names = tracer.NAMES
        main = names.index("cli.main")
        self.assertEqual(trace.calls[main], 1)
        self.assertGreater(trace.calls[names.index("exact.Envelope.value_at")], 0)
        # 101 grid points for the corner envelope and for each of 2 x 9 (s, lambda) lines
        self.assertEqual(trace.tallies[names.index("tradeoff.verify_envelope_dominance")]["checked_points"],
                         101 * 19)
        roots = [i for i, p in enumerate(trace.parents) if p < 0]
        self.assertEqual([trace.name_ids[i] for i in roots], [main])
        self.assertTrue(all(op == 0 for op in trace.op_ids))

    def test_self_time_subtracts_direct_children(self):
        trace = tracer.Trace()
        # span 0 [0, 10] -> span 1 [1, 4] -> span 2 [2, 3]; span 3 [5, 9] under span 0
        for name_id, parent, start, end in ((0, -1, 0, 10), (1, 0, 1, 4), (2, 1, 2, 3), (1, 0, 5, 9)):
            trace.name_ids.append(name_id)
            trace.parents.append(parent)
            trace.op_ids.append(-1)
            trace.starts.append(start)
            trace.ends.append(end)
        self_s = trace.self_times()
        self.assertEqual(self_s[:3], [3.0, 6.0, 1.0])


if __name__ == "__main__":
    unittest.main()
