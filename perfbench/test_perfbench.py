"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench
"""

import csv
import shutil
import tempfile
import unittest
from pathlib import Path

import calibrate
import run
import spans

run.use_source_tree()
import workloads  # noqa: E402  (needs the source tree on sys.path)


def _scratch() -> Path:
    run.OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=run.OUT))


def _span(sid, parent, name, start, end, failed=False):
    return spans.Span(sid, parent, name, start, end, 0, failed)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        tree = [
            _span(0, None, "cli", 0.0, 10.0),
            _span(1, 0, "distances.table", 1.0, 4.0),
            _span(2, 1, "transport.simplex", 2.0, 3.0),
            _span(3, 0, "witness", 3.0, 6.0),  # overlaps span 1 on [3, 4]
            _span(4, 0, "reporting", 8.0, 12.0),  # runs past its parent
        ]
        got = spans.self_times(tree)
        self.assertAlmostEqual(got[0], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(got[1], 2.0)
        self.assertAlmostEqual(got[2], 1.0)
        self.assertAlmostEqual(got[3], 3.0)
        self.assertAlmostEqual(got[4], 4.0)

    def test_totals_count_reentered_layers_once(self):
        tree = [
            _span(0, None, "distances.table", 0.0, 5.0),
            _span(1, 0, "witness", 1.0, 4.0),
            _span(2, 1, "distances.table", 2.0, 3.0),
            _span(3, 0, "transport.greedy", 4.0, 4.5, failed=True),
            _span(4, 0, "transport.greedy", 4.5, 4.75),
        ]
        t = spans.totals(tree)
        self.assertEqual(t["distances.table.calls"], 2)
        self.assertAlmostEqual(t["distances.table.s"], 5.0)
        self.assertAlmostEqual(t["distances.table.self_s"], (5.0 - 3.0 - 0.75) + 1.0)
        m = spans.pass_metrics(tree)
        self.assertEqual(m["transport.greedy.rejects"], 1)
        self.assertAlmostEqual(m["transport.greedy.hit_ratio"], 0.5)
        self.assertEqual(m["transport.simplex.calls"], 0)
        self.assertEqual(m["optimize.surrogate_per_exact"], 0.0)


class RatiosTest(unittest.TestCase):
    def test_each_time_is_divided_by_the_reference_around_it(self):
        reference = iter([1.0, 3.0, 2.0, 2.0])
        r = calibrate.Ratios(lambda: next(reference), 0.5)
        for seconds in (4.0, 10.0, 6.0):
            r.add(seconds)
        self.assertEqual(r.times, [4.0, 10.0, 6.0])
        self.assertEqual(r.ratios, [2.0, 4.0, 3.0])
        self.assertAlmostEqual(r.scaled(), 1.5)


class WrapperTest(unittest.TestCase):
    def _originals(self):
        return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in spans.layer_points()]

    def test_wrappers_are_removed_after_the_traced_block(self):
        before = self._originals()
        tracer = spans.Tracer()
        out = str(_scratch())
        try:
            with tracer.installed(spans.layer_points()):
                self.assertTrue(all(vars(o)[a] is not f for o, a, f in before))
                from mannrates import cli
                rc = cli.main(["bounds", "--scheme", "km", "--alpha", "constant:0.5",
                               "--N", "4", "--certify", "--out", out])
            self.assertEqual(rc, 0)
        finally:
            shutil.rmtree(out)
        self.assertTrue(all(vars(o)[a] is f for o, a, f in before))
        names = {s.name for s in tracer.spans}
        self.assertLessEqual({"cli", "distances.table", "transport.greedy", "witness",
                              "reporting", "schemes.check_monotone"}, names)

    def test_wrappers_are_removed_when_the_block_raises(self):
        before = self._originals()
        with self.assertRaises(RuntimeError):
            with spans.Tracer().installed(spans.layer_points()):
                raise RuntimeError("boom")
        self.assertTrue(all(vars(o)[a] is f for o, a, f in before))


def _bump_last_R(path: Path, delta: float):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[-1][1] = repr(float(rows[-1][1]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.tmp = _scratch()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _flags_perturbed_copy(self, cmd, csv_name):
        outcome = cmd.run()
        ref = {"0": {cmd.label: cmd.record(outcome)}}
        self.assertEqual(workloads.check(cmd, outcome, ref, 0), [])
        copy = self.tmp / "copy"
        shutil.copytree(outcome.result, copy)
        _bump_last_R(copy / csv_name, 1e-6)
        bad = workloads.Outcome(True, "exit 0", copy)
        self.assertNotEqual(workloads.check(cmd, bad, ref, 0), [])

    def test_bounds_check_flags_perturbed_R_N(self):
        cmd = workloads.Command(
            "b", workloads._cli(["bounds", "--scheme", "km", "--alpha", "constant:0.5",
                                 "--N", "6", "--certify"], self.tmp / "b"),
            workloads._bounds_check, workloads._bounds_record)
        self._flags_perturbed_copy(cmd, "bounds.csv")

    def test_optimize_check_flags_perturbed_R_N(self):
        cmd = workloads._optimize_command(
            "o", ["optimize", "--mode", "ms", "--N", "5", "--restarts", "2"], self.tmp / "o")
        self._flags_perturbed_copy(cmd, "optimize-ms.csv")

    def test_check_flags_nonzero_exit(self):
        cmd = workloads._optimize_command(
            "o", ["optimize", "--mode", "scheme", "--N", "3"], self.tmp / "o")
        outcome = cmd.run()
        self.assertFalse(outcome.ok)
        self.assertNotEqual(workloads.check(cmd, outcome, {}, 0), [])

    def test_default_seed_matches_recorded_references(self):
        wl = workloads.build("tables", workloads.DEFAULT_SEED, self.tmp / "w")
        refs = workloads.load_refs("tables")
        for cmd in wl.commands:
            self.assertEqual(workloads.check(cmd, cmd.run(), refs, wl.variant), [], cmd.label)


if __name__ == "__main__":
    unittest.main()
