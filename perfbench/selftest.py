"""Self-tests of the benchmark's own arithmetic and span recording.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
test_*.py), so the Tier-1 run does not pick it up.
"""

import sys
import types
import unittest

import run
import stats
from spans import Recorder


def span(sid, name, start, end, parent=None, extra=None, exc=None, cmd=0):
    return (cmd, sid, name, start, end, parent, extra, exc)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # main [0, 100] > a [10, 40] > b [20, 30]; main > a [50, 70]; main > c [60, 90]
        spans = [span(0, "main", 0, 100), span(1, "a", 10, 40, 0), span(2, "b", 20, 30, 1),
                 span(3, "a", 50, 70, 0), span(4, "c", 60, 90, 0)]
        t = stats.layer_table(spans)
        # children of main cover [10, 40] and the union [50, 90]: 70 of 100
        self.assertAlmostEqual(t["main"]["self_s"], 30e-9)
        self.assertAlmostEqual(t["a"]["self_s"], 20e-9 + 20e-9)
        self.assertAlmostEqual(t["a"]["busy_s"], 50e-9)
        self.assertEqual(t["a"]["calls"], 2)
        self.assertAlmostEqual(t["b"]["self_s"], 10e-9)

    def test_recursion_counts_busy_once(self):
        spans = [span(0, "f", 0, 100), span(1, "f", 10, 60, 0)]
        t = stats.layer_table(spans)
        self.assertAlmostEqual(t["f"]["busy_s"], 100e-9)
        self.assertAlmostEqual(t["f"]["self_s"], 50e-9 + 50e-9)

    def test_span_ids_are_per_command(self):
        spans = [span(0, "main", 0, 100, cmd=0), span(0, "main", 0, 100, cmd=1),
                 span(1, "a", 0, 100, 0, cmd=1)]
        t = stats.layer_table(spans)
        self.assertAlmostEqual(t["main"]["self_s"], 100e-9)


class TailPercentile(unittest.TestCase):
    def test_rule(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(2000), 99.5)

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.median([3, 1, 2, 10]), 2.5)


class FailureAccounting(unittest.TestCase):
    def test_exit_4_fails_every_row(self):
        self.assertEqual(stats.account_rows(60, 4, []), (60, 60))
        self.assertEqual(stats.account_rows(5, 4, [True] * 5), (5, 5))

    def test_oracle_and_missing_rows(self):
        self.assertEqual(stats.account_rows(5, 0, [True, False, True]), (5, 3))
        self.assertEqual(stats.account_rows(None, 0, [True] * 9), (9, 0))
        self.assertEqual(stats.account_rows(None, 3, [True] * 9), (9, 9))
        self.assertEqual(stats.account_rows(None, 0, []), (1, 1))


class DerivedLayerMetrics(unittest.TestCase):
    def test_clusters_and_transmission_per_call(self):
        spans = [
            span(0, "chain.spectrum", 0, 100, extra={"n": 40}),
            span(1, "denselinalg.sym_eigen", 0, 50, 0, extra={"n": 40}),
            span(2, "denselinalg.sym_eigen", 60, 61, 0, extra={"n": 2}),
            span(3, "denselinalg.sym_eigen", 62, 63, 0, extra={"n": 2}),
            span(4, "denselinalg.sym_eigen", 200, 250, extra={"n": 3}),
            span(5, "transport.current", 300, 400),
            span(6, "transport.transmission", 310, 320, 5),
            span(7, "transport.transmission", 320, 330, 5),
            span(8, "transport.current", 400, 500),
            span(9, "transport.transmission", 410, 420, 8, exc="SingularBoundaryError"),
            span(10, "transport.transmission", 600, 610),
        ]
        m = run.layer_metrics(spans)
        self.assertEqual(m["chain.spectrum.degenerate_clusters"], 2)
        self.assertEqual(m["denselinalg.sym_eigen.n_max"], 40)
        self.assertEqual(m["transport.current.transmission_per_call"], 1.5)
        self.assertEqual(m["transport.transmission.calls"], 4)
        self.assertEqual(m["transport.singular_boundary"], 1)
        self.assertEqual(m["exactnum.basic_sequences.calls"], 0)
        self.assertEqual(m["exactnum.basic_sequences.tail_ms"], 0.0)


class Recording(unittest.TestCase):
    def setUp(self):
        pkg, a, b = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b"))

        def f(x):
            return x + 1

        def boom():
            raise KeyError("x")

        def outer():
            return a.boom()

        a.f, a.boom, b.f, b.outer, b.TABLE = f, boom, f, outer, {"k": f}
        self.mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
        sys.modules.update(self.mods)
        self.a, self.b = a, b

    def tearDown(self):
        for name in self.mods:
            del sys.modules[name]

    def test_wraps_every_binding_and_reports_absent(self):
        rec = Recorder()
        absent = rec.install(["a.f", "a.boom", "b.outer", "a.gone", "c.f"], package="fakepkg")
        self.assertEqual(absent, ["a.gone", "c.f"])
        self.assertEqual(self.b.f(1) + self.b.TABLE["k"](1) + self.a.f(1), 6)
        self.assertEqual([s[1] for s in rec.spans], ["a.f"] * 3)

    def test_exception_recorded_once_innermost(self):
        rec = Recorder()
        rec.install(["a.boom", "b.outer"], package="fakepkg")
        with self.assertRaises(KeyError):
            self.b.outer()
        outer, inner = rec.spans
        self.assertEqual((outer[1], outer[6]), ("b.outer", None))
        self.assertEqual((inner[1], inner[4], inner[6]), ("a.boom", outer[0], "KeyError"))


if __name__ == "__main__":
    unittest.main()
