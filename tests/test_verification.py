import numpy as np
import pytest

from tetranacci import verification
from tetranacci.recurrence import Coefficients, eval_range
from tetranacci.verification import _lemma_replay, run_suite, suite_lemmata

from unit_initials import unit


def test_batched_lemma_replay_equals_eval_range():
    t, zeta, eta = _lemma_replay()
    points = list(zip(zeta.tolist(), eta.tolist()))
    assert points == [(z, e) for z in range(8) for e in range(15)]
    rows = np.arange(-14, 15)
    for p, (z, e) in enumerate(points):
        assert type(z) is int and type(e) is int
        for i in (-2, -1, 0, 1):
            want = eval_range(unit(i), Coefficients(z, e), -14, 14)
            got = t[i][rows, p].tolist()
            assert tuple(got) == want.values
            assert all(type(v) is int for v in got)


def test_batched_suite_fails_on_flipped_sign(monkeypatch):
    assert [ok for _, ok, _ in suite_lemmata()] == [True, True]
    flipped = list(verification._REDUCTION)
    flipped[3] = lambda t, eta, j: t[1][j] == t[-2][j + 1]
    monkeypatch.setattr(verification, "_REDUCTION", tuple(flipped))
    assert [ok for _, ok, _ in suite_lemmata()] == [True, False]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_suite_rows_are_python_bools_with_elapsed(seed):
    rows = run_suite("all", seed)
    assert len(rows) == 9
    for check, ok, detail, elapsed in rows:
        assert type(ok) is bool and ok, (check, detail)
        assert type(elapsed) is float and elapsed > 0.0
    # one time per suite, shared by its checks
    by_suite = {}
    for check, _, _, elapsed in rows:
        by_suite.setdefault(check.split(":")[0], set()).add(elapsed)
    assert list(by_suite) == list(verification.SUITES)
    assert all(len(times) == 1 for times in by_suite.values())
