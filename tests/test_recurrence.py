import numpy as np
import pytest

from tetranacci.errors import PreconditionError
from tetranacci.exactnum import tm2_replay
from tetranacci.recurrence import Coefficients, InitialValues, eval_range, replay
from tetranacci.verification import _INVERSION, _REDUCTION, _lemma_replay

from unit_initials import unit


def random_setup(rng):
    c = Coefficients(complex(rng.normal(), rng.normal()),
                     complex(rng.normal(), rng.normal()))
    g = InitialValues(tuple(complex(a, b) for a, b in rng.normal(size=(4, 2))))
    return c, g


def test_step_forward_unit_g1():
    c = Coefficients(0.3 + 0.1j, -1.2 + 0.4j)
    # window (xi_-2..xi_1) = (0,0,0,1): xi_2 = eta
    assert replay((0, 0, 0, 1), c.zeta, c.eta, 2, 2)[0] == c.eta


def test_step_forward_unit_gm2():
    c = Coefficients(0.3, -1.2)
    assert replay((1, 0, 0, 0), c.zeta, c.eta, 2, 2)[0] == -1


def test_step_forward_zero_window():
    assert replay((0, 0, 0, 0), 1, 1, 2, 2)[0] == 0


def test_step_backward_consistency():
    c = Coefficients(0.5 + 0.2j, 1.1)
    # from (xi_-1, xi_0, xi_1, xi_2) with g = e_1 the backward step is g_-2 = 0
    assert replay((0, 0, 1, c.eta), c.zeta, c.eta, -3, -3)[0] == 0


def test_step_backward_zero_window():
    assert replay((0, 0, 0, 0), 1, 1, -3, -3)[0] == 0


def test_forward_backward_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c, g = random_setup(rng)
        w = eval_range(g, c, -6, 8)
        for j in range(-4, 7):
            tail = tuple(w.value(j + s) for s in (-2, -1, 0, 1))
            forward = replay(tail, c.zeta, c.eta, 2, 2)[0]
            head = (w.value(j - 1), w.value(j), w.value(j + 1), forward)
            recovered = replay(head, c.zeta, c.eta, -3, -3)[0]
            scale = max(abs(w.value(j - 2)), 1.0)
            assert abs(recovered - w.value(j - 2)) <= 1e-12 * scale


def test_eval_range_unit_g1_window():
    zeta, eta = 0.7 + 0.3j, -1.4 + 0.2j
    c = Coefficients(zeta, eta)
    w = eval_range(unit(1), c, -2, 4)
    expected = [0, 0, 0, 1, eta, eta * eta + zeta,
                eta ** 3 + 2 * zeta * eta + eta]
    for j, want in zip(range(-2, 5), expected):
        assert abs(w.value(j) - want) < 1e-12 * max(1.0, abs(want))


def test_eval_range_unit_gm2_window():
    zeta, eta = -0.4, 0.9
    c = Coefficients(zeta, eta)
    w = eval_range(unit(-2), c, 2, 4)
    expected = [-1, -eta, -(eta * eta + zeta)]
    for j, want in zip(range(2, 5), expected):
        assert abs(w.value(j) - want) < 1e-12


def test_eval_range_zero():
    g = InitialValues((0, 0, 0, 0))
    w = eval_range(g, Coefficients(2.0, -1.0), -10, 10)
    assert all(v == 0 for v in w.values)


def test_initial_values_need_four():
    with pytest.raises(ValueError, match="four"):
        InitialValues((1, 2, 3))


def test_eval_range_rejects_bad_range():
    with pytest.raises(PreconditionError):
        eval_range(unit(0), Coefficients(1, 1), 3, 1)
    # an index outside the window it replayed
    w = eval_range(unit(0), Coefficients(1, 1), 1, 3)
    for j in (0, 4):
        with pytest.raises(PreconditionError):
            w.value(j)


def test_eval_range_residual():
    rng = np.random.default_rng(11)
    for _ in range(10):
        c, g = random_setup(rng)
        w = eval_range(g, c, -15, 15)
        scale = max(abs(v) for v in w.values)
        for j in range(-13, 14):
            lhs = w.value(j + 2)
            rhs = (c.zeta * w.value(j) - w.value(j - 2)
                   + c.eta * (w.value(j + 1) + w.value(j - 1)))
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_basic_ref_selective_property():
    c = Coefficients(0.2 - 0.5j, 1.3 + 0.1j)
    for i in range(-2, 2):
        w = eval_range(unit(i), c, -2, 1)
        for j in range(-2, 2):
            want = 1.0 if i == j else 0.0
            assert w.value(j) == want


def test_basic_ref_known_values():
    zeta, eta = 0.6, -1.1
    c = Coefficients(zeta, eta)
    assert abs(eval_range(unit(-2), c, 3, 3).value(3) - (-eta)) < 1e-14
    assert abs(eval_range(unit(0), c, 2, 2).value(2) - zeta) < 1e-14


def test_linearity():
    rng = np.random.default_rng(13)
    c, g1 = random_setup(rng)
    _, g2 = random_setup(rng)
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    combo = InitialValues(tuple(a * x + b * y for x, y in zip(g1.g, g2.g)))
    w = eval_range(combo, c, -12, 12)
    w1 = eval_range(g1, c, -12, 12)
    w2 = eval_range(g2, c, -12, 12)
    scale = max(abs(v) for v in w.values) or 1.0
    for j in range(-12, 13):
        assert abs(w.value(j) - a * w1.value(j) - b * w2.value(j)) <= 1e-10 * scale


def test_superposition():
    rng = np.random.default_rng(17)
    for _ in range(5):
        c, g = random_setup(rng)
        w = eval_range(g, c, -20, 20)
        basic = {i: eval_range(unit(i), c, -20, 20) for i in range(-2, 2)}
        scale = max(abs(v) for v in w.values) or 1.0
        for j in range(-20, 21):
            total = sum(g.g[i + 2] * basic[i].value(j) for i in range(-2, 2))
            assert abs(total - w.value(j)) <= 1e-10 * scale


def test_eval_range_keeps_ints_exact():
    # T_-2 at (zeta, eta) = (7, 14) passes 2^53 by j = 12; doubles would round
    w = eval_range(InitialValues((1, 0, 0, 0)), Coefficients(7, 14), -2, 30)
    assert list(w.values) == tm2_replay(7, 14, 0, 30)
    assert all(type(v) is int for v in w.values)


@pytest.mark.parametrize("zeta, eta", [(1e308, 1e308), (1e200j, 1.0)])
def test_eval_range_overflow_raises(zeta, eta):
    with pytest.raises(OverflowError):
        eval_range(InitialValues((1, 1, 1, 1)), Coefficients(zeta, eta), -5, 50)


def test_eval_range_big_ints_not_rejected():
    w = eval_range(InitialValues((1, 1, 1, 1)), Coefficients(10 ** 300, 10 ** 300), -5, 5)
    assert w.value(5) > 10 ** 1000


# The grid tests below prove polynomial identities in (zeta, eta): every
# polynomial compared has degree <= 7 in zeta and <= 14 in eta (see
# `verification`), so equality on the integer grid is equality as polynomials.

def _holds(relation) -> bool:
    """True iff relation(T, eta, j) holds at every grid point for every j in
    [-12, 12], checked as one whole-array equality on `_lemma_replay`."""
    t, _, eta = _lemma_replay()
    return bool(np.all(relation(t, eta, np.arange(-12, 13))))


def test_known_polynomials():
    t, zeta, eta = _lemma_replay()
    assert np.all(t[0][4] == (zeta + 1) * (zeta - 1 + eta * eta))
    assert np.all(t[1][3] == eta * eta + zeta)
    assert np.all(t[-2][0] == 0)


def test_table_one_window():
    """All four columns on j in [-3, 2], exactly, at every grid point."""
    t, zeta, eta = _lemma_replay()
    table = {
        # j: (T_-2, T_-1, T_0, T_1)
        -3: (eta, zeta, eta, -1),
        -2: (1, 0, 0, 0),
        -1: (0, 1, 0, 0),
        0: (0, 0, 1, 0),
        1: (0, 0, 0, 1),
        2: (-1, eta, zeta, eta),
    }
    for j, row in table.items():
        for i, want in zip((-2, -1, 0, 1), row):
            assert np.all(t[i][j] == want), (i, j)


def test_inversion_identities_exact():
    assert all(_holds(relation) for relation in _INVERSION)


def test_reduction_identities_exact():
    assert all(_holds(relation) for relation in _REDUCTION)


def test_false_identities_fail_on_grid():
    assert not _holds(lambda t, eta, j: t[1][j] == t[-2][j + 1])  # sign flipped
    assert not _holds(lambda t, eta, j: t[-1][j] == t[-2][j - 1] + eta * t[-2][j])


def test_distinct_polynomials_differ():
    t, _, _ = _lemma_replay()
    assert np.any(t[0][5] != t[1][5])
    c = Coefficients(1, 1)
    assert (eval_range(unit(0), c, 5, 5).values
            != eval_range(unit(1), c, 5, 5).values)


def test_numeric_agreement_with_recursion():
    # the exact int replay and the complex double replay at the same points
    for zeta, eta in ((2, -3), (-1, 4), (5, 1)):
        for i in range(-2, 2):
            exact = eval_range(unit(i), Coefficients(zeta, eta), -10, 10)
            ref = eval_range(unit(i), Coefficients(complex(zeta), complex(eta)),
                             -10, 10)
            for a, b in zip(exact.values, ref.values):
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_superposition_with_integer_weights():
    weights = (3, -2, 5, 7)
    c = Coefficients(2, -1)
    w = eval_range(InitialValues(weights), c, -10, 10)
    units = [eval_range(unit(i), c, -10, 10) for i in (-2, -1, 0, 1)]
    for j in range(-10, 11):
        assert sum(g_i * u.value(j) for g_i, u in zip(weights, units)) == w.value(j)
