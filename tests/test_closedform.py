import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetranacci.closedform import (RootClass, _power_residual,
                                   appendix_a_solutions, characterize,
                                   standing_wave, t_minus2, xi_closed)
from tetranacci.errors import PreconditionError
from tetranacci.recurrence import Coefficients, InitialValues, eval_range

from unit_initials import unit


def random_class_point(rng, cls):
    """Draw (zeta, eta) in the requested degeneracy class."""
    if cls is RootClass.DISTINCT:
        while True:
            c = Coefficients(complex(rng.normal(), rng.normal()),
                             complex(rng.normal(), rng.normal()))
            if characterize(c).root_class is RootClass.DISTINCT:
                return c
    if cls is RootClass.DEGENERATE_S:
        eta = complex(rng.normal(), rng.normal())
        return Coefficients(-2.0 - eta * eta / 4.0, eta)
    # DegenerateUnit: S1 = S2 = +-2 forces eta = +-4, zeta = -2 - eta^2/4 = -6
    eta = 4.0 if rng.normal() > 0 else -4.0
    return Coefficients(-6.0, eta)


def roots(theta):
    """The roots r_+- = exp(+-i theta) of 1 - S t + t^2, S = 2 cos(theta)."""
    return cmath.exp(1j * theta), cmath.exp(-1j * theta)


def plane_wave_coeffs(g, cd):
    """Weights (A, B, C, D) of r_{+1}^j, r_{-1}^j, r_{+2}^j, r_{-2}^j for a
    pair whose four characteristic roots are distinct."""
    rs = [*roots(cd.theta1), *roots(cd.theta2)]
    a = np.array([[r ** i for r in rs] for i in (-2, -1, 0, 1)], dtype=complex)
    return tuple(np.linalg.solve(a, np.array(g.g, dtype=complex)))


# --- characterize -----------------------------------------------------------

def test_characterize_degenerate_s_point():
    cd = characterize(Coefficients(-3.0, 2.0))
    assert cd.root_class is RootClass.DEGENERATE_S
    assert abs(cd.s1 - 1.0) < 1e-12 and abs(cd.s2 - 1.0) < 1e-12


def test_characterize_degenerate_unit_point():
    cd = characterize(Coefficients(-6.0, 4.0))
    assert cd.root_class is RootClass.DEGENERATE_UNIT
    assert cd.s1 == cd.s2 == 2.0
    assert roots(cd.theta1) == roots(cd.theta2) == (1.0, 1.0)


def test_characterize_distinct_with_unit_roots():
    cd = characterize(Coefficients(2.0, 0.0))
    assert cd.root_class is RootClass.DISTINCT
    assert sorted((cd.s1.real, cd.s2.real)) == [-2.0, 2.0]


def test_characterize_invariants():
    rng = np.random.default_rng(0)
    for _ in range(30):
        c = Coefficients(complex(rng.normal(), rng.normal()),
                         complex(rng.normal(), rng.normal()))
        cd = characterize(c)
        scale = max(1.0, abs(cd.s1), abs(cd.s2))
        assert abs(cd.s1 + cd.s2 - c.eta) <= 1e-10 * scale
        assert abs(cd.s1 * cd.s2 + (c.zeta + 2.0)) <= 1e-10 * scale ** 2
        for th, s in ((cd.theta1, cd.s1), (cd.theta2, cd.s2)):
            rp, rm = roots(th)
            assert abs(rp * rm - 1.0) <= 1e-10 * max(1.0, abs(rp) * abs(rm))
            assert abs(rp + rm - s) <= 1e-10 * scale
        assert abs(2.0 * np.cos(complex(cd.theta1)) - cd.s1) <= 1e-10 * scale
        assert abs(2.0 * np.cos(complex(cd.theta2)) - cd.s2) <= 1e-10 * scale


# --- phi_l(j) = standing_wave(j, theta_l) -----------------------------------

def test_phi_small_values():
    cd = characterize(Coefficients(0.4 + 0.1j, 1.2 - 0.3j))
    for th, s in ((cd.theta1, cd.s1), (cd.theta2, cd.s2)):
        assert standing_wave(0, th) == 0
        assert standing_wave(1, th) == 1
        assert abs(standing_wave(2, th) - s) < 1e-12 * max(1, abs(s))
        assert abs(standing_wave(3, th) - (s * s - 1.0)) < 1e-12 * max(1, abs(s)) ** 2
        assert abs(standing_wave(-2, th) + s) < 1e-12 * max(1, abs(s))


def test_phi_unit_root_form():
    cd = characterize(Coefficients(-6.0, 4.0))  # S = 2
    assert abs(standing_wave(4, cd.theta1) - 4.0) < 1e-12


def test_standing_wave_finite_to_the_doubles_edge():
    # sin(m x) stays finite up to m Im x = 710.47, where cosh passes the
    # doubles; a factor 0.5 e^(m Im x) formed apart would overflow from 709.78
    x = 0.5 + 1j
    for m in (710, -710):
        want = cmath.sin(m * x) / cmath.sin(x)
        assert abs(standing_wave(m, x) - want) <= 1e-14 * abs(want)
    with pytest.raises(OverflowError):
        standing_wave(711, x)


@pytest.mark.parametrize("m", [-3, 1, 4, 7, 22])
def test_standing_wave_removable_limits(m):
    # Q_m(pi - x) = (-1)^(m+1) Q_m(x) and Q_m(x) = m (1 - (m^2 - 1) x^2 / 6 + ...)
    sign = 1 if m % 2 else -1
    assert standing_wave(m, 0.0) == m
    assert standing_wave(m, math.pi) == sign * m
    for x in (1e-9, 1e-9j, 1e-5 + 1e-6j):
        want = m * (1 - (m * m - 1) * x * x / 6)
        assert abs(standing_wave(m, x) - want) <= 1e-12 * abs(m)
        assert abs(standing_wave(m, -x) - want) <= 1e-12 * abs(m)
        assert abs(standing_wave(m, math.pi - x) - sign * want) <= 1e-12 * abs(m)


def test_phi_oddness():
    rng = np.random.default_rng(1)
    for _ in range(10):
        cd = characterize(Coefficients(complex(rng.normal(), rng.normal()),
                                       complex(rng.normal(), rng.normal())))
        for th in (cd.theta1, cd.theta2):
            vals = [standing_wave(j, th) for j in range(0, 21)]
            scale = max(abs(v) for v in vals) or 1.0
            for j in range(0, 21):
                assert abs(standing_wave(-j, th) + vals[j]) <= 1e-10 * scale


def test_phi_two_term_recursion():
    rng = np.random.default_rng(2)
    for _ in range(10):
        cd = characterize(Coefficients(complex(rng.normal(), rng.normal()),
                                       complex(rng.normal(), rng.normal())))
        for th, s in ((cd.theta1, cd.s1), (cd.theta2, cd.s2)):
            vals = {j: standing_wave(j, th) for j in range(-16, 17)}
            scale = max(abs(v) for v in vals.values()) or 1.0
            for j in range(-15, 16):
                res = vals[j + 1] - s * vals[j] + vals[j - 1]
                assert abs(res) <= 1e-10 * scale


def test_phi_satisfies_four_term_recursion():
    """Each generalized Fibonacci branch solves the full recursion too."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        c = Coefficients(complex(rng.normal(), rng.normal()),
                         complex(rng.normal(), rng.normal()))
        cd = characterize(c)
        for th in (cd.theta1, cd.theta2):
            vals = {j: standing_wave(j, th) for j in range(-17, 18)}
            scale = max(abs(v) for v in vals.values()) or 1.0
            for j in range(-15, 16):
                res = (vals[j + 2] - c.zeta * vals[j] + vals[j - 2]
                       - c.eta * (vals[j + 1] + vals[j - 1]))
                assert abs(res) <= 1e-10 * scale


# --- t_minus2 / basic closed forms ------------------------------------------

def test_t_minus2_selective():
    cd = characterize(Coefficients(0.3, -0.8))
    t = t_minus2(cd, -2, 1)
    assert abs(t[0] - 1.0) < 1e-12
    assert np.abs(t[1:]).max() < 1e-12


def test_t_minus2_known_value():
    c = Coefficients(0.3, -0.8)
    cd = characterize(c)
    assert abs(t_minus2(cd, 3, 3)[0] + c.eta) < 1e-12


def test_t_minus2_degenerate_vs_recursion():
    c = Coefficients(-3.0, 2.0)
    cd = characterize(c)
    want = eval_range(unit(-2), c, 5, 5).value(5)
    assert abs(t_minus2(cd, 5, 5)[0] - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("cls", list(RootClass))
def test_basic_closed_matches_recursion_all_classes(cls):
    rng = np.random.default_rng(4)
    for _ in range(10):
        c = random_class_point(rng, cls)
        cd = characterize(c)
        for i in range(-2, 2):
            ref = eval_range(unit(i), c, -25, 25).values
            got = xi_closed(unit(i), cd, -25, 25).values
            scale = max(abs(v) for v in ref) or 1.0
            assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-9 * scale


def test_basic_closed_point_values():
    cd = characterize(Coefficients(0.4, 1.1))
    assert abs(xi_closed(unit(1), cd, -3, -3).value(-3) + 1.0) < 1e-12
    assert abs(xi_closed(unit(-1), cd, -1, -1).value(-1) - 1.0) < 1e-12


def test_basic_closed_degenerate_unit_value():
    c = Coefficients(-6.0, 4.0)
    cd = characterize(c)
    want = eval_range(unit(1), c, 2, 2).value(2)
    got = xi_closed(unit(1), cd, 2, 2).value(2)
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_lemma_relations_numeric():
    rng = np.random.default_rng(5)
    for cls in RootClass:
        c = random_class_point(rng, cls)
        cd = characterize(c)
        t = {i: xi_closed(unit(i), cd, -18, 18) for i in (-2, -1, 0, 1)}
        scale = max(abs(v) for v in t[-2].values) or 1.0
        for j in range(-15, 16):
            assert abs(t[1].value(j) - t[-2].value(-1 - j)) <= 1e-9 * scale
            assert abs(t[0].value(j) - t[-1].value(-1 - j)) <= 1e-9 * scale
            assert abs(t[-2].value(j) + t[-2].value(-j)) <= 1e-9 * scale


# --- xi_closed --------------------------------------------------------------

def test_xi_closed_reduces_to_t_minus2():
    cd = characterize(Coefficients(0.5, -1.2))
    got = xi_closed(unit(-2), cd, -10, 10).values
    assert np.abs(np.array(got) - t_minus2(cd, -10, 10)).max() < 1e-10


def test_xi_closed_palindromic_initials():
    cd = characterize(Coefficients(0.7, -0.4))
    g = InitialValues((1, 1, 1, 1))
    w = xi_closed(g, cd, -12, 12)
    scale = max(abs(v) for v in w.values)
    for j in range(-11, 11):
        assert abs(w.value(-1 - j) - w.value(j)) <= 1e-9 * scale


def test_xi_closed_matches_recursion():
    rng = np.random.default_rng(6)
    c = Coefficients(0.7, -1.3)
    cd = characterize(c)
    g = InitialValues(tuple(complex(a, b) for a, b in rng.normal(size=(4, 2))))
    w = eval_range(g, c, -12, 12)
    scale = max(abs(v) for v in w.values)
    assert abs(xi_closed(g, cd, 12, 12).value(12) - w.value(12)) <= 1e-9 * scale


@pytest.mark.parametrize("s1, s2", [(2.0 + 1e-5, 2j), (2.0, 3.0), (2.0, 4.0)])
def test_xi_closed_near_slow_solution(s1, s2):
    # g = (1, 1, 1, 1) is the constant solution at S_1 = 2, while the waves
    # of S_2 grow like |r_2|^j: shifted T_-2 windows weighted by g would
    # cancel terms of that size here
    c = Coefficients(-2.0 - s1 * s2, s1 + s2)
    g = InitialValues((1, 1, 1, 1))
    want = eval_range(g, c, -20, 20).values
    got = xi_closed(g, characterize(c), -20, 20).values
    scale = max(abs(v) for v in want)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-9 * scale


# --- plane waves / degenerate solutions -------------------------------------

def test_plane_wave_binet_coefficients():
    c = Coefficients(0.3, 0.9)
    cd = characterize(c)
    g = InitialValues(tuple(standing_wave(j, cd.theta1) for j in range(-2, 2)))
    a, b, cc, dd = plane_wave_coeffs(g, cd)
    rp, rm = roots(cd.theta1)
    denom = rp - rm
    assert abs(a - 1.0 / denom) < 1e-9
    assert abs(b + 1.0 / denom) < 1e-9
    assert abs(cc) < 1e-9 and abs(dd) < 1e-9


def test_plane_wave_zero():
    cd = characterize(Coefficients(0.3, 0.9))
    coeffs = plane_wave_coeffs(InitialValues((0, 0, 0, 0)), cd)
    assert all(abs(x) < 1e-12 for x in coeffs)


def test_plane_wave_reconstruction():
    rng = np.random.default_rng(7)
    c = Coefficients(0.3, 0.9)
    cd = characterize(c)
    g = InitialValues(tuple(complex(a, b) for a, b in rng.normal(size=(4, 2))))
    a, b, cc, dd = plane_wave_coeffs(g, cd)
    w = eval_range(g, c, -20, 20)
    scale = max(abs(v) for v in w.values)
    (rp1, rm1), (rp2, rm2) = roots(cd.theta1), roots(cd.theta2)
    for j in range(-20, 21):
        recon = a * rp1 ** j + b * rm1 ** j + cc * rp2 ** j + dd * rm2 ** j
        assert abs(recon - w.value(j)) <= 1e-9 * scale


def test_appendix_solutions_degenerate_s():
    cd = characterize(Coefficients(-3.0, 2.0))
    res = appendix_a_solutions(cd, range(-10, 11))
    assert max(res.values()) < 1e-9


def test_appendix_solutions_degenerate_unit():
    cd = characterize(Coefficients(-6.0, 4.0))
    res = appendix_a_solutions(cd, range(-10, 11))
    assert any("j^3" in k for k in res)
    assert max(res.values()) < 1e-9


def test_j_squared_not_a_solution_off_unit():
    # j^2 r^j only solves the recursion when S^2 = 4
    cd = characterize(Coefficients(-3.0, 2.0))
    assert _power_residual(2, roots(cd.theta1)[0], cd, range(-10, 11)) > 1e-6


def test_appendix_rejects_distinct():
    cd = characterize(Coefficients(0.3, 0.9))
    with pytest.raises(PreconditionError):
        appendix_a_solutions(cd, range(-5, 6))


# --- class continuity -------------------------------------------------------

def test_continuity_across_degenerate_locus():
    eta = 1.3
    locus = -2.0 - eta * eta / 4.0
    cd_on = characterize(Coefficients(locus, eta))
    assert cd_on.root_class is RootClass.DEGENERATE_S
    cd_near = characterize(Coefficients(locus + 1e-7, eta))
    assert cd_near.root_class is RootClass.DISTINCT
    vals_on = t_minus2(cd_on, -10, 10)
    scale = np.abs(vals_on).max()
    assert np.abs(t_minus2(cd_near, -10, 10) - vals_on).max() <= 1e-6 * scale


def _bits(z):
    # repr tells -0.0 from 0.0, which == does not
    return repr(z.real), repr(z.imag)


# real parts: negative, past pi/2, on 0, +-pi/2 and +-pi, and within an ulp of pi
_re = st.one_of(st.floats(-math.pi, math.pi),
                st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2, -math.pi / 2,
                                 math.nextafter(math.pi, 0.0), 1e-300]))
# imaginary parts: zero, near-real, moderate, and large enough that sin(m x) overflows
_im = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-300]),
                st.floats(-1e-8, 1e-8), st.floats(-40.0, 40.0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_re, _im), min_size=1, max_size=4),
       st.integers(-5, 0), st.integers(0, 60), st.booleans())
# sin(x) of the smallest subnormal x: halved first, it underflowed to 0, and
# Q_m divided 0 by 0
@example(xs=[(5e-324, 0.0)], lo=0, size=0, real_x=False)
def test_standing_wave_array_equals_int_calls(xs, lo, size, real_x):
    # an int m and a number x against an int array m, and against arrays of
    # both: a batch raises OverflowError where one of its single calls does
    xs = [re if real_x else complex(re, im) for re, im in xs]
    m = np.arange(lo, lo + size)
    want = []
    try:
        for x in xs:
            want.append([standing_wave(k, x) for k in m.tolist()])
    except OverflowError:
        with pytest.raises(OverflowError):
            standing_wave(m, np.array(xs))
        return
    for x, row in zip(xs, want):
        got = standing_wave(m, x)
        assert got.dtype == complex and got.shape == m.shape
        assert [_bits(z) for z in got.tolist()] == [_bits(z) for z in row]
    got = standing_wave(m, np.array(xs))
    assert got.shape == (len(xs), size)
    assert [[_bits(z) for z in r] for r in got.tolist()] == [[_bits(z) for z in r] for r in want]
    if size:
        k = int(m[-1])
        assert [_bits(z) for z in standing_wave(k, np.array(xs)).tolist()] == \
            [_bits(r[-1]) for r in want]


# --- batches ------------------------------------------------------------------

_num = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
# generic pairs, pairs on the degenerate locus zeta = -2 - eta^2/4 and the
# corner S_1 = S_2 = +-2, S = +-2 for one root, and pairs that grow fast
_pair = st.one_of(
    st.tuples(_num, _num),
    _num.map(lambda eta: (-2.0 - eta * eta / 4.0, eta)),
    st.sampled_from([(-6.0, 4.0), (-6.0, -4.0), (-3.0, 2.0), (2.0, 0.0), (-6.0, 4.0 + 1e-9j)]),
    st.tuples(st.floats(-60.0, 60.0), st.floats(-9.0, 9.0)),
)
_draw = st.tuples(_pair, st.tuples(_num, _num, _num, _num))


def _as_batch(draws):
    c = Coefficients(*(np.array(v, dtype=complex) for v in zip(*(z for z, _ in draws))))
    g = InitialValues(tuple(np.array(v, dtype=complex) for v in zip(*(g for _, g in draws))))
    return c, g


@settings(max_examples=60, deadline=None)
@given(st.lists(_draw, min_size=1, max_size=6), st.integers(-14, 4), st.integers(0, 14))
def test_batch_equals_single_calls(draws, lo, width):
    hi = lo + width
    c, g = _as_batch(draws)
    singles = [(Coefficients(*z), InitialValues(gv)) for z, gv in draws]
    cd = characterize(c)
    one = [characterize(ci) for ci, _ in singles]
    for field in ("s1", "s2", "theta1", "theta2"):
        assert [_bits(z) for z in getattr(cd, field).tolist()] == \
            [_bits(getattr(d, field)) for d in one]
    assert list(cd.root_class) == [d.root_class for d in one]
    m = np.arange(-3, 12)
    for field in ("theta1", "theta2"):
        got = standing_wave(m, getattr(cd, field)).tolist()
        assert [[_bits(z) for z in row] for row in got] == \
            [[_bits(z) for z in standing_wave(m, getattr(d, field)).tolist()] for d in one]
    got = t_minus2(cd, lo, hi).tolist()
    assert [[_bits(z) for z in row] for row in got] == \
        [[_bits(z) for z in t_minus2(d, lo, hi).tolist()] for d in one]
    got = np.array(xi_closed(g, cd, lo, hi).values).T.tolist()
    assert [[_bits(z) for z in row] for row in got] == \
        [[_bits(z) for z in xi_closed(gi, d, lo, hi).values] for (_, gi), d in zip(singles, one)]
    # the replay in numpy may fuse a multiply and an add where Python rounds
    # twice: within the property tests' 1e-9 of each draw's scale
    got = np.array(eval_range(g, c, lo, hi).values).T
    for row, (ci, gi) in zip(got, singles):
        want = np.array(eval_range(gi, ci, lo, hi).values)
        assert np.abs(row - want).max() <= 1e-9 * (np.abs(want).max() or 1.0)


def test_batch_of_one_keeps_its_axis():
    c = Coefficients(np.array([0.3 + 0.1j]), np.array([-0.8]))
    cd = characterize(c)
    assert cd.s1.shape == cd.theta2.shape == cd.root_class.shape == (1,)
    assert t_minus2(cd, -3, 3).shape == (1, 7)
    w = xi_closed(unit(0), cd, -3, 3)
    assert all(v.shape == (1,) for v in w.values)
    single = xi_closed(unit(0), characterize(Coefficients(0.3 + 0.1j, -0.8)), -3, 3)
    assert [complex(v[0]) for v in w.values] == list(single.values)


def test_xi_closed_rejects_empty_range():
    with pytest.raises(PreconditionError):
        xi_closed(unit(0), characterize(Coefficients(0.3, 0.9)), 3, 1)


def test_batch_rejects_non_finite_entries_and_2d_arrays():
    with pytest.raises(ValueError):
        Coefficients(np.array([0.3, np.inf]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        InitialValues((np.array([1.0, np.nan]), 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Coefficients(np.zeros((2, 2)), 1.0)


def test_batch_overflow_raises_as_the_single_call_does():
    # zeta = 1e6 grows like 1e6^(j/2): the window [0, 120] leaves the doubles
    c = Coefficients(np.array([0.3, 1e6]), np.array([0.5, 0.5]))
    g = InitialValues((np.ones(2), np.ones(2), np.ones(2), np.ones(2)))
    with pytest.raises(OverflowError):
        xi_closed(InitialValues((1, 1, 1, 1)), characterize(Coefficients(1e6, 0.5)), 0, 120)
    with pytest.raises(OverflowError):
        xi_closed(g, characterize(c), 0, 120)
    with pytest.raises(OverflowError):
        eval_range(g, c, 0, 120)


def test_wide_window_memory_stays_linear():
    # tracemalloc sees numpy's buffers: a (b + 1)^2 array at b = 4002 would
    # take 256 MB, the O(b) convolution a few hundred kB
    cd = characterize(Coefficients(-1.5, -0.5))
    g = InitialValues((1, 2, 3, 4))
    tracemalloc.start()
    try:
        t_minus2(cd, 0, 4000)
        xi_closed(g, cd, 0, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
