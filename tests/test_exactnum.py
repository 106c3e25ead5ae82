"""The scaled-integer T_-2 replay and boundary solve against exact rationals.

The reference replays the four-term recursion forward and backward over
`Fraction`, for each of the basic polynomials T_-2, T_-1 and T_1 from its
own Kronecker-delta initial data.  The scaled integers must equal it
exactly: T_-2 directly and, through the odd symmetry, at negative
indices; T_1 and T_-1 through the reduction identities.  The boundary
solve of `green_1n_tetranacci` must equal, to the bit, the same 2x2
system solved over `Fraction` from these replays and rounded once.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tetranacci.chain import ChainParams, coeffs_from_energy
from tetranacci.errors import SingularBoundaryError, ZeroT2Error
from tetranacci.exactnum import dyadic, gaussian_divider, tm2_replay, tm2_scale
from tetranacci.transport import LeadParams, TransportSetup, green_1n_tetranacci


def fraction_replay(i, zeta, eta, lo, hi):
    """Exact T_i(j) for lo <= j <= hi by replaying the recursion both ways."""
    z, h = Fraction(zeta), Fraction(eta)
    t = {j: Fraction(int(j == i)) for j in range(-2, 2)}
    for j in range(2, hi + 1):
        t[j] = z * t[j - 2] - t[j - 4] + h * (t[j - 1] + t[j - 3])
    for j in range(-3, lo - 1, -1):
        t[j] = z * t[j + 2] - t[j + 4] + h * (t[j + 3] + t[j + 1])
    return t


def random_dyadic(rng):
    """A double of random magnitude and sign, so denominators up to 2^80 occur."""
    return rng.choice((-1, 1)) * rng.random() * 2.0 ** rng.randint(-30, 4)


def test_dyadic_is_exact():
    k, (a, b, c) = dyadic(0.1, -3.0, 2.0 ** -60)
    assert (k, c) == (60, 1)
    assert (math.ldexp(a, -k), math.ldexp(b, -k)) == (0.1, -3.0)
    assert dyadic(2.0, -5.0) == (0, [2, -5])


def _exponent(x):
    """k with x == m / 2^k for an odd m, or 0 for x = 0."""
    return x.as_integer_ratio()[1].bit_length() - 1


@pytest.mark.parametrize("draw, n", [
    (0, 1), (1, 2), (2, 7), (3, 40), (4, 120), (5, 120),
    # zeta over 2^7: k_zeta is odd, so zeta's 4^k is 2^8
    pytest.param((-3 * 2.0 ** -7, 1.25), 40, id="odd-k_zeta"),
    # eta = 0.1 over 2^55, longer than half of zeta's 2^3: k = k_eta
    pytest.param((0.375, 0.1), 40, id="long-eta"),
])
def test_scaled_replay_equals_fraction_replay(draw, n):
    if isinstance(draw, tuple):
        zeta, eta = draw
    else:
        rng = random.Random(draw)
        zeta, eta = random_dyadic(rng), random_dyadic(rng) if draw else 0.0
    k, (z, h) = tm2_scale(zeta, eta)
    # zeta over 4^k and eta over 2^k, with the least such k
    assert Fraction(zeta) == Fraction(z, 4 ** k) and Fraction(eta) == Fraction(h, 2 ** k)
    assert k == max(-(-_exponent(zeta) // 2), _exponent(eta))
    y = tm2_replay(z, h, k, n + 1)

    def scaled(j):  # D^(|j|+2) T_-2(j); negative j by the odd symmetry
        return y[j + 2] if j >= 0 else -y[2 - j]

    t = {i: fraction_replay(i, zeta, eta, -n - 1, n) for i in (-2, -1, 1)}
    d = 2 ** k
    for j in range(-n, n + 1):
        assert t[-2][j] * d ** (abs(j) + 2) == scaled(j)
    assert t[-2][-2] == y[0] and t[-2][-1] * d == y[1]
    for j in range(-1, n):
        # T_1(j) = -T_-2(j+1)
        assert t[1][j] * d ** (j + 3) == -y[j + 3]
        # T_-1(j) = T_-2(j-1) - eta T_-2(j)
        assert t[-1][j] * d ** (j + 3) == d ** 2 * y[j + 1] - h * y[j + 2]
    for j in range(-n, -1):
        assert t[1][j] * d ** (abs(j + 1) + 2) == -scaled(j + 1)
        assert (t[-1][j] * d ** (abs(j) + 3)
                == d ** (abs(j) - abs(j - 1) + 1) * scaled(j - 1) - h * scaled(j))


def _cmul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _green_fraction(e, s):
    """G_1N = t2 a / det of the boundary system over Fractions, rounded once,
    or None where det = 0 or G_1N is past the doubles.

    sigma_j = g T_-2(j) + h row(j), row(j) = t2 T_1(j) + w_L T_-1(j), w =
    i gamma - Lambda, with the three basic polynomials each replayed from
    its own initial data at zeta and eta as `coeffs_from_energy` rounds
    them; a = T_-2(N+1), b = row(N+1), c = w_R T_-2(N) - t2 T_-2(N+2) and
    d = w_R row(N) - t2 row(N+2).
    """
    p, n = s.chain, s.chain.n
    c = coeffs_from_energy(e, p)
    t = {i: fraction_replay(i, c.zeta, c.eta, -2, n + 2) for i in (-2, -1, 1)}
    t2 = Fraction(p.t2)
    w_l, w_r = ((Fraction(-lead.lam), Fraction(lead.gamma)) for lead in (s.left, s.right))

    def row(j):
        return t2 * t[1][j] + w_l[0] * t[-1][j], w_l[1] * t[-1][j]

    a, b = t[-2][n + 1], row(n + 1)
    cc = w_r[0] * t[-2][n] - t2 * t[-2][n + 2], w_r[1] * t[-2][n]
    rn, rn2 = _cmul(w_r, row(n)), row(n + 2)
    d = rn[0] - t2 * rn2[0], rn[1] - t2 * rn2[1]
    bc = _cmul(b, cc)
    det = a * d[0] - bc[0], a * d[1] - bc[1]
    q = det[0] ** 2 + det[1] ** 2
    try:
        return complex(float(t2 * a * det[0] / q), float(-t2 * a * det[1] / q))
    except (ZeroDivisionError, OverflowError):
        return None


_doubles = st.floats(-3.0, 3.0, allow_subnormal=False)
_leads = st.builds(LeadParams, st.floats(0.0, 3.0), _doubles)


@settings(max_examples=150, deadline=None)
@given(st.builds(ChainParams, _doubles, _doubles, _doubles, st.integers(1, 30)),
       _leads, _leads, _doubles)
# t1 = 0, t1 = +-t2 and the benchmark's chain (eta = -5/4): short k_eta
@example(ChainParams(0.3, 0.0, 0.8, 7), LeadParams(0.5), LeadParams(0.5), 0.4)
@example(ChainParams(1e-4, 1.3, 1.3, 12), LeadParams(0.5), LeadParams(0.5), -0.9)
@example(ChainParams(1e-4, -1.3, 1.3, 12), LeadParams(0.5), LeadParams(0.5), 2.1)
@example(ChainParams(-3.2e-4, 1.0, 0.8, 30), LeadParams(0.5), LeadParams(0.5), 1.95)
# lead level shifts Lambda != 0
@example(ChainParams(0.2, 0.7, -1.3, 9), LeadParams(0.4, 0.3), LeadParams(1.1, -0.6), 0.25)
# zeta = -0.375 over 2^3: an odd k_zeta
@example(ChainParams(0.0, 1.0, 1.0, 6), LeadParams(0.5), LeadParams(0.5), 0.375)
# eta = -0.1 over 2^55 against zeta = -0.5 over 2^1: k = k_eta > k_zeta / 2
@example(ChainParams(0.0, 0.1, 1.0, 6), LeadParams(0.5), LeadParams(0.5), 0.5)
# a subnormal E: zeta over 2^1074
@example(ChainParams(0.0, 1.0, 1.0, 5), LeadParams(0.5), LeadParams(0.5), 5e-324)
# det = 0 at the even sublattice's eigenvalue, which touches neither lead
@example(ChainParams(0.0, 0.0, 1.0, 5), LeadParams(0.5), LeadParams(0.5), -1.0)
# gamma = 1e-310, a coupling over 2^1074 of its own; G_11 = 1 / (2e-310 i)
# of one site is past the doubles
@example(ChainParams(0.1, 1.0, 0.8, 4), LeadParams(1e-310), LeadParams(0.5), 0.3)
@example(ChainParams(0.0, 1.0, 1.0, 1), LeadParams(1e-310), LeadParams(1e-310), 0.0)
def test_boundary_solve_equals_fraction_solve(chain, left, right, e):
    s = TransportSetup(chain, left, right)
    try:
        want = _green_fraction(e, s)
    except ZeroT2Error:
        assume(False)
    if want is None:
        with pytest.raises(SingularBoundaryError):
            green_1n_tetranacci(e, s)
    else:
        got = green_1n_tetranacci(e, s)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_gaussian_divider_rounds_once():
    den = (3, 4)  # 1 / (3 + 4i) = (3 - 4i) / 25
    assert gaussian_divider((25, 0), den, 0) == 3 - 4j
    # quotients of exact small ints: IEEE division rounds them once too
    assert gaussian_divider((1, 0), den, 3) == complex(24 / 25, -32 / 25)
    assert gaussian_divider((0, -1), (12, 16), 0) == complex(-4 / 100, -3 / 100)
    # ints far past the doubles with a quotient inside them
    big = (3 << 2000, 4 << 2000)
    assert gaussian_divider((1, 0), big, 2000) == complex(3 / 25, -4 / 25)
    assert gaussian_divider((1 << 2000, 0), big, 0) == complex(3 / 25, -4 / 25)
    # a quotient past the largest double raises instead of rounding to inf
    assert gaussian_divider((1, 0), (1, 0), 1023) == complex(2.0 ** 1023, 0.0)
    with pytest.raises(OverflowError):
        gaussian_divider((1, 0), (1, 0), 1024)
