"""The scaled-integer T_-2 replay and boundary solve against exact rationals.

The reference replays the four-term recursion forward and backward over
`Fraction`, for each of the basic polynomials T_-2, T_-1 and T_1 from its
own Kronecker-delta initial data.  The scaled integers must equal it
exactly: T_-2 directly and, through the odd symmetry, at negative
indices; T_1 and T_-1 through the reduction identities.  The boundary
solve of `green_1n_tetranacci` must equal, to the bit, the same 2x2
system solved over `Fraction` from these replays and rounded once, and
`cramer_quotient`, which rounds it from truncated operands where it can,
must equal its full-length products to the bit, exceptions included.
The Fibonacci window of T_-2 (`tm2_window`) must equal the replay's ints,
and the boundary solve that reads it the same solve over the whole replay.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tetranacci.chain import ChainParams, coeffs_from_energy
from tetranacci.errors import ZeroT2Error
from tetranacci.exactnum import (cramer_quotient, dyadic, gaussian_divider, gmul, tm2_replay,
                                 tm2_scale, tm2_window)
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


# doubles of every size, so that k reaches 537 from a subnormal zeta and
# 1074 from a subnormal eta, and the special points: eta = 0, zeta = -2
# (S1 = -S2) and the corner zeta = -2 - eta^2 / 4 (S1 = S2) in eighths
_anything = st.floats(allow_nan=False, allow_infinity=False)
_small = st.one_of(st.floats(-8.0, 8.0), st.floats(-1e-300, 1e-300), _anything)
_zeta_eta = st.one_of(
    st.tuples(_small, _small),
    st.tuples(_small, st.just(0.0)),
    st.tuples(st.just(-2.0), _small),
    st.integers(-64, 64).map(lambda i: (-2.0 - (i / 8) ** 2 / 4, i / 8)),
)


@settings(max_examples=150, deadline=None)
@given(_zeta_eta, st.integers(0, 400), st.integers(0, 6))
# the boundary solve's windows T_-2(N-1..N+3) of N = 1, 2 and 3
@example((0.375, -1.25), 0, 4)
@example((0.375, -1.25), 1, 4)
@example((0.375, -1.25), 2, 4)
# the corner at eta = +-4, where S1 = S2 = +-2, and a subnormal eta
@example((-6.0, 4.0), 397, 4)
@example((-6.0, -4.0), 398, 4)
@example((0.3, 5e-324), 50, 4)
def test_window_equals_replay(zeta_eta, lo, width):
    k, (z, h) = tm2_scale(*zeta_eta)
    hi = lo + width
    assert tm2_window(z, h, k, lo, hi) == tm2_replay(z, h, k, hi)[lo + 2:hi + 3]


def green_1n_replay(e, s):
    """`green_1n_tetranacci`'s boundary solve with every T_-2(j), j = -2..N+3,
    taken from the replay (`tm2_replay`) in place of the Fibonacci window."""
    p = s.chain
    c = coeffs_from_energy(e, p)
    n, top = p.n, p.n + 3
    k, (z, eta) = tm2_scale(c.zeta, c.eta)
    y = tm2_replay(z, eta, k, top)

    def tau(i):  # D^(top+2) T_-2(i)
        return y[i + 2] << k * (top - i)

    kc, (t2, *w) = dyadic(p.t2, -s.left.lam, s.left.gamma, -s.right.lam, s.right.gamma)
    w_l, w_r = tuple(w[:2]), tuple(w[2:])

    def row(j):  # D' D^(top+3) row(j)
        u = (tau(j - 1) << k) - eta * tau(j)
        return ((-t2 * tau(j + 1)) << k) + w_l[0] * u, w_l[1] * u

    a, b, tn = tau(n + 1), row(n + 1), tau(n)
    cc = w_r[0] * tn - t2 * tau(n + 2), w_r[1] * tn
    rn, rn2 = gmul(w_r, row(n)), row(n + 2)
    d = rn[0] - t2 * rn2[0], rn[1] - t2 * rn2[1]
    shift = kc + k * (top + 3)
    if a == 0 and b == cc == (0, 0):
        return gaussian_divider((t2, 0), d, shift)
    return cramer_quotient(t2, a, b, cc, d, shift)


def test_boundary_solve_equals_replay_solve():
    # seeded chains up to N = 1000, with simple hopping ratios (short k) and
    # generic ones, lead level shifts, propagating and evanescent energies
    rng = random.Random(28)
    for n in (1, 2, 3, 4, 5, 9, 17, 30, 64, 100, 257, 500, 1000):
        for _ in range(3):
            t2 = rng.choice((0.8, 1.0, -1.3, rng.uniform(-2, 2)))
            t1 = rng.choice((0.0, t2, -t2, 1.25 * t2, rng.uniform(-2, 2)))
            chain = ChainParams(rng.uniform(-0.5, 0.5), t1, t2, n)
            leads = [LeadParams(rng.uniform(0.1, 2), rng.choice((0.0, rng.uniform(-1, 1))))
                     for _ in range(2)]
            s = TransportSetup(chain, *leads)
            for e in (rng.uniform(-3.5, 3.5), rng.uniform(-6, 6)):
                got, want = green_1n_tetranacci(e, s), green_1n_replay(e, s)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_boundary_solve_memory_stays_linear():
    # the five values of the window hold O(N) bits: the whole replay of one
    # solve held 7.4 MB at N = 2000
    s = TransportSetup(ChainParams(0.0, 1.0, 0.8, 2000), LeadParams(0.5), LeadParams(0.5))
    tracemalloc.start()
    try:
        green_1n_tetranacci(0.3, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e5


def _cmul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _green_fraction(e, s):
    """G_1N = t2 a / det of the boundary system over Fractions, rounded once;
    t2 / d where det = 0 with a = 0 and b = c = 0 (every solution has h = 1 /
    d), and None at any other det = 0 or where G_1N is past the doubles.

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
    num, det = t2 * a, (a * d[0] - bc[0], a * d[1] - bc[1])
    if a == 0 and b == cc == (0, 0):
        num, det = t2, d
    q = det[0] ** 2 + det[1] ** 2
    try:
        return complex(float(num * det[0] / q), float(-num * det[1] / q))
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
# det = 0 at the even sublattice's eigenvalue, which touches neither lead:
# a = 0, b = c = 0 and G_1N = t2 / d
@example(ChainParams(0.0, 0.0, 1.0, 5), LeadParams(0.5), LeadParams(0.5), -1.0)
# the same with a lead decoupled: det = 0 outside that pattern
@example(ChainParams(0.0, 0.0, 1.0, 4), LeadParams(0.0), LeadParams(0.0), -1.0)
# gamma = 1e-310, a coupling over 2^1074 of its own; G_11 = 1 / (2e-310 i)
# of one site is past the doubles
@example(ChainParams(0.1, 1.0, 0.8, 4), LeadParams(1e-310), LeadParams(0.5), 0.3)
@example(ChainParams(0.0, 1.0, 1.0, 1), LeadParams(1e-310), LeadParams(1e-310), 0.0)
# the benchmark's chain past `cramer_quotient`'s cutoff: its truncated
# operands decide at P = 128 (E = 1.5), and at 256 (N = 100) or 512 (N =
# 300) where the evanescent side cancels (E = -2.5)
@example(ChainParams(1e-4, 1.0, 0.8, 100), LeadParams(0.5), LeadParams(0.5), 1.5)
@example(ChainParams(1e-4, 1.0, 0.8, 100), LeadParams(0.5), LeadParams(0.5), -2.5)
@example(ChainParams(1e-4, 1.0, 0.8, 300), LeadParams(0.5), LeadParams(0.5), 1.5)
@example(ChainParams(1e-4, 1.0, 0.8, 300), LeadParams(0.5), LeadParams(0.5), -2.5)
def test_boundary_solve_equals_fraction_solve(chain, left, right, e):
    s = TransportSetup(chain, left, right)
    try:
        want = _green_fraction(e, s)
    except ZeroT2Error:
        assume(False)
    if want is None:
        with pytest.raises((ZeroDivisionError, OverflowError)):
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


def _exact_quotient(t2, a, b, c, d, shift):
    """t2 a / (a d - b c) 2^shift from the full-length products, rounded once."""
    bc = gmul(b, c)
    det = a * d[0] - bc[0], a * d[1] - bc[1]
    if det == (0, 0):
        raise ZeroDivisionError("a d - b c = 0")
    return gaussian_divider((t2 * a, 0), det, shift)


def _outcome(f, *args):
    """The bits of each component, or the exception's name."""
    try:
        g = f(*args)
    except (ZeroDivisionError, OverflowError) as err:
        return type(err).__name__
    return g.real.hex(), g.imag.hex()


def _signed(rng, bits):
    return rng.choice((-1, 1)) * rng.getrandbits(bits)


def _planted_cancellation(rng):
    """Operands of 700 to 4000 bits whose a d - b c is smaller than a d by
    about 2^cancel, cancel up to 2600 bits (P = 128 doubled four times and
    more), and a shift that puts |G| near 2^x for x in [-1130, 1100]: past the
    doubles, normal and subnormal.  Some draws make every operand real, or b,
    c, d imaginary, so that a component of G is exactly 0."""
    n = rng.randint(700, 4000)
    a = _signed(rng, n)
    b = _signed(rng, n + 80), _signed(rng, n + 80)
    c = _signed(rng, n + 50), _signed(rng, n + 50)
    shape = rng.choice(("complex", "complex", "real", "imaginary"))
    if shape == "real":
        b, c = (b[0], 0), (c[0], 0)
    elif shape == "imaginary":
        b, c = (b[0], 0), (0, c[1])
    bc = gmul(b, c)
    cancel = rng.randint(0, min(2600, n))
    # d ~ bc / a, off by about 2^-cancel of its size
    d = tuple(x // a + _signed(rng, n + 130 - cancel) for x in bc)
    if shape == "real":
        d = d[0], 0
    elif shape == "imaginary":
        d = 0, d[1]
    t2 = _signed(rng, rng.randint(1, 53)) or 1
    det = a * d[0] - bc[0], a * d[1] - bc[1]
    size = max(map(abs, det)).bit_length() - (t2 * a).bit_length()
    return t2, a, b, c, d, max(size + rng.randint(-1130, 1100), 0)


def _worst_truncation(rng):
    """Operands whose first truncation, to their top 128 bits, drops only
    1 bits, with signs that make the truncation errors add up: a, d_r > 0
    and b, c < 0, mostly with |b c| > |a d_r|, so that the error of det'
    also shrinks |det' + delta|.  Im d is 40 bits shorter than Re d, so the
    imaginary part of G is nonzero and decidable.  t2 ~ 2^200 and the shift
    put the midpoint of two doubles between Re G and Re G' of the first
    truncation: a bound 2^4 below `cramer_quotient`'s rounds G' to the
    wrong side of it."""
    m = rng.randint(700, 3000)

    def operand(sign, lo):  # 128 top bits, then m ones
        return sign * rng.randint(lo, (1 << 128) - 1) << m | (1 << m) - 1

    a, b, c = operand(1, 1 << 127), (operand(-1, 3 << 126), 0), (operand(-1, 3 << 126), 0)
    d = operand(1, 3 << 126), rng.getrandbits(m + 88)
    # Re G per unit t2 2^shift, exact and from the truncated operands
    det = a * d[0] - b[0] * c[0], a * d[1]
    alpha = Fraction(a * det[0], det[0] ** 2 + det[1] ** 2)
    a_, d_ = a >> m, (d[0] >> m, d[1] >> m)
    det_ = a_ * d_[0] - (b[0] >> m) * (c[0] >> m), a_ * d_[1]
    alpha_ = Fraction(a_ * det_[0], (det_[0] ** 2 + det_[1] ** 2) << m)
    size = alpha.numerator.bit_length() - alpha.denominator.bit_length()
    shift = rng.randint(max(0, -900 - size - 146), 900 - size - 146)
    mid = Fraction((rng.getrandbits(52) | 1 << 52) * 2 + 1) * Fraction(2) ** (size + shift + 146)
    t2 = mid / abs(alpha) / 2 ** shift
    t2 = math.floor(t2) if abs(alpha_) > abs(alpha) else math.ceil(t2)
    return t2, a, b, c, d, shift


def test_cramer_quotient_equals_exact_products():
    rng = random.Random(20260)
    seen = set()
    for i in range(600):
        args = (_planted_cancellation if i % 3 else _worst_truncation)(rng)
        want = _outcome(_exact_quotient, *args)
        assert _outcome(cramer_quotient, *args) == want, args
        if isinstance(want, str):
            seen.add(want)
        else:
            seen.update("zero" for x in want if float.fromhex(x) == 0.0)
            seen.update("subnormal" for x in want if 0.0 < abs(float.fromhex(x)) < 2.0 ** -1022)
    assert seen == {"OverflowError", "zero", "subnormal"}


def test_cramer_quotient_singular_and_zero():
    rng = random.Random(7)
    a, u, c = _signed(rng, 3000), (_signed(rng, 3000), 5), (_signed(rng, 3000), -3)
    # b = a u and d = u c: a d - b c = 0 exactly
    args = 3, a, gmul((a, 0), u), c, gmul(u, c), 40
    assert _outcome(_exact_quotient, *args) == "ZeroDivisionError"
    with pytest.raises(ZeroDivisionError):
        cramer_quotient(*args)
    # a = 0: G = 0, positive zero in both components as in the exact path
    args = 3, 0, u, c, (1 << 3000, 1), 40
    assert _outcome(cramer_quotient, *args) == _outcome(_exact_quotient, *args) \
        == ((0.0).hex(), (0.0).hex())


@pytest.mark.parametrize("n", [2, 8, 100, 300])
def test_decoupled_sublattices_give_positive_zero(n):
    # at t1 = 0 and even N, sites 1 and N lie on different sublattices and
    # G_1N = 0 exactly, at every energy: +0.0 in both components
    s = TransportSetup(ChainParams(1e-4, 0.0, 0.8, n), LeadParams(0.5), LeadParams(0.5))
    for e in (-2.5, 0.3, 1.5):
        g = green_1n_tetranacci(e, s)
        assert (g.real.hex(), g.imag.hex()) == ((0.0).hex(), (0.0).hex())
