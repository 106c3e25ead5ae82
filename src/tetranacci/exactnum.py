"""Exact replay of the basic polynomial T_-2 in scaled integers.

The basic polynomials grow like |r|^j, while the boundary determinants
and eigenvector combinations built from them cancel down by factors up to
|r|^(2N) -- far beyond what doubles can resolve -- so those combinations
are formed exactly and rounded once at the end.

Double-precision inputs are dyadic rationals.  In the recursion T(j+2) =
zeta T(j) - T(j-2) + eta (T(j+1) + T(j-1)) zeta carries two index steps
and eta one, so zeta is written over D^2 and eta over D: zeta = Z/D^2, eta
= H/D with integer Z, H and D = 2^k, k = max(ceil(k_zeta / 2), k_eta) for
zeta over 2^k_zeta and eta over 2^k_eta (`tm2_scale`).  The scaled values
y_j = D^(j+2) T_-2(j) then obey

    y_{j+2} = Z y_j - D^4 y_{j-2} + H (y_{j+1} + D^2 y_{j-1})

from y_-2 = 1, y_-1 = y_0 = y_1 = 0: plain Python ints, where each power
of D is a shift and no gcd is ever taken.  One D for both (zeta = Z/D)
would need k = max(k_zeta, k_eta).  zeta = -(E + mu)/t2 at a generic
energy has k_zeta near 53, while eta = -t1/t2 of a chain with a simple
hopping ratio (t1 = 0, t1 = +-t2, t1/t2 = 5/4) has a short k_eta, so the
weights about halve k, and with it the length of every int.

The paper's reduction identities T_1(j) = -T_-2(j+1), T_-1(j) = T_-2(j-1)
- eta T_-2(j) and the odd symmetry T_-2(-j) = -T_-2(j) (all proven
exactly by `verify --suite lemmata`) give the other basic polynomials at
every index, so T_-2 is the only sequence ever replayed, and the boundary
solve and the closed-form eigenvector take it from `tm2_ints`.  The
eigenvector's numerator, a combination of T_-2(j) and T_-2(j+1), solves
the same recursion, so `tm2_ints` replays it too, from other seeds.  A
quotient of Gaussian integers is rounded with int / int true division,
which is correctly rounded, so each component is the double nearest the
exact value.  The corner entry G_1N = t2 a / (a d - b c) of the boundary solve
(`cramer_quotient`) has operands of thousands of bits on long chains, yet
needs 53 bits: it is rounded from the top bits of its operands and a
rigorous bound on what the dropped bits can change, and the full-length
products are formed only where that bound cannot decide the rounding.
"""

from __future__ import annotations

from functools import partial


def dyadic(*values: float):
    """Common exponent k and ints m_i with values[i] == m_i / 2^k exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max(den.bit_length() - 1 for _, den in ratios)
    return k, [num << (k - den.bit_length() + 1) for num, den in ratios]


def tm2_scale(zeta: float, eta: float):
    """Least k and ints z, h with zeta == z / 4^k and eta == h / 2^k exactly."""
    kz, (z,) = dyadic(zeta)
    kh, (h,) = dyadic(eta)
    k = max((kz + 1) // 2, kh)
    return k, (z << 2 * k - kz, h << k - kh)


def tm2_replay(z: int, h: int, k: int, hi: int, seeds=(1, 0, 0, 0)) -> list:
    """Scaled T_-2 for zeta = z/4^k, eta = h/2^k: entry j + 2 is 2^(k(j+2)) T_-2(j), j = -2..hi.
    Other seeds, the scaled values of S(-2..1), replay any solution S of the recursion."""
    y = list(seeds)
    for _ in range(hi - 1):
        ym2, ym1, y0, y1 = y[-4:]
        y.append(z * y0 - (ym2 << 4 * k) + h * (y1 + (ym1 << 2 * k)))
    return y


def tm2_ints(zeta: float, eta: float, top: int):
    """k and h of `tm2_scale` (eta == h / 2^k); tau with tau(i) the int
    2^(k (top+2)) T_-2(i), -2 <= i <= top: one denominator for the window,
    each value shifted from the one replay when asked for; and replay(hi,
    seeds), `tm2_replay` of the same z, h and k from other scaled seeds."""
    k, (z, h) = tm2_scale(zeta, eta)
    y = tm2_replay(z, h, k, top)
    return k, h, lambda i: y[i + 2] << k * (top - i), partial(tm2_replay, z, h, k)


def gmul(u, v):
    """The product of two Gaussian integers (re, im)."""
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def gaussian_divider(num, den, shift: int) -> complex:
    """num / den * 2^shift for Gaussian integers (re, im) and shift >= 0,
    each component rounded once."""
    (nr, ni), (dr, di) = num, den
    q = dr * dr + di * di
    return complex(((nr * dr + ni * di) << shift) / q, ((ni * dr - nr * di) << shift) / q)


# Operand length, in bits, at and below which `cramer_quotient` forms the
# exact products at once: there the truncation's bookkeeping costs more than
# the products of short ints.  Per call on the operands of the boundary solve
# of the chain mu = 1e-4, t1 = 1, t2 = 0.8, gamma = 0.5 at 60 energies in
# [-3, 3] (median operand length; exact products vs truncated, 2-vCPU VM,
# CPython 3.11): N = 5 (391 bits) 4.6 vs 10.4 us, N = 14 (625) 8.5 vs
# 10.3 us, N = 17 (704) 10.0 vs 10.2 us, N = 20 (783) 12.0 vs 10.1 us,
# N = 30 (1047) 20.8 vs 10.5 us.
_EXACT_BITS = 700
# the first precision of the truncated operands, doubled until the bound
# decides or the precision reaches the operands' length
_FIRST_BITS = 128


def cramer_quotient(t2: int, a: int, b, c, d, shift: int) -> complex:
    """G = t2 a / (a d - b c) * 2^shift for an int t2, an int a, Gaussian
    integers b, c, d as (re, im) and shift >= 0, each component rounded once.

    ZeroDivisionError is raised where a d - b c = 0, and OverflowError where
    a component of G is past the doubles.  The result is bit for bit the
    exact quotient of `gaussian_divider`, but long operands are first tried
    at their top bits, and the full-length products are formed only where
    those bits cannot decide the rounding (Ziv's strategy: A. Ziv, ACM
    TOMS 17 (1991) 410).

    Truncate: a' = a >> ma, b' = b >> mb, c' = c >> mc and d' = d >> md keep
    about the top P bits of each operand, with ma + md = mb + mc = M so that
    a d and b c share the scale 2^M.  (One shift for {a, b} would leave a',
    which lacks the boundary solve's D' D of b, about 80 bits short of P.)
    A floor shift gives x = (x' + theta) 2^m with 0 <= theta < 1, so the
    product x y = (x' y' + x' theta_y + theta_x y' + theta_x theta_y) 2^M
    differs from x' y' 2^M by less than (|x'| + |y'| + 1) 2^M.  Summing the
    three products of each component, det = a d - b c = (det' + delta) 2^M
    with det' = a' d' - b' c', |Re delta| < er, |Im delta| < ei, and so
    |delta| < ed = er + ei, where

        er = |a'| + |d'_r| + |b'_r| + |c'_r| + |b'_i| + |c'_i| + 3,
        ei = |a'| + |d'_i| + |b'_r| + |c'_i| + |b'_i| + |c'_r| + 3.

    Bound: with n' = t2 a', G = t2 (a' + theta_a) / (det' + delta) *
    2^(shift - md), and G' = n' / det' is exact over small ints:

        G 2^(md - shift) - G' = t2 (theta_a det' - a' delta) / (det' (det' + delta)),

    whose size is below (|t2| |det'| + |n'| ed) / (|det'| (|det'| - ed))
    where |det'| > ed.  That decreases in |det'|, and |det'| >= L =
    max(|Re det'|, |Im det'|), so for L > ed

        |G - G'| <= (|t2| L + |n'| ed) / (L (L - ed)) 2^(shift - md),

    which is rounded up to a power of two from the bit lengths of its
    factors.

    Decide: each component of G lies in the closed interval of G' +- that
    bound.  Rounding to nearest is monotone, so where both ends round, by
    int / int, to the same double (compared by `.hex()`, so the sign of
    zero counts) the exact component rounds to it too.  Otherwise P
    doubles.  An end past the doubles counts as undecided, so overflow and
    det = 0 are left to the exact products: these are formed once P reaches
    the operands' length, and at once for operands of at most `_EXACT_BITS`
    or for a = 0 (G = 0 exactly, or det = -b c = 0).
    """
    la, lb, lc, ld = (max(x.bit_length() for x in v) for v in ((a,), b, c, d))
    length = max(la, lb, lc, ld)
    if a and length > _EXACT_BITS:
        p = _FIRST_BITS
        while p < length:
            ma, mb, mc = (max(n - p, 0) for n in (la, lb, lc))
            ma = min(ma, mb + mc)
            md = mb + mc - ma
            g = _rounded_bracket(t2, a >> ma, (b[0] >> mb, b[1] >> mb),
                                 (c[0] >> mc, c[1] >> mc), (d[0] >> md, d[1] >> md),
                                 shift - md)
            if g is not None:
                return g
            p *= 2
    bc = gmul(b, c)
    det = a * d[0] - bc[0], a * d[1] - bc[1]
    if det == (0, 0):
        raise ZeroDivisionError("a d - b c = 0")
    return gaussian_divider((t2 * a, 0), det, shift)


def _rounded_bracket(t2, a, b, c, d, s):
    """The rounded t2 a / (a d - b c) 2^s of truncated operands, or None where
    `cramer_quotient`'s error bound cannot decide a component."""
    (br, bi), (cr, ci), (dr, di) = b, c, d
    ur, ui = a * dr - br * cr + bi * ci, a * di - br * ci - bi * cr
    ed = 2 * (abs(a) + abs(br) + abs(bi) + abs(cr) + abs(ci)) + abs(dr) + abs(di) + 6  # er + ei
    big = max(abs(ur), abs(ui))  # L
    if big <= ed:
        return None
    n = t2 * a
    # 2^e >= (|t2| L + |n'| ed) / (L (L - ed)), as x < 2^bits(x) <= 2 x
    bits = big.bit_length()
    e = max(t2.bit_length() + bits, n.bit_length() + ed.bit_length()) + 3 - bits \
        - (big - ed).bit_length()
    # (x -+ q 2^e) 2^s / q for x / q = n' conj(det') / |det'|^2, over one
    # denominator whose shifts are all non-negative
    base = min(0, s, e + s)
    q = ur * ur + ui * ui
    den, w = q << -base, q << e + s - base
    out = []
    for x in (n * ur << s - base, -n * ui << s - base):
        try:
            lo, hi = (x - w) / den, (x + w) / den
        except OverflowError:
            return None
        if lo.hex() != hi.hex():
            return None
        out.append(lo)
    return complex(*out)
