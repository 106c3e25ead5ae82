"""The basic polynomial T_-2 exactly, in scaled integers: replayed, or near
j = N from the paper's Fibonacci decomposition.

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
every index, so T_-2 is the only sequence ever computed.

The boundary solve needs only T_-2(N-1..N+3), and takes it from the
paper's decomposition into generalized Fibonacci polynomials in O(log N)
ring products (`tm2_window`).  The recursion's generating function has
the denominator Q(x) = 1 - eta x - zeta x^2 - eta x^3 + x^4 = (1 - S1 x
+ x^2)(1 - S2 x + x^2), with S = r + 1/r the roots of S^2 - eta S -
(zeta + 2) = 0, and 1/Q(x) splits into the two Fibonacci sequences V_0 =
1, V_1 = S, V_{m+1} = S V_m - V_{m-1} (Chebyshev's U_m(S/2)):

    T_-2(j) = -(V_{j-1}(S1) - V_{j-1}(S2)) / (S1 - S2),

which is a polynomial in S1 and S2, so it holds at S1 = S2 too.  With S'
= 2^k S, a root of S'^2 - h S' - (z + 2 4^k) = 0, W_m = 2^(km) V_m(S)
lies in the ring Z[S'] / (S'^2 - h S' - (z + 2 4^k)) as A_m + B_m S'
with integer A_m, B_m, and as S1 and S2 are the two conjugate values of
S, the difference quotient above is B_m: y_j = D^(j+2) T_-2(j) = -D^4
B_{j-1}.  Chebyshev's product formulas give, from (W_m, W_{m-1}),

    W_{2m} = (W_m + D W_{m-1}) (W_m - D W_{m-1}),
    W_{2m-1} = W_{m-1} (2 W_m - S' W_{m-1}),

and one step is W_{m+1} = S' W_m - D^2 W_{m-1}; from (W_0, W_-1) = (1,
0), which doubling leaves as they are, a binary ladder over the bits of
m reaches (W_m, W_{m-1}) in about 2 log2(m) ring products whose operands
double in length each time, and a few more steps give the window.  The
ints held are those of a few W, O(N) bits, where the replay above holds
all N of them, O(N^2) bits.  The closed-form eigenvector needs every
T_-2(j), and takes them from the replay (`tm2_replay`).  Its numerator,
a combination of T_-2(j) and T_-2(j+1), solves the same recursion, so it
is replayed too, from other seeds.

A quotient of Gaussian integers is rounded with int / int true division,
which is correctly rounded, so each component is the double nearest the
exact value.  The corner entry G_1N = t2 a / (a d - b c) of the boundary solve
(`cramer_quotient`) has operands of thousands of bits on long chains, yet
needs 53 bits: it is rounded from the top bits of its operands and a
rigorous bound on what the dropped bits can change, and the full-length
products are formed only where that bound cannot decide the rounding.
"""

from __future__ import annotations


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
    """Scaled T_-2 for zeta = z/4^k, eta = h/2^k: entry j + 2 is 2^(k(j+2)) T_-2(j), j = -2..hi
    (-2..1 for hi < 1), each from the four before it.  Other seeds, the
    scaled values of S(-2..1), replay any solution S of the recursion."""
    y = list(seeds)
    for _ in range(hi - 1):
        ym2, ym1, y0, y1 = y[-4:]
        y.append(z * y0 - (ym2 << 4 * k) + h * (y1 + (ym1 << 2 * k)))
    return y


def tm2_window(z: int, h: int, k: int, lo: int, hi: int) -> list:
    """Scaled T_-2 for zeta = z/4^k, eta = h/2^k: entry j - lo is 2^(k(j+2))
    T_-2(j), j = lo..hi for 0 <= lo <= hi, the ints `tm2_replay` gives there,
    from the Fibonacci ladder of the module docstring in O(log lo) ring
    products."""
    q = z + (2 << 2 * k)  # S'^2 = h S' + q
    # W_m = a + b S' and W_{m-1} = c + d S', from m = 1 (or m = 0 at lo = 0)
    a, b, c, d = (0, 1, 1, 0) if lo else (1, 0, 0, 0)
    for bit in bin(lo)[3:]:  # m -> 2m, and 2m + 1 where the bit is set
        # each ring product (x0 + x1 S')(y0 + y1 S') = x0 y0 + q x1 y1 + (x0 y1
        # + x1 y0 + h x1 y1) S' takes x0 y1 + x1 y0 from one long product
        x0, x1, y0, y1 = a + (c << k), b + (d << k), a - (c << k), b - (d << k)
        u0, u1 = 2 * a - d * q, 2 * b - c - d * h  # 2 W_m - S' W_{m-1}
        p0, p1, r0, r1 = x0 * y0, x1 * y1, c * u0, d * u1
        c, d = r0 + q * r1, (c + d) * (u0 + u1) - r0 - r1 + h * r1
        a, b = p0 + q * p1, (x0 + x1) * (y0 + y1) - p0 - p1 + h * p1
        if bit == "1":
            a, b, c, d = b * q - (c << 2 * k), a + b * h - (d << 2 * k), a, b
    out = [-d << 4 * k]  # m = lo: W_{lo-1} gives y_lo
    for _ in range(lo, hi):
        a, b, c, d = b * q - (c << 2 * k), a + b * h - (d << 2 * k), a, b
        out.append(-d << 4 * k)
    return out


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
