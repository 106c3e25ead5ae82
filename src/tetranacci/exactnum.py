"""Exact replay of the basic polynomial T_-2 in scaled integers.

The basic polynomials grow like |r|^j, while the boundary determinants
and eigenvector combinations built from them cancel down by factors up to
|r|^(2N) -- far beyond what doubles can resolve -- so those combinations
are formed exactly and rounded once at the end.

Double-precision inputs are dyadic rationals, so real zeta and eta can be
written over one common denominator D = 2^k as zeta = Z/D, eta = H/D with
integer Z, H.  The scaled values y_j = D^(j+2) T_-2(j) then obey

    y_{j+2} = Z D y_j - D^4 y_{j-2} + H (y_{j+1} + D^2 y_{j-1})

from y_-2 = 1, y_-1 = y_0 = y_1 = 0: plain Python ints, where each power
of D is a shift and no gcd is ever taken.  The paper's reduction
identities T_1(j) = -T_-2(j+1), T_-1(j) = T_-2(j-1) - eta T_-2(j) and the
odd symmetry T_-2(-j) = -T_-2(j) (all proven exactly by `verify --suite
lemmata`) give the other basic polynomials at every index, so T_-2 is the
only sequence ever replayed.  A quotient of Gaussian integers, such as
the corner entry G_1N = t2 a / det of the boundary solve, is rounded with
int / int true division, which is correctly rounded, so each component is
the double nearest the exact value.
"""

from __future__ import annotations


def dyadic(*values: float):
    """Common exponent k and ints m_i with values[i] == m_i / 2^k exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    k = max(den.bit_length() - 1 for _, den in ratios)
    return k, [num << (k - den.bit_length() + 1) for num, den in ratios]


def tm2_replay(z: int, h: int, k: int, hi: int) -> list:
    """Scaled T_-2 for zeta = z/2^k, eta = h/2^k: entry j + 2 is 2^(k(j+2)) T_-2(j), j = -2..hi."""
    y = [1, 0, 0, 0]
    for _ in range(hi - 1):
        ym2, ym1, y0, y1 = y[-4:]
        y.append(((z * y0) << k) - (ym2 << 4 * k) + h * (y1 + (ym1 << 2 * k)))
    return y


def gaussian_divider(num, den, shift: int) -> complex:
    """num / den * 2^shift for Gaussian integers (re, im) and shift >= 0,
    each component rounded once."""
    (nr, ni), (dr, di) = num, den
    q = dr * dr + di * di
    return complex(((nr * dr + ni * di) << shift) / q, ((ni * dr - nr * di) << shift) / q)
