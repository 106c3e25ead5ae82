"""The scaled-integer T_-2 replay against an exact rational replay.

The reference replays the four-term recursion forward and backward over
`Fraction`, for each of the basic polynomials T_-2, T_-1 and T_1 from its
own Kronecker-delta initial data.  The scaled integers must equal it
exactly: T_-2 directly and, through the odd symmetry, at negative
indices; T_1 and T_-1 through the reduction identities.
"""

import math
import random
from fractions import Fraction

import pytest

from tetranacci.exactnum import dyadic, gaussian_divider, tm2_replay


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


@pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 7), (3, 40), (4, 120), (5, 120)])
def test_scaled_replay_equals_fraction_replay(seed, n):
    rng = random.Random(seed)
    zeta, eta = random_dyadic(rng), random_dyadic(rng) if seed else 0.0
    k, (z, h) = dyadic(zeta, eta)
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
