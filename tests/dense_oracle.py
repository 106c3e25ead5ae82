"""Dense references for the tests.

- `transmission_dense`: the trace formula Tr{Gamma_L G^r Gamma_R G^a} from
  `green_1n_dense` at every energy, where `transmission` takes it only
  where the exact boundary solve has no coefficient map.
- `green_1n_fraction`: G_1N from an exact rational solve of (E - H - Sigma)
  x = e_N, sharing no code with the package.
"""

from fractions import Fraction

from tetranacci.transport import _twice, green_1n_dense


def transmission_dense(e, s):
    """With Gamma_L = 2 gamma_L e_1 e_1^T and Gamma_R = w w^T, w = sqrt(2
    gamma_R) e_N, the trace is 2 gamma_L |(G^r w)_1|^2 = 4 gamma_L gamma_R
    |G^r_{1N}|^2, in the two factors of `transmission`."""
    g = abs(green_1n_dense(e, s))
    return _twice(s.left.gamma, g) * _twice(s.right.gamma, g)


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return _cmul(a, (b[0] / norm, -b[1] / norm))


def green_1n_fraction(e, s):
    """The exact G_1N = x_1 as a pair (re, im) of Fractions, by Gauss-Jordan
    elimination of (E - H - Sigma) x = e_N.

    Complex entries are (re, im) pairs of Fractions built from the setup's
    doubles, so nothing is rounded.  A singular system must be consistent
    with x_1 shared by all its solutions, as at the eigenvalue of a mode
    with no weight on site 1 or N between coupled leads; its free unknowns
    are taken as 0.
    """
    n, p = s.chain.n, s.chain
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    a = [[zero] * n + [one if r == n - 1 else zero] for r in range(n)]
    for r in range(n):
        a[r][r] = (Fraction(e) + Fraction(p.mu), Fraction(0))
        for d, t in ((1, p.t1), (2, p.t2)):
            if r + d < n:
                a[r][r + d] = a[r + d][r] = (Fraction(t), Fraction(0))
    for r, lead in ((0, s.left), (n - 1, s.right)):
        re, im = a[r][r]
        a[r][r] = (re - Fraction(lead.lam), im + Fraction(lead.gamma))
    rank = 0
    for k in range(n):
        pivot = next((r for r in range(rank, n) if a[r][k] != zero), None)
        if pivot is None:  # a free unknown
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        head = a[rank][k]
        a[rank] = [_cdiv(v, head) for v in a[rank]]
        for r in range(n):
            if r != rank and a[r][k] != zero:
                f = a[r][k]
                a[r] = [(x[0] - y[0], x[1] - y[1])
                        for x, y in zip(a[r], (_cmul(f, v) for v in a[rank]))]
        rank += 1
    assert all(a[r][n] == zero for r in range(rank, n)), "inconsistent system"
    assert a[0][0] == one, "x_1 is free"
    return a[0][n]
