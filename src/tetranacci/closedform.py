"""Closed form of the tetranacci sequences from two standing waves.

The substitution S = r + 1/r factors the characteristic polynomial as
(1 - S_1 t + t^2)(1 - S_2 t + t^2), so S_1 + S_2 = eta and S_1 S_2 =
-(zeta + 2).  The factor of S_l generates the standing wave phi_l(j) =
sin(j theta_l) / sin(theta_l), theta_l = arccos(S_l / 2), and T_-2 (the 1 at
index -2) has the generating function -t^2 over the product, so

    T_-2(j) = -sum_{a=1}^{j-1} phi_1(a) phi_2(j - a) = -T_-2(-j),  j >= 0.

The Cauchy product divides by nothing and is symmetric in S_1 and S_2, so
it holds for every pair of roots, equal or at +-2 included; `xi_closed` adds
one wave for a general g.  The root class (distinct; degenerate_s: S_1 ==
S_2; degenerate_unit: S_1 == S_2 = +-2) only labels what the paper states
per class (`plane_wave_coeffs`, `appendix_a_solutions`).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .recurrence import Coefficients, InitialValues, SequenceWindow


class RootClass(enum.Enum):
    DISTINCT = "distinct"
    DEGENERATE_S = "degenerate_s"
    DEGENERATE_UNIT = "degenerate_unit"


@dataclass(frozen=True)
class CharacteristicData:
    """Roots S_l, angles theta_l and degeneracy label for one coefficient pair."""

    zeta: complex
    eta: complex
    s1: complex
    s2: complex
    theta1: complex
    theta2: complex
    root_class: RootClass

    def theta(self, l: int) -> complex:
        return self.theta1 if l == 1 else self.theta2

    def r_pair(self, l: int):
        """The roots r_{+-l} = exp(+-i theta_l) of 1 - S_l t + t^2."""
        return cmath.exp(1j * self.theta(l)), cmath.exp(-1j * self.theta(l))


def _principal_theta(s: complex) -> complex:
    """arccos(S/2) with Re in [0, pi], preferring Im >= 0 when cos allows."""
    th = cmath.acos(complex(s) / 2.0)
    if th.imag < 0.0:
        if abs(th.real) < 1e-15:
            th = -th
        elif abs(th.real - cmath.pi) < 1e-15:
            th = 2.0 * cmath.pi - th
    return th


# below this, S_1 and S_2 (relative to max(1, |S|)), or S^2 and 4, count as
# equal; it only names the class, no value is computed from it
_EPS_CLASS = 1e-8


def characterize(c: Coefficients) -> CharacteristicData:
    """Compute S_{1,2} and theta_{1,2}, and label the degeneracy class."""
    disc_sq = c.eta * c.eta + 4.0 * (c.zeta + 2.0)
    disc = cmath.sqrt(disc_sq)
    s1, s2 = (c.eta + disc) / 2.0, (c.eta - disc) / 2.0
    scale = max(1.0, abs(s1), abs(s2))
    # |S1 - S2| = sqrt(disc_sq) amplifies the floating noise of a vanishing
    # discriminant to ~1e-8, so the discriminant is tested directly as well
    # to catch points sitting on the locus zeta = -2 - eta^2/4
    disc_scale = max(1.0, abs(c.eta) ** 2, 4.0 * abs(c.zeta + 2.0))
    if abs(s1 - s2) <= _EPS_CLASS * scale or abs(disc_sq) <= _EPS_CLASS * disc_scale:
        unit = abs(c.eta * c.eta / 4.0 - 4.0) <= _EPS_CLASS
        root_class = RootClass.DEGENERATE_UNIT if unit else RootClass.DEGENERATE_S
    else:
        root_class = RootClass.DISTINCT
    return CharacteristicData(
        zeta=c.zeta, eta=c.eta, s1=s1, s2=s2,
        theta1=_principal_theta(s1), theta2=_principal_theta(s2),
        root_class=root_class,
    )


def standing_wave(m: int, x: complex) -> complex:
    """Q_m(x) = sin(m x) / sin(x), with Q_m(0) = m, for -pi <= Re x <= pi.

    x is folded onto 0 <= Re x <= pi/2 by Q_m(-x) = Q_m(x) and Q_m(pi - x) =
    (-1)^(m+1) Q_m(x): near pi, m x rounds to m ulp(pi) while sin(x)
    vanishes, but near 0 both sines carry the relative error of x, which
    cancels.  Both sines are divided by |sin x|, so |sin x|^2 cannot
    underflow, and multiplying by conj(sin x) / |sin x|^2 makes Q_1 exactly 1.
    """
    if x.real < 0.0:
        x = -x
    sign = 1
    if x.real > math.pi / 2:
        x, sign = math.pi - x, (-1) ** (m + 1)
    if x == 0:
        return complex(sign * m)
    s = cmath.sin(x)
    a = abs(s)
    s, t = s / a, cmath.sin(m * x) / a
    return sign * t * s.conjugate() / (s * s.conjugate()).real


def phi(l: int, j: int, cd: CharacteristicData) -> complex:
    """Standing wave phi_l(j) = sin(j theta_l) / sin(theta_l)."""
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    return standing_wave(j, cd.theta(l))


def t_minus2(cd: CharacteristicData, lo: int, hi: int) -> np.ndarray:
    """T_-2(lo..hi) as a complex array: minus the Cauchy product of phi_1
    and phi_2 for j >= 0, extended to j < 0 by T_-2(-j) = -T_-2(j).  Only
    |j| in a..b is formed, one 'valid' convolution: O(b (b - a)) work."""
    j = np.arange(lo, hi + 1)
    a, b = int(np.abs(j).min()), int(np.abs(j).max())
    w1, w2 = ([phi(l, k, cd) for k in range(b + 1)] for l in (1, 2))
    c = np.convolve(w1, np.concatenate([np.zeros(b), w2])[a:], "valid")
    return -np.sign(j) * c[np.abs(j) - a]


def xi_closed(g: InitialValues, cd: CharacteristicData, lo: int, hi: int) -> SequenceWindow:
    """Closed-form xi_lo..xi_hi as the window of `eval_range`, OverflowError included.

    Let S_s be the factor whose waves grow slower, S_f the other.  Then
    v_j = xi_{j+1} - S_s xi_j + xi_{j-1} solves the recursion of S_f, and
    for j >= 0, with z the solution of S_s through xi_-2 and xi_-1,

        xi_j = z_j - v_-1 T_-2(j+2) - (v_0 - S_f v_-1) T_-2(j+1);

    j < 0 is the same for the reversed g, the recursion being palindromic.  A
    g near the slow solutions cancels in v, between O(1) numbers, not between
    T_-2 values growing like |r_f|^j.
    """
    if lo > hi:
        raise PreconditionError(f"empty range [{lo}, {hi}]")
    (s_s, th_s), (s_f, _) = sorted([(cd.s1, cd.theta1), (cd.s2, cd.theta2)],
                                   key=lambda root: abs(root[1].imag))
    top, a0 = max(hi, -1 - lo), max(0, lo, -1 - hi)  # the j >= 0 both halves need
    slow = np.array([standing_wave(k, th_s) for k in range(top + 2)])
    t = t_minus2(cd, a0 + 1, top + 2)

    def half(gm2, gm1, g0, g1, a, b):  # xi_a..xi_b, a0 <= a <= b <= top
        v_m1, v_0 = g0 - s_s * gm1 + gm2, g1 - s_s * g0 + gm1
        return ((s_s * gm1 - gm2) * slow[a + 1:b + 2] - gm1 * slow[a:b + 1]
                - v_m1 * t[a + 1 - a0:b + 2 - a0] - (v_0 - s_f * v_m1) * t[a - a0:b + 1 - a0])

    with np.errstate(all="ignore"):
        xi = np.concatenate([half(*g.g[::-1], max(0, -1 - hi), -1 - lo)[::-1] if lo < 0 else [],
                             half(*g.g, max(0, lo), hi) if hi >= 0 else []])
    if not np.isfinite(xi).all():
        raise OverflowError(f"closed form leaves the finite doubles in [{lo}, {hi}]")
    return SequenceWindow(lo, tuple(xi.tolist()))


def plane_wave_coeffs(g: InitialValues, cd: CharacteristicData):
    """Weights (A, B, C, D) of r_{+1}^j, r_{-1}^j, r_{+2}^j, r_{-2}^j.

    Only valid when all four characteristic roots are distinct, i.e. the
    class is distinct and neither S_l equals +-2.
    """
    if cd.root_class is not RootClass.DISTINCT or any(
            abs(s * s - 4.0) <= _EPS_CLASS for s in (cd.s1, cd.s2)):
        raise PreconditionError("plane-wave decomposition needs four distinct roots")
    roots = [*cd.r_pair(1), *cd.r_pair(2)]
    a = np.array([[r ** i for r in roots] for i in (-2, -1, 0, 1)], dtype=complex)
    return tuple(np.linalg.solve(a, np.array(g.g, dtype=complex)))


def _power_residual(p: int, root: complex, cd: CharacteristicData, j_range) -> float:
    """Max recursion residual of j^p * root^j over j_range, scale-relative."""
    vals = {j: (j ** p) * root ** j for j in range(min(j_range) - 2, max(j_range) + 3)}
    scale = max(abs(v) for v in vals.values()) or 1.0
    return max(abs(vals[j + 2] - (cd.zeta * vals[j] - vals[j - 2]
                                  + cd.eta * (vals[j + 1] + vals[j - 1])))
               for j in j_range) / scale


def appendix_a_solutions(cd: CharacteristicData, j_range) -> dict:
    """Residuals of the extra degenerate-class solutions j^p r^j.

    Returns a map from candidate label to max recursion residual (relative
    to the candidate's max magnitude over the range).  The double root
    r = exp(+-i theta) takes theta from S = eta/2, exactly +-2 at the unit
    point: S_1 and S_2 of a discriminant rounded near zero differ by ~1e-8.
    """
    if cd.root_class is RootClass.DISTINCT:
        raise PreconditionError("extra solutions exist only for degenerate roots")
    unit = cd.root_class is RootClass.DEGENERATE_UNIT
    theta = _principal_theta(math.copysign(2.0, cd.eta.real) if unit else cd.eta / 2.0)
    r_plus, r_minus = cmath.exp(1j * theta), cmath.exp(-1j * theta)
    js = list(j_range)
    powers = {"j*r+1^j": (1, r_plus), "j*r-1^j": (1, r_minus)}
    if unit:
        powers.update({"j^2*r+1^j": (2, r_plus), "j^3*r+1^j": (3, r_plus)})
    return {label: _power_residual(p, r, cd, js) for label, (p, r) in powers.items()}
