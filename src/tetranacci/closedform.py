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

`characterize`, `standing_wave`, `t_minus2` and `xi_closed` take batches:
the fields of `Coefficients` and `InitialValues`, and the angles x of
`standing_wave`, may be 1-D arrays, one entry per draw, and the results
then carry that axis first.  One numpy code serves both; a single value is
the batch of one entry, returned as Python numbers.  What holds exactly:

- each entry of a batch equals its single call bit for bit, as no entry
  mixes with another (`t_minus2` makes one `np.convolve` per row);
- Q_1(x) = 1 and Q_m(0) = m, and T_-2(-j) = -T_-2(j);
- against `eval_range` the closed form agrees to rounding only, within
  1e-9 of the window's largest value on the property tests' draws.

numpy's arccos and its complex products (fused multiply-adds) round
otherwise than Python's cmath, so angles and windows differ from a cmath
evaluation in the last digits.
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
    """Roots S_l, angles theta_l and degeneracy label for one coefficient
    pair, or for a batch: then every field past zeta and eta is a 1-D array,
    root_class one of RootClass objects.  `r_pair` takes one pair."""

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


def _principal_theta(s: np.ndarray) -> np.ndarray:
    """arccos(S/2) with Re in [0, pi], preferring Im >= 0 when cos allows,
    entry by entry."""
    th = np.arccos(s / 2.0)
    neg = th.imag < 0.0
    th = np.where(neg & (np.abs(th.real) < 1e-15), -th, th)
    return np.where(neg & (np.abs(th.real - np.pi) < 1e-15), 2.0 * np.pi - th, th)


# below this, S_1 and S_2 (relative to max(1, |S|)), or S^2 and 4, count as
# equal; it only names the class, no value is computed from it
_EPS_CLASS = 1e-8

# the label of degenerate * (1 + unit)
_CLASSES = np.array(list(RootClass), dtype=object)


def characterize(c: Coefficients) -> CharacteristicData:
    """Compute S_{1,2} and theta_{1,2}, and label the degeneracy class.

    For a batch of coefficients every field is a 1-D array, root_class one
    of RootClass objects, and each entry is bit for bit the single call's.
    OverflowError is raised where a root or |eta|^2 leaves the doubles.
    """
    zeta, eta = (np.atleast_1d(np.asarray(v, dtype=complex)) for v in (c.zeta, c.eta))
    with np.errstate(over="ignore", invalid="ignore"):
        disc_sq = eta * eta + 4.0 * (zeta + 2.0)
        disc = np.sqrt(disc_sq)
        s1, s2 = (eta + disc) / 2.0, (eta - disc) / 2.0
        # |S1 - S2| = sqrt(disc_sq) amplifies the floating noise of a vanishing
        # discriminant to ~1e-8, so the discriminant is tested directly as well
        # to catch points sitting on the locus zeta = -2 - eta^2/4
        disc_scale = np.maximum(np.maximum(1.0, np.abs(eta) ** 2), 4.0 * np.abs(zeta + 2.0))
    if not (np.isfinite(s1).all() and np.isfinite(s2).all() and np.isfinite(disc_scale).all()):
        raise OverflowError("characteristic roots leave the finite doubles")
    scale = np.maximum(1.0, np.maximum(np.abs(s1), np.abs(s2)))
    degenerate = ((np.abs(s1 - s2) <= _EPS_CLASS * scale)
                  | (np.abs(disc_sq) <= _EPS_CLASS * disc_scale))
    unit = np.abs(eta * eta / 4.0 - 4.0) <= _EPS_CLASS
    fields = (s1, s2, _principal_theta(s1), _principal_theta(s2),
              _CLASSES[degenerate * (1 + unit)])
    if np.ndim(c.zeta) == np.ndim(c.eta) == 0:
        fields = [f.item() for f in fields]
    return CharacteristicData(c.zeta, c.eta, *fields)


def _waves(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q_m(x) for the ints m and the complex x, 1-D arrays; row i holds x[i]."""
    x = np.where(x.real < 0.0, -x, x)
    fold = x.real > math.pi / 2
    x = np.where(fold, math.pi - x, x)
    zero = x == 0
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sin(np.where(zero, 1.0, x))
        q = np.sin(m * x[:, None])
    if not (np.isfinite(s).all() and np.isfinite(q).all()):
        raise OverflowError("sin(m x) leaves the finite doubles")
    # real arithmetic, as a fused complex product would leave Q_1 an ulp off 1
    a = np.abs(s)
    sr, si = (s.real / a)[:, None], (s.imag / a)[:, None]
    den = sr * sr + si * si
    qr, qi = q.real / a[:, None], q.imag / a[:, None]
    q = (qr * sr + qi * si) / den + 1j * ((qi * sr - qr * si) / den)
    q = np.where(zero[:, None], m, q)
    return np.where(fold[:, None] & (m % 2 == 0), -q, q)


def standing_wave(m, x):
    """Q_m(x) = sin(m x) / sin(x), with Q_m(0) = m, for -pi <= Re x <= pi.

    x is folded onto 0 <= Re x <= pi/2 by Q_m(-x) = Q_m(x) and Q_m(pi - x) =
    (-1)^(m+1) Q_m(x): near pi, m x rounds to m ulp(pi) while sin(x)
    vanishes, but near 0 both sines carry the relative error of x, which
    cancels.  Both sines are divided by |sin x|, so |sin x|^2 cannot
    underflow, and multiplying by conj(sin x) / |sin x|^2 makes Q_1 exactly 1.

    m is an int or a 1-D int array, and x a number or a 1-D array of them;
    the result has the shape of x followed by that of m, a complex for two
    numbers.  x is folded and sin(x) formed once per entry, and each value is
    bit for bit the one of the call with that int m and that number x.
    OverflowError is raised where sin(m x) leaves the doubles.
    """
    q = _waves(np.atleast_1d(m), np.atleast_1d(np.asarray(x, dtype=complex)))
    q = q.reshape(np.shape(x) + np.shape(m))
    return q.item() if q.ndim == 0 else q


def phi(l: int, j, cd: CharacteristicData):
    """Standing wave phi_l(j) = sin(j theta_l) / sin(theta_l), for an int j
    or an int array of them, as `standing_wave` shapes it."""
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    return standing_wave(j, cd.theta(l))


def _t_minus2(th1: np.ndarray, th2: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """T_-2(lo..hi) for the angle arrays th1 and th2; row i holds entry i."""
    j = np.arange(lo, hi + 1)
    a, b = int(np.abs(j).min()), int(np.abs(j).max())
    m, pad = np.arange(b + 1), np.zeros(b)
    # one convolution per row keeps the work O(b (b - a)) and the memory O(b)
    c = np.array([np.convolve(w1, np.concatenate([pad, w2])[a:], "valid")
                  for w1, w2 in zip(_waves(m, th1), _waves(m, th2))])
    return -np.sign(j) * c.reshape(-1, b - a + 1)[:, np.abs(j) - a]


def t_minus2(cd: CharacteristicData, lo: int, hi: int) -> np.ndarray:
    """T_-2(lo..hi) as a complex array: minus the Cauchy product of phi_1
    and phi_2 for j >= 0, extended to j < 0 by T_-2(-j) = -T_-2(j), which
    holds exactly.  Only |j| in a..b is formed, one 'valid' convolution:
    O(b (b - a)) work and O(b) memory.  A batch gives one row per entry, each
    bit for bit the single call's."""
    t = _t_minus2(np.atleast_1d(cd.theta1), np.atleast_1d(cd.theta2), lo, hi)
    return t if np.ndim(cd.theta1) else t[0]


def xi_closed(g: InitialValues, cd: CharacteristicData, lo: int, hi: int) -> SequenceWindow:
    """Closed-form xi_lo..xi_hi as the window of `eval_range`, OverflowError included.

    Let S_s be the factor whose waves grow slower, S_f the other.  Then
    v_j = xi_{j+1} - S_s xi_j + xi_{j-1} solves the recursion of S_f, and
    for j >= 0, with z the solution of S_s through xi_-2 and xi_-1,

        xi_j = z_j - v_-1 T_-2(j+2) - (v_0 - S_f v_-1) T_-2(j+1);

    j < 0 is the same for the reversed g, the recursion being palindromic.  A
    g near the slow solutions cancels in v, between O(1) numbers, not between
    T_-2 values growing like |r_f|^j.

    g and cd may be batches (1-D arrays, one entry per draw).  Then each
    window value is an array of the entries, as `eval_range` gives it, and
    each entry is bit for bit the single call's.  Against the replay the
    closed form agrees to rounding, not exactly: within 1e-9 of the
    window's largest value on the property tests' draws.
    """
    if lo > hi:
        raise PreconditionError(f"empty range [{lo}, {hi}]")
    s1, s2, th1, th2 = (np.atleast_1d(v) for v in (cd.s1, cd.s2, cd.theta1, cd.theta2))
    swap = np.abs(th2.imag) < np.abs(th1.imag)  # root 1 is the slow one on a tie
    s_s, s_f = np.where(swap, s2, s1)[:, None], np.where(swap, s1, s2)[:, None]
    top, a0 = max(hi, -1 - lo), max(0, lo, -1 - hi)  # the j >= 0 both halves need
    slow = _waves(np.arange(top + 2), np.where(swap, th2, th1))
    t = _t_minus2(th1, th2, a0 + 1, top + 2)
    gs = [np.atleast_1d(np.asarray(v, dtype=complex))[:, None] for v in g.g]

    def half(gm2, gm1, g0, g1, a, b):  # xi_a..xi_b, a0 <= a <= b <= top
        v_m1, v_0 = g0 - s_s * gm1 + gm2, g1 - s_s * g0 + gm1
        return ((s_s * gm1 - gm2) * slow[:, a + 1:b + 2] - gm1 * slow[:, a:b + 1]
                - v_m1 * t[:, a + 1 - a0:b + 2 - a0]
                - (v_0 - s_f * v_m1) * t[:, a - a0:b + 1 - a0])

    parts = []
    with np.errstate(all="ignore"):
        if lo < 0:
            parts.append(half(*gs[::-1], max(0, -1 - hi), -1 - lo)[:, ::-1])
        if hi >= 0:
            parts.append(half(*gs, max(0, lo), hi))
    xi = np.concatenate(parts, axis=1)
    if not np.isfinite(xi).all():
        raise OverflowError(f"closed form leaves the finite doubles in [{lo}, {hi}]")
    if np.ndim(cd.s1) or any(np.ndim(v) for v in g.g):
        return SequenceWindow(lo, tuple(xi.T))
    return SequenceWindow(lo, tuple(xi[0].tolist()))


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
    s = math.copysign(2.0, cd.eta.real) if unit else cd.eta / 2.0
    theta = _principal_theta(np.atleast_1d(complex(s))).item()
    r_plus, r_minus = cmath.exp(1j * theta), cmath.exp(-1j * theta)
    js = list(j_range)
    powers = {"j*r+1^j": (1, r_plus), "j*r-1^j": (1, r_minus)}
    if unit:
        powers.update({"j^2*r+1^j": (2, r_plus), "j^3*r+1^j": (3, r_plus)})
    return {label: _power_residual(p, r, cd, js) for label, (p, r) in powers.items()}
