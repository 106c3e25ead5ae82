"""Closed forms built from the two-term (Binet-like) building blocks.

The characteristic substitution S = r + 1/r reduces the four-term recursion
to S^2 - eta*S - (zeta + 2) = 0 with roots S_1, S_2.  Each S_l carries a
two-term sequence phi_l with phi_l(0)=0, phi_l(1)=1.  The basic polynomial
T_-2 (the 1 at index -2) has one closed form in phi_1, phi_2 per root
class, with j-weighted variants when the roots degenerate:

  * distinct:        S_1 != S_2
  * degenerate_s:    S_1 == S_2, S_1^2 != 4
  * degenerate_unit: S_1 == S_2, S_1^2 == 4

Every other basic polynomial, and so every sequence, follows from T_-2 by
the reduction identities T_-1(j) = T_-2(j-1) - eta T_-2(j),
T_0(j) = eta T_-2(j+1) - T_-2(j+2) and T_1(j) = -T_-2(j+1).
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .recurrence import Coefficients, InitialValues


class RootClass(enum.Enum):
    DISTINCT = "distinct"
    DEGENERATE_S = "degenerate_s"
    DEGENERATE_UNIT = "degenerate_unit"


@dataclass(frozen=True)
class CharacteristicData:
    """Roots and degeneracy classification for one coefficient pair."""

    zeta: complex
    eta: complex
    s1: complex
    s2: complex
    r_plus_1: complex
    r_minus_1: complex
    r_plus_2: complex
    r_minus_2: complex
    theta1: complex
    theta2: complex
    root_class: RootClass
    unit_flags: tuple  # (S_1 == +-2, S_2 == +-2)

    def s(self, l: int) -> complex:
        return self.s1 if l == 1 else self.s2

    def r_pair(self, l: int):
        if l == 1:
            return self.r_plus_1, self.r_minus_1
        return self.r_plus_2, self.r_minus_2


def _principal_theta(s: complex) -> complex:
    """arccos(S/2) with Re in [0, pi], preferring Im >= 0 when cos allows."""
    th = cmath.acos(complex(s) / 2.0)
    if th.imag < 0.0:
        if abs(th.real) < 1e-15:
            th = -th
        elif abs(th.real - cmath.pi) < 1e-15:
            th = 2.0 * cmath.pi - th
    return th


# below this, S_1 and S_2 (relative to max(1, |S|)), or S^2 and 4, count as equal
_EPS_CLASS = 1e-8


def characterize(c: Coefficients) -> CharacteristicData:
    """Compute S_{1,2}, r_{+-l}, theta_l and assign the degeneracy class."""
    disc_sq = c.eta * c.eta + 4.0 * (c.zeta + 2.0)
    disc = cmath.sqrt(disc_sq)
    s1 = (c.eta + disc) / 2.0
    s2 = (c.eta - disc) / 2.0
    scale = max(1.0, abs(s1), abs(s2))
    # |S1 - S2| = sqrt(disc_sq) amplifies the floating noise of a vanishing
    # discriminant to ~1e-8, so the discriminant is tested directly as well
    # to catch points sitting on the locus zeta = -2 - eta^2/4
    disc_scale = max(1.0, abs(c.eta) ** 2, 4.0 * abs(c.zeta + 2.0))
    degenerate = (abs(s1 - s2) <= _EPS_CLASS * scale
                  or abs(disc_sq) <= _EPS_CLASS * disc_scale)
    if degenerate:
        s1 = s2 = c.eta / 2.0
        if abs(s1 * s1 - 4.0) <= _EPS_CLASS:
            root_class = RootClass.DEGENERATE_UNIT
            s1 = s2 = 2.0 if s1.real >= 0 else -2.0
        else:
            root_class = RootClass.DEGENERATE_S
    else:
        root_class = RootClass.DISTINCT
    unit_flags = tuple(abs(s * s - 4.0) <= _EPS_CLASS for s in (s1, s2))

    def roots(s, unit):
        if unit:
            r = 1.0 if s.real >= 0 else -1.0
            return complex(r), complex(r)
        q = cmath.sqrt(s * s - 4.0)
        return (s + q) / 2.0, (s - q) / 2.0

    rp1, rm1 = roots(complex(s1), unit_flags[0])
    rp2, rm2 = roots(complex(s2), unit_flags[1])
    return CharacteristicData(
        zeta=c.zeta, eta=c.eta, s1=complex(s1), s2=complex(s2),
        r_plus_1=rp1, r_minus_1=rm1, r_plus_2=rp2, r_minus_2=rm2,
        theta1=_principal_theta(s1), theta2=_principal_theta(s2),
        root_class=root_class, unit_flags=unit_flags,
    )


def phi(l: int, j: int, cd: CharacteristicData) -> complex:
    """Two-term sequence phi_l(j): Binet form, or j*(S/2)^(j+1) at S = +-2."""
    if l not in (1, 2):
        raise ValueError("l must be 1 or 2")
    s = cd.s(l)
    if cd.unit_flags[l - 1]:
        half = 1.0 if s.real >= 0 else -1.0
        return j * half ** ((j + 1) % 2)
    rp, rm = cd.r_pair(l)
    return (rp ** j - rm ** j) / (rp - rm)


def t_minus2(j: int, cd: CharacteristicData) -> complex:
    """Closed form of the basic polynomial with the 1 at index -2."""
    if cd.root_class is RootClass.DISTINCT:
        return (phi(2, j, cd) - phi(1, j, cd)) / (cd.s1 - cd.s2)
    if cd.root_class is RootClass.DEGENERATE_S:
        num = (1 - j) * phi(1, j + 1, cd) + (1 + j) * phi(1, j - 1, cd)
        return num / (cd.s1 * cd.s1 - 4.0)
    return cd.s1 * (1 - j * j) * phi(1, j, cd) / 12.0


def xi_closed(g: InitialValues, j: int, cd: CharacteristicData) -> complex:
    """Closed-form sequence value from generic initial data: sum_i g_i T_i(j)
    with every T_i reduced to T_-2."""
    gm2, gm1, g0, g1 = g.g
    return (gm1 * t_minus2(j - 1, cd) + (gm2 - cd.eta * gm1) * t_minus2(j, cd)
            + (cd.eta * g0 - g1) * t_minus2(j + 1, cd) - g0 * t_minus2(j + 2, cd))


def plane_wave_coeffs(g: InitialValues, cd: CharacteristicData):
    """Weights (A, B, C, D) of r_{+1}^j, r_{-1}^j, r_{+2}^j, r_{-2}^j.

    Only valid when all four characteristic roots are distinct, i.e. the
    class is distinct and neither S_l equals +-2.
    """
    if cd.root_class is not RootClass.DISTINCT or any(cd.unit_flags):
        raise PreconditionError(
            "plane-wave decomposition needs four distinct roots")
    roots = [cd.r_plus_1, cd.r_minus_1, cd.r_plus_2, cd.r_minus_2]
    a = np.array([[r ** i for r in roots] for i in (-2, -1, 0, 1)], dtype=complex)
    x = np.linalg.solve(a, np.array(g.g, dtype=complex))
    return tuple(x)


def _power_residual(p: int, root: complex, cd: CharacteristicData, j_range) -> float:
    """Max recursion residual of j^p * root^j over j_range, scale-relative."""
    js = list(j_range)
    lo, hi = min(js), max(js)
    vals = {j: (j ** p) * root ** j for j in range(lo - 2, hi + 3)}
    scale = max(abs(v) for v in vals.values()) or 1.0
    worst = 0.0
    for j in js:
        res = abs(vals[j + 2] - (cd.zeta * vals[j] - vals[j - 2]
                                 + cd.eta * (vals[j + 1] + vals[j - 1])))
        worst = max(worst, res / scale)
    return worst


def appendix_a_solutions(cd: CharacteristicData, j_range) -> dict:
    """Residuals of the extra degenerate-class solutions j^p r^j.

    Returns a map from candidate label to max recursion residual (relative
    to the candidate's max magnitude over the range).
    """
    if cd.root_class is RootClass.DISTINCT:
        raise PreconditionError("extra solutions exist only for degenerate roots")
    js = list(j_range)
    out = {
        "j*r+1^j": _power_residual(1, cd.r_plus_1, cd, js),
        "j*r-1^j": _power_residual(1, cd.r_minus_1, cd, js),
    }
    if cd.root_class is RootClass.DEGENERATE_UNIT:
        out["j^2*r+1^j"] = _power_residual(2, cd.r_plus_1, cd, js)
        out["j^3*r+1^j"] = _power_residual(3, cd.r_plus_1, cd, js)
    return out

