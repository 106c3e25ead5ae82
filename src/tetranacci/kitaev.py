"""Kitaev and XY chains mapped onto the four-term recursion.

In the Majorana sublattice basis the Kitaev chain reduces to a real
symmetric matrix h acting on one sublattice, with h v = E^2 v.  Away from
its two end sites h is the matrix of a two-range chain (`chain`) with
effective hoppings t1_eff = 2 t mu and t2_eff = t^2 - delta^2, and onsite
entry mu^2 + (delta - t)^2 + (delta + t)^2.  So the eigenvector entries
obey the recursion with that chain's coefficient map at the energy E^2:

    zeta = (E^2 - mu^2 - (delta - t)^2 - (delta + t)^2) / (t^2 - delta^2)
    eta  = -2 t mu / (t^2 - delta^2)

The transverse-field XY chain (couplings Jx, Jy, field h) is, after the
Jordan-Wigner transformation, the Kitaev chain at mu = -2 h, t = (Jx +
Jy) / 2 and delta = (Jx - Jy) / 2, so t1_eff = -2 h (Jx + Jy) and t2_eff
= Jx Jy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, coeffs_from_energy, pentadiagonal
from .recurrence import Coefficients, require_real


@dataclass(frozen=True)
class KitaevParams:
    """Chain of n sites with hopping t, p-wave pairing delta, onsite mu."""

    mu: float
    t: float
    delta: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two sites")
        require_real(self.mu, self.t, self.delta)


def kitaev_effective_hoppings(p: KitaevParams):
    """Emergent (nearest, next-nearest) couplings of the sublattice matrix."""
    return 2.0 * p.t * p.mu, p.t * p.t - p.delta * p.delta


def kitaev_effective_coeffs(e, p: KitaevParams) -> Coefficients:
    """(zeta, eta) of the excitation energy E, or of a 1-D array of them:
    `coeffs_from_energy` at E^2 of the chain whose matrix is the bulk of h,
    with onsite energy -(mu^2 + (delta - t)^2 + (delta + t)^2), t1 = -2 t mu
    and t2 = delta^2 - t^2.  Its ZeroT2Error marks the sweet spot t = +-delta
    and a map past the doubles.  Where that onsite energy is itself past the
    doubles, ChainParams raises ValueError; at N >= 3 h is then not finite
    either, and `kitaev_spectrum` refuses it first.
    """
    t1_eff, t2_eff = kitaev_effective_hoppings(p)
    # float products, not **, which raises OverflowError past the doubles
    a, b = p.delta - p.t, p.delta + p.t
    bulk = p.mu * p.mu + a * a + b * b
    chain = ChainParams(mu=-bulk, t1=-t1_eff, t2=-t2_eff, n=p.n)
    with np.errstate(over="ignore"):  # an E^2 past the doubles makes zeta infinite
        e2 = e * e
    return coeffs_from_energy(e2, chain)


def effective_h_matrix(p: KitaevParams) -> np.ndarray:
    """Sublattice matrix h with h v = E^2 v, real symmetric pentadiagonal.

    With a = i(delta - t) and b = i(delta + t) all products entering h are
    real: -a^2 = (delta - t)^2, -b^2 = (delta + t)^2, i mu (a - b) =
    2 t mu, a b = t^2 - delta^2.  The first site misses the -b^2 term of
    the diagonal and the last site the -a^2 term.
    """
    dm, dp = p.delta - p.t, p.delta + p.t
    diag = np.full(p.n, p.mu * p.mu)
    diag[:-1] += dm * dm   # -a^2; a float product is inf past the doubles
    diag[1:] += dp * dp    # -b^2
    return pentadiagonal(diag, *kitaev_effective_hoppings(p))


def kitaev_spectrum(p: KitaevParams):
    """Excitation energies as sorted +-E pairs from the sublattice matrix.

    h = A^T A with A tridiagonal (mu on the diagonal, t - delta below it,
    t + delta above it), so E = |A v| for each eigenvector v of h.  That
    keeps a near-zero E (a Majorana mode) within roundoff of A, where the
    square root of the eigenvalue would carry the square root of the
    roundoff of h, enough to miss the particle-hole spectrum by more than
    1e-8 on long topological chains.
    """
    h = effective_h_matrix(p)
    if not np.isfinite(h).all():
        raise OverflowError("sublattice matrix overflows")
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] < -1e-10 * scale:
        raise ValueError(f"sublattice matrix not PSD: eigenvalue {w[0]}")
    av = p.mu * v
    av[1:] += (p.t - p.delta) * v[:-1]
    av[:-1] += (p.t + p.delta) * v[1:]
    # the sum of squares inside the norm overflows once E passes 1.3e154;
    # scaling each column down by a power of two is exact.  A column whose
    # entries are all below 1 cannot overflow, and is left as it is.
    _, k = np.frexp(np.abs(av).max(axis=0))
    k = np.maximum(k, 0)
    e = np.ldexp(np.linalg.norm(np.ldexp(av, -k), axis=0), k)
    return sorted(np.concatenate([-e, e]).tolist())
