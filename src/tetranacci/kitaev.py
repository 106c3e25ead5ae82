"""Kitaev and XY chains mapped onto the four-term recursion.

In the Majorana sublattice basis the Kitaev chain reduces to a real
symmetric matrix h acting on one sublattice, with h v = E^2 v.  The
eigenvector entries obey the recursion with effective coefficients

    zeta = (E^2 - mu^2 - 2 t^2 - 2 delta^2) / (t^2 - delta^2)
    eta  = -2 t mu / (t^2 - delta^2)

i.e. effective hoppings t1_eff = 2 t mu and t2_eff = t^2 - delta^2.

The transverse-field XY chain (couplings Jx, Jy, field h) is, after the
Jordan-Wigner transformation, the Kitaev chain at mu = -2 h, t = (Jx +
Jy) / 2 and delta = (Jx - Jy) / 2, so t1_eff = -2 h (Jx + Jy) and t2_eff
= Jx Jy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import pentadiagonal
from .errors import ZeroT2Error
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


def kitaev_effective_coeffs(e: float, p: KitaevParams) -> Coefficients:
    t2_eff = p.t * p.t - p.delta * p.delta
    if t2_eff == 0.0:
        raise ZeroT2Error("effective map needs t^2 != delta^2")
    zeta = (e * e - p.mu * p.mu - 2.0 * p.t * p.t - 2.0 * p.delta * p.delta) / t2_eff
    eta = -2.0 * p.t * p.mu / t2_eff
    if not (math.isfinite(zeta) and math.isfinite(eta)):
        raise ZeroT2Error(f"effective map overflows at t^2 - delta^2 = {t2_eff!r}")
    return Coefficients(zeta=zeta, eta=eta)


def effective_h_matrix(p: KitaevParams) -> np.ndarray:
    """Sublattice matrix h with h v = E^2 v, real symmetric pentadiagonal.

    With a = i(delta - t) and b = i(delta + t) all products entering h are
    real: -a^2 = (delta - t)^2, -b^2 = (delta + t)^2, i mu (a - b) =
    2 t mu, a b = t^2 - delta^2.  The first site misses the -b^2 term of
    the diagonal and the last site the -a^2 term.
    """
    diag = np.full(p.n, p.mu * p.mu)
    diag[:-1] += (p.delta - p.t) ** 2   # -a^2
    diag[1:] += (p.delta + p.t) ** 2    # -b^2
    return pentadiagonal(diag, *kitaev_effective_hoppings(p))


def bdg_matrix(p: KitaevParams) -> np.ndarray:
    """Particle-hole (2N x 2N) single-particle matrix of the Kitaev chain."""
    n = p.n
    h0 = np.zeros((n, n))
    np.fill_diagonal(h0, -p.mu)
    for j in range(n - 1):
        h0[j, j + 1] = h0[j + 1, j] = -p.t
    d = np.zeros((n, n))
    for j in range(n - 1):
        d[j + 1, j] = p.delta
        d[j, j + 1] = -p.delta
    top = np.hstack([h0, d])
    bottom = np.hstack([-d, -h0])
    return np.vstack([top, bottom])


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
    e = np.linalg.norm(av, axis=0)
    return sorted(np.concatenate([-e, e]).tolist())


def bdg_spectrum(p: KitaevParams):
    """Excitation energies from the full particle-hole matrix (oracle)."""
    return [float(x) for x in np.linalg.eigvalsh(bdg_matrix(p))]
