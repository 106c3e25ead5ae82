"""Kitaev and XY chains mapped onto the four-term recursion.

In the Majorana basis the Kitaev chain's particle-hole matrix couples the
two sublattices through one real matrix A, tridiagonal with mu on the
diagonal, t - delta below it and t + delta above it, so the excitation
energies E are the singular values of A (`kitaev_spectrum`).  The map onto
the four-term recursion comes from h = A^T A, acting on one sublattice with
h v = E^2 v; it is the derivation only, and no code forms it.  Away from
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

from .chain import ChainParams, coeffs_from_energy
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


def kitaev_effective_coeffs(e, p: KitaevParams) -> Coefficients:
    """(zeta, eta) of the excitation energy E, or of a 1-D array of them:
    `coeffs_from_energy` at E^2 of the chain whose matrix is the bulk of h,
    with onsite energy -(mu^2 + (delta - t)^2 + (delta + t)^2), t1 = -2 t mu
    and t2 = delta^2 - t^2.  ZeroT2Error is raised where that chain has no
    coefficient map (t2 = 0, at the sweet spot t = +-delta, or zeta or eta
    past the doubles), and where its entries are past the doubles, though A
    and E may still be doubles (mu = 1e160, say).
    """
    t1_eff, t2_eff = kitaev_effective_hoppings(p)
    # float products, not **, which raises OverflowError past the doubles
    a, b = p.delta - p.t, p.delta + p.t
    bulk = p.mu * p.mu + a * a + b * b
    try:
        chain = ChainParams(mu=-bulk, t1=-t1_eff, t2=-t2_eff, n=p.n)
    except ValueError:  # an entry past the doubles: no map, as at t2 = 0
        raise ZeroT2Error("effective chain's entries leave the doubles") from None
    with np.errstate(over="ignore"):  # an E^2 past the doubles makes zeta infinite
        e2 = e * e
    return coeffs_from_energy(e2, chain)


def kitaev_spectrum(p: KitaevParams):
    """Excitation energies as sorted +-E pairs: E are the singular values
    of the Majorana matrix A, tridiagonal with mu on the diagonal, t - delta
    below it and t + delta above it.

    h = A^T A is never formed: its eigenvalues E^2 square the roundoff of
    a near-zero E (a Majorana mode), and its entries leave the doubles
    where A and E do not (G. Golub and W. Kahan, SIAM J. Numer. Anal. B 2
    (1965) 205).  OverflowError is raised where A or an E is past the
    doubles.
    """
    a = np.diag(np.full(p.n, float(p.mu)))
    i = np.arange(p.n - 1)
    a[i + 1, i] = p.t - p.delta
    a[i, i + 1] = p.t + p.delta
    if not np.isfinite(a).all():
        raise OverflowError("Majorana matrix A overflows")
    e = np.linalg.svd(a, compute_uv=False)
    if not np.isfinite(e).all():
        raise OverflowError("excitation energy E overflows")
    return sorted(np.concatenate([-e, e]).tolist())
