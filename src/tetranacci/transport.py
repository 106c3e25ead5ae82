"""Lead-coupled Green's functions, transmission, current and conductance.

Leads attach only to the first and last site, adding corner self-energies
Lambda_alpha - i gamma_alpha to the chain matrix.  The corner Green's
function entry G^r_{1N} follows from a 2x2 boundary solve over the basic
recursion polynomials; the dense path inverts E - H - Sigma outright and
serves as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .chain import ChainParams, build_chain_matrix, coeffs_from_energy
from .errors import QuadratureError, SingularBoundaryError
from .exactnum import dyadic, gaussian_divider, tm2_replay
from .recurrence import require_real


@dataclass(frozen=True)
class LeadParams:
    """Wide-band lead: level broadening gamma >= 0 and level shift lam."""

    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        require_real(self.gamma, self.lam)
        if self.gamma < 0.0:
            raise ValueError("broadening must be non-negative")

    @property
    def self_energy(self) -> complex:
        return self.lam - 1j * self.gamma


@dataclass(frozen=True)
class TransportSetup:
    chain: ChainParams
    left: LeadParams
    right: LeadParams


def _gmul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _boundary_solve(e: float, s: TransportSetup, reach: int = 1):
    """Solve the 2x2 boundary system exactly.

    The general solution compatible with sigma_0 = 0 and the left-lead
    condition is sigma_j = g_m2 T_-2(j) + h row(j), row(j) = t2 T_1(j) +
    w_L T_-1(j), w_L = i gamma_L - Lambda_L, with g_1 = t2 h.  The
    reduction identities give row(j) = -t2 T_-2(j+1) + w_L (T_-2(j-1) -
    eta T_-2(j)), so one scaled-integer replay of T_-2 (`exactnum`) carries
    the solve: with D = 2^k the common denominator of all inputs, each
    T_-2(i) with |i| <= top is tau(i) / D^(top+2) for an int tau(i), and
    a, b, c, d and det are Gaussian integers over known powers of D.  As
    T_-2(1) = 0 and row(1) = t2, G_1N = sigma_1 = t2 a / det.

    Returns (G_1N, sigma) where sigma(j) is sigma_j for |j| <= reach.
    """
    p = s.chain
    c = coeffs_from_energy(e, p)
    n = p.n
    k, (z, eta, t2, *w) = dyadic(c.zeta, c.eta, p.t2, -s.left.lam, s.left.gamma,
                                 -s.right.lam, s.right.gamma)
    w_l, w_r = tuple(w[:2]), tuple(w[2:])
    top = max(n + 3, reach + 1)
    y = tm2_replay(z, eta, k, top)

    def tau(i):  # D^(top+2) T_-2(i); negative i by the odd symmetry
        v = y[abs(i) + 2] << k * (top - abs(i))
        return v if i >= 0 else -v

    def row(j):  # D^(top+4) row(j)
        u = (tau(j - 1) << k) - eta * tau(j)
        return ((-t2 * tau(j + 1)) << k) + w_l[0] * u, w_l[1] * u

    a = tau(n + 1)  # D^(top+2) a
    b = row(n + 1)  # D^(top+4) b
    tn = tau(n)
    cc = w_r[0] * tn - t2 * tau(n + 2), w_r[1] * tn  # D^(top+3) c
    rn, rn2 = _gmul(w_r, row(n)), row(n + 2)
    d = rn[0] - t2 * rn2[0], rn[1] - t2 * rn2[1]  # D^(top+5) d
    bc = _gmul(b, cc)
    det = a * d[0] - bc[0], a * d[1] - bc[1]  # D^(2 top+7) det
    if det == (0, 0):
        raise SingularBoundaryError(f"boundary system singular at E = {e}")
    over_det = gaussian_divider(det)
    # a pole of the resolvent (decoupled leads at an eigenvalue) shows up
    # as a divergent solution rather than an exactly vanishing determinant,
    # at worst one too large for a double
    try:
        g_1n = over_det((t2 * a, 0), k * (top + 4))
        g_m2 = over_det((-b[0], -b[1]), k * (top + 3))
    except OverflowError:
        raise SingularBoundaryError(f"resolvent pole at E = {e}") from None
    e_scale = max(abs(e), abs(p.mu), abs(p.t1), abs(p.t2), 1e-300)
    if max(abs(g_1n), abs(g_m2)) * e_scale > 1e12:
        raise SingularBoundaryError(f"resolvent pole at E = {e}")

    def sigma(j):  # D (a row(j) - b T_-2(j)) / det in the scaled ints
        r, tj = row(j), tau(j)
        return over_det((a * r[0] - b[0] * tj, a * r[1] - b[1] * tj), k)

    return g_1n, sigma


def sigma_sequence(e: float, s: TransportSetup, lo: int, hi: int):
    """Extended resolvent-column sequence sigma_lo..sigma_hi."""
    _, sigma = _boundary_solve(e, s, reach=max(abs(lo), abs(hi)))
    return [sigma(j) for j in range(lo, hi + 1)]


def green_1n_tetranacci(e: float, s: TransportSetup) -> complex:
    """Corner entry G^r_{1N} = sigma_1 from the boundary solve."""
    return _boundary_solve(e, s)[0]


def _dense_inverse_matrix(e: float, s: TransportSetup) -> np.ndarray:
    p = s.chain
    a = e * np.eye(p.n, dtype=complex) - build_chain_matrix(p)
    a[0, 0] -= s.left.self_energy
    a[-1, -1] -= s.right.self_energy
    return a


def green_1n_dense(e: float, s: TransportSetup) -> complex:
    a = _dense_inverse_matrix(e, s)
    rhs = np.zeros(s.chain.n, dtype=complex)
    rhs[-1] = 1.0
    return complex(np.linalg.solve(a, rhs)[0])


def transmission_dense(e: float, s: TransportSetup) -> float:
    """Full trace formula Tr{Gamma_L G^r Gamma_R G^a} via dense inversion."""
    g = np.linalg.inv(_dense_inverse_matrix(e, s))
    gamma_l = np.zeros_like(g)
    gamma_r = np.zeros_like(g)
    gamma_l[0, 0] = 2.0 * s.left.gamma
    gamma_r[-1, -1] = 2.0 * s.right.gamma
    return float(np.trace(gamma_l @ g @ gamma_r @ g.conj().T).real)


def transmission(e: float, s: TransportSetup) -> float:
    """T(E) = 4 gamma_L gamma_R |G^r_{1N}|^2.

    With a lead decoupled (gamma = 0) T vanishes identically, so no
    boundary solve is made: at an eigenvalue of the chain it would be
    singular.
    """
    coupling = 4.0 * s.left.gamma * s.right.gamma
    if coupling == 0.0:
        return 0.0
    return coupling * abs(green_1n_tetranacci(e, s)) ** 2


def fermi(e: float, beta: float) -> float:
    if math.isinf(beta):
        if e < 0.0:
            return 1.0
        return 0.5 if e == 0.0 else 0.0
    x = beta * e
    if x > 700.0:
        return 0.0
    if x < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


# absolute and relative tolerance of the adaptive quadrature in `current`
_QUAD_TOL = 1e-9


def current(v_bias: float, beta: float, s: TransportSetup) -> float:
    """Steady-state current in units of e/h.

    One adaptive quadrature of T(E) (f(E) - f(E + V)) over the bias window
    padded by 40 / beta.  At beta = math.inf (T = 0) the pad is zero and
    the Fermi difference is exactly +1 or -1 at every interior node, so
    the integral is the signed integral of T over the bias window.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive (math.inf for T = 0)")
    if v_bias == 0.0:
        return 0.0
    pad = 40.0 / beta  # 0.0 at beta = inf
    result = integrate.quad(
        lambda x: transmission(x, s) * (fermi(x, beta) - fermi(x + v_bias, beta)),
        min(0.0, -v_bias) - pad, max(0.0, -v_bias) + pad,
        epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200, full_output=1)
    if len(result) > 3:
        raise QuadratureError(f"current integral did not converge: {result[3]}")
    return result[0]


def conductance(s: TransportSetup) -> float:
    """Zero-temperature linear conductance T(E=0) in units of e^2/h."""
    return transmission(0.0, s)
