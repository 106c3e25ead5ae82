"""Lead-coupled Green's functions, transmission, current and conductance.

Leads attach only to the first and last site, adding corner self-energies
Lambda_alpha - i gamma_alpha to the chain matrix.  The corner Green's
function entry G^r_{1N} follows from a 2x2 boundary solve over the basic
recursion polynomials; the dense path solves (E - H - Sigma) x = e_N and
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


def green_1n_dense(e: float, s: TransportSetup) -> complex:
    """Corner entry G^r_{1N} from a dense solve of (E - H - Sigma) x = e_N.

    The rows are first scaled by exact powers of two 2^k_i to a largest
    entry in [1/2, 1): a row of a lead-decoupled site holding only a
    subnormal E - mu (E = 1e-313, say) would make the solver's reciprocal
    pivot overflow, and inf * 0 turn the solution into nan.  The scaled
    system is solved for 2^-k_N x, so only x_1 is scaled back.
    """
    p = s.chain
    a = e * np.eye(p.n, dtype=complex) - build_chain_matrix(p)
    a[0, 0] -= s.left.self_energy
    a[-1, -1] -= s.right.self_energy
    k = -np.frexp(np.abs(a).max(axis=1))[1]
    a.real = np.ldexp(a.real, k[:, None])
    a.imag = np.ldexp(a.imag, k[:, None])
    rhs = np.zeros(p.n, dtype=complex)
    rhs[-1] = 1.0
    x1 = np.linalg.solve(a, rhs)[0]
    return complex(math.ldexp(x1.real, int(k[-1])), math.ldexp(x1.imag, int(k[-1])))


def transmission_dense(e: float, s: TransportSetup) -> float:
    """Trace formula Tr{Gamma_L G^r Gamma_R G^a} from `green_1n_dense`.

    With Gamma_L = 2 gamma_L e_1 e_1^T and Gamma_R = w w^T, w = sqrt(2
    gamma_R) e_N, the trace is 2 gamma_L |(G^r w)_1|^2 = 4 gamma_L gamma_R
    |G^r_{1N}|^2.
    """
    return 4.0 * s.left.gamma * s.right.gamma * abs(green_1n_dense(e, s)) ** 2


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
