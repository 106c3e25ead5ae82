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
from .exactnum import ExactComplex, basic_sequences
from .recurrence import require_finite


@dataclass(frozen=True)
class LeadParams:
    """Wide-band lead: level broadening gamma >= 0 and level shift lam."""

    gamma: float
    lam: float = 0.0

    def __post_init__(self):
        require_finite(self.gamma, self.lam)
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


def _boundary_solve(e: float, s: TransportSetup, lo: int = -2):
    """Solve the 2x2 boundary system exactly.

    The general solution compatible with sigma_0 = 0 and the left-lead
    condition is sigma_j = g_m2 T_-2(j) + h [t2 T_1(j) + (i gamma_L -
    Lambda_L) T_-1(j)] with g_1 = t2 h; returns (g_m2, h, sigma_of_j, c).
    """
    p = s.chain
    c = coeffs_from_energy(e, p)
    n = p.n
    seqs = basic_sequences(complex(c.zeta), complex(c.eta), min(lo, -2), n + 2)
    t2 = ExactComplex(p.t2)
    w_l = ExactComplex(-s.left.lam, s.left.gamma)
    w_r = ExactComplex(-s.right.lam, s.right.gamma)

    def tm2(j):
        return seqs[-2][j]

    def row(j):
        return t2 * seqs[1][j] + w_l * seqs[-1][j]

    a = tm2(n + 1)
    b = row(n + 1)
    cc = w_r * tm2(n) - t2 * tm2(n + 2)
    d = w_r * row(n) - t2 * row(n + 2)
    det = a * d - b * cc
    if det.is_zero():
        raise SingularBoundaryError(f"boundary system singular at E = {e}")
    g_m2 = (-b).div(det)
    h = a.div(det)

    def sigma(j):
        return (g_m2 * tm2(j) + h * row(j)).to_complex()

    # a pole of the resolvent (decoupled leads at an eigenvalue) shows up
    # as a divergent solution rather than an exactly vanishing determinant
    e_scale = max(abs(e), abs(p.mu), abs(p.t1), abs(p.t2), 1e-300)
    if max(abs(sigma(1)), abs(g_m2.to_complex())) * e_scale > 1e12:
        raise SingularBoundaryError(f"resolvent pole at E = {e}")
    return g_m2, h, sigma, c


def sigma_sequence(e: float, s: TransportSetup, lo: int, hi: int):
    """Extended resolvent-column sequence sigma_lo..sigma_hi."""
    _, _, sigma, _ = _boundary_solve(e, s, lo=min(lo, -2))
    return [sigma(j) for j in range(lo, hi + 1)]


def green_1n_tetranacci(e: float, s: TransportSetup) -> complex:
    """Corner entry G^r_{1N} from the boundary solve.

    sigma_1 reduces to g_1 because the basic polynomials are selective at
    j = 1.
    """
    _, _, sigma, _ = _boundary_solve(e, s)
    return sigma(1)


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
    """T(E) = 4 gamma_L gamma_R |G^r_{1N}|^2."""
    g1n = green_1n_tetranacci(e, s)
    return 4.0 * s.left.gamma * s.right.gamma * abs(g1n) ** 2


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


def current(v_bias: float, beta: float, s: TransportSetup,
            quadrature: float = 1e-9) -> float:
    """Steady-state current in units of e/h.

    beta = math.inf selects the zero-temperature step-function fast path,
    where the integral collapses to the bias window.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive (math.inf for T = 0)")
    if v_bias == 0.0:
        return 0.0
    if math.isinf(beta):
        lo, hi = sorted((0.0, -v_bias))
        sign = 1.0 if v_bias > 0.0 else -1.0
        result = integrate.quad(lambda x: transmission(x, s), lo, hi,
                                epsabs=quadrature, epsrel=quadrature,
                                limit=200, full_output=1)
    else:
        pad = 40.0 / beta
        lo = min(0.0, -v_bias) - pad
        hi = max(0.0, -v_bias) + pad
        result = integrate.quad(
            lambda x: transmission(x, s) * (fermi(x, beta) - fermi(x + v_bias, beta)),
            lo, hi, epsabs=quadrature, epsrel=quadrature,
            limit=200, full_output=1)
        sign = 1.0
    if len(result) > 3:
        raise QuadratureError(f"current integral did not converge: {result[3]}")
    value = result[0]
    return sign * value if math.isinf(beta) else value


def conductance(s: TransportSetup) -> float:
    """Zero-temperature linear conductance T(E=0) in units of e^2/h."""
    return transmission(0.0, s)
