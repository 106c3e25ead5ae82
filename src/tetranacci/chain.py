"""Spectrum and eigenvectors of the open chain with two hopping ranges.

The Hamiltonian matrix is pentadiagonal symmetric Toeplitz: onsite -mu,
first off-diagonals -t1, second off-diagonals -t2.  Eigenvector entries
obey the four-term recursion with zeta = -(E + mu)/t2, eta = -t1/t2 and
the open-boundary extension xi_0 = xi_{-1} = xi_{N+1} = xi_{N+2} = 0.

The matrix commutes with the mirror j -> N + 1 - j, so `spectrum` runs
`numpy.linalg.eigh`, the package's one eigensolver (the Kitaev sublattice
matrix goes through it too), on the mirror-even and mirror-odd sectors of
`mirror_sectors`, and each mode's parity is the sign of its sector.
Wavevectors are recovered analytically per energy and the transcendental
quantization relation f(k+) = +-f(k-), f(k) = sin(k d (N+2)) / sin(k d),
is used as a residual diagnostic, not as a root finder; f is the standing
wave of `closedform.standing_wave`, whose removable limits need no cut.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .closedform import characterize, standing_wave
from .errors import PreconditionError, ZeroT2Error
from .exactnum import dyadic, tm2_replay
from .recurrence import Coefficients, require_real


@dataclass(frozen=True)
class ChainParams:
    """Chain with onsite energy mu, hoppings t1 (nearest), t2 (next)."""

    mu: float
    t1: float
    t2: float
    n: int
    d: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one site")
        require_real(self.mu, self.t1, self.t2, self.d)


class Arrow(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class EigenMode:
    """One chain eigenvalue with its wavevector and symmetry data; the fields
    of the coefficient map (all but e, lambda_i and vector) are None at
    t2 = 0."""

    e: float
    k1: complex | None
    k2: complex | None
    k_plus: complex | None
    k_minus: complex | None
    s_q: int | None
    lambda_i: int
    arrow: Arrow | None
    quant_residual: float | None
    vector: np.ndarray


@dataclass(frozen=True)
class CrossingRecord:
    """One exactly-degenerate eigenvalue and the parameters producing it."""

    n_idx: int
    l_idx: int
    k_plus: float
    k_minus: float
    eta: float
    zeta: float
    t1_over_t2: float
    e: float


def pentadiagonal(diag, off1: float, off2: float) -> np.ndarray:
    """Real symmetric matrix with main diagonal diag and constant first and
    second off-diagonals off1 and off2."""
    # float, or integer parameters (mu = 0) would truncate the hoppings
    m = np.diag(np.asarray(diag, dtype=float))
    # index assignment, not off * eye: 0 * inf would put nan off the band
    i = np.arange(len(diag) - 1)
    m[i, i + 1] = m[i + 1, i] = off1
    i = i[:-1]
    m[i, i + 2] = m[i + 2, i] = off2
    return m


def build_chain_matrix(p: ChainParams) -> np.ndarray:
    return pentadiagonal(np.full(p.n, -p.mu), -p.t1, -p.t2)


def mirror_sectors(n: int):
    """Orthonormal bases (even, odd), as columns, of the two sectors of the
    mirror j -> N + 1 - j: (e_i + e_{N-1-i}) / sqrt(2) plus the centre site
    when N is odd, and (e_i - e_{N-1-i}) / sqrt(2), for i < N // 2."""
    half = n // 2
    i = np.arange(half)
    even, odd = np.zeros((n, n - half)), np.zeros((n, half))
    even[i, i] = even[n - 1 - i, i] = odd[i, i] = math.sqrt(0.5)
    odd[n - 1 - i, i] = -math.sqrt(0.5)
    if n % 2:
        even[half, half] = 1.0
    return even, odd


def dispersion(k: complex, p: ChainParams) -> complex:
    kd = k * p.d
    return -p.mu - 2.0 * p.t1 * cmath.cos(kd) - 2.0 * p.t2 * cmath.cos(2.0 * kd)


def coeffs_from_energy(e: float, p: ChainParams) -> Coefficients:
    if p.t2 == 0.0:
        raise ZeroT2Error("coefficient map needs t2 != 0")
    zeta, eta = -(e + p.mu) / p.t2, -p.t1 / p.t2
    if not (math.isfinite(zeta) and math.isfinite(eta)):
        raise ZeroT2Error(f"coefficient map overflows at t2 = {p.t2!r}")
    return Coefficients(zeta=zeta, eta=eta)


def wavevectors_from_energy(e: float, p: ChainParams):
    """Recover (k1, k2) for one eigenvalue via the characteristic roots."""
    cd = characterize(coeffs_from_energy(e, p))
    return cd.theta1 / p.d, cd.theta2 / p.d


# residual below which a branch relation holds: the bound every
# non-degenerate mode meets, so below it the relation cannot pick the sign
_BRANCH_TOL = 1e-6


def _branch_residuals(k1: complex, k2: complex, n: int, d: float):
    """Residuals {+1: ..., -1: ...} of f(k+) = +-f(k-), f(k) = sin(k d (N+2)) / sin(k d)."""
    fp = standing_wave(n + 2, (k1 + k2) / 2.0 * d)
    fm = standing_wave(n + 2, (k1 - k2) / 2.0 * d)
    scale = max(abs(fp), abs(fm), 1.0)
    return {+1: abs(fp - fm) / scale, -1: abs(fp + fm) / scale}


def _wave_fields(e: float, lam: int, p: ChainParams) -> dict:
    """The EigenMode fields that come from the coefficient map of one mode."""
    k1, k2 = wavevectors_from_energy(e, p)
    res = _branch_residuals(k1, k2, p.n, p.d)
    # both signs hold at a crossing and where f(k+) = f(k-) = 0 (e.g.
    # k2 = pi at E = -mu, t1 = t2, 3 | N + 2); the parity decides
    s_q = -lam if max(res.values()) < _BRANCH_TOL else min(res, key=res.get)
    # absolute, in Im(k d): theta = arccos(S/2) of an argument
    # rounded just past +-1 picks up an imaginary part, e.g.
    # acos(1 + 2^-52) = 2.1e-8 i, which must stay inside
    inside = (abs(k1.imag) < 1e-7 / p.d) and (abs(k2.imag) < 1e-7 / p.d)
    return dict(k1=k1, k2=k2, k_plus=(k1 + k2) / 2.0, k_minus=(k1 - k2) / 2.0,
                s_q=s_q, arrow=Arrow.INSIDE if inside else Arrow.OUTSIDE,
                quant_residual=float(res[s_q]))


# at t2 = 0 the coefficient map does not exist: the nearest-neighbour chain
# has no four-term recursion, so these fields are None
_NO_WAVE_FIELDS = dict.fromkeys(
    ("k1", "k2", "k_plus", "k_minus", "s_q", "arrow", "quant_residual"))


def spectrum(p: ChainParams):
    """All N modes, sorted by energy, with symmetry and arrow diagnostics;
    each mirror sector is solved on its own, and lambda_i is its sign.
    At t2 = 0 the wavevector, branch and arrow fields are None."""
    h = build_chain_matrix(p)
    modes = []
    for lam, q in zip((1, -1), mirror_sectors(p.n)):
        w, u = np.linalg.eigh(q.T @ h @ q)
        for e, vec in zip(w.tolist(), (q @ u).T):
            fields = _NO_WAVE_FIELDS if p.t2 == 0.0 else _wave_fields(e, lam, p)
            modes.append(EigenMode(e=e, lambda_i=lam, vector=vec, **fields))
    modes.sort(key=lambda m: m.e)
    return modes


def t1_zero_spectrum(p: ChainParams):
    """Exact spectrum of the two decoupled sublattices (t1 = 0 only)."""
    if p.t1 != 0.0:
        raise PreconditionError("exact sublattice spectrum needs t1 = 0")
    n = p.n
    energies = []
    if n % 2 == 0:
        for m in range(1, n // 2 + 1):
            e = -p.mu - 2.0 * p.t2 * math.cos(2.0 * m * math.pi / (n + 2))
            energies.extend([e, e])
    else:
        for m in range(1, (n + 1) // 2 + 1):
            energies.append(-p.mu - 2.0 * p.t2 * math.cos(2.0 * m * math.pi / (n + 3)))
        for m in range(1, (n - 1) // 2 + 1):
            energies.append(-p.mu - 2.0 * p.t2 * math.cos(2.0 * m * math.pi / (n + 1)))
    return sorted(energies)


def crossings(n: int, d: float = 1.0):
    """Enumerate every twofold-degenerate eigenvalue of the N-site chain.

    Records are generated at mu = 0, t2 = 1; eta fixes t1.  Both sign
    families of eta are included, with the eta = 0 double count removed.
    """
    if n < 2:
        raise PreconditionError("crossing enumeration needs n >= 2")
    n_max = (n + 2) // 2 if n % 2 == 0 else (n + 1) // 2
    records = []
    for n_idx in range(2, n_max + 1):
        for l_idx in range(1, n_idx):
            kp = n_idx * math.pi / (n + 2)
            km = l_idx * math.pi / (n + 2)
            records.append(_crossing_record(n_idx, l_idx, kp, km, d))
            # eta <= 0 family; skip when kp = pi/2 maps onto itself
            if not (n % 2 == 0 and n_idx == (n + 2) // 2):
                records.append(_crossing_record(n_idx, l_idx, math.pi - kp, km, d))
    records.sort(key=lambda r: (r.eta, r.e))
    return records


def _crossing_record(n_idx, l_idx, kp, km, d):
    eta = 4.0 * math.cos(kp) * math.cos(km)
    t1_over_t2 = -eta
    k1 = kp + km
    t1, t2 = t1_over_t2, 1.0
    e = -2.0 * t1 * math.cos(k1) - 2.0 * t2 * math.cos(2.0 * k1)
    return CrossingRecord(
        n_idx=n_idx, l_idx=l_idx, k_plus=kp / d, k_minus=km / d,
        eta=eta, zeta=-e, t1_over_t2=t1_over_t2, e=e,
    )


def eigenvector_tetranacci(e: float, p: ChainParams) -> np.ndarray:
    """Closed-form eigenvector amplitudes xi_1..xi_N for a non-degenerate E.

    The combination T_-2(j) T_-2(N+2) - T_-2(N+1) T_-2(j+1) cancels down
    by |r|^(2j) for modes with complex wavevectors, so it is formed exactly
    on the scaled-integer replay y_j = D^(j+2) T_-2(j) (`exactnum`), where
    it reads (y_j y_{N+2} - y_{N+1} y_{j+1}) / (y_{N+2} D^(j+2)), and
    rounded once.
    """
    c = coeffs_from_energy(e, p)
    k, (z, h) = dyadic(c.zeta, c.eta)
    y = tm2_replay(z, h, k, p.n + 2)  # y[j + 2] = D^(j+2) T_-2(j), D = 2^k
    scale = max(abs(y[j + 2] / (1 << k * (j + 2))) for j in range(0, p.n + 3)) or 1.0
    yn2, yn1 = y[p.n + 4], y[p.n + 3]
    if abs(yn2 / (1 << k * (p.n + 4))) <= 1e-10 * scale:
        raise PreconditionError(
            "boundary value vanishes; eigenvalue is (numerically) degenerate")
    if yn2 < 0:  # a positive divisor rounds an exact zero to +0.0
        yn2, yn1 = -yn2, -yn1
    out = np.empty(p.n)
    for j in range(1, p.n + 1):
        out[j - 1] = (y[j + 2] * yn2 - yn1 * y[j + 3]) / (yn2 << k * (j + 2))
    return out


def arrow_classify(zeta: float, eta: float, tol: float = 1e-9) -> Arrow:
    """Classify a (zeta, eta) point against the real-wavevector region.

    Inside requires zeta <= 2 - 2|eta| and, for |eta| <= 4, zeta >=
    -2 - eta^2/4; points within tol of either bounding curve are Boundary.
    """
    upper = 2.0 - 2.0 * abs(eta)
    lower = -2.0 - eta * eta / 4.0
    if abs(zeta - upper) <= tol or (abs(eta) <= 4.0 + tol and abs(zeta - lower) <= tol):
        return Arrow.BOUNDARY
    if zeta < upper and abs(eta) <= 4.0 and zeta > lower:
        return Arrow.INSIDE
    return Arrow.OUTSIDE

