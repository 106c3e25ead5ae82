"""Spectrum and eigenvectors of the open chain with two hopping ranges.

The Hamiltonian matrix is pentadiagonal symmetric Toeplitz: onsite -mu,
first off-diagonals -t1, second off-diagonals -t2.  Eigenvector entries
obey the four-term recursion with zeta = -(E + mu)/t2, eta = -t1/t2 and
the open-boundary extension xi_0 = xi_{-1} = xi_{N+1} = xi_{N+2} = 0.

The matrix commutes with the mirror j -> N + 1 - j, so `spectrum` runs
`numpy.linalg.eigh`, the chain's eigensolver, on the mirror-even and
mirror-odd sectors of `mirror_sectors`, and each mode's parity is the sign
of its sector.  The Kitaev chain does not go through it: its energies are
singular values (`kitaev.kitaev_spectrum`).  Wavevectors, in units of the
inverse lattice constant, are recovered analytically per energy and the
transcendental quantization relation f(k+) = +-f(k-), f(k) = sin(k (N+2))
/ sin k, is used as a residual diagnostic, not as a root finder; f is the
standing wave of `closedform.standing_wave`, whose removable limits need
no cut.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .closedform import characterize, standing_wave
from .errors import PreconditionError, ZeroT2Error
from .exactnum import tm2_ints
from .recurrence import Coefficients, all_finite, require_real


@dataclass(frozen=True)
class ChainParams:
    """Chain with onsite energy mu, hoppings t1 (nearest), t2 (next)."""

    mu: float
    t1: float
    t2: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one site")
        require_real(self.mu, self.t1, self.t2)


class Arrow(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class EigenMode:
    """One chain eigenvalue with its wavevector and symmetry data; the fields
    of the coefficient map (all but e, lambda_i and vector) are None at
    t2 = 0, except k1, the nearest-neighbour chain's wavevector where t1 !=
    0.  arrow is `arrow_classify` of the mode's (zeta, eta), so a mode
    within its tolerance of a bounding curve is BOUNDARY."""

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
    return -p.mu - 2.0 * p.t1 * cmath.cos(k) - 2.0 * p.t2 * cmath.cos(2.0 * k)


def coeffs_from_energy(e, p: ChainParams) -> Coefficients:
    """(zeta, eta) = (-(E + mu) / t2, -t1 / t2) for one energy E, or for a
    1-D array of them, giving a batch.  ZeroT2Error is raised at t2 = 0 and
    where zeta or eta leaves the doubles, quietly for a batch too."""
    if p.t2 == 0.0:
        raise ZeroT2Error("coefficient map needs t2 != 0")
    with np.errstate(over="ignore"):  # a batch overflows quietly, as a float does
        zeta, eta = -(e + p.mu) / p.t2, -p.t1 / p.t2
    if not (all_finite(zeta) and math.isfinite(eta)):
        raise ZeroT2Error(f"coefficient map overflows at t2 = {p.t2!r}")
    return Coefficients(zeta=zeta, eta=eta)


# residual below which a branch relation holds: the bound every
# non-degenerate mode meets, so below it the relation cannot pick the sign
_BRANCH_TOL = 1e-6


def _branch_residuals(k1, k2, n: int):
    """Residuals {+1: ..., -1: ...} of f(k+) = +-f(k-), f(k) = sin(k (N+2)) / sin k,
    for one pair (k1, k2) or entry by entry for arrays of them.

    |f(k+) -+ f(k-)| / max(|f(k+)|, |f(k-)|, 1) uses only the ratio of the
    two waves, and sin(k (N+2)) leaves the doubles once (N+2) |Im k| > 709
    (N ~ 800 for a mode with |Im k| ~ 0.9).  So both waves and the 1 carry
    e^(-c), c = (N+2) max |Im k+-|, which leaves the residual unchanged.
    """
    xp, xm = (k1 + k2) / 2.0, (k1 - k2) / 2.0
    c = (n + 2) * np.maximum(np.abs(np.imag(xp)), np.abs(np.imag(xm)))
    fp, fm = standing_wave(n + 2, xp, c), standing_wave(n + 2, xm, c)
    scale = np.maximum(np.maximum(np.abs(fp), np.abs(fm)), np.exp(-c))
    return {+1: np.abs(fp - fm) / scale, -1: np.abs(fp + fm) / scale}


# the EigenMode fields that come from the coefficient map; at t2 = 0 it does
# not exist (the nearest-neighbour chain has no four-term recursion), and
# they are None but for k1
_WAVE_FIELDS = ("k1", "k2", "k_plus", "k_minus", "s_q", "arrow", "quant_residual")


def _nearest_neighbour_fields(w: np.ndarray, p: ChainParams) -> list:
    """The wave fields of each mode at t2 = 0: k1 is the k in [0, pi] of E
    = -mu - 2 t1 cos k (`dispersion` at t2 = 0), its cosine clipped into
    [-1, 1] against rounding, and the others are None.  At t1 = 0 the chain
    is diagonal and k1 is None too."""
    if p.t1 == 0.0:
        k1 = [None] * len(w)
    else:
        # halves, as w + mu can pass the doubles; a tiny t1 can give +-inf,
        # which the clip takes to +-1
        with np.errstate(over="ignore"):
            cos_k = -(0.5 * w + 0.5 * p.mu) / p.t1
        k1 = np.arccos(np.clip(cos_k, -1.0, 1.0)).astype(complex).tolist()
    return [dict(dict.fromkeys(_WAVE_FIELDS), k1=k) for k in k1]


def _wave_fields(w: np.ndarray, lam: int, p: ChainParams) -> list:
    """The coefficient-map fields of each mode of the sector of sign lam,
    one dict per eigenvalue in w."""
    c = coeffs_from_energy(w, p)
    cd = characterize(c)
    k1, k2 = cd.theta1, cd.theta2
    res = _branch_residuals(k1, k2, p.n)
    # both signs hold at a crossing and where f(k+) = f(k-) = 0 (e.g.
    # k2 = pi at E = -mu, t1 = t2, 3 | N + 2); the parity decides, and
    # otherwise the smaller residual, +1 on a tie
    s_q = np.where(np.maximum(res[1], res[-1]) < _BRANCH_TOL, -lam,
                   np.where(res[-1] < res[1], -1, 1))
    columns = (k1, k2, (k1 + k2) / 2.0, (k1 - k2) / 2.0, s_q,
               arrow_classify(c.zeta, c.eta), np.where(s_q == 1, res[1], res[-1]))
    return [dict(zip(_WAVE_FIELDS, mode)) for mode in zip(*(col.tolist() for col in columns))]


def spectrum(p: ChainParams):
    """All N modes, sorted by energy, with symmetry and arrow diagnostics;
    each mirror sector is solved on its own, and lambda_i is its sign.
    The wavevector, branch and arrow fields of a sector's modes come from
    one batch of its eigenvalues (`coeffs_from_energy`, `characterize`, one
    `standing_wave` call per branch sign and `arrow_classify`); at t2 = 0
    they are None, but for the nearest-neighbour chain's k1.
    OverflowError is raised where a sector matrix or an eigenvalue leaves
    the doubles (entries near 1e308)."""
    h = build_chain_matrix(p)
    modes = []
    for lam, q in zip((1, -1), mirror_sectors(p.n)):
        with np.errstate(over="ignore", invalid="ignore"):
            sector = q.T @ h @ q
        if not np.isfinite(sector).all():
            raise OverflowError("chain eigenproblem overflows: sector matrix not finite")
        w, u = np.linalg.eigh(sector)
        if not np.isfinite(w).all():
            raise OverflowError("chain eigenproblem overflows: eigenvalue not finite")
        fields = (_nearest_neighbour_fields(w, p) if p.t2 == 0.0
                  else _wave_fields(w, lam, p))
        for e, vec, f in zip(w.tolist(), (q @ u).T, fields):
            modes.append(EigenMode(e=e, lambda_i=lam, vector=vec, **f))
    modes.sort(key=lambda m: m.e)
    return modes


def crossings(n: int):
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
            records.append(_crossing_record(n, n_idx, l_idx, kp, km))
            # eta <= 0 family; skip when kp = pi/2 maps onto itself
            if not (n % 2 == 0 and n_idx == (n + 2) // 2):
                records.append(_crossing_record(n, n_idx, l_idx, math.pi - kp, km))
    records.sort(key=lambda r: (r.eta, r.e))
    return records


def _crossing_record(n, n_idx, l_idx, kp, km):
    eta = 4.0 * math.cos(kp) * math.cos(km)
    e = dispersion(kp + km, ChainParams(mu=0.0, t1=-eta, t2=1.0, n=n)).real
    return CrossingRecord(
        n_idx=n_idx, l_idx=l_idx, k_plus=kp, k_minus=km,
        eta=eta, zeta=-e, t1_over_t2=-eta, e=e,
    )


def eigenvector_tetranacci(e: float, p: ChainParams) -> np.ndarray:
    """Closed-form eigenvector amplitudes xi_1..xi_N for a non-degenerate E.

    xi_j = X_j / T_-2(N+2) with X_j = T_-2(N+2) T_-2(j) - T_-2(N+1) T_-2(j+1),
    which cancels down by |r|^(2j) for modes with complex wavevectors.  X
    solves the recursion itself, from X_-2..X_1 = (T_-2(N+2), 0, 0,
    T_-2(N+1)) as T_-2(2) = -1, so it is replayed exactly (`exactnum.tm2_ints`)
    from the ints tau(i) = D^(N+4) T_-2(i) in place of T_-2(i), and each
    quotient is rounded once.  PreconditionError is raised where |tau(N+2)|
    <= 1e-10 max_{0 <= j <= N+2} |tau(j)|, compared as ints: no value has to
    fit a double.
    """
    c = coeffs_from_energy(e, p)
    top = p.n + 2
    k, _, tau, replay = tm2_ints(c.zeta, c.eta, top)
    taus = [tau(j) for j in range(top + 1)]
    tn2, tn1 = taus[top], taus[top - 1]
    if abs(tn2) * 10 ** 10 <= max(map(abs, taus)):
        raise PreconditionError("boundary value vanishes; eigenvalue is (numerically) degenerate")
    if tn2 < 0:  # a positive divisor rounds an exact zero to +0.0
        tn2, tn1 = -tn2, -tn1
    x = replay(p.n, (tn2, 0, 0, tn1 << 3 * k))  # x[j + 2] = D^(j+2) X_j
    return np.array([x[j + 2] / (tn2 << k * (j + 2)) for j in range(1, p.n + 1)])


# distance from a bounding curve of the arrow below which a point is
# BOUNDARY: a point computed to lie on a curve lands a few ulps of zeta off
# it, under 1e-15 near the tip (2, 0) and 1e-10 at |zeta| ~ 1e6, and 1e-9
# takes it in; it only labels, no value is computed from it
_ARROW_TOL = 1e-9


def arrow_classify(zeta, eta):
    """Classify a (zeta, eta) point against the arrow, the region where
    both wavevectors are real; zeta and eta may be arrays, classified
    entry by entry into an array of Arrow.

    Inside requires zeta <= 2 - 2|eta| and, for |eta| <= 4, zeta >=
    -2 - eta^2/4; points within _ARROW_TOL of either bounding curve are
    Boundary.  A curve past the doubles (|eta| near 1e308) is infinitely
    far away.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        upper = 2.0 - 2.0 * np.abs(eta)
        lower = -2.0 - eta * eta / 4.0
        boundary = (np.abs(zeta - upper) <= _ARROW_TOL) \
            | ((np.abs(eta) <= 4.0 + _ARROW_TOL) & (np.abs(zeta - lower) <= _ARROW_TOL))
        inside = (zeta < upper) & (np.abs(eta) <= 4.0) & (zeta > lower)
    return np.where(boundary, Arrow.BOUNDARY,
                    np.where(inside, Arrow.INSIDE, Arrow.OUTSIDE))[()]

