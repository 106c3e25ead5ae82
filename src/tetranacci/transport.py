"""Lead-coupled Green's functions, transmission and current.

Leads attach only to the first and last site, adding corner self-energies
Lambda_alpha - i gamma_alpha to the chain matrix.  `transmission`, the one
exact T(E), takes the corner entry G^r_{1N} from a 2x2 boundary solve over
the basic polynomial T_-2, which answers at every real E where both leads
are coupled, at the eigenvalue of a mode with no weight on site 1 or N
too.  Only where the boundary solve has no coefficient map (t2 = 0, or
zeta or eta past the doubles) does it take G_1N from the dense solve of
(E - H - Sigma) x = e_N.  `current` makes one eigendecomposition of H_eff
= H + Sigma for a whole bias grid.  Its poles and residues give the
current in closed form; each bias is checked against `transmission` at
the real part of the worst-conditioned pole in its window.  Each bias that
fails the check takes its current from a table of the exact T(E), a fixed
Gauss-Legendre rule on panels of its own window, sized to the same poles.
numpy is the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainParams, build_chain_matrix, coeffs_from_energy
from .errors import ZeroT2Error
from .exactnum import cramer_quotient, dyadic, gaussian_divider, gmul, tm2_scale, tm2_window
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


def green_1n_tetranacci(e: float, s: TransportSetup) -> complex:
    """Corner entry G^r_{1N} from the exact 2x2 boundary solve.

    The general solution compatible with sigma_0 = 0 and the left-lead
    condition is sigma_j = g T_-2(j) + h row(j), row(j) = t2 T_1(j) + w_L
    T_-1(j), w_L = i gamma_L - Lambda_L, with g_1 = t2 h.  The reduction
    identities give row(j) = -t2 T_-2(j+1) + w_L (T_-2(j-1) - eta T_-2(j)),
    so the five values T_-2(N-1..N+3) carry the solve.  They come as scaled
    ints from `exactnum.tm2_window`, the paper's Fibonacci decomposition in
    O(log N) ring products, which holds O(N) bits: zeta and eta are written
    over D^2 and D, D = 2^k, and t2, Lambda and gamma over their own D' =
    2^k'.  Each T_-2(i) with N-1 <= i <= top = N+3 is tau(i) / D^(top+2)
    for an int tau(i), and a, b, c, d and det are Gaussian integers over
    D^(top+2), D' D^(top+3), D' D^(top+2), D'^2 D^(top+3) and D'^2
    D^(2top+5).  As T_-2(1) = 0 and row(1) = t2, G_1N =
    sigma_1 = t2 a / det, the one unknown solved for, is the quotient of
    these ints times D' D^(top+3), rounded once (`cramer_quotient`: from
    their top bits where those decide the rounding, else from the
    full-length products, with the same bits either way).  It is exact for
    zeta and eta as `coeffs_from_energy` rounds them.

    With both leads coupled, det vanishes at a real E only with a = 0 and b
    = c = 0, and then G_1N = t2 / d over the same power of two.  A null
    vector of the system is a solution u of (E - H_eff) u = 0, an
    eigenvector of H_eff with real E, so Im E = -gamma_L |u_1|^2 - gamma_R
    |u_N|^2 = 0 forces u_1 = t2 h = 0 and hence a = c = 0.  As H_eff is
    complex symmetric and e_N^T u = u_N = 0, the right-hand side e_N, here
    (0, 1), is consistent, so b = 0, d != 0, and every solution has h = 1 /
    d: the eigenvalue of a mode with no weight on site 1 or N (the even
    sublattice at t1 = 0 and odd N) is no pole of G_1N.

    ZeroDivisionError is raised at any other det = 0, which only a decoupled
    lead (gamma = 0) can reach, and OverflowError where G_1N is past the
    doubles (a lead coupling near 1e-310, or decoupled leads next to an
    eigenvalue).
    """
    p = s.chain
    c = coeffs_from_energy(e, p)
    n, top = p.n, p.n + 3
    k, (z, eta) = tm2_scale(c.zeta, c.eta)
    y = tm2_window(z, eta, k, n - 1, top)  # y[i - n + 1] = D^(i+2) T_-2(i)

    def tau(i):  # D^(top+2) T_-2(i)
        return y[i - n + 1] << k * (top - i)

    kc, (t2, *w) = dyadic(p.t2, -s.left.lam, s.left.gamma, -s.right.lam, s.right.gamma)
    w_l, w_r = tuple(w[:2]), tuple(w[2:])

    def row(j):  # D' D^(top+3) row(j)
        u = (tau(j - 1) << k) - eta * tau(j)
        return ((-t2 * tau(j + 1)) << k) + w_l[0] * u, w_l[1] * u

    a = tau(n + 1)  # D^(top+2) a
    b = row(n + 1)  # D' D^(top+3) b
    tn = tau(n)
    cc = w_r[0] * tn - t2 * tau(n + 2), w_r[1] * tn  # D' D^(top+2) c
    rn, rn2 = gmul(w_r, row(n)), row(n + 2)
    d = rn[0] - t2 * rn2[0], rn[1] - t2 * rn2[1]  # D'^2 D^(top+3) d
    shift = kc + k * (top + 3)
    try:  # det = a d - b c over D'^2 D^(2 top+5)
        if a == 0 and b == cc == (0, 0):  # a weightless eigenvalue: h = 1 / d
            return gaussian_divider((t2, 0), d, shift)
        return cramer_quotient(t2, a, b, cc, d, shift)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"boundary system singular at E = {e}") from None
    except OverflowError:
        raise OverflowError(f"G_1N overflows at E = {e}") from None


def _h_eff(s: TransportSetup) -> np.ndarray:
    """H_eff = H + Sigma_L + Sigma_R, the chain matrix with both leads;
    OverflowError where -mu + Lambda leaves the doubles."""
    h = build_chain_matrix(s.chain).astype(complex)
    with np.errstate(over="ignore"):
        h[0, 0] += s.left.self_energy
        h[-1, -1] += s.right.self_energy
    if not (np.isfinite(h[0, 0]) and np.isfinite(h[-1, -1])):
        raise OverflowError("H + Sigma overflows at a lead site")
    return h


def green_1n_dense(e, s: TransportSetup):
    """Corner entry G^r_{1N} from a dense solve of (E - H - Sigma) x = e_N.

    e is one energy, giving a complex, or a 1-D array of them, giving a
    complex array: H_eff is built once and the systems of all energies go
    to one stacked solve, with the same digits as one solve per energy.
    The rows are first scaled by exact powers of two 2^k_i to a largest
    entry in [1/2, 1): a row of a lead-decoupled site holding only a
    subnormal E - mu (E = 1e-313, say) would make the solver's reciprocal
    pivot overflow, and inf * 0 turn the solution into nan.  The scaled
    system is solved for 2^-k_N x, so only x_1 is scaled back.
    OverflowError is raised where E - H_eff itself overflows (E + mu near
    2e308), and numpy's LinAlgError where it is singular: at an eigenvalue
    of the chain with a lead decoupled, and at the eigenvalue of a mode with
    no weight on site 1 or N, where `green_1n_tetranacci` answers.
    `transmission` calls it only where the boundary solve has no
    coefficient map.
    """
    n = s.chain.n
    energies = np.atleast_1d(np.asarray(e, dtype=float))
    with np.errstate(over="ignore"):
        a = energies[:, None, None] * np.eye(n) - _h_eff(s)
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise OverflowError(f"E - H_eff overflows at E = {float(energies[~finite][0])!r}")
    k = -np.frexp(np.abs(a).max(axis=2))[1]
    a.real = np.ldexp(a.real, k[:, :, None])
    a.imag = np.ldexp(a.imag, k[:, :, None])
    # a stack of one n x 1 matrix: with a b of fewer dimensions than a,
    # numpy before 2.0 reads b as a stack of vectors, and would not broadcast
    rhs = np.zeros((1, n, 1), dtype=complex)
    rhs[0, -1, 0] = 1.0
    x1 = np.linalg.solve(a, rhs)[:, 0, 0]
    g = [complex(math.ldexp(x.real, kn), math.ldexp(x.imag, kn))
         for x, kn in zip(x1.tolist(), k[:, -1].tolist())]
    return g[0] if np.ndim(e) == 0 else np.array(g, dtype=complex)


def _twice(gamma: float, g: float) -> float:
    """2 gamma g, rounded once as (2 gamma) g is where 2 gamma is finite.

    The exact 2 rides on the smaller factor: 2 gamma overflows for strong
    leads (gamma >= 2^1023) and 2 |G| for weak ones, where T <= 1 lets |G|
    reach 1 / (2 gamma).  A nan g stays nan.
    """
    return (2.0 * g) * gamma if g < gamma else (2.0 * gamma) * g


def transmission(e: float, s: TransportSetup) -> float:
    """The exact T(E) = 4 gamma_L gamma_R |G^r_{1N}|^2.

    G_1N comes from the boundary solve, at the eigenvalue of a mode with no
    weight on site 1 or N too, or from the dense solve (`green_1n_dense`)
    where the boundary solve has no coefficient map: at t2 = 0, and where
    zeta or eta leave the doubles.  With a lead decoupled (gamma = 0), or
    with no path from site 1 to site N (N >= 2 and t1 = t2 = 0), T vanishes
    identically and no solve is made: at an eigenvalue of the chain the
    solve would be singular.  With both leads coupled, T <= 1 bounds |G_1N|
    by 1 / (2 sqrt(gamma_L gamma_R)), so the exact G_1N is taken as it is,
    with no test of its size, and a G_1N past the doubles (a lead coupling
    near 1e-310) raises OverflowError.
    """
    p = s.chain
    if s.left.gamma == 0.0 or s.right.gamma == 0.0 or (p.n >= 2 and p.t1 == p.t2 == 0.0):
        return 0.0
    try:
        g = abs(green_1n_tetranacci(e, s))
    except ZeroT2Error:
        g = abs(green_1n_dense(e, s))
    # two factors, as strong leads overflow 4 gamma_L gamma_R where they
    # underflow |G|^2, and weak leads the other way round
    return _twice(s.left.gamma, g) * _twice(s.right.gamma, g)


def fermi(e, beta: float):
    """Fermi function f(E) = 1 / (1 + e^(beta E)), elementwise.

    At beta = math.inf it is the step 1, 1/2, 0 for E <, =, > 0.  At finite
    beta only e^-|beta E| is formed, which underflows quietly where
    e^|beta E| would overflow.
    """
    e = np.asarray(e, dtype=float)
    if math.isinf(beta):
        return np.where(e < 0.0, 1.0, np.where(e == 0.0, 0.5, 0.0))
    with np.errstate(over="ignore"):  # beta E = +-inf is the step again
        x = beta * e
    u = np.exp(-np.abs(x))
    return np.where(x > 0.0, u / (1.0 + u), 1.0 / (1.0 + u))


# Bernoulli terms B_2k / 2k, k = 1..7, of the asymptotic series of psi
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_PSI_SHIFT = 10


def digamma(x):
    """Complex digamma psi(x), elementwise, for Re x >= 1/2.

    The recurrence psi(x) = psi(x + 10) - sum_{j<10} 1 / (x + j) moves the
    argument to |y| > 10, where psi(y) = log y - 1/(2y) - sum_k B_2k /
    (2k y^2k), cut after y^-14, is off by less than its next term, 4e-17.
    """
    x = np.asarray(x, dtype=complex)
    y = x + _PSI_SHIFT
    # (1 / y)^2 underflows quietly where y * y would overflow
    r = 1.0 / y
    w = r * r
    series = 0.0
    for b in reversed(_PSI_SERIES):
        series = (series + b) * w
    return np.log(y) - 0.5 / y - series - sum(1.0 / (x + j) for j in range(_PSI_SHIFT))


def _log1p(w):
    """log(1 + w), elementwise for complex w.

    numpy's complex log1p takes the log of the rounded |1 + w|, which loses
    the digits of a small w; below |w| = 1/2 the real part is 1/2 log1p of
    |1 + w|^2 - 1 = 2 Re w + |w|^2 instead.
    """
    small = np.abs(w) < 0.5
    u = np.where(small, w, 0.0)
    near = 0.5 * np.log1p(u.real * (2.0 + u.real) + u.imag * u.imag) \
        + 1j * np.arctan2(u.imag, 1.0 + u.real)
    return np.where(small, near, np.log1p(w))


def _poles(s: TransportSetup):
    """Poles z_k, residues a_k and condition numbers kappa_k of T(E) = 2 Re
    sum_k a_k / (E - z_k).

    G_1N(E) = sum_k c_k / (E - z_k) over the eigenvalues z_k of H_eff = H
    + Sigma_L + Sigma_R, with c_k = R_1k (R^-1)_kN from its eigenvectors R.
    H_eff is complex symmetric, H_eff^T = H_eff, so the left eigenvector of
    z_k is r_k^T and r_k^T r_l = 0 for z_k != z_l: the rows of R^-1 are
    r_k^T / (r_k^T r_k), c_k = R_1k R_Nk / (r_k^T r_k), and the condition
    number of z_k is kappa_k = ||r_k||^2 / |r_k^T r_k|, all without a
    solve.  A repeated eigenvalue needs r_k^T r_l = 0 within its
    eigenspace too; at t1 = 0, even N and equal leads, where each
    eigenvalue is doubled, LAPACK keeps one eigenvector on each sublattice.
    At an exceptional point r_k^T r_k -> 0, and an exactly defective H_eff
    gives residues that are not finite, which `current` does not accept.

    Splitting |G_1N|^2 into partial fractions gives a_k = 4 gamma_L
    gamma_R c_k sum_l conj(c_l) / (z_k - conj(z_l)).  A normalized
    eigenvector psi has Im z = -gamma_L |psi_1|^2 - gamma_R |psi_N|^2, so
    |psi_1|^2 <= |Im z| / gamma_L, |psi_N|^2 <= |Im z| / gamma_R, and its
    own term |a_k| ~ 4 gamma_L gamma_R |psi_1 psi_N|^2 / (2 |Im z|) <= 2
    |Im z|: a pole within roundoff of the real axis (a mode with no weight
    on site 1 or N) carries no weight, and is dropped before 1 / (z_k -
    conj(z_k)) divides by the roundoff of its width.
    """
    p = s.chain
    z, r = np.linalg.eig(_h_eff(s))
    scale = max(abs(p.mu), abs(p.t1), abs(p.t2), abs(s.left.self_energy),
                abs(s.right.self_energy))
    keep = -z.imag > 64 * np.finfo(float).eps * p.n * scale
    z, r = z[keep], r[:, keep]
    rtr = np.sum(r * r, axis=0)
    # z_k - conj(z_l) past the doubles is a pole pair infinitely far apart
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c2 = 2.0 * (r[0] * r[-1] / rtr)  # 2 c_k
        # the couplings ride on 2 c and conj(2 c): 2 gamma overflows for
        # strong leads, 2 c only where |r^T r| < 2^-1022, an exceptional point
        a = (s.left.gamma * c2) * ((1.0 / (z[:, None] - z.conj())) @ (s.right.gamma * c2.conj()))
        return z, a, np.sum(np.abs(r) ** 2, axis=0) / np.abs(rtr)


# largest miss of the pole sum against the exact T at a probe that is
# accepted, absolute as 0 <= T <= 1; healthy chains up to N = 1500 (mu = 0,
# t1 = 1, t2 = 0.8, gamma = 0.5) miss by at most 3.1e-12 at the real part of
# their worst-conditioned pole
_PROBE_TOL = 1e-10


def current(v_bias, beta: float, s: TransportSetup):
    """Steady-state current I = int T(E) (f(E) - f(E + V)) dE in units of e/h.

    v_bias is one bias or a 1-D array of them; the result is a float or an
    array of the same length.  One eigendecomposition of H_eff (`_poles`)
    serves every bias: with T(E) = 2 Re sum_k a_k / (E - z_k), I = 2 Re
    sum_k a_k J(z_k) in closed form.  At beta = math.inf (T = 0), J(z) =
    log(-z) - log(-V - z) = -log1p(V / z), the integral of 1 / (E - z) over
    the bias window [-V, 0]; both logs are principal, as -z and -V - z lie
    in the upper half-plane.  At finite beta the Matsubara sum of the Fermi
    functions gives J(z) = psi(1/2 + i beta z / 2 pi) - psi(1/2 + i beta
    (z + V) / 2 pi), where Re of each argument is >= 1/2 as Im z_k < 0.

    Each bias's sum is checked against the exact `transmission` at one
    energy of its window.  A wrong residue shows in T near its own pole,
    not in the tails, and the residues go wrong where eigenvectors of H_eff
    are nearly parallel (near an exceptional point), so the probe is Re z_k
    of the pole with the largest condition number kappa_k, clipped into the
    window; the exact T is taken once per distinct probe energy.  Each bias
    whose sum misses by more than 1e-10, or is not finite, takes its
    current from a table of the exact T(E) on its own window
    (`_current_quad`), on the poles this one eigendecomposition found, so a
    bias of a grid gets the bits of its single-bias call.  A zero bias
    carries no current and is not probed.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive (math.inf for T = 0)")
    v = np.atleast_1d(np.asarray(v_bias, dtype=float))
    out = np.zeros(v.shape)
    # a zero bias, or a decoupled lead, carries no current and is not probed
    on = np.flatnonzero(v) if s.left.gamma * s.right.gamma != 0.0 else np.arange(0)
    if len(on):
        z, a, kappa = _poles(s)
        # one row per bias; each row's sum over the poles runs along the
        # contiguous axis, as the sum for a single bias does
        vb = v[on]
        # beta V / 2 pi overflows at V near 1e308; a sum that is not finite
        # goes quietly to the table of the exact T below
        with np.errstate(over="ignore", invalid="ignore"):
            if math.isinf(beta):
                j = -_log1p(vb[:, None] / z)
            else:
                x = 0.5 + 0.5j * beta * z / math.pi
                j = digamma(x) - digamma(x + 1j * (0.5 * beta * vb / math.pi)[:, None])
            got = 2.0 * np.sum(a * j, axis=1).real
        probe = np.clip(z.real[np.argmax(kappa)], np.minimum(0.0, -vb),
                        np.maximum(0.0, -vb)) if len(z) else -0.5 * vb
        energies, which = np.unique(probe, return_inverse=True)
        exact = np.array([transmission(e, s) for e in energies.tolist()])
        with np.errstate(over="ignore"):  # a fit past the doubles misses its probe
            fit = 2.0 * np.sum(a / (probe[:, None] - z), axis=1).real
        bad = ~(np.isfinite(got) & (np.abs(fit - exact[which]) <= _PROBE_TOL))
        out[on] = got
        if bad.any():
            out[on[bad]] = [_current_quad(x, beta, s, z) for x in vb[bad].tolist()]
    return float(out[0]) if np.ndim(v_bias) == 0 else out


def _current_quad(v: float, beta: float, s: TransportSetup, z: np.ndarray) -> float:
    """The current at the bias v as a Gauss-Legendre sum over a table of T(E).

    z holds the weighted eigenvalues of H_eff from `_poles`.  The exact
    `transmission` is tabulated at 12 nodes on each panel of a partition of
    the window [-V, 0], padded by 40 / beta (0 at beta = math.inf), beyond
    which the Fermi difference is below e^-40; 0 and -V are panel edges.
    The current is then one weighted sum of that table times f(E) - f(E +
    V), which at beta = math.inf is exactly +1 or -1 inside the window and
    0 outside.

    The integrand's poles are the z_k and conj(z_k), and at finite beta
    those of the Fermi functions nearest the axis, 0 and -V +- i pi / beta.
    A panel is halved until its length is no larger than the distance from
    its midpoint to every pole, or until doubles cannot halve it.  Every
    pole then lies at least two half-lengths from the panel's centre, so the
    integrand is analytic inside the Bernstein ellipse of parameter rho >=
    2 + sqrt 3 about the panel, and 12 nodes miss by about rho^-24 ~ 2e-14
    of its largest size on that ellipse, which near a pole exceeds its size
    on the axis: on 80 random chains up to N = 12 the current missed a
    48-node rule by at most 1.6e-13 relative, for a current of 6e-6 from
    the tail of a resonance.  There is no tolerance, adaptivity or failure
    branch.
    """
    from numpy.polynomial.legendre import leggauss

    pad = 40.0 / beta
    ends = np.append(-v, 0.0)
    edges = np.unique(np.append(ends, [ends.min() - pad, ends.max() + pad]))
    poles = z if math.isinf(beta) else np.append(z, ends + 1j * math.pi / beta)
    lo, hi, done = edges[:-1], edges[1:], []
    while lo.size:
        mid = lo + 0.5 * (hi - lo)
        with np.errstate(over="ignore"):  # a pole past the doubles is far away
            far = np.abs(mid[:, None] - poles).min(axis=1, initial=np.inf)
        ok = (hi - lo <= far) | (mid == lo) | (mid == hi)
        done.append((lo[ok], hi[ok]))
        lo, hi = np.append(lo[~ok], mid[~ok]), np.append(mid[~ok], hi[~ok])
    lo, hi = (np.concatenate(e) for e in zip(*done))
    x, w = leggauss(12)
    half = 0.5 * (hi - lo)
    nodes = ((lo + half)[:, None] + half[:, None] * x).ravel()
    t = np.array([transmission(e, s) for e in nodes.tolist()]) * (half[:, None] * w).ravel()
    return float((fermi(nodes, beta) - fermi(nodes + v, beta)) @ t)
