"""Seeded self-check suites behind the `verify` CLI subcommand.

Each suite returns (name, passed, detail) triples, passed a Python bool,
covering the module invariants: the paper's interconnection lemmata, closed
form against recursion replay, the residuals of the dense eigensolve behind
every spectrum on random chain matrices, and transport equivalence (the
boundary solve against one stacked dense solve per chain).  `run_suite`
adds each suite's elapsed time.

The lemmata are proven exactly on an integer grid by one batched replay of
the recursion: the four unit sequences at all 120 grid points run together
as numpy object arrays of Python ints, so no value is rounded or wraps,
and each identity is checked as one whole-array equality.  The degree
argument below, which makes equality on the grid a proof, is unchanged.

The closed-form suite draws its 50 cases per label one by one, in the
order it always has, and checks them as one batch: one `characterize`, one
`xi_closed` and one `eval_range` call per label, with each draw's error
relative to its own largest replayed value (or 1).
"""

from __future__ import annotations

import cmath
import random
import time

import numpy as np

from .chain import ChainParams, build_chain_matrix
from .closedform import appendix_a_solutions, characterize, xi_closed
from .errors import SingularBoundaryError
from .recurrence import Coefficients, InitialValues, eval_range, replay
from .transport import (LeadParams, TransportSetup, green_1n_dense,
                        green_1n_tetranacci)


# The suites draw a few dozen numbers each from stdlib `random`, which the
# interpreter has loaded already; numpy's random package would add its
# import (and hashlib, secrets) to the start-up of every command.
def _normal(rng) -> float:
    return rng.gauss(0.0, 1.0)


def _random_complex(rng) -> complex:
    return complex(_normal(rng), _normal(rng))


def _random_coeffs(rng) -> Coefficients:
    return Coefficients(_random_complex(rng), _random_complex(rng))


def _random_initials(rng) -> InitialValues:
    return InitialValues(tuple(_random_complex(rng) for _ in range(4)))


# Weight zeta 2 and eta 1.  By induction on the recursion every T_i(j) has
# weighted degree <= |j|, so each side of an identity below, for j in
# [-12, 12], has weighted degree <= 14: degree <= 7 in zeta and <= 14 in
# eta.  A polynomial of those degrees that vanishes at every point of the
# 8 x 15 integer grid {0..7} x {0..14} is zero: at each grid eta it is a
# polynomial in zeta with 8 roots, so its zeta coefficients vanish there,
# and each of them is a polynomial in eta with 15 roots.  So holding
# exactly on the grid, with the T_i(j) replayed in exact ints, proves an
# identity.
def _lemma_replay():
    """(T, zeta, eta) over the whole grid from one exact replay.

    zeta and eta are object arrays of Python ints, one entry per grid point,
    and T[i] for i in -2..1 an object array with T[i][j] = T_i(j) at every
    grid point, j in [-14, 14].  Row j >= 0 sits at j and row j < 0 at 29 +
    j, so numpy's negative indices address T_i(j) directly.
    """
    zeta, eta = (a.astype(object) for a in np.divmod(np.arange(8 * 15), 15))
    # units[k] is g_{k-2} at every point: 1 in row i + 2, for T_i, iff i == k - 2
    units = np.broadcast_to(np.eye(4, dtype=int).astype(object)[:, :, None], (4, 4, len(eta)))
    rows = replay(units, zeta, eta, -14, 14)  # T(j) for j = -14..14, shape (4, points)
    t = np.stack(rows[14:] + rows[:14], axis=1)
    return dict(zip((-2, -1, 0, 1), t)), zeta, eta


# Each relation, at the array j of [-12, 12], is one whole-array equality
# over the batched replay for all those j and all grid points.  Its shifts
# reach j +- 2 only: inside the replayed [-14, 14], where the batched rows,
# indexed modulo 29, do not wrap round.
_INVERSION = (
    lambda t, eta, j: t[1][j] == t[-2][-1 - j],
    lambda t, eta, j: t[0][j] == t[-1][-1 - j],
    lambda t, eta, j: t[-2][j] == t[1][-1 - j],
    lambda t, eta, j: t[-1][j] == t[0][-1 - j],
)
_REDUCTION = (
    lambda t, eta, j: t[-2][j] == -t[-2][-j],
    lambda t, eta, j: t[-1][j] == t[-2][j - 1] - eta * t[-2][j],
    lambda t, eta, j: t[0][j] == eta * t[-2][j + 1] - t[-2][j + 2],
    lambda t, eta, j: t[1][j] == -t[-2][j + 1],
)


def suite_lemmata(seed: int = 0):
    t, _, eta = _lemma_replay()
    j = np.arange(-12, 13)

    def holds(relations):
        return all(bool(np.all(r(t, eta, j))) for r in relations)

    return [("inversion identities (4 relations)", holds(_INVERSION), "j in [-12, 12]"),
            ("reduction identities (4 relations)", holds(_REDUCTION), "j in [-12, 12]")]


def _closed_form_worst(rng, draw_coeffs) -> float:
    """Worst closed-form error, relative to the replay, over 50 draws of
    draw_coeffs, each draw's error relative to its own max |xi| (or 1).
    The draws are made one by one, and then checked as one batch."""
    cs, gs = zip(*[(draw_coeffs(rng), _random_initials(rng)) for _ in range(50)])
    c = Coefficients(np.array([d.zeta for d in cs], dtype=complex),
                     np.array([d.eta for d in cs], dtype=complex))
    g = InitialValues(tuple(np.array(v, dtype=complex) for v in zip(*(d.g for d in gs))))
    window = np.array(eval_range(g, c, -20, 20).values)  # row j + 20, one column per draw
    closed = np.array(xi_closed(g, characterize(c), -20, 20).values)
    scale = np.abs(window).max(axis=0)
    scale[scale == 0.0] = 1.0
    return float((np.abs(closed - window).max(axis=0) / scale).max())


def _near_degenerate_locus(rng) -> Coefficients:
    """zeta within 10^U(-14, -5) of the locus zeta = -2 - eta^2/4, where S_1
    and S_2 nearly coincide; one draw in four puts eta as close to +-4, the
    corner where both S_l also approach +-2."""
    off = [cmath.rect(10.0 ** rng.uniform(-14, -5), rng.uniform(0.0, 2 * cmath.pi))
           for _ in range(2)]
    eta = _random_complex(rng)
    if rng.random() < 0.25:
        eta = rng.choice((-4.0, 4.0)) + off[0]
    return Coefficients(complex(-2.0 - eta * eta / 4.0 + off[1]), eta)


def suite_closed_form(seed: int = 0):
    rng = random.Random(seed)
    checks = []
    for label, draw in (("generic draws", _random_coeffs),
                        ("near the degenerate locus", _near_degenerate_locus)):
        worst = _closed_form_worst(rng, draw)
        checks.append((f"closed form vs replay ({label})", worst < 1e-9,
                       f"max rel err {worst:.3e}"))
    res = appendix_a_solutions(characterize(Coefficients(-3.0, 2.0)), range(-10, 11))
    checks.append(("degenerate extra solutions", max(res.values()) < 1e-9,
                   f"max residual {max(res.values()):.3e}"))
    return checks


def suite_oracle(seed: int = 0):
    rng = random.Random(seed)
    checks = []
    worst_res, worst_orth = 0.0, 0.0
    for n in (5, 20, 60):
        mu, t1, t2 = (_normal(rng) for _ in range(3))
        m = build_chain_matrix(ChainParams(mu, t1, t2, n))
        w, v = np.linalg.eigh(m)
        worst_res = max(worst_res, float(np.abs(m @ v - v * w).max() / np.abs(m).max()))
        worst_orth = max(worst_orth, float(np.abs(v.T @ v - np.eye(n)).max()))
    checks.append(("eigen residual", worst_res < 1e-10, f"{worst_res:.3e}"))
    checks.append(("eigenvector orthonormality", worst_orth < 1e-10, f"{worst_orth:.3e}"))
    return checks


def suite_transport(seed: int = 0):
    rng = random.Random(seed)
    checks = []
    worst = 0.0
    skipped = 0
    for _ in range(10):
        n = rng.randint(3, 14)
        chain = ChainParams(mu=_normal(rng), t1=_normal(rng),
                            t2=_normal(rng) + rng.choice((-0.5, 0.5)), n=n)
        setup = TransportSetup(chain,
                               LeadParams(abs(_normal(rng)), _normal(rng) * 0.2),
                               LeadParams(abs(_normal(rng)), _normal(rng) * 0.2))
        energies, boundary = [], []
        for _ in range(8):
            e = 3.0 * _normal(rng)
            try:
                boundary.append(green_1n_tetranacci(e, setup))
            except SingularBoundaryError:
                skipped += 1
                continue
            energies.append(e)
        if energies:
            for gt, gd in zip(boundary, green_1n_dense(np.array(energies), setup).tolist()):
                worst = max(worst, abs(gt - gd) / max(abs(gd), 1e-300))
    checks.append(("corner Green's function vs dense", worst < 1e-8,
                   f"max rel err {worst:.3e}, skipped {skipped}"))
    return checks


SUITES = {
    "lemmata": suite_lemmata,
    "closed-form": suite_closed_form,
    "oracle": suite_oracle,
    "transport": suite_transport,
}


def run_suite(name: str, seed: int = 0):
    """(check, passed, detail, elapsed_s) for every check of suite `name`,
    or of every suite for "all", each check prefixed with its suite's name.
    elapsed_s is the wall time, by time.perf_counter, of the whole suite that
    made the check."""
    out = []
    for key in SUITES if name == "all" else (name,):
        start = time.perf_counter()
        checks = SUITES[key](seed)
        elapsed = time.perf_counter() - start
        prefix = f"{key}: " if name == "all" else ""
        out.extend((prefix + check, ok, detail, elapsed) for check, ok, detail in checks)
    return out
