"""Seeded self-check suites behind the `verify` CLI subcommand.

Each suite returns (name, passed, detail) triples covering the module
invariants: the paper's interconnection lemmata, proven exactly on an
integer grid by the exact-int replay of the recursion, closed form against
recursion replay, the residuals of the dense eigensolve behind every
spectrum on random chain matrices, and transport equivalence.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainParams, build_chain_matrix
from .closedform import appendix_a_solutions, characterize, xi_closed
from .errors import SingularBoundaryError
from .recurrence import Coefficients, InitialValues, eval_range
from .transport import (LeadParams, TransportSetup, green_1n_dense,
                        green_1n_tetranacci)


def _random_coeffs(rng) -> Coefficients:
    return Coefficients(complex(rng.normal(), rng.normal()),
                        complex(rng.normal(), rng.normal()))


def _random_initials(rng) -> InitialValues:
    return InitialValues(tuple(complex(a, b) for a, b in rng.normal(size=(4, 2))))


# Weight zeta 2 and eta 1.  By induction on the recursion every T_i(j) has
# weighted degree <= |j|, so each side of an identity below, for j in
# [-12, 12], has weighted degree <= 14: degree <= 7 in zeta and <= 14 in
# eta.  A polynomial of those degrees that vanishes at every point of the
# 8 x 15 integer grid {0..7} x {0..14} is zero: at each grid eta it is a
# polynomial in zeta with 8 roots, so its zeta coefficients vanish there,
# and each of them is a polynomial in eta with 15 roots.  So holding
# exactly on the grid, with the T_i(j) replayed in exact ints, proves an
# identity.
def _lemma_grid():
    """(zeta, eta, T) at every grid point, with T[i][j] = T_i(j) exactly for
    i in -2..1 and j in [-14, 14]."""
    units = {i: InitialValues.unit(i) for i in (-2, -1, 0, 1)}
    grid = []
    for zeta in range(8):
        for eta in range(15):
            c = Coefficients(zeta, eta)
            t = {i: dict(zip(range(-14, 15), eval_range(g, c, -14, 14).values))
                 for i, g in units.items()}
            grid.append((zeta, eta, t))
    return grid


def _holds(relation, grid) -> bool:
    """True iff relation(T, eta, j) holds at every grid point for j in [-12, 12]."""
    return all(relation(t, eta, j) for _, eta, t in grid for j in range(-12, 13))


def suite_lemmata(seed: int = 0):
    grid = _lemma_grid()
    ok_inv = _holds(lambda t, eta, j: (
        t[1][j] == t[-2][-1 - j] and t[0][j] == t[-1][-1 - j]
        and t[-2][j] == t[1][-1 - j] and t[-1][j] == t[0][-1 - j]), grid)
    ok_link = _holds(lambda t, eta, j: (
        t[-2][j] == -t[-2][-j]
        and t[-1][j] == t[-2][j - 1] - eta * t[-2][j]
        and t[0][j] == eta * t[-2][j + 1] - t[-2][j + 2]
        and t[1][j] == -t[-2][j + 1]), grid)
    return [("inversion identities (4 relations)", ok_inv, "j in [-12, 12]"),
            ("reduction identities (4 relations)", ok_link, "j in [-12, 12]")]


def _closed_form_worst(rng, draw_coeffs) -> float:
    """Worst closed-form error, relative to the replay, over 50 draws of draw_coeffs."""
    worst = 0.0
    for _ in range(50):
        c = draw_coeffs(rng)
        g = _random_initials(rng)
        window = eval_range(g, c, -20, 20).values
        closed = xi_closed(g, characterize(c), -20, 20).values
        scale = max(abs(v) for v in window) or 1.0
        worst = max(worst, max(abs(a - b) for a, b in zip(closed, window)) / scale)
    return worst


def _near_degenerate_locus(rng) -> Coefficients:
    """zeta within 10^U(-14, -5) of the locus zeta = -2 - eta^2/4, where S_1
    and S_2 nearly coincide; one draw in four puts eta as close to +-4, the
    corner where both S_l also approach +-2."""
    off = 10.0 ** rng.uniform(-14, -5, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
    eta = complex(rng.normal(), rng.normal())
    if rng.uniform() < 0.25:
        eta = complex(4.0 * np.sign(rng.normal()) + off[0])
    return Coefficients(complex(-2.0 - eta * eta / 4.0 + off[1]), eta)


def suite_closed_form(seed: int = 0):
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
    checks = []
    worst_res, worst_orth = 0.0, 0.0
    for n in (5, 20, 60):
        mu, t1, t2 = rng.normal(size=3)
        m = build_chain_matrix(ChainParams(mu, t1, t2, n))
        w, v = np.linalg.eigh(m)
        worst_res = max(worst_res, float(np.abs(m @ v - v * w).max()) / np.abs(m).max())
        worst_orth = max(worst_orth, float(np.abs(v.T @ v - np.eye(n)).max()))
    checks.append(("eigen residual", worst_res < 1e-10, f"{worst_res:.3e}"))
    checks.append(("eigenvector orthonormality", worst_orth < 1e-10, f"{worst_orth:.3e}"))
    return checks


def suite_transport(seed: int = 0):
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    skipped = 0
    for _ in range(10):
        n = int(rng.integers(3, 15))
        chain = ChainParams(mu=rng.normal(), t1=rng.normal(),
                            t2=rng.normal() + np.sign(rng.normal()) * 0.5, n=n)
        setup = TransportSetup(chain,
                               LeadParams(abs(rng.normal()), rng.normal() * 0.2),
                               LeadParams(abs(rng.normal()), rng.normal() * 0.2))
        for e in rng.normal(size=8) * 3.0:
            try:
                gt = green_1n_tetranacci(float(e), setup)
            except SingularBoundaryError:
                skipped += 1
                continue
            gd = green_1n_dense(float(e), setup)
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
    if name == "all":
        out = []
        for key in SUITES:
            out.extend((f"{key}: {n}", ok, detail)
                       for n, ok, detail in SUITES[key](seed))
        return out
    return SUITES[name](seed)
