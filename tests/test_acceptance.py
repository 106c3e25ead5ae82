"""End-to-end acceptance checks.

Each test covers one headline claim at its stated tolerance and prints a
single pass/fail line so the suite doubles as a report:

    pytest -s tests/test_acceptance.py
"""

import math
import time

import numpy as np
import pytest

from tetranacci.chain import (Arrow, ChainParams, arrow_classify,
                              coeffs_from_energy, crossings,
                              eigenvector_tetranacci, spectrum)
from tetranacci.closedform import RootClass, characterize, xi_closed
from tetranacci.errors import PreconditionError
from tetranacci.kitaev import KitaevParams, kitaev_spectrum
from tetranacci.recurrence import Coefficients, InitialValues, eval_range
from tetranacci.transport import (LeadParams, TransportSetup, current,
                                  green_1n_dense, green_1n_tetranacci,
                                  transmission)
from tetranacci.verification import _lemma_replay

from band_oracle import bdg_spectrum, chain_eigh, effective_h_matrix, t1_zero_spectrum


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def test_01_exact_lemma_suite():
    # exact int replays on the integer grid of `verification`, where every
    # polynomial compared has low enough degree for equality on the grid to
    # be equality as polynomials in (zeta, eta)
    start = time.time()
    t, zeta, eta = _lemma_replay()
    j = np.arange(-12, 13)
    # each check is one equality over every j and every grid point at once
    checks = [
        t[1][j] == t[-2][-1 - j],
        t[0][j] == t[-1][-1 - j],
        t[-2][j] == t[1][-1 - j],
        t[-1][j] == t[0][-1 - j],
        t[-2][j] == -t[-2][-j],
        t[-1][j] == t[-2][j - 1] - eta * t[-2][j],
        t[0][j] == eta * t[-2][j + 1] - t[-2][j + 2],
        t[1][j] == -t[-2][j + 1],
    ]
    table = {
        -3: (eta, zeta, eta, -1),
        -2: (1, 0, 0, 0),
        -1: (0, 1, 0, 0),
        0: (0, 0, 1, 0),
        1: (0, 0, 0, 1),
        2: (-1, eta, zeta, eta),
    }
    checks += [t[i][row] == want for row, wants in table.items()
               for i, want in zip((-2, -1, 0, 1), wants)]
    ok = all(bool(np.all(c)) for c in checks)
    elapsed = time.time() - start
    report("exact identity suite (8 relations, j in [-12,12]; value table)",
           ok and elapsed < 5.0, f"{elapsed:.2f} s")


def test_02_closed_form_equivalence():
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for cls in RootClass:
        for _ in range(200):
            if cls is RootClass.DISTINCT:
                c = Coefficients(complex(rng.normal(), rng.normal()),
                                 complex(rng.normal(), rng.normal()))
            elif cls is RootClass.DEGENERATE_S:
                eta = complex(rng.normal(), rng.normal())
                c = Coefficients(-2.0 - eta * eta / 4.0, eta)
            else:
                sign = 1.0 if rng.normal() > 0 else -1.0
                c = Coefficients(-6.0, 4.0 * sign)
            g = InitialValues(tuple(complex(a, b)
                                    for a, b in rng.normal(size=(4, 2))))
            cd = characterize(c)
            assert cd.root_class is cls
            w = eval_range(g, c, -20, 20).values
            closed = xi_closed(g, cd, -20, 20).values
            scale = max(abs(v) for v in w) or 1.0
            worst = max(worst, max(abs(x - y) for x, y in zip(closed, w)) / scale)
    elapsed = time.time() - start
    report("closed form vs recursion (200 draws per root class)",
           worst < 1e-9 and elapsed < 10.0,
           f"max rel err {worst:.3e}, {elapsed:.2f} s")


def test_03_t1_zero_spectra():
    worst = 0.0
    ok_mult = True
    for n in (4, 5, 20, 21):
        for mu in (0.0, 0.7):
            for t2 in (1.0, -2.0):
                p = ChainParams(mu=mu, t1=0.0, t2=t2, n=n)
                exact = np.array(t1_zero_spectrum(p))
                w = chain_eigh(p)[0]
                worst = max(worst, float(np.abs(exact - w).max()))
                if n % 2 == 0:
                    vals, counts = np.unique(np.round(exact, 9),
                                             return_counts=True)
                    ok_mult &= bool(np.all(counts == 2))
    report("decoupled-sublattice spectra vs banded eigensolve",
           worst < 1e-10 and ok_mult,
           f"max abs dev {worst:.3e}, even-N multiplicity 2: {ok_mult}")


def test_04_crossing_counts_and_degeneracy():
    ok = True
    for n in range(2, 21, 2):
        ok &= len(crossings(n)) == n * n // 4
    for n in range(3, 22, 2):
        ok &= len(crossings(n)) == (n * n - 1) // 4
    worst_gap = 0.0
    for rec in crossings(6):
        p = ChainParams(mu=0.0, t1=rec.t1_over_t2, t2=1.0, n=6)
        w = chain_eigh(p)[0]
        gaps = np.sort(np.abs(w - rec.e))
        worst_gap = max(worst_gap, float(gaps[1]))
    report("crossing enumeration counts and N=6 degeneracy check",
           ok and worst_gap < 1e-8, f"worst pair gap {worst_gap:.3e}")


def test_05_quantization_residual():
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (5, 10, 20, 40):
        for _ in range(10):
            t2 = 0.0
            while abs(t2) < 0.2:
                t2 = rng.normal()
            p = ChainParams(mu=rng.normal(), t1=rng.normal(), t2=t2, n=n)
            for m in spectrum(p):
                worst = max(worst, m.quant_residual)
    report("quantization residual for all non-degenerate modes",
           worst < 1e-6, f"max residual {worst:.3e}")


def test_06_parity_branch_product():
    rng = np.random.default_rng(11)
    ok = True
    for n in range(2, 22):
        for _ in range(20):
            t2 = 0.0
            while abs(t2) < 0.2:
                t2 = rng.normal()
            p = ChainParams(mu=rng.normal(), t1=rng.normal(), t2=t2, n=n)
            for m in spectrum(p):
                ok &= m.s_q * m.lambda_i == -1
    report("branch-parity product s_q * lambda_i = -1 (N in 2..21, 20 draws)", ok)


def test_07_arrow_reproduction():
    n = 50
    violations = 0
    checked = 0
    complex_seen_beyond = False
    for eta in np.linspace(-6.0, 6.0, 50):
        p = ChainParams(mu=0.0, t1=-eta, t2=1.0, n=n)
        for m in spectrum(p):
            zeta = float(coeffs_from_energy(m.e, p).zeta.real)
            upper = 2.0 - 2.0 * abs(eta)
            lower = -2.0 - eta * eta / 4.0
            if abs(zeta - upper) < 1e-3 or abs(zeta - lower) < 1e-3:
                continue
            checked += 1
            cls = arrow_classify(zeta, float(eta))
            imags = sorted((abs(m.k1.imag), abs(m.k2.imag)))
            if cls is Arrow.INSIDE:
                if not (imags[1] < 1e-7):
                    violations += 1
            elif cls is Arrow.OUTSIDE:
                if not (imags[1] > 1e-4 and imags[0] < 1e-4):
                    violations += 1
            if abs(eta) > 4.0 and imags[1] > 1e-4:
                complex_seen_beyond = True
    report("arrow region vs wavevector reality on 50x50 sweep",
           violations == 0 and complex_seen_beyond,
           f"{checked} points, {violations} violations, "
           f"complex k beyond |t1| > 4|t2|: {complex_seen_beyond}")


def test_08_eigenvector_formula():
    rng = np.random.default_rng(13)
    worst = 0.0
    for n in range(3, 26):
        for _ in range(10):
            t2 = 0.0
            while abs(t2) < 0.2:
                t2 = rng.normal()
            p = ChainParams(mu=rng.normal(), t1=rng.normal(), t2=t2, n=n)
            w, v = chain_eigh(p)
            for idx in range(n):
                try:
                    vec = eigenvector_tetranacci(float(w[idx]), p)
                except PreconditionError:
                    continue
                vec = vec / np.linalg.norm(vec)
                dense = v[:, idx]
                dev = min(np.abs(vec - dense).max(), np.abs(vec + dense).max())
                worst = max(worst, float(dev))
    report("closed-form eigenvectors vs banded eigensolve (N in 3..25, 10 draws)",
           worst < 1e-7, f"max abs dev {worst:.3e}")


def test_09_kitaev_consistency():
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in range(2, 13):
        for _ in range(20):
            t, delta = rng.normal(), rng.normal()
            if abs(t * t - delta * delta) < 1e-2:
                delta = t + math.copysign(0.5, delta)
            p = KitaevParams(mu=rng.normal(), t=t, delta=delta, n=n)
            a = np.array(kitaev_spectrum(p))
            b = np.array(bdg_spectrum(p))
            scale = max(1.0, float(np.abs(b).max()))
            worst = max(worst, float(np.abs(np.sort(a) - np.sort(b)).max()) / scale)
    w = np.linalg.eigvalsh(effective_h_matrix(KitaevParams(mu=0.0, t=1.0, delta=1.0, n=10)))
    zero = abs(float(w[0]))
    report("Kitaev sublattice vs particle-hole spectra; Majorana zero mode",
           worst < 1e-8 and zero < 1e-10,
           f"max spectral dev {worst:.3e}, zero mode {zero:.3e}")


def test_10_transport_equivalence():
    rng = np.random.default_rng(19)
    worst = 0.0
    t_bad = 0
    for _ in range(10):
        n = int(rng.integers(3, 31))
        chain = ChainParams(mu=rng.normal(), t1=rng.normal(),
                            t2=rng.normal() + math.copysign(0.5, rng.normal()),
                            n=n)
        s = TransportSetup(chain,
                           LeadParams(abs(rng.normal()) + 0.1, 0.2 * rng.normal()),
                           LeadParams(abs(rng.normal()) + 0.1, 0.2 * rng.normal()))
        for e in np.linspace(-4.0, 4.0, 200):
            gt = green_1n_tetranacci(float(e), s)
            gd = green_1n_dense(float(e), s)
            worst = max(worst, abs(gt - gd) / abs(gd))
            t_val = transmission(float(e), s)
            if not 0.0 <= t_val <= 1.0 + 1e-9:
                t_bad += 1
    s = TransportSetup(ChainParams(mu=0.3, t1=1.0, t2=0.8, n=5),
                       LeadParams(0.5), LeadParams(0.5))
    v = 1e-6 * 4.0  # bandwidth-scaled probe bias
    didv = current(v, math.inf, s) / v
    g0 = transmission(0.0, s)
    cond_dev = abs(didv - g0) / abs(g0)
    report("corner Green's function vs dense; transmission bound; conductance",
           worst < 1e-8 and t_bad == 0 and cond_dev < 1e-4,
           f"max G rel err {worst:.3e}, T out of bounds: {t_bad}, "
           f"dI/dV dev {cond_dev:.3e}")


def test_11_figure_shape_reproduction():
    ok_cross = True
    worst_gap_at_crossing = 0.0
    for n in (20, 21):
        recs = crossings(n)
        # spot-check a handful of crossing parameters for actual degeneracy
        for rec in recs[:: max(1, len(recs) // 8)]:
            p = ChainParams(mu=0.0, t1=rec.t1_over_t2, t2=1.0, n=n)
            w = chain_eigh(p)[0]
            gaps = np.sort(np.abs(w - rec.e))
            worst_gap_at_crossing = max(worst_gap_at_crossing, float(gaps[1]))
        # on a generic eta grid any numerically degenerate pair must sit at
        # a crossing record's (eta, zeta)
        cross_pts = [(r.eta, r.zeta) for r in recs]
        for eta in np.linspace(-6.0, 6.0, 41):
            p = ChainParams(mu=0.0, t1=-float(eta), t2=1.0, n=n)
            w = chain_eigh(p)[0]
            for i in range(n - 1):
                if w[i + 1] - w[i] < 1e-8:
                    zeta = -float(w[i])
                    near = min(abs(eta - ce) + abs(zeta - cz)
                               for ce, cz in cross_pts)
                    ok_cross &= near < 1e-6
    # no degeneracies at eta = 0 for odd N
    w = chain_eigh(ChainParams(0.0, 0.0, 1.0, 21))[0]
    ok_odd = float(np.diff(w).min()) > 1e-6
    # multiset symmetry under eta -> -eta
    worst_sym = 0.0
    for n in (20, 21):
        for eta in np.linspace(0.0, 6.0, 13):
            wp = chain_eigh(ChainParams(0.0, -eta, 1.0, n))[0]
            wm = chain_eigh(ChainParams(0.0, eta, 1.0, n))[0]
            worst_sym = max(worst_sym, float(np.abs(np.sort(wp) - np.sort(wm)).max()))
    report("spectral-map shape: crossings, odd-N non-degeneracy, eta symmetry",
           ok_cross and ok_odd and worst_sym < 1e-9
           and worst_gap_at_crossing < 1e-8,
           f"crossing gap {worst_gap_at_crossing:.3e}, "
           f"eta-flip dev {worst_sym:.3e}")
