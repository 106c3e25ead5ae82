"""Independent numpy/scipy oracles for the CLI's output rows.

Every matrix here is built by the benchmark itself, not taken from the
library.  Each check returns one verdict per emitted row.  Tolerances are
those of `tests/test_acceptance.py` where one exists: 1e-10 for the
chain spectrum (test_03), 1e-8 for the Kitaev spectrum (test_09), 1e-8
relative for |G_1N| and T <= 1 + 1e-9 (test_10).  No acceptance test
compares the current with a dense integral, so that check uses 1e-6
relative, a thousand times the quadrature tolerance of 1e-9.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

SPECTRUM_TOL = 1e-10
KITAEV_TOL = 1e-8
GREEN_REL_TOL = 1e-8
TRANSMISSION_MAX = 1.0 + 1e-9
CURRENT_ABS_TOL = 1e-9
CURRENT_REL_TOL = 1e-6


def pentadiagonal(n, mu, t1, t2):
    """Open chain: onsite -mu, nearest hopping -t1, next-nearest -t2."""
    h = np.diag(np.full(n, -mu))
    for k, t in ((1, t1), (2, t2)):
        band = np.full(n - k, -t)
        h += np.diag(band, k) + np.diag(band, -k)
    return h


def bdg(n, mu, t, delta):
    """Kitaev chain in the particle-hole basis, antisymmetric pairing."""
    h0 = pentadiagonal(n, mu, t, 0.0)
    pair = np.diag(np.full(n - 1, delta), 1)
    pair = pair - pair.T
    return np.block([[h0, pair], [pair.T, -h0]])


def _grid(raw):
    lo, hi, steps = raw.split(":")
    return np.linspace(float(lo), float(hi), int(steps))


def _spectral_rows(rows, key, grid, size, matrix_of, tol):
    """Group rows by their `key` value; each group must equal eigvalsh of its matrix."""
    groups = {float(x): [] for x in grid}
    ok = [False] * len(rows)
    for i, row in enumerate(rows):
        group = groups.get(float(row[key]))
        if group is not None:
            group.append(i)
    for x, idx in groups.items():
        if len(idx) != size:
            continue
        w = np.linalg.eigvalsh(matrix_of(x))
        scale = max(1.0, float(np.abs(w).max()))
        got = sorted(idx, key=lambda i: float(rows[i]["e"]))
        for i, ref in zip(got, w):
            ok[i] = abs(float(rows[i]["e"]) - ref) <= tol * scale
    return ok


def check_spectrum(p, rows):
    n = p["n"]
    if len(rows) != n:
        return [False] * len(rows)
    w = np.linalg.eigvalsh(pentadiagonal(n, p["mu"], p["t1"], p["t2"]))
    scale = max(1.0, float(np.abs(w).max()))
    return [abs(float(r["e"]) - ref) <= SPECTRUM_TOL * scale for r, ref in zip(rows, w)]


def check_sweep(p, rows):
    return _spectral_rows(
        rows, "eta", _grid(p["sweep_eta"]), p["n"],
        lambda eta: pentadiagonal(p["n"], p["mu"], -eta * p["t2"], p["t2"]),
        SPECTRUM_TOL)


def check_kitaev(p, rows):
    return _spectral_rows(
        rows, "mu", _grid(p["mu_grid"]), 2 * p["n"],
        lambda mu: bdg(p["n"], mu, p["t"], p["delta"]), KITAEV_TOL)


def _green_1n(e, h, p):
    """Corner entry of (E - H - Sigma)^-1, leads at the two end sites."""
    a = e * np.eye(len(h), dtype=complex) - h
    a[0, 0] += 1j * p["gamma_l"]
    a[-1, -1] += 1j * p["gamma_r"]
    rhs = np.zeros(len(h), dtype=complex)
    rhs[-1] = 1.0
    return complex(np.linalg.solve(a, rhs)[0])


def _transmission(e, h, p):
    return 4.0 * p["gamma_l"] * p["gamma_r"] * abs(_green_1n(e, h, p)) ** 2


def check_transmission(p, rows):
    h = pentadiagonal(p["n"], p["mu"], p["t1"], p["t2"])
    grid = {float(x) for x in _grid(p["e_grid"])}
    couple = 4.0 * p["gamma_l"] * p["gamma_r"]
    ok = []
    for row in rows:
        e, t = float(row["e"]), float(row["transmission"])
        ref = abs(_green_1n(e, h, p))
        got = math.sqrt(max(t, 0.0) / couple)
        ok.append(e in grid and 0.0 <= t <= TRANSMISSION_MAX
                  and abs(got - ref) <= GREEN_REL_TOL * ref)
    return ok


def _fermi_window(x, v, beta):
    # f(x) - f(x + v) with f(x) = (1 - tanh(beta x / 2)) / 2
    return 0.5 * (math.tanh(0.5 * beta * (x + v)) - math.tanh(0.5 * beta * x))


def reference_current(v, beta, p):
    """Dense-integrand current at bias v > 0 (units e/h)."""
    h = pentadiagonal(p["n"], p["mu"], p["t1"], p["t2"])
    if math.isinf(beta):
        f, lo, hi = (lambda x: _transmission(x, h, p)), -v, 0.0
    else:
        pad = 40.0 / beta
        f = lambda x: _transmission(x, h, p) * _fermi_window(x, v, beta)
        lo, hi = -v - pad, pad
    value, _ = integrate.quad(f, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=400)
    return value


def check_current(p, rows):
    """0 <= I <= V on every row; the largest bias also against a dense integral."""
    beta = math.inf if p["beta"] == "inf" else float(p["beta"])
    grid = {float(x) for x in _grid(p["v_grid"])}
    ok = []
    for row in rows:
        v, i = float(row["v"]), float(row["current"])
        tol = CURRENT_ABS_TOL * max(1.0, v)
        ok.append(v in grid and v > 0.0 and -tol <= i <= v + tol)
    if rows:
        top = max(range(len(rows)), key=lambda k: float(rows[k]["v"]))
        v, i = float(rows[top]["v"]), float(rows[top]["current"])
        ref = reference_current(v, beta, p)
        ok[top] = ok[top] and abs(i - ref) <= CURRENT_REL_TOL * abs(ref)
    return ok


def check_verify(p, rows):
    return [row.get("passed") is True for row in rows]
