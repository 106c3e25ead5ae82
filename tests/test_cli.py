import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tetranacci
from tetranacci import cli
from tetranacci.chain import ChainParams, build_chain_matrix
from tetranacci.cli import main
from tetranacci.kitaev import KitaevParams, kitaev_effective_coeffs
from tetranacci.transport import LeadParams, TransportSetup, fermi

import argparse_oracle
from band_oracle import bdg_spectrum
from dense_oracle import transmission_dense


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_basic_window(capsys):
    code, out, _ = run(capsys, "seq", "--zeta", "1", "--eta", "1",
                       "--g", "0,0,0,1", "--lo", "-2", "--hi", "4")
    assert code == 0
    data = json.loads(out)
    assert data["meta"]["command"] == "seq"
    last = data["rows"][-1]
    assert last["j"] == 4
    assert complex(last["recursion"]) == 4.0  # eta^3 + 2 zeta eta + eta at (1,1)


def test_seq_degenerate_point_zero_deviation(capsys):
    code, out, _ = run(capsys, "seq", "--zeta", "-3", "--eta", "2",
                       "--g", "1,0.5,-2,0.25", "--lo", "-8", "--hi", "8")
    assert code == 0
    data = json.loads(out)
    assert all(float(r["deviation"]) <= 1e-8 for r in data["rows"])


@pytest.mark.parametrize("zeta, eta, g", [
    # zeta 1e-8 off the degenerate locus at eta = 3
    ("-4.24999999", "3", "1,0,0,0"),
    # near the corner eta = 4, zeta = -6 where both S_l approach 2
    ("-6.00000002", "4.00000001", "1,2,3,4"),
    # the constant solution at S_1 = 2 while S_2 = 4 grows like 3.7^j
    ("-10", "6", "1,1,1,1"),
])
def test_seq_near_degenerate_roots_within_bound(capsys, zeta, eta, g):
    code, _, err = run(capsys, "seq", f"--zeta={zeta}", f"--eta={eta}", "--g", g,
                       "--lo", "-20", "--hi", "20")
    assert code == 0, err


def test_seq_empty_range_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "--zeta", "1", "--eta", "1", "--g", "0,0,0,1",
              "--lo", "4", "--hi", "2"])
    assert exc.value.code == 2


def test_seq_csv_header(capsys):
    code, out, _ = run(capsys, "seq", "--zeta", "1", "--eta", "1",
                       "--g", "0,0,0,1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["j", "recursion", "closed", "deviation"]


def test_seq_single_mode_columns(capsys):
    code, out, _ = run(capsys, "seq", "--zeta", "1", "--eta", "1",
                       "--g", "0,0,0,1", "--mode", "recursion")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert "closed" not in row and "deviation" not in row


def test_spectrum_n4_t1_zero(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--t1", "0", "--t2", "1")
    assert code == 0
    energies = sorted(float(r["e"]) for r in json.loads(out)["rows"])
    assert energies == pytest.approx([-1, -1, 1, 1], abs=1e-10)


def test_spectrum_sweep_row_count(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--t2", "1",
                       "--sweep-eta", "-6:6:11")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4 * 11
    assert {"eta", "zeta", "e", "arrow"} <= set(rows[0])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_t2_zero(capsys, fmt):
    # the nearest-neighbour chain has no coefficient map, so the fields it
    # would give are null (JSON) or empty (CSV), but for its own wavevector
    # k1, and the spectrum is emitted
    code, out, err = run(capsys, "spectrum", "--n", "5", "--mu", "0.2", "--t1", "1",
                         "--t2", "0", "--format", fmt)
    assert code == 0, err
    rows = json.loads(out)["rows"] if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
    empty = None if fmt == "json" else ""
    for m, row in enumerate(rows, 1):
        assert all(row[k] == empty for k in ("k2", "k_plus", "k_minus", "s_q",
                                             "arrow", "quant_residual"))
        assert complex(row["k1"]) == pytest.approx(m * math.pi / 6, abs=1e-14)
    want = sorted(-0.2 - 2.0 * math.cos(m * math.pi / 6) for m in range(1, 6))
    assert [float(r["e"]) for r in rows] == pytest.approx(want, abs=1e-14)
    h = build_chain_matrix(ChainParams(mu=0.2, t1=1.0, t2=0.0, n=5))
    for row in rows:
        vec = np.array([float(x) for x in row["vector"].split(";")])
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-14
        assert np.abs(h @ vec - float(row["e"]) * vec).max() <= 1e-14
        assert int(row["lambda_i"]) * vec == pytest.approx(vec[::-1], abs=0)


def test_spectrum_sweep_t2_zero(capsys):
    # t2 = 0 makes every chain of the sweep the bare on-site level -mu
    code, out, err = run(capsys, "spectrum", "--n", "3", "--mu", "0.5", "--t2", "0",
                         "--sweep-eta", "-1:1:3")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 9
    assert all(r["zeta"] is None and r["arrow"] is None for r in rows)
    assert [float(r["e"]) for r in rows] == pytest.approx([-0.5] * 9, abs=1e-15)


def test_crossings_counts(capsys):
    code, out, _ = run(capsys, "crossings", "--n", "20")
    assert code == 0
    data = json.loads(out)
    assert data["meta"]["count"] == 100 and len(data["rows"]) == 100
    code, out, _ = run(capsys, "crossings", "--n", "21")
    assert json.loads(out)["meta"]["count"] == 110


def test_crossings_csv_count_line(capsys):
    code, out, _ = run(capsys, "crossings", "--n", "4", "--format", "csv")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "count: 4"


def test_arrow_grid(capsys):
    code, out, _ = run(capsys, "arrow", "--eta-grid", "-6:6:5",
                       "--zeta-grid", "-6:6:5")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 25
    by_point = {(float(r["eta"]), float(r["zeta"])): r["arrow"] for r in rows}
    assert by_point[(0.0, 0.0)] == "inside"
    assert by_point[(6.0, 0.0)] == "outside"


def test_kitaev_rows(capsys):
    code, out, _ = run(capsys, "kitaev", "--n", "4", "--t", "1",
                       "--delta", "0.5", "--mu-grid", "0:1:3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3 * 8  # 2N energies per mu
    assert {"mu", "e", "zeta", "eta"} <= set(rows[0])


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_kitaev_sweet_spot(capsys, fmt):
    # t = delta: t2_eff = 0 leaves the coefficient map undefined, but the
    # spectrum, with its Majorana pair at +-0, is still emitted
    code, out, _ = run(capsys, "kitaev", "--n", "10", "--t", "1", "--delta", "1",
                       "--mu-grid", "0:0:1", "--format", fmt)
    assert code == 0
    if fmt == "json":
        rows = json.loads(out)["rows"]
        assert all(r["zeta"] is None and r["eta"] is None for r in rows)
    else:
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["zeta"] == "" and r["eta"] == "" for r in rows)
    got = sorted(float(r["e"]) for r in rows)
    want = bdg_spectrum(KitaevParams(mu=0.0, t=1.0, delta=1.0, n=10))
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8 * max(1.0, max(want))
    assert len(got) == 20 and abs(got[9]) < 1e-12 and abs(got[10]) < 1e-12


def test_transport_transmission_grid(capsys):
    code, out, _ = run(capsys, "transport", "--n", "5", "--t1", "1",
                       "--t2", "0.8", "--gamma-l", "0.5", "--gamma-r", "0.5",
                       "--e-grid", "-2:2:9")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 9
    assert all(0.0 <= float(r["transmission"]) <= 1.0 + 1e-9 for r in rows)


def test_transport_current_grid(capsys):
    code, out, _ = run(capsys, "transport", "--n", "4", "--t1", "1",
                       "--t2", "0.8", "--v-grid", "0:1:3")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert float(rows[0]["current"]) == 0.0


def test_transport_requires_one_grid(capsys):
    for grids in ((), ("--e-grid", "-1:1:3", "--v-grid", "0.5:2:2")):
        with pytest.raises(SystemExit) as exc:
            main(["transport", "--n", "4", *grids])
        assert exc.value.code == 2


def test_verify_suites_pass(capsys):
    for suite in ("lemmata", "oracle"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--seed", "1")
        assert code == 0
        assert "FAIL" not in err


def test_verify_deterministic_output(capsys):
    # every field but the suite's elapsed time repeats
    runs = [json.loads(run(capsys, "verify", "--suite", "closed-form", "--seed", "7")[1])
            for _ in range(2)]
    for data in runs:
        for row in data["rows"]:
            assert float(row.pop("elapsed_s")) > 0.0
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_rows_carry_elapsed_seconds(capsys, fmt):
    code, out, err = run(capsys, "verify", "--suite", "all", "--seed", "0", "--format", fmt)
    assert code == 0
    rows = json.loads(out)["rows"] if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
    assert [list(row) for row in rows] == [["check", "passed", "detail", "elapsed_s"]] * 9
    elapsed = {}
    for row in rows:
        assert row["passed"] in (True, "True")
        elapsed.setdefault(row["check"].split(":")[0], set()).add(float(row["elapsed_s"]))
    # one time per suite, on each of its rows
    assert list(elapsed) == ["lemmata", "closed-form", "oracle", "transport"]
    assert all(len(t) == 1 and min(t) > 0.0 for t in elapsed.values())
    assert err.splitlines()[0] == \
        "[PASS] lemmata: inversion identities (4 relations): j in [-12, 12]"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out, _ = run(capsys, "seq", "--zeta", "1", "--eta", "1",
                       "--g", "0,0,0,1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["meta"]["command"] == "seq"


@pytest.mark.filterwarnings("error")
def test_strongest_leads_transmit_nothing(capsys):
    # gamma_L = gamma_R = 1e308 at E = 0 on two decoupled sublattices: the
    # exact T = 4 gamma^2 / (gamma^2 + 1)^2 ~ 4e-616 rounds to 0, once 2
    # gamma no longer overflows on the way
    code, out, err = run(capsys, "transport", "--n", "3", "--gamma-l", "1e308",
                         "--gamma-r", "1e308", "--e-grid", "0:0:1")
    assert code == 0, err
    assert json.loads(out)["rows"] == [{"e": "0", "transmission": "0"}]


@pytest.mark.parametrize("grid", ["--e-grid", "--v-grid"])
def test_transport_strong_leads(capsys, grid):
    # 4 gamma_L gamma_R overflows and |G_1N|^2 underflows, so their product
    # is inf * 0 = nan, and nan residues send the current to a quadrature
    # that does not converge; T and the current are 0 to doubles
    code, out, err = run(capsys, "transport", "--n", "3", "--t1", "1", "--t2", "1",
                         "--gamma-l", "1e200", "--gamma-r", "1e200", grid, "1:1:1")
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    assert float(row["transmission" if grid == "--e-grid" else "current"]) == 0.0


def _sublattice_setup():
    # at t1 = 0 and odd N the odd sites 1, 3, 5 form a nearest-neighbour
    # chain with hopping t2, which carries G_1N; the even sublattice touches
    # neither lead, and at its eigenvalue E = -t2 the boundary system and
    # the full dense system are both exactly singular
    full = TransportSetup(ChainParams(mu=0.0, t1=0.0, t2=1.0, n=5),
                          LeadParams(0.5), LeadParams(0.5))
    odd = TransportSetup(ChainParams(mu=0.0, t1=1.0, t2=0.0, n=3),
                         LeadParams(0.5), LeadParams(0.5))
    return full, odd


def test_transport_at_decoupled_eigenvalue(capsys):
    code, out, err = run(capsys, "transport", "--n", "5", "--t1", "0", "--t2", "1",
                         "--gamma-l", "0.5", "--gamma-r", "0.5", "--e-grid", "-1:-1:1")
    assert code == 0, err
    _, odd = _sublattice_setup()
    got = float(json.loads(out)["rows"][0]["transmission"])
    assert abs(got - transmission_dense(-1.0, odd)) <= 1e-14


def test_current_probe_at_decoupled_eigenvalue(capsys):
    # the probe is Re z_k = +-1.39 of the worst-conditioned pole clipped into
    # the window, [-1, 0] at V = 1 and [0, 1] at V = -1: at one of the two
    # biases it falls on a decoupled eigenvalue, E = -1 or E = 1
    from scipy import integrate
    code, out, err = run(capsys, "transport", "--n", "5", "--t1", "0", "--t2", "1",
                         "--gamma-l", "0.5", "--gamma-r", "0.5", "--v-grid", "-1:1:2")
    assert code == 0, err
    full, _ = _sublattice_setup()
    for row in json.loads(out)["rows"]:
        v = float(row["v"])
        want, _ = integrate.quad(lambda x: transmission_dense(x, full), min(0.0, -v),
                                 max(0.0, -v), epsabs=1e-13, epsrel=1e-12, limit=400)
        got = float(row["current"])
        assert abs(got - math.copysign(want, v)) <= 1e-9 * want


@pytest.mark.parametrize("t2", ["0", "1e-320"])
def test_transport_transmission_without_coefficient_map(capsys, t2):
    # t2 = 0, or a t2 so small that eta = -t1 / t2 overflows: the boundary
    # solve has no coefficient map, and the dense trace formula answers
    code, out, err = run(capsys, "transport", "--n", "6", "--mu", "0.2", "--t1", "1",
                         f"--t2={t2}", "--gamma-l", "0.5", "--gamma-r", "0.3",
                         "--e-grid", "-1:1:5")
    assert code == 0, err
    s = TransportSetup(ChainParams(mu=0.2, t1=1.0, t2=float(t2), n=6),
                       LeadParams(0.5), LeadParams(0.3))
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for row in rows:
        assert float(row["transmission"]) == transmission_dense(float(row["e"]), s)


@pytest.mark.parametrize("argv", [
    # eta = -t1/t2 overflows a double
    ("spectrum", "--n", "3", "--t1", "1", "--t2", "1e-320"),
    # the characteristic roots overflow
    ("seq", "--zeta", "1e308", "--eta", "1e308", "--g", "1,1,1,1",
     "--lo", "-5", "--hi", "50"),
    # the replayed window leaves the finite doubles
    ("seq", "--zeta", "1e308", "--eta", "1e308", "--g", "1,1,1,1",
     "--lo", "-5", "--hi", "50", "--mode", "recursion"),
    # the closed-form window leaves the finite doubles
    ("seq", "--zeta", "3", "--eta", "3", "--g", "1e300,1e300,0,0",
     "--lo", "-30", "--hi", "30", "--mode", "closed"),
    # t + delta = inf puts the Kitaev chain's Majorana matrix A past the
    # doubles; at t = mu = 1.7e308 A is finite, but its largest singular value
    # E is not
    ("kitaev", "--n", "3", "--t", "1e308", "--delta", "1e308", "--mu-grid", "0:0:1"),
    ("kitaev", "--n", "3", "--t", "1.7e308", "--delta", "0", "--mu-grid", "1.7e308:1.7e308:1"),
    # G_11 = 1 / (2e-310 i) of one site between two leads is past the largest
    # double in the boundary and in the dense solve
    ("transport", "--n", "1", "--t1", "1", "--gamma-l", "1e-310", "--gamma-r", "1e-310",
     "--e-grid", "0:0:1"),
    # the mirror-sector matrices of entries of 1e308 overflow before the
    # eigensolve, with no numpy warning on the way
    ("spectrum", "--n", "3", "--mu", "1e308", "--t1", "1e308", "--t2", "1e308"),
    # E + mu = 2e308: no coefficient map, and E - H_eff of the dense solve
    # overflows too
    ("transport", "--n", "3", "--mu", "1e308", "--t1", "1", "--t2", "1",
     "--e-grid", "1e308:1e308:1"),
    # -mu + Lambda_L = 2e308 in the H_eff of the current's eigendecomposition
    ("transport", "--n", "3", "--mu", "-1e308", "--t1", "1", "--lambda-l", "1e308",
     "--v-grid", "1:1:1"),
])
@pytest.mark.filterwarnings("error")
def test_overflow_is_numerical_failure(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert "numerical failure" in err


def test_transport_at_largest_chain_entries(capsys):
    # no overflow at entries of 1e308: the row is the one printed at mu =
    # 1e307, where T ~ 1e-616.  At mu = 1e308 the coefficient map rounds E + mu
    # to mu, and the exact solve answers for E = 0, where G_13 = 0 exactly;
    # the unrounded E = 1 would give T = 0.2 in a system of condition ~1e308
    rows = []
    for mu in ("1e307", "1e308"):
        code, out, err = run(capsys, "transport", "--n", "3", "--mu", mu, "--t1", "1e308",
                             "--t2", "1e308", "--e-grid", "1:1:1")
        assert code == 0, err
        rows.append(json.loads(out)["rows"])
    assert rows[0] == rows[1] == [{"e": "1", "transmission": "0"}]


def test_transport_at_barely_coupled_sublattices(capsys):
    # t1 = 2.2e-311: at E = 0, G_13 = (1 + i) / 4 for any t1 != 0, so T = 1/2
    code, out, err = run(capsys, "transport", "--n", "3", "--t1", "2.225073858507e-311",
                         "--t2", "1", "--gamma-l", "1", "--gamma-r", "1",
                         "--e-grid", "0:0:1")
    assert code == 0, err
    got = float(json.loads(out)["rows"][0]["transmission"])
    assert abs(got - 0.5) <= math.ulp(0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta, grid", [("0.5", "1e160:1e160:1"), ("1", "1e160:1e160:1"),
                                         ("0.5", "0:1e308:2")],
                         ids=["mu1e160", "sweet-spot-mu1e160", "mu1e308"])
def test_kitaev_huge_mu_gets_rows(capsys, delta, grid):
    # mu^2 = 1e320 is past the doubles, and with it the sublattice matrix h
    # and the map's onsite energy, but A and its singular values E are not:
    # finite energies E = |mu| + O(1), away from and at the sweet spot t =
    # delta, and at mu = 1e308; the map is null only at the huge mu
    code, out, err = run(capsys, "kitaev", "--n", "3", "--t", "1", "--delta", delta,
                         "--mu-grid", grid)
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 6 * len(set(r["mu"] for r in rows))
    for r in rows:
        mu = float(r["mu"])
        assert abs(abs(float(r["e"])) - mu) <= 2.0 + 1e-15 * mu
        assert (r["zeta"] is None) == (mu > 1e150 or delta == "1")
        assert (r["eta"] is None) == (r["zeta"] is None)


def test_kitaev_overflowing_map_is_null(capsys):
    # t^2 - delta^2 = 1e-310: the spectrum is finite, but eta = -2 t mu /
    # 1e-310 overflows, so the map is left empty as at the sweet spot
    code, out, err = run(capsys, "kitaev", "--n", "3", "--t", "1e-155", "--delta", "0",
                         "--mu-grid", "1e154:1e154:1")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    assert all(r["zeta"] is None and r["eta"] is None and math.isfinite(float(r["e"]))
               for r in rows)


@pytest.mark.filterwarnings("error")
def test_kitaev_two_sites_overflowing_bulk_is_null(capsys):
    # N = 2 has no bulk site: h = diag(t^2, t^2) = 1e308 is finite, but the
    # onsite energy 2 t^2 of the map's chain is not, so the map is left empty
    code, out, err = run(capsys, "kitaev", "--n", "2", "--t", "1e154", "--delta", "0",
                         "--mu-grid", "0:0:1")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [r["e"] for r in rows] == ["-1e+154", "-1e+154", "1e+154", "1e+154"]
    assert all(r["zeta"] is None and r["eta"] is None for r in rows)


@pytest.mark.filterwarnings("error")
def test_kitaev_rows_past_the_doubles_alone_are_null(capsys, monkeypatch):
    # the map is one batch per mu; an energy whose E^2 overflows empties
    # its own rows only, and the others keep the single call's zeta and eta
    energies = [-1e200, -1.0, 1.0, 1e200]
    monkeypatch.setattr(cli, "kitaev_spectrum", lambda p: energies)
    code, out, err = run(capsys, "kitaev", "--n", "4", "--t", "1", "--delta", "0.3",
                         "--mu-grid", "0.5:0.5:1")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [r["zeta"] is None and r["eta"] is None for r in rows] == [True, False, False, True]
    c = kitaev_effective_coeffs(1.0, KitaevParams(mu=0.5, t=1.0, delta=0.3, n=4))
    assert all(r["zeta"] == cli._fmt(c.zeta) and r["eta"] == cli._fmt(c.eta) for r in rows[1:3])


@pytest.mark.parametrize("grid, column", [
    (("--e-grid", "-1:1:3"), "transmission"),
    (("--v-grid", "0.5:2:2"), "current"),
])
def test_transport_decoupled_lead_is_zero(capsys, grid, column):
    # gamma_L = 0: T vanishes identically, even at the decoupled
    # eigenvalues E = -1, 1 where the boundary system is singular
    code, out, _ = run(capsys, "transport", "--n", "4", "--mu", "0", "--t1", "0",
                       "--t2", "1", "--gamma-l", "0", "--gamma-r", "0.5", *grid)
    assert code == 0
    assert all(float(r[column]) == 0.0 for r in json.loads(out)["rows"])


@pytest.mark.parametrize("argv, key, value", [
    (("spectrum", "--n", "10", "--mu", "-2e-05"), "mu", -2e-05),
    (("transport", "--n", "4", "--t1", "1", "--t2", "0.8", "--lambda-l", "-1e-3",
      "--e-grid", "-1:1:3"), "lambda_l", -1e-3),
])
def test_negative_exponent_values(capsys, argv, key, value):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["meta"][key] == value


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", "0"),
    ("spectrum", "--n", "4", "--mu", "nan"),
    ("kitaev", "--n", "1", "--t", "1", "--delta", "0.3", "--mu-grid", "0:1:3"),
    ("seq", "--zeta", "nan", "--eta", "1", "--g", "0,0,0,1"),
    ("transport", "--n", "4", "--beta", "nan", "--v-grid", "1:1:1"),
    ("crossings", "--n", "0"),
    ("crossings", "--n", "1"),
    ("verify", "--seed", "-1"),
    # non-finite grid end points, or a span that overflows
    ("arrow", "--eta-grid", "0:nan:3", "--zeta-grid", "0:1:2"),
    ("arrow", "--eta-grid", "-1e308:1e308:3", "--zeta-grid", "0:1:2"),
    ("transport", "--n", "4", "--e-grid", "nan:nan:1"),
    ("transport", "--n", "4", "--v-grid", "0:inf:2"),
    ("spectrum", "--n", "4", "--sweep-eta", "-inf:0:3"),
    # t1 = -eta t2 past the doubles
    ("spectrum", "--n", "4", "--t2", "10", "--sweep-eta", "1e308:1e308:2"),
    # an --out path that cannot be written
    ("seq", "--zeta", "1", "--eta", "1", "--g", "0,0,0,1",
     "--out", "/nonexistent-dir/x.json"),
])
def test_invalid_parameters_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_grid_past_memory_is_a_usage_error(capsys):
    # 10^15 doubles (8 PB) are more than a process can map, so numpy's
    # allocation fails at once, whatever the overcommit, touching no memory
    with pytest.raises(SystemExit) as exc:
        main(["transport", "--n", "3", "--e-grid", "0:1:1000000000000000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --e-grid: grid must be min:max:steps" in err
    assert "Traceback" not in err


def test_transport_weak_coupling_current(capsys):
    # 100 resonances about 1e-4 wide, on which a plain adaptive quadrature
    # of T(E) does not converge.  The reference is a quadrature of the
    # dense T split at every Re z_k of H_eff (138 s of CPU).
    code, out, err = run(capsys, "transport", "--n=100", "--mu=0", "--t1=1", "--t2=0.8",
                         "--gamma-l=0.005", "--gamma-r=0.005", "--beta=10",
                         "--v-grid=1:1:1")
    assert code == 0, err
    got = float(json.loads(out)["rows"][0]["current"])
    assert abs(got - 0.0058835205140682) <= 1e-9 * 0.0058835205140682


@pytest.mark.parametrize("beta", ["inf", "4"])
def test_transport_current_at_t2_zero(capsys, beta):
    # the pole expansion needs no coefficient map, so t2 = 0 has a current
    from scipy import integrate
    code, out, err = run(capsys, "transport", "--n", "6", "--mu", "0.2", "--t1", "1",
                         "--t2", "0", "--gamma-l", "0.5", "--gamma-r", "0.3",
                         "--beta", beta, "--v-grid", "-1:1.5:3")
    assert code == 0, err
    s = TransportSetup(ChainParams(mu=0.2, t1=1.0, t2=0.0, n=6),
                       LeadParams(0.5), LeadParams(0.3))
    b = math.inf if beta == "inf" else float(beta)
    pad = 40.0 / b
    for row in json.loads(out)["rows"]:
        v = float(row["v"])
        want, _ = integrate.quad(
            lambda x: transmission_dense(x, s) * (fermi(x, b) - fermi(x + v, b)),
            min(0.0, -v) - pad, max(0.0, -v) + pad, epsabs=1e-13, epsrel=1e-12,
            limit=400)
        assert abs(float(row["current"]) - want) <= 1e-9 * max(abs(want), abs(v))


def test_start_up_imports_no_scipy():
    # scipy's import dominated every CLI process, and the package no longer
    # uses it; numpy.polynomial is loaded only by the quadrature fallback of
    # `current`, which healthy chains never take, and the exceptional point
    # N = 2, gamma_L = 2.5, gamma_R = 0.5 does.  numpy.random (with hashlib
    # and secrets) is never needed: `verify` draws from stdlib random.
    # argparse (whose first gettext call imports locale) is not used, and
    # csv is loaded by --format csv alone
    script = (
        "import sys\n"
        "from tetranacci.cli import main\n"
        "def loaded(): return sorted(m for m in sys.modules\n"
        "                            if m.split('.')[0] == 'scipy'\n"
        "                            or m in ('argparse', 'locale', 'csv')\n"
        "                            or m.startswith(('numpy.random', 'numpy.polynomial')))\n"
        "print(loaded(), file=sys.stderr)\n"
        "main(['spectrum', '--n', '10', '--t1', '1', '--t2', '0.5'])\n"
        "print(loaded(), file=sys.stderr)\n"
        "for beta in ('inf', '10'):\n"
        "    main(['transport', '--n', '10', '--t1', '1', '--t2', '0.8', '--beta', beta,\n"
        "          '--v-grid', '0.5:2:4'])\n"
        "main(['transport', '--n', '10', '--t1', '1', '--t2', '0.8', '--e-grid', '-1:1:5'])\n"
        "print(loaded(), file=sys.stderr)\n"
        "main(['transport', '--n', '2', '--mu', '0.1', '--t1', '1', '--t2', '1',\n"
        "      '--gamma-l', '2.5', '--gamma-r', '0.5', '--v-grid', '1:1:1'])\n"
        "print([m for m in loaded() if not m.startswith('numpy.polynomial')], file=sys.stderr)\n"
        "print('numpy.polynomial.legendre' in sys.modules, file=sys.stderr)\n")
    src = str(Path(tetranacci.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == ["[]", "[]", "[]", "[]", "True"]


def _fmt_reference(value):
    """The cell formatter as first written: one str.format call per cell."""
    if isinstance(value, complex):
        return "{:.17g}".format(value.real) + ("+" if value.imag >= 0 else "-") \
            + "{:.17g}".format(abs(value.imag)) + "j"
    if isinstance(value, float):
        return "{:.17g}".format(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt_reference(v) for v in value)
    return value


# every double, subnormals, +-0.0, +-inf and nan included, as a Python
# float or a numpy float64, and complex values of either kind
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
scalars = st.one_of(floats, floats.map(np.float64),
                    st.builds(complex, floats, floats),
                    st.builds(complex, floats, floats).map(np.complex128))
cells = st.one_of(scalars, st.lists(floats, max_size=20), st.lists(scalars, max_size=20),
                  st.lists(floats, max_size=5).map(tuple), st.integers(), st.booleans(),
                  st.text(max_size=5), st.none())


@settings(max_examples=200, deadline=None)
@given(cells)
@example(-0.0)
@example(complex(-0.0, -0.0))
@example(complex(math.nan, math.nan))
@example([5e-324, -0.0, math.inf, -math.inf, math.nan, 1.0 / 3.0])
@example([np.float64(0.1), 0.2, complex(1, -2)])
def test_fmt_matches_str_format(value):
    assert cli._fmt(value) == _fmt_reference(value)


EMIT_ROWS = [
    {"j": 3, "x": 0.1, "z": complex(1.5, -0.0), "v": [1.0 / 3.0, -0.0, 5e-324],
     "ok": True, "name": "inside", "none": None},
    {"j": -1, "x": math.inf, "z": complex(-2.0, math.nan), "v": (math.nan, -math.inf),
     "ok": False, "name": "a,b", "none": None},
]


def test_emit_json_bytes(capsys):
    cli._emit(SimpleNamespace(format="json", out=None), {"command": "t"}, EMIT_ROWS)
    rows = """[
    {
      "j": 3,
      "x": "0.10000000000000001",
      "z": "1.5+0j",
      "v": "0.33333333333333331;-0;4.9406564584124654e-324",
      "ok": true,
      "name": "inside",
      "none": null
    },
    {
      "j": -1,
      "x": "inf",
      "z": "-2-nanj",
      "v": "nan;-inf",
      "ok": false,
      "name": "a,b",
      "none": null
    }
  ]"""
    meta = '{\n    "command": "t",\n    "version": "%s"\n  }' % tetranacci.__version__
    assert capsys.readouterr().out == '{\n  "meta": %s,\n  "rows": %s\n}\n' % (meta, rows)


def test_emit_csv_bytes(capsys):
    cli._emit(SimpleNamespace(format="csv", out=None), {"command": "t"}, EMIT_ROWS,
              extra_lines=["count: 2"])
    assert capsys.readouterr().out == (
        "j,x,z,v,ok,name,none\r\n"
        "3,0.10000000000000001,1.5+0j,0.33333333333333331;-0;4.9406564584124654e-324,"
        "True,inside,\r\n"
        '-1,inf,-2-nanj,nan;-inf,False,"a,b",\r\n'
        "count: 2\n")


# one valid command line per command, every flag of it set
VALID_ARGV = {
    "seq": ("seq", "--zeta", "1-2j", "--eta", "-0.5", "--g", "0,1j,2,3", "--lo=-3",
            "--hi", "5", "--mode", "closed", "--format", "csv"),
    "spectrum": ("spectrum", "--n", "6", "--mu", "-2e-05", "--t1", "1", "--t2", "0.5",
                 "--sweep-eta", "-6:6:3", "--out", "x.json"),
    "crossings": ("crossings", "--n", "7"),
    "arrow": ("arrow", "--eta-grid", "-6:6:5", "--zeta-grid", "-8:4:7"),
    "kitaev": ("kitaev", "--n", "4", "--t", "1", "--delta", "0.3", "--mu-grid", "-3:3:5"),
    "transport": ("transport", "--n", "10", "--mu", "0.1", "--t1", "1", "--t2", "0.8",
                  "--gamma-l", "0.5", "--gamma-r", "0.25", "--lambda-l", "-1e-3",
                  "--lambda-r", "0.2", "--beta", "10", "--v-grid", "0.5:2:4"),
    "verify": ("verify", "--suite", "oracle", "--seed", "3"),
}


def test_valid_argv_covers_every_command():
    assert set(VALID_ARGV) == set(cli.COMMANDS)


def _outcome(parse, argv):
    """The attributes parse(argv) gives, or the code it exits with."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


def _same_parse(got, want):
    if not isinstance(want, dict):
        return got == want
    if not isinstance(got, dict) or set(got) != set(want):
        return False
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            if not (isinstance(got[key], np.ndarray) and got[key].dtype == value.dtype
                    and np.array_equal(got[key], value)):
                return False
        # repr: nan equals nan, and -0.0 differs from 0.0
        elif type(got[key]) is not type(value) or repr(got[key]) != repr(value):
            return False
    return True


@pytest.mark.parametrize("argv", VALID_ARGV.values(), ids=VALID_ARGV)
def test_command_parser_matches_full_parser(argv):
    # the flag table parses each command as the full argparse parser does
    want = _outcome(argparse_oracle.parse, argv)
    assert isinstance(want, dict) and want["command"] == argv[0]
    assert _same_parse(_outcome(cli._parse, argv), want)


_floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_complexes = st.one_of(st.builds(complex, st.floats(-5, 5), st.floats(-5, 5)).map(cli._fmt_complex),
                       st.sampled_from(["1-2j", "-0.5", " -1 + 2j", "-j", "-2e-05"]))
_ends = st.one_of(st.floats(-10, 10).map(repr), st.just("-2e-05"))
# (good, bad) value texts by converter; good ones may start with "-" too
VALUE_TEXTS = {
    int: (st.integers(-3, 40).map(str),
          st.sampled_from(["x", "1.5", "", "-", "--1", "1e3", "-1j"])),
    float: (st.one_of(_floats, st.sampled_from(["-2e-05", "-inf", "+3", "1_0", " -7"])),
            st.sampled_from(["x", "", "-", "--1", "1,2", "-1j"])),
    cli._parse_complex: (st.one_of(_complexes, _floats),
                         st.sampled_from(["1+", "x", "--1", "", "-"])),
    cli._parse_initials: (st.lists(_complexes, min_size=4, max_size=4).map(",".join),
                          st.sampled_from(["1,2,3", "-1,2,3,4,5", "-1,x,0,0", ""])),
    cli._parse_grid: (st.tuples(_ends, _ends, st.integers(0, 4)).map(lambda t: "%s:%s:%d" % t),
                      st.sampled_from(["1:2", "-1:1:2.5", "0:1:2:3", "a:b:c", "-", "",
                                       "nan:1:2", "0:-inf:3", "-1e308:1e308:2", "0:1:-1",
                                       "0:1:1000000000000000"])),
    cli._parse_beta: (st.one_of(st.floats(1e-300, 1e300).map(repr), st.just("inf")),
                      st.one_of(_floats, st.sampled_from(["-1", "0", "-inf", "x", "", "Inf"]))),
}


def _value_texts(flag, bad):
    if flag.choices:
        return st.sampled_from(["bogus", "", "JSON", "-x", "-1"] if bad else flag.choices)
    if flag.convert is str:  # --out: any text is a path
        return st.sampled_from(["x.json", "-", "-1", "a b", "", "o=1"])
    return VALUE_TEXTS[flag.convert][bad]


@st.composite
def command_lines(draw):
    """A command and flags drawn from its table: split or `=` forms, full
    names or prefixes (ambiguous ones too), repeats, good and bad values,
    required flags left out, both grids of `transport` or none, and stray
    tokens.  A path for --out never starts with "-" and a letter, which
    argparse alone refuses (see `argparse_oracle`)."""
    command = draw(st.sampled_from(list(cli.COMMANDS.values())))
    flags = list(command.flags.values())
    chosen = [f for f in flags if f.required and draw(st.integers(0, 9)) > 0]
    chosen += draw(st.lists(st.sampled_from(flags), max_size=6))
    chosen += [command.flags[n] for n in command.one_of if draw(st.integers(0, 3)) > 1]
    items = []
    for flag in chosen:
        cut = draw(st.integers(3, len(flag.name)))
        name = flag.name if draw(st.booleans()) else flag.name[:cut]
        bad = draw(st.integers(0, 9)) == 0
        text = draw(_value_texts(flag, bad))
        items.append([f"{name}={text}"] if draw(st.booleans()) else [name, text])
    items += draw(st.lists(st.sampled_from([["bogus"], ["--bogus"], ["-5"], ["-x"]]),
                           max_size=1))
    return [command.name, *(tok for item in draw(st.permutations(items)) for tok in item)]


@settings(max_examples=300, deadline=None)
@given(command_lines())
@example(["transport", "--n", "4", "--beta", "0", "--beta", "10", "--e-grid", "1:1:1"])
@example(["transport", "--n", "x", "--n", "4", "--v-grid=nan:1:2", "--v-grid", "-1:1:3"])
@example(["seq", "--ze", "-1e-3", "--eta=-j", "--g", "-1,-2,x,4", "--g", "1,2,3,4", "--h", "3"])
@example(["transport", "--n", "4", "--e-grid", "-1:1:3", "--v-grid=0:1:2"])
@example(["kitaev", "--n=4", "--t", "-inf", "--delta", "--1", "--mu-grid", "0:1:2"])
def test_parse_matches_argparse_oracle(argv):
    # the same attributes as argparse, or exit 2 from both
    want = _outcome(argparse_oracle.parse, argv)
    got = _outcome(cli._parse, argv)
    assert want == 2 or isinstance(want, dict)
    assert _same_parse(got, want), (got, want)


def test_full_parser_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tetranacci [-h] [--version]")
    for name, command in cli.COMMANDS.items():
        assert name in out and command.help in out


@pytest.mark.parametrize("argv", [(), ("bogus",), ("bogus", "--n", "3"), ("--n", "3")])
def test_unknown_or_missing_command_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: tetranacci [-h] [--version]")


@pytest.mark.parametrize("argv", [
    ("verify", "--seed=-1"),
    ("transport", "--n", "4", "--beta", "0", "--v-grid", "1:1:1"),
])
def test_post_parse_error_prints_command_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: tetranacci {argv[0]} [-h]")
    assert f"tetranacci {argv[0]}: error:" in err


# quotes, backslashes, newlines, braces and the row separator itself, or
# any other character
json_text = st.lists(st.one_of(st.sampled_from(['"', "\\", "\n", "{", "}", ",", ":",
                                                "},\n      {", "é", "€", "\x00"]),
                               st.characters()), max_size=8).map("".join)
row_cells = st.one_of(json_text, st.integers(), st.booleans(), st.none(), floats)
json_rows = st.lists(st.dictionaries(json_text, row_cells, min_size=1, max_size=6),
                     max_size=6)
json_meta = st.dictionaries(json_text, st.one_of(row_cells, st.lists(row_cells, max_size=3)),
                            max_size=4)


@settings(max_examples=200, deadline=None)
@given(json_meta, json_rows)
@example({"command": "t", "grid": ["0:1:3", 2, None]}, [])
@example({"command": "t"}, [{"a": "x\ny"}, {"b": "}"}, {"c": "\"},\n      {\""}])
def test_emit_json_matches_indented_dumps(meta, rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(SimpleNamespace(format="json", out=None), meta, rows)
    payload = {"meta": {**meta, "version": tetranacci.__version__},
               "rows": [{k: cli._fmt(v) for k, v in row.items()} for row in rows]}
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
