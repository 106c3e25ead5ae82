import csv
import io
import json

import pytest

from tetranacci.cli import main
from tetranacci.kitaev import KitaevParams, bdg_spectrum


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
    _, out1, _ = run(capsys, "verify", "--suite", "closed-form", "--seed", "7")
    _, out2, _ = run(capsys, "verify", "--suite", "closed-form", "--seed", "7")
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code, out, _ = run(capsys, "seq", "--zeta", "1", "--eta", "1",
                       "--g", "0,0,0,1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["meta"]["command"] == "seq"


def test_numerical_failure_exit_code(capsys):
    # at t1 = 0 and odd N the even sublattice touches neither lead; at its
    # exact eigenvalue E = -t2 the boundary system is singular
    code, _, err = run(capsys, "transport", "--n", "5", "--t1", "0",
                       "--t2", "1", "--gamma-l", "0.5", "--gamma-r", "0.5",
                       "--e-grid", "-1:-1:1")
    assert code == 4
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    # eta = -t1/t2 overflows a double
    ("spectrum", "--n", "3", "--t1", "1", "--t2", "1e-320"),
    ("transport", "--n", "3", "--t1", "1", "--t2", "1e-320", "--e-grid", "0:0:1"),
    # the characteristic roots overflow
    ("seq", "--zeta", "1e308", "--eta", "1e308", "--g", "1,1,1,1",
     "--lo", "-5", "--hi", "50"),
    # the replayed window leaves the finite doubles
    ("seq", "--zeta", "1e308", "--eta", "1e308", "--g", "1,1,1,1",
     "--lo", "-5", "--hi", "50", "--mode", "recursion"),
    # the closed-form window leaves the finite doubles
    ("seq", "--zeta", "3", "--eta", "3", "--g", "1e300,1e300,0,0",
     "--lo", "-30", "--hi", "30", "--mode", "closed"),
])
def test_overflow_is_numerical_failure(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert "numerical failure" in err


def test_nonconvergent_eigensolve_is_numerical_failure(capsys):
    # mu = 1e308 puts infinite entries, and no nan, into the chain matrix,
    # so LAPACK reports no convergence
    code, _, err = run(capsys, "kitaev", "--n", "3", "--t", "1", "--delta", "0.5",
                       "--mu-grid", "0:1e308:2")
    assert code == 4
    assert "numerical failure" in err


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
    # an --out path that cannot be written
    ("seq", "--zeta", "1", "--eta", "1", "--g", "0,0,0,1",
     "--out", "/nonexistent-dir/x.json"),
])
def test_invalid_parameters_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
