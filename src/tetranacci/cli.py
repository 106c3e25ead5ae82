"""Command-line front end.

Subcommands: seq, spectrum, crossings, arrow, kitaev, transport, verify.
Every command emits a row-oriented dataset as JSON ({"meta": ..., "rows":
[...]}) or CSV (header always present), to stdout or --out.

Exit codes: 0 success, 2 usage error, 3 verification/deviation failure,
4 numerical failure inside the library.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .chain import (ChainParams, arrow_classify, coeffs_from_energy,
                    crossings, spectrum)
from .closedform import characterize, xi_closed
from .errors import TetranacciError, ZeroT2Error
from .kitaev import KitaevParams, kitaev_effective_coeffs, kitaev_spectrum
from .recurrence import Coefficients, InitialValues, eval_range
from .transport import (LeadParams, TransportSetup, current, transmission)
from .verification import run_suite

_FLOAT_FMT = "{:.17g}"


def _fmt(value):
    """Render a cell for CSV / JSON with full float precision."""
    if isinstance(value, complex):
        return _FLOAT_FMT.format(value.real) + ("+" if value.imag >= 0 else "-") \
            + _FLOAT_FMT.format(abs(value.imag)) + "j"
    if isinstance(value, float):
        return _FLOAT_FMT.format(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt(v) for v in value)
    return value


def _emit(args, meta: dict, rows: list[dict], extra_lines=()):
    if args.format == "json":
        payload = {"meta": {**meta, "version": __version__},
                   "rows": [{k: _fmt(v) for k, v in row.items()} for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        fields = list(rows[0].keys()) if rows else list(meta.get("columns", []))
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
        text = buf.getvalue()
    for line in extra_lines:
        text += line + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"tetranacci: error: cannot write --out: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
    else:
        sys.stdout.write(text)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}") from exc


def _parse_initials(text: str) -> InitialValues:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--g needs 4 comma-separated values")
    return InitialValues(tuple(_parse_complex(p) for p in parts))


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi = float(lo), float(hi)
        # a non-finite end point, or a span that overflows, puts inf or nan
        # on the grid
        if not math.isfinite(hi - lo):
            raise ValueError("non-finite grid")
        return np.linspace(lo, hi, int(steps))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be min:max:steps with finite min and max, got {text!r}") from exc


def _params(parser, cls, *args, **kwargs):
    """Build a parameter object; a value it rejects is a usage error (exit 2)."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _chain_from_args(args, parser) -> ChainParams:
    return _params(parser, ChainParams, mu=args.mu, t1=args.t1, t2=args.t2, n=args.n)


def cmd_seq(args, parser):
    if args.hi < args.lo:
        parser.error("empty range: --hi is below --lo")
    c = _params(parser, Coefficients, args.zeta, args.eta)
    rows = []
    worst = 0.0
    window = closed = None
    if args.mode in ("recursion", "both"):
        window = eval_range(args.g, c, args.lo, args.hi)
    if args.mode in ("closed", "both"):
        closed = xi_closed(args.g, characterize(c), args.lo, args.hi)
    for j in range(args.lo, args.hi + 1):
        row = {"j": j}
        if window is not None:
            row["recursion"] = window.value(j)
        if closed is not None:
            row["closed"] = closed.value(j)
        if args.mode == "both":
            scale = max(abs(row["recursion"]), 1.0)
            dev = abs(row["recursion"] - row["closed"]) / scale
            row["deviation"] = dev
            worst = max(worst, dev)
        rows.append(row)
    meta = {"command": "seq", "zeta": _fmt(args.zeta), "eta": _fmt(args.eta),
            "g": [_fmt(v) for v in args.g.g], "lo": args.lo, "hi": args.hi,
            "mode": args.mode}
    _emit(args, meta, rows)
    if args.mode == "both" and worst > 1e-8:
        print(f"deviation {worst:.3e} exceeds 1e-08", file=sys.stderr)
        return 3
    return 0


def cmd_spectrum(args, parser):
    if args.sweep_eta is not None:
        chains = [(eta, _params(parser, ChainParams, mu=args.mu, t1=-eta * args.t2,
                                t2=args.t2, n=args.n)) for eta in args.sweep_eta]
        rows = []
        for eta, p in chains:
            for mode in spectrum(p):
                c = coeffs_from_energy(mode.e, p)
                rows.append({"eta": float(eta), "zeta": c.zeta.real,
                             "e": mode.e, "arrow": mode.arrow.value})
        meta = {"command": "spectrum", "n": args.n, "mu": args.mu,
                "t2": args.t2, "sweep_eta": args.sweep_eta_raw}
        _emit(args, meta, rows)
        return 0
    p = _chain_from_args(args, parser)
    rows = [{"e": m.e, "k1": m.k1, "k2": m.k2, "k_plus": m.k_plus,
             "k_minus": m.k_minus, "s_q": m.s_q, "lambda_i": m.lambda_i,
             "arrow": m.arrow.value, "quant_residual": m.quant_residual,
             "vector": list(m.vector)} for m in spectrum(p)]
    meta = {"command": "spectrum", "n": args.n, "mu": args.mu,
            "t1": args.t1, "t2": args.t2}
    _emit(args, meta, rows)
    return 0


def cmd_crossings(args, parser):
    if args.n < 2:
        parser.error("crossing enumeration needs --n >= 2")
    records = crossings(args.n)
    rows = [{"n_idx": r.n_idx, "l_idx": r.l_idx, "k_plus": r.k_plus,
             "k_minus": r.k_minus, "eta": r.eta, "zeta": r.zeta,
             "t1_over_t2": r.t1_over_t2, "e": r.e} for r in records]
    meta = {"command": "crossings", "n": args.n, "count": len(records)}
    _emit(args, meta, rows, extra_lines=[f"count: {len(records)}"]
          if args.format == "csv" else ())
    return 0


def cmd_arrow(args, parser):
    rows = [{"eta": float(eta), "zeta": float(zeta),
             "arrow": arrow_classify(float(zeta), float(eta)).value}
            for eta in args.eta_grid for zeta in args.zeta_grid]
    meta = {"command": "arrow", "eta_grid": args.eta_grid_raw,
            "zeta_grid": args.zeta_grid_raw}
    _emit(args, meta, rows)
    return 0


def cmd_kitaev(args, parser):
    chains = [_params(parser, KitaevParams, mu=float(mu), t=args.t,
                      delta=args.delta, n=args.n) for mu in args.mu_grid]
    rows = []
    for p in chains:
        for e in kitaev_spectrum(p):
            # at the sweet spot t = +-delta the spectrum is fine but the
            # coefficient map is undefined: zeta and eta are left empty
            try:
                c = kitaev_effective_coeffs(e, p)
            except ZeroT2Error:
                c = None
            rows.append({"mu": p.mu, "e": e,
                         "zeta": None if c is None else c.zeta,
                         "eta": None if c is None else c.eta})
    meta = {"command": "kitaev", "n": args.n, "t": args.t,
            "delta": args.delta, "mu_grid": args.mu_grid_raw}
    _emit(args, meta, rows)
    return 0


def cmd_transport(args, parser):
    setup = TransportSetup(
        _chain_from_args(args, parser),
        _params(parser, LeadParams, args.gamma_l, args.lambda_l),
        _params(parser, LeadParams, args.gamma_r, args.lambda_r))
    rows = []
    if args.v_grid is not None:
        beta = math.inf if args.beta == "inf" else float(args.beta)
        for v in args.v_grid:
            rows.append({"v": float(v), "current": current(float(v), beta, setup)})
        grid_key, grid_raw = "v_grid", args.v_grid_raw
    else:
        for e in args.e_grid:
            rows.append({"e": float(e), "transmission": transmission(float(e), setup)})
        grid_key, grid_raw = "e_grid", args.e_grid_raw
    meta = {"command": "transport", "n": args.n, "mu": args.mu, "t1": args.t1,
            "t2": args.t2, "gamma_l": args.gamma_l, "gamma_r": args.gamma_r,
            "lambda_l": args.lambda_l, "lambda_r": args.lambda_r,
            "beta": args.beta, grid_key: grid_raw}
    _emit(args, meta, rows)
    return 0


def cmd_verify(args, parser):
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    results = run_suite(args.suite, args.seed)
    rows = [{"check": name, "passed": bool(ok), "detail": detail}
            for name, ok, detail in results]
    meta = {"command": "verify", "suite": args.suite, "seed": args.seed}
    _emit(args, meta, rows)
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}", file=sys.stderr)
    return 0 if all(ok for _, ok, _ in results) else 3


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write to file instead of stdout")


def _add_chain_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mu", type=float, default=0.0)
    sub.add_argument("--t1", type=float, default=0.0)
    sub.add_argument("--t2", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetranacci",
        description="Symmetric four-term recurrence sequences, chain spectra "
                    "and quantum transport.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    seq = subs.add_parser("seq", help="evaluate a sequence window")
    seq.add_argument("--zeta", type=_parse_complex, required=True)
    seq.add_argument("--eta", type=_parse_complex, required=True)
    seq.add_argument("--g", type=_parse_initials, required=True,
                     help="four comma-separated initial values g(-2)..g(1)")
    seq.add_argument("--lo", type=int, default=-10)
    seq.add_argument("--hi", type=int, default=10)
    seq.add_argument("--mode", choices=("recursion", "closed", "both"),
                     default="both")
    _add_output_flags(seq)
    seq.set_defaults(func=cmd_seq)

    spect = subs.add_parser("spectrum", help="finite open-chain spectrum")
    _add_chain_flags(spect)
    spect.add_argument("--sweep-eta", dest="sweep_eta_raw", default=None,
                       metavar="MIN:MAX:STEPS",
                       help="sweep the hopping ratio instead of one spectrum")
    _add_output_flags(spect)
    spect.set_defaults(func=cmd_spectrum)

    cross = subs.add_parser("crossings", help="enumerate exact level crossings")
    cross.add_argument("--n", type=int, required=True)
    _add_output_flags(cross)
    cross.set_defaults(func=cmd_crossings)

    arrow = subs.add_parser("arrow", help="classify the coefficient plane")
    arrow.add_argument("--eta-grid", dest="eta_grid_raw", required=True,
                       metavar="MIN:MAX:STEPS")
    arrow.add_argument("--zeta-grid", dest="zeta_grid_raw", required=True,
                       metavar="MIN:MAX:STEPS")
    _add_output_flags(arrow)
    arrow.set_defaults(func=cmd_arrow)

    kit = subs.add_parser("kitaev", help="Kitaev chain excitation spectrum")
    kit.add_argument("--n", type=int, required=True)
    kit.add_argument("--t", type=float, required=True)
    kit.add_argument("--delta", type=float, required=True)
    kit.add_argument("--mu-grid", dest="mu_grid_raw", required=True,
                     metavar="MIN:MAX:STEPS")
    _add_output_flags(kit)
    kit.set_defaults(func=cmd_kitaev)

    trans = subs.add_parser("transport", help="transmission or I-V curves")
    _add_chain_flags(trans)
    trans.add_argument("--gamma-l", type=float, default=1.0)
    trans.add_argument("--gamma-r", type=float, default=1.0)
    trans.add_argument("--lambda-l", type=float, default=0.0)
    trans.add_argument("--lambda-r", type=float, default=0.0)
    trans.add_argument("--beta", default="inf",
                       help="inverse temperature, or 'inf' for T = 0")
    grid = trans.add_mutually_exclusive_group(required=True)
    grid.add_argument("--e-grid", dest="e_grid_raw", metavar="MIN:MAX:STEPS")
    grid.add_argument("--v-grid", dest="v_grid_raw", metavar="MIN:MAX:STEPS")
    _add_output_flags(trans)
    trans.set_defaults(func=cmd_transport)

    ver = subs.add_parser("verify", help="run a seeded self-check suite")
    ver.add_argument("--suite", default="all",
                     choices=("lemmata", "closed-form", "oracle", "transport", "all"))
    ver.add_argument("--seed", type=int, default=0)
    _add_output_flags(ver)
    ver.set_defaults(func=cmd_verify)
    return parser


def _materialize_grids(args, parser):
    for raw_name, name in (("sweep_eta_raw", "sweep_eta"),
                           ("eta_grid_raw", "eta_grid"),
                           ("zeta_grid_raw", "zeta_grid"),
                           ("mu_grid_raw", "mu_grid"),
                           ("e_grid_raw", "e_grid"),
                           ("v_grid_raw", "v_grid")):
        if hasattr(args, raw_name):
            raw = getattr(args, raw_name)
            try:
                setattr(args, name, None if raw is None else _parse_grid(raw))
            except argparse.ArgumentTypeError as exc:
                parser.error(str(exc))


def _is_value(token: str) -> bool:
    """True for a number, a grid `min:max:steps` or a comma list of numbers."""
    try:
        for part in token.replace(":", ",").split(","):
            complex(part.replace(" ", ""))
    except ValueError:
        return False
    return True


def _join_negative_values(argv):
    """Fuse `--flag -2e-05` into `--flag=-2e-05` so argparse accepts it.

    argparse takes any token that starts with "-" and does not match its
    plain negative-number pattern (no exponent, no grid, no complex) for a
    flag, so every `--flag VALUE` whose value is numeric is fused.
    """
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_value(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else list(argv)))
    _materialize_grids(args, parser)
    if args.command == "transport" and args.beta != "inf":
        try:
            if not float(args.beta) > 0.0:  # also rejects nan
                parser.error("--beta must be positive or 'inf'")
        except ValueError:
            parser.error(f"bad --beta value {args.beta!r}")
    try:
        return args.func(args, parser)
    except (TetranacciError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
