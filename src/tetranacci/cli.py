"""Command-line front end.

Subcommands: seq, spectrum, crossings, arrow, kitaev, transport, verify.
Every command emits a row-oriented dataset as JSON ({"meta": ..., "rows":
[...]}) or CSV (header always present), to stdout or --out.

Each command's flags are declared once, in its builder in `COMMANDS`.
`tetranacci CMD ...` builds the parser of CMD alone and parses what follows
the name; the full parser, with every command as a subparser, is built
only for --help, --version, no command or an unknown one.

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
from .transport import LeadParams, TransportSetup, current, transmission
from .verification import run_suite


def _fmt_complex(z) -> str:
    return "%.17g%s%.17gj" % (z.real, "+" if z.imag >= 0 else "-", abs(z.imag))


def _fmt_list(values) -> str:
    # a vector of Python floats, the common case, is one % on one template
    if set(map(type, values)) <= {float}:
        return ";".join(["%.17g"] * len(values)) % tuple(values)
    return ";".join([_fmt(v) for v in values])


_FORMATTERS = {float: "%.17g".__mod__, complex: _fmt_complex,
               list: _fmt_list, tuple: _fmt_list}


def _fmt(value):
    """Render a cell for CSV / JSON with full float precision (17 digits).

    Dispatch is on the exact type first; numpy scalars, which subclass
    float and complex, take the isinstance pass.  Every other value (int,
    str, bool, None) is returned as it is.
    """
    render = _FORMATTERS.get(type(value))
    if render is not None:
        return render(value)
    for base, render in _FORMATTERS.items():
        if isinstance(value, base):
            return render(value)
    return value


# the separators that json.dumps(indent=2) puts inside a row; with no
# indent set, json encodes through its C encoder
_ROWS_JSON = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_text(meta: dict, rows: list[dict]) -> str:
    """json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n", for rows
    that each hold at least one cell, every cell a str, int, bool or None.

    JSON escapes a newline inside a string, so every newline of the row
    encoding is structural, and "},\n      {" occurs only between rows.
    """
    text = json.dumps({"meta": meta, "rows": []}, indent=2)
    if not rows:
        return text + "\n"
    body = _ROWS_JSON.encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    return text[:-4] + "[\n    {\n      " + body + "\n    }\n  ]\n}\n"


def _emit(args, meta: dict, rows: list[dict], extra_lines=()):
    if args.format == "json":
        text = _json_text({**meta, "version": __version__},
                          [{k: _fmt(v) for k, v in row.items()} for row in rows])
    else:
        buf = io.StringIO()
        fields = list(rows[0].keys()) if rows else []
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
        # Python floats: -eta * t2 past the doubles is the usage error of
        # ChainParams, not a numpy warning
        chains = [(eta, _params(parser, ChainParams, mu=args.mu, t1=-eta * args.t2,
                                t2=args.t2, n=args.n)) for eta in args.sweep_eta.tolist()]
        rows = []
        for eta, p in chains:
            modes = spectrum(p)
            # at t2 = 0 the coefficient map, and with it zeta and the
            # arrow, is undefined; the energies are still emitted
            zetas = ([None] * len(modes) if p.t2 == 0.0 else
                     coeffs_from_energy(np.array([m.e for m in modes]), p).zeta.tolist())
            rows += [{"eta": eta, "zeta": zeta, "e": m.e,
                      "arrow": None if m.arrow is None else m.arrow.value}
                     for m, zeta in zip(modes, zetas)]
        meta = {"command": "spectrum", "n": args.n, "mu": args.mu,
                "t2": args.t2, "sweep_eta": args.sweep_eta_raw}
        _emit(args, meta, rows)
        return 0
    p = _chain_from_args(args, parser)
    rows = [{"e": m.e, "k1": m.k1, "k2": m.k2, "k_plus": m.k_plus,
             "k_minus": m.k_minus, "s_q": m.s_q, "lambda_i": m.lambda_i,
             "arrow": None if m.arrow is None else m.arrow.value,
             "quant_residual": m.quant_residual,
             "vector": m.vector.tolist()} for m in spectrum(p)]
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
    eta, zeta = (g.ravel() for g in np.meshgrid(args.eta_grid, args.zeta_grid, indexing="ij"))
    rows = [{"eta": e, "zeta": z, "arrow": a.value}
            for e, z, a in zip(eta.tolist(), zeta.tolist(), arrow_classify(zeta, eta).tolist())]
    meta = {"command": "arrow", "eta_grid": args.eta_grid_raw,
            "zeta_grid": args.zeta_grid_raw}
    _emit(args, meta, rows)
    return 0


def _kitaev_map(e, p: KitaevParams):
    """(zeta, eta) of the Kitaev map at the energy or energies e, or (None,
    None) where it is undefined: at the sweet spot t = +-delta the spectrum
    is fine but the map is not, and it may be past the doubles, as may at
    N = 2 the onsite energy of its chain."""
    try:
        c = kitaev_effective_coeffs(e, p)
    except (ZeroT2Error, ValueError):
        return None, None
    return c.zeta, c.eta


def cmd_kitaev(args, parser):
    chains = [_params(parser, KitaevParams, mu=float(mu), t=args.t,
                      delta=args.delta, n=args.n) for mu in args.mu_grid]
    rows = []
    for p in chains:
        energies = kitaev_spectrum(p)
        zetas, eta = _kitaev_map(np.array(energies), p)
        # one batch per mu; where it fails, each energy alone, so only the
        # rows whose map is undefined are left empty
        maps = ([_kitaev_map(e, p) for e in energies] if zetas is None
                else [(zeta, eta) for zeta in zetas.tolist()])
        rows += [{"mu": p.mu, "e": e, "zeta": zeta, "eta": eta}
                 for e, (zeta, eta) in zip(energies, maps)]
    meta = {"command": "kitaev", "n": args.n, "t": args.t,
            "delta": args.delta, "mu_grid": args.mu_grid_raw}
    _emit(args, meta, rows)
    return 0


def cmd_transport(args, parser):
    setup = TransportSetup(
        _chain_from_args(args, parser),
        _params(parser, LeadParams, args.gamma_l, args.lambda_l),
        _params(parser, LeadParams, args.gamma_r, args.lambda_r))
    if args.v_grid is not None:
        beta = math.inf if args.beta == "inf" else float(args.beta)
        currents = current(args.v_grid, beta, setup)
        rows = [{"v": v, "current": i}
                for v, i in zip(args.v_grid.tolist(), currents.tolist())]
        grid_key, grid_raw = "v_grid", args.v_grid_raw
    else:
        rows = [{"e": e, "transmission": transmission(e, setup)}
                for e in args.e_grid.tolist()]
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
    rows = [{"check": name, "passed": ok, "detail": detail, "elapsed_s": elapsed}
            for name, ok, detail, elapsed in results]
    meta = {"command": "verify", "suite": args.suite, "seed": args.seed}
    _emit(args, meta, rows)
    for name, ok, detail, _ in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}", file=sys.stderr)
    return 0 if all(row["passed"] for row in rows) else 3


def _add_chain_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mu", type=float, default=0.0)
    sub.add_argument("--t1", type=float, default=0.0)
    sub.add_argument("--t2", type=float, default=1.0)


def _seq_flags(sub):
    sub.add_argument("--zeta", type=_parse_complex, required=True)
    sub.add_argument("--eta", type=_parse_complex, required=True)
    sub.add_argument("--g", type=_parse_initials, required=True,
                     help="four comma-separated initial values g(-2)..g(1)")
    sub.add_argument("--lo", type=int, default=-10)
    sub.add_argument("--hi", type=int, default=10)
    sub.add_argument("--mode", choices=("recursion", "closed", "both"),
                     default="both")
    sub.set_defaults(func=cmd_seq)


def _spectrum_flags(sub):
    _add_chain_flags(sub)
    sub.add_argument("--sweep-eta", dest="sweep_eta_raw", default=None,
                     metavar="MIN:MAX:STEPS",
                     help="sweep the hopping ratio instead of one spectrum")
    sub.set_defaults(func=cmd_spectrum)


def _crossings_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.set_defaults(func=cmd_crossings)


def _arrow_flags(sub):
    sub.add_argument("--eta-grid", dest="eta_grid_raw", required=True,
                     metavar="MIN:MAX:STEPS")
    sub.add_argument("--zeta-grid", dest="zeta_grid_raw", required=True,
                     metavar="MIN:MAX:STEPS")
    sub.set_defaults(func=cmd_arrow)


def _kitaev_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--mu-grid", dest="mu_grid_raw", required=True,
                     metavar="MIN:MAX:STEPS")
    sub.set_defaults(func=cmd_kitaev)


def _transport_flags(sub):
    _add_chain_flags(sub)
    sub.add_argument("--gamma-l", type=float, default=1.0)
    sub.add_argument("--gamma-r", type=float, default=1.0)
    sub.add_argument("--lambda-l", type=float, default=0.0)
    sub.add_argument("--lambda-r", type=float, default=0.0)
    sub.add_argument("--beta", default="inf",
                     help="inverse temperature, or 'inf' for T = 0")
    grid = sub.add_mutually_exclusive_group(required=True)
    grid.add_argument("--e-grid", dest="e_grid_raw", metavar="MIN:MAX:STEPS")
    grid.add_argument("--v-grid", dest="v_grid_raw", metavar="MIN:MAX:STEPS")
    sub.set_defaults(func=cmd_transport)


def _verify_flags(sub):
    sub.add_argument("--suite", default="all",
                     choices=("lemmata", "closed-form", "oracle", "transport", "all"))
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cmd_verify)


# name -> (help, builder): the one place a command's flags are declared
COMMANDS = {
    "seq": ("evaluate a sequence window", _seq_flags),
    "spectrum": ("finite open-chain spectrum", _spectrum_flags),
    "crossings": ("enumerate exact level crossings", _crossings_flags),
    "arrow": ("classify the coefficient plane", _arrow_flags),
    "kitaev": ("Kitaev chain excitation spectrum", _kitaev_flags),
    "transport": ("transmission or I-V curves", _transport_flags),
    "verify": ("run a seeded self-check suite", _verify_flags),
}


def _add_command(sub, name):
    _, add_flags = COMMANDS[name]
    add_flags(sub)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write to file instead of stdout")
    sub.set_defaults(command=name)
    return sub


def _command_parser(name) -> argparse.ArgumentParser:
    """The parser of one command alone; it parses what follows the name."""
    return _add_command(argparse.ArgumentParser(prog=f"tetranacci {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every command as a subparser."""
    parser = argparse.ArgumentParser(
        prog="tetranacci",
        description="Symmetric four-term recurrence sequences, chain spectra "
                    "and quantum transport.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_command(subs.add_parser(name, help=help_text), name)
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
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    if argv and argv[0] in COMMANDS:
        parser = _command_parser(argv[0])
        args = parser.parse_args(argv[1:])
    else:
        # --help, --version, no command or an unknown one
        parser = build_parser()
        args = parser.parse_args(argv)
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
