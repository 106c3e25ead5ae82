"""Command-line front end.

Subcommands: seq, spectrum, crossings, arrow, kitaev, transport, verify.
Every command emits a row-oriented dataset as JSON ({"meta": ..., "rows":
[...]}) or CSV (header always present), to stdout or --out.

Each command's flags are declared once, in its entry of `COMMANDS`: one
table from which `_parse` reads the arguments and the usage and help text
are rendered.  A flag is `--name VALUE` or `--name=VALUE`; VALUE may start
with "-", as a negative number does, and a unique prefix names a flag.

Exit codes: 0 success, 2 usage error, 3 verification/deviation failure,
4 numerical failure inside the library.
"""

from __future__ import annotations

import io
import json
import math
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
        import csv  # only here: a JSON run never loads it

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


# the converters of flag values: each raises ValueError with the message
# of the usage error

def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None


def _parse_initials(text: str) -> InitialValues:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("--g needs 4 comma-separated values")
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
    except ValueError:
        raise ValueError(
            f"grid must be min:max:steps with finite min and max, got {text!r}") from None


def _parse_beta(text: str) -> str:
    """--beta as given: 'inf' for T = 0, or a positive number."""
    if text != "inf" and not float(text) > 0.0:  # also rejects nan
        raise ValueError("must be positive or 'inf'")
    return text


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


class Flag(NamedTuple):
    """One `--name VALUE` of a command: the value is convert(VALUE), and
    one of `choices` where there are any."""

    name: str
    convert: Callable = str
    default: object = None
    required: bool = False
    help: str = ""
    metavar: str = ""
    choices: tuple = ()

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")

    def usage(self) -> str:
        metavar = self.metavar or ("{%s}" % ",".join(self.choices) if self.choices
                                   else self.dest.upper())
        return f"{self.name} {metavar}"


# a grid's value is its array; its text is kept beside it as `dest_raw`
def _grid(name, required=False, help=""):
    return Flag(name, _parse_grid, required=required, help=help, metavar="MIN:MAX:STEPS")


# a value is checked as it is read, except a grid's or --beta's: only the
# one that is kept
_CHECKED_LAST = (_parse_grid, _parse_beta)

_CHAIN = (Flag("--n", int, required=True), Flag("--mu", float, 0.0),
          Flag("--t1", float, 0.0), Flag("--t2", float, 1.0))
_OUTPUT = (Flag("--format", default="json", choices=("json", "csv")),
           Flag("--out", help="write to file instead of stdout"))


def _usage(prog: str, parts) -> str:
    """`usage: PROG PART ...`, wrapped at 79 columns under the first part."""
    lines = [f"usage: {prog}"]
    pad = " " * len(lines[0])
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > 79 and len(lines[-1]) > len(pad):
            lines.append(pad)
        lines[-1] += " " + part
    return "\n".join(lines)


def _section(title: str, rows) -> str:
    """A help section: one `NAME  HELP` row per entry."""
    return "\n".join([f"{title}:"] + [f"  {left:<22}  {right}".rstrip() for left, right in rows])


def _exit_with(text: str):
    """Print text on stdout, and exit 0 (--help, --version)."""
    sys.stdout.write(text + "\n")
    raise SystemExit(0)


def _fail(usage: str, prog: str, message: str):
    """Print the usage and the message on stderr, and exit 2."""
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(2)


class Command(NamedTuple):
    """One subcommand: its help line, the function that runs it, and its
    flags; of the flags named in `one_of`, exactly one must be given."""

    name: str
    help: str
    func: Callable
    flags: dict
    one_of: tuple = ()

    @property
    def prog(self) -> str:
        return f"tetranacci {self.name}"

    def usage(self) -> str:
        parts = ["[-h]"]
        for flag in self.flags.values():
            if flag.name in self.one_of[1:]:
                continue
            if flag.name in self.one_of:
                parts.append("(%s)" % " | ".join(self.flags[n].usage() for n in self.one_of))
            else:
                parts.append(flag.usage() if flag.required else f"[{flag.usage()}]")
        return _usage(self.prog, parts)

    def error(self, message: str):
        _fail(self.usage(), self.prog, message)

    def print_help(self):
        """Print the usage and every flag on stdout, and exit 0."""
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(flag.usage(), " ".join(filter(None, (
                      flag.help, None if flag.default is None else f"(default: {flag.default})"))))
                 for flag in self.flags.values()]
        _exit_with(f"{self.usage()}\n\n{self.help}\n\n{_section('options', rows)}")


def _command(name, help, func, *flags, one_of=()):
    return name, Command(name, help, func, {f.name: f for f in (*flags, *_OUTPUT)}, one_of)


# the one place a command's flags are declared
COMMANDS = dict([
    _command("seq", "evaluate a sequence window", cmd_seq,
             Flag("--zeta", _parse_complex, required=True),
             Flag("--eta", _parse_complex, required=True),
             Flag("--g", _parse_initials, required=True,
                  help="four comma-separated initial values g(-2)..g(1)"),
             Flag("--lo", int, -10), Flag("--hi", int, 10),
             Flag("--mode", default="both", choices=("recursion", "closed", "both"))),
    _command("spectrum", "finite open-chain spectrum", cmd_spectrum, *_CHAIN,
             _grid("--sweep-eta", help="sweep the hopping ratio instead of one spectrum")),
    _command("crossings", "enumerate exact level crossings", cmd_crossings,
             Flag("--n", int, required=True)),
    _command("arrow", "classify the coefficient plane", cmd_arrow,
             _grid("--eta-grid", required=True), _grid("--zeta-grid", required=True)),
    _command("kitaev", "Kitaev chain excitation spectrum", cmd_kitaev,
             Flag("--n", int, required=True), Flag("--t", float, required=True),
             Flag("--delta", float, required=True), _grid("--mu-grid", required=True)),
    _command("transport", "transmission or I-V curves", cmd_transport, *_CHAIN,
             Flag("--gamma-l", float, 1.0), Flag("--gamma-r", float, 1.0),
             Flag("--lambda-l", float, 0.0), Flag("--lambda-r", float, 0.0),
             Flag("--beta", _parse_beta, "inf",
                  help="inverse temperature, or 'inf' for T = 0"),
             _grid("--e-grid"), _grid("--v-grid"), one_of=("--e-grid", "--v-grid")),
    _command("verify", "run a seeded self-check suite", cmd_verify,
             Flag("--suite", default="all",
                  choices=("lemmata", "closed-form", "oracle", "transport", "all")),
             Flag("--seed", int, 0)),
])

_TOP_USAGE = _usage("tetranacci", ["[-h]", "[--version]", "{%s}" % ",".join(COMMANDS), "..."])


def _top_level(argv):
    """--help, --version, no command or an unknown one; never returns."""
    for token in argv:
        if not token.startswith("-"):
            break
        if token == "-h" or len(token) > 2 and "--help".startswith(token):
            rows = [(name, command.help) for name, command in COMMANDS.items()]
            _exit_with(f"{_TOP_USAGE}\n\nSymmetric four-term recurrence sequences, chain "
                       f"spectra and quantum transport.\n\n{_section('commands', rows)}\n\n"
                       + _section("options", [("-h, --help", "show this help message and exit"),
                                              ("--version", "show the version and exit")]))
        if len(token) > 2 and "--version".startswith(token):
            _exit_with(__version__)
    _fail(_TOP_USAGE, "tetranacci",
          f"{argv[0]!r} is not a command; choose from {', '.join(COMMANDS)}" if argv
          else "the following arguments are required: command")


def _convert(command: Command, flag: Flag, text: str):
    try:
        value = flag.convert(text)
    except ValueError as exc:
        command.error(f"argument {flag.name}: {exc}")
    if flag.choices and value not in flag.choices:
        command.error(f"argument {flag.name}: invalid choice: {text!r} "
                      f"(choose from {', '.join(flag.choices)})")
    return value


def _parse(argv) -> SimpleNamespace:
    """The arguments of `tetranacci CMD ...`, read from the flag table of CMD.

    A flag is `--name VALUE`, whatever VALUE starts with, or `--name=VALUE`,
    and a unique prefix of the name names it; a repeated flag keeps its
    last value.  The namespace holds each flag's value under its `dest`,
    a grid's text as `dest_raw`, and `func` and `command`.
    """
    if not argv or argv[0] not in COMMANDS:
        _top_level(argv)
    command = COMMANDS[argv[0]]
    names = (*command.flags, "--help")
    texts = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        if name == "-h" or name in names:
            matches = [name]
        else:
            matches = [n for n in names if name.startswith("--") and n.startswith(name)]
        if not matches:
            command.error(f"unrecognized arguments: {token}")
        if len(matches) > 1:
            command.error(f"ambiguous option: {name} could match {', '.join(matches)}")
        flag = command.flags.get(matches[0])
        if flag is None:
            command.print_help()
        if not eq:
            text = next(tokens, None)
            if text is None:
                command.error(f"argument {flag.name}: expected one argument")
        texts[flag.name] = text
        if flag.convert not in _CHECKED_LAST:
            _convert(command, flag, text)
    missing = [f.name for f in command.flags.values() if f.required and f.name not in texts]
    if missing:
        command.error(f"the following arguments are required: {', '.join(missing)}")
    given = [name for name in command.one_of if name in texts]
    if len(given) > 1:
        command.error(f"argument {given[1]}: not allowed with argument {given[0]}")
    if command.one_of and not given:
        command.error(f"one of the arguments {' '.join(command.one_of)} is required")
    args = SimpleNamespace(func=command.func, command=command.name)
    for flag in command.flags.values():
        text = texts.get(flag.name)
        setattr(args, flag.dest, flag.default if text is None else _convert(command, flag, text))
        if flag.convert is _parse_grid:
            setattr(args, flag.dest + "_raw", text)
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args, COMMANDS[args.command])
    except (TetranacciError, OverflowError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
