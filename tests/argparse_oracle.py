"""Reference parse of the command line for the tests: argparse.

The CLI reads its arguments from one flag table (`cli.COMMANDS`).  This
oracle shares only the value converters and the `cmd_*` functions with it.
It declares every command as an argparse subparser, fuses `--flag -2e-05`
into `--flag=-2e-05` (argparse takes a token that starts with "-" for a
flag unless it is a plain negative number), turns the `*_raw` grid texts
into arrays and checks --beta once the parse is done.

One difference is deliberate: argparse refuses a value that starts with
"-" and is neither a number, a grid nor a number list, while the table
parse takes it.  Only --out can hold such a value; every other flag
refuses it in its converter.
"""

import argparse

from tetranacci import __version__, cli


def _is_value(token: str) -> bool:
    """True for a number, a grid `min:max:steps` or a comma list of numbers."""
    try:
        for part in token.replace(":", ",").split(","):
            complex(part.replace(" ", ""))
    except ValueError:
        return False
    return True


def join_negative_values(argv):
    """Fuse each `--flag VALUE` whose VALUE is numeric into `--flag=VALUE`."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_value(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _add_chain_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--mu", type=float, default=0.0)
    sub.add_argument("--t1", type=float, default=0.0)
    sub.add_argument("--t2", type=float, default=1.0)


def _seq_flags(sub):
    sub.add_argument("--zeta", type=cli._parse_complex, required=True)
    sub.add_argument("--eta", type=cli._parse_complex, required=True)
    sub.add_argument("--g", type=cli._parse_initials, required=True)
    sub.add_argument("--lo", type=int, default=-10)
    sub.add_argument("--hi", type=int, default=10)
    sub.add_argument("--mode", choices=("recursion", "closed", "both"), default="both")
    sub.set_defaults(func=cli.cmd_seq)


def _spectrum_flags(sub):
    _add_chain_flags(sub)
    sub.add_argument("--sweep-eta", dest="sweep_eta_raw", default=None)
    sub.set_defaults(func=cli.cmd_spectrum)


def _crossings_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.set_defaults(func=cli.cmd_crossings)


def _arrow_flags(sub):
    sub.add_argument("--eta-grid", dest="eta_grid_raw", required=True)
    sub.add_argument("--zeta-grid", dest="zeta_grid_raw", required=True)
    sub.set_defaults(func=cli.cmd_arrow)


def _kitaev_flags(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--mu-grid", dest="mu_grid_raw", required=True)
    sub.set_defaults(func=cli.cmd_kitaev)


def _transport_flags(sub):
    _add_chain_flags(sub)
    sub.add_argument("--gamma-l", type=float, default=1.0)
    sub.add_argument("--gamma-r", type=float, default=1.0)
    sub.add_argument("--lambda-l", type=float, default=0.0)
    sub.add_argument("--lambda-r", type=float, default=0.0)
    sub.add_argument("--beta", default="inf")
    grid = sub.add_mutually_exclusive_group(required=True)
    grid.add_argument("--e-grid", dest="e_grid_raw")
    grid.add_argument("--v-grid", dest="v_grid_raw")
    sub.set_defaults(func=cli.cmd_transport)


def _verify_flags(sub):
    sub.add_argument("--suite", default="all",
                     choices=("lemmata", "closed-form", "oracle", "transport", "all"))
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=cli.cmd_verify)


FLAGS = {"seq": _seq_flags, "spectrum": _spectrum_flags, "crossings": _crossings_flags,
         "arrow": _arrow_flags, "kitaev": _kitaev_flags, "transport": _transport_flags,
         "verify": _verify_flags}


def build_parser() -> argparse.ArgumentParser:
    """Every command as a subparser, each with --format and --out."""
    parser = argparse.ArgumentParser(prog="tetranacci")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, add_flags in FLAGS.items():
        sub = subs.add_parser(name)
        add_flags(sub)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--out", default=None)
        sub.set_defaults(command=name)
    return parser


def parse(argv) -> argparse.Namespace:
    """The namespace the CLI's commands read, or SystemExit(2)."""
    parser = build_parser()
    args = parser.parse_args(join_negative_values(list(argv)))
    for raw_name in ("sweep_eta_raw", "eta_grid_raw", "zeta_grid_raw", "mu_grid_raw",
                     "e_grid_raw", "v_grid_raw"):
        if hasattr(args, raw_name):
            raw = getattr(args, raw_name)
            try:
                setattr(args, raw_name[:-4], None if raw is None else cli._parse_grid(raw))
            except ValueError as exc:
                parser.error(str(exc))
    if args.command == "transport" and args.beta != "inf":
        try:
            if not float(args.beta) > 0.0:  # also rejects nan
                parser.error("--beta must be positive or 'inf'")
        except ValueError:
            parser.error(f"bad --beta value {args.beta!r}")
    return args
