"""The four workloads: CLI commands derived from the seed, and the layers each must hit.

The seed moves mu and the grid end points by at most 1e-3, so every seed
runs the same amount of work through the same code paths (the eta = 0
point of the sweep, where the N = 40 chain splits into two degenerate
sublattices, stays on the grid).  `verify` runs fixed suite seeds, because
its work depends on them: the Jacobi sweep count on the random matrices of
the oracle suite moves its time by a third from one suite seed to the
next.  The benchmark seed only sets their order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

VERIFY_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class Command:
    argv: tuple
    expected_rows: int | None
    check: Callable  # rows -> one verdict per row


def _num(x):
    return repr(float(x))


def _opts(**values):
    # `--flag=value`, because argparse reads a separate "-2e-05" as a flag
    return tuple(f"--{k.replace('_', '-')}={v}" for k, v in values.items())


def _grid(lo, hi, steps):
    return f"{_num(lo)}:{_num(hi)}:{steps}"


def _chain_args(p):
    return _opts(n=p["n"], mu=_num(p["mu"]), t1=_num(p["t1"]), t2=_num(p["t2"]))


def _transport(p, grid_key, check):
    argv = ("transport", *_chain_args(p),
            *_opts(gamma_l=_num(p["gamma_l"]), gamma_r=_num(p["gamma_r"])),
            *(_opts(beta=p["beta"]) if "beta" in p else ()), *_opts(**{grid_key: p[grid_key]}))
    return Command(argv, int(p[grid_key].rsplit(":", 1)[1]), partial(check, p))


def _off(draw):
    return draw.uniform(-1e-3, 1e-3)


def spectra(draw):
    single = {"n": 100, "mu": _off(draw), "t1": 1.0, "t2": 0.5}
    a = 6.0 + _off(draw)
    sweep = {"n": 40, "mu": _off(draw), "t1": 0.0, "t2": 1.0, "sweep_eta": _grid(-a, a, 3)}
    kit = {"n": 30, "t": 1.0, "delta": 0.3,
           "mu_grid": _grid(-3.0 + _off(draw), 3.0 + _off(draw), 3)}
    return [
        Command(("spectrum", *_chain_args(single)), single["n"],
                partial(oracle.check_spectrum, single)),
        Command(("spectrum", *_chain_args(sweep), *_opts(sweep_eta=sweep["sweep_eta"])),
                3 * sweep["n"], partial(oracle.check_sweep, sweep)),
        Command(("kitaev", *_opts(n=kit["n"], t=_num(kit["t"]), delta=_num(kit["delta"]),
                                  mu_grid=kit["mu_grid"])),
                3 * 2 * kit["n"], partial(oracle.check_kitaev, kit)),
    ]


def transmission(draw):
    p = {"n": 100, "mu": _off(draw), "t1": 1.0, "t2": 0.8, "gamma_l": 0.5, "gamma_r": 0.5,
         "e_grid": _grid(-3.0 + _off(draw), 3.0 + _off(draw), 60)}
    return [_transport(p, "e_grid", oracle.check_transmission)]


def current(draw):
    base = {"n": 10, "mu": _off(draw), "t1": 1.0, "t2": 0.8, "gamma_l": 0.5, "gamma_r": 0.5}
    v = 1.0 + _off(draw)
    warm = {**base, "beta": "10", "v_grid": _grid(v, v, 1)}
    cold = {**base, "beta": "inf", "v_grid": _grid(0.5 + _off(draw), 2.0 + _off(draw), 4)}
    return [_transport(p, "v_grid", oracle.check_current) for p in (warm, cold)]


def verify(draw):
    order = list(VERIFY_SEEDS)
    draw.shuffle(order)
    return [Command(("verify", *_opts(suite="all", seed=s)), None,
                    partial(oracle.check_verify, None)) for s in order]


def commands(workload, seed):
    """The workload's CLI commands for this seed, in run order."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


WORKLOADS = {"spectra": spectra, "transmission": transmission,
             "current": current, "verify": verify}

# Wrapped functions that must fire on each workload; a traced run fails if
# one of them exists and never does.
EXPECTED_LAYERS = {
    "spectra": ("cli.main", "chain.spectrum", "denselinalg.sym_eigen",
                "closedform.characterize", "kitaev.kitaev_spectrum"),
    "transmission": ("cli.main", "transport.transmission",
                     "transport.green_1n_tetranacci", "exactnum.basic_sequences"),
    "current": ("cli.main", "transport.current", "transport.transmission",
                "exactnum.basic_sequences"),
    "verify": ("cli.main", "verification.suite_lemmata", "verification.suite_closed_form",
               "verification.suite_oracle", "verification.suite_transport",
               "bipoly.tetranacci_poly", "bipoly.verify_identity", "recurrence.eval_range",
               "closedform.xi_closed", "closedform.characterize", "denselinalg.sym_eigen",
               "denselinalg.solve_complex", "transport.green_1n_dense",
               "transport.green_1n_tetranacci", "exactnum.basic_sequences"),
}
