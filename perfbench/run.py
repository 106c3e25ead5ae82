"""Benchmark of the tetranacci CLI: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 28 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  Each command of the workload runs as `cli.main` in a fresh
interpreter (`child.py`), one process at a time, with BLAS/OpenMP threads
pinned to 1.  A pass runs every command of the workload once; passes
repeat until the next one would overrun --seconds.  Outputs are checked
against independent numpy oracles after the timed passes.

Times are CPU times (user + system) of the child processes, not wall
time: the children are single-threaded and one runs at a time, so the two
agree except for steal time (a shared virtual machine's host running
other guests), which is not the program's and which made wall times
spread by up to 28 % from run to run on a 2-vCPU VM.  --trace 0 reports,
as medians over passes (setup_s over child processes):
  cpu_s        process start to exit, summed over the commands of a pass
  setup_s      fresh interpreter until `tetranacci.cli` is imported
  rows_per_s   output rows of a pass / CPU time inside `cli.main` in that pass
  peak_rss_mb  largest child RSS in a pass
failed_frac (failed rows / attempted rows) is printed with them, and is
the `failed`/`attempted` pair of the result line.

--trace 1 runs one untraced pass, then traced passes, and reports the
per-layer metrics `<module>.<function>.<stat>` of LAYERS: counts from the
first traced pass, times as medians over the traced passes.  It fails
(correct: false) if a wrapped function that exists never fires on a
workload that must call it.

The last line of stdout is the result as one JSON object.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HARD_LIMIT_S = 170.0  # the whole run, so it ends within three minutes

# Per-layer metrics: wrapped function -> stats reported for it.
LAYERS = {
    "cli.main": ("self_s",),
    "denselinalg.sym_eigen": ("calls", "busy_s", "p50_ms", "tail_ms", "n_max"),
    "chain.spectrum": ("busy_s", "self_s", "degenerate_clusters"),
    "closedform.characterize": ("calls", "busy_s"),
    "kitaev.kitaev_spectrum": ("busy_s", "self_s"),
    "exactnum.basic_sequences": ("calls", "busy_s", "p50_ms", "tail_ms",
                                 "sequences", "terms", "bits_max"),
    "transport.transmission": ("calls", "busy_s", "self_s", "p50_ms", "tail_ms"),
    "transport.current": ("calls", "busy_s", "self_s", "transmission_per_call"),
    "bipoly.tetranacci_poly": ("calls", "busy_s"),
    "bipoly.verify_identity": ("calls", "busy_s"),
    "recurrence.eval_range": ("calls", "busy_s"),
    "closedform.xi_closed": ("calls", "busy_s"),
    "verification.suite_lemmata": ("busy_s",),
    "verification.suite_closed_form": ("busy_s",),
    "verification.suite_oracle": ("busy_s",),
    "verification.suite_transport": ("busy_s",),
    "denselinalg.solve_complex": ("calls", "busy_s"),
    "transport.green_1n_dense": ("calls", "busy_s"),
    "transport.green_1n_tetranacci": ("calls", "busy_s"),
}
COUNT_STATS = {"calls", "n_max", "degenerate_clusters", "sequences", "terms",
               "bits_max", "transmission_per_call"}


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    stdout: bytes
    report: dict = field(default_factory=dict)

    @property
    def setup_s(self):
        return self.report.get("setup_s")


@dataclass
class Pass:
    traced: bool
    children: list

    @property
    def wall_s(self):
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self):
        return sum(c.cpu_s for c in self.children)


class Runner:
    """Starts child processes one at a time under a hard deadline."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv, traced):
        self.count += 1
        report_path = self.workdir / f"{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report_path), traced, *argv]
        before = _children_cpu_s()
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  timeout=max(1.0, self.hard_deadline - time.monotonic()))
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            rc, out, err = -9, b"", (exc.stderr or b"") + b"\ntimed out"
        wall = time.monotonic() - start
        cpu = _children_cpu_s() - before  # this child only: one runs at a time
        report = {}
        if report_path.exists():
            report = json.loads(report_path.read_text())
            report_path.unlink()
        if rc != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            print(f"# command exited {rc}: {' '.join(argv)}: "
                  + " | ".join(tail), file=sys.stderr)
        return Child(rc, wall, cpu, out, report)


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def parse_rows(child):
    try:
        return json.loads(child.stdout)["rows"]
    except (ValueError, KeyError, TypeError):
        return []


def layer_metrics(spans):
    """Per-layer metric name -> value for the spans of one pass."""
    table = stats.layer_table(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations_ms": []}
    out = {}
    for name, wanted in LAYERS.items():
        row = table.get(name, empty)
        durations = row["durations_ms"]
        derived = {
            "p50_ms": lambda: stats.percentile(durations, 50) if durations else 0.0,
            "tail_ms": lambda: (stats.percentile(durations, p)
                                if (p := stats.tail_percentile(len(durations))) else 0.0),
            "n_max": lambda: stats.extra_max(spans, name, "n"),
            "sequences": lambda: stats.extra_sum(spans, name, "sequences"),
            "terms": lambda: stats.extra_sum(spans, name, "terms"),
            "bits_max": lambda: stats.extra_max(spans, name, "bits_max"),
            # cluster parity solves: eigensolves under spectrum() smaller than the chain
            "degenerate_clusters": lambda: stats.nested_count(
                spans, "denselinalg.sym_eigen", name,
                lambda c, a: bool(c[6] and a[6]) and c[6]["n"] < a[6]["n"]),
            "transmission_per_call": lambda: (stats.nested_count(
                spans, "transport.transmission", name) / row["calls"]
                if row["calls"] else 0.0),
        }
        for stat in wanted:
            out[f"{name}.{stat}"] = row[stat] if stat in row else derived[stat]()
    out["transport.singular_boundary"] = sum(
        1 for s in spans if s[7] == "SingularBoundaryError")
    return out


def unit_of(metric):
    stat = metric.rsplit(".", 1)[1]
    if stat in COUNT_STATS or metric == "transport.singular_boundary":
        return "bits" if stat == "bits_max" else "count"
    return "ms" if stat.endswith("_ms") else "s"


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def run_passes(runner, commands, seconds, traced_targets):
    """Passes until the next one would end more than half a pass after --seconds.

    A run thus lasts --seconds, give or take half a pass.  With traced_targets, the first pass is untraced (the overhead baseline)
    and later ones traced.
    """
    deadline = time.monotonic() + seconds
    passes, lengths = [], []
    while True:
        traced = bool(traced_targets) and bool(passes)
        started = time.monotonic()
        children = [runner.spawn(list(cmd.argv), traced_targets if traced else "-")
                    for cmd in commands]
        passes.append(Pass(traced, children))
        lengths.append(time.monotonic() - started)
        needed = 2 if traced_targets else 1
        if len(passes) >= needed and time.monotonic() + stats.median(lengths) / 2 > deadline:
            return passes


def account(commands, passes):
    attempted = failed = 0
    for p in passes:
        for cmd, child in zip(commands, p.children):
            rows = parse_rows(child)
            verdicts = cmd.check(rows) if child.rc == 0 else [False] * len(rows)
            a, f = stats.account_rows(cmd.expected_rows, child.rc, verdicts)
            attempted += a
            failed += f
    return attempted, failed


def end_to_end(passes):
    setups = [c.setup_s for p in passes for c in p.children if c.setup_s is not None]
    per_pass = [(p.cpu_s,
                 sum(len(parse_rows(c)) for c in p.children)
                 / max(sum(c.report.get("main_s", 0.0) for c in p.children), 1e-9),
                 max(c.report.get("maxrss_kb", 0) for c in p.children) / 1024.0)
                for p in passes]
    metrics = {
        "cpu_s": (stats.median([t for t, _, _ in per_pass]), "s"),
        "setup_s": (stats.median(setups), "s"),
        "rows_per_s": (stats.median([r for _, r, _ in per_pass]), "1/s"),
        "peak_rss_mb": (stats.median([m for _, _, m in per_pass]), "MB"),
    }
    print(f"# samples: {len(passes)} passes (cpu_s, rows_per_s, peak_rss_mb), "
          f"{len(setups)} processes (setup_s); pass cpu_s / wall s: "
          + " ".join(f"{p.cpu_s:.3f}/{p.wall_s:.3f}" for p in passes))
    return metrics


def per_layer(workload, passes):
    traced = [p for p in passes if p.traced]
    tables, fired = [], set()
    for p in traced:
        spans = [(cmd_id, *s) for cmd_id, c in enumerate(p.children)
                 for s in c.report.get("spans", [])]
        tables.append(layer_metrics(spans))
        fired.update(s[2] for s in spans)
    absent = sorted({a for p in traced for c in p.children for a in c.report.get("absent", [])})
    missing = [n for n in workloads.EXPECTED_LAYERS[workload]
               if n not in absent and n not in fired]
    metrics = {}
    for name in tables[0]:
        values = [t[name] for t in tables]
        if unit_of(name) in ("count", "bits"):
            if len(set(values)) > 1:
                print(f"# count {name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit_of(name))
        else:
            metrics[name] = (stats.median(values), unit_of(name))
    untraced = stats.median([p.cpu_s for p in passes if not p.traced])
    metrics["trace.overhead_s"] = (stats.median([p.cpu_s for p in traced]) - untraced, "s")
    print(f"# samples: {len(traced)} traced passes, 1 untraced; absent layers: "
          f"{', '.join(absent) or 'none'}")
    if missing:
        print(f"# wrapper coverage FAILED: never fired on {workload}: {', '.join(missing)}")
    return metrics, not missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tetranacci" / "cli.py").is_file():
        print(f"no tetranacci package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    commands = workloads.commands(args.workload, args.seed)
    workdir = HERE / f".work-{os.getpid()}"  # child reports; removed below
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        targets = ",".join(LAYERS) if args.trace else ""
        # byte-compile first, so no child pays for it inside the timed passes
        compileall.compile_dir(ROOT / "src", quiet=1)
        passes = run_passes(runner, commands, args.seconds, targets)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not any(c.report for p in passes for c in p.children):
        print("no child process got as far as importing tetranacci.cli", file=sys.stderr)
        return 1
    print(f"# workload {args.workload} seed {args.seed}: "
          + json.dumps({"environment": environment(),
                        "commands": [" ".join(c.argv) for c in commands]}))
    attempted, failed = account(commands, passes)
    correct = failed == 0
    if args.trace:
        metrics, covered = per_layer(args.workload, passes)
        correct = correct and covered
    else:
        metrics = end_to_end(passes)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} rows)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
