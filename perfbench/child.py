"""One benchmark child process: a fresh interpreter running one tetranacci CLI command.

    python3 child.py REPORT TRACED [CLI ARGS ...]

Imports `tetranacci.cli` (from PYTHONPATH), optionally wraps the layer
functions named in TRACED (comma-separated, or "-" for none), runs
`cli.main(CLI ARGS)` with the CLI's output on this process's stdout, and
writes a JSON report to REPORT: the CPU time (user + system) of this
process until the import finished, the CPU time spent inside
`cli.main`, the peak RSS and, when traced, the spans.  It exits with the
CLI's exit code.
"""

import json
import resource
import sys
import time


def main():
    report_path, traced, *argv = sys.argv[1:]
    import tetranacci.cli as cli
    report = {"setup_s": time.process_time()}
    recorder = None
    if traced != "-":
        from spans import Recorder
        recorder = Recorder()
        report["absent"] = recorder.install(traced.split(","))
    start = time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    report["main_s"] = time.process_time() - start
    sys.stdout.flush()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        report["spans"] = recorder.spans
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
