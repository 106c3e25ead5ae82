"""Arithmetic of the benchmark: medians, tail percentiles, span trees, row accounting.

Pure functions only, so `selftest.py` can check them on synthetic data.
A span is a tuple (cmd, sid, name, start_ns, end_ns, parent, extra, exc):
`cmd` identifies the child process, `sid` and `parent` are span ids within
that process, `extra` is a dict of per-call counts or None, and `exc` is
the exception class name if the call raised (recorded once per exception,
at the innermost wrapped call).
"""

from __future__ import annotations

import math
from collections import defaultdict

# Candidate tail percentiles, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail_percentile(n):
    """Highest candidate percentile with at least ten of n samples beyond it, or None."""
    best = None
    for p in TAIL_CANDIDATES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            best = p
    return best


def account_rows(expected, returncode, row_ok):
    """(attempted, failed) rows of one command.

    `expected` is the row count the command's arguments imply, or None when
    they do not fix it; `row_ok` holds one oracle verdict per emitted row.
    A command that exits non-zero fails every row it was asked for, and a
    row it was asked for but did not emit fails too.
    """
    emitted = len(row_ok)
    attempted = max(expected if expected is not None else 0, emitted, 1)
    if returncode != 0:
        return attempted, attempted
    return attempted, (attempted - emitted) + sum(1 for ok in row_ok if not ok)


def _covered_ns(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_tree(spans):
    """Index spans by (cmd, sid); return (by_key, children_by_key)."""
    by_key = {(s[0], s[1]): s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[5] is not None:
            children[(s[0], s[5])].append(s)
    return by_key, children


def ancestors(span, by_key):
    """Yield the span's ancestors, nearest first."""
    parent = span[5]
    while parent is not None:
        up = by_key[(span[0], parent)]
        yield up
        parent = up[5]


def layer_table(spans):
    """Per-name calls, busy time, self time and call durations.

    busy_s sums the durations of a name's outermost calls, so recursion is
    not counted twice; self_s is each call's duration minus the part of
    its interval that its child spans cover.
    """
    by_key, children = span_tree(spans)
    table = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "durations_ms": []})
    for s in spans:
        row = table[s[2]]
        dur = s[4] - s[3]
        row["calls"] += 1
        row["durations_ms"].append(dur / 1e6)
        kids = [(c[3], c[4]) for c in children[(s[0], s[1])]]
        row["self_s"] += (dur - _covered_ns(kids, s[3], s[4])) / 1e9
        if all(a[2] != s[2] for a in ancestors(s, by_key)):
            row["busy_s"] += dur / 1e9
    return dict(table)


def nested_count(spans, child_name, parent_name, keep=None):
    """Spans named child_name with a parent_name ancestor (and keep(child, ancestor))."""
    by_key, _ = span_tree(spans)
    count = 0
    for s in spans:
        if s[2] != child_name:
            continue
        up = next((a for a in ancestors(s, by_key) if a[2] == parent_name), None)
        if up is not None and (keep is None or keep(s, up)):
            count += 1
    return count


def extra_sum(spans, name, key):
    return sum((s[6] or {}).get(key, 0) for s in spans if s[2] == name)


def extra_max(spans, name, key):
    return max([(s[6] or {}).get(key, 0) for s in spans if s[2] == name], default=0)

