"""Span recording for traced runs, installed from outside the library.

`Recorder.install` replaces each target function at every place it is
bound: module globals (which covers `from .x import f` copies and the
call-time lookups inside `quad` integrands) and module-level dicts (which
covers dispatch tables such as `verification.SUITES`).  Spans stay in
memory until the child process writes its report.
"""

from __future__ import annotations

import functools
import sys
import time


def _bits(x):
    """Largest numerator/denominator bit length of an exact value (0 if not exact)."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if hasattr(x, "re") and hasattr(x, "im"):
        return max(_bits(x.re), _bits(x.im))
    if isinstance(x, (tuple, list)):
        return max(map(_bits, x), default=0)
    return 0


def _sequences_extra(args, kwargs, result):
    # values grow with |j|, so the end points carry the largest bit length
    seqs = list(result.values())
    return {"sequences": len(seqs),
            "terms": sum(len(s) for s in seqs),
            "bits_max": max(_bits(s[j]) for s in seqs for j in (min(s), max(s)))}


def _matrix_extra(args, kwargs, result):
    return {"n": len(result[0])}


def _chain_extra(args, kwargs, result):
    return {"n": args[0].n}


EXTRAS = {
    "exactnum.basic_sequences": _sequences_extra,
    "denselinalg.sym_eigen": _matrix_extra,
    "chain.spectrum": _chain_extra,
}


class Recorder:
    """Collects spans [sid, name, start_ns, end_ns, parent, extra, exc]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0, 0, stack[-1] if stack else None, None, None]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = time.perf_counter_ns()
                if not getattr(exc, "_perfbench_seen", False):
                    span[6] = type(exc).__name__
                    exc._perfbench_seen = True
                raise
            finally:
                stack.pop()
            span[3] = time.perf_counter_ns()
            if extra is not None:
                try:
                    span[5] = extra(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the layer changed its signature; counts read 0
            return result

        return wrapper

    def install(self, targets, package="tetranacci"):
        """Wrap each loaded `<package>.<module>.<function>` target.

        Returns the targets that do not exist, so a deleted layer is
        reported as absent rather than as a coverage failure.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        absent = []
        for target in targets:
            mod_name, fn_name = target.rsplit(".", 1)
            fn = getattr(sys.modules.get(f"{package}.{mod_name}"), fn_name, None)
            if not callable(fn):
                absent.append(target)
                continue
            wrapped = self.wrap(target, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict) and key != "__builtins__":
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                value[dkey] = wrapped
        return absent
