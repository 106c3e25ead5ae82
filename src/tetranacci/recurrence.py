"""Four-term symmetric recursion evaluated by direct replay.

The sequence obeys

    xi_{j+2} = zeta*xi_j - xi_{j-2} + eta*(xi_{j+1} + xi_{j-1})

for all integer j, with four initial values g_{-2}, ..., g_1.  Everything
here is exact-by-replay: no closed forms, just the recursion run forwards
and backwards.  Higher modules use these values as reference oracles.

`Coefficients` and `InitialValues` may hold 1-D float or complex arrays,
one entry per draw, and `eval_range` then replays every draw at once.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


def all_finite(v) -> bool:
    """True if v is a finite number, or a 1-D array of finite numbers."""
    if isinstance(v, np.ndarray):
        return v.ndim <= 1 and bool(np.isfinite(v).all())
    return cmath.isfinite(complex(v))


def require_finite(*values) -> None:
    """Reject values that are not finite numbers or 1-D arrays of them."""
    for v in values:
        if not all_finite(v):
            raise ValueError(f"non-finite value {v!r}" if np.ndim(v) <= 1
                             else f"a batch is a 1-D array, not of shape {np.shape(v)}")


def require_real(*values) -> None:
    """Reject values that are not finite real numbers."""
    for v in values:
        if not isinstance(v, numbers.Real):
            raise ValueError(f"non-real value {v!r}")
    require_finite(*values)


@dataclass(frozen=True)
class Coefficients:
    """Recursion coefficients (zeta, eta): numbers, or 1-D arrays for a batch."""

    zeta: complex
    eta: complex

    def __post_init__(self):
        require_finite(self.zeta, self.eta)


@dataclass(frozen=True)
class InitialValues:
    """Initial values g_{-2}, g_{-1}, g_0, g_1 (in that order): numbers, or
    1-D arrays for a batch."""

    g: tuple

    def __post_init__(self):
        if len(self.g) != 4:
            raise ValueError("expected exactly four initial values")
        require_finite(*self.g)


@dataclass(frozen=True)
class SequenceWindow:
    """Contiguous slice of a sequence, values for indices lo..lo+len-1."""

    lo: int
    values: tuple

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def value(self, j: int) -> complex:
        if not self.lo <= j <= self.hi:
            raise PreconditionError(f"index {j} outside window [{self.lo}, {self.hi}]")
        return self.values[j - self.lo]


def replay(g, zeta, eta, lo: int, hi: int) -> list:
    """[xi_lo, ..., xi_hi] from g = (g_-2, g_-1, g_0, g_1), lo <= hi.

    Any values with +, - and * replay: ints exactly, floats and complex
    numbers in doubles, numpy object arrays of ints as many exact sequences
    at once.  The recursion is palindromic, so the backward replay is the
    forward one on the sequence read downwards.
    """
    def extend(xs, count):  # xs gains count terms, xi_{j+2} from xi_{j-2}..xi_{j+1}
        for _ in range(count):
            xs.append(zeta * xs[-2] - xs[-4] + eta * (xs[-1] + xs[-3]))
        return xs

    up = extend(list(g), hi - 1)  # xi_-2, xi_-1, ... upwards
    down = extend(up[3::-1], -2 - lo)  # xi_1, xi_0, ... downwards
    return (down[:3:-1] + up)[lo - min(lo, -2):hi - min(lo, -2) + 1]


def eval_range(g: InitialValues, c: Coefficients, lo: int, hi: int) -> SequenceWindow:
    """Materialize xi_lo..xi_hi by replaying the recursion from g.

    Plain Python arithmetic: integer g and (zeta, eta) replay in exact
    ints, floats and complex numbers in doubles.  A batch (arrays in g or
    c) replays in numpy, entry by entry, and each window value is an array
    of the entries; numpy may fuse a multiply and an add where Python
    rounds twice, so an entry can differ from its single call in the last
    digits.  A float or complex window that leaves the finite doubles
    raises OverflowError.
    """
    if lo > hi:
        raise PreconditionError(f"empty range [{lo}, {hi}]")
    with np.errstate(over="ignore", invalid="ignore"):  # a batch's inf is caught below
        values = replay(g.g, c.zeta, c.eta, lo, hi)
    exact = all(isinstance(v, int) for v in (*g.g, c.zeta, c.eta))
    if not exact and not np.isfinite(np.array(values, dtype=complex)).all():
        raise OverflowError(f"recursion leaves the finite doubles in [{lo}, {hi}]")
    return SequenceWindow(lo, tuple(values))
