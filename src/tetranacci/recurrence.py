"""Four-term symmetric recursion evaluated by direct replay.

The sequence obeys

    xi_{j+2} = zeta*xi_j - xi_{j-2} + eta*(xi_{j+1} + xi_{j-1})

for all integer j, with four initial values g_{-2}, ..., g_1.  Everything
here is exact-by-replay: no closed forms, just the recursion and the
generating-function long division.  Higher modules use these values as
reference oracles.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

from .errors import PreconditionError


def require_finite(*values: complex) -> None:
    for v in values:
        if not (cmath.isfinite(complex(v))):
            raise ValueError(f"non-finite value {v!r}")


def require_real(*values) -> None:
    """Reject values that are not finite real numbers."""
    for v in values:
        if not isinstance(v, numbers.Real):
            raise ValueError(f"non-real value {v!r}")
    require_finite(*values)


@dataclass(frozen=True)
class Coefficients:
    """Recursion coefficients (zeta, eta)."""

    zeta: complex
    eta: complex

    def __post_init__(self):
        require_finite(self.zeta, self.eta)


@dataclass(frozen=True)
class InitialValues:
    """Initial values g_{-2}, g_{-1}, g_0, g_1 (in that order)."""

    g: tuple

    def __post_init__(self):
        if len(self.g) != 4:
            raise ValueError("expected exactly four initial values")
        require_finite(*self.g)

    @classmethod
    def unit(cls, i: int) -> "InitialValues":
        """Kronecker-delta initial data with the 1 at index i in -2..1."""
        if i not in (-2, -1, 0, 1):
            raise ValueError(f"unit index {i} outside -2..1")
        g = [0, 0, 0, 0]
        g[i + 2] = 1
        return cls(tuple(g))


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


def step_forward(window, c: Coefficients) -> complex:
    """Next element from the four-element tail (xi_{j-2}..xi_{j+1})."""
    xm2, xm1, x0, x1 = window[-4], window[-3], window[-2], window[-1]
    return c.zeta * x0 - xm2 + c.eta * (x1 + xm1)


def step_backward(window, c: Coefficients) -> complex:
    """Previous element from the four-element head (xi_{j-1}..xi_{j+2})."""
    xm1, x0, x1, x2 = window[0], window[1], window[2], window[3]
    return c.zeta * x0 - x2 + c.eta * (x1 + xm1)


def eval_range(g: InitialValues, c: Coefficients, lo: int, hi: int) -> SequenceWindow:
    """Materialize xi_lo..xi_hi by replaying the recursion from g.

    Plain Python arithmetic: integer g and (zeta, eta) replay in exact
    ints, floats and complex numbers in doubles.  A float or complex
    window that leaves the finite doubles raises OverflowError.
    """
    if lo > hi:
        raise PreconditionError(f"empty range [{lo}, {hi}]")
    up = list(g.g)  # xi_-2, xi_-1, ... upwards
    for _ in range(hi - 1):
        up.append(step_forward(up, c))
    down = up[3::-1]  # xi_1, xi_0, ... downwards
    for _ in range(-2 - lo):  # the head xi_{j-1}..xi_{j+2} is down's tail, reversed
        down.append(step_backward(down[-1:-5:-1], c))
    values = (down[:3:-1] + up)[lo - min(lo, -2):hi - min(lo, -2) + 1]
    exact = all(isinstance(v, int) for v in (*g.g, c.zeta, c.eta))
    if not exact and not all(map(cmath.isfinite, values)):
        raise OverflowError(f"recursion leaves the finite doubles in [{lo}, {hi}]")
    return SequenceWindow(lo, tuple(values))


def generating_series(g: InitialValues, c: Coefficients, n: int) -> list:
    """First n Taylor coefficients of the generating function.

    The series numerator is g_1 t + g_0 (1 - eta t) + g_{-1}(eta t^2 - t^3)
    - g_{-2} t^2 and the denominator 1 - eta t - zeta t^2 - eta t^3 + t^4;
    coefficients come out of polynomial long division.
    """
    if n < 1:
        raise ValueError("need at least one coefficient")
    gm2, gm1, g0, g1 = g.g
    num = [g0, g1 - c.eta * g0, c.eta * gm1 - gm2, -gm1]
    den = [1.0, -c.eta, -c.zeta, -c.eta, 1.0]
    out = []
    for k in range(n):
        acc = num[k] if k < len(num) else 0.0
        for m in range(1, 5):
            if k - m >= 0:
                acc -= den[m] * out[k - m]
        out.append(acc)
    return out

