"""Exact bivariate integer polynomials in (zeta, eta).

Sparse dict representation keyed by exponent pairs; coefficients are
Python ints, so identities are proved exactly instead of to a floating
tolerance.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import PreconditionError

J_GUARD = 64


class BiPoly:
    """Immutable sparse polynomial; terms maps (zeta_pow, eta_pow) -> int."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if coeff != 0:
                    clean[(int(key[0]), int(key[1]))] = int(coeff)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def zeta(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def eta(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    def __add__(self, other: "BiPoly") -> "BiPoly":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return BiPoly(terms)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return BiPoly(terms)

    def scale(self, c: int) -> "BiPoly":
        return BiPoly({k: c * v for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, zeta: complex, eta: complex) -> complex:
        return sum(c * zeta ** a * eta ** b for (a, b), c in self.terms.items())

    def render(self) -> str:
        """Canonical text form: graded order, zeta before eta within a grade."""
        if not self.terms:
            return "0"
        def key(item):
            (a, b), _ = item
            return (-(a + b), -a)
        parts = []
        for (a, b), c in sorted(self.terms.items(), key=key):
            mono = []
            if a == 1:
                mono.append("zeta")
            elif a > 1:
                mono.append(f"zeta^{a}")
            if b == 1:
                mono.append("eta")
            elif b > 1:
                mono.append(f"eta^{b}")
            body = "*".join(mono)
            mag = abs(c)
            if body and mag == 1:
                text = body
            elif body:
                text = f"{mag}*{body}"
            else:
                text = str(mag)
            parts.append(("- " if c < 0 else "+ ") + text)
        first = parts[0]
        first = "-" + first[2:] if first.startswith("- ") else first[2:]
        return " ".join([first] + parts[1:])

    def __repr__(self):
        return f"BiPoly({self.render()})"


@lru_cache(maxsize=None)
def _basic_window(lo: int, hi: int):
    """Exact basic polynomials for all four unit seeds on indices lo..hi."""
    zeta, eta = BiPoly.zeta(), BiPoly.eta()
    columns = []
    for i in (-2, -1, 0, 1):
        seed = {j: BiPoly.const(1 if j == i else 0) for j in (-2, -1, 0, 1)}
        j = 1
        while j < hi:
            j += 1
            seed[j] = (zeta * seed[j - 2] - seed[j - 4]
                       + eta * (seed[j - 1] + seed[j - 3]))
        j = -2
        while j > lo:
            j -= 1
            seed[j] = (zeta * seed[j + 2] - seed[j + 4]
                       + eta * (seed[j + 3] + seed[j + 1]))
        columns.append(seed)
    return columns


def tetranacci_poly(i: int, j: int) -> BiPoly:
    """Exact basic polynomial for unit seed i at index j, |j| <= 64."""
    if i not in (-2, -1, 0, 1):
        raise ValueError(f"unit index {i} outside -2..1")
    if abs(j) > J_GUARD:
        raise PreconditionError(f"|j| = {abs(j)} exceeds guard {J_GUARD}")
    lo, hi = min(j, -2), max(j, 1)
    return _basic_window(lo, hi)[i + 2][j]


def verify_identity(lhs: BiPoly, rhs: BiPoly) -> bool:
    """True iff lhs and rhs are the same polynomial, exactly."""
    return (lhs - rhs).is_zero()
