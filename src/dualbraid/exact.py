"""Exact arithmetic for the root systems of the exceptional types.

The root model works over the integers for every type.  The roots of H3
and H4 lie in the golden ring Z[phi] with phi^2 = phi + 1, implemented
here as :class:`GoldenInt`; the model holds a coordinate a + b phi as the
integers a and b and reports its roots in Z[phi].  Left null spaces of
integer or golden matrices are computed by cross-multiplication
elimination, which needs no exact division; the root model answers both
its rank questions from one, over Z.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

__all__ = ["GoldenInt", "left_null_basis"]


@dataclass(frozen=True, slots=True)
class GoldenInt:
    """An element a + b*phi of Z[phi], phi the golden ratio.

    >>> phi = GoldenInt(0, 1)
    >>> phi * phi == phi + 1
    True
    """

    a: int
    b: int

    @staticmethod
    def coerce(value: "GoldenInt | int") -> "GoldenInt":
        if isinstance(value, GoldenInt):
            return value
        return GoldenInt(value, 0)

    def __add__(self, other: "GoldenInt | int") -> "GoldenInt":
        other = GoldenInt.coerce(other)
        return GoldenInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "GoldenInt":
        return GoldenInt(-self.a, -self.b)

    def __sub__(self, other: "GoldenInt | int") -> "GoldenInt":
        return self + (-GoldenInt.coerce(other))

    def __rsub__(self, other: "GoldenInt | int") -> "GoldenInt":
        return GoldenInt.coerce(other) + (-self)

    def __mul__(self, other: "GoldenInt | int") -> "GoldenInt":
        other = GoldenInt.coerce(other)
        # (a + b phi)(c + d phi) with phi^2 = phi + 1
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenInt(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.a or self.b)


def _reduce_int_vector(vec: list) -> list:
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g > 1:
        return [v // g for v in vec]
    return vec


def left_null_basis(mat: Sequence[Sequence]) -> tuple[tuple, ...]:
    """Basis of the rows y with y @ mat = 0, for a square matrix over Z or Z[phi].

    Fraction-free elimination on the transpose; integer vectors are
    divided by the gcd of their entries.

    >>> left_null_basis([[1, 2], [2, 4]])
    ((-2, 1),)
    """
    n = len(mat)
    golden = any(isinstance(x, GoldenInt) for x in mat[0])
    one = GoldenInt(1, 0) if golden else 1
    zero = one - one
    rows = [list(col) for col in zip(*mat)]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, n):
            if rows[i][c]:
                mult = rows[i][c]
                ri = rows[i]
                rr = rows[r]
                rows[i] = [pv * ri[j] - mult * rr[j] for j in range(n)]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    basis = []
    pivot_set = set(piv_cols)
    for fcol in (c for c in range(n) if c not in pivot_set):
        y = [zero] * n
        y[fcol] = one
        for i in reversed(range(len(piv_cols))):
            p = piv_cols[i]
            row = rows[i]
            s = zero
            for j in range(n):
                if j != p and y[j] and row[j]:
                    s = s + row[j] * y[j]
            pv = row[p]
            y = [pv * v for v in y]
            y[p] = zero - s
        if not golden:
            y = _reduce_int_vector(y)
        basis.append(tuple(y))
    return tuple(basis)
