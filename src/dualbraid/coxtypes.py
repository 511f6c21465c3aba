"""Finite Coxeter type labels and their numerology.

A :class:`CoxType` names one of the finite irreducible Coxeter groups
supported by this package: the infinite series A(n), B(n), D(n) and the
dihedral groups I2(m), plus the exceptional types H3, H4, F4, E6, E7, E8.

All counting data (group order, number of reflections, Coxeter number,
number of noncrossing-partition elements) is derived from the table of
invariant degrees, which is the single source of truth here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["CoxType", "parse_type", "SUPPORTED_SERIES"]

SUPPORTED_SERIES = ("A", "B", "D", "I2", "H", "F", "E")

# Invariant degrees of the exceptional types.
_EXCEPTIONAL_DEGREES = {
    ("H", 3): (2, 6, 10),
    ("H", 4): (2, 12, 20, 30),
    ("F", 4): (2, 6, 8, 12),
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


@dataclass(frozen=True, order=True)
class CoxType:
    """An irreducible finite Coxeter type.

    ``series`` is one of ``A B D I2 H F E``; ``rank`` is the number of
    simple reflections.  For the dihedral series I2 the extra ``param``
    holds m, the order of the product of the two simple reflections.
    """

    series: str
    rank: int
    param: int = 0

    def __post_init__(self) -> None:
        s, n, m = self.series, self.rank, self.param
        if s not in SUPPORTED_SERIES:
            raise ValueError(f"unknown series {s!r}; expected one of {SUPPORTED_SERIES}")
        if s == "A" and n < 1:
            raise ValueError("type A needs rank >= 1")
        if s == "B" and n < 2:
            raise ValueError("type B needs rank >= 2")
        if s == "D":
            if n == 2:
                raise ValueError(
                    "D(2) is reducible (two commuting reflections); use two copies of A(1)"
                )
            if n < 3:
                raise ValueError("type D needs rank >= 3")
        if s == "I2":
            if n != 2:
                raise ValueError("I2 types always have rank 2")
            if m < 3:
                raise ValueError("I2(m) needs m >= 3")
        if s != "I2" and m != 0:
            raise ValueError("param is only meaningful for I2 types")
        if s == "H" and n not in (3, 4):
            raise ValueError("type H exists only in ranks 3 and 4")
        if s == "F" and n != 4:
            raise ValueError("type F exists only in rank 4")
        if s == "E" and n not in (6, 7, 8):
            raise ValueError("type E exists only in ranks 6, 7 and 8")

    def __str__(self) -> str:
        if self.series == "I2":
            return f"I2({self.param})"
        return f"{self.series}{self.rank}"

    @property
    def degrees(self) -> tuple[int, ...]:
        """Invariant degrees, ascending except D(n) which lists n last."""
        n = self.rank
        if self.series == "A":
            return tuple(range(2, n + 2))
        if self.series == "B":
            return tuple(range(2, 2 * n + 1, 2))
        if self.series == "D":
            return tuple(range(2, 2 * n - 1, 2)) + (n,)
        if self.series == "I2":
            return (2, self.param)
        return _EXCEPTIONAL_DEGREES[(self.series, n)]

    @property
    def group_order(self) -> int:
        return math.prod(self.degrees)

    @property
    def num_reflections(self) -> int:
        return sum(d - 1 for d in self.degrees)

    @property
    def coxeter_number(self) -> int:
        return max(self.degrees)

    @property
    def simples_count(self) -> int:
        """Number of divisors of the dual Garside element, prod (d+h)/d."""
        h = self.coxeter_number
        out = Fraction(1)
        for d in self.degrees:
            out *= Fraction(d + h, d)
        if out.denominator != 1:
            raise ArithmeticError(f"simples count of {self} is not an integer: {out}")
        return out.numerator

    @property
    def coxeter_factorization_count(self) -> int:
        """Number of minimal reflection words for a Coxeter element."""
        n = self.rank
        count = Fraction(math.factorial(n)) * self.coxeter_number**n / self.group_order
        if count.denominator != 1:
            raise ArithmeticError(
                f"Coxeter factorization count of {self} is not an integer: {count}"
            )
        return count.numerator

    @property
    def has_explicit_presentation(self) -> bool:
        """True for the series whose presentations are spelled out by atoms."""
        return self.series in ("A", "B", "D", "I2")


_I2_RE = re.compile(r"^I2?\s*[(:,]\s*(\d+)\s*\)?$", re.IGNORECASE)
_TYPE_RE = re.compile(r"^([A-Za-z])\s*\(?\s*(\d+)\s*\)?$")


def parse_type(text: str) -> CoxType:
    """Parse a type token such as ``A3``, ``B4``, ``I2:7``, ``I2(7)``, ``E8``.

    >>> parse_type("A3")
    CoxType(series='A', rank=3, param=0)
    >>> str(parse_type("I2:5"))
    'I2(5)'
    """
    text = text.strip()
    match = _I2_RE.match(text)
    if match:
        return CoxType("I2", 2, int(match.group(1)))
    match = _TYPE_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse Coxeter type token {text!r}")
    head, num = match.group(1).upper(), int(match.group(2))
    if head == "I":
        return CoxType("I2", 2, num)
    if head in ("A", "B", "D", "H", "F", "E"):
        return CoxType(head, num)
    raise ValueError(f"cannot parse Coxeter type token {text!r}")
