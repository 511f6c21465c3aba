from dataclasses import dataclass
from random import Random

import pytest

from dualbraid import congruence


@dataclass(frozen=True)
class Golden:
    """a + b phi in the golden ring Z[phi], phi^2 = phi + 1.

    The suite's own number type for H3 and H4; an int operand is read as
    a + 0 phi.  The package works over Z and has no such type.
    """

    a: int
    b: int = 0

    def __add__(self, other):
        other = _as_golden(other)
        return Golden(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Golden(-self.a, -self.b)

    def __sub__(self, other):
        return self + -_as_golden(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = _as_golden(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return Golden(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.a or self.b)


def _as_golden(value) -> Golden:
    return value if isinstance(value, Golden) else Golden(value)


@pytest.fixture
def golden():
    """The suite's own Z[phi] number type."""
    return Golden


def _golden_roots(group) -> tuple[tuple, ...]:
    """A root model's roots in the simple roots, over Z or, on H, Z[phi].

    On H3 and H4 the model holds a root as 2n integers, the coordinates in
    alpha_1..alpha_n, phi alpha_1..phi alpha_n; they are read back here as
    n entries a + b phi.
    """
    n = group.n
    if len(group.roots[0]) == n:
        return group.roots
    return tuple(tuple(map(Golden, r[:n], r[n:])) for r in group.roots)


@pytest.fixture
def golden_roots():
    """Read a root model's roots as n coordinates each, in Z[phi] on H."""
    return _golden_roots


def _rank(matrix) -> int:
    """Rank over Z or Z[phi] by cross-multiplication elimination.

    Row i below the pivot row p becomes p[c] * row - row[c] * p, which
    divides by nothing and shares no code with the package's left null
    basis in ``dualbraid.coxeter``.
    """
    rows = [list(row) for row in matrix]
    rank = 0
    for c in range(len(rows[0])):
        i = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                a, b = top[c], rows[i][c]
                rows[i] = [a * x - b * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


@pytest.fixture
def exact_rank():
    """The test suite's own rank oracle for integer and golden matrices."""
    return _rank


def _swap_entry(table, seed):
    """Replace one entry f(x, y) of a complement table, in place, by the
    entry of another pair with the same length; both picks are seeded."""
    rng = Random(seed)
    entries = table._entries
    pairs = sorted(p for p in entries if p[0] != p[1])
    x, y = rng.choice(pairs)
    same_length = {entries[p] for p in pairs if len(entries[p]) == len(entries[x, y])}
    entries[x, y] = rng.choice(sorted(same_length - {entries[x, y]}))
    table._swaps = congruence._swap_table(entries)
    return table


@pytest.fixture
def swap_entry():
    """A complement table corrupted by one seeded entry swap."""
    return _swap_entry
