from random import Random

import pytest

from dualbraid import congruence


def _rank(matrix) -> int:
    """Rank over Z or Z[phi] by cross-multiplication elimination.

    Row i below the pivot row p becomes p[c] * row - row[c] * p, which
    divides by nothing and shares no code with ``dualbraid.exact``.
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
