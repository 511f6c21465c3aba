import pytest


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
