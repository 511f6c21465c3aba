"""Concrete models of the finite Coxeter groups.

Every model encodes an element the same way: as the 0-based tuple p of
the images of a fixed point set, p[i] being the image of point i.  The
point sets are the n + 1 points of A(n); the 2n signed points of B(n) and
D(n), where +k is point k - 1 and -k is point n + k - 1; the m vertices
of the m-gon for I2(m), on which the reflection s_k sends i to k - i
mod m (faithful because m >= 3); and the roots of H3, H4, F4, E6, E7 and
E8.  So one ``mul``, ``inv``, Cayley-graph search and ``shortenings``
serve every type, and a model supplies only its simples, reflections,
``refl_length`` and ``atom_image``.  For example, tau(1) of B2 swaps +1
(point 0) with -1 (point 2), and the Coxeter element of I2(5) is the
rotation i -> i - 1:

>>> from dualbraid import parse_type, parse_atom
>>> coxeter_group(parse_type("B2")).atom_image(parse_atom("tau(1)"))
(2, 1, 0, 3)
>>> coxeter_group(parse_type("I2(5)")).coxeter_element
(4, 0, 1, 2, 3)

``mul(u, v)`` composes two elements with u applied first, ``inv`` inverts,
``refl_length`` is the absolute reflection length (codimension of the
fixed space), ``simples`` lists the simple reflections in a fixed order,
and ``coxeter_element`` is the product of the simples in reversed listed
order.  That fixed choice matches the image of the dual Garside word under
the projection that sends each atom to its reflection.
``shortenings(x, l, among)`` yields the pairs (i, t x) for the reflections
t = ``reflections[i]``, i in ``among``, with l_T(t x) = l - 1, which is
all that interval enumeration asks of a model.  It asks only about the
complements it cannot settle from two parents, c and its lower covers on
a reflection group, with ``among`` narrowed to the reflections below every
parent; the model tests each candidate it is given.

The two searches, the Cayley-graph search here and interval enumeration,
compute on codes.  ``codec`` is a triple (code, pad, act) with
act(code(u), code(v) + pad) equal to code(mul(u, v)).  When every point
index fits in a byte, that is with at most 256 points (every model but
I2(m) for m > 256, A(n) for n > 255 and B(n), D(n) for n > 128), a code
is a byte string
and act is ``bytes.translate``, whose 256-byte table is code(v) followed by
the unused byte values ``pad``: a product is one C call that builds no
tuple.  Otherwise a code is the image tuple itself, pad is empty and act
is ``mul``.  Either way one loop serves both branches:

>>> code, pad, act = coxeter_group(parse_type("A2")).codec
>>> uv = act(code((1, 0, 2)), code((0, 2, 1)) + pad)
>>> uv, tuple(uv)
(b'\\x02\\x00\\x01', (2, 0, 1))

The Cayley-graph search multiplies the whole frontier by each simple
reflection in C and decodes its codes to tuples once at the end.  Interval
enumeration looks complements up by the images of their first
max(rank, 2) points, which determine an element in every model: the last
point of A(n) goes where the others leave room, -k goes to the negative of
the image of +k in B(n) and D(n), a dihedral symmetry is fixed by where it
sends two adjacent vertices, and the first rank roots of H/F/E are the
simple roots, a basis.

The root model builds its roots exactly, over Z or over the golden ring
Z[phi] for H3 and H4, and answers its two rank questions from them: the
reflection length, and the moved-space test behind its ``shortenings``.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import chain, filterfalse, repeat
from typing import Iterable

from .coxtypes import CoxType
from .exact import GoldenInt, left_null_basis, matrix_rank
from .presentation import Atom, Word

__all__ = [
    "coxeter_group",
    "PermGroup",
    "SignedPermGroup",
    "DihedralGroup",
    "RootGroup",
    "word_image",
]


class _GroupBase:
    """Element arithmetic shared by every model: image tuples of points."""

    ctype: CoxType
    identity: tuple[int, ...]
    simples: tuple[tuple[int, ...], ...]
    reflections: tuple[tuple[int, ...], ...]

    def mul(self, u, v):
        # tuple(v[x] for x in u), done in C
        return operator.itemgetter(*u)(v)

    def inv(self, u):
        out = [0] * len(u)
        for i, x in enumerate(u):
            out[x] = i
        return tuple(out)

    @cached_property
    def coxeter_element(self):
        el = self.identity
        for s in reversed(self.simples):
            el = self.mul(el, s)
        return el

    @cached_property
    def codec(self):
        """(code, pad, act): act(code(u), code(v) + pad) is code(mul(u, v)).

        Byte strings and ``bytes.translate`` when every point index fits
        in a byte, image tuples and ``mul`` otherwise (see the module
        docstring).
        """
        points = len(self.identity)
        if points <= 256:
            return bytes, bytes(range(points, 256)), bytes.translate
        return tuple, (), self.mul

    def enumerate_group(self) -> dict:
        """BFS over the Cayley graph; maps element -> word length ell_S.

        A frontier is multiplied by every simple reflection with the
        ``codec`` act, in C, and the products new to the search form the
        next frontier in discovery order: by frontier element, then by
        simple.  Codes are decoded to tuples once, at the end.
        """
        code, pad, act = self.codec
        tables = [code(s) + pad for s in self.simples]
        frontier = [code(self.identity)]
        depth = dict.fromkeys(frontier, 0)
        d = 0
        while frontier:
            d += 1
            products = chain.from_iterable(
                zip(*(map(act, frontier, repeat(table)) for table in tables))
            )
            frontier = list(dict.fromkeys(filterfalse(depth.__contains__, products)))
            depth.update(zip(frontier, repeat(d)))
        if len(depth) != self.ctype.group_order:
            raise RuntimeError(
                f"group {self.ctype}: BFS reached {len(depth)} elements, "
                f"expected {self.ctype.group_order}"
            )
        return dict(zip(map(tuple, depth), depth.values()))

    def shortenings(self, x, length: int, among):
        """Pairs (i, t x) over the reflections t = reflections[i] below x.

        ``length`` is l_T(x), and t lies below x in absolute order when
        l_T(t x) = length - 1; ``t x`` is ``mul(t, x)``.  Only the indices
        in ``among``, listed in increasing order, are tested, and each one
        is tested by its reflection length.  Interval enumeration calls
        this for c and its lower covers only.
        """
        for i in among:
            tx = self.mul(self.reflections[i], x)
            if self.refl_length(tx) == length - 1:
                yield i, tx


def _swapping(size: int, pairs) -> tuple[int, ...]:
    """The permutation of range(size) that swaps each listed pair of points."""
    el = list(range(size))
    for a, b in pairs:
        el[a], el[b] = b, a
    return tuple(el)


class PermGroup(_GroupBase):
    """Symmetric group on the rank + 1 points; label k is point k - 1."""

    def __init__(self, ctype: CoxType):
        if ctype.series != "A":
            raise ValueError(f"the permutation model covers type A, not {ctype}")
        self.ctype = ctype
        self.points = p = ctype.rank + 1
        self.identity = tuple(range(p))
        self.simples = tuple(self.transposition(i, i + 1) for i in range(1, p))
        self.reflections = tuple(
            self.transposition(t, s) for t in range(2, p + 1) for s in range(1, t)
        )

    def transposition(self, t: int, s: int):
        return _swapping(self.points, ((t - 1, s - 1),))

    def refl_length(self, u) -> int:
        seen = [False] * self.points
        cycles = 0
        for i in range(self.points):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = u[j]
        return self.points - cycles

    def atom_image(self, atom: Atom):
        if atom.family == "a":
            return self.transposition(atom.i, atom.j)
        if atom.family == "sigma" and 1 <= atom.i < self.points:
            return self.transposition(atom.i + 1, atom.i)
        raise ValueError(f"{atom} is not a generator of type {self.ctype}")


class SignedPermGroup(_GroupBase):
    """Hyperoctahedral model for B and D on the 2n signed points.

    +k is point k - 1 and -k is point n + k - 1, so point p has the
    negative (p + n) mod 2n.
    """

    def __init__(self, ctype: CoxType):
        if ctype.series not in ("B", "D"):
            raise ValueError(f"the signed-permutation model covers B and D, not {ctype}")
        self.ctype = ctype
        self.n = n = ctype.rank
        self.identity = tuple(range(2 * n))
        first = self.reflection(1, -1) if ctype.series == "B" else self.reflection(2, -1)
        self.simples = (first,) + tuple(self.reflection(i + 1, i) for i in range(1, n))
        pairs = [(t, s) for t in range(2, n + 1) for s in range(1, t)]
        refs = [self.reflection(t, s) for t, s in pairs]
        refs += [self.reflection(t, -s) for t, s in pairs]
        if ctype.series == "B":
            refs += [self.reflection(t, -t) for t in range(1, n + 1)]
        self.reflections = tuple(refs)

    def reflection(self, a: int, b: int):
        """The reflection swapping the signed labels a, b and -a, -b."""
        n = self.n

        def point(k: int) -> int:
            return k - 1 if k > 0 else n - k - 1

        return _swapping(2 * n, ((point(a), point(b)), (point(-a), point(-b))))

    def refl_length(self, u) -> int:
        # codim of the fixed space: each signed cycle with an even number
        # of sign changes fixes a line; a walk from +i comes back to +i on
        # such a cycle and meets -i first on any other
        n = self.n
        seen = [False] * n
        positive = 0
        for i in range(n):
            if seen[i]:
                continue
            j = u[i]
            while j % n != i:
                seen[j % n] = True
                j = u[j]
            positive += j == i
        return n - positive

    def atom_image(self, atom: Atom):
        fam = atom.family
        if fam == "alpha":
            return self.reflection(atom.i, atom.j)
        if fam == "beta":
            return self.reflection(atom.i, -atom.j)
        if fam == "tau":
            if self.ctype.series == "B":
                return self.reflection(atom.i, -atom.i)
            if atom.i == 1:
                return self.reflection(2, -1)
            raise ValueError(f"{atom} is not a generator of type {self.ctype}")
        if fam == "sigma" and 1 <= atom.i < self.n:
            return self.reflection(atom.i + 1, atom.i)
        raise ValueError(f"{atom} is not a generator of type {self.ctype}")


class DihedralGroup(_GroupBase):
    """I2(m) on the m vertices of the m-gon; s_k sends vertex i to k - i."""

    def __init__(self, ctype: CoxType):
        if ctype.series != "I2":
            raise ValueError(f"the dihedral model covers I2, not {ctype}")
        self.ctype = ctype
        self.m = m = ctype.param
        self.identity = tuple(range(m))
        self.reflections = tuple(tuple((k - i) % m for i in range(m)) for k in range(m))
        self.simples = self.reflections[:2]

    def refl_length(self, u) -> int:
        # a reflection reverses the cyclic order of the vertices, a
        # rotation keeps it
        if (u[1] - u[0]) % self.m != 1:
            return 1
        return 0 if u[0] == 0 else 2

    def atom_image(self, atom: Atom):
        if atom.family == "sigma" and 1 <= atom.i <= self.m:
            return self.reflections[atom.i - 1]
        raise ValueError(f"{atom} is not a generator of type {self.ctype}")


_F4_CARTAN = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
_E_EDGES = {
    6: ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)),
    7: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
    8: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
}


def _cartan_matrix(ctype: CoxType):
    n = ctype.rank
    if ctype.series == "F":
        return _F4_CARTAN
    if ctype.series == "E":
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in _E_EDGES[n]:
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
        return tuple(tuple(r) for r in rows)
    # H3, H4: off-diagonal -2cos(pi/m): 0, -1 or -phi, over Z[phi]
    zero, one, phi = GoldenInt(0, 0), GoldenInt(1, 0), GoldenInt(0, 1)
    bonds = {3: {(1, 2): phi, (2, 3): one}, 4: {(1, 2): phi, (2, 3): one, (3, 4): one}}[n]
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = one + one
    for (i, j), val in bonds.items():
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = -val
    return tuple(tuple(r) for r in rows)


class RootGroup(_GroupBase):
    """An exceptional type as permutations of its root system.

    The roots are built once, exactly, in the simple-root basis over Z or
    Z[phi]: the orbit of the simple roots under the simple reflections,
    which is closed under negation.  The first ``rank`` roots are the
    simple roots.  An element w is the tuple p with p[r] the index of
    w(root r), the point set of this model.
    There is one reflection per +- root pair, the conjugate of a simple
    reflection along the path that reached its root.
    """

    def __init__(self, ctype: CoxType):
        if ctype.series not in ("H", "F", "E"):
            raise ValueError(f"the root model covers H, F and E, not {ctype}")
        self.ctype = ctype
        self.n = n = ctype.rank
        cartan = _cartan_matrix(ctype)
        one = GoldenInt(1, 0) if ctype.series == "H" else 1
        zero = one - one
        # s_j(v) = v - (sum_i v_i cartan[i][j]) e_j on coordinate vectors
        roots = [tuple(one if i == j else zero for i in range(n)) for j in range(n)]
        index = {root: r for r, root in enumerate(roots)}
        images: list[list[int]] = [[] for _ in range(n)]
        parent: list[tuple[int, int] | None] = [None] * n
        r = 0
        while r < len(roots):
            root = roots[r]
            for j in range(n):
                shift = sum((root[i] * cartan[i][j] for i in range(n)), start=zero)
                image = root[:j] + (root[j] - shift,) + root[j + 1:]
                k = index.get(image)
                if k is None:
                    k = index[image] = len(roots)
                    roots.append(image)
                    parent.append((r, j))
                images[j].append(k)
            r += 1
        if len(roots) != 2 * ctype.num_reflections:
            raise RuntimeError(
                f"{ctype}: found {len(roots)} roots, expected {2 * ctype.num_reflections}"
            )
        self.roots = tuple(roots)
        self.identity = tuple(range(len(roots)))
        self.simples = tuple(tuple(img) for img in images)
        # s_{s_j(a)} = s_j s_a s_j; keep the first root of each +- pair
        by_root = list(self.simples)
        for r in range(n, len(roots)):
            q, j = parent[r]
            s = self.simples[j]
            by_root.append(self.mul(self.mul(s, by_root[q]), s))
        negative = [index[tuple(-x for x in root)] for root in roots]
        kept = [r for r in range(len(roots)) if r < negative[r]]
        self.reflections = tuple(by_root[r] for r in kept)
        self._reflection_roots = tuple(roots[r] for r in kept)

    def _moved(self, u) -> list[list]:
        """M - I, where column j of M holds the coordinates of u(alpha_j)."""
        cols = [self.roots[k] for k in u[: self.n]]
        return [
            [col[i] - 1 if i == j else col[i] for j, col in enumerate(cols)]
            for i in range(self.n)
        ]

    def refl_length(self, u) -> int:
        return matrix_rank(self._moved(u))

    def shortenings(self, x, length: int, among):
        """Pairs (i, t x) over the reflections t = reflections[i] below x.

        Only the indices in ``among``, in increasing order, are tested.  t
        shortens x exactly when the root of t lies in the moved space
        im(x - 1), i.e. when every row of the left null space of x - 1
        annihilates it; this holds at any length, so ``length`` is unused.
        Interval enumeration calls this for c and its lower covers only,
        so one left null basis is built per reflection, plus one for c.
        """
        null = left_null_basis(self._moved(x))
        roots = self._reflection_roots
        for i in among:
            root = roots[i]
            for y in null:
                if sum(map(operator.mul, y, root)):
                    break
            else:
                yield i, self.mul(self.reflections[i], x)

    def atom_image(self, atom: Atom):
        raise ValueError(f"type {self.ctype} has no named generators")


def coxeter_group(ctype: CoxType) -> _GroupBase:
    """The reflection model used for the given type."""
    if ctype.series == "A":
        return PermGroup(ctype)
    if ctype.series in ("B", "D"):
        return SignedPermGroup(ctype)
    if ctype.series == "I2":
        return DihedralGroup(ctype)
    return RootGroup(ctype)


def word_image(group: _GroupBase, word: Word | Iterable[Atom]):
    """Project a word to the group, multiplying left factors first."""
    el = group.identity
    for atom in word:
        el = group.mul(el, group.atom_image(atom))
    return el

