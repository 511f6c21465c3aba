"""Concrete models of the finite Coxeter groups.

Every model encodes an element the same way, by the images of a fixed
point set: p[i] is the 0-based image of point i.  The point sets are the
n + 1 points of A(n); the 2n signed points of B(n) and D(n), where +k is
point k - 1 and -k is point n + k - 1; the m vertices of the m-gon for
I2(m), on which the reflection s_k sends i to k - i mod m (faithful
because m >= 3); and the roots of H3, H4, F4, E6, E7 and E8.  So one
``mul``, ``inv``, the group search and ``shortenings`` serve every type,
and a model supplies only its simples, reflections, ``refl_length`` and
``atom_image``.

A model holds its elements as byte strings when every point index fits in
a byte, that is with at most ``BYTE_POINTS`` = 256 points (every model but
I2(m) for m > 256, A(n) for n > 255 and B(n), D(n) for n > 128), and as
image tuples otherwise; it chooses once, when it is built.  Either way
``mul(u, v)`` is ``act(u, v + pad)``.  For bytes, ``act`` is
``bytes.translate`` and its 256-byte table is v followed by the unused
byte values ``pad``, so a product is one C call that builds no tuple; for
tuples, pad is empty.  The engines' loops call ``act`` on tables built once.
``left_div(u, v)`` is u^-1 v, chosen at the same time: for bytes it is the
translation table ``bytes.maketrans(u, v)`` cut to the points, again one C
call that also gives ``inv(u)`` as u^-1 times the identity, and for tuples
``mul(inv(u), v)``, where ``inv`` loops over the points.
For example, tau(1) of B2 swaps +1 (point 0) with -1 (point 2), and the
Coxeter element of I2(5) is the rotation i -> i - 1:

>>> from dualbraid import parse_type, parse_atom
>>> b2 = coxeter_group(parse_type("B2"))
>>> b2.atom_image(parse_atom("tau(1)"))
b'\\x02\\x01\\x00\\x03'
>>> tuple(b2.atom_image(parse_atom("tau(1)")))
(2, 1, 0, 3)
>>> tuple(coxeter_group(parse_type("I2(5)")).coxeter_element)
(4, 0, 1, 2, 3)
>>> type(coxeter_group(parse_type("I2(257)")).identity)
<class 'tuple'>

``mul(u, v)`` composes two elements with u applied first, ``inv`` inverts,
``refl_length`` is the absolute reflection length (codimension of the
fixed space), ``simples`` lists the simple reflections in a fixed order,
and ``coxeter_element`` is the product of the simples in reversed listed
order.  That fixed choice matches the image of the dual Garside word under
the projection that sends each atom to its reflection.
``shortenings(x, l, among)`` returns the int mask of the indices i in
``among`` whose reflection t = ``reflections[i]`` has l_T(t x) = l - 1,
which is all that interval enumeration asks of a model.  It asks only
about the complements it cannot settle from two parents, c and its lower
covers on a reflection group, with ``among`` narrowed to the reflections
below every parent, and of the lower covers only about one per orbit of
conjugation by c; the model tests each candidate it is given.

The group search builds W along the chain of standard parabolic
subgroups W_J, J the first k simples for k = 0, ..., rank.  The next
step W_K is the disjoint union of the cosets W_J x over the minimal
right-coset representatives x, with l(y x) = l(y) + l(x) for y in W_J
(Humphreys, *Reflection Groups and Coxeter Groups*, 1.10).  The cosets
are found by a search over the images of a W_J-orbit of points, whose
stabiliser Schreier's lemma checks to be W_J, and each coset's products
are one ``act`` per element in C: about |W| products in all, where a
Cayley-graph search makes rank |W|.

Interval enumeration looks complements up by the images of their first
max(rank, 2) points, which determine an element in every model: the last
point of A(n) goes where the others leave room, -k goes to the negative
of the image of +k in B(n) and D(n), a dihedral symmetry is fixed by
where it sends two adjacent vertices, and the first rank roots of H/F/E
are the simple roots, a basis.

The root model builds its roots exactly over Z, H3 and H4 included,
whose roots in the golden ring Z[phi] it holds by their 2n integer
coordinates in the Z-basis alpha_i, phi alpha_i.  It answers its two rank
questions, the reflection length and the moved-space test behind its
``shortenings``, from one left null basis of x - 1 in those coordinates.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import repeat
from typing import Iterable

from .coxtypes import CoxType
from .exact import GoldenInt, left_null_basis
from .presentation import Atom, Word

__all__ = [
    "BYTE_POINTS",
    "coxeter_group",
    "PermGroup",
    "SignedPermGroup",
    "DihedralGroup",
    "RootGroup",
    "word_image",
]

# a model on at most this many points holds its elements as byte strings;
# read when a model is built
BYTE_POINTS = 256


def _compose(u: tuple, v: tuple) -> tuple:
    # tuple(v[x] for x in u), done in C; u has more than one point
    return operator.itemgetter(*u)(v)


def _byte_left_div(u: bytes, v: bytes) -> bytes:
    # the table that sends u[i] to v[i], cut to u's points: u^-1 v in C
    return bytes.maketrans(u, v)[: len(u)]


class _GroupBase:
    """Element arithmetic shared by every model, on byte or tuple images."""

    ctype: CoxType
    identity: bytes | tuple[int, ...]
    simples: tuple
    reflections: tuple

    def _use_points(self, points: int) -> None:
        """Choose the element encoding for ``points`` points, once."""
        if points <= BYTE_POINTS:
            self._element, self.pad, self.act = bytes, bytes(range(points, 256)), bytes.translate
            self.left_div = _byte_left_div
        else:
            self._element, self.pad, self.act = tuple, (), _compose
            self.left_div = lambda u, v: self.mul(self.inv(u), v)
        self.identity = self._element(range(points))

    def _swapping(self, pairs) -> bytes | tuple[int, ...]:
        """The element that swaps each listed pair of points."""
        el = list(self.identity)
        for a, b in pairs:
            el[a], el[b] = b, a
        return self._element(el)

    def mul(self, u, v):
        return self.act(u, v + self.pad)

    def inv(self, u):
        if type(u) is bytes:
            return _byte_left_div(u, self.identity)
        out = [0] * len(u)
        for i, x in enumerate(u):
            out[x] = i
        return self._element(out)

    @cached_property
    def coxeter_element(self):
        el = self.identity
        for s in reversed(self.simples):
            el = self.mul(el, s)
        return el

    def enumerate_group(self) -> dict:
        """Every element of W, mapped to its word length ell_S.

        W is built along the chain of standard parabolic subgroups W_J in
        W_K, where K is the first k + 1 simples and J the first k.  Each
        step finds the minimal representatives x of the right cosets W_J x
        in W_K (``_transversal``), then writes W_K as the products y x over
        y in W_J, one ``act`` per element and one coset at a time in C,
        with length l(y) + l(x).  Each step is checked twice: the
        representatives pass a Schreier check, and the products are
        distinct, |W_K| = |W_J| times the number of cosets.  At the end W
        must have ``group_order`` elements.  A failed check raises
        ``RuntimeError`` naming the type.  The dict is ordered coset by
        coset: by representative in search order, then as W_J.
        """
        act, pad = self.act, self.pad
        group = {self.identity: 0}
        for k in range(len(self.simples)):
            reps = self._transversal(group, k)
            if reps is None:
                raise RuntimeError(
                    f"group {self.ctype}: no orbit of points that simple {k + 1} "
                    f"moves has the subgroup of simples 1..{k} as its stabiliser"
                )
            sub, group = group, {}
            for x, d in reps:
                products = map(act, sub, repeat(x + pad))
                group.update(zip(products, map(operator.add, sub.values(), repeat(d))))
            if len(group) != len(reps) * len(sub):
                raise RuntimeError(
                    f"group {self.ctype}: the cosets of the subgroup of simples 1..{k} "
                    f"overlap in the subgroup of simples 1..{k + 1}"
                )
        if len(group) != self.ctype.group_order:
            raise RuntimeError(
                f"group {self.ctype}: the simples generate {len(group)} elements, "
                f"expected {self.ctype.group_order}"
            )
        return group

    def _transversal(self, sub: dict, k: int) -> list | None:
        """Minimal right-coset representatives of W_J in W_K, with lengths.

        ``sub`` is W_J, J the first k simples, and K adds simple k + 1.
        The candidate point sets Q are the W_J-orbits of the points that
        simple k + 1 moves, taken by least point; the first that passes
        ``_coset_search`` gives the (x, d) pairs, and None means none did.
        """
        simples = self.simples[: k + 1]
        tried: set[int] = set()
        for p, image in enumerate(simples[k]):
            if p == image or p in tried:
                continue
            orbit, stack = {p}, [p]
            while stack:
                q = stack.pop()
                for s in simples[:k]:
                    if s[q] not in orbit:
                        orbit.add(s[q])
                        stack.append(s[q])
            tried |= orbit
            reps = self._coset_search(sub, simples, tuple(orbit))
            if reps is not None:
                return reps
        return None

    def _coset_search(self, sub: dict, simples: tuple, points: tuple) -> list | None:
        """Breadth-first search of the cosets W_J x, keyed by x's images of Q.

        Q = ``points`` is a union of W_J-orbits, so a coset of W_J has one
        image set of Q.  The search over image sets by ``simples`` (the
        simples of K) gives each key a representative x, reached first,
        and its depth d.  By Schreier's lemma the stabiliser of Q in W_K is
        generated by the x s z^-1, over representatives x and simples s,
        with z the representative of x s's key.  Each is looked up in
        ``sub``; if all lie in W_J, the stabiliser is W_J, the keys name
        the cosets, and each x is its coset's shortest element, of length
        d.  Returns the (x, d) in search order, or None at the first
        generator outside W_J.
        """
        act, pad, identity = self.act, self.pad, self.identity
        steps = [(s + pad, self.inv(s)) for s in simples]
        # key -> the padded table of its representative's inverse, built
        # along the search as (x s)^-1 = s^-1 x^-1
        back = {frozenset(points): identity + pad}
        queue = [(identity, 0, identity + pad)]
        for x, d, x_inv in queue:
            for table, s_inv in steps:
                xs = act(x, table)
                key = frozenset(map(xs.__getitem__, points))
                z_inv = back.get(key)
                if z_inv is None:
                    back[key] = z_inv = act(s_inv, x_inv) + pad
                    queue.append((xs, d + 1, z_inv))
                elif act(xs, z_inv) not in sub:
                    return None
        return [(x, d) for x, d, _ in queue]

    def shortenings(self, x, length: int, among) -> int:
        """Mask of the indices i with t = reflections[i] below x.

        ``length`` is l_T(x), and t lies below x in absolute order when
        l_T(t x) = length - 1; ``t x`` is ``mul(t, x)``.  Only the indices
        in ``among`` are tested, and each one is tested by its reflection
        length.  Interval enumeration calls this only for c and for one
        lower cover per orbit of conjugation by c.
        """
        mul, refl_length, reflections = self.mul, self.refl_length, self.reflections
        return sum(1 << i for i in among if refl_length(mul(reflections[i], x)) == length - 1)


class PermGroup(_GroupBase):
    """Symmetric group on the rank + 1 points; label k is point k - 1."""

    def __init__(self, ctype: CoxType):
        if ctype.series != "A":
            raise ValueError(f"the permutation model covers type A, not {ctype}")
        self.ctype = ctype
        self.points = p = ctype.rank + 1
        self._use_points(p)
        self.simples = tuple(self.transposition(i, i + 1) for i in range(1, p))
        self.reflections = tuple(
            self.transposition(t, s) for t in range(2, p + 1) for s in range(1, t)
        )

    def transposition(self, t: int, s: int):
        return self._swapping(((t - 1, s - 1),))

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
        if atom.family == "a" and atom.i <= self.points:
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
        self._use_points(2 * n)
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

        return self._swapping(((point(a), point(b)), (point(-a), point(-b))))

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
        fam, i, j, n = atom.family, atom.i, atom.j, self.n
        # a binary atom has i > j >= 1, so only i can leave the range
        if fam == "alpha" and i <= n:
            return self.reflection(i, j)
        if fam == "beta" and i <= n:
            return self.reflection(i, -j)
        if fam == "tau" and self.ctype.series == "B" and 1 <= i <= n:
            return self.reflection(i, -i)
        if fam == "tau" and self.ctype.series == "D" and i == 1:
            return self.reflection(2, -1)
        if fam == "sigma" and 1 <= i < n:
            return self.reflection(i + 1, i)
        raise ValueError(f"{atom} is not a generator of type {self.ctype}")


class DihedralGroup(_GroupBase):
    """I2(m) on the m vertices of the m-gon; s_k sends vertex i to k - i."""

    def __init__(self, ctype: CoxType):
        if ctype.series != "I2":
            raise ValueError(f"the dihedral model covers I2, not {ctype}")
        self.ctype = ctype
        self.m = m = ctype.param
        self._use_points(m)
        self.reflections = tuple(self._element((k - i) % m for i in range(m)) for k in range(m))
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


def _cartan_matrix(ctype: CoxType) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix over Z, of size 2n on H3 and H4.

    An H entry p + q phi acts on the Z-basis (alpha_i, phi alpha_i) by
    (p + q phi)(a + b phi) = (pa + qb) + (qa + (p + q)b) phi.
    """
    n = ctype.rank
    if ctype.series == "F":
        return _F4_CARTAN
    if ctype.series == "E":
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i, j in _E_EDGES[n]:
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = -1
        return tuple(tuple(r) for r in rows)
    # H3, H4: 2 on the diagonal, -phi on the bond 5 of nodes 1 and 2, -1 on
    # the bonds 3; p + q phi becomes the block ((p, q), (q, p + q))
    entries = {(i, i): (2, 0) for i in range(n)}
    for i in range(n - 1):
        entries[i, i + 1] = entries[i + 1, i] = (0, -1) if i == 0 else (-1, 0)
    rows = [[0] * 2 * n for _ in range(2 * n)]
    for (i, j), (p, q) in entries.items():
        rows[i][j], rows[i][j + n], rows[i + n][j], rows[i + n][j + n] = p, q, q, p + q
    return tuple(map(tuple, rows))


class RootGroup(_GroupBase):
    """An exceptional type as permutations of its root system.

    The roots are built once, exactly, over Z: the orbit of the simple
    roots under the simple reflections, which is closed under negation.
    A root holds its coordinates in the simple roots, on H3 and H4 the 2n
    of the Z-basis alpha_1..alpha_n, phi alpha_1..phi alpha_n, and
    ``roots`` reads them as tuples over Z or Z[phi] (:class:`GoldenInt`).
    The first ``rank`` roots are the simple roots.  An element w has p[r]
    the index of w(root r): the roots are the point set of this model.
    There is one reflection per +- root pair, the conjugate of a simple
    reflection along the path that reached its root.
    Both rank questions go through one left null basis of w - 1 over Q in
    these coordinates, whose rows cut out im(w - 1).  On H, w - 1 is
    Q(phi)-linear, so its image over Q is its image over Q(phi) and each
    dimension of Fix(w) gives two rows: l_T(w) is n - k/2 for k rows,
    and n - k elsewhere.
    """

    def __init__(self, ctype: CoxType):
        if ctype.series not in ("H", "F", "E"):
            raise ValueError(f"the root model covers H, F and E, not {ctype}")
        self.ctype = ctype
        self.n = n = ctype.rank
        cartan = _cartan_matrix(ctype)
        self._dim = dim = len(cartan)
        # s_j(v) = v - (sum_i v_i cartan[i][j]) e_j on coordinate vectors,
        # on coordinates j and j + n of H at once
        moves = [
            [(c, [row[c] for row in cartan]) for c in range(j, dim, n)] for j in range(n)
        ]
        roots = [tuple(int(i == j) for i in range(dim)) for j in range(n)]
        index = {root: r for r, root in enumerate(roots)}
        images: list[list[int]] = [[] for _ in range(n)]
        parent: list[tuple[int, int] | None] = [None] * n
        r = 0
        while r < len(roots):
            root = roots[r]
            for j, move in enumerate(moves):
                image = list(root)
                for c, col in move:
                    image[c] -= sum(map(operator.mul, root, col))
                image = tuple(image)
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
        self._roots = roots
        self._use_points(len(roots))
        self.simples = tuple(map(self._element, images))
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

    @cached_property
    def roots(self) -> tuple[tuple, ...]:
        """The roots in the simple-root basis, over Z or, on H, Z[phi]."""
        n, golden = self.n, self._dim > self.n
        return tuple(tuple(map(GoldenInt, r[:n], r[n:])) if golden else r for r in self._roots)

    def _moved(self, u) -> list[list[int]]:
        """w - 1 over Z: column j is w(e_j) - e_j for coordinate vector e_j."""
        roots, n = self._roots, self.n
        cols = [roots[k] for k in u[:n]]
        if self._dim != n:
            # w(phi alpha_j) = phi w(alpha_j), and phi (a + b phi) = b + (a + b) phi
            cols += [col[n:] + tuple(map(operator.add, col[:n], col[n:])) for col in cols]
        return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(zip(*cols))]

    def refl_length(self, u) -> int:
        # dim / n null rows per dimension of Fix(w)
        return (self._dim - len(left_null_basis(self._moved(u)))) * self.n // self._dim

    def shortenings(self, x, length: int, among) -> int:
        """Mask of the indices i with t = reflections[i] below x.

        Only the indices in ``among`` are tested.  t shortens x exactly
        when the root of t lies in the moved space im(x - 1), i.e. when
        every row of the left null space of x - 1 annihilates it; this
        holds at any length, so ``length`` is unused.  Interval
        enumeration calls this only for c and for one lower cover per
        orbit of conjugation by c, so it builds one left null basis per
        orbit of reflections, plus one for c.
        """
        roots = self._reflection_roots
        kept = list(among)
        for y in left_null_basis(self._moved(x)):
            kept = [i for i in kept if not sum(map(operator.mul, y, roots[i]))]
        return sum(1 << i for i in kept)

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

