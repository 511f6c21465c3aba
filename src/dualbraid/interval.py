"""Absolute-order interval below a Coxeter element, with lattice machinery.

The simple elements of the dual monoid form the interval between the
identity and a Coxeter element c, ordered by reflection length: u comes
before v when l(u) + l(u^-1 v) = l(v).  This module enumerates that
interval grade by grade, builds its Hasse diagram, and checks the lattice
property.  The same poset container also carries the weak-order interval
below the longest element, which is the simple-element poset of the
classical braid monoid; both feed the Garside engine.

Membership during enumeration is decided through complements: with
x = u^-1 c, the extension u * t stays in the interval exactly when the
reflection t shortens x.  The loop runs grade by grade, so every parent of
a complement is done before it, and a complement inherits the reflections
found below its parents.  When two parents x and x'' of x' bring different
found sets, their common part is exactly the set below x': a reflection
lies below w exactly when its root lies in Mov(w) = im(w - 1) (Carter,
1972), Mov is injective on [1, c] (Brady and Watt, 2002), and so
Mov(x') = Mov(x) & Mov(x''), both sides having dimension l(x').  Such a
complement needs no test, and its set is exact after two distinct
parents: every later parent lies above it and brings a superset, so it is
not intersected again.  The group model's ``shortenings`` hook, which
returns the int mask of the reflections below a complement, is needed
only for the others, the complements whose parents all brought the same
set: on a reflection group these are c and its lower covers t c, 1 + N
complements for N reflections.  Conjugation by c is an automorphism of
[1, c] (Bessis, 2003) that permutes the reflections by
sigma(t) = c^-1 t c and sends t c to sigma(t) c, so
found(sigma(t) c) = sigma(found(t c)): the model is asked about c and one
lower cover per sigma-orbit, and the answer is carried along the orbit.
A model whose reflections c-conjugation does not permute is asked about
every lower cover.  A complement is looked up by the images of its first
max(rank, 2) points, which determine an element in every model, and only
the current frontier keeps full complements.  Elements are the group
model's own (byte strings for at most 256 points, image tuples beyond),
and every product is one ``act`` of the model on a table built once per
reflection.

The poset keeps its Hasse diagram once, as upper covers: ``covers_up[i]``
holds the indices just above i, and ``cover_edges`` is a read-only view
that yields the same diagram as (lo, hi) pairs and counts them without
building any.  Meets and joins take and return element indices
(``poset.index`` maps an element to its index).  They read int bitsets
built once from the covers: bit i of ``down_masks[j]`` and bit top - j of
``up_masks[i]`` are set when i lies below j, so each mask spans only the
part of the order on its own side; each down mask is pushed up along the
upper covers, so no lower covers are built.  The lattice check first
certifies that the complement maps send covers to covers, then compares
meets and joins, taken on the masks, with their complement route, over
every pair of a poset of at most ``EXHAUSTIVE_LIMIT`` elements and over a
seeded sample of pairs of a larger one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from .coxtypes import CoxType
from .coxeter import coxeter_group

# limits read at call time: the largest group whose weak order is built,
# and the largest poset whose lattice check runs over every pair
WEAK_ORDER_CAP = 50_000
EXHAUSTIVE_LIMIT = 300


class LatticeError(RuntimeError):
    """A pair of poset elements has no unique bound; structural failure.

    A ``RuntimeError``, so the command line reports it as an internal
    failure (exit 1) rather than a traceback.
    """


class CoverEdges:
    """Read-only view of a poset's cover pairs (lo, hi), lo below hi.

    Iteration yields the pairs from the upper covers, lo in increasing
    order and each lo's covers in stored order; ``len`` is counted once,
    when the view is made, so asking for it builds no pair.
    """

    __slots__ = ("_ups", "_count")

    def __init__(self, ups: tuple[tuple[int, ...], ...]):
        self._ups = ups
        self._count = sum(map(len, ups))

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        for lo, ups in enumerate(self._ups):
            for hi in ups:
                yield lo, hi


class IntervalPoset:
    """Graded poset with a top element and complement maps.

    Elements are group elements indexed in grade-monotone order.  The
    ``komp`` array sends index i to the index of the left complement
    (the element x with u * x = top), which reverses the grading.
    ``index`` maps an element to its index.  The Hasse diagram is kept
    once, as ``covers_up``: entry i holds the indices just above i.
    ``cover_edges`` views it as (lo, hi) pairs.

    >>> from dualbraid import enumerate_interval, parse_type
    >>> poset = enumerate_interval(parse_type("A2"))
    >>> poset.covers_up
    ((1, 2, 3), (4,), (4,), (4,), ())
    >>> len(poset.cover_edges)
    6
    """

    def __init__(self, ctype, group, elements, grades, covers_up, komp, order_kind):
        self.ctype = ctype
        self.group = group
        self.elements = tuple(elements)
        self.grades = tuple(grades)
        self.covers_up = tuple(map(tuple, covers_up))
        self.komp = tuple(komp)
        self.order_kind = order_kind
        size = len(self.elements)
        self.index = dict(zip(self.elements, range(size)))
        if len(self.index) != size:
            raise ValueError("duplicate elements in poset")
        if any(self.grades[i] > self.grades[i + 1] for i in range(size - 1)):
            raise ValueError("element order must be grade-monotone")
        self.rank = self.grades[-1]
        self.bottom = 0
        self.top = size - 1
        if self.grades.count(self.rank) != 1:
            raise ValueError("top grade is not unique")
        if len(self.covers_up) != size:
            raise ValueError("upper covers do not list one entry per element")
        grades = self.grades
        for lo, ups in enumerate(self.covers_up):
            above = grades[lo] + 1
            for hi in ups:
                if grades[hi] != above:
                    raise ValueError(f"cover edge {(lo, hi)} does not join adjacent grades")
        self.cover_edges = CoverEdges(self.covers_up)
        if sorted(self.komp) != list(range(size)):
            raise ValueError("complement map is not a bijection")
        for i, k in enumerate(self.komp):
            if self.grades[i] + self.grades[k] != self.rank:
                raise ValueError("complement map does not reverse the grading")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def komp_inv(self) -> tuple[int, ...]:
        inv = [0] * len(self)
        for i, k in enumerate(self.komp):
            inv[k] = i
        return tuple(inv)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Bit i of down_masks[j] is set iff element i divides element j."""
        # covers join adjacent grades and the order is grade-monotone, so a
        # cover has a smaller index than its upper covers: each mask is
        # whole when the loop reads it, and is pushed up to its covers.
        # Every mask starts at its full length, so each OR replaces an int
        # by one of the same size, which keeps the heap from fragmenting
        masks = [1 << i for i in range(len(self))]
        for m, ups in zip(masks, self.covers_up):
            for hi in ups:
                masks[hi] |= m
        return tuple(masks)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """Bit top - j of up_masks[i] is set iff element i divides element j.

        Counted down from the top, a mask is only as long as the part of
        the order above its element.
        """
        masks = [0] * len(self)
        ups = self.covers_up
        top = self.top
        for i in reversed(range(len(self))):
            m = 1 << (top - i)
            for q in ups[i]:
                m |= masks[q]
            masks[i] = m
        return tuple(masks)

    @cached_property
    def grade_counts(self) -> tuple[int, ...]:
        counts = [0] * (self.rank + 1)
        for g in self.grades:
            counts[g] += 1
        return tuple(counts)

    @cached_property
    def atom_indices(self) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.grades) if g == 1)

    def le(self, i: int, j: int) -> bool:
        return (self.down_masks[j] >> i) & 1 == 1

    def meet_index(self, i: int, j: int) -> int:
        cand = self.down_masks[i] & self.down_masks[j]
        if not cand:
            raise LatticeError(f"no lower bound for indices {i}, {j}")
        # the candidate of largest index is the only one that can lie
        # above all the others
        m = cand.bit_length() - 1
        if (cand & self.down_masks[m]) != cand:
            raise LatticeError(f"no unique lower bound for indices {i}, {j}")
        return m

    def join_index(self, i: int, j: int) -> int:
        cand = self.up_masks[i] & self.up_masks[j]
        if not cand:
            raise LatticeError(f"no upper bound for indices {i}, {j}")
        # the highest bit is the candidate of smallest index
        m = self.top + 1 - cand.bit_length()
        if (cand & self.up_masks[m]) != cand:
            raise LatticeError(f"no unique upper bound for indices {i}, {j}")
        return m


def enumerate_interval(ctype: CoxType) -> IntervalPoset:
    """All elements u with l(u) + l(u^-1 c) = l(c), as a graded poset.

    Every product is one ``act`` of the group model on a table built once.
    """
    group = coxeter_group(ctype)
    pad, act = group.pad, group.act
    c = group.coxeter_element
    n = group.refl_length(c)
    reflections = group.reflections
    # the images of the first ``width`` points determine an element (see
    # coxeter); at least two, since itemgetter of one index gives a scalar
    width = max(ctype.rank, 2)
    # with t = reflections[i]: u t is act(u, rights[i]); t x is
    # act(t, x + pad), and its key act(heads[i], x + pad)
    rights = [t + pad for t in reflections]
    heads = [t[:width] for t in reflections]
    elements = [group.identity]
    grades = [0]
    # complement key -> index of the element whose complement it is
    index_by_key = {c[:width]: 0}
    # upper covers, one tuple per element, appended as its grade is left
    covers: list[tuple[int, ...]] = []
    # the frontier's full complements and reflection masks: a mask starts
    # as the first parent's found set and is exact once a later parent
    # brings another set; otherwise it holds candidates for the model
    frontier, comps, masks, exact = [0], [c], [(1 << len(reflections)) - 1], [False]
    for k in range(n):
        if k == 1:
            carried = _atom_masks(group, comps, masks, n)
            if carried is not None:
                masks, exact = carried, [True] * len(carried)
        hi = len(elements)
        nxt: list[int] = []
        nxt_comps: list = []
        nxt_masks: list[int] = []
        nxt_exact: list[bool] = []
        for ui, x, mask, is_exact in zip(frontier, comps, masks, exact):
            u = elements[ui]
            found = mask if is_exact else group.shortenings(x, n - k, _bits(mask))
            table = x + pad
            ups: list[int] = []
            rest = found
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                key = act(heads[i], table)
                vi = index_by_key.get(key)
                if vi is None:
                    vi = index_by_key[key] = len(elements)
                    elements.append(act(u, rights[i]))
                    nxt.append(vi)
                    nxt_comps.append(act(reflections[i], table))
                    nxt_masks.append(found)
                    nxt_exact.append(False)
                # the frontier of grade k + 1 holds the indices hi, hi + 1, ...;
                # an exact mask is left alone, since every later parent's
                # found set contains it
                elif not nxt_exact[vi - hi] and nxt_masks[vi - hi] != found:
                    nxt_masks[vi - hi] &= found
                    nxt_exact[vi - hi] = True
                ups.append(vi)
            covers.append(tuple(ups))
        grades += [k + 1] * len(nxt)
        frontier, comps, masks, exact = nxt, nxt_comps, nxt_masks, nxt_exact
    # the top grade covers nothing
    covers.extend(() for _ in frontier)
    komp = [0] * len(elements)
    for j, el in enumerate(elements):
        komp[index_by_key[el[:width]]] = j
    return IntervalPoset(ctype, group, elements, grades, covers, komp, "absolute")


def _atom_masks(group, comps: list, masks: list[int], n: int) -> list[int] | None:
    """The atoms' found sets, asking the model once per orbit of conjugation.

    The atoms are the reflections of ``masks[0]``, the found set of c, in
    increasing order; ``comps`` holds their complements t c and ``masks``
    their candidates.  sigma, with reflections[sigma[i]] =
    c^-1 reflections[i] c, sends t c to sigma(t) c, so the model is asked
    about one atom per sigma-orbit and the answer is carried along it:
    found(sigma(t) c) = sigma(found(t c)).  None when conjugation by c
    does not permute the listed reflections (an image is not listed, or
    two indices share one), and the model is then asked about every atom.
    """
    c, reflections = group.coxeter_element, group.reflections
    mul, c_inv = group.mul, group.inv(c)
    index = dict(zip(reflections, range(len(reflections))))
    sigma = [index.get(mul(mul(c_inv, t), c)) for t in reflections]
    if None in sigma or len(set(sigma)) != len(sigma):
        return None
    atoms = list(_bits(masks[0]))
    position = dict(zip(atoms, range(len(atoms))))
    bit = [1 << j for j in sigma]
    found: list = [None] * len(atoms)
    for start, i in enumerate(atoms):
        if found[start] is not None:
            continue
        mask = group.shortenings(comps[start], n - 1, _bits(masks[start]))
        p = start
        while found[p] is None:
            found[p] = mask
            i = sigma[i]
            p = position[i]
            mask = sum(map(bit.__getitem__, _bits(mask)))
    return found


def _bits(mask: int):
    """Positions of the set bits of a nonnegative int, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def weak_order_poset(ctype: CoxType) -> IntervalPoset:
    """The full Coxeter group under the prefix order, graded by word length.

    This is the simple-element poset of the classical braid monoid; the top
    is the longest element and complements are taken with respect to it.
    Groups of order above ``WEAK_ORDER_CAP`` are refused.
    """
    if ctype.group_order > WEAK_ORDER_CAP:
        raise ValueError(
            f"group order {ctype.group_order} exceeds the classical guard {WEAK_ORDER_CAP}"
        )
    group = coxeter_group(ctype)
    act = group.act
    # the search's element -> length dict becomes element -> index once the
    # order is fixed; byte strings of equal length sort as their image
    # tuples do
    index = group.enumerate_group()
    elements = sorted(index, key=lambda el: (index[el], el))
    grades = [index[el] for el in elements]
    index.update(zip(elements, range(len(elements))))
    tables = [s + group.pad for s in group.simples]
    # the upper covers of u are its ascents u s, in the order of the simples
    covers = []
    for u, g in zip(elements, grades):
        ups = [index[act(u, table)] for table in tables]
        covers.append(tuple(v for v in ups if grades[v] == g + 1))
    w0 = elements[-1]
    komp = tuple(index[group.left_div(el, w0)] for el in elements)
    return IntervalPoset(ctype, group, elements, grades, covers, komp, "weak")


@dataclass
class LatticeReport:
    """Outcome of meet/join verification over a poset."""

    ctype: CoxType
    size: int
    mode: str
    pairs_checked: int
    violations: list = field(default_factory=list)
    complement_reversal_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.complement_reversal_ok and not self.violations

    def as_dict(self) -> dict:
        return {
            "check": "lattice",
            "type": str(self.ctype),
            "size": self.size,
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "violations": [str(v) for v in self.violations],
            "complement_reversal_ok": self.complement_reversal_ok,
            "ok": self.ok,
        }


def _failure(bound, i: int, j: int) -> str:
    """The message with which ``meet_index`` or ``join_index`` fails on i, j."""
    try:
        bound(i, j)
    except LatticeError as exc:
        return str(exc)
    raise LatticeError(f"{bound.__name__}({i}, {j}) found a bound the masks did not")


def _check_pairs(poset: IntervalPoset, pairs, violations: list) -> int:
    """Check pairs until more than 20 violations; returns the pairs checked.

    The meets and joins are those of ``meet_index`` and ``join_index``,
    taken here on the masks; the methods run only to word a failure.
    """
    down, up, top, komp = poset.down_masks, poset.up_masks, poset.top, poset.komp
    # in absolute order divisibility is two-sided, so the complement map is
    # an anti-automorphism and must swap the two bounds; in the one-sided
    # prefix order it maps to the opposite-side order instead, so skip
    komp_inv = poset.komp_inv if poset.order_kind == "absolute" else None
    checked = 0
    for i, j in pairs:
        checked += 1
        cand = down[i] & down[j]
        m = cand.bit_length() - 1
        if not cand or cand & down[m] != cand:
            violations.append((i, j, "meet", _failure(poset.meet_index, i, j)))
            m = None
        cand = up[i] & up[j]
        jn = top + 1 - cand.bit_length()
        if not cand or cand & up[jn] != cand:
            violations.append((i, j, "join", _failure(poset.join_index, i, j)))
            jn = None
        # m is a bit of down[i] & down[j], so a meet needs no such test; a
        # join comes from the up masks, and this reads the down masks
        elif not (down[jn] >> i & 1 and down[jn] >> j & 1):
            violations.append((i, j, "join", "result is not an upper bound"))
        if komp_inv is not None and m is not None and jn is not None:
            ki, kj = komp[i], komp[j]
            cand = down[ki] & down[kj]
            mk = cand.bit_length() - 1
            if not cand or cand & down[mk] != cand:
                violations.append((i, j, "complement", _failure(poset.meet_index, ki, kj)))
            else:
                if komp_inv[mk] != jn:
                    violations.append((i, j, "join", "complement route disagrees"))
                cand = up[ki] & up[kj]
                jk = top + 1 - cand.bit_length()
                if not cand or cand & up[jk] != cand:
                    violations.append((i, j, "complement", _failure(poset.join_index, ki, kj)))
                elif komp_inv[jk] != m:
                    violations.append((i, j, "meet", "complement route disagrees"))
        if len(violations) > 20:
            break
    return checked


def _komp_reverses_covers(komp, ups) -> bool:
    """Whether komp[hi] lies just below komp[lo] for every cover lo < hi."""
    for lo, his in enumerate(ups):
        klo = komp[lo]
        for hi in his:
            if klo not in ups[komp[hi]]:
                return False
    return True


def verify_lattice(
    poset: IntervalPoset, samples: int = 10_000, seed: int = 94111
) -> LatticeReport:
    """Check meets and joins pairwise, exhaustively on small posets.

    Posets of more than ``EXHAUSTIVE_LIMIT`` elements get a seeded random
    sample of ``samples`` pairs; a sample size below one is refused.  In
    both modes the complement map is first certified to reverse the order,
    which makes the meet/join cross-route meaningful: komp and its inverse
    must send every cover lo < hi to a cover.  Both maps reverse grades and
    every cover edge joins adjacent grades, so this is exactly
    komp(hi) <= komp(lo).  Only komp is walked unless a cover fails; then
    the first edge that either map fails is reported as a violation.
    """
    size = len(poset)
    if samples < 1:
        raise ValueError(f"lattice sample size must be at least 1, got {samples}")
    violations: list = []
    reversal_ok = True
    if poset.order_kind == "absolute":
        komp, ups = poset.komp, poset.covers_up
        # komp is a bijection (checked by IntervalPoset), so if it sends
        # every cover to a cover, (lo, hi) -> (komp[hi], komp[lo]) permutes
        # the finite set of covers, and komp_inv, which undoes it, sends
        # every cover to a cover too; both maps are walked only to name
        # the first edge that fails
        reversal_ok = _komp_reverses_covers(komp, ups)
        if not reversal_ok:
            komp_inv = poset.komp_inv
            for lo, hi in poset.cover_edges:
                if komp[lo] not in ups[komp[hi]] or komp_inv[lo] not in ups[komp_inv[hi]]:
                    violations.append((lo, hi, "complement", "cover not reversed"))
                    break
    if size <= EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        pair_iter = itertools.combinations_with_replacement(range(size), 2)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        pair_iter = ((rng.randrange(size), rng.randrange(size)) for _ in range(samples))
    pairs = _check_pairs(poset, pair_iter, violations)
    return LatticeReport(
        ctype=poset.ctype,
        size=size,
        mode=mode,
        pairs_checked=pairs,
        violations=violations,
        complement_reversal_ok=reversal_ok,
    )
