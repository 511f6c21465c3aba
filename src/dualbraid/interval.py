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
complement needs no test.  The group model's ``shortenings`` hook is asked
only about the others, the complements whose parents all brought the same
set: on a reflection group these are c and its lower covers, 1 + N
complements for N reflections.  A complement is looked up by the images of
its first max(rank, 2) points, which determine an element in every model,
and only the current frontier keeps full complements.  Elements and
complements are held as the group's ``codec`` codes (byte strings for at
most 256 points, image tuples beyond), so that each product is one C call;
the poset receives image tuples.

Meets and joins take and return element indices (``poset.index`` maps an
element to its index).  They read int bitsets built once from the cover
edges: bit i of ``down_masks[j]`` and bit top - j of ``up_masks[i]`` are
set when i lies below j, so each mask spans only the part of the order on
its own side.  The lattice check first certifies that the complement maps
send covers to covers, then compares meets and joins with their complement
route, over every pair of a poset of at most ``EXHAUSTIVE_LIMIT`` elements
and over a seeded sample of pairs of a larger one.
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


class LatticeError(Exception):
    """A pair of poset elements has no unique bound; structural failure."""


class IntervalPoset:
    """Graded poset with a top element and complement maps.

    Elements are group elements indexed in grade-monotone order.  The
    ``komp`` array sends index i to the index of the left complement
    (the element x with u * x = top), which reverses the grading.
    """

    def __init__(self, ctype, group, elements, grades, cover_edges, komp, order_kind):
        self.ctype = ctype
        self.group = group
        self.elements = tuple(elements)
        self.grades = tuple(grades)
        self.cover_edges = tuple(cover_edges)
        self.komp = tuple(komp)
        self.order_kind = order_kind
        self.index = {el: i for i, el in enumerate(self.elements)}
        size = len(self.elements)
        if len(self.index) != size:
            raise ValueError("duplicate elements in poset")
        if any(self.grades[i] > self.grades[i + 1] for i in range(size - 1)):
            raise ValueError("element order must be grade-monotone")
        self.rank = self.grades[-1]
        self.bottom = 0
        self.top = size - 1
        if self.grades.count(self.rank) != 1:
            raise ValueError("top grade is not unique")
        grades = self.grades
        for lo, hi in self.cover_edges:
            if grades[hi] != grades[lo] + 1:
                raise ValueError(f"cover edge {(lo, hi)} does not join adjacent grades")
        if sorted(self.komp) != list(range(size)):
            raise ValueError("complement map is not a bijection")
        for i, k in enumerate(self.komp):
            if self.grades[i] + self.grades[k] != self.rank:
                raise ValueError("complement map does not reverse the grading")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def komp_inv(self) -> tuple[int, ...]:
        inv = [0] * len(self.elements)
        for i, k in enumerate(self.komp):
            inv[k] = i
        return tuple(inv)

    @cached_property
    def covers_up(self) -> tuple[tuple[int, ...], ...]:
        ups: list[list[int]] = [[] for _ in self.elements]
        for lo, hi in self.cover_edges:
            ups[lo].append(hi)
        return tuple(tuple(u) for u in ups)

    @cached_property
    def covers_down(self) -> tuple[tuple[int, ...], ...]:
        downs: list[list[int]] = [[] for _ in self.elements]
        for lo, hi in self.cover_edges:
            downs[hi].append(lo)
        return tuple(tuple(d) for d in downs)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """Bit i of down_masks[j] is set iff element i divides element j."""
        masks = [0] * len(self.elements)
        downs = self.covers_down
        for i in range(len(self.elements)):
            m = 1 << i
            for p in downs[i]:
                m |= masks[p]
            masks[i] = m
        return tuple(masks)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """Bit top - j of up_masks[i] is set iff element i divides element j.

        Counted down from the top, a mask is only as long as the part of
        the order above its element.
        """
        masks = [0] * len(self.elements)
        ups = self.covers_up
        top = self.top
        for i in reversed(range(len(self.elements))):
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

    Elements and complements are kept as ``group.codec`` codes and every
    product is one ``act``; the poset gets image tuples, and so do the
    model's ``refl_length`` and ``shortenings``.
    """
    group = coxeter_group(ctype)
    code, pad, act = group.codec
    c = group.coxeter_element
    n = group.refl_length(c)
    reflections = group.reflections
    # the images of the first ``width`` points determine an element (see
    # coxeter); at least two, since itemgetter of one index gives a scalar
    width = max(ctype.rank, 2)
    # with t = reflections[i]: u t is act(u, rights[i]); t x is
    # act(lefts[i], x + pad), and its key act(heads[i], x + pad)
    rights = [code(t) + pad for t in reflections]
    lefts = [code(t) for t in reflections]
    heads = [code(t[:width]) for t in reflections]
    elements = [code(group.identity)]
    grades = [0]
    # complement key -> index of the element whose complement it is
    c = code(c)
    index_by_key = {c[:width]: 0}
    edges: list[tuple[int, int]] = []
    # the frontier's full complements and reflection masks: a mask starts
    # as the first parent's found set and is exact once a later parent
    # brings another set; otherwise it holds candidates for the model
    frontier, comps, masks, exact = [0], [c], [(1 << len(reflections)) - 1], [False]
    for k in range(n):
        hi = len(elements)
        nxt: list[int] = []
        nxt_comps: list = []
        nxt_masks: list[int] = []
        nxt_exact: list[bool] = []
        for ui, x, mask, is_exact in zip(frontier, comps, masks, exact):
            u = elements[ui]
            if is_exact:
                found = mask
            else:
                shorter = group.shortenings(tuple(x), n - k, _bits(mask))
                found = sum(1 << i for i, _ in shorter)
            table = x + pad
            for i in _bits(found):
                key = act(heads[i], table)
                vi = index_by_key.get(key)
                if vi is None:
                    vi = index_by_key[key] = len(elements)
                    elements.append(act(u, rights[i]))
                    grades.append(k + 1)
                    nxt.append(vi)
                    nxt_comps.append(act(lefts[i], table))
                    nxt_masks.append(found)
                    nxt_exact.append(False)
                elif nxt_masks[vi - hi] != found:
                    # the frontier of grade k + 1 holds the indices hi, hi + 1, ...
                    nxt_masks[vi - hi] &= found
                    nxt_exact[vi - hi] = True
                edges.append((ui, vi))
        frontier, comps, masks, exact = nxt, nxt_comps, nxt_masks, nxt_exact
    komp = [0] * len(elements)
    for j, el in enumerate(elements):
        komp[index_by_key[el[:width]]] = j
    return IntervalPoset(ctype, group, map(tuple, elements), grades, edges, komp, "absolute")


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
    depth = group.enumerate_group()
    ordered = sorted(depth.items(), key=lambda kv: (kv[1], kv[0]))
    elements = [el for el, _ in ordered]
    grades = [g for _, g in ordered]
    index = {el: i for i, el in enumerate(elements)}
    edges = []
    for vi, (v, g) in enumerate(ordered):
        for s in group.simples:
            u = group.mul(v, s)
            gu = depth[u]
            if gu == g - 1:
                edges.append((index[u], vi))
    w0 = elements[-1]
    komp = tuple(index[group.mul(group.inv(el), w0)] for el in elements)
    return IntervalPoset(ctype, group, elements, grades, edges, komp, "weak")


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


def _check_pair(poset: IntervalPoset, i: int, j: int, violations: list) -> None:
    try:
        m = poset.meet_index(i, j)
    except LatticeError as exc:
        violations.append((i, j, "meet", str(exc)))
        m = None
    try:
        jn = poset.join_index(i, j)
    except LatticeError as exc:
        violations.append((i, j, "join", str(exc)))
        jn = None
    # meet_index picks m from bits of down_masks[i] & down_masks[j], the
    # very bits le(m, i) and le(m, j) read, so a meet needs no such check;
    # a join comes from the up masks, and le reads the down masks
    if jn is not None and not (poset.le(i, jn) and poset.le(j, jn)):
        violations.append((i, j, "join", "result is not an upper bound"))
    # in absolute order divisibility is two-sided, so the complement map is
    # an anti-automorphism and must swap the two bounds; in the one-sided
    # prefix order it maps to the opposite-side order instead, so skip
    if poset.order_kind == "absolute" and m is not None and jn is not None:
        ki, kj = poset.komp[i], poset.komp[j]
        try:
            if poset.komp_inv[poset.meet_index(ki, kj)] != jn:
                violations.append((i, j, "join", "complement route disagrees"))
            if poset.komp_inv[poset.join_index(ki, kj)] != m:
                violations.append((i, j, "meet", "complement route disagrees"))
        except LatticeError as exc:
            violations.append((i, j, "complement", str(exc)))


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
    komp(hi) <= komp(lo).
    The first edge that fails is reported as a violation.
    """
    size = len(poset)
    if samples < 1:
        raise ValueError(f"lattice sample size must be at least 1, got {samples}")
    violations: list = []
    reversal_ok = True
    if poset.order_kind == "absolute":
        komp, komp_inv, ups = poset.komp, poset.komp_inv, poset.covers_up
        for lo, hi in poset.cover_edges:
            if komp[lo] not in ups[komp[hi]] or komp_inv[lo] not in ups[komp_inv[hi]]:
                reversal_ok = False
                violations.append((lo, hi, "complement", "cover not reversed"))
                break
    if size <= EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        pair_iter = itertools.combinations_with_replacement(range(size), 2)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        pair_iter = ((rng.randrange(size), rng.randrange(size)) for _ in range(samples))
    pairs = 0
    for i, j in pair_iter:
        _check_pair(poset, i, j, violations)
        pairs += 1
        if len(violations) > 20:
            break
    return LatticeReport(
        ctype=poset.ctype,
        size=size,
        mode=mode,
        pairs_checked=pairs,
        violations=violations,
        complement_reversal_ok=reversal_ok,
    )
