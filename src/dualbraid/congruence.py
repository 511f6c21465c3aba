"""Ground-truth word calculus for a homogeneous presentation.

All relations in the presentations used here preserve word length, so
the congruence class of a word is finite.  :class:`ClassStore` answers
equality, divisibility and Garside-word questions exactly, without
consulting any group model.  A closed class of k letters is kept as its
blocks (D, a), D a closed class of k-1 letters with D*a in the class.  A
monoid congruence is compatible with right multiplication, so
``step(D, a)``, the class of D*a, is well defined; it is memoised, and a
word's class is a walk of ``step`` from the empty class.  A move whose
side ends before the last letter stays inside a block, so a block (D, b)
is closed by the sides s that end in b alone: descending from D through
the blocks of s's other letters, last first, reaches the classes G with
G*s in the class, and the replacement r adds the block (the class of G
times r but its last letter, r's last letter).  Words are expanded from
the blocks only when asked for:

>>> from .coxtypes import parse_type
>>> from .presentation import dual_presentation, parse_word
>>> store = ClassStore(dual_presentation(parse_type("B2")))
>>> word = parse_word("alpha(2,1)*tau(1)")
>>> sorted(render_word(w) for w in store.class_words(word))
['alpha(2,1)*tau(1)', 'beta(2,1)*tau(2)', 'tau(1)*beta(2,1)', 'tau(2)*alpha(2,1)']
>>> store.stats()  # the empty class, four letters, and this class in four blocks
{'classes': 6, 'blocks': 8, 'words': 9}

On top sit the tools of subword reversing: a right-complement table read
off the relation sides (:class:`ComplementTable`), reversing on its swap
pairs (f(x,y), f(y,x)) letter by letter with each one-letter division
memoised (:func:`reverse_words`), and the cube test (:func:`cube_condition`),
which files the class id of each side its triples read, in one pass for
a full sweep and a sample alike, and compares two ids per triple.  The
table may be partial; consumers report reversing that gets stuck.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import permutations
from random import Random

from .presentation import Atom, Presentation, Relation, Word, render_word

__all__ = [
    "ClassStore",
    "ComplementTable",
    "ReversalResult",
    "reverse_words",
    "CubeReport",
    "cube_condition",
    "count_simples_rewriting",
]

Codes = tuple[int, ...]

# limits read at call time: blocks a store holds (about 250 bytes each),
# replacements per reversal
CLASS_CAP = 500_000
MAX_REVERSE_STEPS = 1000


class ClassStore:
    """Memoized congruence classes of a homogeneous presentation.

    Class 0 is the empty word's.  A class is its blocks, letter -> prefix
    class ids, and ``_step`` maps each block, the int ``D << _bits |
    letter``, to its class, whose id is larger than D's.  Every prefix of
    a word of a closed class walks to a closed class.  Every question,
    equality included, closes whole classes, and a closure closes those it
    needs first, on a stack.  The store holds at most ``CLASS_CAP`` blocks,
    counting those of the class being closed; past that ``RuntimeError``
    names the word whose class was asked for.
    """

    def __init__(self, presentation: Presentation):
        for rel in presentation.relations:
            if not rel.homogeneous:
                raise ValueError(f"relation is not length preserving: {rel}")
            if len(rel.lhs) < 2:
                raise ValueError(f"relation side is shorter than two atoms: {rel}")
        self.presentation = presentation
        # whole bytes per letter, as few as hold every code: one up to 256 atoms
        bits = 8
        while len(presentation.atoms) > 1 << bits:
            bits += 8
        self._bits = bits
        # rules keyed by the last two codes of their side: the side's other
        # letters, last first, the replacement but its last letter, that letter
        self._rules: dict[int, list[tuple]] = {}
        for rel in presentation.relations:
            lhs, rhs = presentation.encode(rel.lhs), presentation.encode(rel.rhs)
            for side, repl in ((lhs, rhs), (rhs, lhs)):
                rule = (side[-3::-1], repl[:-1], repl[-1])
                self._rules.setdefault(side[-2] << bits | side[-1], []).append(rule)
        self._blocks: list[dict[int, list[int]]] = [{}]
        self._step: dict[int, int] = {}

    def _unpack(self, w: int) -> Codes:
        bits = self._bits
        mask = (1 << bits) - 1
        return tuple((w >> sh) & mask for sh in range(w.bit_length() - 1 - bits, -1, -bits))

    def _word(self, w: int) -> Word:
        return self.presentation.decode(self._unpack(w))

    def _close(self, key: int, start: Codes):
        """Close the class of the block ``key`` = D << bits | b.

        A block (D, b) tries the rules of the pairs (c, b), c a letter of
        D's blocks: a side s of L letters descends L-1 levels to the
        classes G with G*s in the class, and each G gives the block (the
        class of G*r_1...r_{L-1}, r_L) of the replacement r.  A generator,
        it yields each block whose class it needs and has not memoised and
        is sent that class's id.  Once the store's blocks and this class's
        exceed ``CLASS_CAP`` it raises, naming ``start``.
        """
        bits, cap = self._bits, CLASS_CAP
        last = (1 << bits) - 1
        get, step, blocks = self._rules.get, self._step, self._blocks
        seen, frontier = {key}, [key]
        while frontier:
            grown = []
            for block in frontier:
                b = block & last
                for c, below in blocks[block >> bits].items():
                    for down, up, end in get(c << bits | b, ()):
                        heads = below
                        for s in down:
                            heads = [g for e in heads for g in blocks[e].get(s, ())]
                        for g in heads:
                            for r in up:
                                h = step.get(g << bits | r)
                                g = (yield g << bits | r) if h is None else h
                            nb = g << bits | end
                            if nb not in seen:
                                seen.add(nb)
                                grown.append(nb)
                if len(step) + len(seen) > cap:
                    text = render_word(self.presentation.decode(start))
                    raise RuntimeError(f"congruence class of {text} exceeds cap {cap}")
            frontier = grown
        cid = len(blocks)
        by_letter: dict[int, list[int]] = {}
        for block in seen:
            by_letter.setdefault(block & last, []).append(block >> bits)
        step.update(dict.fromkeys(seen, cid))
        blocks.append(by_letter)
        return cid

    def _closed(self, key: int, start: Codes) -> int:
        """The class id of the block ``key``, closed by ``_close`` generators on
        a stack, each waiting for a shorter class: no deep recursion."""
        waiting, cid = [self._close(key, start)], None
        while True:
            try:
                want = waiting[-1].send(cid)
            except StopIteration as done:
                waiting.pop()
                cid = done.value
                if not waiting:
                    return cid
            else:
                waiting.append(self._close(want, start))
                cid = None

    def _walk(self, codes: Codes, cid: int = 0, prefix: Codes = (), close: bool = True):
        """The class id of ``prefix + codes``, walking ``step`` from ``cid``, the
        class of ``prefix``; a missing step is closed, or None if not ``close``."""
        bits, step = self._bits, self._step
        for a in codes:
            key = cid << bits | a
            cid = step.get(key)
            if cid is None:
                if not close:
                    return None
                cid = self._closed(key, prefix + codes)
        return cid

    def _expand(self, ids: Iterable[int], least: bool = False) -> dict[int, list[int]]:
        """Packed words of the classes ids and their prefix classes, filled
        in id order; with ``least``, only each class's least word.  A packed
        word is a leading 1, then whole bytes per letter (one up to 256
        atoms, as ``coxeter.BYTE_POINTS``), the first letter highest."""
        bits, blocks = self._bits, self._blocks
        words = {0: [1]}
        for c in sorted(self._prefix_ids(ids)):
            if c:
                found = [w << bits | a for a, below in blocks[c].items()
                         for d in below for w in words[d]]
                words[c] = [min(found)] if least else found
        return words

    def class_id(self, word) -> int:
        return self._walk(self.presentation.encode(word))

    def class_words(self, word) -> frozenset[Word]:
        cid = self.class_id(word)
        return frozenset(self._word(w) for w in self._expand((cid,))[cid])

    def stats(self) -> dict:
        """Classes memoised (the empty word's too), their blocks, their words."""
        words = [1]
        for by_letter in self._blocks[1:]:
            words.append(sum(words[d] for below in by_letter.values() for d in below))
        return {"classes": len(self._blocks), "blocks": len(self._step), "words": sum(words)}

    def words_equivalent(self, u, v) -> bool:
        """Exact equality test for two positive words: u's class is closed,
        and v is in it when v walks to it.  Every word of a closed class
        walks to it through closed prefix classes, so a walk of v that
        stops at an unclosed class answers False.  Past ``CLASS_CAP`` the
        ``RuntimeError`` names u.

        >>> from .coxtypes import parse_type
        >>> from .presentation import dual_presentation, parse_word
        >>> store = ClassStore(dual_presentation(parse_type("B2")))
        >>> store.words_equivalent(parse_word("alpha(2,1)*tau(1)"), parse_word("tau(2)*alpha(2,1)"))
        True
        >>> store.words_equivalent(parse_word("tau(1)*alpha(2,1)"), parse_word("alpha(2,1)*tau(1)"))
        False
        """
        encode = self.presentation.encode
        u, v = encode(u), encode(v)
        if len(u) != len(v):
            return False
        cid = self._walk(u)
        return self._walk(v, close=False) == cid

    def derivable(self, relation: Relation) -> bool:
        """Whether the relation's sides are equal words, by ``words_equivalent``:
        the class of the left side is closed, so past ``CLASS_CAP`` blocks it
        raises, naming that side."""
        return self.words_equivalent(relation.lhs, relation.rhs)

    def _prefix_ids(self, ids: Iterable[int]) -> set[int]:
        """The classes ids and all reached through blocks: their left divisors."""
        blocks, found = self._blocks, set(ids)
        todo = list(found)
        while todo:
            new = {d for below in blocks[todo.pop()].values() for d in below} - found
            found |= new
            todo.extend(new)
        return found

    def _suffix_ids(self, cid: int, start: Codes) -> set[int]:
        """Right divisor classes, in id order: R(C) = {empty} | {step(S, b) :
        (D, b) a block of C, S in R(D)}, each R(D) dropped after its last use."""
        step, blocks, bits = self._step, self._blocks, self._bits
        order = sorted(self._prefix_ids((cid,)))
        uses = Counter(d for c in order for below in blocks[c].values() for d in below)
        memo = {0: {0}}
        for c in order[1:]:
            found = memo[c] = {0}
            for b, below in blocks[c].items():
                for d in below:
                    for s in memo[d]:
                        key = s << bits | b
                        h = step.get(key)
                        found.add(self._closed(key, start) if h is None else h)
                    uses[d] -= 1
                    if not uses[d]:
                        del memo[d]
        return memo[cid]

    def _divisor_ids(self, word, left: bool) -> set[int]:
        """Class ids of the left (or right) divisors of the word."""
        codes = self.presentation.encode(word)
        cid = self._walk(codes)
        return self._prefix_ids((cid,)) if left else self._suffix_ids(cid, codes)

    def _shortest_first(self, ids: set[int]) -> list[Word]:
        # packed words sort shortest first, and codewise within one length
        least = self._expand(ids, least=True)
        return [self._word(w) for w in sorted(least[c][0] for c in ids)]

    def left_divisor_classes(self, word) -> list[Word]:
        """One representative per distinct left divisor, shortest first:
        the least word of its class in code order."""
        return self._shortest_first(self._divisor_ids(word, left=True))

    def right_divisor_classes(self, word) -> list[Word]:
        return self._shortest_first(self._divisor_ids(word, left=False))

    def is_garside_word(self, word) -> bool:
        """Left and right divisors agree and every atom occurs among them."""
        left, atoms = self._divisor_ids(word, left=True), range(len(self.presentation.atoms))
        right = self._divisor_ids(word, left=False)
        return left == right and all(self._walk((c,)) in left for c in atoms)


def is_garside_element(presentation: Presentation) -> bool:
    """Check the Garside-element law for the presentation's Garside word.

    The check is pure rewriting, and the test is the definition: the left
    and right divisor sets of the class coincide and contain every atom.
    """
    if presentation.garside_word is None:
        raise ValueError("presentation has no Garside word")
    return ClassStore(presentation).is_garside_word(presentation.garside_word)


def count_simples_rewriting(presentation: Presentation) -> int:
    """Number of left divisors of the Garside word, by pure rewriting: the
    classes reached through the blocks of its class, no word expanded."""
    if presentation.garside_word is None:
        raise ValueError("presentation has no Garside word")
    return len(ClassStore(presentation)._divisor_ids(presentation.garside_word, left=True))


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


class ComplementTable:
    """Right complements read off from the relation sides.

    Relation sides are grouped into components: two sides of one relation
    name the same element, and chained relations merge components.  A pair
    of atoms (x, y) gets the entry f(x, y) when some component contains a
    word starting with x and one starting with y; then x*f(x,y) and
    y*f(y,x) are equal words of that component.  Among eligible
    components the shortest words win, then lexicographic order.
    """

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        uf = _UnionFind()
        for rel in presentation.relations:
            uf.union(presentation.encode(rel.lhs), presentation.encode(rel.rhs))
        components: dict = {}
        for side in uf.parent:
            components.setdefault(uf.find(side), []).append(side)
        self._entries: dict[tuple[int, int], Codes] = {
            (x, x): () for x in range(len(presentation.atoms))
        }
        for comp in components.values():
            comp.sort()
            length = len(comp[0])
            by_head: dict[int, Codes] = {}
            for word in comp:
                by_head.setdefault(word[0], word)
            heads = sorted(by_head)
            for x in heads:
                for y in heads:
                    if x == y:
                        continue
                    cur = self._entries.get((x, y))
                    if cur is not None and len(cur) + 1 <= length:
                        continue
                    self._entries[(x, y)] = by_head[x][1:]
        self._swaps = _swap_table(self._entries)

    def entry(self, x: Atom, y: Atom) -> Word | None:
        """f(x, y), a word with x*f(x,y) = y*f(y,x), or None if missing."""
        tail = self._entries.get(self.presentation.encode((x, y)))
        return None if tail is None else self.presentation.decode(tail)

    def missing_pairs(self) -> list[tuple[Atom, Atom]]:
        atoms = self.presentation.atoms
        pairs = permutations(range(len(atoms)), 2)
        return [(atoms[x], atoms[y]) for x, y in pairs if (x, y) not in self._entries]

    def stats(self) -> dict:
        atoms = self.presentation.atoms
        pairs = len(atoms) * (len(atoms) - 1)
        missing = len(self.missing_pairs())
        return {
            "atoms": len(atoms),
            "ordered_pairs": pairs,
            "covered": pairs - missing,
            "missing": missing,
            "total": missing == 0,
        }


Swaps = dict[tuple[int, int], tuple[Codes, Codes]]


def _swap_table(entries: dict[tuple[int, int], Codes]) -> Swaps:
    """The reversal step x^-1 y -> f(x,y) f(y,x)^-1 as the pair (f(x,y), f(y,x)),
    for pairs with both entries."""
    return {
        (x, y): (fxy, entries[(y, x)])
        for (x, y), fxy in entries.items()
        if (y, x) in entries
    }


@dataclass(frozen=True)
class ReversalResult:
    """Outcome of reversing u^-1 v; on success u*comp_uv = v*comp_vu."""

    status: str  # "reversed", "stuck" or "diverged"
    comp_uv: Word | None
    comp_vu: Word | None
    steps: int


def _reverse(swaps: Swaps, u: Codes, v: Codes, memo: dict | None = None):
    """Right-reverse u^-1 v over codes, the leftmost x^-1 y first.

    Returns (status, pos, neg, steps), with u*pos = v*neg when reversed.
    The leftmost-first order divides letter by letter: u^-1 (y v') reverses
    u^-1 y to p n^-1 and goes on with n^-1 v', and u^-1 y is one step on
    (u0, y), giving f(u0,y) f(y,u0)^-1, then u[1:]^-1 f(u0,y) reversed to
    p n^-1, so that u^-1 y = p (f(y,u0) n)^-1.  Each division that ends,
    reversed or stuck, is memoised on (u, y) with its step count, so calls
    on one swap table may share ``memo``.  Pending divisions wait on a
    stack, not on the call stack, and a reversal that needs more than
    ``MAX_REVERSE_STEPS`` steps stops "diverged" after exactly that many.
    """
    cap = MAX_REVERSE_STEPS
    if memo is None:
        memo = {}
    stack = []  # pending divisions: (key, f(y,u0), steps before, outer pos, outer v, i)
    pos: Codes = ()
    i = steps = 0
    while True:
        if u and i < len(v):
            key = (u, v[i])
            hit = memo.get(key)
            if hit is None:
                if steps >= cap:
                    return "diverged", None, None, cap
                swap = swaps.get((u[0], v[i]))
                if swap is not None:
                    stack.append((key, swap[1], steps, pos, v, i))
                    steps += 1
                    u, v, pos, i = u[1:], swap[0], (), 0
                    continue
                hit = memo[key] = (None, None, 1)
            hit_pos, hit_neg, hit_steps = hit
            steps += hit_steps
            if steps > cap:
                return "diverged", None, None, cap
            if hit_pos is None:
                for waiting, _, before, *_ in stack:
                    memo[waiting] = (None, None, steps - before)
                return "stuck", None, None, steps
            pos += hit_pos
            u = hit_neg
            i += 1
            continue
        pos += v[i:]
        if not stack:
            return "reversed", pos, u, steps
        key, g, before, outer, v, i = stack.pop()
        u = g + u
        memo[key] = (pos, u, steps - before)
        pos = outer + pos
        i += 1


def reverse_words(table: ComplementTable, u, v) -> ReversalResult:
    """Right-reverse the signed word u^-1 v using the complement table.

    Negative letters migrate to the right end; the procedure stops when
    the word has the positive-negative shape, when a needed table entry
    is missing ("stuck"), or after ``MAX_REVERSE_STEPS`` replacements
    ("diverged").
    """
    pres = table.presentation
    status, comp_uv, comp_vu, steps = _reverse(table._swaps, pres.encode(u), pres.encode(v))
    if status == "reversed":
        comp_uv, comp_vu = pres.decode(comp_uv), pres.decode(comp_vu)
    return ReversalResult(status, comp_uv, comp_vu, steps)


def _triple(i: int, n: int) -> tuple[int, int, int]:
    """Triple i of ``permutations(range(n), 3)``, in that order, so that
    a sample of the triples draws their indices and lists no others."""
    x, rest = divmod(i, (n - 1) * (n - 2))
    y, z = divmod(rest, n - 2)
    y += y >= x
    for skipped in sorted((x, y)):
        z += z >= skipped
    return x, y, z


@dataclass
class CubeReport:
    """Tally of the complement associativity test over atom triples."""

    checked: int = 0
    passed: int = 0
    stuck: int = 0
    diverged: int = 0
    failures: list[tuple[Atom, Atom, Atom]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.diverged == 0

    @property
    def first_failure(self) -> str | None:
        """The first failing triple, rendered as ``(x, y, z)``, or None."""
        if not self.failures:
            return None
        return "(" + ", ".join(str(a) for a in self.failures[0]) + ")"

    def as_dict(self) -> dict:
        return {
            "checked": self.checked,
            "passed": self.passed,
            "stuck": self.stuck,
            "diverged": self.diverged,
            "failed": len(self.failures),
            "first_failure": self.first_failure,
            "ok": self.ok,
        }


def cube_condition(
    presentation: Presentation,
    table: ComplementTable | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> CubeReport:
    """Compare the two bracketings of the triple common multiple.

    For atoms (a, b, c) the side S(a,b;c) is the word c*comp got by
    right-reversing c^-1 a f(a,b).  Triple (x, y, z) compares S(x,y;z)
    with S(y,z;x); the two words must name the same element, which the
    congruence oracle decides.  A first pass, one atom a at a time with
    one division memo, files the class id of each side the triples read,
    or "stuck" or "diverged", in a table indexed by codes; the second
    compares two ids per triple.  As c^-1 a reverses in one step to
    f(c,a) f(a,c)^-1, one reversal of f(a,c)^-1 f(a,b) to P N^-1 gives
    S(a,b;c) = c f(c,a) P, and S(a,c;b) = b f(b,a) N if that side is read
    too, when it ends within ``MAX_REVERSE_STEPS`` less the first step and
    f(c,a), or f(b,a), exists; any other side is reversed on its own, so
    each status is that of the side alone.  A triple whose table entry is
    missing, or whose reversing gets stuck, is counted separately and
    proves nothing either way; a diverged side makes its triple diverged.
    With ``sample`` set, a seeded sample of that many triple indices is
    decoded by :func:`_triple` and checked by the same two passes over
    their sides only; a sample size below one is refused.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"cube sample size must be at least 1, got {sample}")
    table = table or ComplementTable(presentation)
    if table.presentation.atoms != presentation.atoms:
        raise ValueError("the table must share the presentation's atoms")
    store = ClassStore(presentation)
    n = len(presentation.atoms)
    entries, swaps = table._entries, table._swaps
    triples = permutations(range(n), 3)
    total = n * (n - 1) * (n - 2)
    # wanted[a]: each b with an entry f(a,b) -> the letters c whose side
    # S(a,b;c) the triples read; a sample draws its triples by index
    if sample is not None and sample < total:
        triples = [_triple(i, n) for i in Random(seed).sample(range(total), sample)]
        wanted: list[dict] = [{} for _ in range(n)]
        for x, y, z in triples:
            if (x, y) in entries and (y, z) in entries:
                wanted[x].setdefault(y, set()).add(z)
                wanted[y].setdefault(z, set()).add(x)
    else:
        every = range(n)
        wanted = [{b: every for b in range(n) if b != a and (a, b) in entries} for a in range(n)]
    # side[a][b][c]: class id of S(a,b;c), its status, or None if not reversed;
    # the pairs (a, b) with no side wanted share one row, so that a sample
    # over many atoms fills few of the n^3 slots
    empty: list = [None] * n
    side = [[empty] * n for _ in range(n)]
    memo: dict = {}
    walk, cap = store._walk, MAX_REVERSE_STEPS
    for a, want in enumerate(wanted):
        memo.clear()
        rows = side[a]
        for b in want:
            rows[b] = [None] * n
        # a shared side's class is walked on from that of its start y f(y,a),
        # walked once per a and y
        starts: dict[int, tuple[Codes, int]] = {}
        for b, cs in sorted(want.items()):
            fab, row = entries[a, b], rows[b]
            for c in cs:
                if row[c] is not None or c == b or c == a:
                    continue
                fac = entries.get((a, c))
                if fac is None:
                    todo = ((b, c, None),)
                else:
                    status, pos, neg, steps = _reverse(swaps, fac, fab, memo)
                    if status != "reversed" or steps >= cap:
                        pos = neg = None
                    todo = ((b, c, pos), (c, b, neg)) if b in want.get(c, ()) else ((b, c, pos),)
                for x, y, comp in todo:
                    swap = swaps.get((y, a))
                    if comp is not None and swap is not None:
                        start = starts.get(y)
                        if start is None:
                            start = (y,) + swap[0]
                            start = starts[y] = (start, walk(start))
                        rows[x][y] = walk(comp, start[1], start[0])
                    else:
                        status, comp, _, _ = _reverse(swaps, (y,), (a,) + entries[a, x], memo)
                        rows[x][y] = walk((y,) + comp) if status == "reversed" else status
    # one id per side: equal ints pass at once, and the tallies stay local
    checked = passed = stuck = diverged = 0
    failures = []
    for x, y, z in triples:
        checked += 1
        first, second = side[x][y][z], side[y][z][x]
        if first == second and type(first) is int:
            passed += 1
        elif first is None or second is None:
            stuck += 1
        elif first == "diverged" or second == "diverged":
            diverged += 1
        elif first == "stuck" or second == "stuck":
            stuck += 1
        else:
            failures.append(presentation.decode((x, y, z)))
    return CubeReport(checked, passed, stuck, diverged, failures)
