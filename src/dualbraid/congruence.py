"""Ground-truth word calculus for a homogeneous presentation.

All relations in the presentations used here preserve word length, so
the congruence class of a word is finite.  :class:`ClassStore` answers
equality, divisibility and Garside-word questions exactly, without
consulting any group model.  From one word it closes and memoizes the
word's class block by block: a relation move whose side ends before the
last letter b stays inside the prefix, so the class of y*b is a union of
blocks C*b, C a closed class of prefixes.  The prefix classes are closed
and memoized first, and only the sides that end at the last letter are
tried.  From two words it grows both sides breadth first and stops at the
first word they share.  Its rewrite rules are indexed by the last two
codes of a side, so a word costs one lookup per adjacent pair in a search
and one lookup in a closure; every relation side must therefore have at
least two atoms.

Inside the store a word is one packed int: a leading 1, then one field
per letter holding its code, the first letter highest.  A field is whole
bytes, one while every code fits in a byte (at most 256 atoms, the cut of
``coxeter.BYTE_POINTS``) and two up to 65,536 atoms.  The leading 1 fixes
the length, so words that differ in a trailing code 0 stay apart; words
of one length order as their code tuples do, and shorter words come
first.  A rule is found by the packed pair ``(w >> shift) & pair_mask``
where its side ends, a move adds ``(replacement - side) << shift``, and a
left divisor is one shift:

>>> from .coxtypes import parse_type
>>> from .presentation import dual_presentation, parse_word
>>> store = ClassStore(dual_presentation(parse_type("B2")))
>>> word = parse_word("alpha(2,1)*tau(1)")
>>> store.presentation.encode(word)
(2, 0)
>>> hex(store._pack((2, 0)))
'0x10200'
>>> sorted(hex(w) for w in store._classes[store.class_id(word)])
['0x10003', '0x10102', '0x10200', '0x10301']

On top of the raw congruence sit the syntactic tools of subword
reversing: a right-complement table extracted from the relation sides
(:class:`ComplementTable`), the reversing procedure itself
(:func:`reverse_words`), and the associativity test for iterated
complements (:func:`cube_condition`).  The table precomputes the pair
(f(x,y), f(y,x)) of every x^-1 y it can reverse, and both consumers
reverse on that swap table with one engine, which divides letter by
letter and memoises each one-letter division.  The cube compares, for
each triple of atoms, two sides, each a reversal of one atom against an
atom times its complement; every side serves two triples, and one
reversal of f(a,c)^-1 f(a,b) gives both S(a,b;c) and S(a,c;b).  So the
cube reverses each such pair once into a table of class ids, indexed by
codes, packing each distinct side word once, and then compares two ids
per triple.  The table may be partial; all consumers tolerate reversing
getting stuck and report it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
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

# limits read at call time: words per congruence class, replacements per reversal
CLASS_CAP = 500_000
MAX_REVERSE_STEPS = 1000


class ClassStore:
    """Memoized congruence classes of a homogeneous presentation.

    Divisor and Garside-word questions close whole classes, block by
    block, and closing a class closes the classes of its words' prefixes
    on the way, so the left divisors of a closed class are memo lookups.
    Equality questions search from both words and close a class only when
    one side runs out, so two equal words are found equal without closing
    either class; such a class has memoized none of its prefixes.  Each
    closed class, and each side of a search, holds at most ``CLASS_CAP``
    words; past that the store raises ``RuntimeError`` naming the word
    whose class was asked for (never one of its prefixes), or in a search
    the word the overflowing side started from.  Inside the store every
    word is a packed int, ``_bits`` bits per letter (see the module
    docstring).
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
        # rules keyed by the packed last two codes of their side: (mask and value
        # of the side, replacement - side); a side of two letters has mask pair
        self._rules: dict[int, list[tuple[int, int, int]]] = {}
        pair = (1 << 2 * bits) - 1
        for rel in presentation.relations:
            lhs, rhs = presentation.encode(rel.lhs), presentation.encode(rel.rhs)
            for side, repl in ((lhs, rhs), (rhs, lhs)):
                mask = (1 << len(side) * bits) - 1
                value = self._pack(side) & mask  # the side without its 1
                rule = (mask, value, self._pack(repl) - self._pack(side))
                self._rules.setdefault(value & pair, []).append(rule)
        self._classes: list[frozenset[int]] = []
        self._id_of: dict[int, int] = {}

    def _pack(self, codes: Codes) -> int:
        w, bits = 1, self._bits
        for c in codes:
            w = w << bits | c
        return w

    def _unpack(self, w: int) -> Codes:
        bits = self._bits
        mask = (1 << bits) - 1
        return tuple((w >> sh) & mask for sh in range(w.bit_length() - 1 - bits, -1, -bits))

    def _word(self, w: int) -> Word:
        return self.presentation.decode(self._unpack(w))

    def _memoise(self, words: Iterable[int]) -> int:
        cid = len(self._classes)
        words = frozenset(words)
        self._classes.append(words)
        self._id_of.update(dict.fromkeys(words, cid))
        return cid

    def _search(self, u: int, v: int) -> bool:
        """Breadth-first search from the packed words u and v, of one length.

        Each round expands by one level the side with the smaller frontier,
        u's on a tie, and returns True at the first word that the other side
        has already seen.  A side whose frontier runs out has seen its whole
        class: that class is memoised and False returned.  Each side's seen
        set holds at most ``CLASS_CAP`` words.
        """
        if u == v:
            return True
        cap, get, bits = CLASS_CAP, self._rules.get, self._bits
        pair = (1 << 2 * bits) - 1
        # the shift that brings each adjacent pair of letters to the bottom,
        # the first pair first; a rule's side then ends there
        shifts = range(u.bit_length() - 1 - 2 * bits, -1, -bits)
        sides = [(u, {u}, [u]), (v, {v}, [v])]
        while True:
            k = 0 if len(sides[0][2]) <= len(sides[1][2]) else 1
            other = sides[1 - k][1]
            start, seen, frontier = sides[k]
            grown = []
            for w in frontier:
                for sh in shifts:
                    x = w >> sh
                    for mask, value, delta in get(x & pair, ()):
                        if mask != pair and ((x & mask) != value or x <= mask):
                            continue
                        nb = w + (delta << sh)
                        if nb not in seen:
                            if nb in other:
                                return True
                            if len(seen) >= cap:
                                text = render_word(self._word(start))
                                raise RuntimeError(f"congruence class of {text} exceeds cap {cap}")
                            seen.add(nb)
                            grown.append(nb)
            if not grown:
                self._memoise(seen)
                return False
            sides[k] = (start, seen, grown)

    def _close(self, w: int, start: int):
        """Close the class of w, of two letters or more, block by block.

        A move whose side ends before the last letter b stays inside the
        prefix, so the class is a union of blocks C*b, C a closed class of
        prefixes, and only sides that end at the last letter are tried.  A
        block is the int ``cid << bits | b``.  This is a generator: it
        yields each shorter word whose class it needs and has not memoised,
        and is sent back that class's id.  Past ``CLASS_CAP`` words it
        raises, naming ``start``, the word the caller asked for.
        """
        bits, cap = self._bits, CLASS_CAP
        last, pair = (1 << bits) - 1, (1 << 2 * bits) - 1
        get, id_of, classes = self._rules.get, self._id_of, self._classes
        cid = id_of.get(w >> bits)
        if cid is None:
            cid = yield w >> bits
        first = cid << bits | (w & last)
        seen, frontier, size = {first}, [first], len(classes[cid])
        while frontier:
            grown = []
            for block in frontier:
                b = block & last
                for u in classes[block >> bits]:
                    word = u << bits | b
                    for mask, value, delta in get(word & pair, ()):
                        if mask != pair and ((word & mask) != value or word <= mask):
                            continue
                        nb = word + delta
                        cid = id_of.get(nb >> bits)
                        if cid is None:
                            cid = yield nb >> bits
                        nblock = cid << bits | (nb & last)
                        if nblock not in seen:
                            size += len(classes[cid])
                            if size > cap:
                                text = render_word(self._word(start))
                                raise RuntimeError(f"congruence class of {text} exceeds cap {cap}")
                            seen.add(nblock)
                            grown.append(nblock)
            frontier = grown
        return self._memoise(
            u << bits | (block & last) for block in seen for u in classes[block >> bits]
        )

    def _class_of(self, w: int) -> int:
        """The class id of a packed word, closing the classes it needs.

        Classes of one letter or none are singletons.  Longer ones are
        closed by ``_close`` generators kept on a stack, each waiting for a
        shorter word's class, so a long word needs no deep recursion.
        """
        cid = self._id_of.get(w)
        if cid is not None:
            return cid
        short = 1 << 2 * self._bits  # the words of at most one letter lie below
        waiting = []
        want: int | None = w
        while True:
            if want is not None:
                if want < short:
                    cid = self._memoise((want,))
                else:
                    waiting.append(self._close(want, w))
                    cid = None
            if not waiting:
                return cid
            try:
                want = waiting[-1].send(cid)
            except StopIteration as done:
                waiting.pop()
                cid, want = done.value, None

    def class_id(self, word) -> int:
        return self._class_of(self._pack(self.presentation.encode(word)))

    def class_words(self, word) -> frozenset[Word]:
        return frozenset(self._word(w) for w in self._classes[self.class_id(word)])

    def words_equivalent(self, u, v) -> bool:
        """Exact equality test for two positive words.

        A word whose class is memoised answers from the memo.  Otherwise
        the words are searched from both ends at once: True at the first
        word both sides reach, False once one side has closed its class,
        which is then memoised.  ``CLASS_CAP`` bounds each side's seen
        set, and the ``RuntimeError`` names the start word of the side
        that overflowed; a search that meets first answers True.

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
        u, v = self._pack(u), self._pack(v)
        for a, b in ((u, v), (v, u)):
            cid = self._id_of.get(a)
            if cid is not None:
                return b in self._classes[cid]
        return self._search(u, v)

    def derivable(self, relation: Relation) -> bool:
        """Whether the relation's sides are equal words, by ``words_equivalent``.

        The search stops where the two sides meet, so a relation whose
        sides meet before either side holds ``CLASS_CAP`` words is derivable
        even when their class is larger; a side that overflows first raises.
        """
        return self.words_equivalent(relation.lhs, relation.rhs)

    def _divisor_ids(self, word, left: bool) -> set[int]:
        """Class ids of the left (or right) divisors of the word.

        A left divisor of a word in a class is a prefix, so the left
        divisor classes are found class by class: the prefix of each word is
        one shift, and a closed class has memoised its prefixes' classes
        (one closed by ``_search`` has not, and they are closed here).  A
        right divisor of k letters is a mask under a new leading 1.
        """
        cid = self.class_id(word)
        id_of, class_of = self._id_of.get, self._class_of
        if left:
            bits = self._bits
            ids, todo = {cid}, [cid]
            while todo:
                for w in self._classes[todo.pop()]:
                    if w == 1:  # the empty word
                        break
                    prefix = id_of(w >> bits)
                    if prefix is None:
                        prefix = class_of(w >> bits)
                    if prefix not in ids:
                        ids.add(prefix)
                        todo.append(prefix)
            return ids
        words = self._classes[cid]
        top = next(iter(words)).bit_length() - 1
        cuts = [((1 << k) - 1, 1 << k) for k in range(0, top + 1, self._bits)]
        return {class_of((w & mask) | one) for w in words for mask, one in cuts}

    def _shortest_first(self, ids: set[int]) -> list[Word]:
        # packed words sort shortest first, and codewise within one length
        return [self._word(w) for w in sorted(min(self._classes[cid]) for cid in ids)]

    def left_divisor_classes(self, word) -> list[Word]:
        """One representative per distinct left divisor, shortest first:
        the least word of its class in code order."""
        return self._shortest_first(self._divisor_ids(word, left=True))

    def right_divisor_classes(self, word) -> list[Word]:
        return self._shortest_first(self._divisor_ids(word, left=False))

    def is_garside_word(self, word) -> bool:
        """Left and right divisors agree and every atom occurs among them."""
        left = self._divisor_ids(word, left=True)
        if left != self._divisor_ids(word, left=False):
            return False
        atom_ids = {self._class_of(self._pack((c,))) for c in range(len(self.presentation.atoms))}
        return atom_ids <= left


def is_garside_element(presentation: Presentation) -> bool:
    """Check the Garside-element law for the presentation's Garside word.

    The check is pure rewriting, and the test is the definition: the left
    and right divisor sets of the class coincide and contain every atom.
    """
    if presentation.garside_word is None:
        raise ValueError("presentation has no Garside word")
    return ClassStore(presentation).is_garside_word(presentation.garside_word)


def count_simples_rewriting(presentation: Presentation) -> int:
    """Number of left divisors of the Garside word, by pure rewriting.

    Closing the Garside word's class closes every prefix class first, so
    the divisors are counted from the memo, with no second closure.
    """
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


class _Triples(Sequence):
    """The triples of ``permutations(range(n), 3)``, in that order, read
    by index, so that a sample of them does not list them all."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self) -> int:
        return self.n * (self.n - 1) * (self.n - 2)

    def __getitem__(self, i: int) -> tuple[int, int, int]:
        if not 0 <= i < len(self):
            raise IndexError(i)
        x, rest = divmod(i, (self.n - 1) * (self.n - 2))
        y, z = divmod(rest, self.n - 2)
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
    congruence oracle decides.  Each side serves two triples, so a first
    pass reverses once every side with an entry f(a,b) and files its
    class id, or the status "stuck" or "diverged", in a table indexed by
    codes.  Its first step turns c^-1 a into f(c,a) f(a,c)^-1, so one
    reversal of f(a,c)^-1 f(a,b) to P N^-1 gives both S(a,b;c) = c f(c,a) P
    and S(a,c;b) = b f(b,a) N.  The first pass makes that reversal once
    per atom a and pair {b, c}, with one division memo per atom a, and
    uses it when it reverses within ``MAX_REVERSE_STEPS`` less one (the
    c-step) and f(c,a) exists; any other side is reversed on its own, so
    every side's status is the one of reversing it alone.  The second
    pass compares the table's ids triple by triple.
    A triple whose table entry is missing, or whose reversing gets stuck,
    is counted separately and proves nothing either way; a diverged side
    makes its triple diverged.  With ``sample`` set, a seeded sample of
    that many triples is checked and only their sides are reversed, each
    on its own; a sample size below one is refused.
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
    # side[a][b][c]: class id of S(a,b;c), its status, or None if not reversed;
    # the pairs (a, b) with no side reversed share one row, so that a sample
    # over many atoms fills few of the n^3 slots
    empty: list = [None] * n
    side = [[empty] * n for _ in range(n)]
    memo: dict = {}
    ids: dict[Codes, int] = {}  # class id of each distinct reversed side

    def file(a: int, b: int, c: int, status, word: Codes = ()) -> None:
        # a reversed side is filed by the class id of its word
        if status == "reversed":
            status = ids.get(word)
            if status is None:
                status = ids[word] = store._class_of(store._pack(word))
        row = side[a][b]
        if row is empty:
            row = side[a][b] = [None] * n
        row[c] = status

    def reverse_side(a: int, b: int, c: int) -> None:
        status, comp, _, _ = _reverse(swaps, (c,), (a,) + entries[a, b], memo)
        file(a, b, c, status, (c,) + comp if status == "reversed" else ())

    if sample is not None and sample < n * (n - 1) * (n - 2):
        # the sides of the sampled triples with both entries, one letter c at a time
        triples = Random(seed).sample(_Triples(n), sample)
        read: list[set] = [set() for _ in range(n)]
        for x, y, z in triples:
            if (x, y) in entries and (y, z) in entries:
                read[z].add((x, y))
                read[x].add((y, z))
        for c, todo in enumerate(read):
            memo.clear()
            for a, b in todo:
                reverse_side(a, b, c)
    else:
        # every side with an entry, one letter a at a time: c^-1 a reverses in
        # one step to f(c,a) f(a,c)^-1, so reversing f(a,c)^-1 f(a,b) once to
        # P N^-1 gives S(a,b;c) = c f(c,a) P and S(a,c;b) = b f(b,a) N, when it
        # reverses within the step cap less the c-step
        cap = MAX_REVERSE_STEPS
        for a in range(n):
            memo.clear()
            heads = [b for b in range(n) if b != a and (a, b) in entries]
            for i, b in enumerate(heads):
                for c in heads[i + 1 :]:
                    status, pos, neg, steps = _reverse(swaps, entries[a, c], entries[a, b], memo)
                    for x, y, comp in ((b, c, pos), (c, b, neg)):
                        swap = swaps.get((y, a))
                        if status == "reversed" and steps < cap and swap is not None:
                            file(a, x, y, status, (y,) + swap[0] + comp)
                        else:
                            reverse_side(a, x, y)
            for c in range(n):
                if c != a and (a, c) not in entries:
                    for b in heads:
                        reverse_side(a, b, c)
    report = CubeReport()
    for x, y, z in triples:
        report.checked += 1
        first, second = side[x][y][z], side[y][z][x]
        if first is None or second is None:
            report.stuck += 1
        elif "diverged" in (first, second):
            report.diverged += 1
        elif "stuck" in (first, second):
            report.stuck += 1
        elif first == second:
            report.passed += 1
        else:
            report.failures.append(presentation.decode((x, y, z)))
    return report
