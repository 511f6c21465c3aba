"""Ground-truth word calculus for a homogeneous presentation.

All relations in the presentations used here preserve word length, so
the congruence class of a word is finite.  :class:`ClassStore` answers
equality, divisibility and Garside-word questions exactly, without
consulting any group model, by one breadth-first search over relation
moves: from one word it closes and memoizes the word's class, and from
two words it grows both sides and stops at the first word they share.
Its rewrite rules are indexed by the first two codes of a side, so a
word costs one lookup per adjacent pair; every relation side must
therefore have at least two atoms.

On top of the raw congruence sit the syntactic tools of subword
reversing: a right-complement table extracted from the relation sides
(:class:`ComplementTable`), the reversing procedure itself
(:func:`reverse_words`), and the associativity test for iterated
complements (:func:`cube_condition`).  The table precomputes the pair
(f(x,y), f(y,x)) of every x^-1 y it can reverse, and both consumers
reverse on that swap table with one engine, which divides letter by
letter and memoises each one-letter division.  The cube compares, for
each triple of atoms, two sides, each a reversal of one atom against an
atom times its complement; every side serves two triples, so the cube
reverses each side once into a table of class ids, indexed by codes,
and then compares two ids per triple.  The table may be partial; all
consumers tolerate reversing getting stuck and report it.
"""

from __future__ import annotations

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

# limits read at call time: words per congruence class, replacements per reversal
CLASS_CAP = 500_000
MAX_REVERSE_STEPS = 1000


class ClassStore:
    """Memoized congruence classes of a homogeneous presentation.

    Divisor and Garside-word questions close whole classes.  Equality
    questions search from both words and close a class only when one side
    runs out, so two equal words are found equal without closing either
    class.  Each closed class, and each side of a search, holds at most
    ``CLASS_CAP`` words; past that the store raises ``RuntimeError``
    naming the word the overflowing side started from.
    """

    def __init__(self, presentation: Presentation):
        for rel in presentation.relations:
            if not rel.homogeneous:
                raise ValueError(f"relation is not length preserving: {rel}")
            if len(rel.lhs) < 2:
                raise ValueError(f"relation side is shorter than two atoms: {rel}")
        self.presentation = presentation
        # rules keyed by the first two codes of their side: (rest of side, replacement)
        self._rules: dict[Codes, list[tuple[Codes, Codes]]] = {}
        for rel in presentation.relations:
            lhs, rhs = presentation.encode(rel.lhs), presentation.encode(rel.rhs)
            self._rules.setdefault(lhs[:2], []).append((lhs[2:], rhs))
            self._rules.setdefault(rhs[:2], []).append((rhs[2:], lhs))
        self._classes: list[frozenset[Codes]] = []
        self._id_of: dict[Codes, int] = {}

    def _search(self, u: Codes, v: Codes | None = None) -> int | None:
        """Breadth-first search from u, and from v when it is given.

        Each round expands by one level the side with the smaller frontier,
        u's on a tie, and returns None at the first word that the other
        side has already seen.  A side whose frontier runs out has seen its
        whole class: that class is memoised and its id returned.  Each
        side's seen set holds at most ``CLASS_CAP`` words.
        """
        if u == v:
            return None
        cap, rules = CLASS_CAP, self._rules
        sides = [(u, {u}, [u])]
        if v is not None:
            sides.append((v, {v}, [v]))
        other: set[Codes] = set()
        k = 0
        while True:
            if len(sides) == 2:
                k = 0 if len(sides[0][2]) <= len(sides[1][2]) else 1
                other = sides[1 - k][1]
            start, seen, frontier = sides[k]
            grown = []
            for w in frontier:
                for i in range(len(w) - 1):
                    for rest, repl in rules.get(w[i : i + 2], ()):
                        end = i + len(repl)  # both sides of a rule have one length
                        if rest and w[i + 2 : end] != rest:
                            continue
                        nb = w[:i] + repl + w[end:]
                        if nb not in seen:
                            if nb in other:
                                return None
                            if len(seen) >= cap:
                                text = render_word(self.presentation.decode(start))
                                raise RuntimeError(f"congruence class of {text} exceeds cap {cap}")
                            seen.add(nb)
                            grown.append(nb)
            if not grown:
                cid = len(self._classes)
                self._classes.append(frozenset(seen))
                for w in seen:
                    self._id_of[w] = cid
                return cid
            sides[k] = (start, seen, grown)

    def _class_of(self, word: Codes) -> int:
        cid = self._id_of.get(word)
        return self._search(word) if cid is None else cid

    def _equivalent(self, u: Codes, v: Codes) -> bool:
        return len(u) == len(v) and v in self._classes[self._class_of(u)]

    def class_id(self, word) -> int:
        return self._class_of(self.presentation.encode(word))

    def class_words(self, word) -> frozenset[Word]:
        decode = self.presentation.decode
        return frozenset(decode(w) for w in self._classes[self.class_id(word)])

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
        for a, b in ((u, v), (v, u)):
            cid = self._id_of.get(a)
            if cid is not None:
                return b in self._classes[cid]
        return self._search(u, v) is None

    def derivable(self, relation: Relation) -> bool:
        """Whether the relation's sides are equal words, by ``words_equivalent``.

        The search stops where the two sides meet, so a relation whose
        sides meet before either side holds ``CLASS_CAP`` words is derivable
        even when their class is larger; a side that overflows first raises.
        """
        return self.words_equivalent(relation.lhs, relation.rhs)

    def _divisor_ids(self, word, left: bool) -> dict[int, Codes]:
        reps: dict[int, Codes] = {}
        for w in self._classes[self.class_id(word)]:
            for k in range(len(w) + 1):
                cid = self._class_of(w[:k] if left else w[len(w) - k :])
                if cid not in reps:
                    reps[cid] = min(self._classes[cid])
        return reps

    def _shortest_first(self, reps: dict[int, Codes]) -> list[Word]:
        decode = self.presentation.decode
        return [decode(c) for c in sorted(reps.values(), key=lambda c: (len(c), c))]

    def left_divisor_classes(self, word) -> list[Word]:
        """One representative per distinct left divisor, shortest first."""
        return self._shortest_first(self._divisor_ids(word, left=True))

    def right_divisor_classes(self, word) -> list[Word]:
        return self._shortest_first(self._divisor_ids(word, left=False))

    def is_garside_word(self, word) -> bool:
        """Left and right divisors agree and every atom occurs among them."""
        left = self._divisor_ids(word, left=True)
        right = self._divisor_ids(word, left=False)
        if set(left) != set(right):
            return False
        atom_ids = {self._class_of((c,)) for c in range(len(self.presentation.atoms))}
        return atom_ids <= set(left)


def is_garside_element(presentation: Presentation) -> bool:
    """Check the Garside-element law for the presentation's Garside word.

    The check is pure rewriting, and the test is the definition: the left
    and right divisor sets of the class coincide and contain every atom.
    """
    if presentation.garside_word is None:
        raise ValueError("presentation has no Garside word")
    return ClassStore(presentation).is_garside_word(presentation.garside_word)


def count_simples_rewriting(presentation: Presentation) -> int:
    """Number of left divisors of the Garside word, by pure rewriting."""
    if presentation.garside_word is None:
        raise ValueError("presentation has no Garside word")
    store = ClassStore(presentation)
    return len(store.left_divisor_classes(presentation.garside_word))


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
    pass reverses once every side with an entry f(a,b), grouped by the
    negative letter c with one division memo per letter, and files its
    class id, or the status "stuck" or "diverged", in a table indexed by
    codes.  The second pass compares the table's ids triple by triple.
    A triple whose table entry is missing, or whose reversing gets stuck,
    is counted separately and proves nothing either way; a diverged side
    makes its triple diverged.  With ``sample`` set, a seeded sample of
    that many triples is checked and only their sides are reversed; a
    sample size below one is refused.
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
    # wanted yields, for c = 0, 1, ..., the pairs (a, b) whose side S(a,b;c)
    # is reversed: those of the sampled triples with both entries, or every
    # side with an entry, listed one letter at a time
    if sample is not None and sample < n * (n - 1) * (n - 2):
        triples = Random(seed).sample(list(triples), sample)
        read: list[set] = [set() for _ in range(n)]
        for x, y, z in triples:
            if (x, y) in entries and (y, z) in entries:
                read[z].add((x, y))
                read[x].add((y, z))
        wanted: Iterable = read
    else:
        pairs = [(a, b) for a, b in entries if a != b]
        wanted = ([p for p in pairs if c not in p] for c in range(n))
    # side[a][b][c]: class id of S(a,b;c), its status, or None if not reversed
    side = [[[None] * n for _ in range(n)] for _ in range(n)]
    memo: dict = {}
    for c, todo in enumerate(wanted):
        memo.clear()
        for a, b in todo:
            status, comp, _, _ = _reverse(swaps, (c,), (a,) + entries[a, b], memo)
            side[a][b][c] = store._class_of((c,) + comp) if status == "reversed" else status
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
