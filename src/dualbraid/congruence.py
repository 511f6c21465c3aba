"""Ground-truth word calculus for a homogeneous presentation.

All relations in the presentations used here preserve word length, so
the congruence class of a word is finite and can be closed off by
breadth-first search.  :class:`ClassStore` memoizes those closures and
answers equality, divisibility and Garside-word questions exactly,
without consulting any group model.  Its rewrite rules are indexed by the
first two codes of a side, so a word costs one lookup per adjacent pair;
every relation side must therefore have at least two atoms.

On top of the raw congruence sit the syntactic tools of subword
reversing: a right-complement table extracted from the relation sides
(:class:`ComplementTable`), the reversing procedure itself
(:func:`reverse_words`), and the associativity test for iterated
complements (:func:`cube_condition`).  The table precomputes the
replacement f(x,y) f(y,x)^-1 of every x^-1 y it can reverse, and both
consumers reverse on that swap table, one lookup per step.  The table may
be partial; all consumers tolerate reversing getting stuck and report it.
"""

from __future__ import annotations

from collections import deque
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
    """Memoized congruence classes of a homogeneous presentation."""

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

    def _neighbors(self, word: Codes):
        rules = self._rules
        for i in range(len(word) - 1):
            for rest, repl in rules.get(word[i : i + 2], ()):
                end = i + len(repl)  # both sides of a rule have one length
                if not rest or word[i + 2 : end] == rest:
                    yield word[:i] + repl + word[end:]

    def _class_of(self, word: Codes) -> int:
        cid = self._id_of.get(word)
        if cid is not None:
            return cid
        seen = {word}
        queue = deque([word])
        while queue:
            w = queue.popleft()
            for nb in self._neighbors(w):
                if nb not in seen:
                    if len(seen) >= CLASS_CAP:
                        text = render_word(self.presentation.decode(word))
                        raise RuntimeError(f"congruence class of {text} exceeds cap {CLASS_CAP}")
                    seen.add(nb)
                    queue.append(nb)
        cid = len(self._classes)
        self._classes.append(frozenset(seen))
        for w in seen:
            self._id_of[w] = cid
        return cid

    def _equivalent(self, u: Codes, v: Codes) -> bool:
        return len(u) == len(v) and v in self._classes[self._class_of(u)]

    def class_id(self, word) -> int:
        return self._class_of(self.presentation.encode(word))

    def class_words(self, word) -> frozenset[Word]:
        decode = self.presentation.decode
        return frozenset(decode(w) for w in self._classes[self.class_id(word)])

    def words_equivalent(self, u, v) -> bool:
        """Exact equality test for two positive words.

        >>> from .coxtypes import parse_type
        >>> from .presentation import dual_presentation, parse_word
        >>> store = ClassStore(dual_presentation(parse_type("B2")))
        >>> store.words_equivalent(parse_word("alpha(2,1)*tau(1)"), parse_word("tau(2)*alpha(2,1)"))
        True
        >>> store.words_equivalent(parse_word("tau(1)*alpha(2,1)"), parse_word("alpha(2,1)*tau(1)"))
        False
        """
        encode = self.presentation.encode
        return self._equivalent(encode(u), encode(v))

    def derivable(self, relation: Relation) -> bool:
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


def is_garside_element(presentation: Presentation, word: Word | None = None) -> bool:
    """Check the Garside-element law for a word by pure rewriting.

    Defaults to the presentation's own candidate word.  The test is the
    definition: the left and right divisor sets of the class coincide and
    contain every atom.
    """
    target = word if word is not None else presentation.garside_word
    if target is None:
        raise ValueError("presentation has no Garside word")
    return ClassStore(presentation).is_garside_word(target)


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


def _swap_table(entries: dict[tuple[int, int], Codes]) -> dict[tuple[int, int], Codes]:
    """The reversal step x^-1 y -> f(x,y) f(y,x)^-1, for pairs with both entries."""
    return {
        (x, y): fxy + tuple(~a for a in reversed(entries[(y, x)]))
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


def _reverse(swaps: dict[tuple[int, int], Codes], u: Codes, v: Codes):
    """Right-reverse u^-1 v over codes; a letter x^-1 is stored as ~x.

    Each step replaces the leftmost x^-1 y.  Nothing left of it changes,
    so the search for the next one resumes one letter back.
    """
    word = [~a for a in reversed(u)] + list(v)
    steps = 0
    i = 0
    while True:
        last = len(word) - 1
        while i < last and not word[i] < 0 <= word[i + 1]:
            i += 1
        if i >= last:
            pos = tuple([a for a in word if a >= 0])
            neg = tuple([~a for a in reversed(word) if a < 0])
            return "reversed", pos, neg, steps
        if steps >= MAX_REVERSE_STEPS:
            return "diverged", None, None, steps
        steps += 1
        swap = swaps.get((~word[i], word[i + 1]))
        if swap is None:
            return "stuck", None, None, steps
        word[i : i + 2] = swap
        if i:
            i -= 1


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

    def as_dict(self) -> dict:
        return {
            "checked": self.checked,
            "passed": self.passed,
            "stuck": self.stuck,
            "diverged": self.diverged,
            "failed": len(self.failures),
            "ok": self.ok,
        }


def cube_condition(
    presentation: Presentation,
    table: ComplementTable | None = None,
    store: ClassStore | None = None,
    sample: int | None = None,
    seed: int = 0,
) -> CubeReport:
    """Compare the two bracketings of the triple common multiple.

    For atoms (x, y, z) the word x*f(x,y) is completed through z, and
    y*f(y,z) is completed through x; the two resulting words must name
    the same element, which the congruence oracle decides.  Triples where
    the partial table leaves the reversing stuck are counted separately
    and prove nothing either way.
    """
    table = table or ComplementTable(presentation)
    store = store or ClassStore(presentation)
    atoms = presentation.atoms
    if table.presentation.atoms != atoms or store.presentation.atoms != atoms:
        raise ValueError("the table and the store must share the presentation's atoms")
    triples = list(permutations(range(len(atoms)), 3))
    if sample is not None and sample < len(triples):
        triples = Random(seed).sample(triples, sample)
    entries, swaps = table._entries, table._swaps
    report = CubeReport()
    for x, y, z in triples:
        report.checked += 1
        fxy = entries.get((x, y))
        fyz = entries.get((y, z))
        if fxy is None or fyz is None:
            report.stuck += 1
            continue
        first, comp_first, _, _ = _reverse(swaps, (z,), (x,) + fxy)
        second, comp_second, _, _ = _reverse(swaps, (x,), (y,) + fyz)
        if "diverged" in (first, second):
            report.diverged += 1
            continue
        if "stuck" in (first, second):
            report.stuck += 1
            continue
        if store._equivalent((z,) + comp_first, (x,) + comp_second):
            report.passed += 1
        else:
            report.failures.append(presentation.decode((x, y, z)))
    return report
