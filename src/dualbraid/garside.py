"""Greedy normal forms and the group word problem over Garside data.

A Garside structure is packaged here as an indexed simple-element poset
(dual: the absolute-order interval below c; classical: the weak-order
interval below the longest element) together with the partial product,
the complement maps, and conjugation by the top element.  Words multiply
left to right throughout, matching the group models.

The normal form is the left-greedy one: delta power out front, then a
sequence of non-trivial proper simples in which every adjacent pair (x, y)
is left-weighted, meaning no atom of y can slide into x.  Local slides are
computed with lattice meets: the part of y that merges into x is exactly
meet(complement(x), y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coxtypes import CoxType
from .interval import IntervalPoset, enumerate_interval, weak_order_poset
from .presentation import Atom, Word, classical_atoms, dual_atoms, render_word


class GarsideData:
    """Simple-element poset with product, complements, and top conjugation.

    The left complement is the one map checked against the group.  The
    right complement and conjugation by the top element are index maps of
    it: rc = lc^-1, delta^-1 x delta = lc(lc(x)) and delta x delta^-1 =
    rc(rc(x)) (Dehornoy and Paris, 1999; Bessis, 2003).
    """

    def __init__(self, ctype: CoxType, poset: IntervalPoset, kind: str):
        self.ctype = ctype
        self.poset = poset
        self.kind = kind
        self.group = poset.group
        self.bottom = poset.bottom
        self.delta = poset.top

    def __len__(self) -> int:
        return len(self.poset)

    @cached_property
    def _elements(self):
        return self.poset.elements

    def product(self, i: int, j: int) -> int | None:
        """Index of the product when grades add and it stays simple."""
        w = self.group.mul(self._elements[i], self._elements[j])
        k = self.poset.index.get(w)
        if k is None or self.poset.grades[k] != self.poset.grades[i] + self.poset.grades[j]:
            return None
        return k

    def left_quotient(self, i: int, j: int) -> int | None:
        """Index of z with i * z = j and grades additive, if it exists."""
        w = self.group.mul(self.group.inv(self._elements[i]), self._elements[j])
        k = self.poset.index.get(w)
        if k is None or self.poset.grades[i] + self.poset.grades[k] != self.poset.grades[j]:
            return None
        return k

    @cached_property
    def left_complement(self) -> tuple[int, ...]:
        """lc[i] with i * lc[i] = delta; grades are complementary."""
        lc = self.poset.komp
        for i in range(len(lc)):
            if self.product(i, lc[i]) != self.delta:
                raise RuntimeError("left complement map is inconsistent")
        return lc

    @cached_property
    def right_complement(self) -> tuple[int, ...]:
        """rc[i] with rc[i] * i = delta: lc sends delta i^-1 to i."""
        self.left_complement  # verifies the map inverted here
        return self.poset.komp_inv

    @cached_property
    def delta_conj(self) -> tuple[int, ...]:
        """Conjugation x -> delta^-1 x delta, as a permutation of simples."""
        lc = self.left_complement
        return tuple(lc[k] for k in lc)

    @cached_property
    def delta_conj_inv(self) -> tuple[int, ...]:
        """Conjugation x -> delta x delta^-1, the inverse permutation."""
        rc = self.right_complement
        return tuple(rc[k] for k in rc)

    @cached_property
    def atom_labels(self) -> dict[Atom, int] | None:
        """Atom -> simple index for the explicitly presented series.

        None for a type without named generators.  An atom whose reflection
        is not a simple raises ``KeyError``: the poset is corrupt.
        """
        if not self.ctype.has_explicit_presentation:
            return None
        atoms = dual_atoms(self.ctype) if self.kind == "dual" else classical_atoms(self.ctype)
        index, image = self.poset.index, self.group.atom_image
        return {a: index[image(a)] for a in atoms}

    def simple_word(self, i: int) -> Word:
        """A geodesic atom word for a simple (explicit series only).

        Each letter is the first atom, in alphabet order, below what is
        left of the simple.
        """
        if self.atom_labels is None:
            raise ValueError(f"type {self.ctype} has no named generators")
        le = self.poset.le
        out: list[Atom] = []
        cur = i
        while cur != self.bottom:
            for a, ai in self.atom_labels.items():
                if le(ai, cur):
                    break
            else:
                raise RuntimeError("simple has no atom divisor; poset is corrupt")
            out.append(a)
            cur = self.left_quotient(ai, cur)
        return tuple(out)

    def word_indices(self, word: Word) -> list[int]:
        """Map an atom word to simple indices."""
        if self.atom_labels is None:
            raise ValueError(f"type {self.ctype} has no named generators")
        try:
            return [self.atom_labels[a] for a in word]
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]} is not an atom of this structure") from None


@dataclass(frozen=True)
class NormalForm:
    """Left-greedy form: delta^k times a sequence of proper simples."""

    delta_power: int
    factors: tuple[int, ...]

    def render(self, data: GarsideData) -> str:
        parts = []
        if self.delta_power:
            parts.append(f"delta^{self.delta_power}")
        for f in self.factors:
            parts.append(render_word(data.simple_word(f)))
        return " . ".join(parts) if parts else "1"

    def as_dict(self, data: GarsideData) -> dict:
        out = {"delta_power": self.delta_power, "factors": list(self.factors)}
        if data.atom_labels is not None:
            out["factor_words"] = [render_word(data.simple_word(f)) for f in self.factors]
        return out


def _renorm(data: GarsideData, letters: list[int]) -> tuple[int, list[int]]:
    """Slide weight left until every adjacent pair is left-weighted.

    Each slide moves grade strictly leftward, so the loop terminates.
    Returns the number of leading delta factors and the remaining ones.
    """
    factors = [i for i in letters if i != data.bottom]
    meet = data.poset.meet_index
    lc = data.left_complement
    delta = data.delta
    changed = True
    while changed:
        changed = False
        i = len(factors) - 2
        while i >= 0:
            x = factors[i]
            y = factors[i + 1]
            if x == delta:
                i -= 1
                continue
            if y == delta:
                factors[i] = delta
                factors[i + 1] = data.delta_conj[x]
                changed = True
                i -= 1
                continue
            m = meet(lc[x], y)
            if m != data.bottom:
                x2 = data.product(x, m)
                y2 = data.left_quotient(m, y)
                if x2 is None or y2 is None:
                    raise RuntimeError("partial product failed during renormalization")
                factors[i] = x2
                if y2 == data.bottom:
                    del factors[i + 1]
                else:
                    factors[i + 1] = y2
                changed = True
            i -= 1
    k = 0
    while factors and factors[0] == delta:
        k += 1
        factors.pop(0)
    return k, factors


def _index(data: GarsideData, item) -> int:
    """Simple index of one letter: an atom or a simple index."""
    if isinstance(item, Atom):
        return data.word_indices((item,))[0]
    if isinstance(item, int):
        if not 0 <= item < len(data.poset):
            raise ValueError(f"simple index {item} out of range")
        return item
    raise TypeError(f"cannot interpret {item!r} as a simple")


def normal_form(letters, data: GarsideData) -> NormalForm:
    """Left-greedy normal form of a product of simples.

    Letters may be atoms of the explicit presentations or simple indices.
    """
    return group_normal_form([(item, 1) for item in letters], data)


def group_normal_form(signed_word, data: GarsideData) -> NormalForm:
    """Normal form of a signed word in the group of fractions.

    A letter is a pair (x, sign): x an atom of the explicit presentations
    or a simple index, sign +1 or -1.  An inverse letter s^-1 is delta^-1
    times the right complement of s; its delta^-1 moves to the front by
    conjugating the letters before it, and the positive word left behind
    is renormalised once.

    >>> from dualbraid import dual_garside_data, parse_type, parse_word
    >>> data = dual_garside_data(parse_type("B2"))
    >>> a21, t1, t2 = parse_word("alpha(2,1)*tau(1)*tau(2)")
    >>> conj = group_normal_form([(a21, 1), (t1, 1), (a21, -1)], data)
    >>> conj == group_normal_form([(t2, 1)], data)
    True
    >>> group_normal_form([(data.delta, -1)], data)
    NormalForm(delta_power=-1, factors=())
    """
    k = 0
    letters: list[int] = []
    for item, sign in signed_word:
        idx = _index(data, item)
        if sign == 1:
            letters.append(idx)
        elif sign == -1:
            tinv = data.delta_conj_inv
            letters = [tinv[f] for f in letters]
            letters.append(data.right_complement[idx])
            k -= 1
        else:
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
    dk, factors = _renorm(data, letters)
    return NormalForm(k + dk, tuple(factors))


def equal_in_group(w1, w2, data: GarsideData) -> bool:
    """Decide w1 = w2 in the group of fractions for two positive words.

    Letters are read as by :func:`normal_form`; signed words go through
    :func:`group_normal_form`.
    """
    return normal_form(w1, data) == normal_form(w2, data)


def dual_garside_data(ctype: CoxType) -> GarsideData:
    """Garside structure on the interval below the Coxeter element."""
    return GarsideData(ctype, enumerate_interval(ctype), "dual")


def classical_garside_data(ctype: CoxType) -> GarsideData:
    """Garside structure on the weak order below the longest element."""
    return GarsideData(ctype, weak_order_poset(ctype), "classical")
