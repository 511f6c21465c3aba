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
    """Simple-element poset with product, complements, and top conjugation."""

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

    def grade(self, i: int) -> int:
        return self.poset.grades[i]

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
        """rc[i] with rc[i] * i = delta; a bijection on simples."""
        delta_el = self._elements[self.delta]
        out = []
        for i, el in enumerate(self._elements):
            w = self.group.mul(delta_el, self.group.inv(el))
            k = self.poset.index.get(w)
            if k is None or self.poset.grades[k] + self.poset.grades[i] != self.poset.grades[self.delta]:
                raise RuntimeError("right divisor of the top element is not simple")
            out.append(k)
        if sorted(out) != list(range(len(out))):
            raise RuntimeError("right complement map is not a bijection")
        return tuple(out)

    @cached_property
    def delta_conj(self) -> tuple[int, ...]:
        """Conjugation x -> delta^-1 x delta, as a permutation of simples."""
        delta_el = self._elements[self.delta]
        delta_inv = self.group.inv(delta_el)
        out = []
        for el in self._elements:
            w = self.group.mul(self.group.mul(delta_inv, el), delta_el)
            k = self.poset.index.get(w)
            if k is None:
                raise RuntimeError("top conjugation does not preserve simples")
            out.append(k)
        if sorted(out) != list(range(len(out))):
            raise RuntimeError("top conjugation is not a bijection")
        return tuple(out)

    @cached_property
    def delta_conj_inv(self) -> tuple[int, ...]:
        inv = [0] * len(self.delta_conj)
        for i, k in enumerate(self.delta_conj):
            inv[k] = i
        return tuple(inv)

    @cached_property
    def atom_labels(self) -> dict[Atom, int] | None:
        """Atom -> simple index for the explicitly presented series."""
        try:
            if self.kind == "dual":
                atoms = dual_atoms(self.ctype)
            else:
                atoms = classical_atoms(self.ctype)
            return {a: self.poset.atom_index(a) for a in atoms}
        except (ValueError, KeyError):
            return None

    def simple_word(self, i: int) -> Word:
        """A geodesic atom word for a simple (explicit series only)."""
        if self.atom_labels is None:
            raise ValueError(f"type {self.ctype} has no named generators")
        out: list[Atom] = []
        cur = i
        while cur != self.bottom:
            for a, ai in self.atom_labels.items():
                rest = self.left_quotient(ai, cur)
                if rest is not None:
                    out.append(a)
                    cur = rest
                    break
            else:
                raise RuntimeError("simple has no atom divisor; poset is corrupt")
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

    def as_dict(self, data: GarsideData | None = None) -> dict:
        out = {"delta_power": self.delta_power, "factors": list(self.factors)}
        if data is not None and data.atom_labels is not None:
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


def _as_indices(data: GarsideData, letters) -> list[int]:
    out: list[int] = []
    for item in letters:
        if isinstance(item, Atom):
            out.extend(data.word_indices((item,)))
        elif isinstance(item, int):
            if not 0 <= item < len(data.poset):
                raise ValueError(f"simple index {item} out of range")
            out.append(item)
        else:
            raise TypeError(f"cannot interpret {item!r} as a simple")
    return out


def normal_form(letters, data: GarsideData) -> NormalForm:
    """Left-greedy normal form of a product of simples.

    Letters may be atoms of the explicit presentations or simple indices.
    """
    k, factors = _renorm(data, _as_indices(data, letters))
    return NormalForm(k, tuple(factors))


SignedWord = tuple  # sequence of (Atom | int, +1 | -1)


def group_normal_form(signed_word, data: GarsideData) -> NormalForm:
    """Normal form of a signed word in the group of fractions.

    An inverse letter s^-1 contributes delta^-1 times the right complement
    of s, after pushing the delta through the accumulated factors by top
    conjugation.
    """
    k = 0
    factors: list[int] = []
    for item, sign in signed_word:
        idx = _as_indices(data, [item])[0]
        if sign == 1:
            dk, factors = _renorm(data, factors + [idx])
            k += dk
        elif sign == -1:
            tinv = data.delta_conj_inv
            shifted = [tinv[f] for f in factors]
            shifted.append(data.right_complement[idx])
            k -= 1
            dk, factors = _renorm(data, shifted)
            k += dk
        else:
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
    return NormalForm(k, tuple(factors))


def equal_in_group(w1, w2, data: GarsideData) -> bool:
    """Decide w1 = w2 in the group of fractions via normal forms."""
    return group_normal_form(_signed(w1), data) == group_normal_form(_signed(w2), data)


def _signed(word) -> list[tuple]:
    out = []
    for item in word:
        if isinstance(item, tuple) and len(item) == 2 and item[1] in (1, -1):
            out.append(item)
        else:
            out.append((item, 1))
    return out


def dual_garside_data(ctype: CoxType) -> GarsideData:
    """Garside structure on the interval below the Coxeter element."""
    return GarsideData(ctype, enumerate_interval(ctype), "dual")


def classical_garside_data(ctype: CoxType) -> GarsideData:
    """Garside structure on the weak order below the longest element."""
    return GarsideData(ctype, weak_order_poset(ctype), "classical")
