"""Greedy normal forms and the group word problem over Garside data.

A Garside structure is packaged here as an indexed simple-element poset
(dual: the absolute-order interval below c; classical: the weak-order
interval below the longest element) together with the partial product,
the complement maps, and conjugation by the top element.  Simples are
multiplied as the poset's elements, in the group model's own encoding,
and looked up in its ``index``.  Words multiply left to right throughout,
matching the group models.

The normal form is the left-greedy one: delta power out front, then a
sequence of non-trivial proper simples in which every adjacent pair (x, y)
is left-weighted, meaning no atom of y can slide into x.  Local slides are
computed with lattice meets: the part of y that merges into x is exactly
m = meet(complement(x), y), and the slide makes the pair (x m, m^-1 y).

A word is normalised by Thurston's algorithm (Epstein et al., *Word
Processing in Groups*, 1992, ch. 9): append one simple at a time to a form
that is already left-weighted, and slide it left in a single right-to-left
pass.  A slide leaves the pairs to its right left-weighted, so the pass
stops at the first pair that does not change (m is the bottom, or x is
delta, which only the leading delta powers are).  The slide is one flat
loop over the poset's arrays (down-set bitmasks, elements, grades, index)
and two per-simple tables, with the checks of the meet, product and
quotient methods it stands in for.  The tables hold each simple padded
to a full ``act`` table and each simple's inverse, so the product x m and
the quotient m^-1 y are one ``act`` call each.  They are built from the
poset's elements on the first normal form, not with the structure.

A signed word becomes a positive one in one pass: an inverse letter s^-1
is delta^-1 rc(s), and a letter followed by k inverse letters is
conjugated once, by the k-th power of x -> delta x delta^-1, read from a
table of that map's powers built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .coxtypes import CoxType
from .interval import IntervalPoset, LatticeError, enumerate_interval, weak_order_poset
from .presentation import Atom, Word, classical_atoms, dual_atoms, render_word


_KIND_OF_ORDER = {"absolute": "dual", "weak": "classical"}


class GarsideData:
    """Simple-element poset with product, complements, and top conjugation.

    The left complement is the one map checked against the group.  The
    right complement and conjugation by the top element are index maps of
    it: rc = lc^-1, delta^-1 x delta = lc(lc(x)) and delta x delta^-1 =
    rc(rc(x)) (Dehornoy and Paris, 1999; Bessis, 2003).

    ``ctype`` and ``kind`` are read from the poset ("dual" on the absolute
    order, "classical" on the weak order); arguments naming others raise.
    """

    def __init__(self, ctype: CoxType, poset: IntervalPoset, kind: str):
        self.ctype = poset.ctype
        self.kind = _KIND_OF_ORDER[poset.order_kind]
        if (ctype, kind) != (self.ctype, self.kind):
            raise ValueError(f"{kind!r} {ctype} data on a {poset.order_kind} order of {self.ctype}")
        self.poset = poset
        self.group = poset.group
        self.bottom = poset.bottom
        self.delta = poset.top

    def __len__(self) -> int:
        return len(self.poset)

    def product(self, i: int, j: int) -> int | None:
        """Index of the product when grades add and it stays simple."""
        elements = self.poset.elements
        k = self.poset.index.get(self.group.mul(elements[i], elements[j]))
        if k is None or self.poset.grades[k] != self.poset.grades[i] + self.poset.grades[j]:
            return None
        return k

    def left_quotient(self, i: int, j: int) -> int | None:
        """Index of z with i * z = j and grades additive, if it exists."""
        elements = self.poset.elements
        k = self.poset.index.get(self.group.left_div(elements[i], elements[j]))
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
    def delta_conj_inv_powers(self) -> tuple[tuple[int, ...], ...]:
        """The powers of ``delta_conj_inv``, from the identity up to the
        last one before the map returns to the identity."""
        step = self.delta_conj_inv
        powers = [tuple(range(len(step)))]
        while (nxt := tuple(step[k] for k in powers[-1])) != powers[0]:
            powers.append(nxt)
        return tuple(powers)

    @cached_property
    def _slide_tables(self) -> tuple[tuple, tuple]:
        """Per-simple operands of the slide, in the model's encoding.

        right[j] is simple j followed by the model's ``pad``, so that
        ``act(u, right[j])`` is ``mul(u, elements[j])``; inverse[j] is
        ``left_div(elements[j], identity)``, so that
        ``act(inverse[i], right[j])`` is ``left_div(elements[i], elements[j])``.
        Read from ``poset.elements`` when first asked for, by the first
        normal form.
        """
        group, elements = self.group, self.poset.elements
        pad, left_div, identity = group.pad, group.left_div, group.identity
        right = tuple(el + pad for el in elements)
        inverse = tuple(left_div(el, identity) for el in elements)
        return right, inverse

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
        """Map an atom word to simple indices.

        A letter that is not an atom of this structure raises ValueError,
        a plain tuple equal to an atom's key included.
        """
        labels = self.atom_labels
        if labels is None:
            raise ValueError(f"type {self.ctype} has no named generators")
        indices = []
        for atom in word:
            index = labels.get(atom) if type(atom) is Atom else None
            if index is None:
                raise ValueError(f"{atom} is not an atom of this structure")
            indices.append(index)
        return indices


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
    """Left-greedy form of a product of simples, by Thurston's algorithm.

    The letters are appended one at a time.  After each append one pass
    walks left from the new letter: at each pair (x, y), with y the factor
    moving left, y = delta swaps to (delta, delta^-1 x delta), and
    otherwise m = meet(lc[x], y) slides into x, giving (x m, m^-1 y), which
    drops out when it is the bottom.  The pass stops at the first pair that
    does not change: x is delta, or m is the bottom; the factors to its
    left are left-weighted already.  Returns the number of leading delta
    factors and the remaining ones.

    The slide is written out on the poset's arrays: the meet is the one of
    ``IntervalPoset.meet_index`` and the two new factors are those of
    ``GarsideData.product`` and ``left_quotient``, with the same checks,
    so a poset that is not a lattice raises ``LatticeError`` and a factor
    that is not a simple of the additive grade raises ``RuntimeError``.
    The product x m is ``act(elements[x], right[m])`` and the quotient
    m^-1 y is ``act(inverse[m], right[y])``, on the tables of
    ``GarsideData._slide_tables``, built on the first call.
    """
    poset = data.poset
    down, elements, grades = poset.down_masks, poset.elements, poset.grades
    right, inverse = data._slide_tables
    lookup, act = poset.index.get, data.group.act
    bottom, delta = data.bottom, data.delta
    lc, conj = data.left_complement, data.delta_conj
    factors: list[int] = []
    for y in letters:
        if y == bottom:
            continue
        i = len(factors) - 1
        factors.append(y)
        while i >= 0:
            x = factors[i]
            if x == delta:
                break
            if y == delta:
                factors[i] = delta
                factors[i + 1] = conj[x]
            else:
                a = lc[x]
                cand = down[a] & down[y]
                if not cand:
                    raise LatticeError(f"no lower bound for indices {a}, {y}")
                # the candidate of largest index is the only one that can
                # lie above all the others
                m = cand.bit_length() - 1
                if cand & down[m] != cand:
                    raise LatticeError(f"no unique lower bound for indices {a}, {y}")
                if m == bottom:
                    break
                gm = grades[m]
                x2 = lookup(act(elements[x], right[m]))
                y2 = lookup(act(inverse[m], right[y]))
                if (
                    x2 is None
                    or y2 is None
                    or grades[x2] != grades[x] + gm
                    or gm + grades[y2] != grades[y]
                ):
                    raise RuntimeError("partial product failed during renormalization")
                factors[i] = y = x2
                if y2 == bottom:
                    del factors[i + 1]
                else:
                    factors[i + 1] = y2
            i -= 1
    k = 0
    while k < len(factors) and factors[k] == delta:
        k += 1
    return k, factors[k:]


def _index(data: GarsideData, item) -> int:
    """Simple index of one letter: an atom or a simple index."""
    if isinstance(item, Atom):
        # word_indices raises the error for an atom that is not a letter here
        return data.word_indices((item,))[0]
    if isinstance(item, int) and not isinstance(item, bool):
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
    conjugating the letters before it, so a letter followed by k inverse
    letters is conjugated once, by the k-th power of ``delta_conj_inv``,
    and the positive word left behind is normalised in one call of
    :func:`_renorm`.

    >>> from dualbraid import dual_garside_data, parse_type, parse_word
    >>> data = dual_garside_data(parse_type("B2"))
    >>> a21, t1, t2 = parse_word("alpha(2,1)*tau(1)*tau(2)")
    >>> conj = group_normal_form([(a21, 1), (t1, 1), (a21, -1)], data)
    >>> conj == group_normal_form([(t2, 1)], data)
    True
    >>> group_normal_form([(data.delta, -1)], data)
    NormalForm(delta_power=-1, factors=())
    """
    atom_index = (data.atom_labels or {}).get
    letters: list[int] = []
    inverse: list[bool] = []
    for item, sign in signed_word:
        # an atom equals the plain tuple of its key, which is not a letter
        idx = atom_index(item) if type(item) is Atom else None
        if idx is None:
            # not an atom of the presentation: a simple index, or refused
            idx = _index(data, item)
        if type(sign) is not int or sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        letters.append(idx)
        inverse.append(sign == -1)
    k = sum(inverse)
    if k:
        powers, rc = data.delta_conj_inv_powers, data.right_complement
        after = k
        for p, inv in enumerate(inverse):
            if inv:
                after -= 1
                letters[p] = rc[letters[p]]
            letters[p] = powers[after % len(powers)][letters[p]]
    dk, factors = _renorm(data, letters)
    return NormalForm(dk - k, tuple(factors))


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
