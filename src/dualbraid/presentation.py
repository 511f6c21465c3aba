"""Monoid presentations by generators and homogeneous relations.

Atoms are named generators such as ``alpha(3,1)`` or ``tau(2)``; words are
tuples of atoms; a relation equates two words of the same length.  Each
presentation owns its alphabet: an atom's integer code is its position in
``atoms``, which every builder lists in ``Atom.key`` order, so code tuples
compare like the atom words they encode.  The module builds, for the
series A, B, D and I2:

* the classical (Artin-style) presentation on the simple generators,
* the dual presentation on one generator per reflection, and
* the completed dual presentation, which appends extra derivable
  relations so that more pairs of atoms acquire a common right multiple.

Relation families are emitted through :func:`expand_family`: a cyclic
list ``[w1, ..., wp]`` of atoms stands for the chain of equalities
``w1 w2 = w2 w3 = ... = wp w1`` and contributes the p-1 adjacent
equalities; the closing one is a consequence and is not emitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .coxtypes import CoxType

__all__ = [
    "Atom",
    "Word",
    "Relation",
    "Presentation",
    "alpha",
    "beta",
    "tau",
    "sigma",
    "band",
    "expand_family",
    "dual_atoms",
    "classical_atoms",
    "dual_presentation",
    "classical_presentation",
    "completed_dual_presentation",
    "presentation_for",
    "parse_atom",
    "parse_word",
    "render_word",
]

_FAMILY_ORDER = {"tau": 0, "alpha": 1, "beta": 2, "a": 3, "sigma": 4}
_FAMILY_ALIASES = {
    "a": "a",
    "al": "alpha",
    "alpha": "alpha",
    "b": "beta",
    "be": "beta",
    "beta": "beta",
    "t": "tau",
    "tau": "tau",
    "s": "sigma",
    "sigma": "sigma",
}
_UNARY = ("tau", "sigma")
_FAMILY_NAMES = {order: name for name, order in _FAMILY_ORDER.items()}


class Atom(tuple):
    """A named generator, binary like alpha(t,s) or unary like tau(t).

    An atom is the tuple of its ``key``, (family rank, i, j), so that
    hashing, equality and ordering run in C and atoms sort by ``key``.
    """

    __slots__ = ()

    def __new__(cls, family: str, i: int, j: int = 0) -> Atom:
        if family not in _FAMILY_ORDER:
            raise ValueError(f"unknown atom family {family!r}")
        if family in _UNARY:
            if j != 0:
                raise ValueError(f"{family} atoms take a single index")
        elif not i > j >= 1:
            raise ValueError(f"{family} atoms need indices i > j >= 1")
        return tuple.__new__(cls, (_FAMILY_ORDER[family], i, j))

    family = property(lambda self: _FAMILY_NAMES[self[0]])
    i = property(itemgetter(1))
    j = property(itemgetter(2))

    @property
    def key(self) -> tuple[int, int, int]:
        return tuple(self)

    def __reduce__(self):
        return (Atom, (self.family, self.i, self.j))

    def __repr__(self) -> str:
        return f"Atom(family={self.family!r}, i={self.i!r}, j={self.j!r})"

    def __str__(self) -> str:
        if self.family in _UNARY:
            return f"{self.family}({self.i})"
        return f"{self.family}({self.i},{self.j})"


Word = tuple[Atom, ...]
_ATOM_TYPE = frozenset((Atom,))


def alpha(t: int, s: int) -> Atom:
    return Atom("alpha", t, s)


def beta(t: int, s: int) -> Atom:
    return Atom("beta", t, s)


def tau(t: int) -> Atom:
    return Atom("tau", t)


def sigma(i: int) -> Atom:
    return Atom("sigma", i)


def band(t: int, s: int) -> Atom:
    """Type A generator a(t,s), one per transposition."""
    return Atom("a", t, s)


def word_key(word: Word) -> tuple:
    return (len(word), word)


@dataclass(frozen=True)
class Relation:
    """An equality of two words; sides are stored in a canonical order."""

    lhs: Word
    rhs: Word

    def __post_init__(self) -> None:
        if word_key(self.rhs) < word_key(self.lhs):
            lhs, rhs = self.rhs, self.lhs
            object.__setattr__(self, "lhs", lhs)
            object.__setattr__(self, "rhs", rhs)

    @property
    def homogeneous(self) -> bool:
        return len(self.lhs) == len(self.rhs)

    def __str__(self) -> str:
        return f"{render_word(self.lhs)} = {render_word(self.rhs)}"


def expand_family(atoms: Sequence[Atom]) -> list[Relation]:
    """Relations of the cyclic family [w1, ..., wp].

    Adjacent products around the cycle are all equal; the p-1 emitted
    relations chain them together and the closing equality follows.

    >>> rels = expand_family([band(3, 2), band(2, 1), band(3, 1)])
    >>> [str(r) for r in rels]
    ['a(2,1)*a(3,1) = a(3,2)*a(2,1)', 'a(2,1)*a(3,1) = a(3,1)*a(3,2)']
    """
    p = len(atoms)
    if p < 2:
        raise ValueError("a relation family needs at least two atoms")
    products = [(atoms[i], atoms[(i + 1) % p]) for i in range(p)]
    return [Relation(products[i], products[i + 1]) for i in range(p - 1)]


@dataclass(frozen=True)
class Presentation:
    """A finite monoid presentation with an optional Garside word."""

    ctype: CoxType
    kind: str
    atoms: tuple[Atom, ...]
    relations: tuple[Relation, ...]
    garside_word: Word | None = None
    added_relations: tuple[Relation, ...] = field(default=())
    rejected_relations: tuple[Relation, ...] = field(default=())
    duplicate_count: int = 0

    @cached_property
    def _code_of(self) -> dict[Atom, int]:
        return {atom: code for code, atom in enumerate(self.atoms)}

    def encode(self, word) -> tuple[int, ...]:
        """The integer codes of an atom word.

        A foreign atom raises ValueError, and so does a plain tuple equal to
        an atom's key, which the code table alone would take for that atom.
        """
        try:
            codes = tuple(map(self._code_of.__getitem__, word))
        except KeyError as exc:
            raise self._not_an_atom(exc.args[0]) from None
        # one C-level pass over the letters' types, not a test per letter
        if not _ATOM_TYPE.issuperset(map(type, word)):
            raise self._not_an_atom(next(a for a in word if type(a) is not Atom))
        return codes

    def _not_an_atom(self, letter) -> ValueError:
        return ValueError(
            f"{letter} is not an atom of the {self.kind} presentation of {self.ctype}"
        )

    def decode(self, codes) -> Word:
        return tuple(self.atoms[c] for c in codes)

    def as_dict(self) -> dict:
        data = {
            "type": str(self.ctype),
            "kind": self.kind,
            "atoms": [str(a) for a in self.atoms],
            "relations": [[render_word(r.lhs), render_word(r.rhs)] for r in self.relations],
            "num_atoms": len(self.atoms),
            "num_relations": len(self.relations),
        }
        if self.garside_word is not None:
            data["garside_word"] = render_word(self.garside_word)
        if self.kind == "completed":
            data["num_added"] = len(self.added_relations)
            data["duplicates_skipped"] = self.duplicate_count
            data["rejected"] = [
                [render_word(r.lhs), render_word(r.rhs)] for r in self.rejected_relations
            ]
        return data


def _check_series(ctype: CoxType, what: str) -> None:
    if not ctype.has_explicit_presentation:
        raise ValueError(
            f"no explicit {what} presentation for {ctype}; "
            "use the reflection interval engine instead"
        )


def dual_atoms(ctype: CoxType) -> tuple[Atom, ...]:
    """One generator per reflection, in a fixed display order."""
    _check_series(ctype, "dual")
    n = ctype.rank
    if ctype.series == "A":
        return tuple(band(t, s) for t in range(2, n + 2) for s in range(1, t))
    if ctype.series == "B":
        taus = tuple(tau(t) for t in range(1, n + 1))
        alphas = tuple(alpha(t, s) for t in range(2, n + 1) for s in range(1, t))
        betas = tuple(beta(t, s) for t in range(2, n + 1) for s in range(1, t))
        return taus + alphas + betas
    if ctype.series == "D":
        alphas = tuple(alpha(t, s) for t in range(2, n + 1) for s in range(1, t))
        betas = tuple(beta(t, s) for t in range(2, n + 1) for s in range(1, t))
        return alphas + betas
    return tuple(sigma(i) for i in range(1, ctype.param + 1))


def classical_atoms(ctype: CoxType) -> tuple[Atom, ...]:
    _check_series(ctype, "classical")
    n = ctype.rank
    if ctype.series == "A":
        return tuple(sigma(i) for i in range(1, n + 1))
    if ctype.series in ("B", "D"):
        return (tau(1),) + tuple(sigma(i) for i in range(1, n))
    return (sigma(1), sigma(2))


def _noncrossing_quadruples(indices: Sequence[int]) -> Iterable[tuple[int, int, int, int]]:
    """Pairs (t,s),(r,q) of disjoint index pairs that do not interleave."""
    for t in indices:
        for s in indices:
            if s >= t:
                continue
            for r in indices:
                for q in indices:
                    if q >= r or (r, q) >= (t, s):
                        continue
                    if len({t, s, r, q}) < 4:
                        continue
                    if (t - r) * (t - q) * (s - r) * (s - q) > 0:
                        yield (t, s, r, q)


def _dual_relations_a(n: int) -> list[Relation]:
    rels: list[Relation] = []
    for t in range(3, n + 2):
        for s in range(2, t):
            for r in range(1, s):
                rels.extend(expand_family([band(t, s), band(s, r), band(t, r)]))
    for t, s, r, q in _noncrossing_quadruples(range(1, n + 2)):
        rels.extend(expand_family([band(t, s), band(r, q)]))
    return rels


def _dual_relations_b(n: int) -> list[Relation]:
    rels: list[Relation] = []
    for t in range(2, n + 1):
        for s in range(1, t):
            rels.extend(expand_family([alpha(t, s), tau(s), beta(t, s), tau(t)]))
    for t in range(3, n + 1):
        for s in range(2, t):
            for r in range(1, s):
                rels.extend(expand_family([alpha(t, s), alpha(s, r), alpha(t, r)]))
                rels.extend(expand_family([beta(t, s), alpha(s, r), beta(t, r)]))
                rels.extend(expand_family([alpha(t, s), beta(s, r), beta(t, r)]))
                rels.extend(expand_family([alpha(t, s), tau(r)]))
                rels.extend(expand_family([tau(t), alpha(s, r)]))
                rels.extend(expand_family([beta(t, r), tau(s)]))
    for t in range(4, n + 1):
        for s in range(3, t):
            for r in range(2, s):
                for q in range(1, r):
                    rels.extend(expand_family([alpha(t, s), alpha(r, q)]))
                    rels.extend(expand_family([alpha(t, s), beta(r, q)]))
                    rels.extend(expand_family([beta(t, s), alpha(r, q)]))
                    rels.extend(expand_family([alpha(t, q), alpha(s, r)]))
                    rels.extend(expand_family([beta(t, q), alpha(s, r)]))
                    rels.extend(expand_family([beta(t, q), beta(s, r)]))
    return rels


def _dual_relations_d(n: int) -> list[Relation]:
    rels: list[Relation] = []
    for t in range(3, n + 1):
        for s in range(2, t):
            for r in range(1, s):
                rels.extend(expand_family([alpha(t, s), alpha(s, r), alpha(t, r)]))
                rels.extend(expand_family([alpha(t, s), beta(s, r), beta(t, r)]))
    for t in range(4, n + 1):
        for s in range(3, t):
            for r in range(2, s):
                rels.extend(expand_family([beta(t, s), alpha(s, r), beta(t, r)]))
                rels.extend(expand_family([beta(t, r), alpha(s, 1)]))
                rels.extend(expand_family([beta(t, r), beta(s, 1)]))
    for t in range(3, n + 1):
        for s in range(2, t):
            rels.extend(expand_family([beta(t, s), beta(t, 1), alpha(s, 1)]))
            rels.extend(expand_family([beta(t, s), alpha(t, 1), beta(s, 1)]))
    for t in range(5, n + 1):
        for s in range(4, t):
            for r in range(3, s):
                for q in range(1, r):
                    if q > 1:
                        rels.extend(expand_family([beta(t, s), alpha(r, q)]))
                        rels.extend(expand_family([beta(t, q), beta(s, r)]))
    for t in range(4, n + 1):
        for s in range(3, t):
            for r in range(2, s):
                for q in range(1, r):
                    rels.extend(expand_family([alpha(t, s), alpha(r, q)]))
                    rels.extend(expand_family([alpha(t, s), beta(r, q)]))
                    rels.extend(expand_family([alpha(t, q), alpha(s, r)]))
                    rels.extend(expand_family([beta(t, q), alpha(s, r)]))
    for t in range(2, n + 1):
        rels.extend(expand_family([alpha(t, 1), beta(t, 1)]))
    return rels


def _dual_relations_i2(m: int) -> list[Relation]:
    return expand_family([sigma(i) for i in range(m, 0, -1)])


def _dual_garside_word(ctype: CoxType) -> Word:
    n = ctype.rank
    if ctype.series == "A":
        return tuple(band(t, t - 1) for t in range(n + 1, 1, -1))
    if ctype.series == "B":
        return tuple(alpha(t, t - 1) for t in range(n, 1, -1)) + (tau(1),)
    if ctype.series == "D":
        return tuple(alpha(t, t - 1) for t in range(n, 1, -1)) + (beta(2, 1),)
    return (sigma(2), sigma(1))


def dual_presentation(ctype: CoxType) -> Presentation:
    """Dual presentation: one atom per reflection, homogeneous relations."""
    _check_series(ctype, "dual")
    if ctype.series == "A":
        rels = _dual_relations_a(ctype.rank)
    elif ctype.series == "B":
        rels = _dual_relations_b(ctype.rank)
    elif ctype.series == "D":
        rels = _dual_relations_d(ctype.rank)
    else:
        rels = _dual_relations_i2(ctype.param)
    return Presentation(
        ctype=ctype,
        kind="dual",
        atoms=dual_atoms(ctype),
        relations=tuple(rels),
        garside_word=_dual_garside_word(ctype),
    )


def _braid_and_commutation(gens: Sequence[Atom]) -> list[Relation]:
    rels: list[Relation] = []
    k = len(gens)
    for i in range(k - 1):
        x, y = gens[i], gens[i + 1]
        rels.append(Relation((x, y, x), (y, x, y)))
    for i in range(k):
        for j in range(i + 2, k):
            rels.append(Relation((gens[i], gens[j]), (gens[j], gens[i])))
    return rels


def classical_presentation(ctype: CoxType) -> Presentation:
    """Artin-style presentation on the simple generators."""
    _check_series(ctype, "classical")
    n = ctype.rank
    atoms = classical_atoms(ctype)
    rels: list[Relation] = []
    if ctype.series == "A":
        rels = _braid_and_commutation(atoms)
    elif ctype.series == "B":
        t1 = tau(1)
        sig = [sigma(i) for i in range(1, n)]
        rels.append(Relation((sig[0], t1, sig[0], t1), (t1, sig[0], t1, sig[0])))
        rels.extend(_braid_and_commutation(sig))
        for j in range(2, n):
            rels.append(Relation((t1, sigma(j)), (sigma(j), t1)))
    elif ctype.series == "D":
        t1 = tau(1)
        sig = [sigma(i) for i in range(1, n)]
        rels.append(Relation((sig[0], t1), (t1, sig[0])))
        if n >= 3:
            rels.append(Relation((sig[1], t1, sig[1]), (t1, sig[1], t1)))
        rels.extend(_braid_and_commutation(sig))
        for j in range(3, n):
            rels.append(Relation((t1, sigma(j)), (sigma(j), t1)))
    else:
        m = ctype.param
        lhs = tuple(sigma(1 + (i % 2)) for i in range(m))
        rhs = tuple(sigma(2 - (i % 2)) for i in range(m))
        rels.append(Relation(lhs, rhs))
    return Presentation(ctype=ctype, kind="classical", atoms=atoms, relations=tuple(rels))


def _completion_chains_b(n: int) -> list[list[Word]]:
    chains: list[list[Word]] = []
    for t in range(3, n + 1):
        for s in range(2, t):
            for r in range(1, s):
                a_ts, a_sr, a_tr = alpha(t, s), alpha(s, r), alpha(t, r)
                b_ts, b_sr, b_tr = beta(t, s), beta(s, r), beta(t, r)
                t_t, t_s, t_r = tau(t), tau(s), tau(r)
                chains.append(
                    [
                        (b_sr, t_s, b_tr),
                        (a_tr, a_ts, t_r),
                        (b_ts, a_sr, t_t),
                        (t_t, a_sr, a_tr),
                        (t_s, b_ts, a_sr),
                        (b_tr, t_t, a_ts),
                        (t_s, b_ts, a_sr),
                    ]
                )
    return chains


def _completion_extras_b(n: int) -> list[Relation]:
    rels: list[Relation] = []
    for t in range(4, n + 1):
        for s in range(3, t):
            for r in range(2, s):
                for q in range(1, r):
                    a = alpha
                    b = beta
                    rels.append(
                        Relation(
                            (a(t, q), a(t, s), a(s, r), tau(q)),
                            (b(s, r), b(t, r), a(r, q), tau(s)),
                        )
                    )
                    rels.append(
                        Relation(
                            (b(t, s), a(s, q), a(s, r), tau(t)),
                            (b(r, q), b(t, q), a(t, s), tau(r)),
                        )
                    )
                    rels.append(
                        Relation((a(t, r), a(r, q), a(t, s)), (a(s, q), a(s, r), a(t, q)))
                    )
                    rels.append(
                        Relation((a(t, r), a(t, s), b(r, q)), (b(s, q), a(s, r), b(t, q)))
                    )
                    rels.append(
                        Relation((b(t, r), a(r, q), b(t, s)), (a(s, q), a(s, r), b(t, q)))
                    )
                    rels.append(
                        Relation((b(t, r), a(r, q), a(t, s)), (b(s, q), b(s, r), b(t, q)))
                    )
    return rels


def _completion_extras_d(n: int) -> list[Relation]:
    a = alpha
    b = beta
    rels: list[Relation] = []
    for t in range(4, n + 1):
        for s in range(3, t):
            for r in range(2, s):
                for q in range(1, r):
                    rels.append(
                        Relation((a(t, r), a(r, q), a(t, s)), (a(s, q), a(s, r), a(t, q)))
                    )
                    rels.append(
                        Relation((a(t, r), a(t, s), b(r, q)), (b(s, q), a(s, r), b(t, q)))
                    )
                    rels.append(
                        Relation((b(t, s), a(t, q), a(s, r)), (b(r, q), b(t, r), b(s, q)))
                    )
                    if q > 1:
                        rels.append(
                            Relation(
                                (a(t, q), a(q, 1), a(t, r), a(t, s), b(q, 1)),
                                (b(s, r), b(s, 1), a(r, q), a(s, 1), b(t, q)),
                            )
                        )
                        rels.append(
                            Relation((b(t, r), a(r, q), b(t, s)), (a(s, q), a(s, r), b(t, q)))
                        )
                        rels.append(
                            Relation((b(t, r), a(r, q), a(t, s)), (b(s, q), b(s, r), b(t, q)))
                        )
    for t in range(4, n + 1):
        for s in range(3, t):
            for r in range(2, s):
                rels.append(
                    Relation(
                        (a(t, r), a(r, 1), a(t, s), b(r, 1)),
                        (b(s, r), b(s, 1), a(s, 1), b(t, r)),
                    )
                )
                rels.append(
                    Relation((a(t, 1), a(t, s), b(r, 1)), (b(s, r), a(s, 1), b(t, r)))
                )
                rels.append(
                    Relation(
                        (b(t, s), b(t, 1), a(s, r), a(t, 1)),
                        (a(t, r), a(r, 1), a(t, s), b(r, 1)),
                    )
                )
                rels.append(
                    Relation((b(t, s), b(t, 1), a(s, r)), (a(r, 1), a(s, 1), b(t, r)))
                )
                rels.append(
                    Relation(
                        (b(t, s), b(t, 1), a(s, r), a(t, 1)),
                        (b(s, r), b(s, 1), a(s, 1), b(t, r)),
                    )
                )
                rels.append(
                    Relation((b(t, 1), a(r, 1), a(t, s)), (b(s, r), b(s, 1), b(t, r)))
                )
    for t in range(3, n + 1):
        for s in range(2, t):
            rels.append(
                Relation((a(t, s), a(s, 1), b(s, 1)), (b(t, s), b(t, 1), a(t, 1)))
            )
    return rels


def completed_dual_presentation(ctype: CoxType) -> Presentation:
    """Dual presentation plus the extra relations used for completion.

    Every candidate relation is checked against the congruence closure of
    the base presentation before being accepted.  Candidates that are not
    consequences of the base relations are *not* added; they are recorded
    in ``rejected_relations`` so callers can flag them.  Adding an
    underivable relation would change the monoid, so rejecting is the
    only sound option.  Series A and I2 need no extras.  The candidates
    are the adjacent equalities of the B chains, then the extra relations;
    one whose sides are equal, or that is already stated, counts as a
    duplicate and is not checked.
    """
    base = dual_presentation(ctype)
    candidates: list[Relation] = []
    if ctype.series == "B":
        for chain in _completion_chains_b(ctype.rank):
            candidates.extend(Relation(u, v) for u, v in zip(chain, chain[1:]))
        candidates.extend(_completion_extras_b(ctype.rank))
    elif ctype.series == "D":
        candidates.extend(_completion_extras_d(ctype.rank))
    from . import congruence

    oracle = congruence.ClassStore(base)
    seen = set(base.relations)
    duplicates = 0
    fresh: list[Relation] = []
    rejected: list[Relation] = []
    for rel in candidates:
        if rel.lhs == rel.rhs or rel in seen:
            duplicates += 1
            continue
        seen.add(rel)
        if oracle.derivable(rel):
            fresh.append(rel)
        else:
            rejected.append(rel)
    return Presentation(
        ctype=ctype,
        kind="completed",
        atoms=base.atoms,
        relations=base.relations + tuple(fresh),
        garside_word=base.garside_word,
        added_relations=tuple(fresh),
        rejected_relations=tuple(rejected),
        duplicate_count=duplicates,
    )


def presentation_for(ctype: CoxType, kind: str) -> Presentation:
    if kind == "dual":
        return dual_presentation(ctype)
    if kind == "classical":
        return classical_presentation(ctype)
    if kind == "completed":
        return completed_dual_presentation(ctype)
    raise ValueError(f"unknown presentation kind {kind!r}")


_ATOM_RE = re.compile(r"^([A-Za-z]+)\s*\(?\s*(\d+)\s*(?:[,;]\s*(\d+))?\s*\)?$")


def parse_atom(text: str) -> Atom:
    """Parse an atom token such as ``alpha(3,1)``, ``tau(2)`` or ``a42``.

    >>> parse_atom("alpha(3,1)")
    Atom(family='alpha', i=3, j=1)
    >>> parse_atom("a42") == band(4, 2)
    True
    """
    match = _ATOM_RE.match(text.strip())
    if not match:
        raise ValueError(f"cannot parse atom token {text!r}")
    name, first, second = match.group(1).lower(), match.group(2), match.group(3)
    family = _FAMILY_ALIASES.get(name)
    if family is None:
        raise ValueError(f"unknown atom family in token {text!r}")
    if family in _UNARY:
        if second is not None:
            raise ValueError(f"{family} takes one index: {text!r}")
        return Atom(family, int(first))
    if second is not None:
        return Atom(family, int(first), int(second))
    if len(first) == 2:
        return Atom(family, int(first[0]), int(first[1]))
    raise ValueError(f"two indices needed, e.g. {name}(10,2): {text!r}")


def parse_word(text: str) -> Word:
    """Parse a word written as atom tokens joined by ``*`` or whitespace."""
    text = text.strip()
    if not text or text in ("1", "e"):
        return ()
    parts = [p for p in re.split(r"[\s*.]+", text) if p]
    return tuple(parse_atom(p) for p in parts)


def render_word(word: Word) -> str:
    if not word:
        return "1"
    return "*".join(str(a) for a in word)
