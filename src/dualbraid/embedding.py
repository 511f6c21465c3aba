"""Classical-word images of dual generators, verified inside the Artin group.

Each dual generator has a standard expression as a conjugate of a classical
generator.  This module builds those signed words literally (no free
reduction), checks that the dual relations hold under the substitution,
using the classical Garside engine for the word problem, and conversely
checks that the classical braid relations are derivable from the completed
dual presentation by the congruence oracle.  A dihedral type with parameter
above ``ORACLE_MAX_DIHEDRAL`` takes the second check through dual normal
forms instead, since its relation classes grow exponentially in m.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .congruence import ClassStore
from .coxtypes import CoxType
from .garside import classical_garside_data, dual_garside_data, equal_in_group, group_normal_form
from .presentation import (
    Atom,
    Presentation,
    alpha,
    band,
    beta,
    classical_presentation,
    completed_dual_presentation,
    dual_atoms,
    sigma,
    tau,
)

# limit read at call time: the largest dihedral parameter whose classical
# relations are checked by the congruence oracle rather than normal forms
ORACLE_MAX_DIHEDRAL = 8

SignedLetter = tuple[Atom, int]
SignedWord = tuple[SignedLetter, ...]


def _inv(word: SignedWord) -> SignedWord:
    return tuple((a, -s) for a, s in reversed(word))


def _conj(core: SignedWord, wrap: SignedWord) -> SignedWord:
    return wrap + core + _inv(wrap)


def _sigma_chain(t: int, s: int) -> SignedWord:
    """The positive conjugator (sigma_{t-1} ... sigma_{s+1})."""
    return tuple((sigma(i), 1) for i in range(t - 1, s, -1))


def dual_atom_as_classical_word(atom: Atom, ctype: CoxType) -> SignedWord:
    """Signed classical word for a dual generator, kept literal."""
    series = ctype.series
    fam = atom.family
    if series == "A":
        if fam != "a":
            raise ValueError(f"{atom} is not a dual generator of type {ctype}")
        return _conj(((sigma(atom.j), 1),), _sigma_chain(atom.i, atom.j))
    if series == "B":
        if fam == "alpha":
            return _conj(((sigma(atom.j), 1),), _sigma_chain(atom.i, atom.j))
        if fam == "tau":
            if atom.i == 1:
                return ((tau(1), 1),)
            inner = dual_atom_as_classical_word(tau(1), ctype)
            wrap = dual_atom_as_classical_word(alpha(atom.i, 1), ctype)
            return _conj(inner, wrap)
        if fam == "beta":
            ts = dual_atom_as_classical_word(tau(atom.j), ctype)
            mid = dual_atom_as_classical_word(alpha(atom.i, atom.j), ctype)
            return _inv(ts) + mid + ts
        raise ValueError(f"{atom} is not a dual generator of type {ctype}")
    if series == "D":
        if fam == "alpha":
            return _conj(((sigma(atom.j), 1),), _sigma_chain(atom.i, atom.j))
        if fam == "beta":
            if atom.j == 1:
                wrap = tuple((sigma(i), 1) for i in range(atom.i - 1, 1, -1))
                return _conj(((tau(1), 1),), wrap)
            base = dual_atom_as_classical_word(beta(atom.i, 1), ctype)
            ws = dual_atom_as_classical_word(alpha(atom.j, 1), ctype)
            return _inv(ws) + base + ws
        raise ValueError(f"{atom} is not a dual generator of type {ctype}")
    if series == "I2":
        if fam != "sigma" or not 1 <= atom.i <= ctype.param:
            raise ValueError(f"{atom} is not a dual generator of type {ctype}")
        # t_1 = s1, t_2 = s2, then t_{k+1} = (s2 s1) t_k^-1, which telescopes
        # to an alternating-word conjugate of s1 or s2
        k = atom.i
        if k <= 2:
            return ((sigma(k), 1),)
        wrap = tuple((sigma(2 if j % 2 == 0 else 1), 1) for j in range(k - 2))
        core = sigma(1) if k % 2 == 1 else sigma(2)
        return _conj(((core, 1),), wrap)
    raise ValueError(f"type {ctype} has no explicit dual generators")


def _signed_projection(group, word: SignedWord):
    el = group.identity
    for a, s in word:
        img = group.atom_image(a)
        el = group.mul(el, img if s == 1 else group.inv(img))
    return el


@dataclass
class EmbeddingReport:
    """Per-relation outcome of a substitution check."""

    check: str
    ctype: CoxType
    relations: int = 0
    failures: list = field(default_factory=list)
    projection_ok: bool = True
    garside_image_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.projection_ok and self.garside_image_ok and not self.failures

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "type": self.ctype.series,
            "rank": self.ctype.rank if self.ctype.series != "I2" else self.ctype.param,
            "relations": self.relations,
            "failures": [str(f) for f in self.failures],
            "projection_ok": self.projection_ok,
            "garside_image_ok": self.garside_image_ok,
            "ok": self.ok,
        }


def verify_dual_relations_in_group(ctype: CoxType) -> EmbeddingReport:
    """Map every dual and completed-dual relation through the classical
    words and decide each equality in the Artin group.

    Each atom's classical word, and its letters as simple indices, are
    built once; a relation side is the concatenation of its atoms' letters.
    """
    # refuses a type without an explicit presentation before any group work
    return _dual_relations_in_group(completed_dual_presentation(ctype))


def _dual_relations_in_group(completed: Presentation) -> EmbeddingReport:
    ctype = completed.ctype
    report = EmbeddingReport("embedding", ctype)
    data = classical_garside_data(ctype)
    group = data.group
    words = {a: dual_atom_as_classical_word(a, ctype) for a in dual_atoms(ctype)}
    labels = data.atom_labels
    letters = {a: tuple((labels[x], s) for x, s in w) for a, w in words.items()}

    for a, word in words.items():
        if _signed_projection(group, word) != group.atom_image(a):
            report.projection_ok = False
            report.failures.append(f"projection mismatch for {a}")

    delta_img = tuple(x for a in completed.garside_word for x in words[a])
    if _signed_projection(group, delta_img) != group.coxeter_element:
        report.garside_image_ok = False
        report.failures.append("Garside word image does not project to c")

    for rel in dict.fromkeys(completed.relations):
        lhs = tuple(x for a in rel.lhs for x in letters[a])
        rhs = tuple(x for a in rel.rhs for x in letters[a])
        report.relations += 1
        if group_normal_form(lhs, data) != group_normal_form(rhs, data):
            report.failures.append(f"{rel} fails in the group")
    return report


def classical_atom_as_dual_word(atom: Atom, ctype: CoxType) -> tuple[Atom, ...]:
    """Positive dual word for a classical generator."""
    series = ctype.series
    if series == "A" and atom.family == "sigma":
        return (band(atom.i + 1, atom.i),)
    if series in ("B", "D"):
        if atom.family == "sigma":
            return (alpha(atom.i + 1, atom.i),)
        if atom.family == "tau" and atom.i == 1:
            return (tau(1),) if series == "B" else (beta(2, 1),)
    if series == "I2" and atom.family == "sigma" and atom.i in (1, 2):
        return (sigma(atom.i),)
    raise ValueError(f"{atom} is not a classical generator of type {ctype}")


def verify_classical_from_dual(ctype: CoxType) -> EmbeddingReport:
    """Rewrite each classical relation over dual generators and check that
    it is a consequence of the completed dual presentation.

    The route is the congruence oracle.  For dihedral types with parameter
    above ``ORACLE_MAX_DIHEDRAL`` the relation words have length m and
    their congruence classes grow exponentially, so the check uses dual
    normal forms there (the two routes are cross-validated at small
    parameters).
    """
    return _classical_from_dual(completed_dual_presentation(ctype))


def _classical_from_dual(completed: Presentation) -> EmbeddingReport:
    ctype = completed.ctype
    if ctype.series == "I2" and ctype.param > ORACLE_MAX_DIHEDRAL:
        report = EmbeddingReport("classical-from-dual-engine", ctype)
        data = dual_garside_data(ctype)
        equivalent = lambda u, v: equal_in_group(u, v, data)
    else:
        report = EmbeddingReport("classical-from-dual-oracle", ctype)
        equivalent = ClassStore(completed).words_equivalent
    classical = classical_presentation(ctype)
    words = {a: classical_atom_as_dual_word(a, ctype) for a in classical.atoms}
    for rel in classical.relations:
        lhs = tuple(x for a in rel.lhs for x in words[a])
        rhs = tuple(x for a in rel.rhs for x in words[a])
        report.relations += 1
        if not equivalent(lhs, rhs):
            report.failures.append(f"{rel} is not derivable")
    return report
