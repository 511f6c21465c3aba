"""Order-two index-shift symmetry of the odd-rank type-A dual monoid.

Shifting every band generator index by n modulo 2n permutes the atoms of
the dual monoid of A(2n-1) and preserves its relations.  The submonoid
fixed by that symmetry realizes the dual monoid of B(n): the B generators
map to fixed positive words (single bands or commuting band pairs), and
every B relation becomes derivable after substitution.  This module
discovers the images from the classical-word expressions, rather than
hard-coding them, and verifies the whole picture with the congruence
oracle of the type-A dual presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .congruence import ClassStore
from .coxtypes import CoxType
from .embedding import dual_atom_as_classical_word
from .garside import dual_garside_data, group_normal_form
from .presentation import (
    Atom,
    Word,
    band,
    dual_atoms,
    dual_presentation,
    render_word,
    sigma,
    tau,
)


def halfturn_map(n: int) -> dict[Atom, Atom]:
    """The atom permutation a(t,s) -> a(t+n, s+n) with indices mod 2n."""
    m = 2 * n

    def shift(i: int) -> int:
        return (i + n - 1) % m + 1

    out = {}
    for a in dual_atoms(CoxType("A", m - 1)):
        t, s = shift(a.i), shift(a.j)
        if t < s:
            t, s = s, t
        out[a] = band(t, s)
    return out


def apply_halfturn(word: Word, phi: dict[Atom, Atom]) -> Word:
    return tuple(phi[a] for a in word)


@dataclass
class HalfturnReport:
    """Verification record for the fixed-submonoid picture at one n."""

    n: int
    atom_images: dict = field(default_factory=dict)
    automorphism_relations: int = 0
    mapped_relations: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "check": "halfturn",
            "n": self.n,
            "ambient": f"A({2 * self.n - 1})",
            "atom_images": {str(a): render_word(w) for a, w in self.atom_images.items()},
            "automorphism_relations": self.automorphism_relations,
            "mapped_relations": self.mapped_relations,
            "failures": [str(f) for f in self.failures],
            "ok": self.ok,
        }


def halfturn_fixed_check(n: int) -> HalfturnReport:
    """Verify the shift symmetry and the fixed-submonoid realization of B(n)."""
    report = HalfturnReport(n)
    atype = CoxType("A", 2 * n - 1)
    btype = CoxType("B", n)
    pres_a = dual_presentation(atype)
    oracle = ClassStore(pres_a)
    phi = halfturn_map(n)

    for a, img in phi.items():
        if phi[img] != a:
            report.failures.append(f"shift map is not an involution at {a}")
    for rel in pres_a.relations:
        report.automorphism_relations += 1
        if not oracle.words_equivalent(
            apply_halfturn(rel.lhs, phi), apply_halfturn(rel.rhs, phi)
        ):
            report.failures.append(f"shifted relation {rel} fails")

    data = dual_garside_data(atype)
    # each classical letter of B(n), with its sign, as A(2n-1) simple indices
    b_to_a = {tau(1): (band(n + 1, 1),)}
    b_to_a.update({sigma(i): (band(n + 1 + i, n + i), band(i + 1, i)) for i in range(1, n)})
    to_a = {}
    for letter, word in b_to_a.items():
        idx = [data.atom_labels[a] for a in word]
        to_a[letter, 1] = tuple((i, 1) for i in idx)
        to_a[letter, -1] = tuple((i, -1) for i in reversed(idx))

    images: dict[Atom, Word] = {}
    for atom in dual_atoms(btype):
        signed = tuple(x for pair in dual_atom_as_classical_word(atom, btype) for x in to_a[pair])
        # a positive word of one or two atoms: one simple of grade at most 2
        nf = group_normal_form(signed, data)
        if nf.delta_power or len(nf.factors) != 1 or data.poset.grades[nf.factors[0]] > 2:
            report.failures.append(f"image of {atom} is not a short positive word")
            continue
        images[atom] = data.simple_word(nf.factors[0])
    report.atom_images = images
    if len(images) < len(dual_atoms(btype)):
        return report

    def psi(word: Word) -> Word:
        return tuple(x for a in word for x in images[a])

    for rel in dual_presentation(btype).relations:
        report.mapped_relations += 1
        if not oracle.words_equivalent(psi(rel.lhs), psi(rel.rhs)):
            report.failures.append(f"mapped relation {rel} fails")

    for atom, word in images.items():
        if not oracle.words_equivalent(apply_halfturn(word, phi), word):
            report.failures.append(f"image of {atom} is not fixed by the shift")

    return report
