"""Dual braid monoids of finite Coxeter types: presentations, Garside
structure verification, and simple-element counting by independent engines."""

from .congruence import (
    ClassStore,
    ComplementTable,
    CubeReport,
    count_simples_rewriting,
    cube_condition,
    is_garside_element,
    reverse_words,
)
from .coxeter import coxeter_group, word_image
from .coxtypes import CoxType, parse_type
from .embedding import (
    dual_atom_as_classical_word,
    verify_classical_from_dual,
    verify_dual_relations_in_group,
)
from .garside import (
    GarsideData,
    NormalForm,
    classical_garside_data,
    dual_garside_data,
    equal_in_group,
    group_normal_form,
    normal_form,
)
from .halfturn import halfturn_fixed_check, halfturn_map
from .interval import (
    IntervalPoset,
    LatticeError,
    enumerate_interval,
    interval_join,
    interval_meet,
    verify_lattice,
    weak_order_poset,
)
from .presentation import (
    Atom,
    Presentation,
    Relation,
    classical_presentation,
    completed_dual_presentation,
    dual_atoms,
    dual_presentation,
    parse_atom,
    parse_word,
    presentation_for,
    render_word,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "ClassStore",
    "ComplementTable",
    "CoxType",
    "CubeReport",
    "GarsideData",
    "IntervalPoset",
    "LatticeError",
    "NormalForm",
    "Presentation",
    "Relation",
    "classical_garside_data",
    "classical_presentation",
    "completed_dual_presentation",
    "count_simples_rewriting",
    "coxeter_group",
    "cube_condition",
    "dual_atom_as_classical_word",
    "dual_atoms",
    "dual_garside_data",
    "dual_presentation",
    "enumerate_interval",
    "equal_in_group",
    "group_normal_form",
    "halfturn_fixed_check",
    "halfturn_map",
    "interval_join",
    "interval_meet",
    "is_garside_element",
    "normal_form",
    "parse_atom",
    "parse_type",
    "parse_word",
    "presentation_for",
    "render_word",
    "reverse_words",
    "verify_classical_from_dual",
    "verify_dual_relations_in_group",
    "verify_lattice",
    "weak_order_poset",
    "word_image",
]
