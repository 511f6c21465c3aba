import pickle

import pytest

from dualbraid import (
    ClassStore,
    classical_presentation,
    completed_dual_presentation,
    coxeter_group,
    dual_atoms,
    dual_garside_data,
    dual_presentation,
    normal_form,
    parse_atom,
    parse_type,
    parse_word,
    presentation_for,
    render_word,
    word_image,
)
from dualbraid.cli import TABLE_TYPES
from dualbraid.presentation import Atom, Relation, alpha, band, beta, sigma, tau, word_key


def test_atom_parse_render_round_trip():
    for text in ["alpha(5,2)", "beta(4,1)", "tau(3)", "sigma(2)", "a(7,3)"]:
        assert str(parse_atom(text)) == text
    word = parse_word("alpha(2,1)*tau(1)")
    assert render_word(word) == "alpha(2,1)*tau(1)"
    assert parse_word(render_word(word)) == word


def test_alphabet_order_and_codes():
    # code tuples compare like atom words only if atoms ascend in Atom.key
    for label in TABLE_TYPES:
        ct = parse_type(label)
        if not ct.has_explicit_presentation:
            continue
        for flavor in ["dual", "classical", "completed"]:
            pres = presentation_for(ct, flavor)
            keys = [atom.key for atom in pres.atoms]
            assert all(a < b for a, b in zip(keys, keys[1:])), (ct, flavor)
            for word in [pres.atoms] + [rel.lhs for rel in pres.relations]:
                codes = pres.encode(word)
                assert all(isinstance(c, int) for c in codes)
                assert pres.decode(codes) == word


def test_atoms_are_tuple_values_ordered_like_their_key():
    a = alpha(3, 1)
    # hashing and equality are tuple's own, so they run in C
    assert Atom.__hash__ is tuple.__hash__ and Atom.__eq__ is tuple.__eq__
    assert a == alpha(3, 1) and hash(a) == hash(alpha(3, 1))
    assert a != alpha(3, 2) and a != beta(3, 1)
    assert a.key == (1, 3, 1) and type(a.key) is tuple
    assert (a.family, a.i, a.j) == ("alpha", 3, 1)
    assert (tau(2).family, tau(2).i, tau(2).j) == ("tau", 2, 0)
    assert repr(a) == "Atom(family='alpha', i=3, j=1)"
    assert str(a) == "alpha(3,1)" and str(tau(2)) == "tau(2)" and str(band(4, 2)) == "a(4,2)"
    assert Atom(family="sigma", i=2) == sigma(2)
    atoms = [sigma(2), band(3, 1), beta(2, 1), alpha(4, 2), tau(3), alpha(4, 1), tau(1)]
    assert sorted(atoms) == sorted(atoms, key=lambda x: x.key)
    # words order by length, then atom by atom in key order
    words = [(tau(2),), (alpha(2, 1), tau(1)), (tau(1), beta(2, 1)), (tau(1), alpha(2, 1))]
    expected = sorted(words, key=lambda w: (len(w), [x.key for x in w]))
    assert sorted(words, key=word_key) == expected
    assert Relation((alpha(2, 1), tau(1)), (tau(2), alpha(2, 1))).lhs == (tau(2), alpha(2, 1))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(a, protocol))
        assert copy == a and type(copy) is Atom and repr(copy) == repr(a)
    with pytest.raises(AttributeError):
        a.i = 2
    with pytest.raises(AttributeError):
        a.label = "x"
    for args, message in [
        (("gamma", 2, 1), "unknown atom family 'gamma'"),
        (("tau", 2, 1), "tau atoms take a single index"),
        (("alpha", 1, 2), r"alpha atoms need indices i > j >= 1"),
        (("beta", 2, 0), r"beta atoms need indices i > j >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            Atom(*args)


def test_atom_parse_rejects_garbage():
    for bad in ["alpha(1,2)", "gamma(2,1)", "tau()", "sigma", "a(2,2)"]:
        with pytest.raises(ValueError):
            parse_atom(bad)


def test_dual_atom_counts_match_reflections():
    # one atom per reflection in every explicit series
    for name in ["A2", "A4", "B2", "B4", "D3", "D5", "I2(5)", "I2(8)"]:
        ct = parse_type(name)
        assert len(dual_atoms(ct)) == ct.num_reflections


def test_dual_relation_counts_small():
    # a cyclic family of p two-letter products is stored as p-1 equalities
    assert len(dual_presentation(parse_type("A2")).relations) == 2
    assert len(dual_presentation(parse_type("B2")).relations) == 3
    for m in range(3, 10):
        assert len(dual_presentation(parse_type(f"I2({m})")).relations) == m - 1


def test_relations_are_homogeneous():
    for name in ["A4", "B4", "D4", "I2(9)"]:
        pres = dual_presentation(parse_type(name))
        assert all(rel.homogeneous for rel in pres.relations)
        assert all(len(rel.lhs) == 2 for rel in pres.relations)


def test_garside_word_projects_to_coxeter_element():
    for name in ["A3", "A4", "B2", "B3", "B4", "D3", "D4", "I2(5)", "I2(8)"]:
        ct = parse_type(name)
        pres = dual_presentation(ct)
        group = coxeter_group(ct)
        assert pres.garside_word is not None
        assert len(pres.garside_word) == ct.rank
        assert word_image(group, pres.garside_word) == group.coxeter_element


def test_classical_presentation_shape():
    ct = parse_type("B3")
    pres = classical_presentation(ct)
    assert len(pres.atoms) == 3
    # one braid relation per unordered pair of standard generators
    assert len(pres.relations) == 3
    # the classical kind leaves the Garside element to the weak-order
    # engine, whose poset top is the longest element
    assert pres.garside_word is None
    lengths = sorted(len(r.lhs) for r in pres.relations)
    assert lengths == [2, 3, 4]


def test_completion_counts_and_duplicates():
    b3 = completed_dual_presentation(parse_type("B3"))
    assert len(b3.added_relations) == 5
    assert b3.duplicate_count == 1
    assert b3.rejected_relations == ()

    b4 = completed_dual_presentation(parse_type("B4"))
    assert len(b4.added_relations) == 26
    assert b4.duplicate_count == 4
    assert b4.rejected_relations == ()

    d4 = completed_dual_presentation(parse_type("D4"))
    assert d4.rejected_relations == ()


@pytest.mark.parametrize(
    "name,added,rejected,duplicates",
    [
        ("B5", 80, 0, 10),
        ("B6", 190, 0, 20),
        ("B7", 385, 0, 35),
        ("D5", 47, 1, 0),
        ("D6", 125, 5, 0),
        ("D7", 270, 15, 0),
    ],
)
def test_completion_bookkeeping_at_ranks_5_to_7(name, added, rejected, duplicates):
    ct = parse_type(name)
    pres = completed_dual_presentation(ct)
    assert len(pres.added_relations) == added
    assert len(pres.rejected_relations) == rejected
    assert pres.duplicate_count == duplicates
    assert pres.relations == dual_presentation(ct).relations + pres.added_relations


def test_completion_rejects_unsound_candidates_at_d5():
    # one instantiated candidate holds in W but not in the braid group;
    # it must be excluded and reported, never silently added
    d5 = completed_dual_presentation(parse_type("D5"))
    assert len(d5.rejected_relations) == 1
    rejected = d5.rejected_relations[0]
    assert rejected not in d5.relations
    assert rejected not in d5.added_relations


def test_rejected_completion_candidates_hold_in_w_only():
    # each candidate holds in the Coxeter group W, but the two sides are
    # distinct in the braid group: their dual normal forms differ, and so
    # do their congruence classes over the base presentation
    for name, expected in [("D5", 1), ("D6", 5)]:
        ct = parse_type(name)
        rejected = completed_dual_presentation(ct).rejected_relations
        assert len(rejected) == expected
        group = coxeter_group(ct)
        data = dual_garside_data(ct)
        base = ClassStore(dual_presentation(ct))
        for rel in rejected:
            assert word_image(group, rel.lhs) == word_image(group, rel.rhs), rel
            assert normal_form(rel.lhs, data) != normal_form(rel.rhs, data), rel
            assert base.class_id(rel.lhs) != base.class_id(rel.rhs), rel


def test_presentation_for_dispatch():
    assert presentation_for(parse_type("B2"), "dual").kind == "dual"
    assert presentation_for(parse_type("B2"), "completed").kind == "completed"
    assert presentation_for(parse_type("B2"), "classical").kind == "classical"
    with pytest.raises(ValueError):
        presentation_for(parse_type("B2"), "mystery")
    with pytest.raises(ValueError):
        dual_presentation(parse_type("H3"))


def test_as_dict_reports_completion_bookkeeping():
    data = completed_dual_presentation(parse_type("B3")).as_dict()
    assert data["kind"] == "completed"
    assert data["num_added"] == 5
    assert data["duplicates_skipped"] == 1
    assert data["rejected"] == []
    assert data["num_atoms"] == 9


def test_encode_refuses_a_plain_tuple_equal_to_an_atom():
    # an atom is the tuple of its key, so the code table alone would take
    # the plain tuple for the atom
    pres = dual_presentation(parse_type("B2"))
    t1 = tau(1)
    assert t1 == (0, 1, 0) and pres.encode((t1,)) == (0,)
    message = r"\(0, 1, 0\) is not an atom of the dual presentation of B2"
    for word in (((0, 1, 0),), (t1, (0, 1, 0)), ((0, 1, 0), t1)):
        with pytest.raises(ValueError, match=message):
            pres.encode(word)
    with pytest.raises(ValueError, match=r"tau\(5\) is not an atom of the dual"):
        pres.encode((t1, tau(5)))
