import itertools
import random

import pytest

from dualbraid import (
    ClassStore,
    classical_garside_data,
    dual_garside_data,
    dual_presentation,
    equal_in_group,
    group_normal_form,
    normal_form,
    parse_type,
    parse_word,
)
from dualbraid.cli import TABLE_TYPES
from dualbraid.coxeter import SignedPermGroup


def _nf_of_word(word, data):
    return normal_form(data.word_indices(word), data)


def test_normal_form_b2_examples():
    data = dual_garside_data(parse_type("B2"))
    nf = _nf_of_word(parse_word("tau(1)*alpha(2,1)"), data)
    assert nf.delta_power == 0
    assert len(nf.factors) == 2
    # the two letters in the other order spell delta itself
    nf = _nf_of_word(parse_word("alpha(2,1)*tau(1)"), data)
    assert nf == normal_form([data.delta], data)
    assert nf.delta_power == 1 and nf.factors == ()
    assert normal_form([], data) == group_normal_form([], data)
    assert normal_form([data.bottom], data).factors == ()


def test_normal_form_is_idempotent_b2():
    data = dual_garside_data(parse_type("B2"))
    atoms = dual_presentation(parse_type("B2")).atoms
    for r in range(4):
        for word in itertools.product(atoms, repeat=r):
            nf = _nf_of_word(word, data)
            expanded = [data.delta] * nf.delta_power + list(nf.factors)
            assert normal_form(expanded, data) == nf


def test_factors_are_left_weighted():
    data = dual_garside_data(parse_type("B3"))
    atoms = dual_presentation(parse_type("B3")).atoms
    meet = data.poset.meet_index
    lc = data.left_complement
    rng = random.Random(5)
    for _ in range(300):
        word = [rng.choice(atoms) for _ in range(rng.randrange(1, 7))]
        nf = _nf_of_word(tuple(word), data)
        for x, y in zip(nf.factors, nf.factors[1:]):
            assert meet(lc[x], y) == data.bottom
        assert all(f != data.delta and f != data.bottom for f in nf.factors)


def test_normal_form_agrees_with_oracle_b3():
    ct = parse_type("B3")
    data = dual_garside_data(ct)
    pres = dual_presentation(ct)
    store = ClassStore(pres)
    atoms = pres.atoms
    rng = random.Random(11)
    for _ in range(200):
        u = tuple(rng.choice(atoms) for _ in range(rng.randrange(0, 5)))
        v = tuple(rng.choice(atoms) for _ in range(rng.randrange(0, 5)))
        oracle = store.words_equivalent(u, v)
        engine = _nf_of_word(u, data) == _nf_of_word(v, data)
        assert oracle == engine


def test_group_normal_form_inverse_and_conjugate():
    data = dual_garside_data(parse_type("B2"))
    a21 = parse_word("alpha(2,1)")[0]
    t1 = parse_word("tau(1)")[0]
    t2 = parse_word("tau(2)")[0]
    # a21 t1 a21^-1 = t2 in the group of fractions
    conj = group_normal_form([(a21, 1), (t1, 1), (a21, -1)], data)
    direct = group_normal_form([(t2, 1)], data)
    assert conj == direct
    # x * x^-1 = 1
    nf = group_normal_form([(a21, 1), (a21, -1)], data)
    assert nf.delta_power == 0 and nf.factors == ()
    inv = group_normal_form([(a21, -1)], data)
    assert inv.delta_power == -1 and len(inv.factors) == 1


def test_equal_in_group():
    data = dual_garside_data(parse_type("B2"))
    u = parse_word("alpha(2,1)*tau(1)")
    v = parse_word("tau(2)*alpha(2,1)")
    w = parse_word("tau(1)*alpha(2,1)")
    assert equal_in_group(u, v, data)
    assert not equal_in_group(u, w, data)
    assert group_normal_form([(u[0], 1), (u[0], -1)], data) == group_normal_form([], data)


def test_concatenation_respects_delta_shift():
    data = dual_garside_data(parse_type("B3"))
    atoms = dual_presentation(parse_type("B3")).atoms
    conj = data.delta_conj
    rng = random.Random(23)
    for _ in range(150):
        u = [rng.choice(atoms) for _ in range(rng.randrange(0, 5))]
        v = [rng.choice(atoms) for _ in range(rng.randrange(0, 5))]
        whole = _nf_of_word(tuple(u + v), data)
        nu, nv = _nf_of_word(tuple(u), data), _nf_of_word(tuple(v), data)
        # push nv's delta power through nu's factors before gluing
        shifted = list(nu.factors)
        for _ in range(nv.delta_power):
            shifted = [conj[f] for f in shifted]
        glued = [data.delta] * (nu.delta_power + nv.delta_power)
        glued += shifted + list(nv.factors)
        assert normal_form(glued, data) == whole


def test_classical_engine_b2():
    data = classical_garside_data(parse_type("B2"))
    s1 = parse_word("sigma(1)")[0]
    t1 = parse_word("tau(1)")[0]
    braid = group_normal_form([(s1, 1), (t1, 1), (s1, 1), (t1, 1)], data)
    assert braid.delta_power == 1 and braid.factors == ()
    assert not equal_in_group((s1, t1), (t1, s1), data)
    assert equal_in_group((s1, t1, s1, t1), (t1, s1, t1, s1), data)


def test_delta_conjugation_tables():
    data = dual_garside_data(parse_type("D3"))
    conj = data.delta_conj
    inv = data.delta_conj_inv
    for i in range(len(data.poset)):
        assert inv[conj[i]] == i
        assert data.poset.grades[conj[i]] == data.poset.grades[i]
    assert conj[data.delta] == data.delta
    assert conj[data.bottom] == data.bottom


def test_simple_word_round_trip():
    data = dual_garside_data(parse_type("B3"))
    for i in range(len(data.poset)):
        word = data.simple_word(i)
        assert len(word) == data.poset.grades[i]
        indices = data.word_indices(word)
        back = normal_form(indices, data)
        if i == data.delta:
            assert back.delta_power == 1 and back.factors == ()
        elif i == data.bottom:
            assert back.delta_power == 0 and back.factors == ()
        else:
            assert back.delta_power == 0 and back.factors == (i,)


def _reference_tables(data):
    """rc, delta^-1 x delta and delta x delta^-1 by group arithmetic."""
    group, elements, index = data.group, data.poset.elements, data.poset.index
    delta = elements[data.delta]
    delta_inv = group.inv(delta)
    rc = tuple(index[group.mul(delta, group.inv(el))] for el in elements)
    conj = tuple(index[group.mul(group.mul(delta_inv, el), delta)] for el in elements)
    conj_inv = tuple(index[group.mul(group.mul(delta, el), delta_inv)] for el in elements)
    return rc, conj, conj_inv


@pytest.mark.parametrize(
    "kind,label",
    [("dual", t) for t in TABLE_TYPES if t not in ("E7", "E8")]
    + [("classical", t) for t in ("A3", "B3", "D4", "I2:7", "H3")],
)
def test_derived_tables_match_group_arithmetic(kind, label):
    build = dual_garside_data if kind == "dual" else classical_garside_data
    data = build(parse_type(label))
    rc, conj, conj_inv = _reference_tables(data)
    assert data.right_complement == rc
    assert data.delta_conj == conj
    assert data.delta_conj_inv == conj_inv
    grades = data.poset.grades
    top = grades[data.delta]
    assert all(grades[rc[i]] + grades[i] == top for i in range(len(data)))


def _reference_simple_word(data, i):
    """Scan every atom for a left quotient at each step."""
    out = []
    while i != data.bottom:
        a, i = next(
            (a, rest)
            for a, ai in data.atom_labels.items()
            if (rest := data.left_quotient(ai, i)) is not None
        )
        out.append(a)
    return tuple(out)


@pytest.mark.parametrize(
    "kind,label",
    [("dual", t) for t in ("A4", "B4", "D4", "I2:7")]
    + [("classical", t) for t in ("A3", "B3", "D4", "I2:7")],
)
def test_simple_word_matches_quotient_scan(kind, label):
    build = dual_garside_data if kind == "dual" else classical_garside_data
    data = build(parse_type(label))
    for i in range(len(data)):
        assert data.simple_word(i) == _reference_simple_word(data, i)


def test_atom_labels_none_only_without_named_generators():
    assert dual_garside_data(parse_type("H3")).atom_labels is None
    assert classical_garside_data(parse_type("H3")).atom_labels is None
    assert len(dual_garside_data(parse_type("B3")).atom_labels) == 9


def test_atom_labels_surface_an_atom_outside_the_poset(monkeypatch):
    # an atom whose reflection is not a simple means a corrupt poset, not
    # a type without named generators
    data = dual_garside_data(parse_type("B3"))
    monkeypatch.setattr(SignedPermGroup, "atom_image", lambda self, atom: (-1,))
    with pytest.raises(KeyError):
        data.atom_labels
