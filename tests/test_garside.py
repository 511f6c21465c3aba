import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dualbraid
from dualbraid import (
    ClassStore,
    GarsideData,
    LatticeError,
    NormalForm,
    classical_garside_data,
    dual_garside_data,
    dual_presentation,
    enumerate_interval,
    equal_in_group,
    group_normal_form,
    normal_form,
    parse_type,
    parse_word,
    weak_order_poset,
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


def test_garside_data_takes_its_type_and_kind_from_the_poset():
    b2, a2 = parse_type("B2"), parse_type("A2")
    dual, weak = enumerate_interval(b2), weak_order_poset(b2)
    # the wrong kind for either order, a misspelt kind, another type
    for ctype, poset, kind in [
        (b2, weak, "dual"),
        (b2, dual, "classical"),
        (b2, dual, "daul"),
        (a2, dual, "dual"),
    ]:
        with pytest.raises(ValueError):
            GarsideData(ctype, poset, kind)
    # the benchmark builds its data with this call
    data = GarsideData(parse_type("B2"), dual, "dual")
    assert (data.ctype, data.kind, data.poset) == (b2, "dual", dual)
    for data, kind, order in [
        (dual_garside_data(b2), "dual", "absolute"),
        (classical_garside_data(b2), "classical", "weak"),
    ]:
        assert (data.ctype, data.kind, data.poset.order_kind) == (b2, kind, order)


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
    + [("classical", t) for t in ("A3", "B3", "D4", "I2:7", "H3")]
    # I2(257) is the smallest type whose model holds image tuples
    + [("dual", "I2:257"), ("classical", "I2:257")],
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


def test_boolean_letters_and_signs_are_refused():
    # bool is an int subclass: True must not read as simple 1 or sign +1
    data = dual_garside_data(parse_type("B2"))
    t1 = parse_word("tau(1)")[0]
    for letter in (True, False):
        with pytest.raises(TypeError):
            group_normal_form([(letter, 1)], data)
        with pytest.raises(TypeError):
            normal_form([letter], data)
    for sign in (True, 1.0, -1.0, 0, 2):
        with pytest.raises(ValueError, match="sign must be"):
            group_normal_form([(t1, sign)], data)
    assert group_normal_form([(t1, 1), (t1, -1)], data) == group_normal_form([], data)


def test_plain_tuples_are_not_letters():
    # an atom equals the plain tuple of its key, but only the atom is a letter
    data = dual_garside_data(parse_type("B2"))
    t1 = parse_word("tau(1)")[0]
    assert t1 == tuple(t1) and tuple(t1) in data.atom_labels
    for letter in (tuple(t1), t1.key):
        with pytest.raises(TypeError, match="cannot interpret"):
            group_normal_form([(letter, 1)], data)
        with pytest.raises(TypeError, match="cannot interpret"):
            normal_form([letter], data)
    assert normal_form([t1], data) == NormalForm(0, (data.atom_labels[t1],))


def test_word_indices_refuses_a_plain_tuple_equal_to_an_atom():
    data = dual_garside_data(parse_type("B2"))
    t1, t5 = parse_word("tau(1)*tau(5)")
    assert t1 == (0, 1, 0) and data.word_indices([t1]) == [data.atom_labels[t1]]
    message = r"\(0, 1, 0\) is not an atom of this structure"
    for word in (((0, 1, 0),), (t1, (0, 1, 0))):
        with pytest.raises(ValueError, match=message):
            data.word_indices(word)
    with pytest.raises(ValueError, match=r"tau\(5\) is not an atom of this structure"):
        data.word_indices((t1, t5))


@pytest.mark.parametrize(
    "kind,label,foreign",
    [("dual", "B2", "a(2,1)*alpha(3,1)"), ("classical", "A3", "tau(1)*sigma(4)")],
)
def test_letters_missing_from_the_atom_table_meet_the_index_errors(kind, label, foreign):
    # the letter lookup falls back to _index on a miss, which refuses
    # booleans, indices out of range, atoms of another type and non-letters
    build = dual_garside_data if kind == "dual" else classical_garside_data
    data = build(parse_type(label))
    refused = [(True, TypeError), (False, TypeError), (1.0, TypeError), ([0], TypeError)]
    refused += [(len(data), ValueError), (-1, ValueError)]
    refused += [(atom, ValueError) for atom in parse_word(foreign)]
    for letter, error in refused:
        for sign in (1, -1):
            with pytest.raises(error):
                group_normal_form([(letter, sign)], data)
        with pytest.raises(error):
            normal_form([letter], data)
        # a refused letter is reported before a bad sign
        with pytest.raises(error):
            group_normal_form([(letter, 0)], data)
    atom = next(iter(data.atom_labels))
    index = data.atom_labels[atom]
    assert normal_form([index], data) == normal_form([atom], data) == NormalForm(0, (index,))
    with pytest.raises(ValueError, match="sign must be"):
        group_normal_form([(index, True)], data)


@pytest.mark.parametrize(
    "label,kind",
    # I2(300) is above BYTE_POINTS, so its model holds image tuples
    [("A4", bytes), ("B3", bytes), ("I2:300", tuple)],
)
def test_slide_tables_are_the_group_arithmetic(label, kind):
    data = dual_garside_data(parse_type(label))
    group, elements = data.group, data.poset.elements
    right, inverse = data._slide_tables
    assert len(right) == len(inverse) == len(data)
    assert type(right[0]) is type(inverse[0]) is kind
    act, mul, left_div = group.act, group.mul, group.left_div
    for i, u in enumerate(elements):
        for j, v in enumerate(elements):
            assert act(u, right[j]) == mul(u, v)
            assert act(inverse[i], right[j]) == left_div(u, v)


@pytest.mark.parametrize(
    "label,kind",
    # I2(300) is above BYTE_POINTS, so its model holds image tuples
    [("A3", bytes), ("I2:300", tuple)],
)
def test_left_quotient_matches_group_division(label, kind):
    data = dual_garside_data(parse_type(label))
    group, elements = data.group, data.poset.elements
    index, grades = data.poset.index, data.poset.grades
    assert type(elements[0]) is kind
    found = 0
    for i, u in enumerate(elements):
        u_inv = group.inv(u)
        for j, v in enumerate(elements):
            k = index.get(group.mul(u_inv, v))
            if k is None or grades[i] + grades[k] != grades[j]:
                k = None
            assert data.left_quotient(i, j) == k
            found += k is not None
    # every simple divides itself and the top, and is divided by the bottom
    assert found >= 3 * len(data) - 3


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


KERNEL_FAILURES = (
    "no lower bound",
    "no unique lower bound",
    "product outside",
    "product grade",
    "quotient grade",
)


def _corrupted_b3(case):
    """A dual B3 structure with one corrupted array, and letters whose
    normal form reads it; the complement map is checked beforehand."""
    data = dual_garside_data(parse_type("B3"))
    poset, lc, group = data.poset, data.left_complement, data.group
    t1, a32 = (data.atom_labels[a] for a in parse_word("tau(1)*alpha(3,2)"))
    # a simple of grade 2 whose meet with lc[tau(1)] is alpha(3,2)
    y = next(
        j for j in range(len(poset))
        if poset.grades[j] == 2 and poset.meet_index(lc[t1], j) == a32
    )
    down, elements = list(poset.down_masks), list(poset.elements)
    bottom_bit = 1 << poset.bottom
    letters = [t1, a32]
    if case == "no lower bound":
        # lc[tau(1)] and tau(1) now share nothing, not even the bottom
        down[t1] &= ~bottom_bit
        letters = [t1, t1]
    elif case == "no unique lower bound":
        # alpha(3,2) is still the largest common bound of lc[tau(1)] and
        # y, but no longer lies above the bottom
        down[a32] &= ~bottom_bit
        letters = [t1, y]
    elif case == "product outside":
        # c^2 alpha(3,2) is not a simple
        c = poset.elements[data.delta]
        elements[t1] = group.mul(c, c)
    elif case == "product grade":
        # 1 alpha(3,2) is a simple of grade 1, not 2
        elements[t1] = poset.elements[poset.bottom]
    else:
        # alpha(3,2)^-1 alpha(3,2) is the bottom, of grade 0, not 1
        elements[y] = poset.elements[a32]
        letters = [t1, y]
    poset.__dict__["down_masks"] = tuple(down)
    poset.elements = tuple(elements)
    return data, letters


def _kernel_failure(case):
    """The exception that the normal form of a corrupted case raises."""
    data, letters = _corrupted_b3(case)
    try:
        normal_form(letters, data)
    except RuntimeError as exc:  # LatticeError is one
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("case", KERNEL_FAILURES[:2])
def test_renorm_meet_failure_matches_meet_index(case):
    data, letters = _corrupted_b3(case)
    x, y = letters
    with pytest.raises(LatticeError) as want:
        data.poset.meet_index(data.left_complement[x], y)
    assert str(want.value).startswith(case)
    with pytest.raises(LatticeError) as got:
        normal_form(letters, data)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("case", KERNEL_FAILURES[2:])
def test_renorm_factor_that_is_not_a_simple_raises(case):
    data, letters = _corrupted_b3(case)
    with pytest.raises(RuntimeError, match="partial product failed during renormalization"):
        normal_form(letters, data)


def test_renorm_failures_do_not_depend_on_assert():
    # python -O strips assert statements; the same exceptions must come out
    src = str(Path(dualbraid.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    script = (
        "import json, test_garside as t\n"
        "print(json.dumps([t._kernel_failure(c) for c in t.KERNEL_FAILURES]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [list(_kernel_failure(c)) for c in KERNEL_FAILURES]
    assert json.loads(proc.stdout) == expected
    assert [name for name, _ in expected] == ["LatticeError"] * 2 + ["RuntimeError"] * 3
