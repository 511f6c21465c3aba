"""Property tests: the congruence oracle against dual normal forms.

``ClassStore`` closes words by rewriting over the presentation; normal
forms come from the simple-element poset and share no code with it, so
each referees the other on random positive words.  Signed words check the
group of fractions: w w^-1 has the identity normal form, and the group
normal form agrees with a letter-by-letter run of the sweep-until-stable
loop that Thurston's one-pass algorithm replaced, and is left-weighted.
"""

import random
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbraid import (
    ClassStore,
    NormalForm,
    classical_garside_data,
    dual_garside_data,
    dual_presentation,
    group_normal_form,
    normal_form,
    parse_type,
)
from dualbraid import garside

TYPES = ["A4", "B3", "D4"]


@cache
def _structures(label):
    ct = parse_type(label)
    pres = dual_presentation(ct)
    return pres, ClassStore(pres), dual_garside_data(ct)


@st.composite
def word_pairs(draw):
    label = draw(st.sampled_from(TYPES))
    atoms = _structures(label)[0].atoms
    length = draw(st.integers(0, 8))
    word = st.lists(st.sampled_from(atoms), min_size=length, max_size=length).map(tuple)
    return label, draw(word), draw(word)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(word_pairs())
def test_oracle_and_normal_forms_agree(case):
    label, u, v = case
    _, store, data = _structures(label)
    nf_u = normal_form(u, data)
    equal = store.words_equivalent(u, v)
    assert equal == (nf_u == normal_form(v, data))
    # only the first word's class is closed, so the order must not matter
    assert ClassStore(store.presentation).words_equivalent(v, u) == equal
    for w in store.class_words(u):
        assert normal_form(w, data) == nf_u
    expanded = [data.delta] * nf_u.delta_power + list(nf_u.factors)
    assert normal_form(expanded, data) == nf_u
    # the normal form spelled out in atoms is another word of u's class
    spelled = sum((data.simple_word(i) for i in expanded), ())
    assert store.words_equivalent(u, spelled)


@st.composite
def signed_words(draw):
    label = draw(st.sampled_from(TYPES))
    letter = st.tuples(st.sampled_from(_structures(label)[0].atoms), st.sampled_from((1, -1)))
    return label, tuple(draw(st.lists(letter, max_size=10)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(signed_words())
def test_word_times_inverse_is_identity(case):
    label, word = case
    data = _structures(label)[2]
    inverse = tuple((atom, -sign) for atom, sign in reversed(word))
    assert group_normal_form(word + inverse, data) == NormalForm(0, ())


@st.composite
def simple_pairs(draw):
    label = draw(st.sampled_from(TYPES))
    index = st.integers(0, len(_structures(label)[2]) - 1)
    return label, draw(index), draw(index)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(simple_pairs())
def test_delta_conjugation_is_an_automorphism(case):
    label, i, j = case
    data = _structures(label)[2]
    conj, back, le = data.delta_conj, data.delta_conj_inv, data.poset.le
    assert back[conj[i]] == i and conj[back[i]] == i
    assert le(i, j) == le(conj[i], conj[j])


@cache
def _garside(kind, label):
    build = dual_garside_data if kind == "dual" else classical_garside_data
    data = build(parse_type(label))
    return data, list(data.atom_labels)


def _reference_renorm(data, letters):
    """Slide weight left until a whole sweep changes no pair: the loop that
    ``garside._renorm`` replaced, dividing through the group inverse."""
    group, elements, index, grades = (
        data.group, data.poset.elements, data.poset.index, data.poset.grades
    )

    def simple(el, grade):
        k = index.get(el)
        return k if k is not None and grades[k] == grade else None

    factors = [i for i in letters if i != data.bottom]
    meet, lc, delta = data.poset.meet_index, data.left_complement, data.delta
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 2, -1, -1):
            x, y = factors[i], factors[i + 1]
            if x == delta:
                continue
            if y == delta:
                factors[i], factors[i + 1] = delta, data.delta_conj[x]
                changed = True
                continue
            m = meet(lc[x], y)
            if m == data.bottom:
                continue
            x2 = simple(group.mul(elements[x], elements[m]), grades[x] + grades[m])
            y2 = simple(group.mul(group.inv(elements[m]), elements[y]), grades[y] - grades[m])
            assert x2 is not None and y2 is not None
            factors[i] = x2
            if y2 == data.bottom:
                del factors[i + 1]
            else:
                factors[i + 1] = y2
            changed = True
    k = 0
    while factors and factors[0] == delta:
        k += 1
        factors.pop(0)
    return k, factors


def _letterwise_group_normal_form(signed_word, data):
    """Renormalise after every letter, shifting the factors by delta
    conjugation at each inverse letter."""
    k = 0
    factors = []
    for atom, sign in signed_word:
        idx = data.word_indices((atom,))[0]
        if sign == 1:
            dk, factors = _reference_renorm(data, factors + [idx])
        else:
            shifted = [data.delta_conj_inv[f] for f in factors]
            shifted.append(data.right_complement[idx])
            k -= 1
            dk, factors = _reference_renorm(data, shifted)
        k += dk
    return NormalForm(k, tuple(factors))


CELLS = [("dual", "A4"), ("dual", "B3"), ("dual", "D4"), ("classical", "B3")]


@st.composite
def long_signed_words(draw):
    kind, label = draw(st.sampled_from(CELLS))
    letter = st.tuples(st.sampled_from(_garside(kind, label)[1]), st.sampled_from((1, -1)))
    length = draw(st.integers(0, 40))
    return kind, label, tuple(draw(st.lists(letter, min_size=length, max_size=length)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(long_signed_words())
def test_one_pass_matches_letterwise_normal_form(case):
    kind, label, word = case
    data = _garside(kind, label)[0]
    expected = _letterwise_group_normal_form(word, data)
    with mock.patch.object(garside, "_renorm", wraps=garside._renorm) as renorm:
        nf = group_normal_form(word, data)
    assert renorm.call_count == 1
    assert nf == expected
    # left-weighted: no bottom or delta factor, and no atom of a factor
    # slides into the one before it
    assert all(f not in (data.bottom, data.delta) for f in nf.factors)
    meet, lc = data.poset.meet_index, data.left_complement
    for x, y in zip(nf.factors, nf.factors[1:]):
        assert meet(lc[x], y) == data.bottom


@pytest.mark.parametrize(
    "kind,label",
    # I2(300) is above BYTE_POINTS, so its model holds image tuples; the
    # classical A4 and D4 models hold byte strings
    [("dual", "I2:300"), ("classical", "A4"), ("classical", "D4")],
)
def test_one_pass_matches_letterwise_on_both_encodings(kind, label):
    data, atoms = _garside(kind, label)
    rng = random.Random(f"{kind}:{label}")
    for _ in range(60):
        word = [(rng.choice(atoms), rng.choice((1, -1))) for _ in range(rng.randrange(41))]
        assert group_normal_form(word, data) == _letterwise_group_normal_form(word, data)
