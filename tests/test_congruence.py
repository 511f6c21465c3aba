from collections import deque
from functools import cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbraid import (
    ClassStore,
    ComplementTable,
    completed_dual_presentation,
    count_simples_rewriting,
    cube_condition,
    dual_presentation,
    is_garside_element,
    parse_type,
    parse_word,
    reverse_words,
)
from dualbraid import congruence
from dualbraid.congruence import ReversalResult
from dualbraid.presentation import Presentation, Relation, alpha, sigma, tau


def _store(name, kind="dual"):
    ct = parse_type(name)
    pres = dual_presentation(ct) if kind == "dual" else completed_dual_presentation(ct)
    return pres, ClassStore(pres)


def test_words_equivalent_b2():
    _, store = _store("B2")
    assert store.words_equivalent(
        parse_word("alpha(2,1)*tau(1)"), parse_word("tau(2)*alpha(2,1)")
    )
    assert store.words_equivalent(
        parse_word("tau(2)*alpha(2,1)"), parse_word("alpha(2,1)*tau(1)")
    )
    # the same two letters in the other order name a different element
    assert not store.words_equivalent(
        parse_word("tau(1)*alpha(2,1)"), parse_word("alpha(2,1)*tau(1)")
    )
    assert not store.words_equivalent(parse_word("tau(1)"), parse_word("tau(2)"))
    assert store.words_equivalent((), ())


def test_foreign_atoms_are_rejected():
    _, store = _store("B2")
    with pytest.raises(ValueError, match=r"tau\(5\)"):
        store.words_equivalent((tau(5),), (tau(5),))
    table = ComplementTable(store.presentation)
    with pytest.raises(ValueError, match=r"tau\(5\)"):
        table.entry(tau(5), tau(1))


def test_class_sizes_b2():
    pres, store = _store("B2")
    # the four spellings of delta: the cyclic chain has four products
    assert len(store.class_words(pres.garside_word)) == 4
    assert len(store.class_words(parse_word("tau(1)"))) == 1


def test_store_rejects_inhomogeneous_input():
    ct = parse_type("B2")
    bad = Presentation(
        ctype=ct,
        kind="dual",
        atoms=(tau(1), tau(2)),
        relations=(Relation((tau(1),), (tau(1), tau(2))),),
    )
    with pytest.raises(ValueError):
        ClassStore(bad)


def test_count_simples_rewriting_small():
    for name, expected in [("A2", 5), ("A3", 14), ("B2", 6), ("I2(5)", 7)]:
        pres = dual_presentation(parse_type(name))
        assert count_simples_rewriting(pres) == expected


def test_left_right_divisor_classes():
    pres, store = _store("B2")
    left = store.left_divisor_classes(pres.garside_word)
    right = store.right_divisor_classes(pres.garside_word)
    assert len(left) == 6
    ids_l = {store.class_id(w) for w in left}
    ids_r = {store.class_id(w) for w in right}
    assert ids_l == ids_r


def test_is_garside_element():
    for name in ["B2", "B3"]:
        pres = completed_dual_presentation(parse_type(name))
        assert is_garside_element(pres)
    # a single atom misses the other atoms among its divisors
    pres = completed_dual_presentation(parse_type("B2"))
    assert not ClassStore(pres).is_garside_word((tau(1),))
    from dualbraid.presentation import classical_presentation

    with pytest.raises(ValueError):
        is_garside_element(classical_presentation(parse_type("B2")))


def test_complement_table_b2():
    pres, store = _store("B2")
    table = ComplementTable(pres)
    from dualbraid.presentation import beta

    a21, t1 = alpha(2, 1), tau(1)
    assert table.entry(t1, t1) == ()
    assert table.entry(a21, t1) == (t1,)
    assert table.entry(t1, a21) == (beta(2, 1),)
    assert (a21,) + table.entry(a21, t1) == (a21, t1)
    assert table.stats()["total"]
    assert table.stats()["missing"] == 0
    # every entry closes a common right multiple: x*f(x,y) = y*f(y,x)
    for x in pres.atoms:
        for y in pres.atoms:
            fxy, fyx = table.entry(x, y), table.entry(y, x)
            assert store.words_equivalent((x,) + fxy, (y,) + fyx)


def test_uncompleted_b3_table_has_gaps():
    pres, _ = _store("B3")
    table = ComplementTable(pres)
    missing = table.missing_pairs()
    assert len(missing) >= 1
    stats = table.stats()
    assert stats["missing"] == len(missing)
    assert not stats["total"]
    # completion narrows the gaps sharply; leftover pairs only make the
    # cube checker count those triples as stuck, never as failed
    completed = ComplementTable(completed_dual_presentation(parse_type("B3")))
    assert len(completed.missing_pairs()) < len(missing)


def test_reverse_words_statuses():
    pres, store = _store("B2")
    table = ComplementTable(pres)
    a21, t1 = alpha(2, 1), tau(1)
    res = reverse_words(table, (a21,), (a21,))
    assert res.status == "reversed"
    assert res.comp_uv == () and res.comp_vu == ()
    res = reverse_words(table, (t1,), (a21,))
    assert res.status == "reversed"
    # u * comp_uv and v * comp_vu spell the same element
    assert store.words_equivalent((t1,) + res.comp_uv, (a21,) + res.comp_vu)

    gappy_pres, _ = _store("B3")
    gappy = ComplementTable(gappy_pres)
    x, y = gappy.missing_pairs()[0]
    res = reverse_words(gappy, (x,), (y,))
    assert res.status == "stuck"


def test_cube_condition_dual_a3():
    pres = dual_presentation(parse_type("A3"))
    report = cube_condition(pres)
    assert report.ok
    assert report.failures == []
    assert report.checked == len(pres.atoms) * (len(pres.atoms) - 1) * (len(pres.atoms) - 2)
    assert report.passed + report.stuck + report.diverged == report.checked
    assert report.as_dict()["ok"]


def test_cube_condition_completed_b3():
    pres = completed_dual_presentation(parse_type("B3"))
    report = cube_condition(pres)
    assert report.ok
    assert report.diverged == 0


def test_cube_condition_sampling_is_deterministic():
    pres = completed_dual_presentation(parse_type("B4"))
    r1 = cube_condition(pres, sample=100, seed=7)
    r2 = cube_condition(pres, sample=100, seed=7)
    assert r1.as_dict() == r2.as_dict()
    assert r1.checked == 100


@pytest.mark.parametrize("sample", [0, -3])
def test_cube_condition_refuses_an_empty_sample(sample):
    # a sweep over no triples would report ok having checked nothing
    pres = completed_dual_presentation(parse_type("B3"))
    with pytest.raises(ValueError, match=f"sample size must be at least 1, got {sample}"):
        cube_condition(pres, sample=sample)


def test_store_rejects_one_atom_sides():
    bad = Presentation(
        ctype=parse_type("B2"),
        kind="dual",
        atoms=(tau(1), tau(2)),
        relations=(Relation((tau(1),), (tau(2),)),),
    )
    with pytest.raises(ValueError, match=r"tau\(1\) = tau\(2\)"):
        ClassStore(bad)


def test_capped_reversal_reports_diverged():
    pres, _ = _store("B2")
    table = ComplementTable(pres)
    u, v = (tau(1),), (tau(2), tau(1))
    assert reverse_words(table, u, v).steps == 2
    with mock.patch.object(congruence, "MAX_REVERSE_STEPS", 1):
        assert reverse_words(table, u, v) == ReversalResult("diverged", None, None, 1)


def test_capped_cube_reports_diverged():
    pres = dual_presentation(parse_type("A3"))
    with mock.patch.object(congruence, "MAX_REVERSE_STEPS", 0):
        report = cube_condition(pres)
    assert report.diverged > 0
    assert not report.ok
    assert report.passed + report.stuck + report.diverged == report.checked


def _reference_reverse(entries, u, v):
    """Reference right reversing: rescan from the left after every step
    and look up both complement entries."""
    word = [~a for a in reversed(u)] + list(v)
    steps = 0
    while True:
        spot = None
        for i in range(len(word) - 1):
            if word[i] < 0 <= word[i + 1]:
                spot = i
                break
        if spot is None:
            pos = tuple(a for a in word if a >= 0)
            neg = tuple(~a for a in reversed(word) if a < 0)
            return "reversed", pos, neg, steps
        if steps >= congruence.MAX_REVERSE_STEPS:
            return "diverged", None, None, steps
        steps += 1
        x, y = ~word[spot], word[spot + 1]
        fxy = entries.get((x, y))
        fyx = entries.get((y, x))
        if fxy is None or fyx is None:
            return "stuck", None, None, steps
        word[spot : spot + 2] = list(fxy) + [~a for a in reversed(fyx)]


REVERSAL_TABLES = [("completed", "B4"), ("completed", "D4"), ("dual", "B3")]


@cache
def _table(kind, label):
    return ComplementTable(_store(label, kind)[0])


@st.composite
def reversal_cases(draw):
    kind, label = draw(st.sampled_from(REVERSAL_TABLES))
    atoms = _table(kind, label).presentation.atoms
    word = st.lists(st.sampled_from(atoms), max_size=5).map(tuple)
    return kind, label, draw(word), draw(word)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(reversal_cases())
def test_reversal_matches_reference(case):
    kind, label, u, v = case
    table = _table(kind, label)
    pres = table.presentation
    for cap in (0, 1, 2, 1000):
        with mock.patch.object(congruence, "MAX_REVERSE_STEPS", cap):
            status, comp_uv, comp_vu, steps = _reference_reverse(
                table._entries, pres.encode(u), pres.encode(v)
            )
            if status == "reversed":
                comp_uv, comp_vu = pres.decode(comp_uv), pres.decode(comp_vu)
            expected = ReversalResult(status, comp_uv, comp_vu, steps)
            assert reverse_words(table, u, v) == expected


def test_one_sided_entry_leaves_reversal_stuck():
    table = _table("dual", "B3")
    entries = dict(table._entries)
    x, y = next((x, y) for x, y in entries if x != y)
    del entries[(y, x)]
    swaps = congruence._swap_table(entries)
    assert (x, y) not in swaps and (y, x) not in swaps
    expected = _reference_reverse(entries, (x,), (y,))
    assert expected == ("stuck", None, None, 1)
    assert congruence._reverse(swaps, (x,), (y,)) == expected


def _reference_class(pres, word):
    """Reference closure: breadth-first, with the rules keyed by the first
    code of a side and every side compared in full."""
    rules = {}
    for rel in pres.relations:
        lhs, rhs = pres.encode(rel.lhs), pres.encode(rel.rhs)
        rules.setdefault(lhs[0], []).append((lhs, rhs))
        rules.setdefault(rhs[0], []).append((rhs, lhs))
    start = pres.encode(word)
    seen, queue = {start}, deque([start])
    while queue:
        w = queue.popleft()
        for i, code in enumerate(w):
            for side, repl in rules.get(code, ()):
                if w[i : i + len(side)] == side:
                    nb = w[:i] + repl + w[i + len(side) :]
                    if nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
    return frozenset(pres.decode(w) for w in seen)


# completed B4 has relation sides of 2-4 atoms, completed D5 of 2-5
CLOSURE_TYPES = ["B4", "D5"]


@cache
def _completed_store(label):
    return _store(label, "completed")


@st.composite
def closure_words(draw):
    label = draw(st.sampled_from(CLOSURE_TYPES))
    atoms = _completed_store(label)[0].atoms
    return label, tuple(draw(st.lists(st.sampled_from(atoms), max_size=6)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(closure_words())
def test_class_words_match_first_code_closure(case):
    label, word = case
    pres, store = _completed_store(label)
    assert store.class_words(word) == _reference_class(pres, word)
