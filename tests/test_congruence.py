import re
from collections import Counter, deque
from functools import cache
from itertools import permutations
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbraid import (
    ClassStore,
    ComplementTable,
    classical_presentation,
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
from dualbraid.congruence import CubeReport, ReversalResult
from dualbraid.presentation import Presentation, Relation, alpha, render_word, sigma, tau


PRESENTATIONS = {
    "dual": dual_presentation,
    "completed": completed_dual_presentation,
    "classical": classical_presentation,
}


def _store(name, kind="dual"):
    pres = PRESENTATIONS[kind](parse_type(name))
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


@pytest.mark.parametrize("label", ["B7", "D7"])
def test_count_simples_rewriting_past_a_million_words(label):
    # the Garside word's class represents over a million words, but the
    # store holds it as far fewer blocks, which is what the cap counts
    ctype = parse_type(label)
    assert count_simples_rewriting(dual_presentation(ctype)) == ctype.simples_count


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


# a table whose reversal of 0^-1 1 2 never ends: every step leaves a longer
# word with a new x^-1 y at its left end
DIVERGENT_ENTRIES = {
    (0, 0): (), (1, 1): (), (2, 2): (),
    (0, 1): (0, 2), (0, 2): (0, 1), (1, 0): (0, 2),
    (1, 2): (1,), (2, 0): (0, 1), (2, 1): (0, 1),
}


@pytest.mark.parametrize("cap", [0, 1, 2, 1000])
def test_endless_reversal_stops_at_the_cap(cap):
    swaps = congruence._swap_table(DIVERGENT_ENTRIES)
    with mock.patch.object(congruence, "MAX_REVERSE_STEPS", cap):
        expected = _reference_reverse(DIVERGENT_ENTRIES, (0,), (1, 2))
        assert expected == ("diverged", None, None, cap)
        assert congruence._reverse(swaps, (0,), (1, 2)) == expected
        # a shared memo holds no partial division that would change a later call
        memo = {}
        assert congruence._reverse(swaps, (0,), (1, 2), memo) == expected
        assert congruence._reverse(swaps, (0,), (1, 2), memo) == expected


@pytest.mark.parametrize("kind,label", REVERSAL_TABLES)
def test_shared_memo_matches_reference(kind, label):
    # the cube shares one memo between reversals, so a division memoised by
    # one call, step count included, must give the reference result in the next
    table = _table(kind, label)
    entries, swaps = table._entries, table._swaps
    n = len(table.presentation.atoms)
    rng = Random(0)
    for cap in (0, 1, 2, 5, 1000):
        memo = {}
        with mock.patch.object(congruence, "MAX_REVERSE_STEPS", cap):
            for _ in range(400):
                u = tuple(rng.randrange(n) for _ in range(rng.randrange(1, 5)))
                v = tuple(rng.randrange(n) for _ in range(rng.randrange(1, 5)))
                expected = _reference_reverse(entries, u, v)
                assert congruence._reverse(swaps, u, v, memo) == expected


def _reference_rules(pres):
    """Each relation side, both ways round, keyed by its first code."""
    rules = {}
    for rel in pres.relations:
        lhs, rhs = pres.encode(rel.lhs), pres.encode(rel.rhs)
        rules.setdefault(lhs[0], []).append((lhs, rhs))
        rules.setdefault(rhs[0], []).append((rhs, lhs))
    return rules


def _reference_closure(rules, start):
    """Reference closure of a code word: breadth-first, with the rules keyed
    by the first code of a side and every side compared in full."""
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
    return frozenset(seen)


def _reference_class(pres, word):
    closure = _reference_closure(_reference_rules(pres), pres.encode(word))
    return frozenset(pres.decode(w) for w in closure)


# completed B4 has relation sides of 2-4 atoms, completed D5 of 2-5, and
# classical B3 and D4 of 2-4 and 2-3
CLOSURE_CASES = [
    ("completed", "B4"),
    ("completed", "D5"),
    ("dual", "A4"),
    ("classical", "B3"),
    ("classical", "D4"),
]


@cache
def _shared_store(kind, label):
    """A presentation and its store, shared by the examples of the property
    tests below, so that later examples read the memo of earlier ones."""
    return _store(label, kind)


@st.composite
def closure_words(draw):
    kind, label = draw(st.sampled_from(CLOSURE_CASES))
    atoms = _shared_store(kind, label)[0].atoms
    word = tuple(draw(st.lists(st.sampled_from(atoms), max_size=8)))
    return kind, label, word, draw(st.booleans())


def _memoised_class(store, codes):
    """The class that the store has memoised for a code word, as code
    words expanded from its blocks, or None if the word does not walk to
    a closed class."""
    cid = store._walk(codes, close=False)
    return None if cid is None else {store._unpack(w) for w in store._expand((cid,))[cid]}


def _assert_prefixes_memoised(store, pres, words):
    """Every nonempty proper prefix of the code words is memoised with its
    reference class."""
    rules, checked = _reference_rules(pres), set()
    for word in words:
        for k in range(1, len(word)):
            prefix = word[:k]
            if prefix not in checked:
                expected = _reference_closure(rules, prefix)
                assert _memoised_class(store, prefix) == expected
                checked |= expected


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(closure_words())
def test_class_words_match_first_code_closure(case):
    kind, label, word, fresh = case
    pres, store = _store(label, kind) if fresh else _shared_store(kind, label)
    assert store.class_words(word) == _reference_class(pres, word)
    # closing a class closes the classes of its words' prefixes first
    _assert_prefixes_memoised(store, pres, _memoised_class(store, pres.encode(word)))


@pytest.mark.parametrize("kind,label", [("dual", "A4"), ("completed", "B3"), ("completed", "D4")])
def test_divisors_after_failed_searches(kind, label):
    # an unequal answer closes the first word's class block by block, so
    # that class comes with its prefix classes memoised
    pres = PRESENTATIONS[kind](parse_type(label))
    garside = pres.garside_word
    prefix = pres.encode(garside)[:-1]
    rng = Random(3)
    first = tuple(rng.choice(pres.atoms) for _ in garside)
    second = tuple(rng.choice(pres.atoms) for _ in prefix)
    store = ClassStore(pres)
    assert not store.words_equivalent(garside, first)
    assert not store.words_equivalent(pres.decode(prefix), second)
    closed = _memoised_class(store, prefix)
    assert closed is not None
    assert all(_memoised_class(store, w[:-1]) is not None for w in closed)
    assert store.left_divisor_classes(garside) == _reference_divisors(pres, garside, left=True)
    assert store.right_divisor_classes(garside) == _reference_divisors(pres, garside, left=False)
    _assert_prefixes_memoised(store, pres, closed)


def test_long_word_closes_without_deep_recursion():
    # the classes of a word's 1,499 proper prefixes are closed on a stack of
    # their own, not on the interpreter's
    pres, store = _store("B3")
    word = (tau(1),) * 1500
    assert store.class_words(word) == {word}
    # each prefix class is one block over the previous one: the store keeps
    # block ints of a class id and a code, and no packed prefix
    assert store.stats() == {"classes": 1501, "blocks": 1500, "words": 1501}
    assert all(len(blocks) == 1 for blocks in store._blocks[1:])
    assert max(store._step).bit_length() <= 11 + store._bits
    assert store.words_equivalent(word, word)
    assert len(store.left_divisor_classes(word)) == 1501


def _reference_cube(pres, sample=None, seed=0, entries=None):
    """Reference cube: every triple reversed by the reference engine and
    judged by the reference closure, with no memo shared between triples.
    ``entries`` defaults to the presentation's own complement table."""
    if entries is None:
        entries = ComplementTable(pres)._entries
    rules, classes = _reference_rules(pres), {}
    triples = list(permutations(range(len(pres.atoms)), 3))
    if sample is not None and sample < len(triples):
        triples = Random(seed).sample(triples, sample)
    report = CubeReport()
    for x, y, z in triples:
        report.checked += 1
        fxy, fyz = entries.get((x, y)), entries.get((y, z))
        if fxy is None or fyz is None:
            report.stuck += 1
            continue
        first = _reference_reverse(entries, (z,), (x,) + fxy)
        second = _reference_reverse(entries, (x,), (y,) + fyz)
        statuses = (first[0], second[0])
        if "diverged" in statuses:
            report.diverged += 1
        elif "stuck" in statuses:
            report.stuck += 1
        else:
            side = (z,) + first[1]
            if side not in classes:
                closure = _reference_closure(rules, side)
                classes.update(dict.fromkeys(closure, closure))
            if (x,) + second[1] in classes[side]:
                report.passed += 1
            else:
                report.failures.append(pres.decode((x, y, z)))
    return report


@pytest.mark.parametrize("kind,label", REVERSAL_TABLES)
def test_cube_matches_reference_cube(kind, label):
    pres = _table(kind, label).presentation
    report = cube_condition(pres)
    assert report == _reference_cube(pres)
    assert report.checked == len(pres.atoms) * (len(pres.atoms) - 1) * (len(pres.atoms) - 2)
    if kind == "dual":
        # the uncompleted table leaves triples stuck, so that path is compared too
        assert report.stuck > 0
    for seed in (0, 7):
        assert cube_condition(pres, sample=100, seed=seed) == _reference_cube(pres, 100, seed)


@pytest.mark.parametrize("label", ["B3", "B4", "D4"])
def test_cube_with_a_swapped_entry_matches_reference_cube(label, swap_entry):
    # a wrong entry makes triples fail, so the failures and their order are compared
    pres = _shared_store("completed", label)[0]
    table = swap_entry(ComplementTable(pres), seed=1)
    reports = [(cube_condition(pres, table=table), _reference_cube(pres, entries=table._entries))]
    for seed in (0, 7):
        reports.append(
            (
                cube_condition(pres, table=table, sample=100, seed=seed),
                _reference_cube(pres, 100, seed, table._entries),
            )
        )
    for report, expected in reports:
        assert report == expected
        assert report.failures
        assert not report.ok
        first = "(" + ", ".join(map(str, report.failures[0])) + ")"
        assert report.as_dict()["first_failure"] == first


def _cube_reversals(entries, sides):
    """The ``_reverse`` calls the cube makes to fill ``sides``, a set of
    (a, b, c) for S(a,b;c): f(a,c)^-1 f(a,b) once for the first side of
    each pair {S(a,b;c), S(a,c;b)} in sorted order that f(a,c) allows, and
    c^-1 a f(a,b) for each side that that reversal cannot serve."""
    shared, alone = Counter(), Counter()
    for a, b, c in sorted(sides):
        if (a, c) in entries and not (c < b and (a, c, b) in sides):
            shared[entries[a, c], entries[a, b]] += 1
        if (a, c) in entries and (c, a) in entries:
            status, *_, steps = _reference_reverse(entries, entries[a, c], entries[a, b])
            if status == "reversed" and steps + 1 <= congruence.MAX_REVERSE_STEPS:
                continue
        alone[(c,), (a,) + entries[a, b]] += 1
    return shared + alone


def test_cube_reverses_each_pair_of_complements_once():
    # for each atom a and pair {b, c} with both entries, f(a,c)^-1 f(a,b) is
    # reversed once; a side is reversed on its own, as c^-1 a f(a,b), only
    # when f(a,c) or f(c,a) is missing or that reversal did not end within
    # the cap less the c-step
    pres = _shared_store("completed", "B4")[0]
    table = ComplementTable(pres)
    entries = table._entries
    n = len(pres.atoms)
    every = {(a, b, c) for a, b, c in permutations(range(n), 3) if (a, b) in entries}
    with mock.patch.object(congruence, "_reverse", wraps=congruence._reverse) as rev:
        report = cube_condition(pres, table=table)
    assert Counter(call.args[1:3] for call in rev.call_args_list) == _cube_reversals(entries, every)
    # each of the (n - 2) * covered = 3,248 sides was reversed on its own before
    assert (n - 2) * table.stats()["covered"] == 3248
    assert rev.call_count == 1694
    assert report.as_dict()["first_failure"] is None
    # a sample fills the sides of its triples with both entries the same way
    wanted = set()
    for x, y, z in Random(7).sample(list(permutations(range(n), 3)), 100):
        if (x, y) in entries and (y, z) in entries:
            wanted |= {(x, y, z), (y, z, x)}
    with mock.patch.object(congruence, "_reverse", wraps=congruence._reverse) as rev:
        assert cube_condition(pres, table=table, sample=100, seed=7).checked == 100
    expected = _cube_reversals(entries, wanted)
    assert Counter(call.args[1:3] for call in rev.call_args_list) == expected
    assert 0 < rev.call_count < len(wanted)


@pytest.mark.parametrize(
    "kind,label", [("completed", "B4"), ("completed", "D4"), ("dual", "A4"), ("dual", "B3")]
)
def test_capped_cube_matches_reference_cube(kind, label):
    # a shared reversal counts the c-step against the cap, so at every cap the
    # report is the one of reversing each side on its own
    pres = PRESENTATIONS[kind](parse_type(label))
    for cap in range(9):
        with mock.patch.object(congruence, "MAX_REVERSE_STEPS", cap):
            assert cube_condition(pres) == _reference_cube(pres), cap
            for seed in (0, 7):
                expected = _reference_cube(pres, 100, seed)
                assert cube_condition(pres, sample=100, seed=seed) == expected, (cap, seed)


def test_class_cap_is_the_largest_class_allowed():
    # the cap counts the blocks the store holds, those of the class being
    # closed included, not the words a class represents
    pres = dual_presentation(parse_type("B3"))
    word = pres.garside_word
    store = ClassStore(pres)
    words = store.class_words(word)
    held = store.stats()["blocks"]
    assert held > 1
    with mock.patch.object(congruence, "CLASS_CAP", held):
        assert ClassStore(pres).class_words(word) == words
    text = re.escape(f"congruence class of {render_word(word)} exceeds cap {held - 1}")
    with mock.patch.object(congruence, "CLASS_CAP", held - 1):
        with pytest.raises(RuntimeError, match=text):
            ClassStore(pres).class_words(word)


SEARCH_CASES = [("completed", "B4"), ("completed", "D5"), ("dual", "A4")]


@pytest.mark.parametrize("kind,label", SEARCH_CASES)
def test_words_equivalent_agrees_with_reference_closure(kind, label):
    # every pair is drawn and judged by the first-code closure, which shares
    # no code with the store
    pres = _store(label, kind)[0]
    rules = _reference_rules(pres)
    rng = Random(19)
    atoms = range(len(pres.atoms))

    def class_of(word):
        return sorted(_reference_closure(rules, word))

    met = 0
    for _ in range(60):
        length = rng.randint(2, 5)
        word = tuple(rng.choice(atoms) for _ in range(length))
        words = class_of(word)
        other = word
        while other in words:
            other = tuple(rng.choice(atoms) for _ in range(length))
        equal = (rng.choice(words), rng.choice(words))
        unequal = (rng.choice(words), rng.choice(class_of(other)))
        met += equal[0] != equal[1]
        for (u, v), expected in ((equal, True), (unequal, False)):
            u_word, v_word = pres.decode(u), pres.decode(v)
            assert (v_word in _reference_class(pres, u_word)) == expected
            store = ClassStore(pres)
            assert store.words_equivalent(u_word, v_word) == expected
            if not expected:
                # an unequal answer closes u's class, and the memo holds it
                assert _memoised_class(store, u) == _reference_closure(rules, u)
    assert met > 20


def test_class_cap_counts_blocks_for_equality_too():
    # equality closes the first word's class, so a class over the cap raises
    # however early its words would have met
    pres = dual_presentation(parse_type("B3"))
    rel = pres.relations[0]
    garside = pres.garside_word
    small = parse_word("tau(1)*tau(1)*beta(2,1)")
    store = ClassStore(pres)
    assert len(store.class_words(rel.lhs)) == 4
    assert (len(store.class_words(small)), len(store.class_words(garside))) == (7, 27)
    assert not store.words_equivalent(small, garside)

    def named(word):
        return re.escape(f"congruence class of {render_word(word)} exceeds cap 3")

    with mock.patch.object(congruence, "CLASS_CAP", 3):
        with pytest.raises(RuntimeError, match=named(rel.lhs)):
            ClassStore(pres).derivable(rel)
        for u, v in ((small, garside), (garside, small)):
            with pytest.raises(RuntimeError, match=named(u)):
                ClassStore(pres).words_equivalent(u, v)
        with pytest.raises(RuntimeError, match="exceeds cap 3"):
            ClassStore(pres).class_words(garside)


def _three_letter_presentation(atom_count):
    # relations 0*2*1 = 1*0*2 and 2*2*0 = 0*2*2 over codes: sides that start
    # with the pairs (0, 2), (1, 0) and (2, 2), and end in code 1 or code 0
    atoms = tuple(sigma(i) for i in range(1, atom_count + 1))

    def relation(lhs, rhs):
        return Relation(tuple(atoms[c] for c in lhs), tuple(atoms[c] for c in rhs))

    return Presentation(
        ctype=parse_type("A3"),
        kind="dual",
        atoms=atoms,
        relations=(relation((0, 2, 1), (1, 0, 2)), relation((2, 2, 0), (0, 2, 2))),
    )


@pytest.mark.parametrize("atom_count", [3, 257])
def test_long_sides_fire_only_inside_the_word(atom_count):
    # a side fires only where all its letters lie in the word: a side of
    # three letters whose last pair starts a word finds no letter before it,
    # and one whose first pair ends a word has no last letter to close on
    pres = _three_letter_presentation(atom_count)
    store = ClassStore(pres)
    assert store._bits == (8 if atom_count <= 256 else 16)
    singletons = [(0, 2), (2, 2), (2, 0, 2), (1, 2, 2), (0, 2, 0), (1, 2, 0, 2)]
    for codes in singletons:
        assert store.class_words(pres.decode(codes)) == {pres.decode(codes)}, codes
    larger = [(0, 2, 1), (2, 2, 0), (2, 1, 0, 2), (0, 2, 1, 0, 2), (1, 0, 2, 2, 0, 1)]
    for codes in singletons + larger:
        word = pres.decode(codes)
        assert store.class_words(word) == _reference_class(pres, word), codes
    assert store.words_equivalent(pres.decode((2, 1, 0, 2)), pres.decode((2, 0, 2, 1)))
    assert not store.words_equivalent(pres.decode((0, 2, 1)), pres.decode((0, 2, 0)))


@pytest.mark.parametrize("label", ["B3", "I2(257)"])
def test_length_and_trailing_zero_codes_make_different_words(label):
    # code 0 packs to zero bits, so only the leading 1 tells these apart
    pres, store = _store(label)
    zero, one = pres.atoms[0], pres.atoms[1]
    words = [(), (zero,), (zero, zero), (zero, zero, zero), (one,), (one, zero), (one, zero, zero)]
    ids = [store.class_id(w) for w in words]
    assert len(set(ids)) == len(words)
    for w in words:
        assert w in store.class_words(w)
        assert {len(v) for v in store.class_words(w)} == {len(w)}
    assert not store.words_equivalent((one,), (one, zero))
    assert not store.words_equivalent((zero,), ())


@pytest.mark.parametrize("label", ["B3", "I2(257)"])
def test_class_cap_error_renders_the_start_word(label):
    pres, store = _store(label)
    garside_class = sorted(store.class_words(pres.garside_word), key=pres.encode)
    # a start word that ends in code 0 and holds the largest code in the class
    word = next(w for w in garside_class if pres.encode(w)[-1] == 0)
    assert len(garside_class) > 2
    text = re.escape(f"congruence class of {render_word(word)} exceeds cap 1")
    with mock.patch.object(congruence, "CLASS_CAP", 1):
        with pytest.raises(RuntimeError, match=text):
            ClassStore(pres).class_words(word)
        other = next(w for w in garside_class if w != word)
        with pytest.raises(RuntimeError, match=text):
            ClassStore(pres).words_equivalent(word, other)


@pytest.mark.parametrize("m", [256, 257, 300])
def test_letter_width_boundary(m):
    # dual I2(256) is the last alphabet with one byte per letter
    pres, store = _store(f"I2({m})")
    assert store._bits == (8 if m <= 256 else 16)
    assert count_simples_rewriting(pres) == m + 2
    for rel in (pres.relations[0], pres.relations[-1]):
        assert store.words_equivalent(rel.lhs, rel.rhs)
        assert store.derivable(rel)
        assert not store.words_equivalent(rel.lhs, rel.lhs[::-1])
    assert is_garside_element(pres)
    report = cube_condition(pres, sample=100, seed=7)
    assert report.ok
    assert report.checked == report.passed == 100


def test_triples_are_indexed_like_permutations():
    # a sample of a few triples lists them all first; of many, it indexes them
    for n in (3, 4, 5, 8, 30):
        expected = list(permutations(range(n), 3))
        assert [congruence._triple(i, n) for i in range(len(expected))] == expected
        k = min(20, len(expected))
        for seed in (0, 7):
            drawn = Random(seed).sample(range(len(expected)), k)
            assert [congruence._triple(i, n) for i in drawn] == Random(seed).sample(expected, k)


def _reference_divisors(pres, word, left):
    """Reference divisor representatives: the code-least word of each class
    of a prefix (or suffix) of a word in the word's class, shortest first."""
    rules, classes, found = _reference_rules(pres), {}, set()
    for w in _reference_closure(rules, pres.encode(word)):
        for k in range(len(w) + 1):
            part = w[:k] if left else w[len(w) - k :]
            if part not in classes:
                closure = _reference_closure(rules, part)
                classes.update(dict.fromkeys(closure, closure))
            found.add(classes[part])
    return [pres.decode(w) for w in sorted((min(cls) for cls in found), key=lambda w: (len(w), w))]


DIVISOR_CASES = [("dual", "A4"), ("completed", "B3"), ("completed", "D4")]


@st.composite
def divisor_words(draw):
    kind, label = draw(st.sampled_from(DIVISOR_CASES))
    atoms = _shared_store(kind, label)[0].atoms
    word = tuple(draw(st.lists(st.sampled_from(atoms), max_size=6)))
    return kind, label, word, draw(st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(divisor_words())
def test_divisor_classes_of_random_words_match_reference(case):
    kind, label, word, fresh = case
    pres, store = _store(label, kind) if fresh else _shared_store(kind, label)
    assert store.right_divisor_classes(word) == _reference_divisors(pres, word, left=False)
    assert store.left_divisor_classes(word) == _reference_divisors(pres, word, left=True)


@pytest.mark.parametrize("kind,label", [("dual", "A4"), ("completed", "B3")])
def test_divisor_representatives_are_pinned(kind, label):
    pres, store = _store(label, kind)
    rng = Random(5)
    words = [pres.garside_word] + [
        tuple(rng.choice(pres.atoms) for _ in range(rng.randint(1, 4))) for _ in range(6)
    ]
    for word in words:
        assert store.left_divisor_classes(word) == _reference_divisors(pres, word, left=True)
        assert store.right_divisor_classes(word) == _reference_divisors(pres, word, left=False)
