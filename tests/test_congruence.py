import pytest

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
from dualbraid.presentation import alpha, sigma, tau


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
    from dualbraid.presentation import Presentation, Relation

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
    assert not is_garside_element(pres, word=(tau(1),))
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
    pres, store = _store("A3")
    report = cube_condition(pres, store=store)
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
