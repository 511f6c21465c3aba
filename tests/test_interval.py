import copy
import itertools

import pytest

from dualbraid import (
    IntervalPoset,
    LatticeError,
    coxeter_group,
    enumerate_interval,
    parse_type,
    parse_word,
    verify_lattice,
    weak_order_poset,
    word_image,
)
from dualbraid import interval
from dualbraid.cli import TABLE_TYPES
from dualbraid.exact import GoldenInt, matrix_rank


def test_counts_match_closed_forms():
    for name in ["A1", "A4", "B2", "B4", "D3", "D4", "I2(3)", "I2(12)", "H3", "F4"]:
        ct = parse_type(name)
        poset = enumerate_interval(ct)
        assert len(poset) == ct.simples_count


def test_poset_shape_invariants():
    for name in ["A3", "B3", "D4", "I2(7)", "H3"]:
        ct = parse_type(name)
        poset = enumerate_interval(ct)
        counts = poset.grade_counts
        assert counts[0] == 1
        assert counts[-1] == 1
        assert counts[1] == ct.num_reflections
        assert len(counts) == ct.rank + 1
        # the complement map reverses grades, so the profile is symmetric
        assert list(counts) == list(reversed(counts))
        assert len(poset.atom_indices) == ct.num_reflections


def test_top_is_coxeter_element():
    ct = parse_type("D4")
    poset = enumerate_interval(ct)
    group = coxeter_group(ct)
    assert poset.elements[poset.top] == group.coxeter_element
    assert poset.elements[poset.bottom] == group.identity


# Cartan data of the test's own reflection matrices, in the convention of
# the root model: s_j(e_i) = e_i - A[i][j] e_j.  H3 has bonds 5 and 3.
_PHI, _ONE, _ZERO = GoldenInt(0, 1), GoldenInt(1, 0), GoldenInt(0, 0)
_DEFINITION_CARTAN = {
    "H3": (
        (
            (_ONE + _ONE, -_PHI, _ZERO),
            (-_PHI, _ONE + _ONE, -_ONE),
            (_ZERO, -_ONE, _ONE + _ONE),
        ),
        _ONE,
    ),
    "F4": (((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)), 1),
}


def _matmul(a, b):
    n = len(a)
    zero = a[0][0] - a[0][0]
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), start=zero) for j in range(n))
        for i in range(n)
    )


def _rank_of_difference(a, b):
    n = len(a)
    return matrix_rank([[a[i][j] - b[i][j] for j in range(n)] for i in range(n)])


def _interval_by_definition(cartan, one):
    """Elements and cover pairs of [1, c], straight from the definition.

    A breadth-first search over reflection matrices reaches the whole
    group; u is kept when l(u) + l(u^-1 c) = n, with l(w) = rank(w - 1)
    and l(u^-1 v) = rank(v - u).
    """
    n = len(cartan)
    zero = one - one
    ident = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    simples = [
        tuple(
            tuple(ident[i][k] - (cartan[k][j] if i == j else zero) for k in range(n))
            for i in range(n)
        )
        for j in range(n)
    ]
    # c = s_1 s_2 ... s_n as a matrix product, so s_n acts first
    c = ident
    for s in simples:
        c = _matmul(c, s)
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for u in frontier:
            for s in simples:
                v = _matmul(s, u)
                if v not in group:
                    group.add(v)
                    nxt.append(v)
        frontier = nxt
    length = {u: _rank_of_difference(u, ident) for u in group}
    kept = {u for u in group if length[u] + _rank_of_difference(c, u) == n}
    covers = {
        (u, v)
        for u in kept
        for v in kept
        if length[v] == length[u] + 1 and _rank_of_difference(v, u) == 1
    }
    return len(group), kept, covers


def test_interval_matches_its_definition():
    # shares no code with the engine: its own matrices and group search,
    # with the root model read only to turn elements into matrices
    for name in ["H3", "F4"]:
        ct = parse_type(name)
        order, kept, covers = _interval_by_definition(*_DEFINITION_CARTAN[name])
        assert order == ct.group_order
        poset = enumerate_interval(ct)
        roots, n = poset.group.roots, ct.rank
        mats = [
            tuple(tuple(roots[el[j]][i] for j in range(n)) for i in range(n))
            for el in poset.elements
        ]
        assert len(set(mats)) == len(mats)
        assert set(mats) == kept
        assert {(mats[a], mats[b]) for a, b in poset.cover_edges} == covers
        assert len(poset.cover_edges) == len(covers)


def _interval_by_full_scan(group):
    """[1, c] grade by grade, testing every reflection on every complement.

    Uses only ``mul`` and ``refl_length``, never the ``shortenings`` hook,
    and inherits no candidates from a parent: u t is kept when t shortens
    the complement x = u^-1 c, that is when l(t x) = l(x) - 1.
    """
    c = group.coxeter_element
    n = group.refl_length(c)
    elements, grades, complements = [group.identity], [0], [c]
    index_by_comp = {c: 0}
    edges = []
    frontier = [0]
    for k in range(n):
        nxt = []
        for ui in frontier:
            for t in group.reflections:
                xv = group.mul(t, complements[ui])
                if group.refl_length(xv) != n - k - 1:
                    continue
                vi = index_by_comp.get(xv)
                if vi is None:
                    vi = index_by_comp[xv] = len(elements)
                    elements.append(group.mul(elements[ui], t))
                    grades.append(k + 1)
                    complements.append(xv)
                    nxt.append(vi)
                edges.append((ui, vi))
        frontier = nxt
    index = {el: i for i, el in enumerate(elements)}
    return tuple(elements), tuple(grades), tuple(edges), tuple(index[x] for x in complements)


def test_inherited_candidates_match_a_full_scan():
    # enumerate_interval tests only the reflections below every parent;
    # the scan tests them all, and both must find the same poset in the
    # same order
    for name in ["A5", "B5", "D5", "I2(7)", "F4", "H4", "E6"]:
        poset = enumerate_interval(parse_type(name))
        elements, grades, edges, komp = _interval_by_full_scan(poset.group)
        assert poset.elements == elements, name
        assert poset.grades == grades, name
        assert poset.cover_edges == edges, name
        assert poset.komp == komp, name


def test_model_tests_only_c_and_its_lower_covers(monkeypatch):
    # any complement below two parents inherits an exact reflection set
    asked = []

    def counting_group(ctype):
        group = coxeter_group(ctype)
        hook = group.shortenings

        def shortenings(x, length, among):
            asked.append(x)
            return hook(x, length, among)

        group.shortenings = shortenings
        return group

    monkeypatch.setattr(interval, "coxeter_group", counting_group)
    for label in TABLE_TYPES:
        ct = parse_type(label)
        asked.clear()
        enumerate_interval(ct)
        expected = 1 if ct.rank == 1 else 1 + ct.num_reflections
        assert len(asked) == expected, label


class _Asked(Exception):
    pass


def _swaps(*pairs):
    el = list(range(5))
    for a, b in pairs:
        el[a], el[b] = b, a
    return tuple(el)


def test_equal_parent_sets_still_go_to_the_model(monkeypatch):
    # Mov is injective on [1, c] in a reflection group, so two parents
    # with equal found sets need a model that is not one: the permutations
    # of five points with the reflections t1 = (3 4), a = (2 3),
    # t2 = (0 1)(3 4), b = (0 1)(2 3) and a table of lengths.  Then
    # x1 = t1 c and x2 = t2 c both shorten by exactly a and b, and
    # a x1 = b x2 is the first complement of grade 2, so the model must be
    # asked about it before any other; the table ends there, so the model
    # raises when asked rather than complete an interval
    t1, a, t2, b = _swaps((3, 4)), _swaps((2, 3)), _swaps((0, 1), (3, 4)), _swaps((0, 1), (2, 3))
    group = coxeter_group(parse_type("A4"))
    mul = group.mul
    c = _swaps((1, 2))
    lengths = {group.identity: 0, c: 3}
    lengths.update((mul(t, c), 2) for t in (t1, a, t2, b))
    lengths.update((mul(s, mul(t, c)), 1) for t in (t1, t2) for s in (a, b))
    group.reflections = (t1, a, t2, b)
    group.coxeter_element = c
    group.refl_length = lambda u: lengths.get(u, 9)
    target = mul(a, mul(t1, c))
    assert target == mul(b, mul(t2, c))
    for x in (mul(t1, c), mul(t2, c)):
        assert [i for i, _ in group.shortenings(x, 2, range(4))] == [1, 3]
    hook = group.shortenings

    def shortenings(x, length, among):
        if x == target:
            raise _Asked
        return hook(x, length, among)

    group.shortenings = shortenings
    monkeypatch.setattr(interval, "coxeter_group", lambda ctype: group)
    with pytest.raises(_Asked):
        enumerate_interval(parse_type("A4"))


def _full_tuple_search(group):
    """Cayley-graph BFS that marks whole elements, using mul and simples only."""
    depth = {group.identity: 0}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for u in frontier:
            for s in group.simples:
                v = group.mul(u, s)
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return depth


def test_first_images_determine_an_element():
    # enumerate_interval keys complements, and enumerate_group elements, by
    # their first max(rank, 2) images; the elements here come from a search
    # that does not
    for label in TABLE_TYPES:
        ct = parse_type(label)
        if ct.group_order > 60_000:
            continue
        width = max(ct.rank, 2)
        elements = _full_tuple_search(coxeter_group(ct))
        assert len(elements) == ct.group_order, label
        assert len({el[:width] for el in elements}) == len(elements), label
    assert enumerate_interval(parse_type("A1")).komp == (1, 0)


def test_enumerate_group_matches_full_tuple_search():
    # same elements, depths and insertion order as the whole-element search
    for label in TABLE_TYPES:
        ct = parse_type(label)
        if ct.group_order > 60_000:
            continue
        group = coxeter_group(ct)
        found = list(group.enumerate_group().items())
        assert found == list(_full_tuple_search(group).items()), label


def test_tuple_codec_beyond_256_points():
    # I2(300) acts on 300 vertices, more than a byte indexes, so both
    # searches multiply image tuples
    ct = parse_type("I2(300)")
    group = coxeter_group(ct)
    assert group.codec[0] is tuple
    found = list(group.enumerate_group().items())
    assert len(found) == 600
    assert found == list(_full_tuple_search(group).items())
    poset = enumerate_interval(ct)
    assert poset.group.codec[0] is tuple
    assert len(poset) == 302
    assert verify_lattice(poset).ok


def test_tuple_codec_matches_byte_codec(monkeypatch):
    # the same searches on a model forced onto image tuples
    for name in ["A4", "B4", "D5", "H3", "F4", "E6"]:
        ct = parse_type(name)
        group = coxeter_group(ct)
        assert group.codec[0] is bytes, name
        forced = coxeter_group(ct)
        forced.codec = (tuple, (), forced.mul)
        found = list(forced.enumerate_group().items())
        assert found == list(group.enumerate_group().items()), name
        by_bytes = enumerate_interval(ct)
        monkeypatch.setattr(interval, "coxeter_group", lambda ctype: forced)
        by_tuples = enumerate_interval(ct)
        monkeypatch.undo()
        assert by_tuples.group is forced and by_bytes.group is not forced
        assert by_tuples.elements == by_bytes.elements, name
        assert by_tuples.cover_edges == by_bytes.cover_edges, name
        assert by_tuples.komp == by_bytes.komp, name


def test_komp_is_grade_reversing_bijection():
    poset = enumerate_interval(parse_type("B3"))
    n = poset.grades[poset.top]
    seen = set()
    for i, k in enumerate(poset.komp):
        assert poset.grades[k] == n - poset.grades[i]
        seen.add(k)
    assert len(seen) == len(poset)


def test_meet_join_b2_examples():
    ct = parse_type("B2")
    poset = enumerate_interval(ct)
    group = poset.group
    a21 = poset.index[word_image(group, parse_word("alpha(2,1)"))]
    t1 = poset.index[word_image(group, parse_word("tau(1)"))]
    t2 = poset.index[word_image(group, parse_word("tau(2)"))]
    assert poset.join_index(a21, t1) == poset.top
    assert poset.meet_index(t1, t2) == poset.bottom
    assert poset.meet_index(a21, a21) == a21
    assert poset.join_index(t2, poset.bottom) == t2


def test_up_masks_count_down_from_the_top():
    for name in ["A4", "B3", "H3"]:
        poset = enumerate_interval(parse_type(name))
        top = poset.top
        for i, mask in enumerate(poset.up_masks):
            assert mask.bit_length() <= top - i + 1, name
            for j in range(len(poset)):
                assert (mask >> (top - j)) & 1 == poset.le(i, j), (name, i, j)


def test_missing_bound_raises_lattice_error():
    # b is maximal but not the top, so b and t have no upper bound; with
    # the edge e < b dropped, b and t have no lower bound either
    poset = IntervalPoset(
        None, None, "eabt", [0, 1, 1, 2], [(0, 1), (0, 2), (1, 3)], [3, 2, 1, 0], "absolute"
    )
    with pytest.raises(LatticeError, match="no upper bound for indices 2, 3"):
        poset.join_index(2, 3)
    assert poset.meet_index(2, 3) == 0
    poset = IntervalPoset(
        None, None, "eabt", [0, 1, 1, 2], [(0, 1), (1, 3)], [3, 2, 1, 0], "absolute"
    )
    with pytest.raises(LatticeError, match="no lower bound for indices 2, 3"):
        poset.meet_index(2, 3)


def test_cover_edges_must_join_adjacent_grades():
    with pytest.raises(ValueError, match=r"cover edge \(0, 3\)"):
        IntervalPoset(
            None, None, "eabt", [0, 1, 1, 2], [(0, 1), (0, 2), (0, 3)], [3, 2, 1, 0], "absolute"
        )


def _reversal_by_le(poset):
    """The complement reversal check written with ``le`` on both maps."""
    for lo, hi in poset.cover_edges:
        if not poset.le(poset.komp[hi], poset.komp[lo]):
            return False, (lo, hi)
        if not poset.le(poset.komp_inv[hi], poset.komp_inv[lo]):
            return False, (lo, hi)
    return True, None


def test_verify_lattice_names_a_cover_the_complement_does_not_reverse():
    # swap the complements of two atoms; a == b leaves the poset as it is
    poset = enumerate_interval(parse_type("A3"))
    atoms = poset.atom_indices
    failed = 0
    for a, b in itertools.combinations_with_replacement(atoms, 2):
        komp = list(poset.komp)
        komp[a], komp[b] = komp[b], komp[a]
        mutant = IntervalPoset(
            poset.ctype, poset.group, poset.elements, poset.grades,
            poset.cover_edges, komp, "absolute",
        )
        report = verify_lattice(mutant)
        ok, edge = _reversal_by_le(mutant)
        assert report.complement_reversal_ok == ok, (a, b)
        assert ok == (a == b), (a, b)
        if not ok:
            failed += 1
            assert not report.ok
            assert report.violations[0] == (*edge, "complement", "cover not reversed")
    assert failed == len(atoms) * (len(atoms) - 1) // 2


def test_meet_join_are_order_theoretic_bounds():
    poset = enumerate_interval(parse_type("A3"))
    size = len(poset)
    for i in range(size):
        for j in range(size):
            m = poset.meet_index(i, j)
            jn = poset.join_index(i, j)
            assert poset.le(m, i) and poset.le(m, j)
            assert poset.le(i, jn) and poset.le(j, jn)
            # nothing strictly between the meet and both arguments
            for k in range(size):
                if poset.le(k, i) and poset.le(k, j):
                    assert poset.le(k, m)
                if poset.le(i, k) and poset.le(j, k):
                    assert poset.le(jn, k)


def test_verify_lattice_small_types():
    for name in ["A2", "A4", "B3", "D3", "I2(6)", "H3", "F4"]:
        report = verify_lattice(enumerate_interval(parse_type(name)))
        assert report.ok, report.as_dict()
        assert report.mode == "exhaustive"
        assert report.violations == []


def test_verify_lattice_catches_any_cleared_mask_bit():
    # the meet and the join each read one kind of mask, and the check pits
    # them against each other, against le and against the complement route;
    # self bits included, 1,386 mutants
    for name in ["A4", "B3", "D4"]:
        base = enumerate_interval(parse_type(name))
        cached = {"down_masks": base.down_masks, "up_masks": base.up_masks}
        for attr, masks in cached.items():
            for j, mask in enumerate(masks):
                for b in interval._bits(mask):
                    mutant = copy.copy(base)
                    setattr(mutant, attr, masks[:j] + (mask & ~(1 << b),) + masks[j + 1:])
                    assert not verify_lattice(mutant).ok, (name, attr, j, b)


def test_verify_lattice_sampling_mode():
    report = verify_lattice(enumerate_interval(parse_type("A6")))
    assert report.ok
    assert report.mode == "sampled"
    assert report.pairs_checked == 10_000


def test_weak_order_poset_h3():
    poset = weak_order_poset(parse_type("H3"))
    assert len(poset) == 120
    report = verify_lattice(poset)
    assert report.ok, report.as_dict()


def test_verify_lattice_counts_the_pairs_it_checked(monkeypatch):
    # a bowtie: two atoms below two coatoms, so neither pair has a bound
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    poset = IntervalPoset(
        parse_type("A3"), None, "eabcdt", [0, 1, 1, 2, 2, 3], edges, [5, 3, 4, 1, 2, 0], "weak"
    )
    monkeypatch.setattr(interval, "EXHAUSTIVE_LIMIT", 0)
    report = verify_lattice(poset, samples=10_000)
    assert report.mode == "sampled"
    assert not report.ok
    assert len(report.violations) == 21
    checked = report.pairs_checked
    assert checked < 10_000
    # the same seed over exactly that many pairs stops on the last one
    again = verify_lattice(poset, samples=checked)
    assert again.pairs_checked == checked and len(again.violations) == 21
    fewer = verify_lattice(poset, samples=checked - 1)
    assert fewer.pairs_checked == checked - 1 and len(fewer.violations) < 21


def test_weak_order_poset():
    ct = parse_type("A3")
    poset = weak_order_poset(ct)
    assert len(poset) == ct.group_order
    assert poset.order_kind == "weak"
    assert len(poset.grade_counts) == ct.num_reflections + 1
    report = verify_lattice(poset)
    assert report.ok
    with pytest.raises(ValueError):
        weak_order_poset(parse_type("E7"))


def test_weak_order_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(interval, "WEAK_ORDER_CAP", 23)
    with pytest.raises(ValueError, match="classical guard 23"):
        weak_order_poset(parse_type("A3"))


def test_lattice_error_for_elements_outside_interval():
    poset = enumerate_interval(parse_type("B2"))
    group = poset.group
    # the longest element lies outside the interval below c
    w0 = None
    for el in group.enumerate_group():
        if el not in set(poset.elements):
            w0 = el
            break
    assert w0 is not None
    # meets and joins take indices, and the longest element has none
    assert w0 not in poset.index


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_lattice_refuses_an_empty_sample(samples):
    # a check over no pairs would report ok having checked nothing
    poset = enumerate_interval(parse_type("A6"))
    with pytest.raises(ValueError, match=f"sample size must be at least 1, got {samples}"):
        verify_lattice(poset, samples=samples)
