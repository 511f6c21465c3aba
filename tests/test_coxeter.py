import random
import re

import pytest

from dualbraid import coxeter_group, parse_atom, parse_type, word_image
from dualbraid.cli import GROUP_ORDER_LIMIT, TABLE_TYPES
from dualbraid.coxeter import (
    DihedralGroup,
    PermGroup,
    RootGroup,
    SignedPermGroup,
    _left_null_basis,
)
from dualbraid.presentation import dual_atoms


def test_enumeration_matches_order():
    for name in ["A3", "B3", "D4", "I2(7)", "H3"]:
        ct = parse_type(name)
        group = coxeter_group(ct)
        depth = group.enumerate_group()
        assert len(depth) == ct.group_order
        assert max(depth.values()) == ct.num_reflections


def _poincare_coefficients(degrees) -> list[int]:
    """Coefficients of the product of 1 + q + ... + q^(d - 1) over the degrees."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for j in range(d):
                out[i + j] += c
        coeffs = out
    return coeffs


@pytest.mark.parametrize(
    "label",
    [label for label in TABLE_TYPES if parse_type(label).group_order <= GROUP_ORDER_LIMIT]
    + ["A8", "D7"],
)
def test_length_counts_match_the_poincare_polynomial(label):
    # the length generating function of W is the product over the
    # invariant degrees; nothing here shares code with either search
    ct = parse_type(label)
    lengths = coxeter_group(ct).enumerate_group().values()
    counts = [0] * (ct.num_reflections + 1)
    for d in lengths:
        counts[d] += 1
    assert counts == _poincare_coefficients(ct.degrees)


def _b3_with_transposition():
    # the first simple becomes the plain transposition of points 0 and 1:
    # the simples generate a group of order 36, not 48
    group = coxeter_group(parse_type("B3"))
    group.simples = (group._swapping(((0, 1),)),) + group.simples[1:]
    return group


def _b3_with_a_repeated_simple():
    # simples 1, 2, 2 generate the dihedral group of order 8
    group = coxeter_group(parse_type("B3"))
    group.simples = group.simples[:2] + group.simples[1:2]
    return group


@pytest.mark.parametrize(
    "model, message",
    [
        (_b3_with_transposition, "no orbit of points that simple 3 moves"),
        (_b3_with_a_repeated_simple, "the simples generate 8 elements, expected 48"),
    ],
    ids=["transposition", "repeated-simple"],
)
def test_enumerate_group_refuses_a_model_of_another_group(model, message):
    with pytest.raises(RuntimeError, match=f"group B3: {message}"):
        model().enumerate_group()


def test_enumerate_group_refuses_colliding_products():
    # a product map that sends the longest element to the identity makes
    # two cosets share an element, and the step says so before the count
    group = coxeter_group(parse_type("B3"))
    act, w0 = group.act, bytes((i + 3) % 6 for i in range(6))

    def colliding(u, table):
        v = act(u, table)
        return group.identity if v == w0 else v

    group.act = colliding
    with pytest.raises(RuntimeError, match="group B3: the cosets .* overlap"):
        group.enumerate_group()


def test_reflection_basics():
    for name in TABLE_TYPES:
        ct = parse_type(name)
        group = coxeter_group(ct)
        # one encoding: the images of the points 0..k-1, with k >= 2
        ident = group.identity
        assert tuple(ident) == tuple(range(len(ident))) and len(ident) >= 2, name
        refs = list(group.reflections)
        assert len(refs) == ct.num_reflections
        assert len(set(refs)) == len(refs)
        for t in list(group.simples) + refs:
            assert sorted(t) == list(ident), name
        for t in refs:
            assert group.mul(t, t) == group.identity
            assert group.refl_length(t) == 1
        assert group.refl_length(group.identity) == 0


def test_coxeter_element_has_full_reflection_length():
    for name in ["A5", "B4", "D5", "I2(10)", "H3", "F4", "E6"]:
        ct = parse_type(name)
        group = coxeter_group(ct)
        assert group.refl_length(group.coxeter_element) == ct.rank


def test_mul_convention_and_inverse():
    group = coxeter_group(parse_type("B3"))
    a, b = group.simples[0], group.simples[1]
    ab = group.mul(a, b)
    assert group.mul(ab, group.inv(ab)) == group.identity
    # mul(u, v) applies u first; folding a word left to right matches
    # multiplying the images in the same order
    word = dual_atoms(parse_type("B3"))[:3]
    img = group.identity
    for atom in word:
        img = group.mul(img, group.atom_image(atom))
    assert word_image(group, word) == img


def test_atom_images_are_distinct_reflections():
    for name in ["A4", "B3", "D4", "I2(8)"]:
        ct = parse_type(name)
        group = coxeter_group(ct)
        images = [group.atom_image(a) for a in dual_atoms(ct)]
        assert len(set(images)) == ct.num_reflections
        assert set(images) == set(group.reflections)


def _perm_matrix(u):
    """Column i has its 1 in row u[i]."""
    return [[int(u[j] == i) for j in range(len(u))] for i in range(len(u))]


def _signed_matrix(u, n):
    """Column i holds the image of +(i + 1), decoded from the 2n points."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        image = u[i]
        if image < n:
            rows[image][i] = 1
        else:
            rows[image - n][i] = -1
    return rows


def test_refl_length_equals_fixed_space_codimension(exact_rank):
    # the cycle-type count and the rank of (matrix - identity) are
    # independent routes to the same statistic
    for name in ["A4", "B3", "D4"]:
        ct = parse_type(name)
        group = coxeter_group(ct)
        for u in group.enumerate_group():
            if ct.series == "A":
                mat = _perm_matrix(u)
            else:
                n = ct.rank
                # the image of -k is the negative of the image of +k
                assert all(u[n + i] == (u[i] + n) % (2 * n) for i in range(n))
                mat = _signed_matrix(u, n)
            diff = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat)]
            assert group.refl_length(u) == exact_rank(diff), (name, u)


def test_root_model_refl_length_is_rank_of_moved_space(exact_rank, golden_roots):
    # the root model reads l_T(w) off a left null basis of w - 1 over Z;
    # check it against the suite's own rank of w - 1, with column j holding
    # the root coordinates of w(alpha_j), in the suite's Z[phi] on H
    rng = random.Random(2001)
    for name in ["H3", "H4", "F4", "E6", "E7", "E8"]:
        group = RootGroup(parse_type(name))
        n, refs, roots = group.n, group.reflections, golden_roots(group)
        sample = [group.identity, group.coxeter_element, *refs]
        for _ in range(100):
            u = group.identity
            for t in rng.choices(refs, k=rng.randint(2, n + 1)):
                u = group.mul(u, t)
            sample.append(u)
        for u in sample:
            cols = [roots[k] for k in u[:n]]
            diff = [[cols[j][i] - (i == j) for j in range(n)] for i in range(n)]
            assert group.refl_length(u) == exact_rank(diff), (name, tuple(u))


@pytest.mark.parametrize("name", ["H3", "H4", "F4", "E6"])
def test_root_model_shortenings_match_their_definition(name, exact_rank, golden_roots):
    # bit i is set exactly when rank(t_i x - 1) = rank(x - 1) - 1, with the
    # ranks taken by the suite's own oracle on matrices of the roots in the
    # simple-root basis, in the suite's Z[phi] on H; x runs over c, its lower
    # covers t c and 50 seeded products of reflections
    group = RootGroup(parse_type(name))
    n, refs, mul, roots = group.n, group.reflections, group.mul, golden_roots(group)

    def rank(u):
        cols = [roots[k] for k in u[:n]]
        return exact_rank([[cols[j][i] - (i == j) for j in range(n)] for i in range(n)])

    c = group.coxeter_element
    covers = [mul(t, c) for t in refs]
    assert all(rank(x) == n - 1 for x in covers)
    sample = [c, *covers]
    rng = random.Random(2001)
    for _ in range(50):
        u = group.identity
        for t in rng.choices(refs, k=rng.randint(1, n + 1)):
            u = mul(u, t)
        sample.append(u)
    evens = sum(1 << i for i in range(0, len(refs), 2))
    for x in sample:
        length = rank(x)
        expected = sum(1 << i for i, t in enumerate(refs) if rank(mul(t, x)) == length - 1)
        assert group.shortenings(x, length, range(len(refs))) == expected, (name, tuple(x))
        assert group.shortenings(x, length, range(0, len(refs), 2)) == expected & evens


def test_codec_products_are_mul():
    # byte strings while every point index fits in a byte, tuples beyond;
    # either way mul composes the images with its left factor first
    for name, kind in [("E8", bytes), ("I2(256)", bytes), ("I2(257)", tuple)]:
        group = coxeter_group(parse_type(name))
        u, v = group.coxeter_element, group.simples[0]
        for el in (group.identity, u, v, group.mul(u, v), group.inv(u)):
            assert type(el) is kind, name
        assert tuple(group.mul(u, v)) == tuple(v[x] for x in u), name
        assert tuple(group.mul(v, u)) == tuple(u[x] for x in v), name
        assert group.mul(u, v) == group.act(u, v + group.pad), name
        assert group.left_div(u, v) == group.mul(group.inv(u), v), name


def test_inv_is_the_inverse_permutation():
    # bytes invert in one bytes.maketrans, tuples in a loop over the points;
    # both send u[i] back to i.  Reflections are involutions, so each is
    # also tried times the Coxeter element
    for name, kind in [("E8", bytes), ("I2(256)", bytes), ("I2(257)", tuple)]:
        group = coxeter_group(parse_type(name))
        c = group.coxeter_element
        for u in [el for t in group.simples + group.reflections for el in (t, group.mul(t, c))]:
            out = [0] * len(u)
            for i, x in enumerate(u):
                out[x] = i
            assert group.inv(u) == kind(out), name


def test_left_div_is_inverse_times():
    # the byte models divide with one bytes.maketrans; check it on every
    # pair of A3 and every pair of E8 reflections
    a3 = coxeter_group(parse_type("A3"))
    elements = list(a3.enumerate_group())
    e8 = coxeter_group(parse_type("E8"))
    for group, among in ((a3, elements), (e8, e8.reflections)):
        for u in among:
            u_inv = group.inv(u)
            for v in among:
                assert group.left_div(u, v) == group.mul(u_inv, v)


def test_dihedral_rotations_and_reflections():
    for m in range(3, 13):
        group = coxeter_group(parse_type(f"I2({m})"))
        rot = [bytes((i + k) % m for i in range(m)) for k in range(m)]
        ref = [bytes((k - i) % m for i in range(m)) for k in range(m)]
        elements = group.enumerate_group()
        assert set(elements) == set(rot) | set(ref)
        assert {u for u in elements if group.refl_length(u) == 1} == set(ref)
        assert set(group.reflections) == set(ref)
        assert group.refl_length(rot[0]) == 0
        assert all(group.refl_length(r) == 2 for r in rot[1:])
        for a in range(m):
            for b in range(m):
                assert group.mul(rot[a], rot[b]) == rot[(a + b) % m]
                assert group.mul(ref[a], ref[b]) == rot[(b - a) % m]


def test_golden_int_arithmetic(golden):
    # the suite's own Z[phi], on which its H3/H4 rank oracles run
    phi = golden(0, 1)
    assert phi * phi == phi + 1
    assert (phi - 1) * phi == golden(1, 0)
    assert 2 * phi - phi == phi


def test_matrix_helpers():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _left_null_basis(ident) == ()
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    (y,) = _left_null_basis(singular)
    assert y == (-2, 1, 0)
    # elimination yields (-4, 2) here, so this row pins the gcd reduction
    assert _left_null_basis([[2, 4], [4, 8]]) == ((-2, 1),)


def test_root_group_h3_reflections():
    ct = parse_type("H3")
    group = RootGroup(ct)
    assert len(group.roots) == 30
    assert len(list(group.reflections)) == 15
    c = group.coxeter_element
    assert group.refl_length(c) == 3
    power = group.identity
    for _ in range(ct.coxeter_number):
        power = group.mul(power, c)
    assert power == group.identity


def test_root_group_roots_and_inverse():
    for name, roots in [("F4", 48), ("H4", 120), ("E6", 72), ("E7", 126), ("E8", 240)]:
        group = RootGroup(parse_type(name))
        assert len(group.roots) == roots
        # one reflection per +- pair of roots
        assert len(set(group.reflections)) == roots // 2
        c = group.coxeter_element
        assert group.mul(c, group.inv(c)) == group.identity
        assert group.mul(group.inv(c), c) == group.identity


@pytest.mark.parametrize(
    "label,atom",
    [
        ("A3", "a(9,1)"),
        ("A3", "a(5,4)"),
        ("B3", "alpha(9,1)"),
        ("B3", "beta(4,1)"),
        ("B3", "tau(7)"),
        ("B3", "tau(0)"),
        ("D4", "tau(2)"),
        ("B3", "sigma(3)"),
    ],
)
def test_atom_image_refuses_an_index_out_of_range(label, atom):
    # the same error as an unknown family, not an IndexError from the points
    group = coxeter_group(parse_type(label))
    with pytest.raises(ValueError, match=rf"{re.escape(atom)} is not a generator of type"):
        group.atom_image(parse_atom(atom))


def test_models_reject_other_types():
    with pytest.raises(ValueError):
        PermGroup(parse_type("B3"))
    with pytest.raises(ValueError):
        SignedPermGroup(parse_type("A3"))
    with pytest.raises(ValueError):
        DihedralGroup(parse_type("H3"))
    with pytest.raises(ValueError):
        RootGroup(parse_type("D4"))
