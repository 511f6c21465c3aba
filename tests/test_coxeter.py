import pytest

from dualbraid import coxeter_group, parse_type, word_image
from dualbraid.cli import TABLE_TYPES
from dualbraid.coxeter import (
    DihedralGroup,
    PermGroup,
    RootGroup,
    SignedPermGroup,
)
from dualbraid.exact import GoldenInt, left_null_basis, matrix_rank
from dualbraid.presentation import dual_atoms


def test_enumeration_matches_order():
    for name in ["A3", "B3", "D4", "I2(7)", "H3"]:
        ct = parse_type(name)
        group = coxeter_group(ct)
        depth = group.enumerate_group()
        assert len(depth) == ct.group_order
        assert max(depth.values()) == ct.num_reflections


def test_reflection_basics():
    for name in TABLE_TYPES:
        ct = parse_type(name)
        group = coxeter_group(ct)
        # one encoding: image tuples of the points 0..k-1, with k >= 2 so
        # that the shared itemgetter product always returns a tuple
        ident = group.identity
        assert ident == tuple(range(len(ident))) and len(ident) >= 2, name
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


def test_refl_length_equals_fixed_space_codimension():
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
            assert group.refl_length(u) == matrix_rank(diff), (name, u)


def test_codec_products_are_mul():
    # byte codes while every point index fits in a byte, tuples beyond
    for name, kind in [("E8", bytes), ("I2(256)", bytes), ("I2(257)", tuple)]:
        group = coxeter_group(parse_type(name))
        code, pad, act = group.codec
        assert code is kind, name
        u, v = group.coxeter_element, group.simples[0]
        assert type(act(code(u), code(v) + pad)) is kind
        assert tuple(act(code(u), code(v) + pad)) == group.mul(u, v), name
        assert tuple(act(code(v), code(u) + pad)) == group.mul(v, u), name


def test_dihedral_rotations_and_reflections():
    for m in range(3, 13):
        group = coxeter_group(parse_type(f"I2({m})"))
        rot = [tuple((i + k) % m for i in range(m)) for k in range(m)]
        ref = [tuple((k - i) % m for i in range(m)) for k in range(m)]
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


def test_golden_int_arithmetic():
    phi = GoldenInt(0, 1)
    assert phi * phi == phi + 1
    assert (phi - 1) * phi == GoldenInt(1, 0)
    assert phi.conjugate() == GoldenInt(1, -1)
    assert (phi * phi.conjugate()) == GoldenInt(-1, 0)
    assert phi.norm() == -1
    assert (phi * phi).exact_div(phi) == phi
    with pytest.raises(ArithmeticError):
        GoldenInt(1, 1).exact_div(GoldenInt(2, 0))
    assert GoldenInt(6, 3).exact_div(3) == GoldenInt(2, 1)
    assert GoldenInt.coerce(5) == GoldenInt(5, 0)
    assert 2 * phi - phi == phi


def test_matrix_helpers():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert matrix_rank(ident) == 3
    assert left_null_basis(ident) == ()
    singular = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert matrix_rank(singular) == 2
    (y,) = left_null_basis(singular)
    assert y == (-2, 1, 0)
    assert matrix_rank([[GoldenInt(0, 1), GoldenInt(1, 1)]]) == 1
    # over Z[phi]: the row (phi, -1) kills [[1, phi], [phi, phi + 1]]
    phi, one = GoldenInt(0, 1), GoldenInt(1, 0)
    golden = [[one, phi], [phi, phi + 1]]
    (y,) = left_null_basis(golden)
    for j in range(2):
        assert not (y[0] * golden[0][j] + y[1] * golden[1][j])


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


def test_models_reject_other_types():
    with pytest.raises(ValueError):
        PermGroup(parse_type("B3"))
    with pytest.raises(ValueError):
        SignedPermGroup(parse_type("A3"))
    with pytest.raises(ValueError):
        DihedralGroup(parse_type("H3"))
    with pytest.raises(ValueError):
        RootGroup(parse_type("D4"))
