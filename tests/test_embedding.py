from dualbraid import (
    classical_garside_data,
    coxeter_group,
    dual_atom_as_classical_word,
    dual_atoms,
    parse_type,
    verify_classical_from_dual,
    verify_dual_relations_in_group,
)
from dualbraid import embedding
from dualbraid.embedding import classical_atom_as_dual_word
from dualbraid.presentation import classical_atoms


def _projection(group, signed_word):
    el = group.identity
    for atom, sign in signed_word:
        img = group.atom_image(atom)
        el = group.mul(el, img if sign == 1 else group.inv(img))
    return el


def test_atom_images_project_to_matching_reflections():
    for name in ["A3", "B3", "D4", "I2(5)", "I2(8)"]:
        ct = parse_type(name)
        group = coxeter_group(ct)
        for atom in dual_atoms(ct):
            signed = dual_atom_as_classical_word(atom, ct)
            assert _projection(group, signed) == group.atom_image(atom)


def test_dual_relations_hold_in_group():
    for name in ["A2", "A3", "B2", "B3", "D3"]:
        report = verify_dual_relations_in_group(parse_type(name))
        assert report.ok, report.as_dict()
        assert report.failures == []
        assert report.projection_ok
        assert report.garside_image_ok
        assert report.relations > 0


def test_report_as_dict_shape():
    data = verify_dual_relations_in_group(parse_type("B2")).as_dict()
    assert data["check"].startswith("embedding")
    assert data["ok"] is True
    assert data["failures"] == []


def test_classical_atoms_expressible_in_dual():
    for name in ["B2", "B3", "D3"]:
        report = verify_classical_from_dual(parse_type(name))
        assert report.ok, report.as_dict()


def test_classical_atom_images_are_atom_words():
    ct = parse_type("B3")
    atom_set = set(dual_atoms(ct))
    for atom in classical_atoms(ct):
        word = classical_atom_as_dual_word(atom, ct)
        assert len(word) >= 1
        assert all(a in atom_set for a in word)


def test_i2_routes_cross_validate(monkeypatch):
    # the oracle route explodes for large dihedral parameters, so the
    # check switches to the normal-form engine above ORACLE_MAX_DIHEDRAL;
    # both routes must agree where both run
    for m in [5, 7, 8]:
        ct = parse_type(f"I2({m})")
        by_oracle = verify_classical_from_dual(ct)
        with monkeypatch.context() as patched:
            patched.setattr(embedding, "ORACLE_MAX_DIHEDRAL", m - 1)
            by_engine = verify_classical_from_dual(ct)
        assert "oracle" in by_oracle.check and "engine" in by_engine.check
        assert by_oracle.ok and by_engine.ok
        assert by_oracle.relations == by_engine.relations
    big = verify_classical_from_dual(parse_type("I2(12)"))
    assert big.ok
    assert "engine" in big.check


def test_classical_engine_matches_group_projection():
    ct = parse_type("D3")
    data = classical_garside_data(ct)
    group = coxeter_group(ct)
    for atom in dual_atoms(ct):
        signed = dual_atom_as_classical_word(atom, ct)
        from dualbraid.garside import group_normal_form

        nf = group_normal_form(signed, data)
        # a dual atom is a reflection, so its classical form is a
        # positive braid lift of an order-two group element
        doubled = list(signed) + list(signed)
        assert _projection(group, doubled) == group.identity
        assert nf == group_normal_form(signed, data)
