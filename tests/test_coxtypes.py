import ast
from pathlib import Path

import pytest

import dualbraid
from dualbraid import CoxType, parse_type


def test_parse_variants():
    assert parse_type("B3") == CoxType("B", 3)
    assert parse_type("b 3") == CoxType("B", 3)
    assert parse_type("D(4)") == CoxType("D", 4)
    assert parse_type("I2(7)") == CoxType("I2", 2, 7)
    assert parse_type("i2(12)") == CoxType("I2", 2, 12)
    assert parse_type("E8") == CoxType("E", 8)
    assert parse_type("H3") == CoxType("H", 3)
    assert str(parse_type("I2(5)")) == "I2(5)"
    assert str(parse_type("A4")) == "A4"


def test_parse_rejects_garbage():
    for bad in ["Q3", "A0", "D2", "I2(2)", "E5", "H5", "F3", "", "B"]:
        with pytest.raises(ValueError):
            parse_type(bad)


def test_group_orders():
    assert parse_type("A4").group_order == 120
    assert parse_type("B4").group_order == 384
    assert parse_type("D4").group_order == 192
    assert parse_type("I2(7)").group_order == 14
    assert parse_type("H3").group_order == 120
    assert parse_type("F4").group_order == 1152
    assert parse_type("H4").group_order == 14400
    assert parse_type("E6").group_order == 51840
    # too large to enumerate here; the product-of-degrees formula applies
    assert parse_type("E7").group_order == 2903040
    assert parse_type("E8").group_order == 696729600


def test_degrees_products_and_reflections():
    for name in ["A3", "B4", "D5", "I2(9)", "H3", "F4", "H4", "E6", "E7", "E8"]:
        ct = parse_type(name)
        prod = 1
        for d in ct.degrees:
            prod *= d
        assert prod == ct.group_order
        assert sum(d - 1 for d in ct.degrees) == ct.num_reflections
        assert max(ct.degrees) == ct.coxeter_number


def test_simples_count_closed_forms():
    assert [parse_type(f"A{n}").simples_count for n in range(1, 8)] == [
        2, 5, 14, 42, 132, 429, 1430,
    ]
    assert [parse_type(f"B{n}").simples_count for n in range(2, 7)] == [
        6, 20, 70, 252, 924,
    ]
    assert [parse_type(f"D{n}").simples_count for n in range(3, 7)] == [
        14, 50, 182, 672,
    ]
    assert [parse_type(f"I2({m})").simples_count for m in range(3, 13)] == [
        m + 2 for m in range(3, 13)
    ]
    assert parse_type("H3").simples_count == 32
    assert parse_type("F4").simples_count == 105
    assert parse_type("H4").simples_count == 280
    assert parse_type("E6").simples_count == 833
    assert parse_type("E7").simples_count == 4160
    assert parse_type("E8").simples_count == 25080


def test_explicit_presentation_flags():
    assert parse_type("A5").has_explicit_presentation
    assert parse_type("B2").has_explicit_presentation
    assert parse_type("I2(11)").has_explicit_presentation
    assert not parse_type("H3").has_explicit_presentation
    assert not parse_type("E7").has_explicit_presentation


def test_non_integer_counts_raise(monkeypatch):
    # degrees (2, 4, 5) give prod (d + h)/d = 63/4 simples
    monkeypatch.setattr(CoxType, "degrees", property(lambda self: (2, 4, 5)))
    with pytest.raises(ArithmeticError, match="A3"):
        parse_type("A3").simples_count
    with pytest.raises(ArithmeticError, match="A3"):
        parse_type("A3").coxeter_factorization_count


def test_library_has_no_asserts():
    # checks written as assert vanish under python -O
    for path in sorted(Path(dualbraid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"
