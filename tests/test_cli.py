import json
from pathlib import Path

import pytest

from dualbraid import congruence, interval
from dualbraid.cli import TABLE_TYPES, main


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_present_dual_json(capsys):
    code, data = run_json(capsys, "present", "B", "2")
    assert code == 0
    assert data["type"] == "B2"
    assert data["kind"] == "dual"
    assert data["num_atoms"] == 4
    assert data["garside_word"] == "alpha(2,1)*tau(1)"


def test_present_completed_reports_bookkeeping(capsys):
    code, data = run_json(capsys, "present", "B3", "--flavor", "completed")
    assert code == 0
    assert data["num_added"] == 5
    assert data["duplicates_skipped"] == 1
    assert data["rejected"] == []


def test_simples_count_engines_agree(capsys):
    code, data = run_json(capsys, "simples", "count", "B", "3")
    assert code == 0
    assert data["dual_simples"] == 20
    assert data["engines"]["interval"] == 20
    assert data["engines"]["rewriting"] == 20
    assert data["engines"]["formula"] == 20
    assert data["formula"] == "C(2n, n)"
    assert data["agreement"] is True


def test_simples_count_single_engine(capsys):
    code, data = run_json(capsys, "simples", "count", "H3", "--engine", "interval")
    assert code == 0
    assert data["engines"]["interval"] == 32
    assert data["engines"]["formula"] == 32
    assert "rewriting" not in data["engines"]


def test_verify_cube_dual_a3(capsys):
    code, data = run_json(capsys, "verify", "cube", "A", "3")
    assert code == 0
    assert data["check"] == "cube"
    assert data["ok"] is True
    assert data["failed"] == 0
    assert data["diverged"] == 0
    # table gaps only park triples in the stuck bucket
    assert data["passed"] + data["stuck"] == data["checked"]


def test_verify_garside_element(capsys):
    code, data = run_json(capsys, "verify", "garside-element", "B", "3")
    assert code == 0
    assert data["ok"] is True
    assert data["divisor_sets_agree"] is True
    assert data["projects_to_coxeter_element"] is True
    assert data["word"] == "alpha(3,2)*alpha(2,1)*tau(1)"


def test_verify_lattice(capsys):
    code, data = run_json(capsys, "verify", "lattice", "I2(9)")
    assert code == 0
    assert data["ok"] is True
    assert data["mode"] == "exhaustive"


def test_verify_embedding(capsys):
    code, data = run_json(capsys, "verify", "embedding", "D", "3")
    assert code == 0
    assert data["ok"] is True
    assert data["forward"]["ok"] is True
    assert data["reverse"]["ok"] is True


def test_verify_completion_exit_codes(capsys):
    code, data = run_json(capsys, "verify", "completion", "B", "4")
    assert code == 0
    assert data["ok"] is True
    assert data["rejected"] == []
    # one instantiated candidate fails in the monoid at D5, so the
    # command flags it and exits nonzero
    code, data = run_json(capsys, "verify", "completion", "D", "5")
    assert code == 1
    assert data["ok"] is False
    assert len(data["rejected"]) == 1


def test_verify_halfturn(capsys):
    code, data = run_json(capsys, "verify", "halfturn", "2")
    assert code == 0
    assert data["ok"] is True
    assert data["ambient"] == "A(3)"


def test_nf_output(capsys):
    code, data = run_json(capsys, "nf", "B2", "alpha(2,1)*tau(1)")
    assert code == 0
    assert data["normal_form"]["delta_power"] == 1
    assert data["normal_form"]["factors"] == []
    assert data["rendered"] == "delta^1"
    code, data = run_json(capsys, "nf", "B2", "tau(1)*alpha(2,1)")
    assert code == 0
    assert data["normal_form"]["delta_power"] == 0
    assert len(data["normal_form"]["factors"]) == 2


def test_eq_exit_codes(capsys):
    code, data = run_json(capsys, "eq", "B2", "alpha(2,1)*tau(1)", "tau(2)*alpha(2,1)")
    assert code == 0
    assert data["equal"] is True
    code, data = run_json(capsys, "eq", "B2", "tau(1)*tau(2)", "tau(2)*tau(1)")
    assert code == 1
    assert data["equal"] is False


def test_eq_classical(capsys):
    code, data = run_json(
        capsys, "eq", "B2", "sigma(1)*tau(1)*sigma(1)*tau(1)",
        "tau(1)*sigma(1)*tau(1)*sigma(1)", "--classical",
    )
    assert code == 0
    assert data["equal"] is True


def test_table1_small(capsys):
    code, data = run_json(capsys, "table1", "--max-rank", "3", "--skip", "H3,F4,H4,E6")
    assert code == 0
    assert data["ok"] is True
    rows = {row["type"]: row for row in data["rows"]}
    assert rows["A3"]["dual_computed"] == 14
    assert rows["B3"]["classical_computed"] == 48
    assert rows["I2:7"]["dual_computed"] == 9
    assert all(row["dual_ok"] and row["classical_ok"] for row in data["rows"])
    assert "E7" not in rows and "E8" not in rows


def test_usage_errors(capsys):
    assert main(["simples", "count", "Q9"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["present", "H3"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["simples", "count", "H3", "--engine", "rewriting"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "explicit presentation" in err
    with pytest.raises(SystemExit):
        main(["frobnicate", "B2"])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,size",
    [
        (["verify", "cube", "B3", "--sample", "0"], "0"),
        (["verify", "cube", "B3", "--sample", "-3"], "-3"),
        # A6 has 429 simples, so its lattice check samples pairs
        (["verify", "lattice", "A6", "--sample", "0"], "0"),
        (["verify", "lattice", "A6", "--sample", "-5"], "-5"),
    ],
)
def test_sample_below_one_is_a_usage_error(capsys, argv, size):
    # a sweep over nothing must not report ok
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"sample size must be at least 1, got {size}" in captured.err


def test_verify_lattice_sample_default_and_explicit(capsys):
    code, data = run_json(capsys, "verify", "lattice", "A6")
    assert code == 0 and data["mode"] == "sampled" and data["pairs_checked"] == 10_000
    code, data = run_json(capsys, "verify", "lattice", "A6", "--sample", "7")
    assert code == 0 and data["pairs_checked"] == 7


@pytest.mark.parametrize(
    "argv",
    [["table1", "--max-rank", "0"], ["table1", "--skip", ",".join(TABLE_TYPES)]],
    ids=["max-rank-0", "skip-all"],
)
def test_table1_selecting_no_cell_is_a_usage_error(capsys, argv):
    assert main(argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no table cell selected")


def test_table1_skip_of_an_unknown_label_is_a_usage_error(capsys):
    # a mistyped label would otherwise run the cell it was meant to skip
    assert main(["table1", "--max-rank", "2", "--skip", "A9,B2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --skip names no table cell: A9\n"


def test_simples_usage_error_comes_before_the_interval(capsys, monkeypatch):
    # E8 has 25,080 simples, and the rewriting engine refuses E8 anyway
    def refuse(ctype):
        raise AssertionError(f"enumerated the interval of {ctype}")

    monkeypatch.setattr(interval, "enumerate_interval", refuse)
    assert main(["simples", "count", "E8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "explicit presentation" in err


def test_internal_failure_exits_1(capsys, monkeypatch):
    # a class over its size cap is not a usage error: exit 1 with a message
    monkeypatch.setattr(congruence, "CLASS_CAP", 3)
    assert main(["simples", "count", "B3", "--engine", "rewriting"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds cap 3" in err


def test_nf_rejects_wrong_alphabet(capsys):
    assert main(["nf", "B2", "sigma(1)"]) == 2
    capsys.readouterr()


def test_nf_classical_exceptional_is_a_usage_error(capsys):
    # the weak order of H3 builds; its atoms have no names to parse
    assert main(["nf", "H3", "--classical", "s1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


GOLDEN = Path(__file__).with_name("golden_nf_eq.json")


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text()), ids=lambda case: " ".join(case["argv"])
)
def test_nf_eq_golden(capsys, case):
    # the weak order numbers its elements by (depth, element), which
    # depends on the element encoding; so the classical B and D cases pin
    # the words their factors stand for, not the factor indices
    code, data = run_json(capsys, *case["argv"])
    assert code == case["exit"]
    if case["argv"][0] == "nf":
        data = {**data, **data.pop("normal_form")}
    assert {key: data[key] for key in case["expected"]} == case["expected"]
