import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualbraid
from dualbraid import (
    completed_dual_presentation,
    congruence,
    coxeter_group,
    halfturn,
    interval,
    parse_atom,
    parse_type,
    presentation,
)
from dualbraid.cli import GROUP_ORDER_LIMIT, TABLE_TYPES, main


def run_json(capsys, *argv):
    code = main(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_python_dash_m_runs_the_cli():
    src = str(Path(dualbraid.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dualbraid", "table1", "--max-rank", "2"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all cells pass: True" in proc.stdout


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
    assert data["first_failure"] is None
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


def test_verify_embedding_completes_the_presentation_once(capsys, monkeypatch):
    builds = []
    original = dualbraid.presentation.completed_dual_presentation

    def counted(ctype):
        builds.append(ctype)
        return original(ctype)

    monkeypatch.setattr(dualbraid.presentation, "completed_dual_presentation", counted)
    monkeypatch.setattr(dualbraid.embedding, "completed_dual_presentation", counted)
    code, data = run_json(capsys, "verify", "embedding", "B3")
    assert code == 0 and data["ok"] is True
    assert len(builds) == 1


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


def test_table1_checks_every_default_group_order(capsys):
    # every cell below E7 enumerates its group, --full or not
    code, data = run_json(capsys, "table1")
    assert code == 0
    for row in data["rows"]:
        assert row["classical_computed"] == row["classical_expected"], row["type"]


def test_perfbench_group_order_limit_is_the_cli_constant():
    # the benchmark copies the limit by hand; read it without importing it
    source = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    values = [
        node.value.value
        for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["BFS_ORDER_LIMIT"]
    ]
    assert values == [GROUP_ORDER_LIMIT]


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


def test_verify_embedding_names_the_missing_presentation(capsys):
    # E6 has an order over the weak-order cap, but that is not the reason
    assert main(["verify", "embedding", "E6"]) == 2
    assert "no explicit dual presentation for E6" in capsys.readouterr().err


def test_verify_embedding_refuses_before_building_the_weak_order(capsys, monkeypatch):
    # H4 is refused before its 14,400-element weak order is built
    def no_weak_order(ctype):
        raise AssertionError("weak order built for a type the check refuses")

    monkeypatch.setattr(dualbraid.garside, "weak_order_poset", no_weak_order)
    assert main(["verify", "embedding", "H4"]) == 2
    assert "no explicit dual presentation for H4" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flag", [["--sample", "5"], ["--sample", "0"], ["--seed", "94111"]], ids=" ".join
)
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "embedding", "B3"],
        ["verify", "completion", "B3"],
        ["verify", "garside-element", "B3"],
        ["verify", "halfturn", "2"],
    ],
    ids=lambda argv: argv[1],
)
def test_sample_or_seed_on_a_check_that_draws_none_is_a_usage_error(capsys, argv, flag):
    assert main(argv + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: verify {argv[1]} draws no sample; --sample and --seed are for cube and lattice\n"
    )


@pytest.mark.parametrize("flag", [["--sample", "5"], ["--seed", "3"]], ids=" ".join)
def test_sample_or_seed_on_an_exhaustive_lattice_check_is_a_usage_error(
    capsys, monkeypatch, flag
):
    # B3 has 20 simples, so every pair is checked; the flags are refused
    # before the interval is enumerated
    def refuse(ctype):
        raise AssertionError(f"enumerated the interval of {ctype}")

    monkeypatch.setattr(interval, "enumerate_interval", refuse)
    assert main(["verify", "lattice", "B3"] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verify lattice B3 draws no sample, it checks every pair of its 20 simples; "
        "--sample and --seed are for more than 300 simples\n"
    )


def test_cube_and_lattice_sample_with_seed_94111_by_default(capsys, monkeypatch):
    # the library's cube default seed is 0, so the command passes its own
    seeds = []

    def spy(function):
        def call(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(congruence, "cube_condition", spy(congruence.cube_condition))
    monkeypatch.setattr(interval, "verify_lattice", spy(interval.verify_lattice))
    assert run_json(capsys, "verify", "cube", "A4", "--sample", "50")[0] == 0
    assert run_json(capsys, "verify", "lattice", "A6")[0] == 0
    assert run_json(capsys, "verify", "lattice", "A6", "--seed", "7")[0] == 0
    assert seeds == [94111, 94111, 7]


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


def test_failing_cube_names_its_first_triple(capsys, monkeypatch, swap_entry):
    real = congruence.ComplementTable
    pres = completed_dual_presentation(parse_type("B3"))
    expected = congruence.cube_condition(pres, table=swap_entry(real(pres), seed=1))
    assert expected.failures
    monkeypatch.setattr(congruence, "ComplementTable", lambda p: swap_entry(real(p), seed=1))
    code, data = run_json(capsys, "verify", "cube", "B3")
    assert code == 1
    assert (data["failed"], data["ok"]) == (len(expected.failures), False)
    assert data["first_failure"] == expected.first_failure
    assert main(["verify", "cube", "B3"]) == 1
    line = f"  first failing triple: {expected.first_failure}"
    assert line in capsys.readouterr().out.splitlines()


def test_lattice_failure_exits_1(capsys, monkeypatch):
    # a poset that is not a lattice is an internal failure, not a traceback
    tau1 = coxeter_group(parse_type("B3")).atom_image(parse_atom("tau(1)"))

    def corrupted(ctype):
        poset = interval.enumerate_interval(ctype)
        down = list(poset.down_masks)
        down[poset.index[tau1]] &= ~(1 << poset.bottom)
        poset.__dict__["down_masks"] = tuple(down)
        return poset

    monkeypatch.setattr(dualbraid.garside, "enumerate_interval", corrupted)
    for argv in (["nf", "B3", "tau(1)*tau(1)"], ["eq", "B3", "tau(1)*tau(1)", "tau(2)"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no lower bound for indices"), err


def test_lattice_check_that_disagrees_with_its_masks_exits_1(capsys, monkeypatch):
    # the masks lose a bound that meet_index still finds: a broken
    # invariant, reported as one error line, not a traceback
    tau1 = coxeter_group(parse_type("B3")).atom_image(parse_atom("tau(1)"))
    real = interval.enumerate_interval

    def corrupted(ctype):
        poset = real(ctype)
        down = list(poset.down_masks)
        down[poset.index[tau1]] &= ~(1 << poset.bottom)
        poset.__dict__["down_masks"] = tuple(down)
        return poset

    def meet_index(self, i, j):
        return self.bottom

    monkeypatch.setattr(interval, "enumerate_interval", corrupted)
    monkeypatch.setattr(interval.IntervalPoset, "meet_index", meet_index)
    assert main(["verify", "lattice", "B3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: meet_index(")
    assert lines[0].endswith(") found a bound the masks did not")


def test_nf_rejects_wrong_alphabet(capsys):
    assert main(["nf", "B2", "sigma(1)"]) == 2
    capsys.readouterr()


def test_nf_classical_exceptional_is_a_usage_error(capsys):
    # H3 has no named generators, so the word is refused before any weak order builds
    assert main(["nf", "H3", "--classical", "s1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_nf_classical_names_the_missing_generators(capsys):
    # E6 has an order over the classical guard, but that is not the reason
    assert main(["nf", "E6", "s1", "--classical"]) == 2
    assert "type E6 has no named generators" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["nf", "H4", "s1"], ["eq", "H4", "s1", "s1"]])
def test_nf_eq_classical_refuse_before_building_the_weak_order(capsys, monkeypatch, argv):
    # H4 is refused before its 14,400-element weak order is built
    def no_weak_order(ctype):
        raise AssertionError("weak order built for a type nf and eq refuse")

    monkeypatch.setattr(dualbraid.garside, "weak_order_poset", no_weak_order)
    assert main(argv + ["--classical"]) == 2
    assert "type H4 has no named generators" in capsys.readouterr().err


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


TEXT_GOLDEN = Path(__file__).with_name("golden_cli_text.json")


@pytest.mark.parametrize(
    "case", json.loads(TEXT_GOLDEN.read_text()), ids=lambda case: " ".join(case["argv"])
)
def test_text_output_golden(capsys, case):
    assert main(case["argv"]) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == ""


@pytest.mark.parametrize(
    "partners,fail",
    [
        (True, "shifted relation "),
        (False, "shift map is not an involution at a(2,1)"),
    ],
)
def test_verify_halfturn_fails_on_a_wrong_shift(capsys, monkeypatch, partners, fail):
    # swap the images of a(2,1) and a(3,2); swapping their partners' images
    # too keeps the map an involution, so only the relations can catch it
    real = halfturn.halfturn_map
    a, b = parse_atom("a(2,1)"), parse_atom("a(3,2)")

    def corrupted(n):
        phi = real(n)
        phi[a], phi[b] = phi[b], phi[a]
        if partners:
            phi[phi[a]], phi[phi[b]] = a, b
        return phi

    monkeypatch.setattr(halfturn, "halfturn_map", corrupted)
    assert main(["verify", "halfturn", "3"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  FAIL ")]
    assert any(line[len("  FAIL ") :].startswith(fail) for line in fails), fails


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "I2(5)"])
def test_verify_garside_element_fails_on_a_wrong_first_letter(capsys, monkeypatch, label):
    # the first letter of the Garside word replaced by another atom: the
    # rewriting route alone must refuse it, without the group
    real = presentation.presentation_for

    def corrupted(ctype, kind):
        pres = real(ctype, kind)
        first, *rest = pres.garside_word
        other = next(x for x in pres.atoms if x != first)
        return dataclasses.replace(pres, garside_word=(other, *rest))

    monkeypatch.setattr(presentation, "presentation_for", corrupted)
    code, data = run_json(capsys, "verify", "garside-element", label)
    assert code == 1
    assert (data["divisor_sets_agree"], data["ok"]) == (False, False)
