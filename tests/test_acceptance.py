"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints exactly one summary line; run with -v to see the
per-criterion verdicts as test outcomes as well.
"""

import itertools
import time
from functools import lru_cache

from dualbraid import (
    ClassStore,
    ComplementTable,
    completed_dual_presentation,
    count_simples_rewriting,
    coxeter_group,
    cube_condition,
    dual_garside_data,
    dual_presentation,
    enumerate_interval,
    halfturn_fixed_check,
    is_garside_element,
    normal_form,
    parse_type,
    verify_classical_from_dual,
    verify_dual_relations_in_group,
    verify_lattice,
    word_image,
)
from dualbraid.cli import main


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@lru_cache(maxsize=None)
def _interval(name: str):
    return enumerate_interval(parse_type(name))


@lru_cache(maxsize=None)
def _completed(name: str):
    return completed_dual_presentation(parse_type(name))


def test_criterion_01_dual_counts_classical_series():
    expected = {}
    for n, val in zip(range(1, 8), [2, 5, 14, 42, 132, 429, 1430]):
        expected[f"A{n}"] = val
    for n, val in zip(range(2, 7), [6, 20, 70, 252, 924]):
        expected[f"B{n}"] = val
    for n, val in zip(range(3, 7), [14, 50, 182, 672]):
        expected[f"D{n}"] = val
    for m in range(3, 13):
        expected[f"I2({m})"] = m + 2
    slowest = 0.0
    for name, val in expected.items():
        t0 = time.monotonic()
        poset = _interval(name)
        dt = time.monotonic() - t0
        slowest = max(slowest, dt)
        assert len(poset) == val, f"{name}: {len(poset)} != {val}"
        assert len(poset) == parse_type(name).simples_count
        assert dt < 5.0, f"{name} took {dt:.1f}s"
    _report(1, True, f"{len(expected)} classical-series counts exact, slowest cell {slowest:.2f}s")


def test_criterion_02_dual_counts_exceptional_types():
    budgets = {"H3": 32, "F4": 105, "H4": 280, "E6": 833}
    slow_budgets = {"E7": 4160, "E8": 25080}
    details = []
    for name, val in budgets.items():
        t0 = time.monotonic()
        assert len(_interval(name)) == val
        dt = time.monotonic() - t0
        assert dt < 60.0, f"{name} took {dt:.1f}s"
        details.append(f"{name}={val}")
    for name, val in slow_budgets.items():
        t0 = time.monotonic()
        assert len(_interval(name)) == val
        dt = time.monotonic() - t0
        assert dt < 900.0, f"{name} took {dt:.1f}s"
        details.append(f"{name}={val}")
    # the two largest types stay behind --full on the command line
    import json
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["table1", "--json"]) == 0
    types_default = {row["type"] for row in json.loads(buf.getvalue())["rows"]}
    assert "E7" not in types_default and "E8" not in types_default
    _report(2, True, ", ".join(details) + "; E7/E8 gated behind --full")


def test_criterion_03_classical_orders():
    enumerable = [
        "A1", "A2", "A3", "A4", "A5", "A6", "A7",
        "B2", "B3", "B4", "B5", "B6",
        "D3", "D4", "D5", "D6",
        "I2(3)", "I2(7)", "I2(12)",
        "H3", "F4", "H4", "E6",
    ]
    for name in enumerable:
        ct = parse_type(name)
        group = coxeter_group(ct)
        assert len(group.enumerate_group()) == ct.group_order, name
    # product-of-degrees formula only for the two giants
    assert parse_type("E7").group_order == 2903040
    assert parse_type("E8").group_order == 696729600
    _report(3, True, f"{len(enumerable)} orders by enumeration, E7/E8 by formula")


def test_criterion_04_cross_engine_simple_counts():
    names = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D3", "D4"]
    names += [f"I2({m})" for m in range(3, 9)]
    t0 = time.monotonic()
    for name in names:
        ct = parse_type(name)
        by_rewriting = count_simples_rewriting(dual_presentation(ct))
        by_interval = len(_interval(name))
        assert by_rewriting == by_interval == ct.simples_count, name
    dt = time.monotonic() - t0
    assert dt < 120.0, f"took {dt:.1f}s"
    _report(4, True, f"rewriting == interval on {len(names)} types in {dt:.1f}s")


def test_criterion_05_garside_element():
    from dualbraid.presentation import alpha, beta, tau

    for series, ranks, tail in [("B", [2, 3, 4], tau(1)), ("D", [3, 4], beta(2, 1))]:
        for n in ranks:
            ct = parse_type(f"{series}{n}")
            pres = _completed(f"{series}{n}")
            chain = tuple(alpha(t, t - 1) for t in range(n, 1, -1)) + (tail,)
            assert pres.garside_word == chain
            assert is_garside_element(pres), str(ct)
            group = coxeter_group(ct)
            assert word_image(group, pres.garside_word) == group.coxeter_element
    _report(5, True, "divisor-set law and Coxeter image hold at B(2..4), D(3..4)")


def test_criterion_06_cube_condition():
    t0 = time.monotonic()
    outcomes = []
    for name in ["B5", "D6"]:
        report = cube_condition(_completed(name))
        assert report.ok, f"{name}: {report.as_dict()}"
        assert report.checked > 0 and report.diverged == 0
        outcomes.append(f"{name} {report.passed}/{report.checked}")
    for name in ["A2", "A3", "A4"] + [f"I2({m})" for m in range(3, 9)]:
        report = cube_condition(dual_presentation(parse_type(name)))
        assert report.ok, f"{name}: {report.as_dict()}"
    missing = ComplementTable(dual_presentation(parse_type("B3"))).missing_pairs()
    assert len(missing) >= 1
    dt = time.monotonic() - t0
    assert dt < 600.0, f"took {dt:.1f}s"
    _report(6, True, "; ".join(outcomes) + f"; uncompleted B3 missing {len(missing)} pairs; {dt:.0f}s")


def test_criterion_07_completion_soundness():
    tallies = []
    for name in ["B3", "B4", "D3", "D4"]:
        comp = _completed(name)
        base = ClassStore(dual_presentation(parse_type(name)))
        assert comp.rejected_relations == (), name
        for rel in comp.added_relations:
            assert base.derivable(rel), f"{name}: {rel}"
        tallies.append(f"{name} +{len(comp.added_relations)}")
    # the B chains revisit one product per chain; those must be folded
    # into the earlier equality, not added as new relations
    assert _completed("B3").duplicate_count == 1
    assert _completed("B4").duplicate_count == 4
    _report(7, True, ", ".join(tallies) + "; B3/B4 duplicates detected (1 and 4)")


def test_criterion_08_embedding():
    t0 = time.monotonic()
    for name in ["A2", "A3", "B2", "B3", "D3"]:
        report = verify_dual_relations_in_group(parse_type(name))
        assert report.ok, f"{name}: {report.as_dict()}"
    for name in ["B2", "B3", "D3"]:
        report = verify_classical_from_dual(parse_type(name))
        assert report.ok, f"{name}: {report.as_dict()}"
    dt = time.monotonic() - t0
    assert dt < 300.0, f"took {dt:.1f}s"
    _report(8, True, f"forward A(2..3)/B(2..3)/D(3), reverse B(2..3)/D(3) in {dt:.1f}s")


def test_criterion_09_halfturn():
    for n in [2, 3]:
        report = halfturn_fixed_check(n)
        assert report.ok, report.as_dict()
        assert len(report.atom_images) == n * n
    _report(9, True, "fixed-submonoid picture verified at n = 2, 3")


def test_criterion_10_lattice_property():
    exhaustive = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D3", "D4", "D5"]
    exhaustive += [f"I2({m})" for m in range(3, 13)] + ["H3", "F4", "H4"]
    sampled = ["A6", "A7", "B6", "D6", "E6", "E7", "E8"]
    for name in exhaustive:
        report = verify_lattice(_interval(name))
        assert report.ok and report.mode == "exhaustive", f"{name}: {report.as_dict()}"
        assert report.violations == []
    for name in sampled:
        report = verify_lattice(_interval(name))
        assert report.ok and report.mode == "sampled", f"{name}: {report.as_dict()}"
        assert report.pairs_checked == 10_000
        assert report.violations == []
    _report(
        10,
        True,
        f"{len(exhaustive)} posets exhaustive, {len(sampled)} sampled at 10^4 pairs, zero violations",
    )


def test_criterion_11_normal_form_properties():
    checked = 0
    for name in ["B2", "B3", "D3"]:
        ct = parse_type(name)
        data = dual_garside_data(ct)
        pres = dual_presentation(ct)
        store = ClassStore(pres)
        words = [()]
        for r in range(1, 5):
            words += list(itertools.product(pres.atoms, repeat=r))
        nf_of = {}
        for word in words:
            nf = normal_form(data.word_indices(word), data)
            nf_of[word] = nf
            expanded = [data.delta] * nf.delta_power + list(nf.factors)
            assert normal_form(expanded, data) == nf, f"{name}: {word}"
        # the oracle partition and the normal-form partition coincide
        by_class: dict[int, set] = {}
        by_nf: dict[object, set] = {}
        for word, nf in nf_of.items():
            by_class.setdefault(store.class_id(word), set()).add(nf)
            by_nf.setdefault(nf, set()).add(store.class_id(word))
        assert all(len(s) == 1 for s in by_class.values()), name
        assert all(len(s) == 1 for s in by_nf.values()), name
        # gluing normal forms commutes with the delta shift
        conj = data.delta_conj
        short = [w for w in words if len(w) <= 2]
        for u in short:
            for v in short:
                nu, nv = nf_of[u], nf_of[v]
                shifted = list(nu.factors)
                for _ in range(nv.delta_power):
                    shifted = [conj[f] for f in shifted]
                glued = [data.delta] * (nu.delta_power + nv.delta_power)
                glued += shifted + list(nv.factors)
                assert normal_form(glued, data) == nf_of.get(
                    u + v, normal_form(data.word_indices(u + v), data)
                ), f"{name}: {u} + {v}"
                checked += 1
        checked += len(words)
    _report(11, True, f"idempotence, gluing, oracle agreement on {checked} cases, zero violations")
