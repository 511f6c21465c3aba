"""Command-line interface: presentations, counts, verification, normal forms.

Exit codes: 0 when every requested check passes, 1 on a verification
failure or an internal failure (a class over its size cap, a broken
invariant), 2 on usage errors.  A usage error is a ``ValueError`` (or
``KeyError``) raised anywhere below :func:`main`, which prints it as one
``error:`` line: an unknown type, a word outside the alphabet, a sample
size below one, a ``table1`` run that selects no cell or skips a label
that is not a cell.  Every subcommand takes ``--json`` for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import congruence, embedding, garside, halfturn, interval, presentation
from .coxeter import coxeter_group, word_image
from .coxtypes import CoxType, parse_type

EXPLICIT = ("A", "B", "D", "I2")

TABLE_TYPES = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)]
    + [f"I2:{m}" for m in range(3, 13)]
    + ["H3", "F4", "H4", "E6", "E7", "E8"]
)

FORMULA_TEXT = {
    "A": "C(2n+2, n+1)/(n+2)",
    "B": "C(2n, n)",
    "D": "C(2n, n) - C(2n-2, n-1)",
    "I2": "m + 2",
}

CLASSICAL_FORMULA_TEXT = {
    "A": "(n+1)!",
    "B": "2^n n!",
    "D": "2^(n-1) n!",
    "I2": "2m",
}


def _type_from_tokens(tokens: list[str]) -> CoxType:
    return parse_type("".join(tokens))


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _dual_flavor(ctype: CoxType) -> str:
    """Completion only adds relations for B and D."""
    return "completed" if ctype.series in ("B", "D") else "dual"


def cmd_present(args) -> int:
    ctype = _type_from_tokens(args.type)
    pres = presentation.presentation_for(ctype, args.flavor)
    if args.json:
        print(json.dumps(pres.as_dict(), indent=2, sort_keys=True))
        return 0
    print(f"# {args.flavor} presentation of type {ctype}")
    print(f"atoms ({len(pres.atoms)}): " + " ".join(str(a) for a in pres.atoms))
    for rel in pres.relations:
        print(f"  {presentation.render_word(rel.lhs)} = {presentation.render_word(rel.rhs)}")
    if pres.garside_word is not None:
        print(f"garside word: {presentation.render_word(pres.garside_word)}")
    if pres.kind == "completed":
        print(f"added: {len(pres.added_relations)}  duplicates skipped: {pres.duplicate_count}")
        for rel in pres.rejected_relations:
            print(
                "rejected (not derivable, suspected transcription issue): "
                f"{presentation.render_word(rel.lhs)} = {presentation.render_word(rel.rhs)}"
            )
    return 0


def cmd_simples(args) -> int:
    ctype = _type_from_tokens(args.type)
    t0 = time.monotonic()
    values: dict[str, int] = {}
    engines = (
        ["interval", "rewriting", "formula"] if args.engine == "all" else [args.engine, "formula"]
    )
    if "rewriting" in engines and not ctype.has_explicit_presentation:
        raise ValueError(f"rewriting engine needs an explicit presentation; {ctype} has none")
    if "formula" in engines:
        values["formula"] = ctype.simples_count
    if "interval" in engines:
        values["interval"] = len(interval.enumerate_interval(ctype))
    if "rewriting" in engines:
        values["rewriting"] = congruence.count_simples_rewriting(
            presentation.dual_presentation(ctype)
        )
    agreed = len(set(values.values())) == 1
    count = values[args.engine if args.engine != "all" else "interval"]
    payload = {
        "type": str(ctype),
        "dual_simples": count,
        "engines": values,
        "formula": FORMULA_TEXT.get(ctype.series),
        "agreement": agreed,
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }
    _emit(payload, args.json, [str(count)] if agreed else [f"ENGINE DISAGREEMENT: {values}"])
    return 0 if agreed else 1


def _verify_cube(ctype: CoxType, args) -> tuple[dict, bool, list[str]]:
    pres = presentation.presentation_for(ctype, _dual_flavor(ctype))
    table = congruence.ComplementTable(pres)
    report = congruence.cube_condition(pres, table=table, sample=args.sample, seed=args.seed)
    stats = table.stats()
    payload = {"check": "cube", "type": str(ctype), **report.as_dict(), "table": stats}
    lines = [
        f"cube condition on {pres.kind} presentation of {ctype}:",
        f"  triples checked {report.checked}, passed {report.passed}, "
        f"stuck {report.stuck}, diverged {report.diverged}, failed {len(report.failures)}",
        f"  complement table: {stats['covered']}/{stats['ordered_pairs']} ordered pairs",
        f"  ok: {report.ok}",
    ]
    return payload, report.ok, lines


def _verify_lattice(ctype: CoxType, args) -> tuple[dict, bool, list[str]]:
    poset = interval.enumerate_interval(ctype)
    samples = 10_000 if args.sample is None else args.sample
    report = interval.verify_lattice(poset, samples=samples, seed=args.seed)
    payload = report.as_dict()
    lines = [
        f"lattice check on {len(poset)} simples of {ctype}: mode {report.mode}, "
        f"{report.pairs_checked} pairs, violations {len(report.violations)}",
        f"  ok: {report.ok}",
    ]
    return payload, report.ok, lines


def _verify_embedding(ctype: CoxType, args) -> tuple[dict, bool, list[str]]:
    fwd = embedding.verify_dual_relations_in_group(ctype)
    rev = embedding.verify_classical_from_dual(ctype)
    ok = fwd.ok and rev.ok
    payload = {"forward": fwd.as_dict(), "reverse": rev.as_dict(), "ok": ok}
    lines = [
        f"dual relations inside the classical group of {ctype}: "
        f"{fwd.relations} relations, failures {len(fwd.failures)}",
        f"classical relations from the completed dual ({rev.check}): "
        f"{rev.relations} relations, failures {len(rev.failures)}",
        f"  ok: {ok}",
    ]
    lines.extend(f"  FAIL {f}" for f in (fwd.failures + rev.failures)[:10])
    return payload, ok, lines


def _verify_completion(ctype: CoxType, args) -> tuple[dict, bool, list[str]]:
    pres = presentation.completed_dual_presentation(ctype)
    ok = not pres.rejected_relations
    payload = {
        "check": "completion",
        "type": str(ctype),
        "added": len(pres.added_relations),
        "duplicates_skipped": pres.duplicate_count,
        "rejected": [
            [presentation.render_word(r.lhs), presentation.render_word(r.rhs)]
            for r in pres.rejected_relations
        ],
        "ok": ok,
    }
    lines = [
        f"completion of dual {ctype}: {len(pres.added_relations)} relations added, "
        f"{pres.duplicate_count} duplicates skipped",
    ]
    for rel in pres.rejected_relations:
        lines.append(
            "  NOT DERIVABLE (excluded; suspected transcription issue): "
            f"{presentation.render_word(rel.lhs)} = {presentation.render_word(rel.rhs)}"
        )
    lines.append(f"  ok: {ok}")
    return payload, ok, lines


def _verify_garside_element(ctype: CoxType, args) -> tuple[dict, bool, list[str]]:
    pres = presentation.presentation_for(ctype, _dual_flavor(ctype))
    word_ok = congruence.is_garside_element(pres)
    group = coxeter_group(ctype)
    image_ok = word_image(group, pres.garside_word) == group.coxeter_element
    ok = word_ok and image_ok
    payload = {
        "check": "garside-element",
        "type": str(ctype),
        "word": presentation.render_word(pres.garside_word),
        "divisor_sets_agree": word_ok,
        "projects_to_coxeter_element": image_ok,
        "ok": ok,
    }
    lines = [
        f"garside element of {pres.kind} {ctype}: {presentation.render_word(pres.garside_word)}",
        f"  left and right divisor sets coincide and contain all atoms: {word_ok}",
        f"  image in the reflection group is the chosen Coxeter element: {image_ok}",
        f"  ok: {ok}",
    ]
    return payload, ok, lines


def _verify_halfturn(tokens: list[str], args) -> tuple[dict, bool, list[str]]:
    text = "".join(tokens)
    if text.isdigit():
        n = int(text)
    else:
        ctype = parse_type(text)
        if ctype.series != "B":
            raise ValueError("the halfturn check takes n or a B type")
        n = ctype.rank
    report = halfturn.halfturn_fixed_check(n)
    payload = report.as_dict()
    lines = [
        f"halfturn symmetry of the dual A({2*n-1}) monoid, fixed copy of B({n}):",
        f"  shifted relations checked: {report.automorphism_relations}",
        f"  mapped relations checked: {report.mapped_relations}",
    ]
    lines.extend(
        f"    {a} -> {presentation.render_word(w)}" for a, w in report.atom_images.items()
    )
    lines.append(f"  ok: {report.ok}")
    lines.extend(f"  FAIL {f}" for f in report.failures[:10])
    return payload, report.ok, lines


def cmd_verify(args) -> int:
    if args.what == "halfturn":
        payload, ok, lines = _verify_halfturn(args.type, args)
    else:
        ctype = _type_from_tokens(args.type)
        handler = {
            "cube": _verify_cube,
            "lattice": _verify_lattice,
            "embedding": _verify_embedding,
            "completion": _verify_completion,
            "garside-element": _verify_garside_element,
        }[args.what]
        payload, ok, lines = handler(ctype, args)
    _emit(payload, args.json, lines)
    return 0 if ok else 1


def _nf_data(args) -> tuple[CoxType, garside.GarsideData]:
    """The type and Garside structure that ``nf`` and ``eq`` work in."""
    ctype = _type_from_tokens(args.type)
    if args.classical:
        return ctype, garside.classical_garside_data(ctype)
    if not ctype.has_explicit_presentation:
        raise ValueError(f"type {ctype} has no named generators for word input")
    return ctype, garside.dual_garside_data(ctype)


def cmd_nf(args) -> int:
    ctype, data = _nf_data(args)
    word = presentation.parse_word(args.word)
    nf = garside.normal_form(word, data)
    payload = {
        "type": str(ctype),
        "word": presentation.render_word(word),
        "normal_form": nf.as_dict(data),
        "rendered": nf.render(data),
    }
    _emit(payload, args.json, [nf.render(data)])
    return 0


def cmd_eq(args) -> int:
    ctype, data = _nf_data(args)
    w1 = presentation.parse_word(args.word1)
    w2 = presentation.parse_word(args.word2)
    equal = garside.equal_in_group(w1, w2, data)
    payload = {
        "type": str(ctype),
        "words": [presentation.render_word(w1), presentation.render_word(w2)],
        "equal": equal,
    }
    _emit(payload, args.json, ["equal" if equal else "distinct"])
    return 0 if equal else 1


def _table1_cell(label: str, enumerate_classical_limit: int) -> dict:
    ctype = parse_type(label)
    t0 = time.monotonic()
    expected = ctype.simples_count
    computed = len(interval.enumerate_interval(ctype))
    order_expected = ctype.group_order
    if ctype.group_order <= enumerate_classical_limit:
        group = coxeter_group(ctype)
        order_computed = len(group.enumerate_group())
    else:
        order_computed = None
    return {
        "type": label,
        "dual_expected": expected,
        "dual_computed": computed,
        "dual_formula": FORMULA_TEXT.get(ctype.series),
        "dual_ok": computed == expected,
        "classical_expected": order_expected,
        "classical_computed": order_computed,
        "classical_formula": CLASSICAL_FORMULA_TEXT.get(ctype.series),
        "classical_ok": order_computed in (None, order_expected),
        "elapsed_ms": int((time.monotonic() - t0) * 1000),
    }


def cmd_table1(args) -> int:
    skip = {s.strip() for s in (args.skip or "").split(",") if s.strip()}
    unknown = sorted(skip.difference(TABLE_TYPES))
    if unknown:
        raise ValueError(f"--skip names no table cell: {', '.join(unknown)}")
    if not args.full:
        skip |= {"E7", "E8"}
    labels = [
        label
        for label in TABLE_TYPES
        if label not in skip and (args.max_rank is None or parse_type(label).rank <= args.max_rank)
    ]
    if not labels:
        raise ValueError("no table cell selected: every type is skipped or above --max-rank")
    limit = 60_000 if args.full else 5_000
    rows = [_table1_cell(label, limit) for label in labels]
    ok = all(c["dual_ok"] and c["classical_ok"] for c in rows)
    if args.json:
        print(json.dumps({"rows": rows, "ok": ok}, indent=2, sort_keys=True))
        return 0 if ok else 1
    head = f"{'type':>6} | {'dual computed':>13} {'expected':>9} {'':2} | {'group order':>11} {'check':>7}"
    print(head)
    print("-" * len(head))
    for c in rows:
        dmark = "ok" if c["dual_ok"] else "FAIL"
        if c["classical_computed"] is None:
            cmark = "formula"
        else:
            cmark = "ok" if c["classical_ok"] else "FAIL"
        print(
            f"{c['type']:>6} | {c['dual_computed']:>13} {c['dual_expected']:>9} {dmark:>2} "
            f"| {c['classical_expected']:>11} {cmark:>7}"
        )
    print(f"all cells pass: {ok}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualbraid",
        description="Dual presentations of the braid groups of finite Coxeter types, "
        "with Garside-structure verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present", help="print a presentation")
    p.add_argument("type", nargs="+", help="type token, e.g. B 3, I2:5, H3")
    p.add_argument("--flavor", choices=["dual", "classical", "completed"], default="dual")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("simples", help="count simple elements")
    p.add_argument("action", choices=["count"])
    p.add_argument("type", nargs="+")
    p.add_argument(
        "--engine", choices=["interval", "rewriting", "formula", "all"], default="all"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simples)

    p = sub.add_parser("verify", help="run a structure verification")
    p.add_argument(
        "what",
        choices=["cube", "lattice", "embedding", "completion", "garside-element", "halfturn"],
    )
    p.add_argument("type", nargs="+")
    p.add_argument("--sample", type=int, default=None, help="sample size for large sweeps")
    p.add_argument("--seed", type=int, default=94111)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nf", help="left-greedy normal form of a word")
    p.add_argument("type", nargs="+")
    p.add_argument("word")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("eq", help="decide equality of two words in the group")
    p.add_argument("type", nargs="+")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("table1", help="reproduce the simple-element count table")
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--skip", default="")
    p.add_argument("--full", action="store_true", help="include the slow largest types")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
