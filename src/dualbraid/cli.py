"""Command-line interface: presentations, counts, verification, normal forms.

Exit codes: 0 when every requested check passes, 1 on a verification
failure or an internal failure (a class over its size cap, a poset that
is not a lattice, a broken invariant), 2 on usage errors.  A usage error
is a ``ValueError`` (or ``KeyError``) raised anywhere below :func:`main`,
which prints it as one ``error:`` line: an unknown type, a word outside
the alphabet, a sample size below one, a ``table1`` run that selects no
cell or skips a label that is not a cell, ``--sample`` or ``--seed`` on a
check that draws no sample (a lattice check of at most
``interval.EXHAUSTIVE_LIMIT`` simples is one).  Every subcommand takes
``--json`` for machine-readable output.

Each subcommand handler returns ``(payload, ok, lines)``; :func:`main`
alone prints them, the payload as JSON or the lines as text, and turns
``ok`` into the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import congruence, embedding, garside, halfturn, interval, presentation
from .coxeter import coxeter_group, word_image
from .coxtypes import CoxType, parse_type

TABLE_TYPES = (
    [f"A{n}" for n in range(1, 8)]
    + [f"B{n}" for n in range(2, 7)]
    + [f"D{n}" for n in range(3, 7)]
    + [f"I2:{m}" for m in range(3, 13)]
    + ["H3", "F4", "H4", "E6", "E7", "E8"]
)

# the largest group a table cell enumerates to check its order (below E7)
GROUP_ORDER_LIMIT = 60_000

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


def _dual_flavor(ctype: CoxType) -> str:
    """Completion only adds relations for B and D."""
    return "completed" if ctype.series in ("B", "D") else "dual"


def cmd_present(args) -> tuple[dict, bool, list[str]]:
    ctype = _type_from_tokens(args.type)
    pres = presentation.presentation_for(ctype, args.flavor)
    lines = [
        f"# {args.flavor} presentation of type {ctype}",
        f"atoms ({len(pres.atoms)}): " + " ".join(str(a) for a in pres.atoms),
    ]
    lines.extend(f"  {rel}" for rel in pres.relations)
    if pres.garside_word is not None:
        lines.append(f"garside word: {presentation.render_word(pres.garside_word)}")
    if pres.kind == "completed":
        lines.append(
            f"added: {len(pres.added_relations)}  duplicates skipped: {pres.duplicate_count}"
        )
        lines.extend(
            f"rejected (not derivable, suspected transcription issue): {rel}"
            for rel in pres.rejected_relations
        )
    return pres.as_dict(), True, lines


def cmd_simples(args) -> tuple[dict, bool, list[str]]:
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
    return payload, agreed, [str(count)] if agreed else [f"ENGINE DISAGREEMENT: {values}"]


def _verify_cube(ctype: CoxType, sample: int | None, seed: int) -> tuple[dict, bool, list[str]]:
    pres = presentation.presentation_for(ctype, _dual_flavor(ctype))
    table = congruence.ComplementTable(pres)
    report = congruence.cube_condition(pres, table=table, sample=sample, seed=seed)
    stats = table.stats()
    payload = {"check": "cube", "type": str(ctype), **report.as_dict(), "table": stats}
    lines = [
        f"cube condition on {pres.kind} presentation of {ctype}:",
        f"  triples checked {report.checked}, passed {report.passed}, "
        f"stuck {report.stuck}, diverged {report.diverged}, failed {len(report.failures)}",
        f"  complement table: {stats['covered']}/{stats['ordered_pairs']} ordered pairs",
        f"  ok: {report.ok}",
    ]
    if report.failures:
        lines.insert(2, f"  first failing triple: {report.first_failure}")
    return payload, report.ok, lines


def _verify_lattice(
    ctype: CoxType, sample: int | None, seed: int
) -> tuple[dict, bool, list[str]]:
    poset = interval.enumerate_interval(ctype)
    samples = 10_000 if sample is None else sample
    report = interval.verify_lattice(poset, samples=samples, seed=seed)
    payload = report.as_dict()
    lines = [
        f"lattice check on {len(poset)} simples of {ctype}: mode {report.mode}, "
        f"{report.pairs_checked} pairs, violations {len(report.violations)}",
        f"  ok: {report.ok}",
    ]
    return payload, report.ok, lines


def _verify_embedding(ctype: CoxType) -> tuple[dict, bool, list[str]]:
    # one completion serves both directions; it also refuses a type with no
    # explicit presentation before any group work
    completed = presentation.completed_dual_presentation(ctype)
    fwd = embedding._dual_relations_in_group(completed)
    rev = embedding._classical_from_dual(completed)
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


def _verify_completion(ctype: CoxType) -> tuple[dict, bool, list[str]]:
    pres = presentation.completed_dual_presentation(ctype)
    ok = not pres.rejected_relations
    payload = {
        "check": "completion",
        "type": str(ctype),
        "added": len(pres.added_relations),
        "duplicates_skipped": pres.duplicate_count,
        "rejected": pres.as_dict()["rejected"],
        "ok": ok,
    }
    lines = [
        f"completion of dual {ctype}: {len(pres.added_relations)} relations added, "
        f"{pres.duplicate_count} duplicates skipped",
    ]
    for rel in pres.rejected_relations:
        lines.append(f"  NOT DERIVABLE (excluded; suspected transcription issue): {rel}")
    lines.append(f"  ok: {ok}")
    return payload, ok, lines


def _verify_garside_element(ctype: CoxType) -> tuple[dict, bool, list[str]]:
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


def _verify_halfturn(tokens: list[str]) -> tuple[dict, bool, list[str]]:
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


def cmd_verify(args) -> tuple[dict, bool, list[str]]:
    if args.what in ("cube", "lattice"):
        ctype = _type_from_tokens(args.type)
        seed = 94111 if args.seed is None else args.seed
        if args.what == "cube":
            return _verify_cube(ctype, args.sample, seed)
        count, limit = ctype.simples_count, interval.EXHAUSTIVE_LIMIT
        if count <= limit and (args.sample is not None or args.seed is not None):
            raise ValueError(
                f"verify lattice {ctype} draws no sample, it checks every pair of its "
                f"{count} simples; --sample and --seed are for more than {limit} simples"
            )
        return _verify_lattice(ctype, args.sample, seed)
    if args.sample is not None or args.seed is not None:
        raise ValueError(
            f"verify {args.what} draws no sample; --sample and --seed are for cube and lattice"
        )
    if args.what == "halfturn":
        return _verify_halfturn(args.type)
    handler = {
        "embedding": _verify_embedding,
        "completion": _verify_completion,
        "garside-element": _verify_garside_element,
    }[args.what]
    return handler(_type_from_tokens(args.type))


def _nf_data(args) -> tuple[CoxType, garside.GarsideData]:
    """The type and Garside structure that ``nf`` and ``eq`` work in."""
    ctype = _type_from_tokens(args.type)
    if not ctype.has_explicit_presentation:
        raise ValueError(f"type {ctype} has no named generators for word input")
    if args.classical:
        return ctype, garside.classical_garside_data(ctype)
    return ctype, garside.dual_garside_data(ctype)


def cmd_nf(args) -> tuple[dict, bool, list[str]]:
    ctype, data = _nf_data(args)
    word = presentation.parse_word(args.word)
    nf = garside.normal_form(word, data)
    payload = {
        "type": str(ctype),
        "word": presentation.render_word(word),
        "normal_form": nf.as_dict(data),
        "rendered": nf.render(data),
    }
    return payload, True, [payload["rendered"]]


def cmd_eq(args) -> tuple[dict, bool, list[str]]:
    ctype, data = _nf_data(args)
    w1 = presentation.parse_word(args.word1)
    w2 = presentation.parse_word(args.word2)
    equal = garside.equal_in_group(w1, w2, data)
    payload = {
        "type": str(ctype),
        "words": [presentation.render_word(w1), presentation.render_word(w2)],
        "equal": equal,
    }
    return payload, equal, ["equal" if equal else "distinct"]


def _table1_cell(label: str) -> dict:
    ctype = parse_type(label)
    t0 = time.monotonic()
    expected = ctype.simples_count
    poset = interval.enumerate_interval(ctype)
    computed = len(poset)
    order_expected = ctype.group_order
    if order_expected <= GROUP_ORDER_LIMIT:
        order_computed = len(poset.group.enumerate_group())
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


def cmd_table1(args) -> tuple[dict, bool, list[str]]:
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
    rows = [_table1_cell(label) for label in labels]
    ok = all(c["dual_ok"] and c["classical_ok"] for c in rows)
    head = f"{'type':>6} | {'dual computed':>13} {'expected':>9} {'':2} | {'group order':>11} {'check':>7}"
    lines = [head, "-" * len(head)]
    for c in rows:
        dmark = "ok" if c["dual_ok"] else "FAIL"
        if c["classical_computed"] is None:
            cmark = "formula"
        else:
            cmark = "ok" if c["classical_ok"] else "FAIL"
        lines.append(
            f"{c['type']:>6} | {c['dual_computed']:>13} {c['dual_expected']:>9} {dmark:>2} "
            f"| {c['classical_expected']:>11} {cmark:>7}"
        )
    lines.append(f"all cells pass: {ok}")
    return {"rows": rows, "ok": ok}, ok, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualbraid",
        description="Dual presentations of the braid groups of finite Coxeter types, "
        "with Garside-structure verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print the result as JSON")

    p = sub.add_parser("present", parents=[common], help="print a presentation")
    p.add_argument("type", nargs="+", help="type token, e.g. B 3, I2:5, H3")
    p.add_argument("--flavor", choices=["dual", "classical", "completed"], default="dual")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("simples", parents=[common], help="count simple elements")
    p.add_argument("action", choices=["count"])
    p.add_argument("type", nargs="+")
    p.add_argument(
        "--engine", choices=["interval", "rewriting", "formula", "all"], default="all"
    )
    p.set_defaults(func=cmd_simples)

    p = sub.add_parser("verify", parents=[common], help="run a structure verification")
    p.add_argument(
        "what",
        choices=["cube", "lattice", "embedding", "completion", "garside-element", "halfturn"],
    )
    p.add_argument("type", nargs="+")
    p.add_argument("--sample", type=int, help="sample size for cube and lattice sweeps")
    p.add_argument("--seed", type=int, help="seed of the cube or lattice sample (default 94111)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nf", parents=[common], help="left-greedy normal form of a word")
    p.add_argument("type", nargs="+")
    p.add_argument("word")
    p.add_argument("--classical", action="store_true")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("eq", parents=[common], help="decide equality of two words in the group")
    p.add_argument("type", nargs="+")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--classical", action="store_true")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("table1", parents=[common], help="reproduce the simple-element count table")
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--skip", default="")
    p.add_argument("--full", action="store_true", help="include the slow largest types")
    p.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, ok, lines = args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True) if args.json else "\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
