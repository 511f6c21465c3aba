"""The three benchmark workloads.

Each workload has a one-time ``setup`` (what a user pays before the first
answer) and a ``sweep``, the unit of measured work, which runs in a closed
loop: every call into dualbraid starts when the previous one returns.  A
sweep checks each result against a reference that does not share the
code under test (closed-form counts, exact cube and lattice verdicts,
normal-form identities) and records the outcome in a :class:`Checks`.

- ``table1-full`` loads ``coxeter``/``exact`` (group BFS) and
  ``interval`` (enumeration, lattice bitsets).
- ``rewriting`` loads ``presentation`` (completion) and ``congruence``
  (class store, complement table, cube sweep); it is exhaustive and
  ignores the seed.
- ``wordproblem`` loads ``garside`` (greedy normal forms) and the query
  side of ``interval`` (meets on the bitsets).
"""

from __future__ import annotations

import contextlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field

# The cells are `cli.TABLE_TYPES`; the BFS limit is the literal that
# `cli.cmd_table1` uses with --full, which the package does not export.
BFS_ORDER_LIMIT = 60_000
LATTICE_TYPES = ("E7", "E8")
LATTICE_PAIRS = 10_000

COMPLETION_TYPES = ("B5", "D5", "D6")
# The D6 cube is one 6-8 s call whose time swings by 1.6x with the load of
# other tenants, and sampling its triples does not shorten it (the cost is
# in closing the large classes), so the cube runs on B5 and D5, keeping
# every sweep short enough for the fastest of several to be steady.
CUBE_TYPES = ("B5", "D5")
COUNT_TYPES = ("A5", "B5", "D5")

WORD_TYPES = ("A7", "B6", "D6")
WORD_LENGTH = 40
# 100 words per type per sweep keeps a sweep near a quarter of a second, so
# a run holds over a dozen sweeps and enough words for a p99 latency.  Every
# sweep of a run normalises the same words, each word a step of its own.
WORDS_PER_TYPE = 100


@dataclass
class Checks:
    """Checks attempted; wrong ones fail the run, unproven ones do not."""

    attempted: int = 0
    unproven: int = 0
    wrong: list = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.unproven += 1
            self.wrong.append(what)


class Steps(dict):
    """Wall time of each step of a sweep (one call into dualbraid), by label.

    ``between``, when given, is called after each step, outside its time.
    """

    def __init__(self, between=None):
        super().__init__()
        self.between = between

    @contextlib.contextmanager
    def time(self, label):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self[label] = self.get(label, 0.0) + time.perf_counter() - t0
        if self.between:
            self.between()


@dataclass
class SweepResult:
    counts: Counter
    latencies: list = field(default_factory=list)


def _sub_seed(seed: int, label: str) -> int:
    return random.Random(f"{seed}:{label}").randrange(2**32)


class Workload:
    name = ""

    def setup_counts(self, state) -> Counter:
        """Work counts of the set-up, for the traced run."""
        return Counter()


class Table1Full(Workload):
    """Every cell of `dualbraid table1 --full`, then sampled lattice checks."""

    name = "table1-full"

    def setup(self, m, tr, seed: int):
        return [(label, m.coxtypes.parse_type(label)) for label in m.cli.TABLE_TYPES]

    def sweep(self, m, types, tr, steps: Steps, seed: int, checks: Checks) -> SweepResult:
        counts: Counter = Counter()
        kept = {}
        for label, ct in types:
            with steps.time(f"enumerate {label}"), \
                    tr.span("interval.enumerate_interval", type=label):
                poset = m.interval.enumerate_interval(ct)
            counts["interval.elements"] += len(poset)
            counts["interval.cover_edges"] += len(poset.cover_edges)
            checks.expect(len(poset) == ct.simples_count, f"{label} simples count")
            if ct.group_order <= BFS_ORDER_LIMIT:
                with steps.time(f"bfs {label}"), tr.span("coxeter.enumerate_group", type=label):
                    order = len(m.coxeter.coxeter_group(ct).enumerate_group())
                counts["coxeter.bfs_elements"] += order
                checks.expect(order == ct.group_order, f"{label} group order")
            if label in LATTICE_TYPES:
                kept[label] = poset
        for label in LATTICE_TYPES:
            poset = kept.pop(label)
            with steps.time(f"masks {label}"), tr.span("interval.masks", type=label):
                poset.down_masks, poset.up_masks
            with steps.time(f"lattice {label}"), tr.span("interval.verify_lattice", type=label):
                report = m.interval.verify_lattice(
                    poset, samples=LATTICE_PAIRS, seed=_sub_seed(seed, label)
                )
            # the report's pairs_checked reads `samples` even after an early
            # stop, so the requested count is used and any violation fails
            counts["interval.lattice_pairs"] += LATTICE_PAIRS
            checks.expect(report.ok, f"{label} lattice ({len(report.violations)} violations)")
        return SweepResult(counts)


class Rewriting(Workload):
    """Completion, complement tables and cube sweeps, then rewriting counts."""

    name = "rewriting"

    def setup(self, m, tr, seed: int):
        completion = [(label, m.coxtypes.parse_type(label)) for label in COMPLETION_TYPES]
        counting = []
        for label in COUNT_TYPES:
            ct = m.coxtypes.parse_type(label)
            with tr.span("presentation.dual_presentation", type=label):
                counting.append((label, ct, m.presentation.dual_presentation(ct)))
        return completion, counting

    def sweep(self, m, state, tr, steps: Steps, seed: int, checks: Checks) -> SweepResult:
        completion, counting = state
        counts: Counter = Counter()
        for label, ct in completion:
            with steps.time(f"complete {label}"), \
                    tr.span("presentation.completed_dual_presentation", type=label):
                pres = m.presentation.completed_dual_presentation(ct)
            counts["presentation.relations_added"] += len(pres.added_relations)
            counts["presentation.relations_rejected"] += len(pres.rejected_relations)
            if label not in CUBE_TYPES:
                continue
            with steps.time(f"table {label}"), tr.span("congruence.ComplementTable", type=label):
                table = m.congruence.ComplementTable(pres)
                stats = table.stats()
            counts["congruence.table_missing"] += stats["missing"]
            with steps.time(f"cube {label}"), tr.span("congruence.cube_condition", type=label):
                report = m.congruence.cube_condition(pres, table=table)
            atoms = len(pres.atoms)
            triples = atoms * (atoms - 1) * (atoms - 2)
            failed = len(report.failures)
            counts["congruence.cube_triples"] += report.checked
            counts["congruence.cube_passed"] += report.passed
            counts["congruence.cube_stuck"] += report.stuck
            counts["congruence.cube_diverged"] += report.diverged
            counts["congruence.cube_failed"] += failed
            tally = report.passed + report.stuck + report.diverged + failed
            if report.checked != triples or tally != triples:
                checks.wrong.append(f"{label} cube tally {tally}/{report.checked}/{triples}")
            if not report.ok:
                checks.wrong.append(f"{label} cube verdict: {report.as_dict()}")
            # stuck triples prove nothing but are not wrong: unproven only
            checks.attempted += report.checked
            checks.unproven += report.checked - report.passed
        for label, ct, pres in counting:
            with steps.time(f"count {label}"), \
                    tr.span("congruence.count_simples_rewriting", type=label):
                n = m.congruence.count_simples_rewriting(pres)
            checks.expect(n == ct.simples_count, f"{label} rewriting count {n}")
        return SweepResult(counts)


class WordProblem(Workload):
    """Seeded random signed words brought to the group normal form."""

    name = "wordproblem"

    def setup(self, m, tr, seed: int):
        out = []
        for label in WORD_TYPES:
            ct = m.coxtypes.parse_type(label)
            with tr.span("interval.enumerate_interval", type=label):
                poset = m.interval.enumerate_interval(ct)
            with tr.span("interval.masks", type=label):
                poset.down_masks  # meets read only the down-sets
            with tr.span("garside.GarsideData", type=label):
                data = m.garside.GarsideData(ct, poset, "dual")
                data.left_complement, data.right_complement
                data.delta_conj, data.delta_conj_inv
                atoms = list(data.atom_labels)
            out.append((label, data, atoms))
        return out

    def setup_counts(self, state) -> Counter:
        counts: Counter = Counter()
        for _, data, _ in state:
            counts["interval.elements"] += len(data.poset)
            counts["interval.cover_edges"] += len(data.poset.cover_edges)
        return counts

    def sweep(self, m, state, tr, steps: Steps, seed: int, checks: Checks) -> SweepResult:
        rng = random.Random(f"wordproblem:{seed}")
        jobs = [
            (label, data, [(rng.choice(atoms), rng.choice((1, -1))) for _ in range(WORD_LENGTH)])
            for label, data, atoms in state
            for _ in range(WORDS_PER_TYPE)
        ]
        gnf = m.garside.group_normal_form
        results = []
        for j, (label, data, w) in enumerate(jobs):
            with steps.time(j), tr.span("garside.group_normal_form", type=label):
                results.append(gnf(w, data))
        counts: Counter = Counter(
            {"garside.nf_factors": sum(len(nf.factors) for nf in results)}
        )
        identity = m.garside.NormalForm(0, ())
        for (label, data, w), nf in zip(jobs, results):
            with tr.span("garside.check", type=label):
                inverse = [(a, -s) for a, s in reversed(w)]
                checks.expect(gnf(w + inverse, data) == identity, f"{label} w.w^-1 != 1")
                sign = 1 if nf.delta_power > 0 else -1
                expanded = [(data.delta, sign)] * abs(nf.delta_power)
                expanded += [(f, 1) for f in nf.factors]
                checks.expect(gnf(expanded, data) == nf, f"{label} normal form not stable")
        return SweepResult(counts, list(steps.values()))


WORKLOADS = {w.name: w for w in (Table1Full(), Rewriting(), WordProblem())}
