"""dualbraid benchmark: one workload per process, checked, metrics as JSON.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload table1-full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout; without it the
run exits non-zero.  A run sets up once (importing the package afresh),
then repeats the workload's sweep in a closed loop until ``--seconds``
have passed, at least once.  A sweep times each of its steps, one call
into dualbraid (one word on ``wordproblem``); between two steps, once
``SETUP_EVERY_S`` seconds have passed since the last set-up, the run sets
up again, so that set-ups are sampled over the whole run.  It reports the
fastest set-up as ``setup_s`` and, as ``sweep_s``, the sum over the steps
of each step's fastest time in the run: on a shared two-core machine
other tenants slow a process by up to 2x for seconds to minutes at a
time, and the fastest of short samples spread over the run is what stays
put from run to run.
Every sweep checks its results; a wrong result prints ``"correct": false``
and exits 1.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` the set-up runs once, under the tracer; each sweep
runs untraced and then traced on the same inputs, the last line holds
the per-layer metrics, and the spans are written to
``.perfbench/spans-<run id>.json``.  ``--workload all`` runs every
workload in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from tracing import NullTracer, Tracer, subtree, summarize
from workloads import WORKLOADS, Checks, Steps

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
LAYER_MODULES = ("coxtypes", "coxeter", "interval", "presentation", "congruence", "garside",
                 "cli")
SETUP_EVERY_S = 1.0


def import_layers() -> SimpleNamespace:
    """Import dualbraid afresh from the checkout, so set-up pays for it."""
    for name in [n for n in sys.modules if n == "dualbraid" or n.startswith("dualbraid.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dualbraid")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"dualbraid was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{k: importlib.import_module(f"dualbraid.{k}") for k in LAYER_MODULES})


def metric_units() -> dict:
    """Unit of every metric, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def word_stats(sweeps) -> dict:
    """Throughput and latency percentiles of the words normalised untraced."""
    words = sorted(x for s in sweeps for x in s["result"].latencies)
    if not words:
        return {}
    return {
        "words_per_s": len(words) / sum(words),
        "word_p50_ms": percentile(words, 0.50) * 1e3,
        "word_p99_ms": percentile(words, 0.99) * 1e3,
        "word_samples": len(words),
    }


def set_up(workload, seed: int, times: list):
    """One untraced set-up; appends its time to ``times``."""
    t0 = time.perf_counter()
    m = import_layers()
    state = workload.setup(m, NullTracer(), seed)
    times.append(time.perf_counter() - t0)
    return m, state


def layer_metrics(workload, tracer, setup_id, sweeps, state) -> dict:
    """Per-layer metrics: the traced set-up plus the mean traced sweep.

    Times come from spans, counts from the first untraced sweep's return
    values, word latencies from the untraced sweeps.
    """
    totals, self_s = map(Counter, summarize(subtree(tracer.spans, setup_id)))
    for s in sweeps:
        t, own = summarize(subtree(tracer.spans, s["span"]))
        totals.update({k: v / len(sweeps) for k, v in t.items()})
        self_s.update({k: v / len(sweeps) for k, v in own.items()})
    counts = workload.setup_counts(state) + sweeps[0]["result"].counts
    words = word_stats(sweeps)

    def tot(name):
        return totals.get(name, 0.0)

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    overhead = statistics.median(
        sum(s["traced"].values()) / sum(s["steps"].values()) for s in sweeps) - 1
    values = {
        "coxeter.self_s": self_s.get("coxeter", 0.0),
        "coxeter.bfs_s": tot("coxeter.enumerate_group"),
        "coxeter.bfs_s.H4": tot("coxeter.enumerate_group.H4"),
        "coxeter.bfs_s.E6": tot("coxeter.enumerate_group.E6"),
        "coxeter.bfs_elements": counts["coxeter.bfs_elements"],
        "coxeter.bfs_elements_per_s":
            rate(counts["coxeter.bfs_elements"], tot("coxeter.enumerate_group")),
        "interval.self_s": self_s.get("interval", 0.0),
        "interval.enumerate_s": tot("interval.enumerate_interval"),
        "interval.enumerate_s.E7": tot("interval.enumerate_interval.E7"),
        "interval.enumerate_s.E8": tot("interval.enumerate_interval.E8"),
        "interval.elements": counts["interval.elements"],
        "interval.cover_edges": counts["interval.cover_edges"],
        "interval.cover_edges_per_s":
            rate(counts["interval.cover_edges"], tot("interval.enumerate_interval")),
        "interval.masks_s": tot("interval.masks"),
        "interval.lattice_s": tot("interval.verify_lattice"),
        "interval.lattice_pairs": counts["interval.lattice_pairs"],
        "presentation.self_s": self_s.get("presentation", 0.0),
        "presentation.completion_s": tot("presentation.completed_dual_presentation"),
        "presentation.relations_added": counts["presentation.relations_added"],
        "presentation.relations_rejected": counts["presentation.relations_rejected"],
        "congruence.self_s": self_s.get("congruence", 0.0),
        "congruence.table_s": tot("congruence.ComplementTable"),
        "congruence.table_missing": counts["congruence.table_missing"],
        "congruence.cube_s": tot("congruence.cube_condition"),
        "congruence.cube_s.B5": tot("congruence.cube_condition.B5"),
        "congruence.cube_s.D5": tot("congruence.cube_condition.D5"),
        "congruence.cube_triples": counts["congruence.cube_triples"],
        "congruence.cube_passed": counts["congruence.cube_passed"],
        "congruence.cube_stuck": counts["congruence.cube_stuck"],
        "congruence.cube_diverged": counts["congruence.cube_diverged"],
        "congruence.cube_failed": counts["congruence.cube_failed"],
        "congruence.cube_triples_per_s":
            rate(counts["congruence.cube_triples"], tot("congruence.cube_condition")),
        "congruence.rewriting_count_s": tot("congruence.count_simples_rewriting"),
        "garside.self_s": self_s.get("garside", 0.0),
        "garside.data_s": tot("garside.GarsideData"),
        "garside.group_nf_s": tot("garside.group_normal_form"),
        "garside.group_nf_s.A7": tot("garside.group_normal_form.A7"),
        "garside.group_nf_s.B6": tot("garside.group_normal_form.B6"),
        "garside.group_nf_s.D6": tot("garside.group_normal_form.D6"),
        "garside.nf_factors": counts["garside.nf_factors"],
        "garside.check_s": tot("garside.check"),
        **{f"garside.{k}": words.get(k, 0) for k in
           ("words_per_s", "word_p50_ms", "word_p99_ms", "word_samples")},
        "trace.overhead_frac": overhead,
    }
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    run_id = f"{name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id) if trace else NullTracer()
    null = NullTracer()

    setup_times = []
    setup_id = None
    if trace:
        with tracer.span("bench.setup") as rec:
            with tracer.span("bench.import"):
                m = import_layers()
            state = workload.setup(m, tracer, seed)
        setup_id = rec["id"]
    else:
        gc.collect()
        m, state = set_up(workload, seed, setup_times)
    last_setup = time.perf_counter()

    def between():
        """Set up again, outside any step, once SETUP_EVERY_S has passed.

        The sweep goes on with its own modules, so they are put back in
        ``sys.modules`` for any import done inside a call.
        """
        nonlocal last_setup
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            own = {k: v for k, v in sys.modules.items() if k.partition(".")[0] == "dualbraid"}
            set_up(workload, seed, setup_times)
            sys.modules.update(own)
            last_setup = time.perf_counter()

    checks = Checks()
    sweeps = []
    start = time.perf_counter()
    while not checks.wrong and (not sweeps or time.perf_counter() - start < seconds):
        gc.collect()
        steps = Steps(None if trace else between)
        sweep = {"steps": steps, "result": workload.sweep(m, state, null, steps, seed, checks)}
        if trace:  # the same inputs again, traced, for the overhead
            gc.collect()
            sweep["traced"] = Steps()
            with tracer.span("bench.sweep", index=len(sweeps)) as rec:
                workload.sweep(m, state, tracer, sweep["traced"], seed, checks)
            sweep["span"] = rec["id"]
        sweeps.append(sweep)

    if checks.wrong:
        for what in checks.wrong[:20]:
            print(f"WRONG: {what}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": checks.attempted,
                          "failed": len(checks.wrong), "metrics": {}}))
        return 1

    unverified = checks.unproven / checks.attempted
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_reps": len(setup_times),
        "sweeps": len(sweeps),
        "sweep_times": [sum(s["steps"].values()) for s in sweeps],
        "checks": checks.attempted,
        "unverified": checks.unproven,
        "unverified_frac": unverified,
        **word_stats(sweeps),
    }
    print("info " + json.dumps(info))

    if trace:
        values = layer_metrics(workload, tracer, setup_id, sweeps, state)
        tracer.write(OUT_DIR / f"spans-{run_id}.json")
    else:
        values = {
            "setup_s": min(setup_times),
            "sweep_s": sum(min(s["steps"][k] for s in sweeps) for k in sweeps[0]["steps"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_frac": 1.0 - unverified,
        }
    units = metric_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": True, "attempted": checks.attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; prints each metric, then all as JSON."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                        "failed": 1, "metrics": {}}
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not result["correct"]:
            status = 1
            merged["correct"] = False
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            print(f"{name:>12} {key:<34} {metric['value']:>14.6g} {metric['unit']}")
            merged["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "dualbraid" / "__init__.py").is_file():
        print(f"error: no dualbraid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
