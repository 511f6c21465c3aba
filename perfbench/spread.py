"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload rewriting [--out FILE]

Runs ``run.py`` once per seed 1..10 with the run length from
``BENCHMARK.json`` and prints, for each end-to-end metric,
the median, the quartiles and the spread (interquartile distance over the
median) next to the metric's bound.  ``--out`` writes the same figures,
with each run's ``info`` line, as JSON; ``baseline.json`` was made so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    infos = []
    for seed in SEEDS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"seed {seed}: run failed", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        infos.append(next(json.loads(x[5:]) for x in lines if x.startswith("info ")))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    report = {"workload": args.workload, "runs": len(SEEDS),
              "run_seconds": spec["run_seconds"], "metrics": {}, "info": infos}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        report["metrics"][metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": spread, "bound": metric["bound"], "values": vals,
        }
        print(f"{metric['name']:>14} median {med:.6g} {metric['unit']}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  bound {metric['bound']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
