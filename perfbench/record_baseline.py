"""Measure the baseline and write it to perfbench/baseline.json.

Usage, from the root of a checkout:

    python3 perfbench/record_baseline.py [--runs 10] [--first-seed 1]

Runs ``perfbench/run.py`` once per seed on every workload of
BENCHMARK.json with tracing off, one run at a time, then one traced run
per workload.  Records per workload and end-to-end metric the median,
the quartiles and their spread (IQR / median) over the runs, the bound
from BENCHMARK.json, the per-layer metrics of the traced run, and every
failed check with its cause.  Each run's raw output is kept under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"baseline-{workload}-seed{seed}-trace{trace}.txt").write_text(done.stdout)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds,
           "end_to_end": {}, "per_layer": {}, "failed_checks": {}, "runs": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        runs = []
        for seed in seeds:
            record, result = run_once(bench, name, seed, 0)
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "passes": len(record["passes"])})
            for cause, count in record["failed_checks"].items():
                doc["failed_checks"].setdefault(name, {})[cause] = count
            print(f"{name} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
        doc["machine"] = record["machine"]
        doc["runs"][name] = runs
        summary = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            summary[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": v}
        doc["end_to_end"][name] = summary
        _, traced = run_once(bench, name, seeds[0], 1)
        doc["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
