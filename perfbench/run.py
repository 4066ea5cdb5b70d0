"""kernelscope benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload automatic_scan --seed 1 --seconds 20 --trace 0

Workloads: automatic_scan, regular_profile, analytic_zeta (see
BENCHMARK.json for why each was chosen).  The program is imported from
the checkout's ``src/``; nothing is installed.  A run first times fresh
interpreters importing every kernelscope module (``setup_s``), then
repeats whole passes of the workload (at least one) as long as the next
pass still fits in ``--seconds``, checking every pass's outputs against independent oracles outside the
timed region.  Everything runs in this one process on one thread, apart
from the short-lived interpreters ``setup_s`` times.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result holds
per-layer metrics of the traced passes (medians), with
``trace.overhead_s`` the traced minus the untraced median wall time.
Spans of traced passes are written to ``perfbench/out/``.

The last line of standard output is the result object; the line before
it records the machine, the seed, every pass and every failed check with
its cause.  Exit code 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
LAYER_MODULES = ("seqgen", "kernel", "automaton", "dirichlet", "zeta", "christol", "cli")
SETUP_SPAWNS = 7
# one thread throughout: numpy's BLAS would otherwise spread matrix
# products over every core; set before numpy is first imported
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
_IMPORT_ALL = "import kernelscope, " + ", ".join(f"kernelscope.{m}" for m in LAYER_MODULES)


def _tail_percentile(values: list[float]):
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return None


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until every module is imported.

    The child prints its monotonic clock after the imports; on Linux
    perf_counter is CLOCK_MONOTONIC, shared by parent and child.  One
    unmeasured spawn first leaves the bytecode cache warm.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = f"{_IMPORT_ALL}; import time; print(repr(time.perf_counter()))"
    samples = []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            samples.append(float(done.stdout.strip()) - t0)
    return samples


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = {
            "size": size, "shared_cpu_list": shared}
    return out


def machine_record(computed_bytes: dict) -> dict:
    import mpmath
    import numpy
    import scipy

    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": _cache_sizes(),
        "computed_table_bytes": computed_bytes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": "1 throughout: one process, pole_scan(threads=1), BLAS limited to 1 thread",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("automatic_scan", "regular_profile", "analytic_zeta"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "kernelscope" / "__init__.py").is_file():
        print(f"perfbench: no kernelscope package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    try:
        import kernelscope
        import spans
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program or its oracles: {exc}", file=sys.stderr)
        return 2
    if Path(kernelscope.__file__).resolve().parent != SRC / "kernelscope":
        print(f"perfbench: kernelscope imported from {kernelscope.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    modules = [kernelscope] + [getattr(kernelscope, m) for m in LAYER_MODULES]

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    OUT.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    if args.workload == "automatic_scan":
        workload = workloads.AutomaticScan(seed)
    elif args.workload == "regular_profile":
        workload = workloads.RegularProfile(seed, str(OUT))
    else:
        workload = workloads.AnalyticZeta(seed)

    setup = [] if args.trace else measure_setup()

    passes = []  # (wall seconds, traced, ledger, tracer)
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else None
        ledger = workloads.Ledger(tracer)
        gc.collect()
        with tracer.installed(modules) if traced else nullcontext():
            t0 = time.perf_counter()
            out = workload.run(ledger)
            wall = time.perf_counter() - t0
        workload.check(ledger, out)
        del out
        passes.append((wall, traced, ledger, tracer))
        # stop before a pass (an untraced and traced pair when tracing)
        # that would overrun the measuring time
        if args.trace and not traced:
            continue
        step = max(p[0] for p in passes) * (2 if args.trace else 1)
        if time.perf_counter() - start + step > args.seconds:
            break

    attempted = sum(p[2].attempted for p in passes)
    failed = sum(p[2].failed for p in passes)
    correct = all(p[2].correct for p in passes)
    plain = [p[0] for p in passes if not p[1]]
    causes: dict[str, int] = {}
    for p in passes:
        for label, texts in p[2].causes.items():
            for text in texts:
                key = f"{label}: {text}"
                causes[key] = causes.get(key, 0) + 1

    if args.trace:
        per_pass = [spans.layer_metrics(p[3].spans, p[0], p[2].check_errors_by_layer())
                    for p in passes if p[1]]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain)
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        span_file = OUT / f"spans-{args.workload}-seed{seed}.jsonl"
        with open(span_file, "w") as fh:
            for i, p in enumerate(q for q in passes if q[1]):
                p[3].write(fh, i)
    else:
        span_file = None
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "machine": machine_record(workload.computed_bytes),
        "passes": [{"wall_s": p[0], "traced": p[1], "attempted": p[2].attempted,
                    "failed": p[2].failed} for p in passes],
        "wall_s": {"median": statistics.median(plain), "passes": len(plain),
                   "tail": _tail_percentile(plain)},
        "setup_s_samples": setup,
        "failed_ratio": failed / attempted,
        "failed_checks": causes,
        "spans_file": None if span_file is None else str(span_file.relative_to(ROOT)),
    }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
