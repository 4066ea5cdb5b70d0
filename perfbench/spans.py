"""In-memory call spans around kernelscope's layer boundaries.

A ``Tracer`` wraps the package's functions from the benchmark's own code;
nothing under ``src/`` changes.  While ``installed`` is active, every
public function of every layer module, and every name one module imports
from another, is replaced by a wrapper that records a span: name, layer,
start, end, parent span and investigation id, plus work counters read
from the returned object.  Leaving the context restores the originals.

Layers are the package modules.  A span's exclusive time is its duration
minus its direct children's durations, so the exclusive times of all
spans plus the benchmark's own time add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from contextlib import contextmanager

LAYERS = ("seqgen", "kernel", "automaton", "dirichlet", "zeta", "christol", "cli")

# Per-sample helpers a layer calls tens of thousands of times from its own
# loops: kernel_element per kernel window, hardy_z and rs_theta per
# critical-line sample.  A span around each call would dominate the traced
# time of the calling function without moving any time between layers.
# Names other modules import (automaton's kernel_element) stay wrapped, and
# so does zeta_em, whose calls and terms are counters of their own.
_UNWRAPPED = {("kernel", "kernel_element"), ("zeta", "hardy_z"), ("zeta", "rs_theta")}


class Span:
    __slots__ = ("name", "layer", "inv", "parent", "start", "end", "raised", "counters")

    def __init__(self, name, layer, inv, parent):
        self.name = name
        self.layer = layer
        self.inv = inv
        self.parent = parent
        self.start = self.end = 0.0
        self.raised = False
        self.counters = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _windows(k: int, L: int) -> int:
    return sum(k**l for l in range(L + 1))


def rank_capped(profile) -> bool:
    """A saturated rank verdict at the window width M: the rank cannot
    exceed M, so the stall says nothing about the kernel."""
    return profile.verdict.kind == "saturated" and profile.verdict.size >= profile.M


def _kernel_profile(p, args, kwargs):
    return {"windows": _windows(p.k, p.L), "distinct": p.distinct_counts[-1]}


def _enumerate_distinct(res, args, kwargs):
    _, counts = res
    k, L = args[1], args[2]
    return {"windows": _windows(k, L), "distinct": counts[-1]}


def _rank_profile(p, args, kwargs):
    return {"rows": _windows(p.k, p.L), "rank": p.ranks[-1],
            "capped": int(rank_capped(p))}


def _eval_results(results):
    return {
        "points": len(results),
        "refused": sum(r.near_singular for r in results),
        "offset": sum(r.offset_averaged for r in results),
        "truncated": sum(r.truncated for r in results),
        "terms": sum(r.terms or 0 for r in results),
    }


def _cli_run(code, args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    size = os.path.getsize(out) if out and code == 0 and os.path.exists(out) else 0
    return {"bytes": size, "code": code}


# counters read from the object a call returns, keyed by span name
COUNTERS = {
    "seqgen.build_factor_table": lambda r, a, kw: {"bytes": r.spf.nbytes + r.primes.nbytes},
    "seqgen.generate": lambda r, a, kw: {"entries": r.N, "bytes": r.values.nbytes},
    "seqgen.reduce_mod": lambda r, a, kw: {"bytes": r.values.nbytes},
    "kernel.kernel_profile": _kernel_profile,
    "kernel._enumerate_distinct": _enumerate_distinct,
    "kernel.rank_profile": _rank_profile,
    "automaton.build_representation": lambda r, a, kw: {"verified": r.verified_to},
    "dirichlet.continue_column": lambda r, a, kw: _eval_results(r),
    "dirichlet.continue_via_recursion": lambda r, a, kw: _eval_results([r]),
    "dirichlet.pole_scan": lambda r, a, kw: {"points": len(r.points)},
    "zeta.zeta_em": lambda r, a, kw: {"terms": r.terms_used},
    "christol.orbit_explore": lambda r, a, kw: {"explored": r.explored, "size": r.size},
    "cli.run": _cli_run,
}


class Tracer:
    """Collects spans of one traced pass, in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.investigation = ""

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        derive = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, self.investigation,
                        self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if derive is not None:
                span.counters = derive(result, args, kwargs)
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Wrap the layer functions reachable through ``modules``."""
        patched = []
        try:
            for mod in modules:
                home = mod.__name__.rpartition(".")[2]
                for attr, obj in list(vars(mod).items()):
                    if not inspect.isfunction(obj):
                        continue
                    owner = obj.__module__.rpartition(".")[2]
                    if owner not in LAYERS:
                        continue
                    if owner == home and (attr.startswith("_") or (owner, attr) in _UNWRAPPED):
                        continue
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(owner, obj))
            yield self
        finally:
            for mod, attr, obj in reversed(patched):
                setattr(mod, attr, obj)

    def write(self, fh, pass_index: int) -> None:
        """One JSON array per span: pass, name, investigation, start and end
        (seconds from the first span), parent index, raised."""
        t0 = self.spans[0].start if self.spans else 0.0
        for s in self.spans:
            fh.write(json.dumps([pass_index, s.name, s.inv, round(s.start - t0, 7),
                                 round(s.end - t0, 7), s.parent, s.raised]) + "\n")


def layer_metrics(spans: list[Span], wall: float, ledger_errors: dict[str, int]) -> dict:
    """Per-layer metrics of one traced pass of ``wall`` seconds."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)

    def ancestors(i):
        p = spans[i].parent
        while p >= 0:
            yield spans[p]
            p = spans[p].parent

    def exclusive(i):
        return spans[i].duration - sum(spans[c].duration for c in children[i])

    def own_layer(i):
        # duration minus the subtrees of the nearest spans of other layers
        layer = spans[i].layer
        t = spans[i].duration
        todo = list(children[i])
        while todo:
            c = todo.pop()
            if spans[c].layer == layer:
                todo.extend(children[c])
            else:
                t -= spans[c].duration
        return t

    def named(*names, outermost=True):
        out = []
        for i, s in enumerate(spans):
            if s.name in names and not (
                outermost and any(a.name in names for a in ancestors(i))
            ):
                out.append(i)
        return out

    def total(idx, key):
        return sum((spans[i].counters or {}).get(key, 0) for i in idx)

    def dur(idx):
        return sum(spans[i].duration for i in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_by_layer[s.layer] += exclusive(i)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
        raised = sum(s.raised for s in spans if s.layer == layer)
        m[f"{layer}.errors"] = raised + ledger_errors.get(layer, 0)

    gen = named("seqgen.generate")
    made = named("seqgen.build_factor_table", "seqgen.generate", "seqgen.reduce_mod")
    m["seqgen.sieve_s"] = dur(named("seqgen.build_factor_table"))
    m["seqgen.generate_s"] = dur(gen)
    m["seqgen.entries"] = total(gen, "entries")
    m["seqgen.entries_per_s"] = ratio(m["seqgen.entries"], m["seqgen.generate_s"])
    m["seqgen.table_mib"] = total(made, "bytes") / 2**20

    prof = named("kernel.kernel_profile", "kernel._enumerate_distinct")
    rank = named("kernel.rank_profile")
    m["kernel.profile_s"] = dur(prof)
    m["kernel.rank_s"] = dur(rank)
    m["kernel.windows"] = total(prof, "windows")
    m["kernel.distinct_ratio"] = ratio(total(prof, "distinct"), m["kernel.windows"])
    m["kernel.rank_rows"] = total(rank, "rows")
    m["kernel.rank_yield"] = ratio(total(rank, "rank"), m["kernel.rank_rows"])
    m["kernel.capped_verdicts"] = total(rank, "capped")

    builds = named("automaton.build_representation")
    m["automaton.build_s"] = sum(own_layer(i) for i in builds)
    m["automaton.verified_n"] = total(builds, "verified")
    m["automaton.lattice_s"] = dur(named("automaton.pole_lattice"))

    scans = named("dirichlet.pole_scan")
    scalar = [i for i in named("dirichlet.continue_via_recursion")
              if not any(a.layer == "dirichlet" for a in ancestors(i))]
    evals = named("dirichlet.continue_column", outermost=False) + scalar
    points = total(evals, "points")
    m["dirichlet.scan_s"] = sum(own_layer(i) for i in scans)
    m["dirichlet.scan_points"] = total(scans, "points")
    m["dirichlet.points_per_s"] = ratio(m["dirichlet.scan_points"], m["dirichlet.scan_s"])
    m["dirichlet.scalar_s"] = sum(own_layer(i) for i in scalar)
    m["dirichlet.scalar_calls"] = len(scalar)
    m["dirichlet.refused_ratio"] = ratio(total(evals, "refused"), points)
    m["dirichlet.offset_avg_ratio"] = ratio(total(evals, "offset"), points)
    m["dirichlet.truncated_ratio"] = ratio(total(evals, "truncated"), points)
    m["dirichlet.direct_terms"] = total(evals, "terms")
    m["dirichlet.identity_s"] = sum(own_layer(i) for i in named("dirichlet.verify_identity"))

    count_names = ("zeta.zero_count_report", "zeta.zero_count", "zeta.tlogt_ratio_table")
    counting = named(*count_names)
    zeros = named("zeta.critical_line_zeros")
    nested_zeros = [i for i in zeros if any(a.name in count_names for a in ancestors(i))]
    em = named("zeta.zeta_em", outermost=False)
    m["zeta.count_s"] = dur(counting) - dur(nested_zeros)
    m["zeta.zeros_s"] = dur(zeros)
    m["zeta.em_calls"] = len(em)
    m["zeta.em_s"] = dur(em)
    m["zeta.em_terms"] = total(em, "terms")

    orbits = named("christol.orbit_explore")
    m["christol.orbit_s"] = dur(orbits)
    m["christol.explored"] = total(orbits, "explored")
    m["christol.new_ratio"] = ratio(total(orbits, "size"), m["christol.explored"])

    m["cli.bytes_out"] = total(named("cli.run"), "bytes")

    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    m["bench.self_s"] = wall - dur(roots)
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    return m
