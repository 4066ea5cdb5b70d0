"""k-kernel enumeration and growth profiling.

The k-kernel of a sequence t is the family of subsequences
n -> t(k^l n + r) with l >= 0 and 0 <= r < k^l.  A finite kernel is the
automatic case; a kernel spanning a finite-rank space over Q is the
regular case.  Both sides are profiled here empirically: subsequences are
compared on a fixed window of M values starting at n = 1 (t(0) does not
exist for these functions), so every verdict records M and is evidence,
not proof.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError
from .seqgen import ValueTable


@dataclass(frozen=True)
class KernelElement:
    """One kernel subsequence: prefix[i] = t(k^l (i+1) + r), i = 0..M-1."""

    l: int
    r: int
    prefix: np.ndarray

    def __post_init__(self):
        self.prefix.flags.writeable = False


@dataclass(frozen=True)
class Verdict:
    """Outcome of a growth profile.

    kind is one of "saturated" (depth and size set), "window_capped"
    (likewise), "growing", or "inconclusive".  Saturation requires two
    consecutive depths that add nothing new; a single stable depth can be a
    small-M coincidence.  A profile that stalls at the largest value the
    window can hold is "window_capped": the window, not the kernel, stopped
    it.
    """

    kind: str
    depth: int | None = None
    size: int | None = None

    def __str__(self):
        if self.kind in ("saturated", "window_capped"):
            return f"{self.kind}_at({self.depth}, size={self.size})"
        return self.kind

    def to_json(self) -> dict:
        return {"kind": self.kind, "depth": self.depth, "size": self.size}


def _classify(counts: list[int], L: int, cap: int | None) -> Verdict:
    """Classify a profile; ``cap`` is the largest value it can reach."""
    for d in range(1, L):
        if counts[d] == counts[d - 1] and counts[d + 1] == counts[d]:
            capped = cap is not None and counts[d] >= cap
            kind = "window_capped" if capped else "saturated"
            return Verdict(kind, depth=d, size=counts[d])
    if all(counts[d] > counts[d - 1] for d in range(1, L + 1)):
        return Verdict("growing")
    return Verdict("inconclusive")


@dataclass(frozen=True)
class KernelProfile:
    k: int
    M: int
    L: int
    distinct_counts: tuple[int, ...]
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "M": self.M,
            "L": self.L,
            "counts": list(self.distinct_counts),
            "verdict": self.verdict.to_json(),
        }

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["depth", "count"])
        for d, c in enumerate(self.distinct_counts):
            w.writerow([d, c])


@dataclass(frozen=True)
class RankProfile:
    k: int
    M: int
    L: int
    ranks: tuple[int, ...]
    verdict: Verdict

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "M": self.M,
            "L": self.L,
            "ranks": list(self.ranks),
            "verdict": self.verdict.to_json(),
        }

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["depth", "rank"])
        for d, c in enumerate(self.ranks):
            w.writerow([d, c])


def _validate_geometry(t: ValueTable, k: int, l: int, r: int, M: int) -> None:
    if k < 2:
        raise DomainError(f"base k must be >= 2, got {k}")
    if l < 0:
        raise DomainError(f"depth must be >= 0, got {l}")
    if not 0 <= r < k**l:
        raise DomainError(f"residue must satisfy 0 <= r < k^l, got r={r}, k^l={k**l}")
    if M < 1:
        raise DomainError(f"window length must be >= 1, got {M}")
    need = k**l * M + r
    if need > t.N:
        raise CapacityError(
            f"kernel element (l={l}, r={r}) with window {M} needs table length "
            f">= {need}, have {t.N}"
        )


def kernel_element(t: ValueTable, k: int, l: int, r: int, M: int) -> KernelElement:
    """Extract the window of the kernel subsequence at depth l, residue r."""
    _validate_geometry(t, k, l, r, M)
    step = k**l
    idx = step * np.arange(1, M + 1, dtype=np.int64) + r
    return KernelElement(l=l, r=r, prefix=t.values[idx].copy())


def _enumerate_distinct(t: ValueTable, k: int, L: int, M: int):
    """All (l, r) up to depth L, deduplicated by exact window comparison.

    Returns (representatives, counts): representatives holds the
    first-seen (l, r, prefix) of each distinct window in breadth-first
    order; counts[d] is the number of distinct windows at depth <= d.
    Dict keys are the raw window bytes, so hash collisions still fall
    back to full content comparison.
    """
    if L < 0:
        raise DomainError(f"max depth must be >= 0, got {L}")
    _validate_geometry(t, k, L, k**L - 1, M)
    reps: dict[bytes, int] = {}
    rep_list: list[tuple[int, int, np.ndarray]] = []
    counts: list[int] = []
    for l in range(L + 1):
        for r in range(k**l):
            el = kernel_element(t, k, l, r, M)
            key = el.prefix.tobytes()
            if key not in reps:
                reps[key] = len(rep_list)
                rep_list.append((l, r, el.prefix))
        counts.append(len(rep_list))
    return rep_list, counts


def _distinct_cap(t: ValueTable, k: int, L: int, M: int) -> int | None:
    """Most distinct windows of width M over the values the profile reads.

    That is |alphabet|^M.  A one-value region gives one window at every
    width, so no width is to blame for it and there is no cap.
    """
    letters = len(np.unique(t.values[1 : k**L * (M + 1)]))
    return letters**M if letters > 1 else None


def kernel_profile(t: ValueTable, k: int, L: int, M: int) -> KernelProfile:
    """Count distinct kernel windows per depth and classify the growth."""
    _, counts = _enumerate_distinct(t, k, L, M)
    verdict = _classify(counts, L, _distinct_cap(t, k, L, M))
    return KernelProfile(k=k, M=M, L=L, distinct_counts=tuple(counts), verdict=verdict)


class _RationalRowSpace:
    """Incremental exact row space over Q with integer arithmetic.

    Rows are kept fraction-free: elimination uses cross-multiplication and
    each stored row is divided by its content (gcd).  Rank is the verdict
    here, so no floating point is allowed anywhere.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple[int, list[int]]] = []  # (pivot col, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _normalize(row: list[int]) -> list[int]:
        g = 0
        for x in row:
            g = math.gcd(g, x)
            if g == 1:
                return row
        return row if g <= 1 else [x // g for x in row]

    def add(self, row) -> bool:
        """Reduce ``row`` against the basis; returns True if rank grew.

        Every stored row is kept with zeros at all other pivot columns,
        so one reduction pass suffices for membership testing.
        """
        r = [int(x) for x in row]
        for pc, base in self.rows:
            if r[pc]:
                a, b = base[pc], r[pc]
                r = self._normalize([x * a - y * b for x, y in zip(r, base)])
        r = self._normalize(r)
        for pc, x in enumerate(r):
            if x:
                for i, (opc, obase) in enumerate(self.rows):
                    if obase[pc]:
                        a, b = r[pc], obase[pc]
                        self.rows[i] = (
                            opc,
                            self._normalize(
                                [y * a - x_ * b for y, x_ in zip(obase, r)]
                            ),
                        )
                self.rows.append((pc, r))
                self.rows.sort(key=lambda e: e[0])
                return True
        return False


def rank_profile(t: ValueTable, k: int, L: int, M: int) -> RankProfile:
    """Rank over Q of the stacked kernel windows, cumulatively per depth."""
    if L < 0:
        raise DomainError(f"max depth must be >= 0, got {L}")
    _validate_geometry(t, k, L, k**L - 1, M)
    space = _RationalRowSpace(M)
    ranks: list[int] = []
    for l in range(L + 1):
        for r in range(k**l):
            el = kernel_element(t, k, l, r, M)
            space.add(el.prefix)
        ranks.append(space.rank)
    return RankProfile(
        k=k, M=M, L=L, ranks=tuple(ranks), verdict=_classify(ranks, L, cap=M)
    )


@dataclass(frozen=True)
class DensityEstimate:
    """Occurrence frequency of one value on a prefix, with the best
    small-denominator rational nearby.  Evidence only, never a verdict."""

    X: int
    count: int
    density: float
    approx: Fraction
    residual: float

    def to_json(self) -> dict:
        return {
            "X": self.X,
            "count": self.count,
            "density": self.density,
            "approx_num": self.approx.numerator,
            "approx_den": self.approx.denominator,
            "residual": self.residual,
        }


def value_density(
    t: ValueTable, v: int, prefix_lengths: list[int], max_denominator: int = 64
) -> list[DensityEstimate]:
    """#{n <= X : t(n) = v} / X for each X, with a rational approximation."""
    out = []
    for X in prefix_lengths:
        if not 1 <= X <= t.N:
            raise CapacityError(f"prefix length {X} outside table range 1..{t.N}")
        count = int(np.count_nonzero(t.values[1 : X + 1] == v))
        exact = Fraction(count, X)
        approx = exact.limit_denominator(max_denominator)
        out.append(
            DensityEstimate(
                X=X,
                count=count,
                density=count / X,
                approx=approx,
                residual=abs(float(exact - approx)),
            )
        )
    return out


def profile_to_json_str(profile) -> str:
    return json.dumps(profile.to_json(), indent=2)
