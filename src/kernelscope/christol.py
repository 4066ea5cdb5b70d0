"""Algebraicity probing over F_p via Cartier section operators.

The section with residue r sends sum a_n X^n to sum a_{pn+r} X^n: it is
the coefficient-side twin of kernel extraction in base p.  A power series
with p-automatic coefficients has a finite closed orbit under all p
sections; orbit growth on truncated data is therefore transcendence
evidence, never proof.  The orbit's depth l is the series
sum_n a_{p^l n + R} X^n for 0 <= R < p^l, the p-kernel of the
coefficients read from n = 0, so it is walked as kernel walks its kernel:
one block per depth (kernel._depth_windows).  A series of N coefficients
gives every series at depth l the width w_l = floor((N - p^l + 1) / p^l),
and depth l is compared on all w_l of them (at least MIN_WINDOW): a depth
too narrow for that ends the walk as inconclusive, so truncation can cost
a verdict but never shortens a comparison.

Coefficient index 0 is always 0: the source tables start at n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import CapacityError, DomainError
from .kernel import _depth_windows
from .seqgen import ValueTable, is_prime, residues

MIN_WINDOW = 32


def _check_prime(p: int) -> None:
    """Refuse p unless it is a prime below 2^31.  An orbit needs MIN_WINDOW
    p coefficients, more than any table the sieve builds (N < 2^31) holds
    once p >= 2^26, so the bound refuses no series that could have an
    orbit, and it caps the trial division at sqrt(2^31) steps."""
    if p >= 2**31:
        raise DomainError(f"p must be below 2^31, got {p}")
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class FpSeries:
    """Truncated power series over F_p, exact on all of ``coeffs``.  p is a
    prime below 2^31 and every coefficient lies in 0..p-1 (a DomainError
    otherwise)."""

    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_prime(self.p)
        if len(self.coeffs) < 1:
            raise DomainError("a series needs at least one coefficient")
        if self.coeffs.min() < 0 or self.coeffs.max() >= self.p:
            raise DomainError(f"coefficients must lie in 0..{self.p - 1}")
        self.coeffs.flags.writeable = False


def series_from_table(t: ValueTable, p: int, N: int) -> FpSeries:
    """Coefficients t(n) mod p for 1 <= n < N; coefficient 0 is 0."""
    _check_prime(p)  # before the reduction, which needs 2 <= p < 2^63
    if N < 2:
        raise DomainError(f"series length must be >= 2, got {N}")
    if N - 1 > t.N:
        raise CapacityError(f"series length {N} needs table values up to {N - 1}, "
                            f"table holds {t.N}")
    coeffs = residues(t.values[:N], p).astype(np.int64)
    coeffs[0] = 0
    return FpSeries(p=p, coeffs=coeffs)


@dataclass(frozen=True)
class OrbitReport:
    """Outcome of the depth-by-depth walk of the orbit under all p sections.

    verdict: "finite" (a depth added no class; ``size`` classes, the last
    found at ``depth``), "growing" (``size`` passed the budget at
    ``depth``), or "inconclusive" (the width past ``depth`` is below
    MIN_WINDOW; ``size`` classes through ``depth``).  ``window`` is the
    width of the last depth compared: no comparison used fewer
    coefficients, so the verdict is reproducible.  ``explored`` counts the
    windows read, ``counts`` the distinct classes through each depth read.
    """

    verdict: str
    p: int
    budget: int
    size: int
    depth: int
    window: int
    explored: int
    counts: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "p": self.p,
            "budget": self.budget,
            "size_or_depth": self.size if self.verdict != "inconclusive" else self.depth,
            "size": self.size,
            "depth": self.depth,
            "window": self.window,
            "explored": self.explored,
            "counts": list(self.counts),
        }


def orbit_explore(S: FpSeries, budget: int) -> OrbitReport:
    """Walk the orbit of S under the p sections, within a budget of
    distinct series.

    Depth l is read as one block, row R the first w_l coefficients of
    sum_n a_{p^l n + R} X^n, and each row is compared with every class
    found so far, cut to w_l.  The walk stops at the first depth that adds
    no class (finite), when the count passes ``budget`` (growing), or
    before a depth whose width is below MIN_WINDOW (inconclusive).
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    N, p = len(S.coeffs), S.p
    if N < MIN_WINDOW * p:
        raise DomainError(
            f"need at least {MIN_WINDOW * p} coefficients for one section "
            f"level, got {N}"
        )
    # the residues in their narrowest type: fewer bytes to copy and hash
    values = S.coeffs.astype(np.min_scalar_type(p - 1))
    reps = [values]  # one row per class, at the width it was found
    counts = [1]
    explored = 0

    def report(verdict: str, depth: int, window: int) -> OrbitReport:
        return OrbitReport(verdict=verdict, p=p, budget=budget, size=len(reps),
                           depth=depth, window=window, explored=explored,
                           counts=tuple(counts))

    window = N
    for l in count(1):
        w = (N - p**l + 1) // p**l
        if w < MIN_WINDOW:
            return report("inconclusive", l - 1, window)
        window = w
        seen = {rep[:w].tobytes() for rep in reps}
        for row in _depth_windows(values, p, l, w, 0):
            explored += 1
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                reps.append(row)
                if len(reps) > budget:
                    counts.append(len(reps))
                    return report("growing", l, w)
        counts.append(len(reps))
        if counts[-1] == counts[-2]:
            return report("finite", l - 1, w)


@dataclass(frozen=True)
class AlgebraicityVerdict:
    kind: str  # algebraic_evidence | transcendence_evidence | inconclusive
    size: int | None
    depth: int | None
    count: int | None
    window: int
    text: str

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "size": self.size,
            "depth": self.depth,
            "count": self.count,
            "window": self.window,
            "text": self.text,
        }


def algebraicity_verdict(report: OrbitReport) -> AlgebraicityVerdict:
    """Map an orbit report onto the evidence scale.

    Finite closed orbit is the algebraic/automatic side; orbit growth is
    transcendence evidence.  The text always cites the comparison window
    so the claim can be reproduced.
    """
    if report.verdict == "finite":
        return AlgebraicityVerdict(
            kind="algebraic_evidence", size=report.size, depth=None, count=None,
            window=report.window,
            text=(
                f"orbit closed at {report.size} series over F_{report.p} "
                f"(windows >= {report.window} coefficients)"
            ),
        )
    if report.verdict == "growing":
        return AlgebraicityVerdict(
            kind="transcendence_evidence", size=None, depth=report.depth,
            count=report.size, window=report.window,
            text=(
                f"orbit exceeded budget {report.budget} with {report.size} "
                f"distinct series at depth {report.depth} over F_{report.p} "
                f"(windows >= {report.window} coefficients)"
            ),
        )
    return AlgebraicityVerdict(
        kind="inconclusive", size=None, depth=report.depth, count=None,
        window=report.window,
        text=(
            f"depth {report.depth + 1} would compare fewer than {MIN_WINDOW} "
            f"coefficients; no verdict"
        ),
    )
