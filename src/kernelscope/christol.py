"""Algebraicity probing over F_p via Cartier section operators.

The section with residue r sends sum a_n X^n to sum a_{pn+r} X^n: it is
the coefficient-side twin of kernel extraction in base p.  A power series
with p-automatic coefficients has a finite closed orbit under all p
sections; orbit growth on truncated data is therefore transcendence
evidence, never proof.  Truncation is tracked by a reliable length that
shrinks by a factor p per section, and two series are only ever compared
on their common reliable window (minimum 32 coefficients), so truncation
can cause an inconclusive verdict but never a false merge.

Coefficient index 0 is always 0: the source tables start at n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ExhaustionError
from .seqgen import ValueTable, is_prime, residues

MIN_WINDOW = 32


def _check_prime(p: int) -> None:
    """Refuse p unless it is a prime below 2^31.  A section needs MIN_WINDOW
    p coefficients, more than any table the sieve builds (N < 2^31) holds
    once p >= 2^26, so the bound refuses no series that could have a
    section, and it caps the trial division at sqrt(2^31) steps."""
    if p >= 2**31:
        raise DomainError(f"p must be below 2^31, got {p}")
    if not is_prime(p):
        raise DomainError(f"p must be prime, got {p}")


@dataclass(frozen=True)
class FpSeries:
    """Truncated power series over F_p, exact on all of ``coeffs``: the
    reliable window is the coefficients themselves.  p is a prime below
    2^31 (a DomainError otherwise)."""

    p: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_prime(self.p)
        if len(self.coeffs) < 1:
            raise DomainError("a series needs at least one coefficient")
        self.coeffs.flags.writeable = False

    @property
    def reliable_len(self) -> int:
        return len(self.coeffs)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "reliable_len": self.reliable_len,
            "coeffs": [int(c) for c in self.coeffs],
        }


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


def cartier_section(S: FpSeries, r: int) -> FpSeries:
    """coeffs'[n] = coeffs[p n + r]; the reliable window shrinks by 1/p."""
    if not 0 <= r < S.p:
        raise DomainError(f"section residue must satisfy 0 <= r < {S.p}, got {r}")
    new_len = max(0, (S.reliable_len - r) // S.p)
    if new_len < MIN_WINDOW:
        raise ExhaustionError(
            f"section would leave {new_len} reliable coefficients, below the "
            f"minimum comparison window {MIN_WINDOW}"
        )
    return FpSeries(p=S.p, coeffs=S.coeffs[r : r + S.p * new_len : S.p].copy())


@dataclass(frozen=True)
class OrbitReport:
    """Outcome of breadth-first closure under all p sections.

    verdict: "finite" (closed; ``size`` set), "growing" (budget
    exceeded; ``size`` and ``depth`` set), or "inconclusive" (reliable
    window exhausted at ``depth``).  ``window`` is the smallest reliable
    length of S and of every explored child; no comparison used fewer
    coefficients, so the verdict is reproducible.
    """

    verdict: str
    p: int
    budget: int
    size: int
    depth: int
    window: int
    explored: int

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
        }


def orbit_explore(S: FpSeries, budget: int) -> OrbitReport:
    """Close {S} under the p sections, within a budget of distinct elements.

    Every compared pair shares a reliable window of at least MIN_WINDOW:
    S holds MIN_WINDOW * p reliable coefficients and ``cartier_section``
    refuses any child with fewer than MIN_WINDOW.  Series that match
    therefore agree on their first MIN_WINDOW coefficients, so those bytes
    key the representatives, and a child is compared, on the common
    reliable window, only with the representatives under its own key.
    """
    if budget < 1:
        raise DomainError(f"budget must be >= 1, got {budget}")
    if S.reliable_len < MIN_WINDOW * S.p:
        raise DomainError(
            f"need reliable length >= {MIN_WINDOW * S.p} for at least one "
            f"section level, got {S.reliable_len}"
        )
    buckets: dict[bytes, list[FpSeries]] = {S.coeffs[:MIN_WINDOW].tobytes(): [S]}
    # the representatives in breadth-first order; the loop visits each once
    orbit: list[tuple[FpSeries, int]] = [(S, 0)]
    window = S.reliable_len
    explored = 0
    for cur, depth in orbit:
        for r in range(S.p):
            try:
                child = cartier_section(cur, r)
            except ExhaustionError:
                return OrbitReport(
                    verdict="inconclusive", p=S.p, budget=budget,
                    size=len(orbit), depth=depth, window=window,
                    explored=explored,
                )
            explored += 1
            window = min(window, child.reliable_len)
            bucket = buckets.setdefault(child.coeffs[:MIN_WINDOW].tobytes(), [])
            for rep in bucket:
                w = min(child.reliable_len, rep.reliable_len)
                if np.array_equal(child.coeffs[:w], rep.coeffs[:w]):
                    break
            else:
                bucket.append(child)
                orbit.append((child, depth + 1))
                if len(orbit) > budget:
                    return OrbitReport(
                        verdict="growing", p=S.p, budget=budget,
                        size=len(orbit), depth=depth + 1,
                        window=window, explored=explored,
                    )
    return OrbitReport(
        verdict="finite", p=S.p, budget=budget, size=len(orbit),
        depth=orbit[-1][1], window=window, explored=explored,
    )


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
            f"reliable window fell below {MIN_WINDOW} coefficients at depth "
            f"{report.depth}; no verdict"
        ),
    )
