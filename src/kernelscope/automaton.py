"""Linear representations U_{kn+r} = A_r U_n built from saturated kernels.

A saturated kernel profile yields one coordinate per distinct kernel
subsequence; the digit matrices A_0..A_{k-1} are then row-selection
matrices (exactly one 1 per row) and the first coordinate reproduces the
source sequence.  The averaged matrix (1/k) sum_r A_r drives the
Dirichlet-series continuation: its eigenvalues generate the candidate
pole lattice s = log(alpha)/log(k) + (2 pi i / log k) m - l + 1.

Indexing convention: digits r run over 0..k-1 and the recursion holds for
n >= 1; the finitely many indices 1..k-1 below the recursion are carried
as seed vectors.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import (
    ConstructionError,
    DomainError,
    PrecisionError,
    VerdictError,
)
from .kernel import _classify, _distinct_cap, _enumerate_distinct, kernel_element
from .seqgen import ValueTable


@dataclass(frozen=True)
class LinearRepresentation:
    """Matrix form of a sequence: U_{kn+r} = A_r U_n for n >= 1.

    seeds[b-1] is the vector U_b for b = 1..k-1 (U_1 alone when k = 2).
    labels[i] is the (l, r) kernel element coordinate i represents.
    ``automatic`` marks row-selection mode; hand-built representations
    with general integer matrices model the regular case.
    ``growth`` is a pair (C, d) with |U_n|_inf <= C n^d, used for
    Dirichlet tail bounds.
    """

    k: int
    dim: int
    matrices: tuple[np.ndarray, ...]
    seeds: np.ndarray
    output_coord: int
    labels: tuple[tuple[int, int], ...]
    verified_to: int
    automatic: bool
    growth: tuple[float, float]

    def __post_init__(self):
        if len(self.matrices) != self.k:
            raise ConstructionError(f"need {self.k} digit matrices")
        for a in self.matrices:
            if a.shape != (self.dim, self.dim):
                raise ConstructionError("matrix shape mismatch")
            a.flags.writeable = False
        if self.seeds.shape != (self.k - 1, self.dim):
            raise ConstructionError("need seed vectors U_1..U_{k-1}")
        self.seeds.flags.writeable = False

    def row_selection_ok(self) -> bool:
        """True when every matrix row has exactly one 1 and rest 0."""
        for a in self.matrices:
            if not np.all((a == 0) | (a == 1)):
                return False
            if not np.all(a.sum(axis=1) == 1):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "t": self.dim,
            "matrices": [a.flatten().tolist() for a in self.matrices],
            "seeds": self.seeds.tolist(),
            "output_coord": self.output_coord,
            "labels": [list(lab) for lab in self.labels],
            "verified_to": self.verified_to,
            "automatic": self.automatic,
            "growth": list(self.growth),
        }


def rep_from_json(doc: dict) -> LinearRepresentation:
    k, dim = doc["k"], doc["t"]
    mats = tuple(
        np.array(m, dtype=np.int64).reshape(dim, dim) for m in doc["matrices"]
    )
    return LinearRepresentation(
        k=k,
        dim=dim,
        matrices=mats,
        seeds=np.array(doc["seeds"], dtype=np.int64).reshape(k - 1, dim),
        output_coord=doc["output_coord"],
        labels=tuple((int(a), int(b)) for a, b in doc["labels"]),
        verified_to=doc["verified_to"],
        automatic=doc["automatic"],
        growth=(float(doc["growth"][0]), float(doc["growth"][1])),
    )


def build_representation(t: ValueTable, k: int, L: int, M: int) -> LinearRepresentation:
    """Construct the representation induced by a saturated kernel.

    Coordinates are the distinct kernel windows in first-seen order, so
    coordinate 0 is the (0, 0) element (the sequence itself).  A_r sends
    coordinate (l, r') to the coordinate matching the refinement
    (l+1, r' + r k^l); the result is verified against the table up to
    min(t.N, k M).
    """
    if M < k:
        raise DomainError(f"window must cover the seeds: need M >= k = {k}")
    reps, counts = _enumerate_distinct(t, k, L, M)
    verdict = _classify(counts, L, partial(_distinct_cap, t, k, L, M))
    if verdict.kind != "saturated":
        raise VerdictError(
            f"kernel profile of {t.id} is {verdict}; a saturated kernel is required"
        )
    by_key = {prefix.tobytes(): i for i, (_, _, prefix) in enumerate(reps)}
    dim = len(reps)
    mats = [np.zeros((dim, dim), dtype=np.int64) for _ in range(k)]
    for i, (l, r0, _) in enumerate(reps):
        for r in range(k):
            target = kernel_element(t, k, l + 1, r0 + r * k**l, M)
            j = by_key.get(target.prefix.tobytes())
            if j is None:
                raise ConstructionError(
                    f"refinement (l={l + 1}, r={r0 + r * k**l}) of coordinate {i} "
                    "matches no distinct kernel window; saturation was spurious "
                    "at this window length"
                )
            mats[r][i, j] = 1
    seeds = np.empty((k - 1, dim), dtype=np.int64)
    for b in range(1, k):
        for i, (_, _, prefix) in enumerate(reps):
            seeds[b - 1, i] = prefix[b - 1]
    value_bound = float(max(1, max(int(np.abs(p).max()) for _, _, p in reps)))
    rep = LinearRepresentation(
        k=k,
        dim=dim,
        matrices=tuple(mats),
        seeds=seeds,
        output_coord=0,
        labels=tuple((l, r) for l, r, _ in reps),
        verified_to=min(t.N, k * M),
        automatic=True,
        growth=(value_bound, 0.0),
    )
    _verify_against_table(rep, t, reps, M)
    return rep


def _verify_against_table(rep, t, reps, M):
    # vector-level check: columns of P are U_n on the window
    P = np.stack([prefix for _, _, prefix in reps])
    for r in range(rep.k):
        m_r = (M - r) // rep.k
        if m_r < 1:
            continue
        lhs = rep.matrices[r] @ P[:, :m_r]
        cols = rep.k * np.arange(1, m_r + 1) + r - 1
        if not np.array_equal(lhs, P[:, cols]):
            raise ConstructionError(
                f"vector recursion check failed for digit {r} of {t.id}"
            )
    got = vector_values(rep, rep.verified_to)[1:, rep.output_coord]
    wrong = np.flatnonzero(got != t.values[1 : rep.verified_to + 1])
    if len(wrong):
        raise ConstructionError(
            f"representation of {t.id} disagrees with the table at n={wrong[0] + 1}"
        )


def vector_values(rep: LinearRepresentation, N: int) -> np.ndarray:
    """U_1..U_N as an (N+1, dim) array, exact in the matrices' integer type.

    Row 0 is zero.  When the growth bound C N^d does not fit int64 the
    array is float64 instead, so large values round rather than wrap.
    Filled one digit length at a time: the indices k q + r for q in
    [k^j, k^{j+1}) read only rows finished before.
    """
    k = rep.k
    C, d = rep.growth
    exact = C * max(N, 1) ** d < 2**63
    dtype = np.result_type(rep.seeds, *rep.matrices) if exact else np.float64
    out = np.zeros((N + 1, rep.dim), dtype=dtype)
    top = min(k - 1, N)
    out[1 : top + 1] = rep.seeds[:top]
    lo = 1
    while k * lo <= N:
        for r in range(k):
            hi = min(k * lo, (N - r) // k + 1)
            out[k * lo + r : k * hi + r - k + 1 : k] = out[lo:hi] @ rep.matrices[r].T
        lo *= k
    return out


def evaluate(rep: LinearRepresentation, n: int) -> int:
    """Value at n by peeling base-k digits down to a seed vector."""
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    digits = []
    m = n
    while m >= rep.k:
        m, r = divmod(m, rep.k)
        digits.append(r)
    u = rep.seeds[m - 1].copy()
    for r in reversed(digits):
        u = rep.matrices[r] @ u
    return int(u[rep.output_coord])


def average_matrix(rep: LinearRepresentation) -> list[list[Fraction]]:
    """Exact (1/k) sum of the digit matrices."""
    k = rep.k
    return [
        [
            Fraction(sum(int(a[i, j]) for a in rep.matrices), k)
            for j in range(rep.dim)
        ]
        for i in range(rep.dim)
    ]


def char_poly(mat: list[list[Fraction]]) -> list[Fraction]:
    """Coefficients c_0..c_n of det(xI - A), exact over Q.

    Faddeev-LeVerrier recursion; divisions are by integers only, so
    Fraction arithmetic stays exact.
    """
    n = len(mat)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m_cur = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for step in range(1, n + 1):
        am = [
            [sum(mat[i][l] * m_cur[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) / step
        coeffs[n - step] = c
        m_cur = [
            [am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)
        ]
    return coeffs


def eval_poly(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class LatticePoint:
    s: complex
    alpha_index: int
    m: int
    l: int


@dataclass(frozen=True)
class PoleLattice:
    """Candidate pole set from the averaged matrix's eigenvalues.

    Points satisfy s = log(alpha)/log(k) + (2 pi i / log k) m - l + 1 for
    |m| <= m_max and 0 <= l <= l_max; eigenvalues at 0 contribute nothing
    and are listed in ``skipped``.  ``char_coeffs`` is the exact rational
    characteristic polynomial of the averaged matrix, low degree first,
    so membership of eigenvalue 1 can be certified without floats.
    """

    k: int
    eigenvalues: tuple[complex, ...]
    skipped: tuple[int, ...]
    points: tuple[LatticePoint, ...]
    m_max: int
    l_max: int
    char_coeffs: tuple[Fraction, ...]

    def contains(self, s: complex, tol: float = 1e-9) -> bool:
        return any(abs(p.s - s) <= tol for p in self.points)

    def in_rectangle(self, a: float, b: float, T: float) -> list[LatticePoint]:
        eps = 1e-12
        return [
            p
            for p in self.points
            if a - eps <= p.s.real <= b + eps and -eps <= p.s.imag <= T + eps
        ]

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["re", "im", "alpha_index", "m", "l"])
        for p in self.points:
            w.writerow([repr(p.s.real), repr(p.s.imag), p.alpha_index, p.m, p.l])

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "skipped": list(self.skipped),
            "m_max": self.m_max,
            "l_max": self.l_max,
            "char_poly": [str(c) for c in self.char_coeffs],
            "points": [
                {"re": p.s.real, "im": p.s.imag, "alpha_index": p.alpha_index,
                 "m": p.m, "l": p.l}
                for p in self.points
            ],
        }


def pole_lattice(
    rep: LinearRepresentation, m_max: int, l_max: int, zero_tol: float = 1e-10
) -> PoleLattice:
    """Enumerate candidate poles from eigenvalues of the averaged matrix."""
    if m_max < 0 or l_max < 0:
        raise DomainError("m_max and l_max must be >= 0")
    avg = average_matrix(rep)
    coeffs = char_poly(avg)
    avg_f = np.array([[float(x) for x in row] for row in avg])
    try:
        eigs = np.linalg.eigvals(avg_f)
    except np.linalg.LinAlgError as exc:
        raise PrecisionError(f"eigensolver failed to converge: {exc}") from exc
    # exact certification: if 1 is a root of the characteristic polynomial,
    # snap the closest numerical eigenvalue to exactly 1
    if eval_poly(coeffs, Fraction(1)) == 0:
        i = int(np.argmin(np.abs(eigs - 1.0)))
        eigs[i] = 1.0
    logk = math.log(rep.k)
    points = []
    skipped = []
    for idx, alpha in enumerate(eigs):
        if abs(alpha) <= zero_tol:
            skipped.append(idx)
            continue
        base = cmath.log(alpha) / logk + 1
        for m in range(-m_max, m_max + 1):
            for l in range(l_max + 1):
                s = base + (2j * math.pi / logk) * m - l
                points.append(LatticePoint(s=s, alpha_index=idx, m=m, l=l))
    return PoleLattice(
        k=rep.k,
        eigenvalues=tuple(complex(z) for z in eigs),
        skipped=tuple(skipped),
        points=tuple(points),
        m_max=m_max,
        l_max=l_max,
        char_coeffs=tuple(coeffs),
    )


def rep_to_json_str(rep: LinearRepresentation) -> str:
    return json.dumps(rep.to_json(), indent=2)
