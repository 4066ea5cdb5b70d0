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

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import CapacityError, DomainError
from .seqgen import ValueTable, _blocks, _largest_abs, is_prime, write_rows


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
    (likewise), "growing", or "inconclusive".  Saturation at depth d means
    the count is flat from depth d - 1 through the last depth L, with
    d <= L - 1: at least two depths add nothing new (a single stable depth
    can be a small-M coincidence) and none adds anything after them.  A
    profile that stalls at the largest value the window can hold is
    "window_capped": the window, not the kernel, stopped it.
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


def _classify(counts: list[int], L: int, cap: Callable[[], int | None]) -> Verdict:
    """Classify a non-decreasing profile; ``cap()`` is the largest value it
    can reach, asked for only when the counts stall.  With j the first
    depth whose count equals counts[L], the stall is at d = j + 1 if
    d <= L - 1; a stall the count rises after means M is too short to
    resolve the kernel and gives no verdict.  A single depth (L = 0) shows
    neither growth nor a stall."""
    if L == 0:
        return Verdict("inconclusive")
    d = counts.index(counts[L]) + 1
    if d <= L - 1:
        limit = cap()
        capped = limit is not None and counts[L] >= limit
        kind = "window_capped" if capped else "saturated"
        return Verdict(kind, depth=d, size=counts[L])
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
        write_rows(fh, ["depth", "count"], enumerate(self.distinct_counts))


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
        write_rows(fh, ["depth", "rank"], enumerate(self.ranks))


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

    Returns ((representatives, classes), counts): representatives holds
    the first-seen (l, r, key) of each distinct window in breadth-first
    order, key being the window's raw bytes in the table's type (read back
    by _window_rows), classes[l][r] is the index there of the window of
    (l, r), and counts[d] is the number of distinct windows at depth <= d.
    The keys are also the dict keys, so hash collisions still fall back to
    full content comparison, and each distinct window is held once, as
    its key; each depth's block is dropped after its pass.
    """
    if L < 0:
        raise DomainError(f"max depth must be >= 0, got {L}")
    _validate_geometry(t, k, L, k**L - 1, M)
    seen: dict[bytes, int] = {}
    rep_list: list[tuple[int, int, bytes]] = []
    classes: list[list[int]] = []
    counts: list[int] = []
    for l in range(L + 1):
        block = _depth_windows(t.values, k, l, M, 1)
        classes.append([])
        for r, row in enumerate(block):
            key = row.tobytes()
            c = seen.setdefault(key, len(rep_list))
            if c == len(rep_list):
                rep_list.append((l, r, key))
            classes[l].append(c)
        counts.append(len(rep_list))
        del block
    return (rep_list, classes), counts


def _window_rows(reps, dtype, M: int) -> np.ndarray:
    """The windows of the representatives ``reps`` of _enumerate_distinct,
    one int64 row each, from one buffer of their joined keys (int64: rows
    % p, exact checks and np.abs overflow a narrow table's type)."""
    keys = b"".join(key for _, _, key in reps)
    return np.frombuffer(keys, dtype=dtype).reshape(-1, M).astype(np.int64)


def _depth_windows(values: np.ndarray, k: int, l: int, M: int, first: int) -> np.ndarray:
    """The windows of all kernel elements at depth l, one row each.

    Row r holds values[k^l (i + first) + r] for i < M; the rows together
    fill the contiguous slice values[k^l first : k^l (first + M)].  From
    first = 1 row r is kernel_element(t, k, l, r, M).prefix; the Cartier
    orbit reads from first = 0.  The caller validates the geometry.
    """
    s = k**l
    return np.ascontiguousarray(values[s * first : s * (first + M)].reshape(M, s).T)


def _distinct_cap(t: ValueTable, k: int, L: int, M: int) -> int | None:
    """Most distinct windows of width M over the values the profile reads.

    That is |alphabet|^M.  A one-value region gives one window at every
    width, so no width is to blame for it and there is no cap.
    """
    region = t.values[1 : k**L * (M + 1)]
    blocks = _blocks(len(region))
    # the sorted letters so far; each block's new ones are inserted in
    # place, which costs one pass over the letters, not a sort
    letters = np.unique(region[blocks[0]])
    for b in blocks[1:]:
        u = np.unique(region[b])
        fresh = u[letters.take(np.searchsorted(letters, u), mode="clip") != u]
        letters = np.insert(letters, np.searchsorted(letters, fresh), fresh)
    return len(letters)**M if len(letters) > 1 else None


def _distinct_verdict(t: ValueTable, k: int, L: int, M: int, counts: list[int]) -> Verdict:
    """The verdict on the distinct counts of _enumerate_distinct(t, k, L, M)."""
    return _classify(counts, L, partial(_distinct_cap, t, k, L, M))


def kernel_profile(t: ValueTable, k: int, L: int, M: int) -> KernelProfile:
    """Count distinct kernel windows per depth and classify the growth."""
    _, counts = _enumerate_distinct(t, k, L, M)
    verdict = _distinct_verdict(t, k, L, M, counts)
    return KernelProfile(k=k, M=M, L=L, distinct_counts=tuple(counts), verdict=verdict)


# Ranks are computed mod this prime, then certified over Q.  Residues stay
# below 2^31, so a product of two fits in int64 (below 2^62).
_PRIME = 2**31 - 1


class _BadPrime(Exception):
    """A row dependent mod p is independent over Q."""


def _dot_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """x @ y mod p for residues below 2^31, exact in int64.

    y is split into 15- and 16-bit halves, so each product is below 2^47
    and a sum of 2^15 of them stays below 2^62.
    """
    out = np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    step = 1 << 15
    for a in range(0, x.shape[1], step):
        xs, ys = x[:, a : a + step], y[a : a + step]
        hi = (xs @ (ys >> 16)) % p
        out = (out + (hi << 16) + xs @ (ys & 0xFFFF)) % p
    return out


def _rational_lift(c: list[int], p: int) -> list[Fraction] | None:
    """Rationals a/b with |a|, b <= sqrt(p/2) and a = b c mod p, or None."""
    bound = math.isqrt(p // 2)
    out = []
    for x in c:
        r0, r1, s0, s1 = p, x, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if abs(s1) > bound:
            return None
        out.append(Fraction(r1, s1))
    return out


def _solve_exact(a: np.ndarray, b: np.ndarray) -> list[Fraction]:
    """The x with x @ a = b over Q, for a square nonsingular integer a."""
    n = len(b)
    m = [[Fraction(int(a[j, i])) for j in range(n)] + [Fraction(int(b[i]))]
         for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [x / lead for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def _spans(coeffs: list[Fraction], basis: np.ndarray, row: np.ndarray) -> bool:
    """Exactly whether row = coeffs @ basis over Q."""
    den = math.lcm(*(c.denominator for c in coeffs))
    num = [c.numerator * (den // c.denominator) for c in coeffs]
    big = den * _largest_abs(row) + sum(map(abs, num)) * _largest_abs(basis) >= 2**63
    dtype = object if big else np.int64
    lhs = np.array(num, dtype=dtype) @ basis.astype(dtype)
    return bool(np.all(lhs == row.astype(dtype) * den))


class _FpRowSpace:
    """Row space over F_p, for a prime p < 2^31, of the rows absorbed so far.

    Row i of ``aug`` is [E_i | T_i]: E is the reduced row echelon form of
    the absorbed rows mod p (1 at its own pivot column, 0 at the others)
    and E_i = T_i @ absorbed mod p.  Reducing [x | 0] by it leaves
    [x - x[P] E | -x[P] T], so a row whose left part vanishes carries minus
    its coefficients on the absorbed rows, and an independent row joins by
    setting a 1 in its own slot.  The slots from the rank up are zero, so
    every update touches only the live columns.  ``cap`` bounds the rank.
    """

    def __init__(self, p: int, width: int, cap: int):
        self.p = p
        self.pivots: list[int] = []
        self.aug = np.zeros((cap, width + cap), dtype=np.int64)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def absorb(self, res: np.ndarray) -> tuple[list[int], list[int], np.ndarray]:
        """Absorb the residue rows of ``res`` in order, stopping at full rank.

        Returns the indices of the rows absorbed, the indices of the rows
        that reduced to zero, and the latter's coefficients mod p on all
        the rows absorbed so far, a row each.
        """
        p, n, P, aug = self.p, res.shape[1], self.pivots, self.aug
        live = n + self.rank
        w = np.pad(res, ((0, 0), (0, len(aug))))
        w[:, :live] = (w[:, :live] - _dot_mod(res[:, P], aug[: self.rank, :live], p)) % p
        absorbed, dependent = [], []
        for i in range(len(res)):
            nz = np.flatnonzero(w[i, :n])
            if not nz.size:
                dependent.append(i)
                continue
            r, pc = self.rank, int(nz[0])
            live = n + r + 1
            w[i, n + r] = 1
            e = w[i, :live] * pow(int(w[i, pc]), p - 2, p) % p
            aug[:r, :live] = (aug[:r, :live] - aug[:r, pc : pc + 1] * e) % p
            aug[r, :live] = e
            P.append(pc)
            absorbed.append(i)
            if self.rank == n:
                break
            w[i + 1 :, :live] = (w[i + 1 :, :live] - w[i + 1 :, pc : pc + 1] * e) % p
        return absorbed, dependent, -w[dependent, n : n + self.rank] % p


def _certify(basis: np.ndarray, pivots: list[int], rows: np.ndarray, coef: np.ndarray,
             p: int) -> None:
    """Prove each row, with coefficients ``coef`` mod p on the integer basis
    rows, in their span over Q; a row outside it makes p a bad prime."""
    for row, c in zip(rows, coef.tolist()):
        coeffs = _rational_lift(c, p)
        if coeffs is None or not _spans(coeffs, basis, row):
            coeffs = _solve_exact(basis[:, pivots], row[pivots])
            if not _spans(coeffs, basis, row):
                raise _BadPrime


def rank_profile(t: ValueTable, k: int, L: int, M: int) -> RankProfile:
    """Rank over Q of the stacked kernel windows, cumulatively per depth.

    Equal windows add nothing, so only the distinct ones are eliminated.
    Elimination runs mod a prime (_FpRowSpace); the rows it absorbs are
    independent over Q too, and every dependency it finds is checked
    exactly over Q (_certify).  A prime that fails the check is replaced by
    the next prime below it and the profile starts again.
    """
    (reps, _), counts = _enumerate_distinct(t, k, L, M)
    p = _PRIME
    while True:
        space = _FpRowSpace(p, M, min(M, len(reps)))
        basis = np.empty((0, M), dtype=np.int64)
        ranks: list[int] = []
        try:
            for l in range(L + 1):
                new = reps[counts[l - 1] if l else 0 : counts[l]]
                if new and space.rank < M:
                    rows = _window_rows(new, t.values.dtype, M)
                    absorbed, dependent, coef = space.absorb(rows % p)
                    basis = np.concatenate([basis, rows[absorbed]])
                    if space.rank < M:  # at full rank the basis spans Q^M
                        _certify(basis, space.pivots, rows[dependent], coef, p)
                ranks.append(space.rank)
            break
        except _BadPrime:
            p = next(q for q in range(p - 1, 1, -1) if is_prime(q))
    return RankProfile(
        k=k, M=M, L=L, ranks=tuple(ranks), verdict=_classify(ranks, L, cap=lambda: M)
    )


DENSITY_MAX_DENOMINATOR = 64  # largest denominator of a density's rational approximation


@dataclass(frozen=True)
class DensityEstimate:
    """Occurrence frequency of one value on a prefix, with the best
    small-denominator rational nearby.  Evidence only, never a verdict."""

    X: int
    count: int
    density: float
    approx: Fraction
    residual: float


def value_density(t: ValueTable, v: int, prefix_lengths: list[int]) -> list[DensityEstimate]:
    """#{n <= X : t(n) = v} / X for each X, with a rational approximation.

    Counted block by block.  A prefix length below 1 is a DomainError,
    one past the table a CapacityError."""
    out = []
    for X in prefix_lengths:
        if X < 1:
            raise DomainError(f"prefix length must be >= 1, got {X}")
        if X > t.N:
            raise CapacityError(f"prefix length {X} outside table range 1..{t.N}")
        prefix = t.values[1 : X + 1]
        count = sum(int(np.count_nonzero(prefix[b] == v)) for b in _blocks(X))
        exact = Fraction(count, X)
        approx = exact.limit_denominator(DENSITY_MAX_DENOMINATOR)
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
