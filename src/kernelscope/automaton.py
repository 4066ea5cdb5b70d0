"""Linear representations U_{kn+r} = A_r U_n built from saturated kernels.

A saturated kernel profile yields one coordinate per distinct kernel
subsequence; the digit matrices A_0..A_{k-1} are then row-selection
matrices (exactly one 1 per row) and the first coordinate reproduces the
source sequence.  The averaged matrix (1/k) sum_r A_r drives the
Dirichlet-series continuation: its eigenvalues generate the candidate
pole lattice s = log(alpha)/log(k) + (2 pi i / log k) m - l + 1, held as
one record array of its points, broadcast from one base per eigenvalue.

Indexing convention: digits r run over 0..k-1 and the recursion holds for
n >= 1; the finitely many indices 1..k-1 below the recursion are carried
as seed vectors.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DomainError, PrecisionError, VerdictError
from .kernel import _distinct_verdict, _enumerate_distinct, _window_rows
from .seqgen import ValueTable, write_rows

LATTICE_ZERO_TOL = 1e-10  # eigenvalues of Abar this small give no lattice points


@dataclass(frozen=True)
class LinearRepresentation:
    """Matrix form of a sequence: U_{kn+r} = A_r U_n for n >= 1.

    seeds[b-1] is the vector U_b for b = 1..k-1 (U_1 alone when k = 2).
    labels[i] is the (l, r) kernel element coordinate i represents.
    ``growth`` is a pair (C, d) with |U_n|_inf <= C n^d, used for
    Dirichlet tail bounds.  ``verified_to`` is the window the construction
    proves: a built representation's output coordinate equals its source
    table for every n <= verified_to (see build_representation); a
    hand-built one with no source table sets it to 0.

    Every field is checked here, however the object is built; a value out
    of range is a DomainError naming its field.  What follows from the
    matrices, ``automatic`` and ``resolvent_poly``, is derived, not stored.
    """

    k: int
    dim: int
    matrices: tuple[np.ndarray, ...]
    seeds: np.ndarray
    output_coord: int
    labels: tuple[tuple[int, int], ...]
    verified_to: int
    growth: tuple[float, float]

    def __post_init__(self):
        k, dim, (C, d), mats = self.k, self.dim, self.growth, self.matrices
        for name, ok, need in (
            ("k", k >= 2, f"k >= 2, got {k}"),
            ("matrices", len(mats) == k and all(a.shape == (dim, dim) for a in mats),
             f"{k} of shape {(dim, dim)}, got {[a.shape for a in mats]}"),
            ("seeds", self.seeds.shape == (k - 1, dim),
             f"shape {(k - 1, dim)}, got {self.seeds.shape}"),
            ("output_coord", 0 <= self.output_coord < dim,
             f"0..{dim - 1}, got {self.output_coord}"),
            ("labels", len(self.labels) == dim, f"{dim}, got {len(self.labels)}"),
            ("verified_to", self.verified_to >= 0, f">= 0, got {self.verified_to}"),
            ("growth", math.isfinite(C) and math.isfinite(d) and C > 0 and d >= 0,
             f"finite (C, d) with C > 0 and d >= 0, got {self.growth}"),
        ):
            if not ok:
                raise DomainError(f"field {name!r} out of range: need {need}")
        for a in self.matrices:
            a.flags.writeable = False
        self.seeds.flags.writeable = False

    @property
    def automatic(self) -> bool:
        """Row-selection mode: every digit matrix row holds one 1 and 0
        elsewhere, as in a representation built from a saturated kernel."""
        return all(np.all((a == 0) | (a == 1)) and np.all(a.sum(axis=1) == 1)
                   for a in self.matrices)

    @cached_property
    def resolvent_poly(self) -> tuple[list[Fraction], list[list[list[Fraction]]]]:
        """adjugate_poly of the averaged matrix, derived on first use: the
        exact det(xI - Abar) and adj(xI - Abar) for lattice and continuation."""
        return adjugate_poly(average_matrix(self))

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
    """The representation ``to_json`` wrote, parsed; a missing or malformed
    field, or an ``automatic`` other than the matrices' bool, raises
    DomainError naming it (LinearRepresentation checks the ranges)."""

    def field(name, read):
        try:
            return read(doc[name])
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"missing or malformed field {name!r}: {exc!r}") from exc

    dim = field("t", operator.index)
    rep = LinearRepresentation(
        k=field("k", operator.index),
        dim=dim,
        matrices=field("matrices", lambda ms: tuple(
            np.array(m, dtype=np.int64).reshape(dim, dim) for m in ms)),
        seeds=field("seeds", lambda v: np.array(v, dtype=np.int64)),
        output_coord=field("output_coord", operator.index),
        labels=field("labels", lambda v: tuple((int(a), int(b)) for a, b in v)),
        verified_to=field("verified_to", operator.index),
        growth=field("growth", lambda g: (float(g[0]), float(g[1]))),
    )
    automatic = field("automatic", lambda v: v)
    if automatic is not rep.automatic:  # a JSON bool, so 1 and 0 are refused too
        raise DomainError(f"field 'automatic' out of range: the matrices give "
                          f"{rep.automatic}, got {automatic!r}")
    return rep


def build_representation(t: ValueTable, k: int, L: int, M: int) -> LinearRepresentation:
    """Construct the representation induced by a saturated kernel.

    Coordinates are the distinct kernel windows in first-seen order, so
    coordinate 0 is the (0, 0) element (the sequence itself).  Saturation
    (kernel._classify) puts every distinct window at a depth below L - 1,
    so each refinement (l + 1, r' + r k^l) of a coordinate (l, r') is a
    window the enumeration already classed, and row i of A_r is the unit
    vector of that class.

    Why the result needs no check against the table: A_r sends coordinate
    i to the class whose window equals i's refinement on n = 1..M, so
    U_{kn+r} = A_r U_n holds exactly for n <= M.  By induction from the
    seeds U_1..U_{k-1} the output coordinate then equals t(n) for every
    n <= min(N, k M + k - 1), which contains ``verified_to`` = min(N, k M).
    """
    if M < k:
        raise DomainError(f"window must cover the seeds: need M >= k = {k}")
    (reps, classes), counts = _enumerate_distinct(t, k, L, M)
    verdict = _distinct_verdict(t, k, L, M, counts)
    if verdict.kind != "saturated":
        raise VerdictError(
            f"kernel profile of {t.id} is {verdict}; a saturated kernel is required"
        )
    unit = np.eye(len(reps), dtype=np.int64)
    mats = tuple(unit[[classes[l + 1][r0 + r * k**l] for l, r0, _ in reps]] for r in range(k))
    # the window matrix: row i is coordinate i's window, column n - 1 is U_n
    P = _window_rows(reps, t.values.dtype, M)
    return LinearRepresentation(
        k=k,
        dim=len(reps),
        matrices=mats,
        seeds=np.array(P[:, : k - 1].T, order="C"),
        output_coord=0,
        labels=tuple((l, r) for l, r, _ in reps),
        verified_to=min(t.N, k * M),
        growth=(float(max(1, int(np.abs(P).max()))), 0.0),
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
    """Value at n by peeling base-k digits down to a seed vector, exact
    for every n: the products run on Python ints, never in int64."""
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    digits = []
    m = n
    while m >= rep.k:
        m, r = divmod(m, rep.k)
        digits.append(r)
    u = rep.seeds[m - 1].astype(object)
    for r in reversed(digits):
        u = rep.matrices[r] @ u
    return int(u[rep.output_coord])


def average_matrix(rep: LinearRepresentation) -> list[list[Fraction]]:
    """Exact (1/k) sum of the digit matrices."""
    total = sum(a.astype(object) for a in rep.matrices)
    return [[Fraction(x, rep.k) for x in row] for row in total.tolist()]


def adjugate_poly(
    mat: list[list[Fraction]],
) -> tuple[list[Fraction], list[list[list[Fraction]]]]:
    """det(xI - A) and adj(xI - A) as polynomials in x, exact over Q.

    Returns the coefficients a_0..a_n of det(xI - A) = sum_j a_j x^j and
    the matrices M_1..M_n of adj(xI - A) = sum_j M_j x^{n-j}.  Both come
    from one Faddeev-LeVerrier recursion, M_1 = I and
    M_{j+1} = A M_j + a_{n-j} I with a_{n-j} = -tr(A M_j) / j; divisions
    are by integers only, so Fraction arithmetic stays exact.
    """
    n = len(mat)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m_cur = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    # averaged digit matrices are sparse: products skip the zero entries of A
    nonzero = [[(l, a) for l, a in enumerate(row) if a] for row in mat]
    adj = []
    for step in range(1, n + 1):
        adj.append(m_cur)
        am = [
            [sum((a * m_cur[l][j] for l, a in row), Fraction(0)) for j in range(n)]
            for row in nonzero
        ]
        c = -sum(am[i][i] for i in range(n)) / step
        coeffs[n - step] = c
        m_cur = [
            [am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)
        ]
    return coeffs, adj


def eval_poly(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


_LATTICE_COLUMNS = ("re", "im", "alpha_index", "m", "l")  # CSV header and JSON keys


@dataclass(frozen=True, eq=False)  # points is an array: equality is identity
class PoleLattice:
    """Candidate pole set from the averaged matrix's eigenvalues.

    ``points`` is one record array of s, alpha_index, m and l, with
    s = log(alpha)/log(k) + (2 pi i / log k) m - l + 1 for |m| <= m_max and
    0 <= l <= l_max, in (alpha, m, l) order, l innermost; eigenvalues at 0
    contribute nothing and are listed in ``skipped``.  ``char_coeffs`` is
    the exact rational characteristic polynomial of the averaged matrix,
    low degree first, so membership of eigenvalue 1 can be certified
    without floats.
    """

    k: int
    eigenvalues: tuple[complex, ...]
    skipped: tuple[int, ...]
    points: np.recarray
    m_max: int
    l_max: int
    char_coeffs: tuple[Fraction, ...]

    def contains(self, s: complex, tol: float = 1e-9) -> bool:
        return bool((np.abs(self.points.s - s) <= tol).any())

    def in_rectangle(self, a: float, b: float, T: float) -> np.recarray:
        """The records with a <= Re s <= b and 0 <= Im s <= T, 1e-12 slack."""
        eps = 1e-12
        re, im = self.points.s.real, self.points.s.imag
        return self.points[(a - eps <= re) & (re <= b + eps) & (-eps <= im) & (im <= T + eps)]

    def _rows(self):
        p = self.points
        return zip(*(f.tolist() for f in (p.s.real, p.s.imag, p.alpha_index, p.m, p.l)))

    def write_csv(self, fh) -> None:
        write_rows(fh, _LATTICE_COLUMNS, self._rows())

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "skipped": list(self.skipped),
            "m_max": self.m_max,
            "l_max": self.l_max,
            "char_poly": [str(c) for c in self.char_coeffs],
            "points": [dict(zip(_LATTICE_COLUMNS, r)) for r in self._rows()],
        }


def pole_lattice(rep: LinearRepresentation, m_max: int, l_max: int) -> PoleLattice:
    """Enumerate candidate poles from eigenvalues of the averaged matrix;
    eigenvalue 1 is certified by the exact det(xI - Abar) of
    ``rep.resolvent_poly``, which the lattice keeps as ``char_coeffs``."""
    if m_max < 0 or l_max < 0:
        raise DomainError("m_max and l_max must be >= 0")
    coeffs = rep.resolvent_poly[0]
    try:
        # the integer sum divided once: the correctly rounded float of each entry
        eigs = np.linalg.eigvals(sum(rep.matrices) / rep.k)
    except np.linalg.LinAlgError as exc:
        raise PrecisionError(f"eigensolver failed to converge: {exc}") from exc
    # exact certification: if 1 is a root of the characteristic polynomial,
    # snap the closest numerical eigenvalue to exactly 1
    if eval_poly(coeffs, Fraction(1)) == 0:
        i = int(np.argmin(np.abs(eigs - 1.0)))
        eigs[i] = 1.0
    logk = math.log(rep.k)
    small = np.abs(eigs) <= LATTICE_ZERO_TOL
    alpha, m, l = np.ix_(np.flatnonzero(~small), np.arange(-m_max, m_max + 1), np.arange(l_max + 1))
    # one base per contributing eigenvalue, broadcast over m and l in (alpha, m, l) order
    base = np.array([cmath.log(z) / logk + 1 for z in eigs[alpha.ravel()]], dtype=np.complex128)
    s = base[:, None, None] + (2j * math.pi / logk) * m - l
    columns = (np.broadcast_to(f, s.shape).ravel() for f in (alpha, m, l))
    points = np.rec.fromarrays([s.ravel(), *columns], names="s,alpha_index,m,l")
    return PoleLattice(
        k=rep.k,
        eigenvalues=tuple(complex(z) for z in eigs),
        skipped=tuple(np.flatnonzero(small).tolist()),
        points=points,
        m_max=m_max,
        l_max=l_max,
        char_coeffs=tuple(coeffs),
    )
