"""Riemann zeta evaluation, critical-line zero location, zero counting.

Evaluation is Euler-Maclaurin with adaptive truncation point and
Bernoulli order, reflected through the functional equation left of the
critical strip.  One array kernel evaluates any number of points at once;
a single zeta_em call is a batch of one.  Zeros are located by sign
changes of the phase-corrected critical-line restriction on a grid
evaluated in one batch, and refined by bisecting every cell in lockstep.
Counting is the Riemann-von Mangoldt formula: theta(T) and the change of
arg zeta along one segment at height T, one batch subdivided in rounds, so
no branch of the argument is ever guessed; the sign changes check it.
log Gamma, for the reflection and for the phase theta(t), is Stirling's
series from the same Bernoulli numbers as Euler-Maclaurin.  The
documented working range is |s| <= 1e3.

``tlogt_ratio_table`` reports N(T) / (T log10 T); base 10 keeps the
ratios of desk-scale counts in a readable window.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ContourError, DomainError, PoleError, PrecisionError, require_finite

WORKING_RADIUS = 1000.0
HARDY_Z_TOL = 1e-10  # zeta error behind each critical-line sample
ZERO_GRID_STEP = 0.1  # spacing of the sign-change scan along the critical line
ZERO_REFINE_TOL = 1e-6  # bisection stops at this bracket width
# lowest height counted: the counting segment passes at distance T above
# the pole at s = 1, and fails to resolve there by T = 1e-100
COUNT_BOTTOM = 0.1
COUNT_EVAL_TOL = 1e-10  # zeta error along the zero-counting segment
_EM_N_CAP = 1 << 22
_BERNOULLI_ORDER_CAP = 30
_EM_BLOCK = 1 << 18  # entries of one n^{-s} matrix block
_EM_ROWS = 1024  # points per block of Bernoulli terms
_STIRLING_SHIFT = 8  # log Gamma's Stirling series runs at z + 8
_STIRLING_ORDER = 12  # and sums its terms j = 1..12
_SPLIT_DEPTH = 48  # halvings of one segment step before the count is refused


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact B_n (B_1 = -1/2) via the defining recurrence."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += Fraction(math.comb(n + 1, k)) * bernoulli_number(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _b2j_over_fact(j: int) -> float:
    return float(bernoulli_number(2 * j) / Fraction(math.factorial(2 * j)))


_TWO_J = 2.0 * np.arange(1, _BERNOULLI_ORDER_CAP + 1)
_B2J = np.array([_b2j_over_fact(j) for j in range(1, _BERNOULLI_ORDER_CAP + 1)])
# B_2j / (2j (2j - 1)), the coefficient of w^{1-2j} in Stirling's series
_STIRLING = [float(bernoulli_number(2 * j) / (2 * j * (2 * j - 1)))
             for j in range(1, _STIRLING_ORDER + 1)]


def _loggamma(z):
    """log Gamma at a complex z or at every element of an array, Re z > 0.

    Stirling's series at w = z + _STIRLING_SHIFT, where its first omitted
    term is below 1e-19, less log(z + k) for k < _STIRLING_SHIFT.  Every
    log is principal, so the branch is the one continuous from the
    positive real axis.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = z + _STIRLING_SHIFT
    u = 1 / (w * w)
    tail = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        tail = tail * u + c
    shift = sum(np.log(z + k) for k in range(_STIRLING_SHIFT))
    return (w - 0.5) * np.log(w) - w + 0.5 * math.log(2 * math.pi) + tail / w - shift


@dataclass(frozen=True)
class ZetaEval:
    s: complex
    value: complex
    terms_used: int
    bernoulli_order: int
    error_estimate: float


def _mod(z: np.ndarray) -> np.ndarray:
    """|z| elementwise through hypot, as abs() of a Python complex gives it.
    numpy's complex abs can differ in the last bit, and the working-range
    check must agree with _check_height's abs() at the largest height."""
    return np.hypot(z.real, z.imag)


def _check_points(s: np.ndarray) -> None:
    """zeta_em's finiteness, pole and working-range checks, on every element of s."""
    require_finite("s", s)
    if (s == 1).any():
        raise PoleError("zeta has its pole at s = 1")
    far = (_mod(s) > WORKING_RADIUS) | (np.abs(s.imag) > WORKING_RADIUS)
    if far.any():
        raise DomainError(
            f"s={complex(s[far][0])} outside the documented working range |s| <= 1e3"
        )


def _bernoulli(
    s: np.ndarray, Nf: np.ndarray, n_s: np.ndarray, head: np.ndarray, target_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """head + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) N^{-s-2j+1} at every point,
    summed in order up to the first j whose truncation bound is below
    target_tol, or to j = _BERNOULLI_ORDER_CAP.  n_s is N^{-s}.  Returns
    (value, truncation bound, Bernoulli order 2j).  At Re s >= -0.5 every
    denominator sigma + 2j + 1 of the bound is positive."""
    sc = s[:, None]
    # |s| <= ~1001 keeps the 59-factor rising product below 1e180, and a
    # power N^{2-2j} underflows only where its term is negligible
    step = (sc + _TWO_J[:-1] - 1) * (sc + _TWO_J[:-1])
    rising = np.cumprod(np.concatenate([sc, step], axis=1), axis=1)
    npow = (n_s / Nf)[:, None] * Nf[:, None] ** (2.0 - _TWO_J)
    terms = _B2J * rising * npow
    x = s.real[:, None] + _TWO_J + 1
    trunc = _mod(terms) * np.hypot(x, s.imag[:, None]) / x  # |term| |s+2j+1| / x
    met = trunc < target_tol
    met[:, -1] = True  # a point that meets no order stops at the cap
    j = met.argmax(axis=1)
    sums = np.cumsum(np.concatenate([head[:, None], terms], axis=1), axis=1)
    rows = np.arange(len(s))
    return sums[rows, j + 1], trunc[rows, j], 2 * (j + 1)


def _em_kernel(
    s: np.ndarray, target_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Euler-Maclaurin at every element of the 1-D array s, Re s >= -0.5.

    Returns the arrays (value, error_estimate, terms_used, bernoulli_order).
    Each point starts at N = max(16, int(0.35 |t|) + 8) and doubles N until
    its Bernoulli correction meets target_tol within order
    2 * _BERNOULLI_ORDER_CAP.  Points that share N share one n^{-s} matrix
    and its row sums; every other step is elementwise, so a point gets the
    same bits whatever batch it is in.
    """
    s = np.asarray(s, dtype=np.complex128)
    N = np.maximum(16, (0.35 * np.abs(s.imag)).astype(np.int64) + 8)
    value = np.empty_like(s)
    err = np.empty(len(s))
    order = np.zeros(len(s), dtype=np.int64)
    todo = np.arange(len(s))
    while len(todo):
        sp, Np = s[todo], N[todo]
        partial = np.empty_like(sp)
        for n_pts in set(Np.tolist()):
            rows = np.flatnonzero(Np == n_pts)
            logn = np.log(np.arange(1, n_pts, dtype=np.float64))
            step = max(1, _EM_BLOCK // n_pts)
            for lo in range(0, len(rows), step):
                blk = rows[lo:lo + step]
                partial[blk] = np.exp(-sp[blk, None] * logn).sum(axis=1)
        Nf = Np.astype(np.float64)
        n_s = np.exp(-sp * np.log(Nf))  # N^{-s}
        head = partial + n_s * Nf / (sp - 1) + 0.5 * n_s
        val, trunc = np.empty_like(sp), np.empty(len(sp))
        for lo in range(0, len(sp), _EM_ROWS):
            blk = slice(lo, lo + _EM_ROWS)
            val[blk], trunc[blk], order[todo[blk]] = _bernoulli(
                sp[blk], Nf[blk], n_s[blk], head[blk], target_tol)
        # pairwise-summation rounding on the partial sum
        sigma = sp.real
        mass = np.where(
            sigma < 1,
            1.0 + Nf ** (1 - sigma) / np.maximum(1e-6, 1 - sigma),
            1.0 + np.log(Nf),
        )
        rounding = 8e-16 * np.log2(Nf + 1) * (mass + _mod(val))
        done = trunc < target_tol
        value[todo[done]] = val[done]
        err[todo[done]] = trunc[done] + rounding[done]
        todo = todo[~done]
        if len(todo):
            over = 2 * N[todo] > _EM_N_CAP
            if over.any():
                raise PrecisionError(
                    f"tolerance {target_tol} unreachable at s={complex(s[todo[over][0]])} "
                    "within the working range"
                )
            N[todo] *= 2
    return value, err, N, order


def _log_sin(w: complex) -> complex:
    # branch irrelevant: the result is exponentiated immediately
    if abs(w.imag) < 30:
        return cmath.log(cmath.sin(w))
    if w.imag > 0:
        return -1j * w + cmath.log(0.5j)
    return 1j * w + cmath.log(-0.5j)


def reflection_factor(s: complex) -> complex:
    """chi(s) with zeta(s) = chi(s) zeta(1-s)."""
    log_chi = (
        s * math.log(2.0)
        + (s - 1) * math.log(math.pi)
        + _log_sin(math.pi * s / 2)
        + complex(_loggamma(1 - s))
    )
    if log_chi.real > 700:
        raise PrecisionError(f"reflection factor overflows at s={s}")
    return cmath.exp(log_chi)


def zeta_em(s: complex, target_tol: float = 1e-12) -> ZetaEval:
    """zeta(s) with |value - zeta(s)| <= error_estimate <= ~target_tol.

    Direct Euler-Maclaurin for Re s >= -0.5; functional-equation
    reflection to the left of that.  s = 1 is the pole.  One point is a
    one-element call of the array kernel.
    """
    s = complex(s)
    one = np.array([s])
    _check_points(one)
    if s.real >= -0.5:
        value, err, terms, order = _em_kernel(one, target_tol)
        return ZetaEval(s=s, value=complex(value[0]), terms_used=int(terms[0]),
                        bernoulli_order=int(order[0]), error_estimate=float(err[0]))
    # trivial zeros: sin(pi s / 2) vanishes at negative even integers
    if s.imag == 0 and s.real == int(s.real) and int(s.real) % 2 == 0:
        return ZetaEval(s=s, value=0j, terms_used=0, bernoulli_order=0,
                        error_estimate=0.0)
    chi = reflection_factor(s)
    value, err, terms, order = _em_kernel(np.array([1 - s]), target_tol)
    value = chi * complex(value[0])
    # the rounding of log chi is a relative error of chi: four ulps of the
    # moduli of the terms it sums, s log 2, (s - 1) log pi, pi s / 2 and
    # (w - 1/2) log w - w at the Stirling point w of log Gamma(1 - s)
    w = abs(1 - s + _STIRLING_SHIFT)
    log_chi_err = 8.9e-16 * (abs(s) * (math.log(2 * math.pi) + math.pi / 2)
                             + w * (math.log(w) + 1))
    est = abs(chi) * float(err[0]) + (4e-16 + log_chi_err) * abs(value)
    return ZetaEval(
        s=s,
        value=value,
        terms_used=int(terms[0]),
        bernoulli_order=int(order[0]),
        error_estimate=est,
    )


def _zeta_on(s: np.ndarray, target_tol: float) -> np.ndarray:
    """zeta at every element of s, all with Re s >= -0.5, in one kernel call."""
    _check_points(s)
    return _em_kernel(s, target_tol)[0]


def rs_theta(t):
    """Phase correction making exp(i theta(t)) zeta(1/2 + it) real, at a
    float t or at every element of an array."""
    t = np.asarray(t, dtype=np.float64)
    return np.imag(_loggamma(0.25 + 0.5j * t)) - (t / 2) * math.log(math.pi)


def _critical(t: np.ndarray) -> np.ndarray:
    """The points 1/2 + it, built without complex arithmetic."""
    s = np.empty(len(t), dtype=np.complex128)
    s.real, s.imag = 0.5, t
    return s


def _hardy_z(t: np.ndarray) -> np.ndarray:
    """The Hardy Z-function at every element of t, in one kernel call."""
    val = _zeta_on(_critical(t), HARDY_Z_TOL)
    return (np.exp(1j * rs_theta(t)) * val).real


def hardy_z(t: float) -> float:
    """The Hardy Z-function at one t: real, with |Z(t)| = |zeta(1/2 + it)|."""
    return float(_hardy_z(np.array([float(t)]))[0])


def _check_height(T: float, farthest: complex) -> None:
    """Refuse T unless ``farthest``, the point of largest modulus a routine
    evaluates, passes the same |s| <= WORKING_RADIUS test as zeta_em."""
    if not (T > 0 and abs(farthest) <= WORKING_RADIUS):
        limit = math.sqrt(WORKING_RADIUS**2 - farthest.real**2)
        raise DomainError(
            f"T must satisfy 0 < T and |{farthest.real:g} + iT| <= {WORKING_RADIUS:g} "
            f"(T below about {limit:.4f}), got {T}"
        )


@dataclass(frozen=True)
class ZeroRecord:
    """A located critical-line zero: its sign-change bracket and the
    midpoint of that bracket bisected to ZERO_REFINE_TOL."""

    ordinate: float
    bracket: tuple[float, float]


def _hardy_sweep(T: float) -> tuple[np.ndarray, np.ndarray]:
    """The ZERO_GRID_STEP grid on [1, T], T > 1, and Z on all of it at once.
    The grid is the running sum 1, 1 + step, ... below T, then T itself, so
    the grid to a lower height is a prefix of this one plus that height."""
    steps = np.full(int((T - 1) / ZERO_GRID_STEP) + 3, ZERO_GRID_STEP)
    steps[0] = 1.0
    grid = np.cumsum(steps)
    grid = np.append(grid[grid < T], T)
    return grid, _hardy_z(grid)


def _changes_sign(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether Z is zero at a cell's left end or changes sign across it."""
    return (lo == 0.0) | (lo * hi < 0)


def _sign_change_counts(Ts: list[float]) -> list[int]:
    """The number of _hardy_sweep cells on [1, T] where Z is zero at the
    left end or changes sign, for every T in Ts (0 for T <= 1), from one
    sweep to the largest: the cells below T are a prefix of its cells, and
    the cell clamped at T takes its sign from Z(T), one extra point per height."""
    heights = np.array(Ts, dtype=np.float64)
    counts = np.zeros(len(heights), dtype=np.int64)
    above = heights > 1
    if above.any():
        grid, z = _hardy_sweep(float(heights[above].max()))
        before = np.concatenate(([0], np.cumsum(_changes_sign(z[:-1], z[1:]))))
        below = np.searchsorted(grid, heights[above]) - 1  # the last grid point below T
        counts[above] = before[below] + _changes_sign(z[below], _hardy_z(heights[above]))
    return counts.tolist()


def critical_line_zeros(T: float) -> list[ZeroRecord]:
    """All sign-change zeros of the critical-line restriction up to height T.

    Bisection only, of every cell in lockstep: one Z evaluation per
    halving covers all cells still wider than ZERO_REFINE_TOL.  A
    same-sign double zero inside one grid cell would be missed, which the
    Riemann-von Mangoldt cross-check in zero_count detects.
    """
    _check_height(T, complex(0.5, T))
    if T <= 1:
        return []
    grid, z = _hardy_sweep(T)
    cell = _changes_sign(z[:-1], z[1:])
    t, t_hi, f_lo = grid[:-1][cell], grid[1:][cell], z[:-1][cell]
    a, b, fa = t.copy(), t_hi.copy(), f_lo.copy()
    live = np.flatnonzero((f_lo != 0.0) & (b - a > ZERO_REFINE_TOL))
    while len(live):
        mid = 0.5 * (a[live] + b[live])
        fm = _hardy_z(mid)
        hit, left = fm == 0.0, fa[live] * fm < 0
        right = ~hit & ~left
        a[live[hit | right]] = mid[hit | right]
        b[live[hit | left]] = mid[hit | left]
        fa[live[right]] = fm[right]
        live = live[b[live] - a[live] > ZERO_REFINE_TOL]  # a hit has width 0
    return [
        ZeroRecord(ordinate=lo, bracket=(lo, lo)) if f == 0.0
        else ZeroRecord(ordinate=0.5 * (x + y), bracket=(lo, hi))
        for lo, hi, f, x, y in zip(t.tolist(), t_hi.tolist(), f_lo.tolist(),
                                   a.tolist(), b.tolist())
    ]


@dataclass(frozen=True)
class ZeroCountReport:
    """``winding_count`` is the Riemann-von Mangoldt count, with
    multiplicity; ``sign_change_count`` counts sign changes of Z(t)."""

    T: float
    winding_count: int
    sign_change_count: int

    @property
    def agree(self) -> bool:
        return self.winding_count == self.sign_change_count


def _check_count_height(T: float) -> None:
    _check_height(T, complex(1.5, T))
    if T < COUNT_BOTTOM:
        raise DomainError(f"T={T} must exceed the bottom edge {COUNT_BOTTOM}")


def _phase_change(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> float:
    """The change of arg zeta along the contour steps a -> b, where fa and fb
    are zeta at their ends.  Each round halves, all at once, every step whose
    phase change reaches pi/2, with one kernel call for all the midpoints."""
    total, depth = 0.0, 0
    while True:
        d = np.angle(fb / fa)
        wide = np.abs(d) >= math.pi / 2
        total += float(d[~wide].sum())
        if not wide.any():
            return total
        if depth == _SPLIT_DEPTH:
            raise ContourError(
                f"cannot resolve the winding between {complex(a[wide][0])} and "
                f"{complex(b[wide][0])}; the contour passes too close to a zero "
                "-- retry with a shifted height"
            )
        depth += 1
        a, b, fa, fb = a[wide], b[wide], fa[wide], fb[wide]
        m = 0.5 * (a + b)
        fm = _zeta_on(m, COUNT_EVAL_TOL)
        # each step becomes its two halves, in contour order
        a, b = np.column_stack((a, m)).ravel(), np.column_stack((m, b)).ravel()
        fa, fb = np.column_stack((fa, fm)).ravel(), np.column_stack((fm, fb)).ravel()


def _winding_count(T: float) -> int:
    """N(T), the zeros of zeta with 0 < Im s <= T, with multiplicity, by the
    Riemann-von Mangoldt formula N(T) = theta(T)/pi + 1 + arg zeta(1/2 + iT)/pi,
    the argument tracked along one segment from 1.5 + iT.  There it is the
    principal value: log zeta(s) sums p^{-js}/j over prime powers, so
    |arg zeta(s)| <= log zeta(1.5) < pi/2 wherever Re s >= 1.5."""
    pts = np.empty(17, dtype=np.complex128)
    pts.real, pts.imag = 1.5 - np.arange(17) / 16, T  # ends 1.5 and 0.5 exactly
    vals = _zeta_on(pts, COUNT_EVAL_TOL)
    arg = float(np.angle(vals[0])) + _phase_change(pts[:-1], pts[1:], vals[:-1], vals[1:])
    winding = (float(rs_theta(T)) + arg) / math.pi + 1
    nearest = round(winding)
    if abs(winding - nearest) > 1e-3:
        raise ContourError(
            f"winding {winding} is not close to an integer; the contour passes "
            "near a zero -- retry with a shifted T"
        )
    return int(nearest)


def zero_count_report(T: float) -> ZeroCountReport:
    """Count zeros with 0 < Im s <= T two independent ways.

    The Riemann-von Mangoldt formula, theta(T) plus the change of arg zeta
    along the segment 1.5 + iT -> 0.5 + iT, counts all strip zeros with
    multiplicity; the sign-change count sees only odd-order critical-line
    zeros.  A discrepancy means a missed or off-line zero.
    """
    _check_count_height(T)
    # one zero per sign-change cell; counting needs no bisection
    return ZeroCountReport(T=T, winding_count=_winding_count(T),
                           sign_change_count=_sign_change_counts([T])[0])


def _agreed(report: ZeroCountReport) -> int:
    if not report.agree:
        raise ContourError(
            f"winding count {report.winding_count} disagrees with the "
            f"critical-line sign-change count {report.sign_change_count} at "
            f"T={report.T}: a zero was missed or lies off the line"
        )
    return report.winding_count


def zero_count(T: float) -> int:
    """N(T): zeros with 0 < Im s <= T, Riemann-von Mangoldt on one segment."""
    return _agreed(zero_count_report(T))


@dataclass(frozen=True)
class RatioRow:
    T: float
    N: int
    ratio: float


def tlogt_ratio_table(T_list: list[float]) -> list[RatioRow]:
    """(T, N(T), N(T)/(T log10 T)) rows for the supplied heights.

    Each height gets its own Riemann-von Mangoldt count, one short segment
    at that height, checked as in zero_count against a sign-change count
    read off one sweep to the largest height.
    """
    for T in T_list:
        if T <= 1:
            raise DomainError(f"heights must exceed 1, got {T}")
        _check_count_height(T)
    rows = []
    for T, changes in zip(T_list, _sign_change_counts(T_list)):
        n = _agreed(ZeroCountReport(T=T, winding_count=_winding_count(T),
                                    sign_change_count=changes))
        rows.append(RatioRow(T=T, N=n, ratio=n / (T * math.log10(T))))
    return rows


def zeros_to_csv(zeros: list[ZeroRecord], fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["index", "ordinate"])
    for i, z in enumerate(zeros, start=1):
        w.writerow([i, f"{z.ordinate:.6f}"])


def ratio_table_to_csv(rows: list[RatioRow], fh) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["T", "N", "ratio_TlogT"])
    for r in rows:
        w.writerow([r.T, r.N, repr(r.ratio)])
