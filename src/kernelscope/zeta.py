"""Riemann zeta evaluation, critical-line zero location, zero counting.

Evaluation is Euler-Maclaurin with adaptive truncation point and
Bernoulli order, reflected through the functional equation left of the
critical strip.  Zeros are located by sign changes of the phase-corrected
critical-line restriction and refined by bisection; counting uses the
winding of zeta along a rectangle boundary with adaptive subdivision, so
no branch of the argument is ever guessed.  The documented working range
is |s| <= 1e3.

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
from scipy.special import loggamma

from .errors import ContourError, DomainError, PoleError, PrecisionError

WORKING_RADIUS = 1000.0
HARDY_Z_TOL = 1e-10  # zeta error behind each critical-line sample
ZERO_GRID_STEP = 0.1  # spacing of the sign-change scan along the critical line
ZERO_REFINE_TOL = 1e-6  # bisection stops at this bracket width
COUNT_BOTTOM = 0.1  # bottom edge Im s of the zero-counting rectangle
COUNT_EVAL_TOL = 1e-10  # zeta error along the zero-counting contour
_EM_N_CAP = 1 << 22
_BERNOULLI_ORDER_CAP = 30


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


@dataclass(frozen=True)
class ZetaEval:
    s: complex
    value: complex
    terms_used: int
    bernoulli_order: int
    error_estimate: float


def _zeta_em_raw(s: complex, target_tol: float) -> ZetaEval:
    sigma, t = s.real, abs(s.imag)
    N = max(16, int(0.35 * t) + 8)
    while True:
        n = np.arange(1, N, dtype=np.float64)
        partial = complex(np.sum(np.exp(-s * np.log(n))))
        value = partial + complex(N) ** (1 - s) / (s - 1) + 0.5 * complex(N) ** (-s)
        # correction terms updated multiplicatively to dodge overflow
        rising = s
        npow = complex(N) ** (-s - 1)
        order = 0
        trunc = math.inf
        for j in range(1, _BERNOULLI_ORDER_CAP + 1):
            term = _b2j_over_fact(j) * rising * npow
            value += term
            order = 2 * j
            denom = sigma + 2 * j + 1
            if denom <= 0:
                continue
            trunc = abs(term) * abs(s + 2 * j + 1) / denom
            if trunc < target_tol:
                break
            rising = rising * (s + 2 * j - 1) * (s + 2 * j)
            npow = npow / N / N
        # pairwise-summation rounding on the partial sum
        if sigma < 1:
            mass = 1.0 + N ** (1 - sigma) / max(1e-6, 1 - sigma)
        else:
            mass = 1.0 + math.log(N)
        rounding = 8e-16 * math.log2(N + 1) * (mass + abs(value))
        if trunc < target_tol:
            return ZetaEval(
                s=s,
                value=value,
                terms_used=N,
                bernoulli_order=order,
                error_estimate=trunc + rounding,
            )
        if 2 * N > _EM_N_CAP:
            raise PrecisionError(
                f"tolerance {target_tol} unreachable at s={s} within the working range"
            )
        N *= 2


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
        + loggamma(complex(1 - s))
    )
    if log_chi.real > 700:
        raise PrecisionError(f"reflection factor overflows at s={s}")
    return cmath.exp(log_chi)


def zeta_em(s: complex, target_tol: float = 1e-12) -> ZetaEval:
    """zeta(s) with |value - zeta(s)| <= error_estimate <= ~target_tol.

    Direct Euler-Maclaurin for Re s >= -0.5; functional-equation
    reflection to the left of that.  s = 1 is the pole.
    """
    s = complex(s)
    if s == 1:
        raise PoleError("zeta has its pole at s = 1")
    if abs(s) > WORKING_RADIUS or abs(s.imag) > WORKING_RADIUS:
        raise DomainError(f"s={s} outside the documented working range |s| <= 1e3")
    if s.real >= -0.5:
        return _zeta_em_raw(s, target_tol)
    # trivial zeros: sin(pi s / 2) vanishes at negative even integers
    if s.imag == 0 and s.real == int(s.real) and int(s.real) % 2 == 0:
        return ZetaEval(s=s, value=0j, terms_used=0, bernoulli_order=0,
                        error_estimate=0.0)
    chi = reflection_factor(s)
    inner = _zeta_em_raw(1 - s, target_tol)
    value = chi * inner.value
    est = abs(chi) * inner.error_estimate + 4e-16 * abs(value)
    return ZetaEval(
        s=s,
        value=value,
        terms_used=inner.terms_used,
        bernoulli_order=inner.bernoulli_order,
        error_estimate=est,
    )


def rs_theta(t: float) -> float:
    """Phase correction making exp(i theta(t)) zeta(1/2 + it) real."""
    return float(loggamma(complex(0.25, t / 2)).imag) - (t / 2) * math.log(math.pi)


def hardy_z(t: float) -> float:
    val = zeta_em(complex(0.5, t), HARDY_Z_TOL).value
    return (cmath.exp(1j * rs_theta(t)) * val).real


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


def _sign_change_cells(T: float) -> list[tuple[float, float, float]]:
    """Cells (t, t_hi, Z(t)) of the ZERO_GRID_STEP grid on [1, T] where the
    Hardy Z-function is zero at t or changes sign between t and t_hi."""
    cells = []
    t = 1.0
    f_lo = hardy_z(t)
    while t < T:
        t_hi = min(t + ZERO_GRID_STEP, T)
        f_hi = hardy_z(t_hi)
        if f_lo == 0.0 or f_lo * f_hi < 0:
            cells.append((t, t_hi, f_lo))
        t, f_lo = t_hi, f_hi
    return cells


def critical_line_zeros(T: float) -> list[ZeroRecord]:
    """All sign-change zeros of the critical-line restriction up to height T.

    Bisection only; a same-sign double zero inside one grid cell would be
    missed, which the argument-principle cross-check in zero_count
    detects.
    """
    _check_height(T, complex(0.5, T))
    zeros: list[ZeroRecord] = []
    for t, t_hi, f_lo in _sign_change_cells(T):
        if f_lo == 0.0:
            zeros.append(ZeroRecord(t, (t, t)))
            continue
        a, b, fa = t, t_hi, f_lo
        while b - a > ZERO_REFINE_TOL:
            mid = 0.5 * (a + b)
            fm = hardy_z(mid)
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        zeros.append(ZeroRecord(ordinate=0.5 * (a + b), bracket=(t, t_hi)))
    return zeros


def _arg_change(za: complex, zb: complex, fa: complex, fb: complex, depth: int) -> float:
    d = cmath.phase(fb / fa)
    if abs(d) < math.pi / 2:
        return d
    if depth <= 0:
        raise ContourError(
            f"cannot resolve the winding between {za} and {zb}; the contour "
            "passes too close to a zero -- retry with a shifted height"
        )
    zm = 0.5 * (za + zb)
    fm = zeta_em(zm, COUNT_EVAL_TOL).value
    return _arg_change(za, zm, fa, fm, depth - 1) + _arg_change(
        zm, zb, fm, fb, depth - 1
    )


@dataclass(frozen=True)
class ZeroCountReport:
    T: float
    winding_count: int
    sign_change_count: int

    @property
    def agree(self) -> bool:
        return self.winding_count == self.sign_change_count


def zero_count_report(T: float) -> ZeroCountReport:
    """Count zeros with 0 < Im s <= T two independent ways.

    The winding of zeta around the rectangle (-0.5, 1.5) x (COUNT_BOTTOM, T)
    counts all strip zeros with multiplicity (the pole at 1 and the
    trivial zeros lie outside); the sign-change count sees only odd-order
    critical-line zeros.  A discrepancy means a missed or off-line zero.
    """
    _check_height(T, complex(1.5, T))
    if T < COUNT_BOTTOM:
        raise DomainError(f"T={T} must exceed the bottom edge {COUNT_BOTTOM}")
    corners = [
        complex(1.5, COUNT_BOTTOM),
        complex(1.5, T),
        complex(-0.5, T),
        complex(-0.5, COUNT_BOTTOM),
        complex(1.5, COUNT_BOTTOM),
    ]
    # seed each edge with enough samples that the adaptive splitter
    # starts near the expected winding density
    total = 0.0
    for a, b in zip(corners, corners[1:]):
        length = abs(b - a)
        pieces = max(8, int(4 * length))
        # the corners themselves, not a rounded step, end each edge
        pts = [a + (b - a) * i / pieces for i in range(pieces)] + [b]
        vals = [zeta_em(z, COUNT_EVAL_TOL).value for z in pts]
        for (za, zb, fa, fb) in zip(pts, pts[1:], vals, vals[1:]):
            total += _arg_change(za, zb, fa, fb, depth=48)
    winding = total / (2 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 1e-3:
        raise ContourError(
            f"winding {winding} is not close to an integer; the contour passes "
            "near a zero -- retry with a shifted T"
        )
    # one zero per sign-change cell; counting needs no bisection
    sign_changes = len(_sign_change_cells(T))
    return ZeroCountReport(
        T=T, winding_count=int(nearest), sign_change_count=sign_changes
    )


def zero_count(T: float) -> int:
    """N(T): zeros in the strip with 0 < Im s <= T (argument principle)."""
    report = zero_count_report(T)
    if not report.agree:
        raise ContourError(
            f"winding count {report.winding_count} disagrees with the "
            f"critical-line sign-change count {report.sign_change_count} at "
            f"T={T}: a zero was missed or lies off the line"
        )
    return report.winding_count


@dataclass(frozen=True)
class RatioRow:
    T: float
    N: int
    ratio: float


def tlogt_ratio_table(T_list: list[float]) -> list[RatioRow]:
    """(T, N(T), N(T)/(T log10 T)) rows for the supplied heights."""
    rows = []
    for T in T_list:
        if T <= 1:
            raise DomainError(f"heights must exceed 1, got {T}")
        n = zero_count(T)
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
