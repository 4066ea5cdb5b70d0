"""Riemann zeta evaluation, critical-line zero location, zero counting.

Every sum over n of w_n n^{-s} in the package, Euler-Maclaurin's partial
sums here and dirichlet's direct sums, is one kernel, _power_sums: a real
exp for the modulus, the phase n^{-i Im s} from one half-angle tangent
(_unit_phase, the package's one routine for n^{-it}, also behind the
Riemann-Siegel cosines and dirichlet's phase blocks) and np.sum's
pairwise summation.

Evaluation is one routine, _zeta_on, for any number of points at once
and every s in the working range: Euler-Maclaurin with adaptive
truncation point and Bernoulli order, in one kernel call at s where
Re s >= -0.5 and at 1 - s left of that line, whose values the functional
equation zeta(s) = chi(s) zeta(1 - s) then carries back.  Each error
estimate is the truncation bound plus the rounding, that of the
arguments s log n included.  A single zeta_em call is a batch of one.

Zeros are located by sign changes of the phase-corrected critical-line
restriction on a grid evaluated in one batch, and refined by bisecting
every cell in lockstep.
Those signs come from the Riemann-Siegel formula from t = RS_FROM up,
wherever its value exceeds Gabcke's bound on its remainder plus its
rounding, and from Euler-Maclaurin everywhere else; hardy_z itself is
always Euler-Maclaurin.
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

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .errors import ContourError, DomainError, PoleError, PrecisionError, require_finite

WORKING_RADIUS = 1000.0
HARDY_Z_TOL = 1e-10  # zeta error behind each critical-line sample
# lowest height of Riemann-Siegel sign samples, where Gabcke's bound starts
RS_FROM = 200.0
ZERO_GRID_STEP = 0.1  # spacing of the sign-change scan along the critical line
ZERO_REFINE_TOL = 1e-6  # bisection stops at this bracket width
# lowest height counted: the counting segment passes at distance T above
# the pole at s = 1, and fails to resolve there by T = 1e-100
COUNT_BOTTOM = 0.1
COUNT_EVAL_TOL = 1e-10  # zeta error along the zero-counting segment
_EM_N_CAP = 1 << 22
_BERNOULLI_ORDER_CAP = 30
_POWER_BLOCK = 1 << 16  # n^{-s} terms _power_sums holds at once
_EM_ROWS = 1024  # points per block of Bernoulli terms
_STIRLING_SHIFT = 8  # log Gamma's Stirling series runs at z + 8
_STIRLING_ORDER = 12  # and sums its terms j = 1..12
_SPLIT_DEPTH = 48  # halvings of one segment step before the count is refused
_GABCKE_R4 = 0.017  # |R_4(t)| <= 0.017 t^{-11/4} for t >= 200 (Gabcke 1979)
_PSI_SAMPLES = 96  # points of the Cauchy integral for Psi's Taylor coefficients
_PSI_RADIUS = 2.0  # its circle, clear of the real zeros +-1/2, +-3/2 of cos(pi z)
_PSI_DEGREE = 52  # coefficients kept; the next is below 1e-25
# the rounding of C_0..C_4 as evaluated: the largest error against mpmath's
# derivatives of Psi (40 digits) at 23 points of p in (0, 1) was 8.0e-16
_RS_CORRECTION_ROUNDING = 1e-14


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


def _unit_phase(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of e^{-i theta}, from one tangent.

    With u = tan(theta/2), cos theta = (1 - u^2)/(1 + u^2) and
    sin theta = 2u/(1 + u^2).  numpy's float64 tan is a vector kernel
    (~3 ms per 10^6 values on a 2-vCPU VM, numpy 2.4) where cos and sin
    are not (~29 ms each), and both parts stay within 2.3e-16 of them.
    u stays below 1e19 for every double theta, so u^2 cannot overflow.
    This is the package's one routine for n^{-it}.
    """
    u = np.tan(theta * 0.5)
    u2 = u * u
    den = u2 + 1.0
    re = np.subtract(1.0, u2, out=u2)
    re /= den
    u *= -2.0
    u /= den
    return re, u


def _power_sums(logn: np.ndarray, w, s: np.ndarray) -> np.ndarray:
    """sum_n w_n e^{-s_j log n} at every element s_j of s.

    logn holds log n for the terms summed; w is a scalar, a vector over
    them or a matrix (point, term).  Each term's modulus is a real exp of
    -Re s log n, times w_n, and its phase e^{-i Im s log n} comes from
    _unit_phase; the real and imaginary parts are added apart by np.sum's
    pairwise summation (np.add.reduce), never a BLAS dot.  The rounding of
    the arguments -Re s log n and Im s log n is the caller's to bound; past
    it, a sum of N terms errs by at most (2.3e-16 + 2.2e-16 log2 N)
    sum_n |w_n| n^{-Re s} (tests/test_zeta.py::TestPowerSums).  The points
    run in chunks of at most _POWER_BLOCK terms (one point at least), each
    point a row summed on its own, so a point gets the same bits in any
    call.
    """
    s = np.asarray(s, dtype=np.complex128)
    w = np.asarray(w, dtype=np.float64)
    out = np.empty((len(s), 2))  # real and imaginary part of each sum
    step = max(1, _POWER_BLOCK // max(1, len(logn)))
    for lo in range(0, len(s), step):
        rows = slice(lo, lo + step)
        mod = np.exp(np.multiply.outer(-s[rows].real, logn))
        mod *= w if w.ndim < 2 else w[rows]
        re, im = _unit_phase(np.multiply.outer(s[rows].imag, logn))
        re *= mod
        im *= mod
        np.add.reduce(re, axis=1, out=out[rows, 0])
        np.add.reduce(im, axis=1, out=out[rows, 1])
    return out.view(np.complex128).ravel()


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
    2 * _BERNOULLI_ORDER_CAP.  Points that share N share one _power_sums
    call for their partial sums; N^{-s} takes its phase from _unit_phase,
    and every other step is elementwise, so a point gets the same bits
    whatever batch it is in.
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
            partial[rows] = _power_sums(logn, 1.0, sp[rows])
        Nf = Np.astype(np.float64)
        logN = np.log(Nf)
        re, im = _unit_phase(sp.imag * logN)
        mod = np.exp(-sp.real * logN)
        n_s = np.empty_like(sp)  # N^{-s}
        n_s.real, n_s.imag = mod * re, mod * im
        head = partial + n_s * Nf / (sp - 1) + 0.5 * n_s
        val, trunc = np.empty_like(sp), np.empty(len(sp))
        for lo in range(0, len(sp), _EM_ROWS):
            blk = slice(lo, lo + _EM_ROWS)
            val[blk], trunc[blk], order[todo[blk]] = _bernoulli(
                sp[blk], Nf[blk], n_s[blk], head[blk], target_tol)
        # sum_{n<N} n^{-sigma} <= 1 + (N^{1-sigma} - 1)/(1 - sigma), which
        # is 1 + log N at sigma = 1
        x = 1 - sp.real
        mass = 1.0 + np.divide(np.expm1(x * logN), x, out=logN.copy(), where=x != 0)
        # the pairwise summation of the partial sum, plus the rounding of the
        # arguments s log n and s log N behind every term: |s| log N + 2
        # ulps of the moduli of the partial sum, the N^{-s} terms of head
        # and the Bernoulli part
        rounding = (8e-16 * np.log2(Nf + 1) * (mass + _mod(val))
                    + 2.2e-16 * (_mod(sp) * logN + 2)
                    * (mass + mod * (Nf / _mod(sp - 1) + 0.5) + _mod(val - head)))
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


def _reflection(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """chi(s) at every element of s, and a bound on its relative rounding.

    At u = x + iy = pi s / 2 with y >= 0, 2 e^{-y} sin u is
    sin x (1 + e^{-2y}) - i cos x expm1(-2y), which cannot overflow at any
    height and loses nothing to cancellation near the zeros of sin; a u
    below the real axis takes the conjugate of its mirror's log sin.  The
    branch is irrelevant, as chi is the exp of log chi.  A chi past e^700
    is refused, naming the first s where it is.

    The rounding of log chi is a relative error of chi: four ulps of the
    moduli of the terms log chi sums, s log 2, (s - 1) log pi, u and
    (w - 1/2) log w - w at the Stirling point w of log Gamma(1 - s), with
    u's ulps scaled by |cot u|, the condition of log sin u, near the zeros
    of sin.

    At s = 1, 2, 3, ... Gamma(1 - s) has a pole, and the point is refused
    with a PoleError before any log is taken.
    """
    pole = (s.imag == 0) & (s.real >= 1) & (s.real == np.floor(s.real)) & np.isfinite(s.real)
    if pole.any():
        raise PoleError(f"reflection factor: Gamma(1 - s) has a pole at s={complex(s[pole][0])}")
    u = (math.pi / 2) * s
    y = np.abs(u.imag)
    a, b = 1 + np.exp(-2 * y), -np.expm1(-2 * y)
    sin_x, cos_x = np.sin(u.real), np.cos(u.real)
    scaled_sin = np.empty_like(u)
    scaled_sin.real, scaled_sin.imag = sin_x * a, cos_x * b
    log_sin = y - math.log(2.0) + np.log(scaled_sin)
    log_chi = (s * math.log(2.0) + (s - 1) * math.log(math.pi)
               + np.where(u.imag < 0, log_sin.conj(), log_sin) + _loggamma(1 - s))
    over = log_chi.real > 700
    if over.any():
        raise PrecisionError(f"reflection factor overflows at s={complex(s[over][0])}")
    cot = np.hypot(cos_x * a, sin_x * b) / _mod(scaled_sin)
    w = _mod(1 - s + _STIRLING_SHIFT)
    rel = 8.9e-16 * (_mod(s) * math.log(2 * math.pi) + _mod(u) * np.maximum(1.0, cot)
                     + w * (np.log(w) + 1))
    chi = np.exp(log_chi)
    chi.imag[s.imag == 0] = 0.0  # a real s has a real chi: drop the rounded pi of log sin
    return chi, rel


def reflection_factor(s):
    """chi(s) with zeta(s) = chi(s) zeta(1 - s), at a complex s or at every
    element of an array, each element the bits of its own call: a scalar
    runs as a one-element array, not through numpy's scalar arithmetic."""
    s = np.asarray(s, dtype=np.complex128)
    return _reflection(s.ravel())[0].reshape(s.shape)


def zeta_em(s: complex, target_tol: float = 1e-12) -> ZetaEval:
    """zeta(s) and an error estimate: truncation below target_tol plus the
    rounding, which at |s| near 1e3 can exceed target_tol.

    A one-element call of _zeta_on, so the same bits as that point in any
    batch.  s = 1 is the pole, and a NaN or infinite tolerance is refused.
    """
    s = complex(s)
    value, err, terms, order = _zeta_on(np.array([s]), target_tol)
    return ZetaEval(s=s, value=complex(value[0]), terms_used=int(terms[0]),
                    bernoulli_order=int(order[0]), error_estimate=float(err[0]))


def _zeta_on(
    s: np.ndarray, target_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """zeta at every element of the 1-D array s, the package's one zeta routine.

    Returns the arrays (value, error_estimate, terms_used, bernoulli_order).
    One _em_kernel call takes every point: s itself where Re s >= -0.5, and
    1 - s left of that line, whose value is then chi(s) zeta(1 - s).  A
    trivial zero -2, -4, ... is reported as exactly 0, from no terms.
    """
    s = np.asarray(s, dtype=np.complex128)
    _check_points(s)
    require_finite("tol", target_tol)
    left = s.real < -0.5
    value, err, terms, order = _em_kernel(np.where(left, 1 - s, s), target_tol)
    refl = np.flatnonzero(left)
    if len(refl):
        zero = (s.imag[refl] == 0) & (s.real[refl] % 2 == 0)
        trivial, refl = refl[zero], refl[~zero]
        value[trivial], err[trivial], terms[trivial], order[trivial] = 0, 0, 0, 0
        chi, rel = _reflection(s[refl])
        value[refl] *= chi
        err[refl] = _mod(chi) * err[refl] + (4e-16 + rel) * _mod(value[refl])
    value.imag[s.imag == 0] = 0.0  # a real s has a real zeta, and +0.0, never -0.0
    return value, err, terms, order


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
    val = _zeta_on(_critical(t), HARDY_Z_TOL)[0]
    return (np.exp(1j * rs_theta(t)) * val).real


def hardy_z(t: float) -> float:
    """The Hardy Z-function at one t: real, with |Z(t)| = |zeta(1/2 + it)|."""
    return float(_hardy_z(np.array([float(t)]))[0])


@cache
def _rs_corrections() -> tuple[np.ndarray, ...]:
    """C_0..C_4 of the Riemann-Siegel remainder as polynomials in z = 1 - 2p,
    np.polyval coefficients, built on first use.

    Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p is -cos(pi z^2/2 - 5pi/8) /
    cos(pi z), entire and even in z.  Its Taylor coefficients are a Cauchy
    integral on |z| = _PSI_RADIUS, and the C_k are the combinations of
    derivatives d/dp = -2 d/dz given by Edwards (1974, ch. 7).
    """
    j = np.arange(_PSI_SAMPLES)
    z = _PSI_RADIUS * np.exp(2j * math.pi * j / _PSI_SAMPLES)
    psi = -np.cos(math.pi * z * z / 2 - 5 * math.pi / 8) / np.cos(math.pi * z)
    k = j[:_PSI_DEGREE]
    a = (np.exp(-2j * math.pi * np.outer(k, j) / _PSI_SAMPLES) @ psi).real
    a /= _PSI_SAMPLES * _PSI_RADIUS**k
    a[1::2] = 0.0  # Psi is even in z

    def deriv(order: int) -> np.ndarray:
        c = a
        for _ in range(order):
            c = -2.0 * c[1:] * np.arange(1, len(c))
        return np.pad(c, (0, order))

    pi2 = math.pi**2
    rows = (
        ((1.0, 0),),
        ((-1 / (96 * pi2), 3),),
        ((1 / (64 * pi2), 2), (1 / (18432 * pi2**2), 6)),
        ((-1 / (64 * pi2), 1), (-1 / (3840 * pi2**2), 5), (-1 / (5308416 * pi2**3), 9)),
        ((1 / (128 * pi2), 0), (19 / (24576 * pi2**2), 4), (11 / (5898240 * pi2**3), 8),
         (1 / (2038431744 * pi2**4), 12)),
    )
    return tuple(sum(w * deriv(order) for w, order in row)[::-1] for row in rows)


def _riemann_siegel(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z and a bound on its error at every element of t, all t >= RS_FROM.

    Z(t) = 2 sum_{n <= m} n^{-1/2} cos(theta(t) - t log n)
           + (-1)^{m-1} (2pi/t)^{1/4} sum_{k <= 4} C_k(p) (2pi/t)^{k/2} + R_4(t)
    with m + p = sqrt(t / 2pi), p in [0, 1) (Siegel 1932).  The cosine is
    the real part of _unit_phase's tangent form.  The bound is Gabcke's on
    R_4, plus the rounding of each term carried through the main sum: four
    ulps of the moduli of the terms behind theta and of t log n for the
    phase theta(t) - t log n, 2.3e-16 for the tangent form's distance from
    the cosine of that phase, and m half-ulps for the cosine's own rounding,
    the products and the sum; plus the rounding of the C_k.  The tangent
    form adds 2.3e-16 sum_n 2 n^{-1/2} < 1e-15 sqrt(m) to a bound that is
    above 1e-10 on the whole range.
    """
    a = np.sqrt(t / (2 * math.pi))
    m = a.astype(np.int64)
    n = np.arange(1, int(m.max()) + 1)
    logn = np.log(n)
    weight = np.where(n <= m[:, None], 2 / np.sqrt(n), 0.0)
    theta = rs_theta(t)
    main = (weight * _unit_phase(theta[:, None] - t[:, None] * logn)[0]).sum(axis=1)
    u = np.sqrt(2 * math.pi / t)
    z = 1 - 2 * (a - m)
    corr = np.zeros_like(t)
    for c in reversed(_rs_corrections()):
        corr = corr * u + np.polyval(c, z)
    sign = 1 - 2 * ((m - 1) & 1)  # (-1)^{m-1}
    w = np.hypot(0.25 + _STIRLING_SHIFT, t / 2)  # the Stirling point of theta
    theta_err = 8.9e-16 * (w * (np.log(w) + 1) + t)
    phase_err = (theta_err[:, None] + 8.9e-16 * t[:, None] * logn + 2.3e-16
                 + m[:, None] * 1.2e-16)
    err = (_GABCKE_R4 * t**-2.75 + (weight * phase_err).sum(axis=1)
           + _RS_CORRECTION_ROUNDING)
    return main + sign * np.sqrt(u) * corr, err


def _sign_samples(t: np.ndarray) -> np.ndarray:
    """Z at every element of t, for its sign.

    From RS_FROM up the Riemann-Siegel value stands wherever its modulus
    exceeds its error bound, so its sign is certified; every other point,
    and every point below RS_FROM, takes _hardy_z.  The values differ from
    _hardy_z's; the signs agree wherever both are certain.
    """
    t = np.asarray(t, dtype=np.float64)
    z = np.empty(len(t))
    em = t < RS_FROM
    rs = np.flatnonzero(~em)
    if len(rs):
        value, err = _riemann_siegel(t[rs])
        z[rs] = value
        em[rs[np.abs(value) <= err]] = True
    if em.any():
        z[em] = _hardy_z(t[em])
    return z


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
    """The ZERO_GRID_STEP grid on [1, T], T > 1, and _sign_samples of Z on
    all of it at once: values to read signs from, Riemann-Siegel's where
    certified.  The grid is the running sum 1, 1 + step, ... below T, then
    T itself, so the grid to a lower height is a prefix of this one plus
    that height."""
    steps = np.full(int((T - 1) / ZERO_GRID_STEP) + 3, ZERO_GRID_STEP)
    steps[0] = 1.0
    grid = np.cumsum(steps)
    grid = np.append(grid[grid < T], T)
    return grid, _sign_samples(grid)


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
        counts[above] = before[below] + _changes_sign(z[below], _sign_samples(heights[above]))
    return counts.tolist()


def critical_line_zeros(T: float) -> list[ZeroRecord]:
    """All sign-change zeros of the critical-line restriction up to height T.

    Bisection only, of every cell in lockstep: one _sign_samples call per
    halving covers all cells still wider than ZERO_REFINE_TOL.  Every
    bracket and ordinate depends on signs alone, which are the
    Euler-Maclaurin ones wherever Riemann-Siegel cannot certify its own.  A
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
        fm = _sign_samples(mid)
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
        fm = _zeta_on(m, COUNT_EVAL_TOL)[0]
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
    vals = _zeta_on(pts, COUNT_EVAL_TOL)[0]
    arg = float(np.angle(vals[0])) + _phase_change(pts[:-1], pts[1:], vals[:-1], vals[1:])
    winding = (float(rs_theta(T)) + arg) / math.pi + 1
    nearest = round(winding)
    if abs(winding - nearest) > 1e-3:
        raise ContourError(
            f"winding {winding} is not close to an integer; the contour passes "
            "near a zero -- retry with a shifted T"
        )
    return int(nearest)


def _count_reports(Ts: list[float]) -> Iterator[ZeroCountReport]:
    """A ZeroCountReport at every checked height of Ts, in order: the
    sign-change counts from one sweep, done at once, and each height's
    winding count when its report is drawn.  One zero per sign-change
    cell, so counting needs no bisection."""
    return (ZeroCountReport(T=T, winding_count=_winding_count(T), sign_change_count=changes)
            for T, changes in zip(Ts, _sign_change_counts(Ts)))


def zero_count_report(T: float) -> ZeroCountReport:
    """Count zeros with 0 < Im s <= T two independent ways.

    The Riemann-von Mangoldt formula, theta(T) plus the change of arg zeta
    along the segment 1.5 + iT -> 0.5 + iT, counts all strip zeros with
    multiplicity; the sign-change count sees only odd-order critical-line
    zeros.  A discrepancy means a missed or off-line zero.
    """
    _check_count_height(T)
    return next(_count_reports([T]))


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
    for report in _count_reports(T_list):
        n = _agreed(report)
        rows.append(RatioRow(T=report.T, N=n, ratio=n / (report.T * math.log10(report.T))))
    return rows
