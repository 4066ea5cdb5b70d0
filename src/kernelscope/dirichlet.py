"""Dirichlet series three ways: truncation, matrix recursion, zeta quotients.

The recursion route continues the Dirichlet vector G(s) = sum U_n n^{-s}
of a linear representation below its abscissa.  With digits r = 0..k-1,
averaged digit matrix Abar, generalized binomial C, and a split point Q,
the tail H(s) = G(s) - sum_{n<Q} U_n n^{-s} satisfies

    (I - k^{1-s} Abar) H(s) = sum_{Q <= n < kQ} U_n n^{-s}
        + sum_{r>=1} A_r sum_{m>=1} C(s+m-1, m) (-r)^m k^{-(s+m)} H(s+m),

an expansion in r/(kQ): Q grows with |Im s| so the correction series
never develops the e^{~|t|/2} cancellation the Q = 1 form suffers, and
solving for H rather than G keeps the tail's relative precision.  Each
evaluation carries a budget of descent levels; at budget zero the tail is
summed directly (valid for Re s above 1 plus the coefficient growth
degree).  One engine evaluates a whole vertical column of points at
once; a single evaluation is a column of one point.  Near-singular
systems at the requested point are refused as candidate poles; hitting
one strictly inside the recursion (a removable coefficient-times-pole
limit, e.g. zeta at s = 0 needing the value at the pole s+1 = 1) is
resolved by averaging two evaluations offset by +-i h, which is O(h^2)
accurate for an analytic target.
"""

from __future__ import annotations

import cmath
import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, partial

import numpy as np

from .automaton import LinearRepresentation, average_matrix, pole_lattice, vector_values
from .errors import CapacityError, DomainError
from .seqgen import FunctionId, ValueTable, build_factor_table, generate
from .zeta import zeta_em

BASE_STRIP_SIGMA = 1.25
_DIRECT_TOL = 1e-9
_DIRECT_CAP = 1 << 21
_CHUNK = 1 << 19  # terms per block of a long direct sum
_NEAR_SINGULAR_DET = 1e-8
_OFFSET_H = 1e-4
_M_CAP = 200


@dataclass(frozen=True)
class EvalResult:
    """A Dirichlet-series value with method tag and error bookkeeping.

    ``value`` is None exactly when the evaluation was refused at a
    candidate pole (near_singular set, det_magnitude filled in).
    """

    s: complex
    value: complex | None
    method: str
    error_estimate: float
    near_singular: bool = False
    det_magnitude: float | None = None
    truncated: bool = False
    terms: int | None = None
    offset_averaged: bool = False

    def to_json(self) -> dict:
        return {
            "s": [self.s.real, self.s.imag],
            "value": None if self.value is None else [self.value.real, self.value.imag],
            "method": self.method,
            "error_estimate": self.error_estimate,
            "near_singular": self.near_singular,
            "det_magnitude": self.det_magnitude,
            "truncated": self.truncated,
            "terms": self.terms,
            "offset_averaged": self.offset_averaged,
        }


def direct_sum(t: ValueTable, s: complex, N_terms: int) -> EvalResult:
    """Plain truncation sum_{n <= N_terms} f(n) n^{-s}.

    Requires Re s >= 1.25 + d for the recorded growth degree d of f, so
    the integral tail bound C N^{1+d-sigma}/(sigma-1-d) is meaningful.
    """
    s = complex(s)
    C, d = t.id.growth_bound()
    sigma = s.real
    if sigma < 1.25 + d:
        raise DomainError(
            f"direct summation of {t.id} needs Re s >= {1.25 + d} "
            f"(growth degree {d}), got {sigma}"
        )
    if not 1 <= N_terms <= t.N:
        raise CapacityError(
            f"N_terms={N_terms} outside the table range 1..{t.N} for {t.id}"
        )
    total = 0j
    for lo in range(1, N_terms + 1, _CHUNK):
        hi = min(N_terms, lo + _CHUNK - 1)
        n = np.arange(lo, hi + 1, dtype=np.float64)
        total += complex(
            np.sum(t.values[lo : hi + 1].astype(np.float64) * np.exp(-s * np.log(n)))
        )
    tail = C * N_terms ** (1 + d - sigma) / (sigma - 1 - d)
    rounding = 1e-15 * math.log2(N_terms + 1) * (1 + abs(total))
    return EvalResult(
        s=s,
        value=total,
        method="direct",
        error_estimate=tail + rounding,
        truncated=True,
        terms=N_terms,
    )


class ContinuationContext:
    """s-independent precomputation shared across evaluations of one rep.

    Holds float copies of the digit matrices, the averaged matrix and the
    vectors U_n (the longest prefix asked for so far); grid scans reuse
    one context for every column.
    """

    def __init__(self, rep: LinearRepresentation):
        self.rep = rep
        abar_fr = average_matrix(rep)
        self.abar = np.array([[float(x) for x in row] for row in abar_fr])
        self.mats = [np.asarray(a, dtype=np.float64) for a in rep.matrices]
        self.mat_norms = [float(np.abs(a).sum(axis=1).max()) for a in self.mats]
        self.seed_scale = max(1.0, float(np.abs(rep.seeds).max()))
        self._u = np.zeros((1, rep.dim))

    def u(self, N: int) -> np.ndarray:
        """U_0..U_N as floats (row 0 unused)."""
        u = self._u
        if len(u) <= N:
            # returned from the local: a concurrent call may store a shorter one
            u = np.asarray(vector_values(self.rep, N), dtype=np.float64)
            self._u = u
        return u[: N + 1]


def split_point(k: int, t_extreme: float) -> int:
    """First summation index Q of the tail the binomial series expands.

    The series in m behaves like the Taylor series of (1-x)^{-s} at
    x = r/(kQ); its terms peak near exp(|Im s| x/(1-x)) before decaying,
    so Q grows with the height to cap the cancellation mass at ~e^4.
    """
    return max(1, math.ceil(abs(t_extreme) * (k - 1) / (4 * k)) + 1)


def default_levels(s: complex) -> int:
    """Enough descent that budget-zero nodes land where truncation is easy."""
    return max(2, math.ceil(3.5 - complex(s).real))


class _Level:
    """The solved nodes of one descent budget: tails H(s + offset), their
    errors and their scales |H|_inf per point, at offsets lo, lo + 1, ...

    A parent at offset o asks its budget's children for the offsets
    o + 1 .. o + m_eff, and parents are solved in rising offset order, so
    every budget solves one unbroken run of offsets.  Rows grow by
    doubling; a parent reads its children as one slice.
    """

    def __init__(self, lo: int, ny: int, dim: int):
        self.lo = lo
        self.n = 0
        self.vec = np.empty((4, ny, dim), dtype=np.complex128)
        self.err = np.empty((4, ny))
        self.scale = np.empty((4, ny))

    @property
    def end(self) -> int:
        """One past the last solved offset: the next one to solve."""
        return self.lo + self.n

    def append(self, vec: np.ndarray, err: np.ndarray) -> None:
        if self.n == len(self.err):
            self.vec, self.err, self.scale = (
                np.concatenate([a, np.empty_like(a)]) for a in (self.vec, self.err, self.scale))
        self.vec[self.n] = vec
        self.err[self.n] = err
        self.scale[self.n] = np.abs(vec).max(axis=1)
        self.n += 1

    def rows(self, first: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        i = first - self.lo
        return self.vec[i : i + m], self.err[i : i + m], self.scale[i : i + m]


class _ColumnEngine:
    """The continuation at every point x + i y, y in ys, at once.

    Every node of the recursion is an array over the column's imaginary
    parts: systems are solved with numpy's stacked solver and the strip
    sums are products against the n^{-s} row of each point.  Points whose
    top system is near-singular are refused; points that meet a
    near-singular system strictly inside the recursion are evaluated
    again as one column at y +- h and averaged.  ``Q`` defaults to the
    split point of the column's largest height.
    """

    def __init__(self, ctx: ContinuationContext, x: float, ys: np.ndarray,
                 levels: int, m_max: int, Q: int | None = None):
        self.ctx = ctx
        self.x = x
        self.ys = ys
        self.s_col = x + 1j * ys
        self.ny = len(ys)
        self.levels = levels
        self.m_max = m_max
        self.y_extreme = float(np.abs(ys).max(initial=0.0))
        self.Q = split_point(ctx.rep.k, self.y_extreme) if Q is None else Q
        # memo[b]: the nodes of budget b; the top node (offset 0) has budget
        # levels and every step down adds at least 1 to the offset
        self.memo = [_Level(levels - b, self.ny, ctx.rep.dim) for b in range(levels + 1)]
        # k^{-s} per point: a node's k^{-(s+offset+m)} is this times a real power
        self.k_pow_s = float(ctx.rep.k) ** -self.s_col
        self.inner_bad = np.zeros(self.ny, dtype=bool)
        self.top_bad = np.zeros(self.ny, dtype=bool)
        self.top_det: np.ndarray | None = None
        self.truncated = False
        self.terms = 0
        self._e_matrix: np.ndarray | None = None
        self._e_len = 0
        self._logn: np.ndarray | None = None

    def _base(self, offset: int) -> tuple[np.ndarray, np.ndarray]:
        # tail H(s + offset) = sum_{q >= Q} U_q q^{-s-offset} by truncation
        sigma = self.x + offset
        C, d = self.ctx.rep.growth
        if sigma < 1 + d + 0.25:
            raise DomainError(
                f"recursion budget exhausted at Re s = {sigma}; the direct strip "
                f"needs Re s >= {1 + d + 0.25} -- increase levels"
            )
        power = sigma - 1 - d
        need = (C / (_DIRECT_TOL * power)) ** (1 / power)
        if not math.isfinite(need) or need >= _DIRECT_CAP:
            N = _DIRECT_CAP
        else:
            # quantized so the U-array cache is rarely regrown
            N = min(_DIRECT_CAP, 1 << max(6, math.ceil(math.log2(need + 1))))
        tail = C * N ** (-power) / power
        if N >= _DIRECT_CAP and tail > _DIRECT_TOL:
            self.truncated = True
        N = max(N, 2 * self.Q)
        self.terms = max(self.terms, N)
        vals, mass = self._strip(offset, self.Q, N + 1)
        # rounding scales with the summed mass, not an absolute floor: deep
        # tails are tiny and their errors must stay tiny relative to them
        rounding = 1e-15 * math.log2(N + 1) * mass
        return vals, np.full(self.ny, tail + rounding)

    def _e(self, N: int) -> np.ndarray:
        # shared n^{-s_j} matrix, grown on demand
        if self._e_matrix is None or N > self._e_len:
            n = np.arange(1, N + 1, dtype=np.float64)
            self._logn = np.log(n)
            self._e_matrix = np.exp(np.outer(-self.s_col, self._logn))
            self._e_len = N
        return self._e_matrix[:, :N]

    def _strip(self, offset: int, lo: int, hi: int) -> tuple[np.ndarray, float]:
        """sum_{n=lo}^{hi-1} U_n n^{-s-offset} for the whole column, and
        its mass sum_n n^{-sigma-offset} |U_n|_inf.

        Strips ending at n <= _CHUNK use the shared n^{-s} matrix, which
        every node of the column reuses; longer ones are summed in blocks
        so a long direct tail never holds a whole n^{-s} row.
        """
        if hi <= lo:
            return np.zeros((self.ny, self.ctx.rep.dim), dtype=np.complex128), 0.0
        u = self.ctx.u(hi - 1)
        if hi - 1 <= _CHUNK:
            e = self._e(hi - 1)[:, lo - 1 :]
            logn = self._logn[lo - 1 : hi - 1]
            vals = e @ (u[lo:hi] * np.exp(-offset * logn)[:, None])
            mass = float(np.exp(-(self.x + offset) * logn) @ np.abs(u[lo:hi]).max(axis=1))
            return vals, mass
        vals = np.zeros((self.ny, self.ctx.rep.dim), dtype=np.complex128)
        mass = 0.0
        block = max(1, _CHUNK // self.ny)
        for a in range(lo, hi, block):
            b = min(hi, a + block)
            logn = np.log(np.arange(a, b, dtype=np.float64))
            vals += np.exp(np.outer(-(self.s_col + offset), logn)) @ u[a:b]
            mass += float(np.exp(-(self.x + offset) * logn) @ np.abs(u[a:b]).max(axis=1))
        return vals, mass

    def _system(self, offset: int) -> tuple[np.ndarray, np.ndarray]:
        """I - k^{1-s} Abar at s + offset for every point (its one entry
        when dim = 1), with |det|."""
        ctx = self.ctx
        fac = ctx.rep.k ** (1 - (self.s_col + offset))
        if ctx.rep.dim == 1:
            system = 1 - fac * ctx.abar[0, 0]
            return system, np.abs(system)
        dim = ctx.rep.dim
        system = np.eye(dim)[None, :, :] - fac[:, None, None] * ctx.abar[None, :, :]
        return system, np.abs(np.linalg.det(system))

    @property
    def nodes(self) -> int:
        """Nodes solved so far."""
        return sum(level.n for level in self.memo)

    def _tails(self, first: int, m: int, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tails H(s + offset) for offsets first .. first + m - 1 at this
        budget, with their errors and scales, solving those not yet solved;
        the caller adds the head back."""
        level = self.memo[budget]
        while level.end < first + m:
            self._solve_node(level, budget)
        return level.rows(first, m)

    def _solve_node(self, level: _Level, budget: int) -> None:
        """Solve the next node of a budget and store it."""
        offset = level.end
        if budget == 0:
            level.append(*self._base(offset))
            return
        ctx = self.ctx
        k, dim = ctx.rep.k, ctx.rep.dim
        s_vec = self.s_col + offset
        system, det = self._system(offset)
        singular = det < _NEAR_SINGULAR_DET
        if offset == 0:
            self.top_det = det
            self.top_bad |= singular
        else:
            self.inner_bad |= singular
        if singular.any():
            system[singular] = 1.0 if dim == 1 else np.eye(dim)
        m_eff, horizon = self._m_horizon(complex(self.x + offset, self.y_extreme))
        # (m_eff, ny, dim), (m_eff, ny) and (m_eff, ny)
        gs, g_errs, g_scale = self._tails(offset + 1, m_eff, budget - 1)
        ms = np.arange(1, m_eff + 1)
        # C(s+m-1, m) k^{-(s+m)} as one running product that starts from
        # k^{-s_col} k^{-offset}: every partial product stays near the term
        # it weighs, where C(s+m-1, m) alone overflows at deep nodes
        steps = (s_vec[:, None] + ms[None, :] - 1) / (k * ms[None, :])
        steps[:, 0] *= self.k_pow_s * float(k) ** -offset
        ck = np.cumprod(steps, axis=1)
        # the n < Q head cancels out of the system exactly, so the right-hand
        # side and the solution stay on the tail's scale (no lost precision)
        rhs = self._strip(offset, self.Q, k * self.Q)[0]
        # error propagation is relative: a child's absolute error only matters
        # at the scale its term actually contributes to the right-hand side
        rel_children = g_errs / np.maximum(g_scale, 1e-300)
        err_rhs = np.zeros(self.ny)
        for r in range(1, k):
            w = ck * np.float_power(-r, ms)[None, :]  # (ny, m_eff)
            contrib = np.einsum("ym,myd->yd", w, gs)
            rhs += contrib @ ctx.mats[r].T
            mass = np.abs(w) * g_scale.T
            err_rhs += 4.0 * np.einsum("ym,my->y", mass, rel_children)
            err_rhs += 4e-16 * mass.sum(axis=1)
            if horizon:
                # terms m > m_eff: the last kept term times the envelope's tail
                last = ctx.mat_norms[r] * mass[:, -1]
                err_rhs += last * horizon if math.isfinite(horizon) else np.where(
                    last > 0, math.inf, 0.0)
        if dim == 1:
            sol = rhs / system[:, None]
            inv_norm = 1.0 / np.abs(system)
        else:
            sol = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
            inv_norm = np.abs(np.linalg.inv(system)).sum(axis=2).max(axis=1)
        err = inv_norm * (err_rhs + 1e-16 * np.abs(rhs).max(axis=1))
        level.append(sol, err)

    def _m_horizon(self, s: complex) -> tuple[int, float]:
        """Cut the correction series where its terms stop mattering.

        The m-th term is bounded by k^{-sigma} |C(s+m-1, m)| ((k-1)/(k Q))^m
        times a bounded tail value; the envelope uses the same recurrence as
        the coefficients, so an exactly-zero coefficient factor (s at a
        nonpositive integer) zeroes the envelope too.  Each step
        |s+m|/(m+1) ratio is at most ratio (1 + |s-1|/(m+1)), which falls
        with m, so once that step bound is below 1 every later term is
        below the last kept one times a geometric series.

        The series is cut at the first m where the envelope is below 1e-16
        and that step bound is below 1; an envelope that is tiny while still
        rising (Q = 1 at large sigma) can climb back to O(1), so it is not
        cut there.  Returns the cut and the terms it drops as a multiple of
        the last kept one: the geometric tail at such a cut, else the
        envelope's sum past m_max over its value there, the recurrence run
        on while the step bound is not yet below 1.
        """
        k = self.ctx.rep.k
        ratio = (k - 1) / (k * self.Q)
        envelope = self.ctx.seed_scale * float(k) ** -s.real
        for m in range(1, self.m_max + 1):
            envelope *= ratio * abs(s + m - 1) / m
            step_max = ratio * (1 + abs(s - 1) / (m + 1))
            if envelope < 1e-16 and step_max < 1:
                return m, step_max / (1 - step_max)
        self.truncated = True
        term, dropped, m = 1.0, 0.0, self.m_max
        while math.isfinite(dropped):
            step_max = ratio * (1 + abs(s - 1) / (m + 1))
            if step_max < 1:
                return self.m_max, dropped + term * step_max / (1 - step_max)
            term *= ratio * abs(s + m) / (m + 1)
            dropped += term
            m += 1
        return self.m_max, math.inf

    def _solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Output-coordinate values and errors over the column."""
        vec, err, _ = self._tails(0, 1, self.levels)
        vec, err = vec[0], err[0].copy()  # run() rewrites err in place
        if self.levels == 0:
            self.top_det = self._system(0)[1]
        vec = vec + self._strip(0, 1, self.Q)[0]
        return vec[:, self.ctx.rep.output_coord], err

    def run(self) -> list[EvalResult]:
        value, err = self._solve()
        refused = self.top_bad.copy()
        averaged = self.inner_bad & ~refused
        truncated = np.full(self.ny, self.truncated)
        terms = np.full(self.ny, self.terms)
        idx = np.flatnonzero(averaged)
        if len(idx):
            # removable inner singularity: one column of the points at y +- h
            y, n = self.ys[idx], len(idx)
            pair = np.concatenate([y + _OFFSET_H, y - _OFFSET_H])
            twin = _ColumnEngine(self.ctx, self.x, pair, self.levels, self.m_max, Q=self.Q)
            t_val, t_err = twin._solve()
            value[idx] = (t_val[:n] + t_val[n:]) / 2
            err[idx] = np.maximum(t_err[:n], t_err[n:]) + _OFFSET_H**2
            truncated[idx], terms[idx] = twin.truncated, twin.terms
            bad = twin.top_bad | twin.inner_bad
            refused[idx] = bad[:n] | bad[n:]
            averaged &= ~refused
        results = []
        for j, s in enumerate(self.s_col.tolist()):
            det = float(self.top_det[j])
            if refused[j]:
                results.append(EvalResult(
                    s=s, value=None, method="recursion", error_estimate=math.inf,
                    near_singular=True, det_magnitude=det,
                ))
            else:
                results.append(EvalResult(
                    s=s, value=complex(value[j]), method="recursion",
                    error_estimate=float(err[j]), det_magnitude=det,
                    truncated=bool(truncated[j]), terms=int(terms[j]) or None,
                    offset_averaged=bool(averaged[j]),
                ))
        return results


def _continue(rep, x, ys, levels, m_max, ctx) -> list[EvalResult]:
    """Validate the descent settings and run one column.  Both public entry
    points call this, not each other: one evaluation, one public call."""
    if levels is None:
        levels = default_levels(complex(x, 0.0))
    if levels < 0:
        raise DomainError(f"levels must be >= 0, got {levels}")
    if m_max < 2:
        raise DomainError(f"m_max must be >= 2, got {m_max}")
    if x <= BASE_STRIP_SIGMA - levels:
        raise DomainError(
            f"Re s = {x} outside the continued region Re s > "
            f"{BASE_STRIP_SIGMA - levels} for levels={levels}"
        )
    if ctx is None:
        ctx = ContinuationContext(rep)
    ys = np.asarray(list(ys), dtype=np.float64)
    if len(ys) == 0:
        return []
    return _ColumnEngine(ctx, x, ys, levels, m_max).run()


def continue_via_recursion(
    rep: LinearRepresentation,
    s: complex,
    levels: int | None = None,
    m_max: int = _M_CAP,
    *,
    ctx: ContinuationContext | None = None,
) -> EvalResult:
    """Analytic continuation of the output coordinate's Dirichlet series.

    ``levels`` bounds the descent depth; the continued region is
    Re s > 1.25 - levels.  At a candidate pole of the series itself the
    value is refused (near_singular, det_magnitude).  A near-singular
    system met strictly inside the recursion is removable and handled by
    +-i h offset averaging.  This is a column of one point.
    """
    s = complex(s)
    return _continue(rep, s.real, [s.imag], levels, m_max, ctx)[0]


def continue_column(
    rep: LinearRepresentation,
    x: float,
    ys,
    levels: int | None = None,
    m_max: int = _M_CAP,
    ctx: ContinuationContext | None = None,
) -> list[EvalResult]:
    """Batched continuation at the points x + i y for every y in ys."""
    return _continue(rep, x, ys, levels, m_max, ctx)


# --- closed forms -----------------------------------------------------------

IDENTITY_TAGS = (
    "mu",
    "lambda",
    "q_m",
    "phi",
    "rho",
    "tau_of_square",
    "tau_squared",
    "chi_P",
    "chi_PP",
    "omega",
    "big_omega",
)

_IDENTITY_FORMS = {
    "mu": "1/zeta(s)",
    "lambda": "zeta(2s)/zeta(s)",
    "q_m": "zeta(s)/zeta(ms)",
    "phi": "zeta(s-1)/zeta(s)",
    "rho": "zeta(s)^2/zeta(2s)",
    "tau_of_square": "zeta(s)^3/zeta(2s)",
    "tau_squared": "zeta(s)^4/zeta(2s)",
    "chi_P": "sum_n mu(n)/n log zeta(ns)",
    "chi_PP": "sum_j sum_n mu(n)/n log zeta(jns)",
    "omega": "zeta(s) sum_n mu(n)/n log zeta(ns)",
    "big_omega": "zeta(s) sum_n phi(n)/n log zeta(ns)",
}

_LOG_SERIES_TAGS = {"chi_P", "chi_PP", "omega", "big_omega"}


@dataclass(frozen=True)
class IdentityId:
    """One closed-form identity, with its half-plane of validity."""

    tag: str
    param: int | None = None

    def __post_init__(self):
        if self.tag not in IDENTITY_TAGS:
            raise DomainError(f"unknown identity tag {self.tag!r}")
        if self.tag == "q_m":
            if self.param is None or self.param < 2:
                raise DomainError("q_m requires a parameter m >= 2")
        elif self.param is not None:
            raise DomainError(f"{self.tag} takes no parameter")

    @property
    def sigma_min(self) -> float:
        return 2.0 if self.tag == "phi" else 1.0

    @property
    def form(self) -> str:
        return _IDENTITY_FORMS[self.tag]

    def function_id(self) -> FunctionId:
        return FunctionId(self.tag, self.param)

    def __str__(self):
        return self.tag if self.param is None else f"{self.tag}({self.param})"


def _table(tag: str, limit: int) -> np.ndarray:
    return generate(FunctionId(tag), limit, build_factor_table(limit)).values


@cache
def _small_table(tag: str) -> list[int]:
    """mu or phi on 0..512, built on first use."""
    return _table(tag, 512).tolist()


def _checked_zeta(w: complex, tol: float) -> complex:
    """zeta(w), refused within 1e-6 of the pole or of a zero."""
    w = complex(w)
    if abs(w - 1) < 1e-6:
        raise _NearZetaSingular(w, abs(w - 1))
    val = zeta_em(w, tol).value
    if abs(val) < 1e-6:
        raise _NearZetaSingular(w, abs(val))
    return val


def _log_zeta(w: complex, tol: float) -> complex:
    # principal branch; callers restrict arguments to Re w >= 2 where
    # zeta(w) stays in the right half-plane around 1
    return cmath.log(_checked_zeta(w, tol))


def _prime_zeta(s: complex, tol: float) -> complex:
    """P(s) = sum over square-free n of mu(n)/n log zeta(ns)."""
    mu = _small_table("mu")
    acc = 0j
    sigma = s.real
    for n in range(1, 400):
        envelope = 6.0 * 2.0 ** (-n * sigma) / n
        if envelope < 1e-16:
            break
        if mu[n] == 0:
            continue
        acc += mu[n] / n * _log_zeta(n * s, tol)
    return acc


def _totient_log_series(s: complex, tol: float) -> complex:
    """sum_n phi(n)/n log zeta(ns); terms decay like 2^{-n sigma}."""
    phi = _small_table("phi")
    acc = 0j
    sigma = s.real
    for n in range(1, 400):
        envelope = 6.0 * 2.0 ** (-n * sigma)
        if envelope < 1e-16:
            break
        acc += phi[n] / n * _log_zeta(n * s, tol)
    return acc


def _prime_power_zeta(s: complex, tol: float) -> complex:
    """sum_{j>=1} sum_n mu(n)/n log zeta(jns)."""
    acc = 0j
    sigma = s.real
    for j in range(1, 400):
        envelope = 6.0 * 2.0 ** (-j * sigma)
        if envelope < 1e-16:
            break
        acc += _prime_zeta(j * s, tol)
    return acc


def zeta_quotient_eval(
    ident: IdentityId, s: complex, zeta_tol: float = 1e-12
) -> EvalResult:
    """Evaluate the closed form of one identity at s.

    Validity: Re s > 1 (phi: Re s > 2).  The log-zeta series forms are
    additionally restricted to real s > 1 or Re s >= 2, where every
    zeta(ns) stays near 1 in the right half-plane and the principal
    branch is the continuous one.  Arguments within 1e-6 of the zeta pole
    or a zeta zero are refused as near-singular.
    """
    s = complex(s)
    if s.real <= ident.sigma_min:
        raise DomainError(
            f"identity {ident} is valid for Re s > {ident.sigma_min}, got {s}"
        )
    if ident.tag in _LOG_SERIES_TAGS and s.imag != 0 and s.real < 2:
        raise DomainError(
            f"the log-zeta series for {ident} is evaluated only at real s > 1 "
            "or Re s >= 2 (principal-branch region)"
        )

    z = partial(_checked_zeta, tol=zeta_tol)
    tag = ident.tag
    try:
        if tag == "mu":
            value = 1 / z(s)
        elif tag == "lambda":
            value = z(2 * s) / z(s)
        elif tag == "q_m":
            value = z(s) / z(ident.param * s)
        elif tag == "phi":
            value = z(s - 1) / z(s)
        elif tag == "rho":
            value = z(s) ** 2 / z(2 * s)
        elif tag == "tau_of_square":
            value = z(s) ** 3 / z(2 * s)
        elif tag == "tau_squared":
            value = z(s) ** 4 / z(2 * s)
        elif tag == "chi_P":
            value = _prime_zeta(s, zeta_tol)
        elif tag == "chi_PP":
            value = _prime_power_zeta(s, zeta_tol)
        elif tag == "omega":
            value = z(s) * _prime_zeta(s, zeta_tol)
        else:  # big_omega
            value = z(s) * _totient_log_series(s, zeta_tol)
    except _NearZetaSingular as exc:
        return EvalResult(
            s=s,
            value=None,
            method="zeta_quotient",
            error_estimate=math.inf,
            near_singular=True,
            det_magnitude=exc.distance,
        )
    est = 1e-10 * (1 + abs(value))
    return EvalResult(
        s=s, value=value, method="zeta_quotient", error_estimate=est
    )


class _NearZetaSingular(Exception):
    def __init__(self, at: complex, distance: float):
        self.at = at
        self.distance = distance
        super().__init__(f"zeta argument {at} within {distance:.2e} of a pole/zero")


@dataclass(frozen=True)
class IdentitySample:
    s: complex
    lhs: complex
    rhs: complex
    residual: float
    bound: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "s": [self.s.real, self.s.imag],
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "bound": self.bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class IdentityReport:
    ident: IdentityId
    N_terms: int
    samples: tuple[IdentitySample, ...]

    @property
    def all_passed(self) -> bool:
        return all(x.passed for x in self.samples)

    def to_json(self) -> dict:
        return {
            "identity": str(self.ident),
            "form": self.ident.form,
            "N_terms": self.N_terms,
            "all_passed": self.all_passed,
            "samples": [x.to_json() for x in self.samples],
        }


def verify_identity(
    ident: IdentityId,
    t: ValueTable,
    s_samples: list[complex],
    N_terms: int,
    slack: float = 1e-9,
) -> IdentityReport:
    """Truncated sum vs closed form; PASS iff residual <= tail bound + slack."""
    want = ident.function_id()
    if (t.id.tag, t.id.param, t.id.modulus) != (want.tag, want.param, None):
        raise DomainError(
            f"identity {ident} describes {want}, but the table holds {t.id}"
        )
    samples = []
    for s in s_samples:
        lhs = direct_sum(t, s, N_terms)
        rhs = zeta_quotient_eval(ident, s)
        if rhs.value is None:
            raise DomainError(
                f"closed form for {ident} is near-singular at s={s}"
            )
        residual = abs(lhs.value - rhs.value)
        bound = lhs.error_estimate + slack
        samples.append(
            IdentitySample(
                s=complex(s),
                lhs=lhs.value,
                rhs=rhs.value,
                residual=residual,
                bound=bound,
                passed=residual <= bound,
            )
        )
    return IdentityReport(ident=ident, N_terms=N_terms, samples=tuple(samples))


def landau_walfisz_singularities(n_max: int) -> list[Fraction]:
    """{1/n : n <= n_max square-free}, descending.

    These are the real singular points of the prime zeta function coming
    from the pole of zeta: one for every square-free n.  They accumulate
    at 0, and the line Re s = 0 is a natural boundary, which is why no
    continuation of P(s) past it is attempted anywhere in this package.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    mu = _table("mu", n_max) if n_max > 512 else _small_table("mu")
    return [Fraction(1, n) for n in range(1, n_max + 1) if mu[n] != 0]


# --- grid scanning ----------------------------------------------------------


@dataclass(frozen=True)
class ScanPoint:
    s: complex
    abs_value: float  # nan when refused
    det_magnitude: float
    near_singular: bool
    flagged: bool


@dataclass(frozen=True)
class ScanResult:
    a: float
    b: float
    T: float
    step: float
    points: tuple[ScanPoint, ...]
    clusters: tuple[complex, ...]
    predicted: tuple[complex, ...]

    @property
    def observed_count(self) -> int:
        return len(self.clusters)

    @property
    def predicted_count(self) -> int:
        return len(self.predicted)

    def write_csv(self, fh) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["re", "im", "abs_value", "det_magnitude", "flags"])
        for p in self.points:
            flags = []
            if p.near_singular:
                flags.append("near_singular")
            if p.flagged:
                flags.append("cluster_candidate")
            w.writerow(
                [
                    repr(p.s.real),
                    repr(p.s.imag),
                    "nan" if math.isnan(p.abs_value) else repr(p.abs_value),
                    repr(p.det_magnitude),
                    "|".join(flags),
                ]
            )

    def to_json(self) -> dict:
        return {
            "rectangle": {"a": self.a, "b": self.b, "T": self.T, "step": self.step},
            "observed_clusters": [[c.real, c.imag] for c in self.clusters],
            "predicted_in_rectangle": [[c.real, c.imag] for c in self.predicted],
            "observed_count": self.observed_count,
            "predicted_count": self.predicted_count,
        }


def pole_scan(
    rep: LinearRepresentation,
    a: float,
    b: float,
    T: float,
    step: float,
    levels: int | None = None,
    threads: int = 1,
) -> ScanResult:
    """Grid-evaluate the continuation and cluster pole candidates.

    A grid point is a candidate when the evaluation was refused outright,
    or when the system determinant is small at scan scale AND the value
    blows up like a pole (removable determinant zeros stay bounded, so
    they are reported in the CSV but not clustered).  Observed clusters
    are a subset of the predicted lattice; equality is never asserted.
    Degenerate rectangles (a == b) are allowed.
    """
    if b < a:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    if T < 0 or step <= 0:
        raise DomainError("need T >= 0 and step > 0")
    if levels is None:
        levels = default_levels(complex(a, 0.0))
    res = np.arange(0, int((b - a) / step + 1e-9) + 1) * step + a
    ims = np.arange(0, int(T / step + 1e-9) + 1) * step
    ctx = ContinuationContext(rep)

    def probe_column(x: float) -> list[ScanPoint]:
        out = continue_column(rep, float(x), ims, levels=levels, ctx=ctx)
        pts = []
        for ev in out:
            absval = math.nan if ev.value is None else abs(ev.value)
            pts.append(
                ScanPoint(
                    s=ev.s, abs_value=absval, det_magnitude=ev.det_magnitude,
                    near_singular=ev.near_singular, flagged=False,
                )
            )
        return pts

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            columns = list(pool.map(probe_column, res))
    else:
        columns = [probe_column(x) for x in res]
    # row-major grid order (imaginary part outer) for the CSV export
    raw = [col[j] for j in range(len(ims)) for col in columns]

    det_eta = max(_NEAR_SINGULAR_DET, step * math.log(rep.k))
    blowup = 1.0 / step
    points = [
        replace(
            p,
            flagged=p.near_singular
            or (p.det_magnitude < det_eta and p.abs_value > blowup),
        )
        for p in raw
    ]
    clusters = _cluster([p.s for p in points if p.flagged], points, 1.6 * step)
    m_hi = int(T * math.log(rep.k) / (2 * math.pi)) + 2
    l_hi = max(0, int(math.ceil(2 - a))) + 1
    lattice = pole_lattice(rep, m_max=m_hi, l_max=l_hi)
    predicted = tuple(p.s for p in lattice.in_rectangle(a, b, T))
    return ScanResult(
        a=a, b=b, T=T, step=step,
        points=tuple(points),
        clusters=clusters,
        predicted=predicted,
    )


def _cluster(flagged: list[complex], points: list[ScanPoint], radius: float):
    """Union-find grouping of flagged grid points; one representative each."""
    n = len(flagged)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(flagged[i] - flagged[j]) <= radius:
                parent[find(i)] = find(j)
    by_root: dict[int, list[complex]] = {}
    for i, z in enumerate(flagged):
        by_root.setdefault(find(i), []).append(z)
    score = {p.s: p for p in points}
    reps = []
    for members in by_root.values():
        def badness(z):
            p = score[z]
            if p.near_singular:
                return (-math.inf, 0.0)
            return (-p.abs_value, p.det_magnitude)
        reps.append(min(members, key=badness))
    return tuple(sorted(reps, key=lambda z: (z.imag, z.real)))
