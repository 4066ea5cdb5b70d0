"""Dirichlet series three ways: truncation, matrix recursion, zeta quotients.

The truncation route sums f(n) n^{-s} over the table's nonzero support
n <= N, block by block, with log n computed once per table for all
points, n^{-i Im s} built from one half-angle tangent (numpy's float64
tan is ~9 times faster than its cos or sin) and blocks added by np.sum,
never a BLAS dot.

The recursion route continues the Dirichlet vector G(s) = sum U_n n^{-s}
of a linear representation below its abscissa.  With digits r = 0..k-1,
averaged digit matrix Abar, generalized binomial C, and a split point Q,
the tail H(s) = G(s) - sum_{n<Q} U_n n^{-s} satisfies

    (I - k^{1-s} Abar) H(s) = sum_{Q <= n < kQ} U_n n^{-s}
        + sum_{r>=1} A_r sum_{m>=1} C(s+m-1, m) (-r)^m k^{-(s+m)} H(s+m),

an expansion in r/(kQ): Q grows with |Im s| so the correction series
never develops the e^{~|t|/2} cancellation the Q = 1 form suffers, and
solving for H rather than G keeps the tail's relative precision.  The
tails H(s + o) at the offsets o below a depth ``levels`` are solved from
this recursion; the tails at offsets o >= levels are summed directly
(valid for Re s + o >= 1.25 plus the coefficient growth degree).  One
engine evaluates a whole vertical column of points at once; a single
evaluation is a column of one point.  Near-singular systems at the
requested point are refused as candidate poles; hitting one strictly
inside the recursion (a removable coefficient-times-pole limit, e.g.
zeta at s = 0 needing the value at the pole s+1 = 1) is resolved by
averaging two evaluations offset by +-i h, which is O(h^2) accurate for
an analytic target.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache

import numpy as np

from .automaton import (LinearRepresentation, adjugate_poly, average_matrix,
                        lattice_from_char_poly, vector_values)
from .errors import CapacityError, DomainError, require_finite
from .seqgen import FunctionId, ValueTable, build_table
from .zeta import WORKING_RADIUS, zeta_em

BASE_STRIP_SIGMA = 1.25
_DIRECT_TOL = 1e-9
_DIRECT_CAP = 1 << 21
_CHUNK = 1 << 19  # longest strip in one phase matrix; entries per block past it
_SUM_BLOCK = 1 << 16  # table entries per block of a direct sum
_NEAR_SINGULAR_DET = 1e-8
_OFFSET_H = 1e-4
_M_CAP = 200
_EPS = 2.0**-53  # unit roundoff of float64


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
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["s"] = [self.s.real, self.s.imag]
        doc["value"] = None if self.value is None else [self.value.real, self.value.imag]
        return doc


def _unit_phase(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of e^{-i theta}, from one tangent.

    With u = tan(theta/2), cos theta = (1 - u^2)/(1 + u^2) and
    sin theta = 2u/(1 + u^2).  numpy's float64 tan is a vector kernel
    (~3 ms per 10^6 values on a 2-vCPU VM, numpy 2.4) where cos and sin
    are not (~29 ms each), and both parts stay within 2.3e-16 of them.
    u stays below 1e19 for every double theta, so u^2 cannot overflow.
    """
    u = np.tan(theta * 0.5)
    u2 = u * u
    den = u2 + 1.0
    re = np.subtract(1.0, u2, out=u2)
    re /= den
    u *= -2.0
    u /= den
    return re, u


def direct_sums(t: ValueTable, ss: Iterable[complex], N_terms: int) -> list[EvalResult]:
    """Plain truncation sum_{n <= N_terms} f(n) n^{-s} at every s in ss.

    Requires Re s >= BASE_STRIP_SIGMA + d for the growth degree d of f, so
    the integral tail bound C N^{1+d-sigma}/(sigma-1-d) is meaningful;
    every s and N_terms is checked before any sum runs.  The table is read
    in blocks of _SUM_BLOCK entries, so memory stays at one block whatever
    N_terms is.  In each block the sums run over the nonzero support only,
    whose log n and float values are computed once for all of ss.  Each s
    weights the terms by f(n) n^{-Re s}, takes n^{-i Im s} from one
    half-angle tangent (_unit_phase) and adds the block with np.sum's
    pairwise summation, never a BLAS dot (at s = 3.3 - 11i, N = 10^6 a
    real dot errs by 7.6e-15 and a complex one by 2.8e-14, the pairwise
    sum by 4.5e-16).
    """
    ss = [complex(s) for s in ss]
    C, d = t.id.growth_bound()
    for s in ss:
        require_finite("s", s)
        if s.real < BASE_STRIP_SIGMA + d:
            raise DomainError(
                f"direct summation of {t.id} needs Re s >= {BASE_STRIP_SIGMA + d} "
                f"(growth degree {d}), got {s.real}"
            )
    if not 1 <= N_terms <= t.N:
        raise CapacityError(
            f"N_terms={N_terms} outside the table range 1..{t.N} for {t.id}"
        )
    totals = [0j] * len(ss)
    for lo in range(1, N_terms + 1, _SUM_BLOCK):
        block = t.values[lo : min(N_terms + 1, lo + _SUM_BLOCK)]
        n = np.flatnonzero(block)
        f = block.take(n).astype(np.float64)
        n += lo
        logn = np.log(n, dtype=np.float64)
        for j, s in enumerate(ss):
            a = np.exp(logn * -s.real)
            a *= f
            re, im = _unit_phase(logn * s.imag)
            totals[j] += complex(np.sum(re * a), np.sum(im * a))
    results = []
    for s, total in zip(ss, totals):
        sigma = s.real
        tail = C * N_terms ** (1 + d - sigma) / (sigma - 1 - d)
        rounding = 1e-15 * math.log2(N_terms + 1) * (1 + abs(total))
        results.append(EvalResult(
            s=s,
            value=total,
            method="direct",
            error_estimate=tail + rounding,
            truncated=True,
            terms=N_terms,
        ))
    return results


def direct_sum(t: ValueTable, s: complex, N_terms: int) -> EvalResult:
    """The truncated sum at one point: a one-element call of direct_sums."""
    return direct_sums(t, [s], N_terms)[0]


class ContinuationContext:
    """s-independent precomputation shared across evaluations of one rep.

    Holds float copies of the digit matrices, of the exact resolvent
    polynomials of the averaged matrix Abar (the coefficients a_j of
    det(xI - Abar) and the matrices M_j of adj(xI - Abar)) and of the
    vectors U_n (the longest prefix asked for so far); grid scans reuse
    one context for every column.  ``char_coeffs`` keeps the exact a_j,
    from which a scan's pole lattice is built.
    """

    def __init__(self, rep: LinearRepresentation):
        self.rep = rep
        coeffs, adj = adjugate_poly(average_matrix(rep))
        self.char_coeffs = coeffs
        d = rep.dim
        # row i holds what multiplies c^i: a_{d-i}, then M_{i+1} row by row (zero at i = d)
        self.poly = np.zeros((d + 1, 1 + d * d))
        self.poly[:, 0] = [float(a) for a in reversed(coeffs)]
        self.poly[:d, 1:] = [[float(x) for row in m for x in row] for m in adj]
        # |M_{i+1}|_inf and |a_{d-i}|, times the 2 (d+1) eps of the rounding bound
        adj_norms = np.abs(self.poly[:, 1:]).reshape(d + 1, d, d).sum(axis=2).max(axis=1)
        self.poly_mass = 2 * (d + 1) * _EPS * np.stack([adj_norms, np.abs(self.poly[:, 0])], 1)
        self.mats = [np.asarray(a, dtype=np.float64) for a in rep.matrices]
        self.mat_norms = [float(np.abs(a).sum(axis=1).max()) for a in self.mats]
        self.seed_scale = max(1.0, float(np.abs(rep.seeds).max()))
        self._u = np.zeros((1, rep.dim))

    def resolvent(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(I - c Abar)^{-1} = adj / det at c = k^{1-s} for every s, from
        det(I - c Abar) = sum_j a_j c^{d-j} and adj(I - c Abar) = sum_j c^{j-1} M_j.

        Returns |det|, the inverse (adj / 1 where |det| is below the
        near-singular threshold: callers refuse or re-evaluate those points),
        its inf-norm, and the first-order bound on its rounding in that norm,
        2 (d+1) eps (sum_j |c|^{j-1} |M_j|_inf + |inv| sum_j |a_j| |c|^{d-j}) / |det|.
        """
        d = self.rep.dim
        powers = np.empty((len(s), d + 1), dtype=np.complex128)  # c^0 .. c^d
        powers[:, 0] = 1.0
        powers[:, 1:] = (self.rep.k ** (1 - s))[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        poly = powers @ self.poly  # det, then adj row by row
        abs_det = np.abs(poly[:, 0])
        singular = abs_det < _NEAR_SINGULAR_DET
        inv = poly[:, 1:].reshape(-1, d, d) / np.where(singular, 1.0, poly[:, 0])[:, None, None]
        inv_norm = np.abs(inv).sum(axis=2).max(axis=1)
        adj_mass, det_mass = (np.abs(powers) @ self.poly_mass).T
        rounding = (adj_mass + inv_norm * det_mass) / np.where(singular, 1.0, abs_det)
        return abs_det, inv, inv_norm, rounding

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


def default_levels(s: complex, d: float) -> int:
    """Enough descent that the directly summed tails land where truncation
    is easy: Re s + levels >= 3.5 + d for a representation of growth degree d."""
    return max(2, math.ceil(3.5 + d - complex(s).real))


class _ColumnEngine:
    """The continuation at every point x + i y, y in ys, at once.

    Every node of the recursion is an array over the column's imaginary
    parts: systems are solved through the context's resolvent polynomials
    and the strip sums are products of the phase matrix n^{-iy} (a row per
    point, shared by every column of a scan) with real weights n^{-x-o} U_n.
    Points whose top system is near-singular are refused; points that meet
    a near-singular system strictly inside the recursion are evaluated
    again as one column at y +- h and averaged.  ``Q`` defaults to the
    split point of the column's largest height, ``levels`` to default_levels.

    Node o is the tail H(s + o), one per offset; the top node is offset 0.
    An offset o < levels recurses on the nodes o + 1 .. o + m_eff(o); an
    offset o >= levels is summed directly.  The solve runs from the highest
    offset down, so every child is ready before its parents, and each
    offset's cut, strip, resolvent and weights are computed once.

    The settings are validated here: the continued region Re s > 1.25 + d -
    levels (d the growth degree) puts every direct tail at Re s >= 1.25 + d.
    """

    def __init__(self, ctx: ContinuationContext, x: float, ys: np.ndarray,
                 levels: int | None, m_max: int, Q: int | None = None, phases=None):
        if levels is None:
            levels = default_levels(complex(x, 0.0), ctx.rep.growth[1])
        if levels < 0:
            raise DomainError(f"levels must be >= 0, got {levels}")
        if m_max < 2:
            raise DomainError(f"m_max must be >= 2, got {m_max}")
        edge = BASE_STRIP_SIGMA + ctx.rep.growth[1] - levels
        if x <= edge:
            raise DomainError(
                f"Re s = {x} outside the continued region Re s > {edge} for levels={levels}"
            )
        self.ctx = ctx
        self.x = x
        self.ys = ys
        self.s_col = x + 1j * ys
        self.ny = len(ys)
        self.levels = levels
        self.m_max = m_max
        self.y_extreme = float(np.abs(ys).max(initial=0.0))
        self.Q = split_point(ctx.rep.k, self.y_extreme) if Q is None else Q
        # k^{-s} per point: a node's k^{-(s+offset+m)} is this times a real power
        self.k_pow_s = float(ctx.rep.k) ** -self.s_col
        self.inner_bad = np.zeros(self.ny, dtype=bool)
        self.top_bad = np.zeros(self.ny, dtype=bool)
        self.top_det: np.ndarray | None = None
        self.truncated = False
        self.terms = 0
        self.nodes = 0  # nodes solved
        # log n and n^{-iy}, n = 1 .. the longest strip below _CHUNK (a scan's: longer)
        self.phases: tuple[np.ndarray, np.ndarray] | None = phases

    def _direct_len(self, offset: int) -> tuple[int, float]:
        """Terms N of the direct tail at an offset (at least 2Q), and the
        bound on the terms past the length before that floor."""
        C, d = self.ctx.rep.growth
        power = self.x + offset - 1 - d
        need = (C / (_DIRECT_TOL * power)) ** (1 / power)
        if not math.isfinite(need) or need >= _DIRECT_CAP:
            N = _DIRECT_CAP
        else:
            # quantized so the U-array cache is rarely regrown
            N = min(_DIRECT_CAP, 1 << max(6, math.ceil(math.log2(need + 1))))
        return max(N, 2 * self.Q), C * N ** (-power) / power

    def _base(self, offset: int) -> tuple[np.ndarray, np.ndarray]:
        # tail H(s + offset) = sum_{q >= Q} U_q q^{-s-offset} by truncation
        N, tail = self._direct_len(offset)
        if N >= _DIRECT_CAP and tail > _DIRECT_TOL:
            self.truncated = True
        self.terms = max(self.terms, N)
        vals, mass = self._strip(offset, self.Q, N + 1)
        # rounding scales with the summed mass, not an absolute floor: deep
        # tails are tiny and their errors must stay tiny relative to them
        rounding = 1e-15 * math.log2(N + 1) * mass
        return vals, np.full(self.ny, tail + rounding)

    def _strip(self, offset: int, lo: int, hi: int) -> tuple[np.ndarray, float]:
        """sum_{n=lo}^{hi-1} U_n n^{-s-offset} for the whole column, and
        its mass sum_n n^{-sigma-offset} |U_n|_inf.

        One formula: a phase block n^{-iy} times the real weights
        n^{-(x+offset)} U_n, whose weights also give the mass.  Strips inside
        the engine's phase matrix slice it; longer ones build their phase
        blocks in turn, so a long direct tail never holds a whole row.
        """
        vals, mass = np.zeros((self.ny, self.ctx.rep.dim), dtype=np.complex128), 0.0
        if hi <= lo:
            return vals, mass
        u = self.ctx.u(hi - 1)
        logn, phase = self.phases
        block = hi - lo if hi - 1 <= len(logn) else max(1, _CHUNK // self.ny)
        for a in range(lo, hi, block):
            b = min(hi, a + block)
            lg, ph = ((logn[a - 1 : b - 1], phase[:, a - 1 : b - 1]) if b - 1 <= len(logn)
                      else _phases(self.ys, a, b))
            w = np.exp(-(self.x + offset) * lg)
            vals += ph @ (u[a:b] * w[:, None])
            mass += float(w @ np.abs(u[a:b]).max(axis=1))
        return vals, mass

    def _plan(self) -> tuple[list[tuple[int, float]], int]:
        """The cut (m_eff and its dropped-tail factor, see _m_horizon) of
        every offset below levels, each a recursion node, and the number of
        offsets: the direct tails run from levels to one past the farthest
        child o + m_eff(o).  Also sizes the U-array and, unless one as long
        was handed in, the phase matrix for the longest strip below _CHUNK.
        """
        levels, k, Q = self.levels, self.ctx.rep.k, self.Q
        cuts = [self._m_horizon(complex(self.x + o, self.y_extreme)) for o in range(levels)]
        end = max((o + 1 + m for o, (m, _) in enumerate(cuts)), default=1)
        # the head, the node strips and the direct tails
        lengths = [Q - 1, k * Q - 1 if levels else 0]
        lengths += [self._direct_len(o)[0] for o in range(levels, end)]
        self.ctx.u(max(lengths))
        n = max((x for x in lengths if x <= _CHUNK), default=0)
        if self.phases is None or len(self.phases[0]) < n:
            self.phases = _phases(self.ys, 1, n + 1)
        return cuts, end

    def _solve_node(self, offset: int, cut: tuple[int, float], gs: np.ndarray,
                    g_errs: np.ndarray, g_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A recursion node's tail and error from its cut and its children's
        tails (m_eff, ny, dim), errors and scales."""
        ctx = self.ctx
        k, Q = ctx.rep.k, self.Q
        s_vec = self.s_col + offset
        m_eff, horizon = cut
        det, inv, inv_norm, inv_rounding = ctx.resolvent(s_vec)
        singular = det < _NEAR_SINGULAR_DET
        if offset == 0:
            self.top_det = det
            self.top_bad |= singular
        else:
            self.inner_bad |= singular
        ms = np.arange(1, m_eff + 1)
        # C(s+m-1, m) k^{-(s+m)} as one running product that starts from
        # k^{-s_col} k^{-offset}: every partial product stays near the term
        # it weighs, where C(s+m-1, m) alone overflows at deep nodes
        steps = (s_vec[:, None] + ms[None, :] - 1) / (k * ms[None, :])
        steps[:, 0] *= self.k_pow_s * float(k) ** -offset
        ck = np.cumprod(steps, axis=1)
        # the n < Q head cancels out of the system exactly, so the right-hand
        # side and the solution stay on the tail's scale (no lost precision)
        rhs = self._strip(offset, Q, k * Q)[0]
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
        sol = (inv @ rhs[:, :, None])[:, :, 0]
        err = inv_norm * err_rhs + inv_rounding * np.abs(rhs).max(axis=1)
        return sol, err

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
        cuts, end = self._plan()
        shape = (end, self.ny)
        vec = np.empty((*shape, self.ctx.rep.dim), dtype=np.complex128)
        err, scale = np.empty(shape), np.empty(shape)
        for offset in reversed(range(end)):
            if offset >= self.levels:
                vec[offset], err[offset] = self._base(offset)
            else:
                c = slice(offset + 1, offset + 1 + cuts[offset][0])
                vec[offset], err[offset] = self._solve_node(
                    offset, cuts[offset], vec[c], err[c], scale[c])
            scale[offset] = np.abs(vec[offset]).max(axis=1)
            self.nodes += 1
        if self.levels == 0:
            self.top_det = self.ctx.resolvent(self.s_col)[0]
        value = vec[0] + self._strip(0, 1, self.Q)[0]
        return value[:, self.ctx.rep.output_coord], err[0]

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


def _phases(ys: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """log n and the phase matrix n^{-iy} (a row per y in ys) for n = lo .. hi-1."""
    logn = np.log(np.arange(lo, hi, dtype=np.float64))
    phase = np.outer(ys, -1j * logn)
    return logn, np.exp(phase, out=phase)


def _continue(rep, x, ys, levels, m_max) -> list[EvalResult]:
    """Run one column in a context of its own.  The public entry points call
    this, not each other: one evaluation, one public call.  pole_scan runs
    its columns' engines itself, on one context and one phase matrix."""
    ys = np.asarray(list(ys), dtype=np.float64)
    require_finite("Re s", x)
    require_finite("Im s", ys)
    engine = _ColumnEngine(ContinuationContext(rep), x, ys, levels, m_max)
    return engine.run() if engine.ny else []


def continue_via_recursion(
    rep: LinearRepresentation,
    s: complex,
    levels: int | None = None,
    m_max: int = _M_CAP,
) -> EvalResult:
    """Analytic continuation of the output coordinate's Dirichlet series.

    ``levels`` bounds the descent depth; the continued region is
    Re s > 1.25 + d - levels, d the growth degree of the representation
    (0 for an automatic one).  At a candidate pole of the series itself the
    value is refused (near_singular, det_magnitude).  A near-singular
    system met strictly inside the recursion is removable and handled by
    +-i h offset averaging.  This is a column of one point.
    """
    s = complex(s)
    return _continue(rep, s.real, [s.imag], levels, m_max)[0]


def continue_column(
    rep: LinearRepresentation,
    x: float,
    ys,
    levels: int | None = None,
    m_max: int = _M_CAP,
) -> list[EvalResult]:
    """Batched continuation at the points x + i y for every y in ys."""
    return _continue(rep, x, ys, levels, m_max)


# --- closed forms -----------------------------------------------------------

ZETA_TOL = 1e-12  # target error of every zeta value a closed form uses
IDENTITY_SLACK = 1e-9  # added to the truncation bound of a verified sum


@cache
def _small_table(tag: str) -> list[int]:
    """mu or phi on 0..512, built on first use."""
    return build_table(FunctionId(tag), 512).values.tolist()


def _checked_zeta(w: complex) -> complex:
    """zeta(w), refused within 1e-6 of the pole or of a zero.

    The log series ask for zeta(n s) with n up to ~25.  Past zeta_em's
    working radius an argument with Re w >= 50 is summed to n = 4: the
    terms from n = 5 on add at most 5^{-Re w} + 5^{1-Re w}/(Re w - 1),
    below 1e-35.  Any other argument past the radius is refused there.
    """
    w = complex(w)
    if abs(w - 1) < 1e-6:
        raise _NearZetaSingular(w, abs(w - 1))
    if abs(w) > WORKING_RADIUS and w.real >= 50:
        return 1 + 2**-w + 3**-w + 4**-w
    val = zeta_em(w, ZETA_TOL).value
    if abs(val) < 1e-6:
        raise _NearZetaSingular(w, abs(val))
    return val


def _log_series(z: Callable[[complex], complex], s: complex, weights: str) -> complex:
    """sum_n w(n)/n log zeta(ns) for w = mu or phi.

    With |w(n)| <= C n^d and log zeta(w) ~ 2^{-w}, the terms fall off like
    C n^{d-1} 2^{-n sigma}; the sum stops where six times that is below
    1e-16.  Principal branch: callers keep s real or Re s >= 2, where every
    zeta(ns) stays in the right half-plane around 1.
    """
    w = _small_table(weights)
    C, d = FunctionId(weights).growth_bound()
    acc = 0j
    for n in range(1, 400):
        if 6.0 * C * 2.0 ** (-n * s.real) / n ** (1 - d) < 1e-16:
            break
        if w[n]:
            acc += w[n] / n * cmath.log(z(n * s))
    return acc


@dataclass(frozen=True)
class _Identity:
    """sum f(n) n^{-s} = evaluate(z, s, m) for Re s > sigma_min, with z
    the checked zeta and m the parameter of q_m."""

    form: str
    evaluate: Callable[[Callable, complex, int | None], complex]
    sigma_min: float = 1.0
    log_series: bool = False


_IDENTITIES = {
    "mu": _Identity("1/zeta(s)", lambda z, s, m: 1 / z(s)),
    "lambda": _Identity("zeta(2s)/zeta(s)", lambda z, s, m: z(2 * s) / z(s)),
    "q_m": _Identity("zeta(s)/zeta(ms)", lambda z, s, m: z(s) / z(m * s)),
    "phi": _Identity("zeta(s-1)/zeta(s)", lambda z, s, m: z(s - 1) / z(s), sigma_min=2.0),
    "rho": _Identity("zeta(s)^2/zeta(2s)", lambda z, s, m: z(s) ** 2 / z(2 * s)),
    "tau_of_square": _Identity("zeta(s)^3/zeta(2s)", lambda z, s, m: z(s) ** 3 / z(2 * s)),
    "tau_squared": _Identity("zeta(s)^4/zeta(2s)", lambda z, s, m: z(s) ** 4 / z(2 * s)),
    "chi_P": _Identity("sum_n mu(n)/n log zeta(ns)",
                       lambda z, s, m: _log_series(z, s, "mu"), log_series=True),
    # the double sum is sum_m phi(m)/m log zeta(ms), as sum_{d|m} mu(d)/d = phi(m)/m
    "chi_PP": _Identity("sum_j sum_n mu(n)/n log zeta(jns)",
                        lambda z, s, m: _log_series(z, s, "phi"), log_series=True),
    "omega": _Identity("zeta(s) sum_n mu(n)/n log zeta(ns)",
                       lambda z, s, m: z(s) * _log_series(z, s, "mu"), log_series=True),
    "big_omega": _Identity("zeta(s) sum_n phi(n)/n log zeta(ns)",
                           lambda z, s, m: z(s) * _log_series(z, s, "phi"), log_series=True),
}

IDENTITY_TAGS = tuple(_IDENTITIES)


@dataclass(frozen=True)
class IdentityId:
    """One closed-form identity: a row of _IDENTITIES and its parameter."""

    tag: str
    param: int | None = None

    def __post_init__(self):
        if self.tag not in _IDENTITIES:
            raise DomainError(f"unknown identity tag {self.tag!r}")
        self.function_id()  # FunctionId holds the parameter rules

    @property
    def form(self) -> str:
        return _IDENTITIES[self.tag].form

    def function_id(self) -> FunctionId:
        return FunctionId(self.tag, self.param)

    def __str__(self):
        return self.tag if self.param is None else f"{self.tag}({self.param})"


def zeta_quotient_eval(ident: IdentityId, s: complex) -> EvalResult:
    """Evaluate the closed form of one identity at s.

    Validity: Re s > 1 (phi: Re s > 2).  The log-zeta series forms are
    additionally restricted to real s > 1 or Re s >= 2, where every
    zeta(ns) stays near 1 in the right half-plane and the principal
    branch is the continuous one.  Arguments within 1e-6 of the zeta pole
    or a zeta zero are refused as near-singular.
    """
    s = complex(s)
    require_finite("s", s)
    row = _IDENTITIES[ident.tag]
    if s.real <= row.sigma_min:
        raise DomainError(f"identity {ident} is valid for Re s > {row.sigma_min}, got {s}")
    if row.log_series and s.imag != 0 and s.real < 2:
        raise DomainError(
            f"the log-zeta series for {ident} is evaluated only at real s > 1 "
            "or Re s >= 2 (principal-branch region)"
        )
    try:
        value = row.evaluate(_checked_zeta, s, ident.param)
    except _NearZetaSingular as exc:
        return EvalResult(s=s, value=None, method="zeta_quotient", error_estimate=math.inf,
                          near_singular=True, det_magnitude=exc.distance)
    return EvalResult(s=s, value=value, method="zeta_quotient",
                      error_estimate=1e-10 * (1 + abs(value)))


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
) -> IdentityReport:
    """Truncated sum vs closed form; PASS iff residual <= tail bound + IDENTITY_SLACK.

    Every closed form is evaluated first, so a near-singular sample is
    refused before any sum runs; the sums are one direct_sums call.  No
    samples is refused too: all_passed would hold with nothing checked.
    """
    want = ident.function_id()
    if t.id != want:
        raise DomainError(f"identity {ident} describes {want}, but the table holds {t.id}")
    if not s_samples:
        raise DomainError("verify_identity needs at least one sample point s")
    rhss = [zeta_quotient_eval(ident, s) for s in s_samples]
    for s, rhs in zip(s_samples, rhss):
        if rhs.value is None:
            raise DomainError(
                f"closed form for {ident} is near-singular at s={s}"
            )
    samples = []
    for lhs, rhs in zip(direct_sums(t, s_samples, N_terms), rhss):
        residual = abs(lhs.value - rhs.value)
        bound = lhs.error_estimate + IDENTITY_SLACK
        samples.append(
            IdentitySample(
                s=lhs.s,
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
    mu = build_table(FunctionId("mu"), n_max).values
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
        # every field is a float repr or a flag name: none needs CSV quoting
        fh.write("re,im,abs_value,det_magnitude,flags\n")
        for p in self.points:
            flags = "|".join(name for name, on in (("near_singular", p.near_singular),
                                                   ("cluster_candidate", p.flagged)) if on)
            absval = "nan" if math.isnan(p.abs_value) else repr(p.abs_value)
            fh.write(f"{p.s.real!r},{p.s.imag!r},{absval},{p.det_magnitude!r},{flags}\n")

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

    The columns share one context.  The leftmost sums the longest strips,
    so it runs first and its plan sizes the U-array and the one n^{-iy}
    matrix the others slice; each column becomes ScanPoints when it ends.
    """
    for name, v in (("a", a), ("b", b), ("T", T), ("step", step)):
        require_finite(name, v)
    if b < a:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    if T < 0 or step <= 0:
        raise DomainError("need T >= 0 and step > 0")
    res = np.arange(0, int((b - a) / step + 1e-9) + 1) * step + a
    ims = np.arange(0, int(T / step + 1e-9) + 1) * step
    ctx = ContinuationContext(rep)
    det_eta = max(_NEAR_SINGULAR_DET, step * math.log(rep.k))
    blowup = 1.0 / step

    def probe(engine: _ColumnEngine) -> list[ScanPoint]:
        points = []
        for ev in engine.run():
            abs_value = math.nan if ev.value is None else abs(ev.value)
            points.append(ScanPoint(
                s=ev.s, abs_value=abs_value, det_magnitude=ev.det_magnitude,
                near_singular=ev.near_singular,
                flagged=ev.near_singular or (ev.det_magnitude < det_eta and abs_value > blowup)))
        return points

    lead = _ColumnEngine(ctx, float(a), ims, levels, _M_CAP)
    columns = [probe(lead)]
    rest = (_ColumnEngine(ctx, float(x), ims, lead.levels, _M_CAP, phases=lead.phases)
            for x in res[1:])
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            columns += pool.map(probe, rest)
    else:
        columns += map(probe, rest)
    # row-major grid order (imaginary part outer) for the CSV export
    points = [col[j] for j in range(len(ims)) for col in columns]
    clusters = _cluster([p for p in points if p.flagged], 1.6 * step)
    m_hi = int(T * math.log(rep.k) / (2 * math.pi)) + 2
    l_hi = max(0, int(math.ceil(2 - a))) + 1
    lattice = lattice_from_char_poly(rep, ctx.char_coeffs, m_max=m_hi, l_max=l_hi)
    predicted = tuple(p.s for p in lattice.in_rectangle(a, b, T))
    return ScanResult(
        a=a, b=b, T=T, step=step,
        points=tuple(points),
        clusters=clusters,
        predicted=predicted,
    )


def _cluster(flagged: list[ScanPoint], radius: float):
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
            if abs(flagged[i].s - flagged[j].s) <= radius:
                parent[find(i)] = find(j)
    by_root: dict[int, list[ScanPoint]] = {}
    for i, p in enumerate(flagged):
        by_root.setdefault(find(i), []).append(p)

    def badness(p):
        return (-math.inf, 0.0) if p.near_singular else (-p.abs_value, p.det_magnitude)

    reps = [min(members, key=badness).s for members in by_root.values()]
    return tuple(sorted(reps, key=lambda z: (z.imag, z.real)))
