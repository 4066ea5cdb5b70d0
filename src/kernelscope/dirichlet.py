"""Dirichlet series three ways: truncation, matrix recursion, zeta quotients.

The truncation route sums f(n) n^{-s} over the table's nonzero support
n <= N, block by block, with log n computed once per block for all
points; every block is one call of zeta's n^{-s} kernel (_power_sums),
which takes n^{-i Im s} from zeta's one phase routine (_unit_phase, a
half-angle tangent: numpy's float64 tan is ~9 times faster than its cos
or sin) and adds the terms by np.sum, never a BLAS dot.

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
engine evaluates a whole grid xs × ys of points at once: a pole scan is
one grid (a wide one a few grids of whole columns, so memory stays
bounded), a vertical column a grid with one x, a single evaluation a grid
of one point.  Each offset's node is solved once for every point of the
grid, while each column keeps its own cuts and tail lengths.  The strip
sums of every column run in one pass over n, in phase blocks n^{-iy} of
at most _PHASE_BLOCK entries, each built once by _unit_phase as a real
matrix (cos and -sin of y log n) and used in real GEMMs for
every strip range live in it, so no phase matrix is ever held whole and no
complex exp runs.  Near-singular systems at the
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
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache

import numpy as np

from .automaton import LATTICE_ZERO_TOL, LinearRepresentation, pole_lattice, vector_values
from .errors import CapacityError, DomainError, PrecisionError, require_finite
from .seqgen import FunctionId, ValueTable, build_table, write_rows
from .zeta import WORKING_RADIUS, _power_sums, _unit_phase, _zeta_on, zeta_em

BASE_STRIP_SIGMA = 1.25
_DIRECT_TOL = 1e-9
_DIRECT_CAP = 1 << 21
_PHASE_BLOCK = 1 << 16  # n^{-iy} entries per phase block of the strip sums
# points x (dim^2 + 40) per engine of a pole scan, which takes whole columns:
# a point's arrays take about 64 (dim^2 + 40) bytes (the resolvent's dim^2
# entries, the node array's rows and the series terms), ~8 MiB an engine
_GRID_BLOCK = 1 << 17
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
        """The fields as JSON; ``error_estimate`` is null where no finite
        bound exists (a refused point, a tail past the m horizon), since
        JSON has no Infinity."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["s"] = [self.s.real, self.s.imag]
        doc["value"] = None if self.value is None else [self.value.real, self.value.imag]
        if not math.isfinite(self.error_estimate):
            doc["error_estimate"] = None
        return doc


def direct_sums(t: ValueTable, ss: Iterable[complex], N_terms: int) -> list[EvalResult]:
    """Plain truncation sum_{n <= N_terms} f(n) n^{-s} at every s in ss.

    Requires Re s >= BASE_STRIP_SIGMA + d for the growth degree d of f, so
    the integral tail bound C N^{1+d-sigma}/(sigma-1-d) is meaningful;
    every s and N_terms is checked before any sum runs.  The table is read
    in blocks of _SUM_BLOCK entries, so memory stays at one block whatever
    N_terms is.  In each block the sums run over the nonzero support only,
    whose log n and float values are computed once, and one call of zeta's
    n^{-s} kernel (_power_sums) sums the block at every s: weights f(n),
    n^{-i Im s} from one half-angle tangent, np.sum's pairwise summation,
    never a BLAS dot (at s = 3.3 - 11i, N = 10^6 a real dot errs by
    7.6e-15 and a complex one by 2.8e-14, the pairwise sum by 4.5e-16).
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
    points = np.array(ss, dtype=np.complex128)
    totals = np.zeros(len(ss), dtype=np.complex128)
    for lo in range(1, N_terms + 1, _SUM_BLOCK):
        block = t.values[lo : min(N_terms + 1, lo + _SUM_BLOCK)]
        n = np.flatnonzero(block)
        f = block.take(n).astype(np.float64)
        n += lo
        totals += _power_sums(np.log(n, dtype=np.float64), f, points)
    results = []
    for s, total in zip(ss, totals.tolist()):
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

    Holds float copies of the digit matrices, of the representation's
    exact resolvent polynomials ``rep.resolvent_poly`` (the coefficients
    a_j of det(xI - Abar) and the matrices M_j of adj(xI - Abar), derived
    once per representation, so a scan's pole lattice reuses them) and of
    the vectors U_n (the longest prefix asked for so far).
    """

    def __init__(self, rep: LinearRepresentation):
        self.rep = rep
        coeffs, adj = rep.resolvent_poly
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
        if len(self._u) <= N:
            self._u = np.asarray(vector_values(self.rep, N), dtype=np.float64)
        return self._u[: N + 1]


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
    """The continuation at every point x + i y of the grid xs × ys at once.

    A column is a grid with one x and a single evaluation a grid with one
    point; a scalar x is a column.  Every node of the recursion is an
    array over the grid's points, column by column: systems are solved
    through the context's resolvent polynomials and the strip sums are
    real products of phase blocks n^{-iy} with real weights n^{-x-o} U_n
    (_strips).  Points whose top system is near-singular are refused;
    points that meet a near-singular system strictly inside the recursion
    are evaluated again, their column as a one-column grid at y +- h, and
    averaged.  ``Q`` defaults to the split point of the largest height,
    ``levels`` to default_levels at the smallest x.

    Node o is the tail H(s + o), one per offset, solved once for every
    point; the top node is offset 0.  An offset o < levels recurses on the
    nodes o + 1 .. o + m_eff(o); an offset o >= levels is summed directly.
    The solve runs from the highest offset down, so every child is ready
    before its parents, and each offset's resolvent and weights are
    computed once, so the engine's memory grows with the grid's points
    (pole_scan bounds it by _GRID_BLOCK).  Each column keeps its own plan
    (_plan): its cuts m_eff(o) and their horizon factors, its direct-tail
    lengths, ``terms`` and ``truncated``, so every point gets the value its
    column alone would; the grid only pools the arithmetic.  Terms past a
    column's cut are masked to zero, and offsets past its farthest child
    stay zero.

    The settings are validated here: the continued region Re s > 1.25 + d -
    levels (d the growth degree) puts every direct tail at Re s >= 1.25 + d.
    """

    def __init__(self, ctx: ContinuationContext, xs, ys: np.ndarray,
                 levels: int | None, m_max: int, Q: int | None = None):
        xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        x_min = float(xs.min())
        if levels is None:
            levels = default_levels(complex(x_min, 0.0), ctx.rep.growth[1])
        if levels < 0:
            raise DomainError(f"levels must be >= 0, got {levels}")
        if m_max < 2:
            raise DomainError(f"m_max must be >= 2, got {m_max}")
        edge = BASE_STRIP_SIGMA + ctx.rep.growth[1] - levels
        if x_min <= edge:
            raise DomainError(
                f"Re s = {x_min} outside the continued region Re s > {edge} for levels={levels}"
            )
        self.ctx = ctx
        self.xs = xs
        self.ys = ys
        self.nx, self.ny = len(xs), len(ys)
        # point c * ny + j is xs[c] + i ys[j]: a column's points are contiguous
        self.s = (xs[:, None] + 1j * ys[None, :]).ravel()
        self.levels = levels
        self.m_max = m_max
        self.y_extreme = float(np.abs(ys).max(initial=0.0))
        self.Q = split_point(ctx.rep.k, self.y_extreme) if Q is None else Q
        # k^{-s} per point: a node's k^{-(s+offset+m)} is this times a real power
        self.k_pow_s = float(ctx.rep.k) ** -self.s
        self.inner_bad = np.zeros(len(self.s), dtype=bool)
        self.top_bad = np.zeros(len(self.s), dtype=bool)
        self.top_det: np.ndarray | None = None
        self.truncated = np.zeros(self.nx, dtype=bool)  # per column
        self.terms = np.zeros(self.nx, dtype=np.int64)  # per column: its longest tail
        self.nodes = 0  # offsets solved
        self._ran_out = False  # set by _m_horizon when a series runs to m_max

    def _direct_len(self, sigma: float) -> tuple[int, float]:
        """Terms N of the direct tail at Re s = sigma (at least 2Q), and the
        bound on the terms past the length before that floor."""
        C, d = self.ctx.rep.growth
        power = sigma - 1 - d
        need = (C / (_DIRECT_TOL * power)) ** (1 / power)
        if not math.isfinite(need) or need >= _DIRECT_CAP:
            N = _DIRECT_CAP
        else:
            # power-of-two lengths put most of a grid's tails in one range,
            # so they share one product (_strips)
            N = min(_DIRECT_CAP, 1 << max(6, math.ceil(math.log2(need + 1))))
        return max(N, 2 * self.Q), C * N ** (-power) / power

    def _plan(self):
        """Every column's plan, and the strips it asks for.

        Column c cuts the correction series of each offset below levels at
        its own m_eff (with the dropped-tail factor of _m_horizon), and its
        direct tails run from levels to one past its farthest child
        o + m_eff(o), each _direct_len long.  Returns the cuts and factors
        (levels, nx), and per row of the node array (its offsets, then the
        head) and column the end ``hi`` of its strip, 0 for none, and the
        truncation bound of its direct tail.  A node's strip Q <= n < kQ
        is the right-hand side its solve starts from; the head n < Q is
        added to the top node last.
        """
        levels, k, Q = self.levels, self.ctx.rep.k, self.Q
        cuts = np.zeros((levels, self.nx), dtype=np.int64)
        horizons = np.zeros((levels, self.nx))
        tails = []
        for c, x in enumerate(self.xs.tolist()):
            self._ran_out = False
            for o in range(levels):
                cuts[o, c], horizons[o, c] = self._m_horizon(complex(x + o, self.y_extreme))
            col_end = max((o + 1 + m for o, m in enumerate(cuts[:, c].tolist())), default=1)
            for o in range(levels, col_end):
                N, bound = self._direct_len(x + o)
                tails.append((o, c, N + 1, bound))
                self.terms[c] = max(self.terms[c], N)
                self._ran_out |= N >= _DIRECT_CAP and bound > _DIRECT_TOL
            self.truncated[c] = self._ran_out
        end = max(o for o, *_ in tails) + 1
        hi = np.zeros((end + 1, self.nx), dtype=np.int64)
        hi[:levels] = k * Q
        hi[end] = Q
        bounds = np.zeros((end, self.nx))
        for o, c, n, bound in tails:
            hi[o, c], bounds[o, c] = n, bound
        return cuts, horizons, hi, bounds

    def _strips(self, hi: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Sum U_n n^{-s-o} over lo <= n < hi[row, c] into vec[row, c] for
        every row (offset o = row, lo = Q; the last row: the head, o = 0,
        lo = 1) and column, and return the masses sum_n n^{-x_c-o} |U_n|_inf.

        vec is the node array (rows, nx, dim, ny), zero on entry.  Runs of
        rows with one range (lo, the longest hi in the row) share one
        product, the shorter strips' weights zero past their own hi.
        One pass runs over n in blocks of at most _PHASE_BLOCK phase entries:
        each block's n^{-iy} is built once (_phases) and goes into real
        GEMMs for every run live in it, the weights n^{-(x+o)} U_n of the
        run's rows and columns times the phase block's real and imaginary
        parts, which land on the run's slab of vec as it stands.  A product
        takes only the columns still live at its first n, a prefix since
        direct tails shorten as x grows, and at most 2 _PHASE_BLOCK weights,
        as many as the phase block holds floats.  No phase matrix is held
        whole, and no complex exp runs.
        """
        rows, nx = hi.shape
        dim, ny = self.ctx.rep.dim, self.ny
        lo = np.full(rows, self.Q)
        lo[-1] = 1
        offsets = np.arange(rows)
        offsets[-1] = 0
        expo = -(self.xs[None, :] + offsets[:, None])
        span = hi.max(axis=1)
        runs = []  # [first row, last row + 1, lo, hi]
        for row, (r_lo, r_hi) in enumerate(zip(lo.tolist(), span.tolist())):
            if r_hi <= r_lo:
                continue
            if runs and runs[-1][1] == row and runs[-1][2:] == [r_lo, r_hi]:
                runs[-1][1] += 1
            else:
                runs.append([row, row + 1, r_lo, r_hi])
        first, last = min(r[2] for r in runs), max(r[3] for r in runs)
        u = self.ctx.u(last - 1)
        u_norm = np.abs(u).max(axis=1)
        mass = np.zeros((rows, nx))
        slabs = vec.view(np.float64).reshape(rows, nx * dim, 2 * ny)
        block = max(1, _PHASE_BLOCK // ny)
        for a in range(first, last, block):
            b = min(last, a + block)
            logn, phase = _phases(self.ys, a, b)
            for r0, r1, r_lo, r_hi in runs:
                i, end = max(a, r_lo), min(b, r_hi)
                while i < end:
                    live = int(np.flatnonzero(hi[r0:r1].max(axis=0) > i)[-1]) + 1
                    j = min(end, i + max(1, 2 * _PHASE_BLOCK // ((r1 - r0) * live * dim)))
                    w = np.exp(np.multiply.outer(expo[r0:r1, :live], logn[i - a : j - a]))
                    w *= np.arange(i, j) < hi[r0:r1, :live, None]
                    mass[r0:r1, :live] += w @ u_norm[i:j]
                    weights = (w[:, :, None, :] * u[i:j].T).reshape(r1 - r0, live * dim, j - i)
                    slab = slabs[r0:r1, : live * dim]
                    if i == r_lo:
                        np.matmul(weights, phase[i - a : j - a], out=slab)
                    else:
                        slab += weights @ phase[i - a : j - a]
                    i = j
        return mass

    def _solve_node(self, offset: int, m_eff: np.ndarray, horizon: np.ndarray,
                    rhs: np.ndarray, gs: np.ndarray, g_errs: np.ndarray,
                    g_scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A recursion node's tail and error at every point, from each
        column's cut and horizon factor (nx), the node's strip Q <= n < kQ
        (nx, dim, ny), which is added to in place, and its children's tails
        (M, nx, dim, ny), errors and scales (M, points), M the largest cut.
        The n < Q head cancels out of the system exactly, so the right-hand
        side and the solution stay on the tail's scale (no lost precision)."""
        ctx = self.ctx
        k, nx, ny = ctx.rep.k, self.nx, self.ny
        s_vec = self.s + offset
        det, inv, inv_norm, inv_rounding = ctx.resolvent(s_vec)
        singular = det < _NEAR_SINGULAR_DET
        if offset == 0:
            self.top_det = det
            self.top_bad |= singular
        else:
            self.inner_bad |= singular
        ms = np.arange(1, len(gs) + 1)
        cut = np.repeat(m_eff, ny)
        horizon = np.repeat(horizon, ny)
        # C(s+m-1, m) k^{-(s+m)} as one running product that starts from
        # k^{-s} k^{-offset}: every partial product stays near the term it
        # weighs, where C(s+m-1, m) alone overflows at deep nodes; the terms
        # past a point's own cut are zero.  The product with 1 / (k m) is the
        # bits numpy's complex division by a real gives, at less cost.
        steps = (s_vec[:, None] + ms[None, :] - 1) * (1.0 / (k * ms))[None, :]
        steps[:, 0] *= self.k_pow_s * float(k) ** -offset
        ck = np.multiply.accumulate(steps, axis=1, out=steps)
        ck[ms[None, :] > cut[:, None]] = 0.0
        # error propagation is relative: a child's absolute error only matters
        # at the scale its term actually contributes to the right-hand side
        rel_children = g_errs / np.maximum(g_scale, 1e-300)
        err_rhs = np.zeros(len(s_vec))
        points = np.arange(len(s_vec))
        for r in range(1, k):
            w = ck * np.float_power(-r, ms)[None, :]  # (points, M)
            contrib = np.einsum("cym,mcdy->cdy", w.reshape(nx, ny, -1), gs)
            rhs += ctx.mats[r] @ contrib
            mass = np.abs(w)
            # far left of the continued region the masses overflow: numpy does
            # not warn, an infinite estimate or value is checked afterwards
            with np.errstate(over="ignore", invalid="ignore"):
                mass *= g_scale.T
                err_rhs += 4.0 * np.einsum("pm,mp->p", mass, rel_children)
                err_rhs += 4e-16 * mass.sum(axis=1)
                # terms m > m_eff: the last kept term times the envelope's tail
                last = ctx.mat_norms[r] * mass[points, cut - 1]
                err_rhs += np.where(last > 0, last * horizon, 0.0)
        sol = np.einsum("cyij,cjy->ciy", inv.reshape(nx, ny, *inv.shape[1:]), rhs)
        err = inv_norm * err_rhs + inv_rounding * np.abs(rhs).max(axis=1).ravel()
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
        self._ran_out = True
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
        """Output-coordinate values and errors at every point."""
        cuts, horizons, hi, bounds = self._plan()
        end = len(bounds)
        # the node array, a row per offset and then the head strip; a row
        # holds a (dim, ny) block per column
        vec = np.zeros((end + 1, self.nx, self.ctx.rep.dim, self.ny), dtype=np.complex128)
        mass = self._strips(hi, vec)[:end]
        # rounding scales with the summed mass, not an absolute floor: deep
        # tails are tiny and their errors must stay tiny relative to them
        direct = bounds + 1e-15 * np.log2(np.maximum(hi[:end], 1)) * mass
        err = np.repeat(direct, self.ny, axis=1)
        scale = np.zeros(err.shape)
        for offset in reversed(range(end)):
            if offset < self.levels:
                c = slice(offset + 1, offset + 1 + int(cuts[offset].max()))
                vec[offset], err[offset] = self._solve_node(
                    offset, cuts[offset], horizons[offset], vec[offset], vec[c], err[c],
                    scale[c])
            scale[offset] = np.abs(vec[offset]).max(axis=1).ravel()
            self.nodes += 1
        if self.levels == 0:
            self.top_det = self.ctx.resolvent(self.s)[0]
        value = vec[0, :, self.ctx.rep.output_coord] + vec[end, :, self.ctx.rep.output_coord]
        return value.ravel(), err[0]

    def _evaluate(self):
        """Values, errors, the refused, averaged, truncated and terms flags
        and top_det at every point."""
        value, err = self._solve()
        refused = self.top_bad.copy()
        averaged = self.inner_bad & ~refused
        truncated = np.repeat(self.truncated, self.ny)
        terms = np.repeat(self.terms, self.ny)
        for c, x in enumerate(self.xs.tolist()):
            local = np.flatnonzero(averaged[c * self.ny : (c + 1) * self.ny])
            if not len(local):
                continue
            # removable inner singularity: one column of the points at y +- h
            idx, y, n = c * self.ny + local, self.ys[local], len(local)
            pair = np.concatenate([y + _OFFSET_H, y - _OFFSET_H])
            twin = _ColumnEngine(self.ctx, x, pair, self.levels, self.m_max, Q=self.Q)
            t_val, t_err = twin._solve()
            value[idx] = (t_val[:n] + t_val[n:]) / 2
            err[idx] = np.maximum(t_err[:n], t_err[n:]) + _OFFSET_H**2
            truncated[idx], terms[idx] = twin.truncated[0], twin.terms[0]
            bad = twin.top_bad | twin.inner_bad
            refused[idx] = bad[:n] | bad[n:]
        averaged &= ~refused
        # a point not refused needs a finite value and an estimate that is a
        # number (inf: no finite bound)
        broken = np.flatnonzero(~refused & (~np.isfinite(value) | np.isnan(err)))
        if len(broken):
            j = broken[0]
            s = complex(self.s[j])
            if not np.isfinite(value[j]):
                raise PrecisionError(f"continuation at s = {s} overflowed: its value is not finite")
            raise PrecisionError(f"continuation at s = {s} lost its error bound: it is NaN")
        return value, err, refused, averaged, truncated, terms, self.top_det

    def run(self) -> list[EvalResult]:
        value, err, refused, averaged, truncated, terms, _ = self._evaluate()
        # a value is reported with a finite bound or not at all; the check is
        # here, not in _evaluate, because pole_scan reads no estimate
        unbounded = np.flatnonzero(~refused & np.isinf(err))
        if len(unbounded):
            s = complex(self.s[unbounded[0]])
            raise PrecisionError(f"continuation at s = {s} has no finite error bound")
        results = []
        for j, s in enumerate(self.s.tolist()):
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
    """log n and the phase block n^{-iy} for n = lo .. hi-1 as a real matrix:
    row n holds cos(y log n) and -sin(y log n) for each y in ys in turn
    (the complex block's memory), both from zeta's one phase routine
    (_unit_phase)."""
    logn = np.log(np.arange(lo, hi, dtype=np.float64))
    re, im = _unit_phase(np.multiply.outer(logn, ys))
    return logn, np.stack((re, im), axis=-1).reshape(len(logn), -1)


def _continue(rep, x, ys, levels, m_max) -> list[EvalResult]:
    """Run one column in a context of its own.  The public entry points call
    this, not each other: one evaluation, one public call.  pole_scan runs
    its whole grid as one engine itself."""
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


def _checked_zetas(ws: list[complex]) -> list[complex]:
    """zeta at every w of ws, refused within 1e-6 of the pole or of a zero.

    The log series ask for zeta(n s) with n up to ~25.  Past zeta_em's
    working radius an argument with Re w >= 50 is summed to n = 4, as four
    Python powers: the terms from n = 5 on add at most 5^{-Re w} +
    5^{1-Re w}/(Re w - 1), below 1.3e-35 (5^{-50} alone is 1.13e-35).  Any
    other argument past the radius is refused there.
    Every other w inside the radius is one element of a single _zeta_on
    call, whose values are zeta_em's to the bit; the rules are then applied
    in the order of ws, so the first w refused is the one a call per w
    would refuse.  The exception is a chi(w) overflow, at Re w below about
    -137, which that call raises first and no closed form reaches.
    zeta_em is called only past the radius, to refuse there.
    """
    ws = [complex(w) for w in ws]
    batch = [i for i, w in enumerate(ws) if w != 1 and abs(w) <= WORKING_RADIUS]
    kernel = dict(zip(batch, _zeta_on(np.array([ws[i] for i in batch]), ZETA_TOL)[0].tolist()))
    out = []
    for i, w in enumerate(ws):
        if abs(w - 1) < 1e-6:
            raise _NearZetaSingular(w, abs(w - 1))
        if abs(w) > WORKING_RADIUS and w.real >= 50:
            out.append(1 + 2**-w + 3**-w + 4**-w)
            continue
        val = kernel[i] if i in kernel else zeta_em(w, ZETA_TOL).value
        if abs(val) < 1e-6:
            raise _NearZetaSingular(w, abs(val))
        out.append(val)
    return out


def _checked_zeta(w: complex) -> complex:
    """zeta(w) by the rules of _checked_zetas."""
    return _checked_zetas([w])[0]


def _log_series(s: complex, weights: str) -> complex:
    """sum_n w(n)/n log zeta(ns) for w = mu or phi.

    With |w(n)| <= C n^d and log zeta(w) ~ 2^{-w}, the terms fall off like
    C n^{d-1} 2^{-n sigma}; the sum stops where six times that is below
    1e-16.  Principal branch: callers keep s real or Re s >= 2, where every
    zeta(ns) stays in the right half-plane around 1.  All the zeta(ns)
    come from one _checked_zetas call.
    """
    w = _small_table(weights)
    C, d = FunctionId(weights).growth_bound()
    ns = []
    for n in range(1, 400):
        if 6.0 * C * 2.0 ** (-n * s.real) / n ** (1 - d) < 1e-16:
            break
        if w[n]:
            ns.append(n)
    acc = 0j
    for n, val in zip(ns, _checked_zetas([n * s for n in ns])):
        acc += w[n] / n * cmath.log(val)
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
                       lambda z, s, m: _log_series(s, "mu"), log_series=True),
    # the double sum is sum_m phi(m)/m log zeta(ms), as sum_{d|m} mu(d)/d = phi(m)/m
    "chi_PP": _Identity("sum_j sum_n mu(n)/n log zeta(jns)",
                        lambda z, s, m: _log_series(s, "phi"), log_series=True),
    "omega": _Identity("zeta(s) sum_n mu(n)/n log zeta(ns)",
                       lambda z, s, m: z(s) * _log_series(s, "mu"), log_series=True),
    "big_omega": _Identity("zeta(s) sum_n phi(n)/n log zeta(ns)",
                           lambda z, s, m: z(s) * _log_series(s, "phi"), log_series=True),
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


@dataclass(frozen=True, eq=False)  # points is an array: equality is identity
class ScanResult:
    """``points`` is the grid as columns in CSV order (row-major, imaginary
    part outer): a record array of s, abs_value (nan where refused),
    det_magnitude, near_singular (refused) and flagged."""

    a: float
    b: float
    T: float
    step: float
    points: np.recarray
    clusters: tuple[complex, ...]
    predicted: tuple[complex, ...]

    @property
    def observed_count(self) -> int:
        return len(self.clusters)

    @property
    def predicted_count(self) -> int:
        return len(self.predicted)

    def write_csv(self, fh) -> None:
        p = self.points
        flags = np.array(["", "cluster_candidate",
                          "near_singular", "near_singular|cluster_candidate"])
        write_rows(fh, ["re", "im", "abs_value", "det_magnitude", "flags"], zip(*(
            f.tolist() for f in (p.s.real, p.s.imag, p.abs_value, p.det_magnitude,
                                 flags[p.near_singular * 2 + p.flagged]))))

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
    they are reported in the CSV but not clustered).  ``predicted`` is
    every lattice point in the rectangle; observed clusters are a subset
    of it, and equality is never asserted.
    Degenerate rectangles (a == b) are allowed.

    The rectangle runs as grids of whole columns, as many to a grid as
    _GRID_BLOCK allows (a 7 x 201 rectangle up to dim 7 is one grid), each
    one engine: each recursion node is solved once for every point of the
    grid, and every column's strips come from one pass over n in phase
    blocks n^{-iy} built once each.  Every column keeps the plan
    it would have alone, so each point equals continue_column on its column
    (at levels = default_levels(a)) up to rounding.  The result holds the
    grid as columns (ScanResult).  ``threads`` is accepted and ignored.
    """
    for name, v in (("a", a), ("b", b), ("T", T), ("step", step)):
        require_finite(name, v)
    if b < a:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    if T < 0 or step <= 0:
        raise DomainError("need T >= 0 and step > 0")
    res = np.arange(0, int((b - a) / step + 1e-9) + 1) * step + a
    ims = np.arange(0, int(T / step + 1e-9) + 1) * step
    det_eta = max(_NEAR_SINGULAR_DET, step * math.log(rep.k))
    ctx = ContinuationContext(rep)
    if levels is None:
        levels = default_levels(a, rep.growth[1])
    width = max(1, _GRID_BLOCK // (len(ims) * (rep.dim**2 + 40)))  # columns to a grid
    blocks = [_ColumnEngine(ctx, res[c : c + width], ims, levels, _M_CAP)._evaluate()
              for c in range(0, len(res), width)]
    value, _, refused, *_, top_det = (np.concatenate(f) for f in zip(*blocks))
    abs_value = np.where(refused, math.nan, np.abs(value))
    flagged = refused | ((top_det < det_eta) & (abs_value > 1.0 / step))
    # the engines' points run column by column; the result is row-major
    # (imaginary part outer), the CSV's order
    points = np.rec.fromarrays(
        [(res[None, :] + 1j * ims[:, None]).ravel(),
         *(f.reshape(len(res), len(ims)).T.ravel() for f in (abs_value, top_det, refused, flagged))],
        names="s,abs_value,det_magnitude,near_singular,flagged")
    m_hi = int(T * math.log(rep.k) / (2 * math.pi)) + 2
    # every base lies left of 1 + log_k rho(Abar), and rho(Abar) <= |Abar|_inf
    # <= sum_r |A_r|_inf / k; eigenvalues below LATTICE_ZERO_TOL give no points,
    # so the bound is floored there (a zero Abar has an empty lattice)
    lift = math.log(max(sum(ctx.mat_norms) / rep.k, LATTICE_ZERO_TOL), rep.k)
    l_hi = max(0, math.ceil(2 - a + lift)) + 1
    lattice = pole_lattice(rep, m_hi, l_hi)
    return ScanResult(
        a=a, b=b, T=T, step=step,
        points=points,
        clusters=_cluster(points[points.flagged], 1.6 * step),
        predicted=tuple(lattice.in_rectangle(a, b, T).s.tolist()),
    )


def _cluster(flagged: np.recarray, radius: float) -> tuple[complex, ...]:
    """Union-find grouping of flagged grid points, records of a scan's
    points; one representative each, sorted by (imag, real): a refused
    member, else the largest |value|, a tie to the smaller det_magnitude."""
    s = flagged.s.tolist()
    n = len(s)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(s[i] - s[j]) <= radius:
                parent[find(i)] = find(j)
    by_root: dict[int, list[int]] = {}
    for i in range(n):
        by_root.setdefault(find(i), []).append(i)
    badness = [(-math.inf, 0.0) if p.near_singular else (-p.abs_value, p.det_magnitude)
               for p in flagged]
    reps = [s[min(members, key=badness.__getitem__)] for members in by_root.values()]
    return tuple(sorted(reps, key=lambda z: (z.imag, z.real)))
