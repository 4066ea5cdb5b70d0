import cmath
import io
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.libmp import gammazeta

from kernelscope import dirichlet
from kernelscope.automaton import (
    LinearRepresentation,
    average_matrix,
    build_representation,
    evaluate,
    pole_lattice,
)
from kernelscope.dirichlet import (
    IDENTITY_TAGS,
    ContinuationContext,
    IdentityId,
    _ColumnEngine,
    _unit_phase,
    continue_column,
    continue_via_recursion,
    direct_sum,
    direct_sums,
    landau_walfisz_singularities,
    pole_scan,
    verify_identity,
    zeta_quotient_eval,
)
from kernelscope.errors import CapacityError, DomainError, PrecisionError
from kernelscope.seqgen import FunctionId, ValueTable, build_table
from kernelscope.zeta import zeta_em

from conftest import trial_factorization

mpmath.mp.dps = 30


@pytest.fixture(scope="module")
def const_rep(table):
    return build_representation(table("const_one", N=2**14), 2, 6, 64)


@pytest.fixture(scope="module")
def tm_rep(table):
    return build_representation(table("thue_morse_pm", N=2**14), 2, 6, 64)


@pytest.fixture(scope="module")
def id3_rep(table):
    return build_representation(table("identity_n", mod=3, N=2**16), 2, 6, 64)


class TestDirectSum:
    def test_zeta2(self, table):
        res = direct_sum(table("const_one"), 2.0, 10**6)
        truth = float(mpmath.zeta(2))
        assert abs(res.value - truth) <= res.error_estimate
        assert abs(res.value - truth) < 1.1e-6
        assert res.truncated and res.terms == 10**6

    def test_lambda_quotient_value(self, table):
        res = direct_sum(table("lambda"), 2.0, 10**6)
        truth = float(mpmath.zeta(4) / mpmath.zeta(2))
        assert abs(res.value - truth) < 1e-6
        assert abs(truth - 0.6579736) < 5e-8

    def test_mu_inverse_zeta(self, table):
        res = direct_sum(table("mu"), 2.0, 10**6)
        assert abs(res.value - float(1 / mpmath.zeta(2))) < 1e-6

    def test_convergence_region_enforced(self, table):
        with pytest.raises(DomainError):
            direct_sum(table("const_one", N=100), 1.1, 100)
        with pytest.raises(DomainError):
            direct_sum(table("phi", N=100), 2.0, 100)  # growth degree 1

    def test_reduced_table_growth_bound(self):
        # lambda mod 3 takes the values 1 and 2, so C = m - 1 = 2 and d = 0
        t = build_table(FunctionId("lambda", modulus=3), 10**6)
        assert t.id.growth_bound() == (2.0, 0.0)
        short, full = direct_sum(t, 2.0, 10**4), direct_sum(t, 2.0, 10**6)
        # every term is positive, so the terms past 10^4 summed here are
        # part of the true tail the short sum's estimate bounds
        gap = full.value.real - short.value.real
        assert 0 < gap <= short.error_estimate

    def test_terms_beyond_table(self, table):
        with pytest.raises(CapacityError):
            direct_sum(table("mu", N=100), 2.0, 200)

    def test_long_sum_against_hurwitz(self, table):
        # pins the plain blocked sum: the continuation engine's BLAS strip,
        # used here instead, is off by 3.6e-14 at this s
        s = 3.3 - 11j
        res = direct_sum(table("const_one"), s, 10**6)
        # mpmath.zeta(s, 10**6 + 1) grows gammazeta's module-level prime sieve
        # caches to 10^6 entries, and primesieve hands the whole cache to every
        # later zeta sum, which slows later zetazero calls about 5x.  The three
        # caches index each other, so they are restored together.
        saved = gammazeta.sieve_cache, gammazeta.primes_cache, gammazeta.mult_cache
        try:
            truth = complex(mpmath.zeta(s) - mpmath.zeta(s, 10**6 + 1))
        finally:
            gammazeta.sieve_cache, gammazeta.primes_cache, gammazeta.mult_cache = saved
        assert abs(res.value - truth) <= 5e-15


class TestDirectSums:
    # corners and inner points of 1.3 <= Re s <= 4.3, |Im s| <= 300; each
    # mpmath.zeta(s, 10**6 + 1) takes about a second
    GRID = [1.3 - 300j, 1.3, 2.8 - 41.5j, 2.8 + 120j, 4.3 + 7j, 4.3 + 300j]

    def test_each_point_is_its_one_point_call(self, table):
        for tag in ("const_one", "chi_P", "mu", "lambda"):
            t = table(tag)
            ss = [2.0, 2.5 - 3j, 3.3 + 11j, 1.7 + 250j]
            for N in (1, 1000, 10**6):
                for got, s in zip(direct_sums(t, ss, N), ss):
                    assert got == direct_sum(t, s, N), (tag, s, N)

    def test_one_bad_point_refused_before_any_sum(self, table, monkeypatch):
        calls = []
        monkeypatch.setattr(dirichlet, "_power_sums", lambda *args: calls.append(args))
        with pytest.raises(DomainError):
            direct_sums(table("const_one"), [2.0, 3 + 1j, 1.2, 2.5], 10**6)
        with pytest.raises(DomainError):  # phi: Re s >= 1.25 + 1
            direct_sums(table("phi"), [3.0, 2.2], 10**6)
        with pytest.raises(CapacityError):
            direct_sums(table("mu", N=100), [2.0, 3.0], 101)
        assert calls == []

    def test_empty_support(self, table):
        # chi_P(1) = 0, and a table of zeros has no support at all
        zeros = ValueTable(FunctionId("mu"), 50, np.zeros(51, dtype=np.int64))
        for t, N in ((table("chi_P", N=100), 1), (zeros, 50)):
            C, d = t.id.growth_bound()
            for res in direct_sums(t, [2.0, 3 - 5j], N):
                sigma = res.s.real
                assert res.value == 0
                assert res.error_estimate == (C * N ** (1 + d - sigma) / (sigma - 1 - d)
                                              + 1e-15 * math.log2(N + 1))
                assert res.truncated and res.terms == N

    def test_memory_stays_at_one_block(self):
        # a float64 array over this table's support alone is 30.5 MiB
        N = 4 * 10**6
        t = build_table(FunctionId("const_one"), N)
        tracemalloc.start()
        try:
            res = direct_sums(t, [2.0, 3.3 - 11j], N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res[0].value - math.pi**2 / 6) <= res[0].error_estimate
        assert peak < 8 * 2**20

    def test_grid_against_hurwitz(self, table):
        N = 10**6
        results = direct_sums(table("const_one"), self.GRID, N)
        # see test_long_sum_against_hurwitz for why the sieve caches are restored
        saved = gammazeta.sieve_cache, gammazeta.primes_cache, gammazeta.mult_cache
        try:
            truths = [complex(mpmath.zeta(s) - mpmath.zeta(s, N + 1)) for s in self.GRID]
        finally:
            gammazeta.sieve_cache, gammazeta.primes_cache, gammazeta.mult_cache = saved
        for res, truth in zip(results, truths):
            assert abs(res.value - truth) <= res.error_estimate, res.s

    def test_unit_phase_against_complex_exp(self):
        rng = np.random.default_rng(5)
        odd_pi = np.pi * np.arange(1, 319, 2)  # odd multiples of pi up to 10^3
        theta = np.concatenate([
            rng.uniform(-1e3, 1e3, 10**5),
            odd_pi, odd_pi + 1e-9, odd_pi - 1e-9,
            (odd_pi[:, None] + rng.uniform(-1e-9, 1e-9, (len(odd_pi), 20))).ravel(),
            np.array([0.0, -0.0, 1e-300, 1e3, -1e3]),
        ])
        re, im = _unit_phase(theta)
        want = np.exp(-1j * theta)
        assert np.max(np.abs(re - want.real)) <= 4.5e-16
        assert np.max(np.abs(im - want.imag)) <= 4.5e-16
        assert np.max(np.abs(np.tan(odd_pi / 2))) > 1e13  # the huge-tangent regime is hit


class TestContinuation:
    def test_overlap_with_direct(self, table, const_rep):
        res = continue_via_recursion(const_rep, 2.0)
        direct = direct_sum(table("const_one"), 2.0, 10**6)
        assert abs(res.value - direct.value) <= res.error_estimate + direct.error_estimate

    def test_zeta_zero_value(self, const_rep):
        res = continue_via_recursion(const_rep, 0.0)
        assert res.value is not None
        assert abs(res.value - (-0.5)) < 1e-4
        assert res.offset_averaged  # s+1 hits the pole; removable limit

    def test_matches_oracle_at_negative_points(self, const_rep):
        for s, levels in ((-1.0, 5), (0.5, 3), (-2.5, 6)):
            res = continue_via_recursion(const_rep, s, levels=levels)
            truth = complex(mpmath.zeta(s))
            assert abs(res.value - truth) < 1e-7, s

    def test_near_singular_refusal_at_pole(self, const_rep):
        res = continue_via_recursion(const_rep, 1.0)
        assert res.near_singular
        assert res.value is None
        assert res.det_magnitude is not None and res.det_magnitude < 1e-8

    def test_depth_independence(self, const_rep, tm_rep):
        for rep in (const_rep, tm_rep):
            for s in (1.7, 2.3 + 1j, 0.6):
                a = continue_via_recursion(rep, s, levels=4)
                b = continue_via_recursion(rep, s, levels=5)
                assert abs(a.value - b.value) < 1e-8

    def test_overlap_band_fixture_reps(self, table, const_rep, tm_rep):
        fixtures = {"const_one": const_rep, "thue_morse_pm": tm_rep}
        for tag, rep in fixtures.items():
            t = table(tag)
            for s in (1.5, 2.0, 2.5, 3.0):
                rec = continue_via_recursion(rep, s)
                direct = direct_sum(t, s, 10**6)
                assert (
                    abs(rec.value - direct.value)
                    <= rec.error_estimate + direct.error_estimate
                ), (tag, s)

    def test_region_precondition(self, const_rep):
        with pytest.raises(DomainError):
            continue_via_recursion(const_rep, -3.0, levels=2)

    def test_region_counts_the_growth_degree(self):
        # U_n = (n, 1) grows with degree 1: its direct tails need Re s >= 2.25,
        # so the recursion reaches 1.25 + 1 - levels, one unit short of d = 0
        from test_automaton import identity_regular_rep

        rep = identity_regular_rep()
        with pytest.raises(DomainError, match=r"continued region Re s > 0\.25"):
            continue_via_recursion(rep, -0.5, levels=2)
        for s, levels in ((0.5, 1), (0.2, 2)):
            with pytest.raises(DomainError, match="continued region"):
                continue_via_recursion(rep, s, levels=levels)
        with pytest.raises(DomainError, match="continued region"):
            pole_scan(rep, 0.2, 0.3, 1.0, 0.1, levels=2)

    def test_default_levels_count_the_growth_degree(self):
        # with d = 1 the default descent goes one level deeper, so the direct
        # tails at s = 0.5 lie at Re s = 4.5 and stop within 4096 terms
        # (at Re s = 3.5 each summed 2^20)
        from test_automaton import identity_regular_rep

        rep = identity_regular_rep()
        res = continue_via_recursion(rep, 0.5)
        assert res.terms <= 4096
        assert abs(res.value - complex(mpmath.zeta(-0.5))) <= res.error_estimate

    def test_descent_settings_validated_by_every_entry_point(self, const_rep):
        from kernelscope.dirichlet import continue_column

        for kwargs in ({"levels": -1}, {"m_max": 0}, {"m_max": 1}):
            with pytest.raises(DomainError):
                continue_via_recursion(const_rep, 3.0, **kwargs)
            with pytest.raises(DomainError):
                continue_column(const_rep, 3.0, [0.0], **kwargs)
        with pytest.raises(DomainError):
            pole_scan(const_rep, 3, 3, 0.1, 0.1, levels=-1)
        with pytest.raises(DomainError):
            pole_scan(const_rep, -3.0, -2.9, 0.1, 0.1, levels=2)

    def test_overflow_refused_without_warnings(self, const_rep):
        # numpy's overflow warnings are off in the engine (a warning here
        # would fail the test); the value check refuses the point instead
        with pytest.raises(PrecisionError,
                           match=r"^continuation at s = \(-300\+0j\) overflowed: its value is not finite$"):
            continue_via_recursion(const_rep, -300.0)

    def test_nan_error_estimate_refused(self, const_rep, monkeypatch):
        # with the warnings off, a NaN estimate beside a finite value is
        # caught by the output check, not passed on as a result
        solve = _ColumnEngine._solve

        def broken(engine):
            value, err = solve(engine)
            err[1] = math.nan
            return value, err

        monkeypatch.setattr(_ColumnEngine, "_solve", broken)
        with pytest.raises(PrecisionError,
                           match=r"^continuation at s = \(0\.5\+1j\) lost its error bound: it is NaN$"):
            continue_column(const_rep, 0.5, [0.0, 1.0, 2.0])

    def test_horizon_truncation_bounded(self, const_rep):
        # a short m horizon drops correction terms; the estimate must cover them
        for m_max in (2, 3, 5, 8):
            for s in (0.5, -1.5 + 30j, 0.5 + 60j):
                res = continue_via_recursion(const_rep, s, m_max=m_max)
                assert res.truncated
                err = abs(res.value - complex(mpmath.zeta(s)))
                assert err <= res.error_estimate, (m_max, s)

    def test_direct_terms_and_det_at_levels_zero(self, const_rep):
        res = continue_via_recursion(const_rep, 2.0, levels=0)
        assert res.terms == 2**21
        assert res.det_magnitude == 0.5
        assert abs(res.value - float(mpmath.zeta(2))) <= res.error_estimate

    def test_base_three_representation_same_function(self, table):
        # the constant sequence in base 3 continues to the same zeta values
        rep3 = build_representation(table("const_one", N=2**14), 3, 5, 32)
        assert rep3.k == 3 and rep3.seeds.shape == (2, 1)
        for s, want in ((2.0, complex(mpmath.zeta(2))), (0.0, -0.5)):
            res = continue_via_recursion(rep3, s)
            assert abs(res.value - want) < 1e-6, s
        assert continue_via_recursion(rep3, 1.0).near_singular

    def test_regular_representation_continuation(self):
        # U_n = (n, 1): the output coordinate's series is zeta(s-1)
        from test_automaton import identity_regular_rep

        rep = identity_regular_rep()
        for s, want in ((3.0, mpmath.zeta(2)), (1.5, mpmath.zeta(0.5)),
                        (2.5 + 1j, mpmath.zeta(1.5 + 1j))):
            res = continue_via_recursion(rep, s)
            assert abs(res.value - complex(want)) < 1e-7, s
        # both pole towers refuse
        for pole in (2.0, 1.0):
            res = continue_via_recursion(rep, pole)
            assert res.near_singular and res.value is None, pole


class TestErrorCalibration:
    @pytest.mark.parametrize("k, L, M", [(2, 6, 64), (3, 5, 32)])
    def test_estimate_covers_mpmath_at_default_m_max(self, table, k, L, M):
        # the grid reaches Q = 1 real-axis points and Q > 1 points at height,
        # so it crosses horizon cuts at every depth of the recursion
        rep = build_representation(table("const_one", N=2**14), k, L, M)
        for x in (-1.5, -0.5, 0.0, 0.5, 0.86, 1.5):
            for y in (0.0, 5.0, 30.0, 80.0):
                s = complex(x, y)
                if abs(s - 1) < 1e-6:
                    continue
                res = continue_via_recursion(rep, s)
                err = abs(res.value - complex(mpmath.zeta(s)))
                assert err <= res.error_estimate, (k, s, err, res.error_estimate)


def _digit_sum_rep() -> LinearRepresentation:
    """U_n = (s_2(n), 1): the averaged matrix [[1, 1/2], [0, 1]] is one
    Jordan block, so det(I - c Abar) = (1 - c)^2 has a double root at c = 1."""
    return LinearRepresentation(
        k=2,
        dim=2,
        matrices=(np.eye(2, dtype=np.int64), np.array([[1, 1], [0, 1]], dtype=np.int64)),
        seeds=np.array([[1, 1]], dtype=np.int64),
        output_coord=0,
        labels=((0, 0), (0, 0)),
        verified_to=0,
        growth=(1.0, 1.0),
    )


class TestRemovableLimit:
    """A zero of C(s + m - 1, m) times a simple pole one level down is
    taken as its exact limit in the one solve; a pole met inside the
    recursion where no factor vanishes refuses the point."""

    @pytest.mark.parametrize("k, N", [(2, 4096), (3, 2**14)])
    @pytest.mark.parametrize("s", [0.0, -1.0, -3.0])
    def test_zeta_at_nonpositive_integers(self, table, k, N, s):
        rep = build_representation(table("const_one", N=N), k, 5, 32)
        res = continue_via_recursion(rep, s, levels=dirichlet.default_levels(s, 0.0))
        err = abs(res.value - complex(mpmath.zeta(s)))
        assert res.offset_averaged and not res.near_singular
        assert err < 1e-9, (k, s, err)
        assert err <= res.error_estimate, (k, s, err, res.error_estimate)
        # every coefficient past the zero factor has it too, so the dropped
        # tail adds nothing (charging the envelope's tail gave 1.5 at k = 2)
        assert res.error_estimate < 1e-6, (k, s, res.error_estimate)

    def test_one_engine_per_call(self, const_rep, monkeypatch):
        built = []
        init = _ColumnEngine.__init__

        def counted(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(_ColumnEngine, "__init__", counted)
        assert continue_via_recursion(const_rep, 0.0).offset_averaged
        assert len(built) == 1
        built.clear()
        scan = pole_scan(const_rep, -0.1, 0.1, 1.0, 0.1)
        assert len(built) == 1 and len(scan.points) == 3 * 11

    @pytest.mark.parametrize("s", [2j * math.pi / math.log(2), 1e-12])
    def test_pole_without_a_zero_factor_refused(self, table, s):
        # const_one at k = 2 has the lattice point 2 pi i / log 2 one level
        # down; at 1e-12 the pole s + 1 = 1 is within the threshold but no
        # factor of C vanishes
        rep = build_representation(table("const_one", N=4096), 2, 5, 32)
        res = continue_via_recursion(rep, s)
        assert res.near_singular and res.value is None
        assert not res.offset_averaged

    def test_pole_below_a_pole_refused(self):
        # zeta(s - 1) at s = 0: the child H(s + 1) is itself a pole whose own
        # child H(s + 2) is one too, with no zero factor between them
        from test_automaton import identity_regular_rep

        res = continue_via_recursion(identity_regular_rep(), 0.0)
        assert res.near_singular and res.value is None

    def test_double_pole_refused(self):
        # a double root of det has no residue: the point is refused, and no
        # division by zero warns (a warning fails the test)
        for s in (0.0, -1.0):
            res = continue_via_recursion(_digit_sum_rep(), s)
            assert res.near_singular and res.value is None, s

    def test_off_lattice_point_keeps_its_value(self, table):
        # 2 pi i / log 2 is not on the k = 3 lattice of const_one
        rep = build_representation(table("const_one", N=2**14), 3, 5, 32)
        s = 2j * math.pi / math.log(2)
        res = continue_via_recursion(rep, s)
        assert not res.near_singular and not res.offset_averaged
        assert abs(res.value - complex(mpmath.zeta(s))) <= res.error_estimate


def _mp_inverse(abar, c):
    """(I - c Abar)^{-1} at 40 digits: Abar exact, c the engine's float."""
    d = len(abar)
    a = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row] for row in abar])
    return (mpmath.eye(d) - mpmath.mpc(c.real, c.imag) * a) ** -1


class TestResolvent:
    @pytest.mark.parametrize("tag, mod, k, L, M, dim, y_step", [
        ("const_one", None, 3, 5, 32, 1, 0.5),
        ("thue_morse_pm", None, 2, 6, 64, 2, 0.5),
        ("sum_binary_digits", 3, 2, 6, 64, 3, 0.5),
        ("sum_binary_digits", 7, 2, 8, 128, 7, 0.5),
        ("identity_n", 7, 2, 8, 128, 21, 5.0),  # a 40-digit inverse costs ~0.1 s here
    ])
    def test_inverse_within_rounding_bound(self, table, tag, mod, k, L, M, dim, y_step):
        # adj / det from the float resolvent polynomials against a 40-digit
        # inverse of the same matrix, in the inf-norm
        rep = build_representation(table(tag, mod=mod, N=2**16), k, L, M)
        assert rep.dim == dim
        ctx = ContinuationContext(rep)
        abar = average_matrix(rep)
        checked = 0
        with mpmath.workdps(40):
            for x in (1.16, 0.86, 0.5, -0.5, -1.5):
                s = x + 1j * np.arange(0.0, 30.0, y_step)
                det, inv, _, bound = ctx.resolvent(s)
                for j, c in enumerate((k ** (1 - s)).tolist()):
                    if det[j] < 1e-8:
                        continue
                    ref = _mp_inverse(abar, c)
                    err = max(sum(abs(complex(inv[j, a, b]) - ref[a, b]) for b in range(dim))
                              for a in range(dim))
                    assert err <= bound[j], (s[j], err, bound[j])
                    checked += 1
        assert checked >= 0.9 * 5 * len(np.arange(0.0, 30.0, y_step))


class TestHorizon:
    def test_q1_cuts_only_on_falling_envelope(self, const_rep):
        # at Q = 1 the k^{-sigma}-weighted envelope is below 1e-16 within a
        # few terms of a deep node but climbs back to O(sigma^{-1/2}) near
        # m ~ sigma, so a cut there would bound nothing
        engine = _ColumnEngine(ContinuationContext(const_rep), 80.0, np.zeros(1), 2, 200, Q=1)
        ratio = 1 / 2  # (k - 1) / (k Q)
        for sigma in (0.5, 2.0, 10.0, 40.0, 80.0, 160.0):
            m, dropped = engine._m_horizon(complex(sigma, 0.0))
            assert m == 200 or ratio * (1 + abs(sigma - 1) / (m + 1)) < 1, sigma
            assert dropped > 0, sigma
        # at default settings s = 0 recurses only to its direct tails, none of
        # them deep enough to run out of m; a short m_max still cuts and covers
        truth = complex(mpmath.zeta(0))
        res = continue_via_recursion(const_rep, 0.0)
        assert not res.truncated
        assert abs(res.value - truth) <= res.error_estimate
        res = continue_via_recursion(const_rep, 0.0, m_max=8)
        assert res.truncated
        assert abs(res.value - truth) <= res.error_estimate

    def test_long_horizon_stays_finite(self, const_rep, table):
        # C(s+m-1, m) alone overflows at the deep real-axis nodes a long
        # horizon reaches; the weighted coefficients it scales do not
        rep3 = build_representation(table("const_one", N=2**14), 3, 5, 32)
        truth = complex(mpmath.zeta(-1.5))
        for rep, m_max in ((const_rep, 400), (rep3, 250)):
            res = continue_via_recursion(rep, -1.5, m_max=m_max)
            assert abs(res.value - truth) <= res.error_estimate, m_max

    @pytest.mark.parametrize("k, L, M", [(2, 6, 64), (3, 5, 32)])
    def test_real_axis_not_truncated(self, table, k, L, M):
        # every deep node sits at or above levels and is summed directly, so
        # no real-axis point runs its horizon out to m_max (at k = 3 that
        # run-on estimated 8.0 at s = -1.5 against an actual 1.9e-12)
        rep = build_representation(table("const_one", N=2**14), k, L, M)
        for s in (-1.5, -0.5, 0.0, 0.5, 1.5):
            res = continue_via_recursion(rep, s)
            assert not res.truncated, (k, s)
            assert res.error_estimate <= 1e-6, (k, s, res.error_estimate)
            assert abs(res.value - complex(mpmath.zeta(s))) <= res.error_estimate, (k, s)

    def test_column_work_count(self, tm_rep):
        # a pole-scan column: one node per offset, the offsets below levels
        # recursing and the rest up to the farthest child summed directly
        ys = np.arange(201) * 0.05
        engine = _ColumnEngine(ContinuationContext(tm_rep), 0.86, ys, 3, 200)
        engine.run()
        direct = max(o + 1 + engine._m_horizon(complex(0.86 + o, ys[-1]))[0]
                     for o in range(3)) - 3
        assert engine.nodes == 3 + direct

    def test_one_resolvent_per_offset(self, table, monkeypatch):
        # a dim-21 pole-scan column, where one offset's inverses take 1.4 MiB:
        # each recursion node, one per offset, solves its one resolvent
        rep = build_representation(table("identity_n", mod=7, N=2**16), 2, 8, 128)
        offsets = []
        resolvent = ContinuationContext.resolvent

        def counted(ctx, s):
            offsets.append(round(float(s[0].real) - 0.9))
            return resolvent(ctx, s)

        monkeypatch.setattr(ContinuationContext, "resolvent", counted)
        engine = _ColumnEngine(ContinuationContext(rep), 0.9, np.arange(201) * 0.05, 3, 200)
        results = engine.run()
        assert not any(r.offset_averaged or r.near_singular for r in results)
        assert offsets and len(offsets) == len(set(offsets))


class TestZetaQuotientEval:
    def test_lambda_value(self):
        res = zeta_quotient_eval(IdentityId("lambda"), 2.0)
        assert abs(res.value - float(mpmath.zeta(4) / mpmath.zeta(2))) < 1e-9

    def test_phi_value(self):
        res = zeta_quotient_eval(IdentityId("phi"), 3.0)
        truth = float(mpmath.zeta(2) / mpmath.zeta(3))
        assert abs(res.value - truth) < 1e-9
        assert abs(truth - 1.3684328) < 5e-8

    def test_q2_value(self):
        res = zeta_quotient_eval(IdentityId("q_m", 2), 2.0)
        assert abs(res.value - 15 / math.pi**2) < 1e-9

    def test_prime_sum_oracle(self, ft_1m):
        # P(2) by direct summation over primes with an integral tail bound
        primes = ft_1m.primes.astype(float)
        partial = float((primes**-2.0).sum())
        tail = 1 / 10**6  # sum_{p > 1e6} p^-2 < sum_{n > 1e6} n^-2 < 1/1e6
        res = zeta_quotient_eval(IdentityId("chi_P"), 2.0)
        assert abs(res.value - partial) < tail
        assert abs(res.value - 0.4522474200) < 1e-8

    @pytest.mark.parametrize("s", [2.0, 3.0, 4.5])
    def test_prime_power_oracle(self, s):
        # chi_PP sums p^{-js} over primes and j >= 1, i.e. sum_j P(js)
        truth, j = mpmath.mpf(0), 1
        while (term := mpmath.primezeta(j * s)) > 1e-25:
            truth, j = truth + term, j + 1
        res = zeta_quotient_eval(IdentityId("chi_PP"), s)
        assert abs(res.value - float(truth)) <= res.error_estimate

    @pytest.mark.parametrize("tag, param", [("q_m", None), ("q_m", 1), ("mu", 3), ("nope", None)])
    def test_parameter_rules_name_the_tag(self, tag, param):
        with pytest.raises(DomainError, match=tag):
            IdentityId(tag, param)

    def test_validity_half_planes(self):
        with pytest.raises(DomainError):
            zeta_quotient_eval(IdentityId("mu"), 0.9)
        with pytest.raises(DomainError):
            zeta_quotient_eval(IdentityId("phi"), 1.5)
        with pytest.raises(DomainError):
            zeta_quotient_eval(IdentityId("chi_P"), 1.5 + 1j)  # log series branch

    def test_near_singular_close_to_pole(self):
        res = zeta_quotient_eval(IdentityId("lambda"), 1 + 1e-9)
        assert res.near_singular and res.value is None

    def test_all_tags_enumerated(self):
        assert len(IDENTITY_TAGS) == 11

    # inside the radius; 2.2 + 40i reaches 25s = 55 + 1000i, a 4-term sum
    # past it; 2.5 + 300i is refused at 4s (phi) or, mu(4) being 0, at 5s
    @pytest.mark.parametrize("s", [1.05, 1.5, 2.0, 3.7, 2.2 + 40j, 2.5 + 300j])
    @pytest.mark.parametrize("weights", ["mu", "phi"])
    def test_log_series_matches_one_zeta_em_per_n(self, s, weights):
        # the loop the batched series replaced, as the reference: same bits,
        # or the same refusal at the same n
        def loop():
            w = dirichlet._small_table(weights)
            C, d = FunctionId(weights).growth_bound()
            acc = 0j
            for n in range(1, 400):
                if 6.0 * C * 2.0 ** (-n * s.real) / n ** (1 - d) < 1e-16:
                    break
                if w[n]:
                    x = n * s
                    far = abs(x) > 1000 and x.real >= 50
                    val = (1 + 2**-x + 3**-x + 4**-x) if far else zeta_em(x, 1e-12).value
                    acc += w[n] / n * cmath.log(val)
            return acc

        def outcome(f):
            try:
                return f()
            except DomainError as exc:
                return str(exc)

        s = complex(s)
        assert outcome(loop) == outcome(lambda: dirichlet._log_series(s, weights))

    def test_checked_zetas_refuse_in_order(self):
        # a near-zero value at the second argument is refused before the
        # argument past the radius that follows it
        zero = complex(0.5, float(mpmath.zetazero(1).imag))
        with pytest.raises(dirichlet._NearZetaSingular) as exc:
            dirichlet._checked_zetas([2.0, zero, 5 + 1200j])
        assert exc.value.at == zero
        with pytest.raises(DomainError, match=r"s=\(5\+1200j\) outside"):
            dirichlet._checked_zetas([2.0, 5 + 1200j, zero])


# (tag, param, s) per identity: a real s, plus a complex one (for a log-zeta
# series at Re s >= 2, high enough that zeta(n s) leaves zeta_em's working
# radius); each s keeps the truncation bound at 10^6 terms below 1e-4, so a
# wrong closed form cannot hide inside it
_TRUNCATED_SUM_CASES = [
    ("mu", None, 2.0), ("mu", None, 2.0 + 5j),
    ("lambda", None, 2.0), ("lambda", None, 2.5 - 3j),
    ("q_m", 2, 2.0), ("q_m", 3, 2.0 + 1j),
    ("phi", None, 3.0), ("phi", None, 3.0 + 4j),
    ("rho", None, 2.5), ("rho", None, 2.5 + 7j),
    ("tau_of_square", None, 2.5), ("tau_of_square", None, 3.0 - 2j),
    ("tau_squared", None, 3.0), ("tau_squared", None, 3.0 + 6j),
    ("chi_P", None, 2.0),
    ("chi_PP", None, 2.0), ("chi_PP", None, 2.2 + 40j),
    ("omega", None, 2.5),
    ("big_omega", None, 2.5), ("big_omega", None, 2.2 + 40j),
]


class TestVerifyIdentity:
    def test_mu_passes(self, table):
        report = verify_identity(IdentityId("mu"), table("mu"), [2.0], 10**6)
        assert report.all_passed
        assert report.samples[0].residual <= 1e-5

    def test_q2_value_and_pass(self, table):
        report = verify_identity(IdentityId("q_m", 2), table("q_m", 2), [2.0], 10**6)
        assert report.all_passed
        assert abs(report.samples[0].rhs - 1.5198178) < 1e-6

    def test_big_omega_at_3(self, table):
        report = verify_identity(
            IdentityId("big_omega"), table("big_omega", N=10**5), [3.0], 10**5
        )
        assert report.all_passed

    def test_complex_sample(self, table):
        report = verify_identity(IdentityId("lambda"), table("lambda"), [2 + 1j], 10**6)
        assert report.all_passed

    @pytest.mark.parametrize("tag, param, s", _TRUNCATED_SUM_CASES)
    def test_every_form_against_its_truncated_sum(self, table, tag, param, s):
        report = verify_identity(IdentityId(tag, param), table(tag, param), [s], 10**6)
        assert report.samples[0].bound < 1e-4
        assert report.all_passed

    def test_every_tag_has_a_truncated_sum_oracle(self):
        assert {tag for tag, _, _ in _TRUNCATED_SUM_CASES} == set(IDENTITY_TAGS)

    def test_wrong_table_rejected(self, table):
        with pytest.raises(DomainError):
            verify_identity(IdentityId("mu"), table("lambda"), [2.0], 10**6)

    def test_closed_forms_checked_before_the_sums(self, table, monkeypatch):
        # s - 1 lies 1e-7 from zeta's pole: the closed form refuses it, and
        # the 10^6-term sum at the good sample before it never starts
        calls = []
        monkeypatch.setattr(dirichlet, "direct_sums", lambda *a: calls.append(a))
        with pytest.raises(DomainError, match="near-singular"):
            verify_identity(IdentityId("phi"), table("phi"), [3.0, 2 + 1e-7], 10**6)
        assert calls == []

    def test_report_json(self, table):
        report = verify_identity(IdentityId("mu"), table("mu", N=10**4), [2.5], 10**4)
        doc = report.to_json()
        assert doc["all_passed"] is True
        assert doc["samples"][0]["pass"] is True

    def test_no_samples_refused(self, table):
        # all_passed over no samples would be a verdict no window supports
        with pytest.raises(DomainError, match="at least one sample"):
            verify_identity(IdentityId("mu"), table("mu", N=10**4), [], 10**4)


class TestNonFiniteArguments:
    # each entry point refuses NaN and infinite s before any work: a NaN
    # compares False against every bound, and an infinity overflows math.ceil
    ENTRIES = {
        "direct_sums": lambda s, table, rep: direct_sums(table("mu", N=100), [2.0, s], 100),
        "zeta_quotient_eval": lambda s, table, rep: zeta_quotient_eval(IdentityId("mu"), s),
        "continue_via_recursion": lambda s, table, rep: continue_via_recursion(rep, s),
        "continue_column": lambda s, table, rep: continue_column(
            rep, s.real, [0.0, s.imag]),
        "zeta_em": lambda s, table, rep: zeta_em(s),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("s", [complex(math.nan, 0), complex(math.inf, 0),
                                   complex(-math.inf, 0), complex(2, math.nan),
                                   complex(2, math.inf)])
    def test_refused(self, table, const_rep, entry, s):
        with pytest.raises(DomainError, match=r"^(Re |Im )?s must be finite, got "):
            self.ENTRIES[entry](s, table, const_rep)


class TestLandauWalfisz:
    def test_n_max_6(self):
        pts = landau_walfisz_singularities(6)
        assert [(f.numerator, f.denominator) for f in pts] == [
            (1, 1), (1, 2), (1, 3), (1, 5), (1, 6),
        ]

    def test_n_max_1(self):
        assert [float(f) for f in landau_walfisz_singularities(1)] == [1.0]

    def test_beyond_the_precomputed_table(self):
        pts = landau_walfisz_singularities(1000)
        assert len(pts) == 608  # square-free n <= 1000

    def test_over_capacity_refused(self, monkeypatch):
        monkeypatch.setenv("KERNELSCOPE_MAX_N", "1000")
        with pytest.raises(CapacityError):
            landau_walfisz_singularities(2000)

    @pytest.mark.parametrize("n_max", [1, 512, 513, 2000])
    def test_matches_trial_division(self, n_max):
        squarefree = [n for n in range(1, n_max + 1)
                      if all(e == 1 for e in trial_factorization(n).values())]
        assert landau_walfisz_singularities(n_max) == [Fraction(1, n) for n in squarefree]

    def test_n_max_zero_refused(self):
        with pytest.raises(DomainError, match="^n_max must be >= 1, got 0$"):
            landau_walfisz_singularities(0)

    def test_n_max_10_count(self):
        pts = landau_walfisz_singularities(10)
        assert len(pts) == 7
        assert [f.denominator for f in pts] == [1, 2, 3, 5, 6, 7, 10]
        assert all(a > b for a, b in zip(pts, pts[1:]))  # sorted descending


class TestBatchedColumn:
    def test_batching_invariance(self, const_rep, tm_rep):
        from kernelscope.dirichlet import continue_column

        ys = [0.0, 0.3, 1.7, 5.2, 9.9]
        for rep in (const_rep, tm_rep):
            col = continue_column(rep, 0.95, ys, levels=3)
            for ev in col:
                alone = continue_via_recursion(rep, ev.s, levels=3)
                assert abs(ev.value - alone.value) < 1e-9

    def test_inner_singular_point_inside_a_column(self, const_rep):
        from kernelscope.dirichlet import continue_column

        at0, at1 = continue_column(const_rep, 0.0, [0.0, 1.0])
        assert at0.offset_averaged and abs(at0.value + 0.5) < 1e-4
        assert not at1.offset_averaged
        assert abs(at1.value - complex(mpmath.zeta(1j))) <= at1.error_estimate

    def test_high_column_against_zeta(self, const_rep):
        from kernelscope.dirichlet import continue_column
        from kernelscope.zeta import zeta_em

        col = continue_column(const_rep, 1.15, [0.0, 9.0, 36.25, 77.7], levels=3)
        for ev in col:
            assert abs(ev.value - zeta_em(ev.s).value) < 1e-4


def _n4_rep() -> LinearRepresentation:
    """n^4 at k = 2: U_n = (n^4, n^3, n^2, n, 1), row j of A_r expanding
    (2n + r)^j; Abar has eigenvalues 1, 2, 4, 8, 16, so bases 1 to 5."""
    pw = range(4, -1, -1)
    mats = tuple(np.array([[math.comb(j, i) * 2**i * r ** (j - i) if i <= j else 0 for i in pw]
                           for j in pw], dtype=np.int64) for r in (0, 1))
    return LinearRepresentation(k=2, dim=5, matrices=mats, seeds=np.ones((1, 5), dtype=np.int64),
                                output_coord=0, labels=tuple((0, i) for i in range(5)),
                                verified_to=0, growth=(1.0, 4.0))


class TestPoleScan:
    @pytest.mark.parametrize("a, b, count", [(0.86, 1.16, 10), (2.5, 3.2, 6)])
    def test_predicts_every_lattice_point_past_abar_norm_k_squared(self, a, b, count):
        # bases right of Re 3 once lost their towers' points: the l range
        # stopped at 2 - a + 1, and these rectangles predicted 8 and 4
        rep = _n4_rep()
        assert [evaluate(rep, n) for n in (1, 2, 3, 17)] == [1, 16, 81, 17**4]
        scan = pole_scan(rep, a, b, 10, 0.05)
        want = [complex(p.s) for p in pole_lattice(rep, 3, 40).in_rectangle(a, b, 10)]
        assert scan.predicted == tuple(want) and len(want) == count

    def test_zero_abar_predicts_nothing(self):
        rep = LinearRepresentation(k=2, dim=2, matrices=(np.zeros((2, 2), dtype=np.int64),) * 2,
                                   seeds=np.array([[1, 0]]), output_coord=0,
                                   labels=((0, 0), (0, 1)), verified_to=0, growth=(1.0, 0.0))
        scan = pole_scan(rep, 0.86, 1.16, 10, 0.05)
        assert scan.predicted_count == 0 and len(scan.points) == 7 * 201

    def test_const_one_single_cluster(self, const_rep):
        scan = pole_scan(const_rep, 0.9, 1.1, 10, 0.05)
        assert scan.observed_count == 1
        assert abs(scan.clusters[0] - 1.0) < 0.1

    def test_observed_subset_of_predicted(self, const_rep):
        scan = pole_scan(const_rep, 0.9, 1.1, 20, 0.05)
        assert scan.observed_count <= scan.predicted_count
        assert scan.predicted_count == 3  # 1, 1+9.06i, 1+18.13i
        for c in scan.clusters:
            assert min(abs(c - p) for p in scan.predicted) < 0.2

    def test_cluster_count_at_most_linear(self, const_rep):
        # zeta has one pole; lattice towers without residue stay unflagged
        counts = {}
        for T in (10, 50, 100):
            scan = pole_scan(const_rep, 0.9, 1.1, T, 0.05)
            counts[T] = scan.observed_count
            assert scan.observed_count <= scan.predicted_count
        assert counts[50] <= counts[10] * 5
        assert counts[100] <= counts[10] * 10

    def test_degenerate_rectangle(self, tm_rep):
        scan = pole_scan(tm_rep, 0.5, 0.5, 5, 0.25)
        assert scan.observed_count >= 0  # exploratory; counted and exported

    def test_thue_morse_exploratory_band(self, tm_rep):
        scan = pole_scan(tm_rep, 0.4, 0.6, 5, 0.1)
        assert scan.observed_count >= 0
        assert len(scan.points) == 3 * 51

    def test_csv_export(self, const_rep, tmp_path):
        scan = pole_scan(const_rep, 0.9, 1.1, 2, 0.1)
        p = tmp_path / "scan.csv"
        with open(p, "w") as fh:
            scan.write_csv(fh)
        header, *rows = p.read_text().strip().splitlines()
        assert header == "re,im,abs_value,det_magnitude,flags"
        assert len(rows) == len(scan.points)
        assert len(rows) == 3 * 21

    def test_csv_rows_are_row_major(self, const_rep):
        # row i is (a + (i mod nx) step, (i div nx) step), and each row's
        # value and flags are what continue_column gives on its own column
        a, step, nx, ny = 0.9, 0.1, 3, 3
        fh = io.StringIO()
        pole_scan(const_rep, a, 1.1, 0.2, step).write_csv(fh)
        rows = [r.split(",") for r in fh.getvalue().splitlines()[1:]]
        assert len(rows) == nx * ny
        levels = dirichlet.default_levels(a, const_rep.growth[1])
        det_eta = max(dirichlet._NEAR_SINGULAR_DET, step * math.log(const_rep.k))
        columns = [continue_column(const_rep, a + c * step, np.arange(ny) * step, levels=levels)
                   for c in range(nx)]
        for i, (re, im, abs_value, det, flags) in enumerate(rows):
            ev = columns[i % nx][i // nx]
            assert float(re) == pytest.approx(a + (i % nx) * step, abs=1e-12), i
            assert float(im) == pytest.approx((i // nx) * step, abs=1e-12), i
            assert float(det) == ev.det_magnitude, ev.s
            if ev.near_singular:
                assert (abs_value, flags) == ("nan", "near_singular|cluster_candidate"), ev.s
                continue
            assert float(abs_value) == pytest.approx(abs(ev.value), rel=1e-12), ev.s
            pole_like = ev.det_magnitude < det_eta and abs(ev.value) > 1 / step
            assert flags == ("cluster_candidate" if pole_like else ""), ev.s
        # the rectangle shows all three kinds of row: s = 1 refused, s = 1.1
        # and 1 + 0.1i flagged, the rest plain
        assert [r[4] for r in rows].count("cluster_candidate") == 2
        assert [r[4] for r in rows].count("") == 6

    def test_threads_match_serial(self, const_rep):
        # threads is accepted and ignored (a scan is one grid), so the two
        # calls are the same; kept until item 8 of the roadmap drops the
        # keyword from the benchmark harness, then deleted with it
        a = pole_scan(const_rep, 0.9, 1.1, 3, 0.1, threads=1)
        b = pole_scan(const_rep, 0.9, 1.1, 3, 0.1, threads=4)
        assert a.clusters == b.clusters
        assert len(a.points) == len(b.points) == 3 * 31
        for p, q in zip(a.points, b.points):
            assert p.s == q.s
            assert repr(p.abs_value) == repr(q.abs_value), p.s
            assert p.det_magnitude == q.det_magnitude, p.s
            assert (p.near_singular, p.flagged) == (q.near_singular, q.flagged), p.s

    def test_one_phase_matrix_per_scan(self, const_rep, monkeypatch):
        # the scan's strips run in one pass over n, whose phase blocks of
        # n^{-iy} are built once each (this scan needs one); no point meets
        # an inner pole (whose exact limit builds no phase block either)
        from kernelscope import dirichlet

        levels = dirichlet.default_levels(0.9, const_rep.growth[1])
        ys = np.arange(31) * 0.1
        assert not any(ev.offset_averaged for x in (0.9, 1.0, 1.1)
                       for ev in dirichlet.continue_column(const_rep, x, ys, levels=levels))
        calls = []
        phases = dirichlet._phases

        def counted(ys, lo, hi):
            calls.append((len(ys), lo, hi))
            return phases(ys, lo, hi)

        monkeypatch.setattr(dirichlet, "_phases", counted)
        scan = pole_scan(const_rep, 0.9, 1.1, 3, 0.1)
        assert len(scan.points) == 3 * 31
        assert len(calls) == 1 and calls[0][:2] == (31, 1)

    @pytest.mark.parametrize("fixture, a", [("const_rep", 0.9), ("tm_rep", 0.4)])
    def test_sliced_columns_match_one_point(self, request, fixture, a):
        # columns right of the first sum shorter tails (tm_rep: 512 terms at
        # 0.4, 256 at 0.6); a one-point call splits at its own height's Q
        from kernelscope.dirichlet import default_levels

        rep = request.getfixturevalue(fixture)
        levels = default_levels(a, rep.growth[1])
        scan = pole_scan(rep, a, a + 0.2, 2, 0.1)
        assert len({p.s.real for p in scan.points}) == 3
        for p in scan.points:
            alone = continue_via_recursion(rep, p.s, levels)
            if alone.value is None:
                assert p.near_singular and math.isnan(p.abs_value)
            else:
                assert abs(p.abs_value - abs(alone.value)) <= 1e-9, p.s

    @pytest.mark.parametrize("fixture, a, b, T, step, shown", [
        # the columns' direct tails differ: 512 terms at 0.4, 256 at 0.6
        ("tm_rep", 0.4, 0.6, 5.0, 0.1, "tails"),
        # dim 6 on the automatic-scan benchmark's rectangle
        ("id3_rep", 0.86, 1.16, 10.0, 0.05, "dim"),
        # s = 0 is offset-averaged (its child s + 1 is the pole)
        ("const_rep", -0.1, 0.1, 1.0, 0.1, "averaged"),
        # s = 1 is refused
        ("const_rep", 0.9, 1.1, 1.0, 0.1, "refused"),
    ])
    def test_grid_matches_each_column(self, request, monkeypatch, fixture, a, b, T, step,
                                      shown):
        # the scan is one grid engine whose columns keep their own plans, so
        # every point is what continue_column gives on its column alone
        rep = request.getfixturevalue(fixture)
        seen = []
        evaluate = _ColumnEngine._evaluate

        def recorded(engine):
            seen.append((engine, evaluate(engine)))
            return seen[-1][1]

        monkeypatch.setattr(_ColumnEngine, "_evaluate", recorded)
        scan = pole_scan(rep, a, b, T, step)
        monkeypatch.undo()
        [(engine, (value, err, refused, averaged, truncated, terms, det))] = seen
        assert engine.nx == len({p.s.real for p in scan.points}) > 1
        by_s = {p.s: p for p in scan.points}
        alone = [ev for x in engine.xs.tolist()
                 for ev in continue_column(rep, x, engine.ys, levels=engine.levels)]
        assert [ev.s for ev in alone] == engine.s.tolist()
        for j, ev in enumerate(alone):
            p = by_s[ev.s]
            assert p.det_magnitude == det[j] == ev.det_magnitude, ev.s
            assert p.near_singular == refused[j] == ev.near_singular, ev.s
            if ev.near_singular:
                assert math.isnan(p.abs_value)
                continue
            assert abs(value[j] - ev.value) <= 1e-12 * abs(ev.value), ev.s
            assert abs(p.abs_value - abs(ev.value)) <= 1e-12 * abs(ev.value), ev.s
            assert abs(err[j] - ev.error_estimate) <= 1e-12 * ev.error_estimate, ev.s
            assert (int(terms[j]), bool(truncated[j]), bool(averaged[j])) == (
                ev.terms, ev.truncated, ev.offset_averaged), ev.s
        assert {
            "tails": {ev.terms for ev in alone} == {512, 256},
            "dim": rep.dim == 6,
            "averaged": [ev.s for ev in alone if ev.offset_averaged] == [0],
            "refused": [ev.s for ev in alone if ev.near_singular] == [1],
        }[shown]

    def test_scan_memory(self, id3_rep):
        # the grid holds its node array and one phase block at a time, never
        # a whole n^{-iy} matrix; the traced peak of this scan was 7.9 MiB
        # with an engine per column and one 201 x 2048 phase matrix
        id3_rep.resolvent_poly  # derived once per representation, not per scan
        tracemalloc.start()
        try:
            scan = pole_scan(id3_rep, 0.86, 1.16, 10.0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scan.points) == 7 * 201
        assert peak < 10 * 2**20

    def test_result_holds_columns(self, const_rep):
        # a returned scan holds its grid as columns, 34 bytes a point; one
        # frozen object per point held 202
        const_rep.resolvent_poly  # derived once per representation, not per scan
        tracemalloc.start()
        try:
            scan = pole_scan(const_rep, 0.9, 1.1, 100.0, 0.05)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(scan.points) == 5 * 2001
        assert held <= 48 * len(scan.points)

    def test_wide_scan_memory(self, table):
        # a dim-21 scan of 13 columns runs as engines of whole columns that
        # fit _GRID_BLOCK (here one column each), so its traced peak stays
        # near one column's: 6.8 MiB, where one engine over the whole grid
        # peaked at 74.8 MiB and an engine per column with its own n^{-iy}
        # matrix at 12.9 MiB
        rep = build_representation(table("identity_n", mod=7, N=2**16), 2, 8, 128)
        assert rep.dim == 21
        rep.resolvent_poly  # derived once per representation, not per scan
        tracemalloc.start()
        try:
            scan = pole_scan(rep, 0.9, 1.5, 10.0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scan.points) == 13 * 201
        assert peak < 10 * 2**20

    @staticmethod
    def _flagged(*points):
        """Flagged records of (s, abs_value, det_magnitude, near_singular)."""
        s, value, det, refused = zip(*points)
        return np.rec.fromarrays(
            [np.array(s, dtype=complex), np.array(value), np.array(det), np.array(refused),
             np.ones(len(s), dtype=bool)],
            names="s,abs_value,det_magnitude,near_singular,flagged")

    @pytest.mark.parametrize("points, clusters", [
        # diagonal neighbours, 0.141 apart at step 0.1 (radius 0.16): one cluster
        ([(1.0, 20.0, 0.05, False), (1.1 + 0.1j, 10.0, 0.05, False)], [1.0]),
        # 0.2 apart: two clusters
        ([(1.0, 20.0, 0.05, False), (1.2, 10.0, 0.05, False)], [1.0, 1.2]),
        # a refused member represents its cluster over any |value|
        ([(1.1, 1e6, 0.01, False), (1.0, math.nan, 0.0, True)], [1.0]),
        # else the largest |value|
        ([(1.0, 20.0, 0.01, False), (1.1, 30.0, 0.05, False)], [1.1]),
        # and between equal values the smaller det_magnitude
        ([(1.0, 20.0, 0.05, False), (1.1, 20.0, 0.01, False)], [1.1]),
        # representatives sorted by (imag, real)
        ([(2 + 0.5j, 20.0, 0.05, False), (1 + 1j, 20.0, 0.05, False),
          (3.0, 20.0, 0.05, False), (0.5 + 0.5j, 20.0, 0.05, False)],
         [3.0, 0.5 + 0.5j, 2 + 0.5j, 1 + 1j]),
    ])
    def test_cluster_representatives(self, points, clusters):
        got = dirichlet._cluster(self._flagged(*points), 1.6 * 0.1)
        assert got == tuple(clusters)
        assert all(type(c) is complex for c in got)

    @pytest.mark.parametrize("a, b, T, step, message", [
        (1.1, 0.9, 3.0, 0.1, r"^need a <= b, got a=1.1, b=0.9$"),
        (0.9, 1.1, -1.0, 0.1, r"^need T >= 0 and step > 0$"),
        (0.9, 1.1, 3.0, 0.0, r"^need T >= 0 and step > 0$"),
    ])
    def test_bad_rectangle_refused(self, const_rep, a, b, T, step, message):
        with pytest.raises(DomainError, match=message):
            pole_scan(const_rep, a, b, T, step)

    @pytest.mark.parametrize("name", ["a", "b", "T", "step"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_bounds_refused(self, const_rep, name, bad):
        bounds = {"a": 0.9, "b": 1.1, "T": 3.0, "step": 0.1, name: bad}
        with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
            pole_scan(const_rep, **bounds)
