import math

import mpmath
import numpy as np
import pytest

from kernelscope.automaton import build_representation
from kernelscope.dirichlet import (
    IDENTITY_TAGS,
    ContinuationContext,
    IdentityId,
    _ColumnEngine,
    continue_via_recursion,
    direct_sum,
    landau_walfisz_singularities,
    pole_scan,
    verify_identity,
    zeta_quotient_eval,
)
from kernelscope.errors import CapacityError, DomainError

mpmath.mp.dps = 30


@pytest.fixture(scope="module")
def const_rep(table):
    return build_representation(table("const_one", N=2**14), 2, 6, 64)


@pytest.fixture(scope="module")
def tm_rep(table):
    return build_representation(table("thue_morse_pm", N=2**14), 2, 6, 64)


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

    def test_terms_beyond_table(self, table):
        with pytest.raises(CapacityError):
            direct_sum(table("mu", N=100), 2.0, 200)


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
        res = continue_via_recursion(const_rep, 0.0)
        assert res.truncated
        assert abs(res.value - complex(mpmath.zeta(0))) <= res.error_estimate

    def test_long_horizon_stays_finite(self, const_rep, table):
        # C(s+m-1, m) alone overflows at the deep real-axis nodes a long
        # horizon reaches; the weighted coefficients it scales do not
        rep3 = build_representation(table("const_one", N=2**14), 3, 5, 32)
        truth = complex(mpmath.zeta(-1.5))
        for rep, m_max in ((const_rep, 400), (rep3, 250)):
            res = continue_via_recursion(rep, -1.5, m_max=m_max)
            assert abs(res.value - truth) <= res.error_estimate, m_max

    def test_column_work_count(self, tm_rep):
        # a pole-scan column; an envelope without k^{-sigma} solves 268 nodes
        ys = np.arange(201) * 0.05
        engine = _ColumnEngine(ContinuationContext(tm_rep), 0.86, ys, 3, 200)
        engine.run()
        assert engine.nodes <= 200


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

    def test_wrong_table_rejected(self, table):
        with pytest.raises(DomainError):
            verify_identity(IdentityId("mu"), table("lambda"), [2.0], 10**6)

    def test_report_json(self, table):
        report = verify_identity(IdentityId("mu"), table("mu", N=10**4), [2.5], 10**4)
        doc = report.to_json()
        assert doc["all_passed"] is True
        assert doc["samples"][0]["pass"] is True


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


class TestPoleScan:
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

    def test_threads_match_serial(self, const_rep):
        a = pole_scan(const_rep, 0.9, 1.1, 3, 0.1, threads=1)
        b = pole_scan(const_rep, 0.9, 1.1, 3, 0.1, threads=4)
        assert a.clusters == b.clusters
