import math

import mpmath
import pytest

from kernelscope.errors import DomainError, PoleError
from kernelscope.zeta import (
    bernoulli_number,
    critical_line_zeros,
    hardy_z,
    reflection_factor,
    tlogt_ratio_table,
    zero_count,
    zero_count_report,
    zeta_em,
)

mpmath.mp.dps = 30


def mp_zeta(s: complex) -> complex:
    return complex(mpmath.zeta(mpmath.mpc(s)))


class TestBernoulli:
    def test_first_values(self):
        from fractions import Fraction

        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert bernoulli_number(13) == 0


class TestZetaEval:
    def test_classic_values(self):
        assert abs(zeta_em(2).value - math.pi**2 / 6) < 1e-12
        assert abs(zeta_em(0).value - (-0.5)) < 1e-12
        assert abs(zeta_em(-1).value - (-1 / 12)) < 1e-12

    def test_trivial_zeros(self):
        assert zeta_em(-2).value == 0
        assert zeta_em(-8).value == 0

    @pytest.mark.parametrize(
        "s",
        [
            2.0,
            1.5,
            0.5 + 14.134725j,
            0.5 + 100.5j,
            -0.5 + 50j,
            0.25 + 3j,
            3 - 7j,
            -3.7,
            -10 + 2j,
            0.5 + 400.25j,
            1 + 900.1j,
        ],
    )
    def test_against_oracle(self, s):
        res = zeta_em(complex(s), 1e-12)
        truth = mp_zeta(s)
        assert abs(res.value - truth) < 1e-10
        assert abs(res.value - truth) <= res.error_estimate + 1e-15

    def test_error_estimate_finite_and_reported(self):
        res = zeta_em(0.5 + 30j)
        assert math.isfinite(res.error_estimate)
        assert res.terms_used > 0
        assert res.bernoulli_order > 0

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta_em(1.0)

    def test_working_range(self):
        with pytest.raises(DomainError):
            zeta_em(2000.0)
        with pytest.raises(DomainError):
            zeta_em(0.5 + 1500j)

    def test_conjugate_symmetry(self):
        for s in (0.5 + 21.3j, 2 + 5j, -0.3 + 9j):
            a = zeta_em(complex(s)).value
            b = zeta_em(complex(s).conjugate()).value
            assert abs(a.conjugate() - b) < 1e-10

    def test_functional_equation_spot(self):
        # zeta(s) = chi(s) zeta(1-s) at the two declared spot points
        for s in (0.3 + 5j, 0.7 + 12j):
            lhs = zeta_em(s).value
            rhs = reflection_factor(s) * zeta_em(1 - s).value
            assert abs(lhs - rhs) < 1e-8

    def test_no_zeros_on_sigma_one_line(self):
        for t in range(1, 101):
            assert abs(zeta_em(complex(1, t)).value) > 0.05


class TestCriticalLineZeros:
    def test_first_zero(self):
        zs = critical_line_zeros(15)
        assert len(zs) == 1
        assert abs(zs[0].ordinate - 14.134725) < 1e-5

    def test_three_zeros_below_30(self):
        zs = critical_line_zeros(30)
        got = [z.ordinate for z in zs]
        expected = [14.134725, 21.022040, 25.010858]  # frozen oracle ordinates
        assert len(got) == 3
        assert all(abs(a - b) < 1e-5 for a, b in zip(got, expected))

    def test_empty_below_first_zero(self):
        assert critical_line_zeros(5) == []

    def test_brackets_sign_change(self):
        for z in critical_line_zeros(40):
            a, b = z.bracket
            assert a <= z.ordinate <= b
            assert hardy_z(a) * hardy_z(b) <= 0

    def test_against_mpmath_ordinates(self):
        zs = critical_line_zeros(50)
        for i, z in enumerate(zs, start=1):
            truth = float(mpmath.im(mpmath.zetazero(i)))
            assert abs(z.ordinate - truth) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_line_zeros(0)


class TestHeightLimit:
    def test_t_1000_refused_up_front(self, monkeypatch):
        # 1.5 + 1000i and 0.5 + 1000i lie outside |s| <= 1000
        def no_eval(*args, **kwargs):
            raise AssertionError("evaluated before validation")

        monkeypatch.setattr("kernelscope.zeta.zeta_em", no_eval)
        with pytest.raises(DomainError, match=r"\|1\.5 \+ iT\| <= 1000"):
            zero_count_report(1000)
        with pytest.raises(DomainError, match=r"\|0\.5 \+ iT\| <= 1000"):
            critical_line_zeros(1000)

    def test_largest_accepted_height_evaluates(self):
        # every contour point, edge ends included, stays inside the radius
        lo, hi = 999.0, 1000.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if abs(complex(1.5, mid)) <= 1000 else (lo, mid)
        report = zero_count_report(lo)
        assert report.agree and report.winding_count == 649


class TestZeroCount:
    def test_count_50(self):
        assert zero_count(50) == 10

    def test_count_100(self):
        assert zero_count(100) == 29

    def test_methods_agree(self):
        rep = zero_count_report(75)
        assert rep.agree

    def test_nondecreasing(self):
        counts = [zero_count(T) for T in (20, 30, 50, 60)]
        assert counts == sorted(counts)

    def test_ratio_window(self):
        rows = tlogt_ratio_table([100, 200])
        for r in rows:
            assert 0.1 <= r.ratio <= 0.2

    def test_single_height_table(self):
        rows = tlogt_ratio_table([50])
        assert len(rows) == 1
        assert rows[0].N == 10
