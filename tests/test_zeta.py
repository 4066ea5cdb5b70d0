import cmath
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from kernelscope import zeta
from kernelscope.errors import ContourError, DomainError, PoleError, PrecisionError
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

    # left of Re s = -0.5 the rounding of log chi, about 1e-12 relative at
    # |s| near 1e3, is most of the error
    @pytest.mark.parametrize("s", [-10 + 100j, -17.70497 + 719.77632j, -50 + 500j,
                                   -0.75 + 999j, -11.42421 + 845.51915j,
                                   -7.34943 + 964.18624j, -17.24066 - 571.20774j])
    def test_reflected_estimate(self, s):
        res = zeta_em(s)
        assert abs(res.value - mp_zeta(s)) <= res.error_estimate

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


class TestOneRoutine:
    # both sides of Re s = -0.5, two trivial zeros, a conjugate pair and the
    # top of the range
    MIXED = [-0.5, -0.5000001, -2, -8, -3 + 40j, -3 - 40j, -0.75 + 999j, 0.5 + 14.1j]

    def test_mixed_batch_keeps_each_point_bits(self):
        batch = np.array(self.MIXED + self.MIXED[::-1], dtype=np.complex128)
        value, err, terms, order = zeta._zeta_on(batch, 1e-12)
        for i, s in enumerate(batch):
            one = zeta_em(s, 1e-12)
            assert (one.value, one.error_estimate, one.terms_used, one.bernoulli_order) == (
                value[i], err[i], terms[i], order[i]), s
            assert abs(one.value - mp_zeta(s)) <= one.error_estimate, s
        assert (value[2:4] == 0).all() and (terms[2:4] == 0).all()

    def test_reflection_factor_on_arrays(self):
        s = np.array([-3 + 40j, -3 - 40j, -0.75 + 999j, -20 - 998j, -3.7, -51.0, 0.3 + 5j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chi = reflection_factor(s)
            assert chi.tolist() == [complex(reflection_factor(x)) for x in s]
            for x in s[:4]:
                zeta_em(x)
        with pytest.raises(PrecisionError, match=r"overflows at s=\(-900\+400j\)"):
            reflection_factor(np.array([-3 + 40j, -900 + 400j, -950 - 100j]))

    @pytest.mark.parametrize("s", [1.0, 2.0, 7.0, 7 + 0j, 31.0])
    def test_reflection_factor_refuses_gamma_poles(self, s):
        # Gamma(1 - s) has a pole at s = 1, 2, 3, ...: a PoleError naming the
        # point, raised before the log of zero would warn
        with pytest.raises(PoleError, match=rf"pole at s=\({s.real:g}\+0j\)"):
            reflection_factor(s)
        with pytest.raises(PoleError, match=rf"pole at s=\({s.real:g}\+0j\)"):
            reflection_factor(np.array([-3 + 40j, s, 2.5]))

    def test_reflection_factor_next_to_gamma_poles(self):
        # off the poles, on and beside the real axis, chi is finite
        for s in [0.5, 6.5, 7 + 1e-9j, 7 - 3j]:
            assert np.isfinite(reflection_factor(s))

    # the points where the estimate once left out the rounding of s log n,
    # and 40 seeded points high up the range
    def test_estimate_bounds_argument_rounding(self):
        rng = np.random.default_rng(34)
        seeded = rng.uniform(-0.5, 2, 40) + 1j * rng.uniform(500, 999, 40)
        for s in [-0.5 + 999j, -0.25 + 800j, 0.5 + 950.7j, *seeded]:
            res = zeta_em(complex(s))
            assert abs(res.value - mp_zeta(s)) <= res.error_estimate, s

    def test_estimate_smooth_at_sigma_one(self):
        below, above = (zeta_em(complex(x, 500)).error_estimate for x in (1 - 1e-6, 1 + 1e-6))
        assert max(below, above) <= 2 * min(below, above)

    # sin(pi s / 2) < 0 at all but -3.7 and -150.5, where log sin once took the
    # log of a negative real and left the rounding of its pi as Im zeta
    REAL_LEFT = [-1.0, -5.0, -9.5, -0.75, -3.7, -150.5]

    def test_real_s_has_real_zeta(self):
        value = zeta._zeta_on(np.array(self.REAL_LEFT + [-0.5, 0.0, 0.5, 2.0]), 1e-12)[0]
        assert value.imag.tolist() == [0.0] * 10 and not np.signbit(value.imag).any()
        for s in self.REAL_LEFT:
            res = zeta_em(s)
            assert res.value.imag == 0.0 and math.copysign(1, res.value.imag) == 1, s
            assert abs(res.value - mp_zeta(s)) <= res.error_estimate, s

    def test_real_s_has_real_chi(self):
        chi = reflection_factor(np.array(self.REAL_LEFT + [0.3, -0.2]))
        assert chi.imag.tolist() == [0.0] * 8 and not np.signbit(chi.imag).any()
        assert reflection_factor(-1.0).imag == 0.0
        assert reflection_factor(-1 + 0.5j).imag != 0.0  # off the axis, untouched


class TestLogGamma:
    def test_theta_arguments(self):
        # 1/4 + it/2 for t in [0, 1000]: the imaginary part is theta's
        t = np.linspace(0.0, 1000.0, 2001)
        ours = zeta._loggamma(0.25 + 0.5j * t)
        for ti, v in zip(t, ours):
            truth = mpmath.loggamma(mpmath.mpc(0.25, ti / 2))
            assert abs(v.imag - float(truth.imag)) <= 1e-11, ti

    def test_reflection_arguments(self):
        # 1 - s for Re s < -0.5, |s| <= 1000, as reflection_factor needs
        re = -0.5 - np.geomspace(1e-3, 1000.0, 40)
        s = re[:, None] + 1j * np.linspace(-1000.0, 1000.0, 41)
        s = s[np.abs(s) <= 1000]
        ours = zeta._loggamma(1 - s)
        for si, v in zip(s, ours):
            truth = complex(mpmath.loggamma(mpmath.mpc(1 - si)))
            assert abs(cmath.exp(v - truth) - 1) <= 1e-11, si


def test_nothing_imports_scipy():
    code = """
import pkgutil, sys
sys.modules["scipy"] = None
import kernelscope
for m in pkgutil.iter_modules(kernelscope.__path__):
    __import__("kernelscope." + m.name)
from kernelscope.zeta import critical_line_zeros, zeta_em
zeta_em(-3.5 + 40j)
assert len(critical_line_zeros(30)) == 3
"""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr


def _edge(a: complex, b: complex, pieces: int) -> np.ndarray:
    i = np.arange(pieces + 1)
    pts = np.empty(pieces + 1, dtype=np.complex128)
    pts.real = a.real + (b.real - a.real) * i / pieces
    pts.imag = a.imag + (b.imag - a.imag) * i / pieces
    return pts


class TestPowerSums:
    # sigma in [-0.5, 3] and |t| <= 1000, the edges among them
    POINTS = np.concatenate([
        [-0.5 + 1000j, 3 - 1000j, 0.5 + 0j, -0.5 - 0.25j],
        np.random.default_rng(33).uniform(-0.5, 3, 6)
        + 1j * np.random.default_rng(34).uniform(-1000, 1000, 6),
    ])

    @staticmethod
    def _weights(N: int, points: int) -> dict:
        n = np.arange(1, N + 1)
        cut = np.random.default_rng(N).integers(0, N + 1, points)
        return {
            "ones": 1.0,
            "mu_like": np.random.default_rng(N + 1).integers(-1, 2, N).astype(np.float64),
            # Riemann-Siegel's shape: 2 n^{-1/2} up to each point's own m
            "rs_mask": np.where(n <= cut[:, None], 2 / np.sqrt(n), 0.0),
        }

    @pytest.mark.parametrize("N", [16, 358, 4096])
    def test_against_mpmath(self, N):
        # the reference takes the arguments -sigma log n and t log n as the
        # doubles the kernel forms: their rounding is the callers' to bound
        logn = np.log(np.arange(1, N + 1, dtype=np.float64))
        mod_arg = np.multiply.outer(-self.POINTS.real, logn)
        phase_arg = np.multiply.outer(self.POINTS.imag, logn)
        mod = [[mpmath.exp(x) for x in row] for row in mod_arg.tolist()]
        cos = [[mpmath.cos(x) for x in row] for row in phase_arg.tolist()]
        sin = [[mpmath.sin(x) for x in row] for row in phase_arg.tolist()]
        for kind, w in self._weights(N, len(self.POINTS)).items():
            got = zeta._power_sums(logn, w, self.POINTS)
            wj = np.broadcast_to(w, mod_arg.shape).tolist()
            for j, s in enumerate(self.POINTS):
                terms = [(x * m, x * m * c, x * m * si)
                         for x, m, c, si in zip(wj[j], mod[j], cos[j], sin[j]) if x]
                truth = complex(mpmath.fsum(t[1] for t in terms),
                                -mpmath.fsum(t[2] for t in terms))
                mass = float(mpmath.fsum(abs(t[0]) for t in terms))
                bound = (2.3e-16 + 2.2e-16 * math.log2(N)) * mass
                assert abs(got[j] - truth) <= bound, (kind, N, s)

    def test_chunks_keep_each_point_bits(self):
        # 40 points of 4096 terms are more than _POWER_BLOCK entries, so
        # the call runs in chunks; each point's bits are its own call's
        N = 4096
        logn = np.log(np.arange(1, N + 1, dtype=np.float64))
        rng = np.random.default_rng(35)
        points = rng.uniform(-0.5, 3, 40) + 1j * rng.uniform(-1000, 1000, 40)
        assert len(points) * N > zeta._POWER_BLOCK
        for kind, w in self._weights(N, len(points)).items():
            whole = zeta._power_sums(logn, w, points)
            for j, s in enumerate(points):
                wj = w[j : j + 1] if np.ndim(w) == 2 else w
                alone = zeta._power_sums(logn, wj, points[j : j + 1])
                assert alone.tobytes() == whole[j : j + 1].tobytes(), (kind, s)


class TestKernel:
    # the Re s = -0.5 edge, N groups from 16 to 358, and at 1e-30 the point
    # 0.5 + 30i, which order 60 cannot settle at N = 18, doubles to N = 36
    POINTS = [-0.5 + 0j, -0.5 + 50j, -0.5 + 999.8j, 0.5 + 30j, 0.5 + 14.134725j,
              2.0 + 0j, 1.5 - 300.25j, 0.25 + 3j, 1 + 900.1j, 0.5 + 30.5j,
              3 - 7j, 1.5 + 0.1j]

    @pytest.mark.parametrize("tol", [1e-10, 1e-12, 1e-30])
    def test_batch_invariance(self, tol):
        rng = np.random.default_rng(5)
        mixed = rng.uniform(-0.5, 3, 200) + 1j * rng.uniform(-999, 999, 200)
        batch = np.concatenate([self.POINTS, mixed, self.POINTS[::-1]])
        whole = zeta._em_kernel(batch, tol)
        for i, s in enumerate(batch):
            alone = zeta._em_kernel(np.array([s]), tol)
            for a, b in zip(alone, whole):
                assert a[0].tobytes() == b[i].tobytes(), (s, tol)

    def test_doubling_branch(self):
        s = np.array([0.5 + 30j, 2.0 + 0j])
        _, err, terms, order = zeta._em_kernel(s, 1e-30)
        assert terms.tolist() == [36, 16]  # the first started at N = 18
        assert zeta._em_kernel(s, 1e-12)[2].tolist() == [18, 16]
        value = zeta._em_kernel(s, 1e-30)[0]
        for v, e, x in zip(value, err, s):
            assert abs(v - mp_zeta(x)) <= e

    def test_unreachable_tolerance(self, monkeypatch):
        # a zero target is never met, so N doubles past the cap
        monkeypatch.setattr(zeta, "_EM_N_CAP", 64)
        with pytest.raises(PrecisionError, match=r"unreachable at s=\(2\+3j\)"):
            zeta._em_kernel(np.array([2 + 3j, 0.5 + 20j]), 0.0)
        with pytest.raises(PrecisionError):
            zeta_em(2 + 3j, 0.0)

    def test_hardy_z_against_siegelz(self):
        t = np.concatenate([np.linspace(1.0, 995.0, 41), [14.134725, 500.25, 998.7]])
        z = zeta._hardy_z(t)
        err = zeta._em_kernel(zeta._critical(t), zeta.HARDY_Z_TOL)[1]
        for ti, zi, e in zip(t, z, err):
            assert abs(zi - float(mpmath.siegelz(ti))) <= e, ti
        assert [hardy_z(ti) for ti in t] == z.tolist()

    @pytest.mark.parametrize("T", [200.0, 999.9])
    def test_count_segment_against_mpmath(self, T):
        # the counting segment's points and the midpoints of its first halving
        pts = _edge(complex(1.5, T), complex(0.5, T), 16)
        pts = np.concatenate([pts, 0.5 * (pts[:-1] + pts[1:])])
        value, err, _, _ = zeta._em_kernel(pts, zeta.COUNT_EVAL_TOL)
        for k in range(len(pts)):
            assert abs(value[k] - mp_zeta(complex(pts[k]))) <= err[k], pts[k]

    def test_zeta_em_is_a_one_point_call(self):
        for s in (0.5 + 30j, 2.0, -0.5 + 50j):
            one = zeta_em(s, 1e-12)
            value, err, terms, order = zeta._em_kernel(np.array(self.POINTS + [s]), 1e-12)
            assert (one.value, one.error_estimate, one.terms_used, one.bernoulli_order) == (
                value[-1], err[-1], terms[-1], order[-1])


class TestRiemannSiegel:
    def test_against_siegelz(self):
        # RS_FROM itself and 150 seeded heights, each within its own bound
        t = np.concatenate([[zeta.RS_FROM], np.random.default_rng(26).uniform(200, 1000, 150)])
        value, err = zeta._riemann_siegel(t)
        with mpmath.workdps(20):
            for ti, v, e in zip(t, value, err):
                assert abs(v - float(mpmath.siegelz(ti))) <= e, ti

    def test_uncertain_sign_falls_back(self):
        # at a zero's ordinate |Z| is far below the bound, so the sample is
        # the Euler-Maclaurin value
        with mpmath.workdps(15):
            t = np.array([float(mpmath.zetazero(80).imag)])
        assert zeta.RS_FROM < t[0] < 202
        value, err = zeta._riemann_siegel(t)
        assert abs(value[0]) <= err[0]
        assert zeta._sign_samples(t).tobytes() == zeta._hardy_z(t).tobytes()

    def test_samples_split_at_rs_from(self):
        t = np.array([150.0, zeta.RS_FROM, 500.25, 199.99])
        z = zeta._sign_samples(t)
        assert z[[0, 3]].tolist() == zeta._hardy_z(t[[0, 3]]).tolist()
        assert z[1:3].tolist() == zeta._riemann_siegel(t[1:3])[0].tolist()

    def test_same_zeros_and_counts_without_rs(self, monkeypatch):
        Ts = np.random.default_rng(40).uniform(0.1, 999.99, 40).tolist()
        fast = critical_line_zeros(999.9), zeta._sign_change_counts(Ts)
        monkeypatch.setattr(zeta, "RS_FROM", math.inf)
        assert (critical_line_zeros(999.9), zeta._sign_change_counts(Ts)) == fast
        assert len(fast[0]) == 649


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

    def test_lockstep_bisection_against_zetazero(self):
        # every cell is halved in one batch per step, all 52 below 150
        zs = critical_line_zeros(150)
        assert len(zs) == mpmath.nzeros(150) == 52
        with mpmath.workdps(15):  # ample for a 1e-5 check
            truths = [float(mpmath.im(mpmath.zetazero(i))) for i in range(1, 53)]
        for i, (z, truth) in enumerate(zip(zs, truths), start=1):
            assert abs(z.ordinate - truth) < 1e-5, i
            assert z.bracket[0] <= z.ordinate <= z.bracket[1]

    def test_domain(self):
        with pytest.raises(DomainError):
            critical_line_zeros(0)

    def test_no_zero_below_height_one(self):
        assert critical_line_zeros(0.5) == []


class TestHeightLimit:
    def test_t_1000_refused_up_front(self, monkeypatch):
        # 1.5 + 1000i and 0.5 + 1000i lie outside |s| <= 1000
        def no_eval(*args, **kwargs):
            raise AssertionError("evaluated before validation")

        monkeypatch.setattr("kernelscope.zeta.zeta_em", no_eval)
        monkeypatch.setattr("kernelscope.zeta._em_kernel", no_eval)
        with pytest.raises(DomainError, match=r"\|1\.5 \+ iT\| <= 1000"):
            zero_count_report(1000)
        with pytest.raises(DomainError, match=r"\|0\.5 \+ iT\| <= 1000"):
            critical_line_zeros(1000)

    def test_largest_accepted_height_evaluates(self):
        # every segment point, 1.5 + iT included, stays inside the radius
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

    # just above a zero the top edge has steps whose phase change reaches
    # pi/2, which the winding halves in rounds
    @pytest.mark.parametrize("n, above", [(1, 1e-5), (5, 1e-4)])
    def test_split_heights(self, n, above):
        T = float(mpmath.zetazero(n).imag) + above
        assert zero_count_report(T).winding_count == mpmath.nzeros(T) == n

    def test_unresolved_winding(self, monkeypatch):
        monkeypatch.setattr(zeta, "_SPLIT_DEPTH", 0)
        T = float(mpmath.zetazero(1).imag) + 1e-5
        with pytest.raises(ContourError, match="cannot resolve the winding between"):
            zero_count_report(T)

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

    # at 14.12 the first zero lies between T and the next grid point, so only
    # Z(T) itself gives the clamped cell its sign
    @pytest.mark.parametrize("Ts", [[50, 100, 200, 400], [400, 14.12, 2, 100.5]])
    def test_one_sweep_counts_every_height(self, Ts):
        counts = zeta._sign_change_counts(Ts)
        assert counts == [len(critical_line_zeros(T)) for T in Ts]
        assert counts == [mpmath.nzeros(T) for T in Ts]

    # the oracle heights: the bottom edge, the top of the range, just below
    # the 649th zero, and 20 seeded heights in between
    @pytest.mark.parametrize(
        "T", [0.1, 999.9, pytest.param(None, id="gamma649-1e-6")]
        + np.random.default_rng(16).uniform(1, 999.99, 20).tolist())
    def test_counts_against_nzeros(self, T):
        if T is None:
            with mpmath.workdps(15):
                T = float(mpmath.zetazero(649).imag) - 1e-6
        assert zero_count_report(T).winding_count == mpmath.nzeros(T)

    def test_below_bottom_refused(self):
        with pytest.raises(DomainError, match="must exceed the bottom edge 0.1"):
            zero_count_report(0.05)

    def test_ratio_height_one_refused(self):
        with pytest.raises(DomainError, match="^heights must exceed 1, got 1.0$"):
            tlogt_ratio_table([1.0])

    def test_count_work(self, monkeypatch):
        # N(998) from the 17 points of one segment, plus any halving
        # midpoints; a rectangle around the strip evaluates thousands
        points, swept = [], []
        zeta_on, hardy = zeta._zeta_on, zeta._hardy_z

        def counting(s, tol):
            points.append(len(s))
            return zeta_on(s, tol)

        def sweep(t):
            swept.append(len(t))
            return hardy(t)

        monkeypatch.setattr(zeta, "_zeta_on", counting)
        monkeypatch.setattr(zeta, "_hardy_z", sweep)
        assert zero_count_report(998).agree
        assert sum(points) - sum(swept) <= 200

    def test_principal_branch_at_1_5(self):
        # log zeta(s) = sum over prime powers of p^{-js}/j, so at Re s = 1.5
        # |arg zeta(s)| = |Im log zeta(s)| <= log zeta(1.5) < pi/2: the
        # count's start angle is the principal value, and needs no vertical edge
        t = np.arange(0.0, 999.99, 0.5)
        s = np.empty(len(t), dtype=np.complex128)
        s.real, s.imag = 1.5, t
        arg = np.abs(np.angle(zeta._zeta_on(s, zeta.COUNT_EVAL_TOL)[0]))
        assert arg.max() <= float(mpmath.log(mpmath.zeta(1.5))) < math.pi / 2
