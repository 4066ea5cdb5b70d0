"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  Each criterion carries
its tolerance inline; oracles are independent of the code paths they
check (trial division, boolean sieves, Fraction elimination, mpmath).
"""

import functools
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from kernelscope.automaton import build_representation, pole_lattice
from kernelscope.christol import orbit_explore, series_from_table
from kernelscope.dirichlet import (
    IdentityId,
    continue_via_recursion,
    direct_sum,
    landau_walfisz_singularities,
    verify_identity,
)
from kernelscope.kernel import kernel_profile, rank_profile
from kernelscope.seqgen import FunctionId, build_factor_table, generate, reduce_mod
from kernelscope.zeta import tlogt_ratio_table, zero_count_report

mpmath.mp.dps = 30


def _criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {name}: FAIL "
                      f"({time.perf_counter() - t0:.1f}s)")
                raise
            print(f"\n[acceptance] {name}: PASS ({time.perf_counter() - t0:.1f}s)")

        return inner

    return wrap


@pytest.fixture(scope="module")
def ft():
    return build_factor_table(10**6)


@_criterion("C1 kernel dichotomy")
def test_c1_kernel_dichotomy(ft):
    N = 2**17
    fixtures = {
        "thue_morse_pm": 2,
        "const_one": 1,
    }
    for tag, size in fixtures.items():
        prof = kernel_profile(generate(FunctionId(tag), N, ft), 2, 8, 256)
        assert prof.verdict.kind == "saturated", tag
        assert prof.verdict.size == size, tag
    for tag in ("lambda", "mu", "chi_P", "chi_PP"):
        t0 = time.perf_counter()
        prof = kernel_profile(generate(FunctionId(tag), N, ft), 2, 8, 256)
        elapsed = time.perf_counter() - t0
        assert prof.verdict.kind == "growing", tag
        counts = prof.distinct_counts
        assert all(counts[d] > counts[d - 1] for d in range(1, 9)), tag
        assert elapsed < 30, (tag, elapsed)


@_criterion("C2 regular-rank dichotomy")
def test_c2_rank_dichotomy(ft):
    t0 = time.perf_counter()
    N = 2**13
    for tag in ("identity_n", "sum_binary_digits"):
        prof = rank_profile(generate(FunctionId(tag), N, ft), 2, 6, 32)
        assert prof.verdict.kind == "saturated", tag
        assert prof.verdict.size == 2, tag
    for tag in ("phi", "omega", "big_omega", "rho"):
        prof = rank_profile(generate(FunctionId(tag), N, ft), 2, 6, 64)
        assert prof.verdict.kind == "growing", tag
        assert all(
            prof.ranks[d] > prof.ranks[d - 1] for d in range(1, 7)
        ), tag
    assert time.perf_counter() - t0 < 60


@_criterion("C3 identity suite")
def test_c3_identity_suite(ft):
    t0 = time.perf_counter()
    N = 10**6
    points = [2.0, 2.5, 3.0, 2 + 1j]
    phi_points = [3.0, 3.5, 3 + 1j]
    cases = [("mu", None), ("lambda", None), ("q_m", 2), ("phi", None),
             ("rho", None), ("tau_of_square", None), ("tau_squared", None),
             ("chi_P", None), ("chi_PP", None), ("omega", None),
             ("big_omega", None)]
    for tag, param in cases:
        ident = IdentityId(tag, param)
        t = generate(ident.function_id(), N, ft)
        report = verify_identity(
            ident, t, phi_points if tag == "phi" else points, N
        )
        for sample in report.samples:
            assert sample.residual <= sample.bound, (tag, sample.s)
        if tag == "lambda":
            at2 = report.samples[0]
            assert abs(at2.rhs - 0.6579736) < 1e-6
        if tag == "q_m":
            at2 = report.samples[0]
            assert abs(at2.rhs - 15 / math.pi**2) < 1e-9
            assert abs(at2.rhs - 1.5198178) < 1e-6
    assert time.perf_counter() - t0 < 120


@_criterion("C4 continuation engine")
def test_c4_continuation_engine(ft):
    one = generate(FunctionId("const_one"), 2 * 10**6, build_factor_table(2 * 10**6))
    rep = build_representation(one, 2, 6, 64)
    # overlap: the recursion matches truncated summation within the
    # truncation's own tail bound plus the 1e-6 criterion budget
    for s, n_terms in ((2.0, 2 * 10**6), (1.5, 10**6)):
        rec = continue_via_recursion(rep, s)
        direct = direct_sum(one, s, n_terms)
        tail_bound = direct.error_estimate
        assert abs(rec.value - direct.value) <= tail_bound + 1e-6, s
        # and the strict 1e-6 check against an independent oracle
        assert abs(rec.value - complex(mpmath.zeta(s))) <= 1e-6, s
    # literal reading at s = 2: plain difference under 1e-6
    rec2 = continue_via_recursion(rep, 2.0)
    assert abs(rec2.value - direct_sum(one, 2.0, 2 * 10**6).value) <= 1e-6
    # value at the origin against the independent high precision oracle
    rec0 = continue_via_recursion(rep, 0.0)
    assert abs(rec0.value - (-0.5)) <= 1e-4
    assert abs(complex(mpmath.zeta(0)) - (-0.5)) == 0
    # candidate-pole refusal exactly at 1
    at1 = continue_via_recursion(rep, 1.0)
    assert at1.near_singular and at1.value is None
    # the eigenvalue-1 tower contains s = 1 exactly
    lattice = pole_lattice(rep, 2, 2)
    assert lattice.contains(1.0, tol=0.0)
    # descent-depth independence at 1e-8
    for s in (1.5, 0.5, 2.0):
        a = continue_via_recursion(rep, s, levels=4)
        b = continue_via_recursion(rep, s, levels=5)
        assert abs(a.value - b.value) <= 1e-8, s


@_criterion("C5 zero counting")
def test_c5_zero_counting():
    t0 = time.perf_counter()
    r50 = zero_count_report(50)
    assert r50.winding_count == 10 and r50.agree
    r100 = zero_count_report(100)
    assert r100.winding_count == 29 and r100.agree
    rows = tlogt_ratio_table([50, 100, 200, 400])
    per_T = [row.N / row.T for row in rows]
    assert all(b > a for a, b in zip(per_T, per_T[1:]))
    for row in rows[1:]:
        assert 0.1 <= row.ratio <= 0.2, row
    assert time.perf_counter() - t0 < 300


@_criterion("C6 christol probe")
def test_c6_christol_probe(ft):
    N = 2**16
    ones = series_from_table(generate(FunctionId("const_one"), N, ft), 2, N)
    rep = orbit_explore(ones, 10)
    assert rep.verdict == "finite" and rep.size <= 2
    tm01 = reduce_mod(generate(FunctionId("sum_binary_digits"), N, ft), 2)
    tm_series = series_from_table(tm01, 2, N)
    rep = orbit_explore(tm_series, 10)
    assert rep.verdict == "finite" and rep.size <= 4
    for tag in ("lambda", "mu"):
        t = generate(FunctionId(tag), N, ft)
        series = series_from_table(reduce_mod(t, 3), 3, N)
        rep = orbit_explore(series, 50)
        assert rep.verdict == "growing" and rep.size > 50, tag
    # section/kernel duality: the orbit's depth 1 read from n = 1 is the
    # kernel's depth 1 mod p, exact on every tested window
    from kernelscope.kernel import _depth_windows, kernel_element

    for tag, p in (("lambda", 3), ("tau", 2), ("mu", 5)):
        t = generate(FunctionId(tag), 2**12, ft)
        series = series_from_table(t, p, 2**12)
        block = _depth_windows(series.coeffs, p, 1, 64, 1)
        for r in range(p):
            el = kernel_element(t, p, 1, r, 64)
            assert np.array_equal(block[r], el.prefix % p), (tag, p, r)


@_criterion("C7 cross-module consistency")
def test_c7_cross_module(ft):
    N = 10**6
    big_omega_mod2 = reduce_mod(generate(FunctionId("big_omega"), N, ft), 2)
    lam = generate(FunctionId("lambda"), N, ft)
    assert np.array_equal(
        big_omega_mod2.values[1:], (1 - lam.values[1:]) // 2
    )
    tau_mod2 = reduce_mod(generate(FunctionId("tau"), N, ft), 2)
    squares = np.zeros(N + 1, dtype=np.int64)
    squares[np.arange(1, math.isqrt(N) + 1) ** 2] = 1
    assert np.array_equal(tau_mod2.values[1:], squares[1:])
    points = landau_walfisz_singularities(10)
    assert points == [
        Fraction(1, 1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5),
        Fraction(1, 6), Fraction(1, 7), Fraction(1, 10),
    ]
