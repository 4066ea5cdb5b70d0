import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from test_automaton import automaton_values

from kernelscope.christol import (
    MIN_WINDOW,
    FpSeries,
    algebraicity_verdict,
    orbit_explore,
    series_from_table,
)
from kernelscope.errors import CapacityError, DomainError
from kernelscope.kernel import _depth_windows, kernel_element
from kernelscope.seqgen import FunctionId, ValueTable


def cartier_section(S: FpSeries, r: int) -> FpSeries | None:
    """coeffs'[n] = coeffs[p n + r] on (len - r) // p coefficients, or None
    where that leaves fewer than MIN_WINDOW."""
    new_len = max(0, (len(S.coeffs) - r) // S.p)
    if new_len < MIN_WINDOW:
        return None
    return FpSeries(p=S.p, coeffs=S.coeffs[r : r + S.p * new_len : S.p].copy())


def pairwise_orbit(S: FpSeries, budget: int, residues) -> tuple[str, int, int]:
    """Reference closure, as (verdict, size, depth): a breadth-first search
    that compares each child with every representative in insertion order,
    on their common length, sections taken in the order of ``residues``."""
    reps = [S]
    frontier = [(S, 0)]
    max_depth = 0
    while frontier:
        cur, depth = frontier.pop(0)
        max_depth = max(max_depth, depth)
        for r in residues:
            child = cartier_section(cur, r)
            if child is None:
                return "inconclusive", len(reps), depth
            new = True
            for rep in reps:
                w = min(len(child.coeffs), len(rep.coeffs))
                if np.array_equal(child.coeffs[:w], rep.coeffs[:w]):
                    new = False
                    break
            if new:
                reps.append(child)
                frontier.append((child, depth + 1))
                if len(reps) > budget:
                    return "growing", len(reps), depth + 1
    return "finite", len(reps), max_depth


def composed_width(N: int, p: int, l: int) -> int:
    """Fewest coefficients any l composed reference sections leave of N."""
    for _ in range(l):
        N = (N - (p - 1)) // p
    return N


ORBIT_TAGS = ("lambda", "mu", "phi", "omega", "tau", "thue_morse_pm", "const_one",
              "sum_binary_digits", "big_omega", "chi_P")


@pytest.fixture(scope="module")
def tm_series(table):
    return series_from_table(table("sum_binary_digits", mod=2, N=2**16), 2, 2**16)


class TestSeriesFromTable:
    def test_lambda_mod_three(self, table):
        s = series_from_table(table("lambda", N=2**10), 3, 8)
        assert s.coeffs.tolist() == [0, 1, 2, 2, 1, 2, 1, 2]

    def test_const_over_f2(self, table):
        s = series_from_table(table("const_one", N=100), 2, 10)
        assert s.coeffs.tolist() == [0] + [1] * 9

    def test_mu_over_f2(self, table):
        s = series_from_table(table("mu", N=100), 2, 5)
        assert s.coeffs.tolist() == [0, 1, 1, 1, 0]

    def test_reduced_tables(self, table):
        # mod p: the coefficients as they stand; mod another m: their residues
        for mod in (None, 3, 9, 2):
            t = table("mu", N=1000, mod=mod)
            want = np.mod(t.values[:500], 3)
            want[0] = 0
            s = series_from_table(t, 3, 500)
            assert s.coeffs.dtype == np.int64
            assert s.coeffs.tolist() == want.tolist(), mod
            assert not np.shares_memory(s.coeffs, t.values)

    def test_nonprime_rejected(self, table):
        with pytest.raises(DomainError):
            series_from_table(table("mu", N=100), 6, 50)

    def test_length_below_two_rejected(self, table):
        with pytest.raises(DomainError, match="^series length must be >= 2, got 1$"):
            series_from_table(table("mu", N=100), 3, 1)

    def test_length_beyond_table(self, table):
        with pytest.raises(CapacityError):
            series_from_table(table("mu", N=100), 2, 102)


class TestCartierSection:
    """The orbit walk's depth blocks are the Cartier sections."""

    def test_const_sections(self, table):
        s = series_from_table(table("const_one", N=1000), 2, 1000)
        s0, s1 = _depth_windows(s.coeffs, 2, 1, composed_width(1000, 2, 1), 0)
        # even-index pick keeps the 0 head; odd-index pick is all ones
        assert s0[0] == 0 and np.all(s0[1:] == 1)
        assert np.all(s1 == 1)

    def test_thue_morse_r0_fixed(self, tm_series):
        w = composed_width(2**16, 2, 1)
        sec = _depth_windows(tm_series.coeffs, 2, 1, w, 0)[0]
        assert np.array_equal(sec, tm_series.coeffs[:w])

    def test_thue_morse_r1_complement(self, tm_series):
        w = composed_width(2**16, 2, 1)
        sec = _depth_windows(tm_series.coeffs, 2, 1, w, 0)[1]
        assert np.array_equal(sec, 1 - tm_series.coeffs[:w])

    def test_window_formula(self, table):
        # the window is the fewest coefficients the composed sections leave
        # at the last depth compared: past the stall of a finite orbit, at
        # the stop of a growing one, before the cut of an inconclusive one
        for tag, mod, p, N, budget in [
            ("sum_binary_digits", 2, 2, 2**16, 10), ("lambda", 3, 3, 2**16 + 1, 50),
            ("mu", None, 2, 70, 50), ("tau", None, 2, 2**16, 300),
        ]:
            s = series_from_table(table(tag, mod=mod, N=2**17), p, N)
            rep = orbit_explore(s, budget)
            last = rep.depth + (rep.verdict == "finite")
            assert rep.window == composed_width(N, p, last), tag
            assert len(rep.counts) == last + 1 and rep.counts[-1] == rep.size, tag

    def test_exhaustion(self, table):
        s = series_from_table(table("mu", N=100), 2, 70)
        first = cartier_section(s, 1)  # 34 coefficients left
        assert cartier_section(first, 1) is None
        rep = orbit_explore(s, 50)
        assert (rep.verdict, rep.depth, rep.window) == ("inconclusive", 1, 34)

    def test_series_shorter_than_p(self):
        short = FpSeries(p=5, coeffs=np.ones(3, dtype=np.int64))
        with pytest.raises(DomainError, match="^need at least 160 coefficients for one "
                                              "section level, got 3$"):
            orbit_explore(short, 10)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from((2, 3, 5)), st.integers(0, 4))
    def test_section_kernel_duality(self, table, p, r):
        # depth 1 read from n = 1 is the kernel's depth 1, mod p
        t = table("tau", N=2**12)
        series = series_from_table(t, p, 2**12)
        block = _depth_windows(series.coeffs, p, 1, 64, 1)
        el = kernel_element(t, p, 1, r % p, 64)
        assert np.array_equal(block[r % p], el.prefix % p)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from((2, 3, 5)), st.integers(1, 3), st.integers(0, 5**3 - 1))
    def test_rows_are_composed_sections(self, table, p, l, R):
        # row R of depth l is the sections by R's base-p digits, least
        # significant first, on the w_l coefficients every row holds
        N = 2**14
        R %= p**l
        series = series_from_table(table("tau", N=N), p, N)
        w = composed_width(N, p, l)
        row = _depth_windows(series.coeffs, p, l, w, 0)[R]
        sec, digits = series, R
        for _ in range(l):
            sec, digits = cartier_section(sec, digits % p), digits // p
        assert np.array_equal(row, sec.coeffs[:w])

    def test_reconstruction_by_interleaving(self, tm_series):
        w = composed_width(2**16, 2, 1)
        block = _depth_windows(tm_series.coeffs, 2, 1, w, 0)
        rebuilt = block.T.ravel()
        assert np.array_equal(rebuilt, tm_series.coeffs[: 2 * w])


class TestOrbits:
    def test_const_finite(self, table):
        s = series_from_table(table("const_one", N=2**16), 2, 2**16)
        rep = orbit_explore(s, 10)
        assert rep.verdict == "finite"
        assert rep.size <= 2

    def test_thue_morse_finite(self, tm_series):
        rep = orbit_explore(tm_series, 10)
        assert rep.verdict == "finite"
        assert rep.size <= 4

    def test_lambda_mod3_grows(self, table):
        s = series_from_table(table("lambda", mod=3, N=2**16), 3, 2**16)
        rep = orbit_explore(s, 50)
        assert rep.verdict == "growing"
        assert rep.size > 50

    def test_mu_mod3_grows(self, table):
        s = series_from_table(table("mu", mod=3, N=2**16), 3, 2**16)
        rep = orbit_explore(s, 50)
        assert rep.verdict == "growing"

    @pytest.mark.parametrize("p, N, budget", [
        (3, 2**16, 300), (2, 2**16, 300), (5, 2**16, 100), (3, 2**12, 300),
        (2, 130, 50), (7, 2**17, 200),
    ])
    def test_matches_pairwise_reference(self, table, p, N, budget):
        # the walk reaches the search's verdict; an inconclusive report's
        # size counts the depths the walk finished, so only the verdict is
        # compared there.  Finite and growing verdicts do not depend on
        # section order.
        for tag in ORBIT_TAGS:
            s = series_from_table(table(tag, N=2**17), p, N)
            rep = orbit_explore(s, budget)
            verdict, size, depth = pairwise_orbit(s, budget, range(p))
            assert rep.verdict == verdict, tag
            assert rep.window >= MIN_WINDOW
            if verdict != "inconclusive":
                assert (rep.size, rep.depth) == (size, depth), tag
                rev = pairwise_orbit(s, budget, range(p)[::-1])
                assert rev[:2] == (verdict, size), tag

    @seed(31)
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_automata(self, data):
        # an LSD-first automaton with k = p has a finite orbit: the walk
        # closes it or runs out of window, as the reference does
        p = data.draw(st.sampled_from((2, 3, 5)))
        s = data.draw(st.integers(1, 6))
        delta = data.draw(st.lists(st.lists(st.integers(0, s - 1), min_size=p, max_size=p),
                                   min_size=s, max_size=s))
        out = data.draw(st.lists(st.integers(0, p - 1), min_size=s, max_size=s))
        N = {2: 2**16, 3: 3**10, 5: 5**7}[p]
        t = ValueTable(FunctionId("identity_n"), N, automaton_values(delta, out, p, N))
        series = series_from_table(t, p, N)
        rep = orbit_explore(series, 200)
        verdict, size, _ = pairwise_orbit(series, 200, range(p))
        assert (rep.verdict, rep.size) == (verdict, size)
        assert rep.verdict != "growing"

    def test_tau_mod2_stays_inconclusive(self, table):
        # compared on a fixed 32-wide window, this orbit looks closed at 81
        # series; on the width its depth holds it does not close in time
        s = series_from_table(table("tau", N=2**17), 2, 2**16)
        assert orbit_explore(s, 300).verdict == "inconclusive"

    def test_lambda_mod3_counts(self, table):
        s = series_from_table(table("lambda", mod=3, N=3**10), 3, 3**10)
        rep = orbit_explore(s, 1000)
        assert rep.counts == (1, 4, 12, 36, 108, 324, 972)
        assert (rep.verdict, rep.size, rep.depth) == ("inconclusive", 972, 6)

    def test_window_exhaustion_inconclusive(self, table):
        # reliable length supports exactly one section level, then dies
        s = series_from_table(table("lambda", N=200), 2, 130)
        rep = orbit_explore(s, 50)
        assert rep.verdict == "inconclusive"

    def test_zero_budget_rejected(self, tm_series):
        with pytest.raises(DomainError, match="^budget must be >= 1, got 0$"):
            orbit_explore(tm_series, 0)

    def test_too_short_rejected(self, table):
        s = series_from_table(table("lambda", N=100), 2, 60)
        with pytest.raises(DomainError):
            orbit_explore(s, 10)


class TestVerdictMapping:
    def test_finite_maps_to_algebraic(self, tm_series):
        v = algebraicity_verdict(orbit_explore(tm_series, 10))
        assert v.kind == "algebraic_evidence"
        assert v.size <= 4
        assert str(v.window) in v.text

    def test_growing_maps_to_transcendence(self, table):
        s = series_from_table(table("lambda", mod=3, N=2**16), 3, 2**16)
        v = algebraicity_verdict(orbit_explore(s, 50))
        assert v.kind == "transcendence_evidence"
        assert v.count == 51
        assert v.depth is not None

    def test_inconclusive_passthrough(self, table):
        s = series_from_table(table("lambda", N=200), 2, 130)
        v = algebraicity_verdict(orbit_explore(s, 50))
        assert v.kind == "inconclusive"
        assert v.text == "depth 2 would compare fewer than 32 coefficients; no verdict"


class TestValidation:
    def test_series_field_checks(self):
        with pytest.raises(DomainError):
            FpSeries(p=4, coeffs=np.zeros(40, dtype=np.int64))
        with pytest.raises(DomainError):
            FpSeries(p=2, coeffs=np.zeros(0, dtype=np.int64))
        # the walk compares the residues in their narrowest type
        with pytest.raises(DomainError, match=r"^coefficients must lie in 0\.\.2$"):
            FpSeries(p=3, coeffs=np.array([0, 1, 259], dtype=np.int64))
        with pytest.raises(DomainError, match=r"^coefficients must lie in 0\.\.1$"):
            FpSeries(p=2, coeffs=np.array([0, -1], dtype=np.int64))

    def test_prime_past_2_31_refused(self, table):
        # 2^31 + 11 and 2^61 - 1 are prime, but no table holds a section's
        # 32 p coefficients, and trial division to sqrt(2^61) takes minutes
        with pytest.raises(DomainError, match=r"^p must be below 2\^31, got 2147483659$"):
            FpSeries(p=2**31 + 11, coeffs=np.zeros(40, dtype=np.int64))
        with pytest.raises(DomainError, match="below 2"):
            series_from_table(table("lambda", N=100), 2**61 - 1, 50)

    def test_json_export(self, table):
        s = series_from_table(table("lambda", mod=3, N=2**17), 3, 2**16 + 1)
        doc = orbit_explore(s, 50).to_json()
        assert doc == {"verdict": "growing", "p": 3, "budget": 50, "size_or_depth": 51,
                       "size": 51, "depth": 4, "window": 808, "explored": 56,
                       "counts": [1, 4, 12, 36, 51]}
