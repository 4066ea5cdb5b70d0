import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelscope.christol import (
    MIN_WINDOW,
    FpSeries,
    OrbitReport,
    algebraicity_verdict,
    cartier_section,
    orbit_explore,
    series_from_table,
)
from kernelscope.errors import CapacityError, DomainError, ExhaustionError
from kernelscope.kernel import kernel_element


def pairwise_orbit(S: FpSeries, budget: int, residues) -> OrbitReport:
    """Reference closure: each child is compared with every representative
    in insertion order, sections taken in the order of ``residues``."""
    reps = [S]
    frontier = [(S, 0)]
    smallest_window = S.reliable_len
    max_depth = 0
    explored = 0
    while frontier:
        cur, depth = frontier.pop(0)
        max_depth = max(max_depth, depth)
        for r in residues:
            try:
                child = cartier_section(cur, r)
            except ExhaustionError:
                return OrbitReport("inconclusive", S.p, budget, len(reps), depth,
                                   smallest_window, explored)
            explored += 1
            new = True
            for rep in reps:
                w = min(child.reliable_len, rep.reliable_len)
                smallest_window = min(smallest_window, w)
                if np.array_equal(child.coeffs[:w], rep.coeffs[:w]):
                    new = False
                    break
            if new:
                reps.append(child)
                frontier.append((child, depth + 1))
                if len(reps) > budget:
                    return OrbitReport("growing", S.p, budget, len(reps), depth + 1,
                                       smallest_window, explored)
    return OrbitReport("finite", S.p, budget, len(reps), max_depth, smallest_window,
                       explored)


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
    def test_const_sections(self, table):
        s = series_from_table(table("const_one", N=1000), 2, 1000)
        s0 = cartier_section(s, 0)
        s1 = cartier_section(s, 1)
        # even-index pick keeps the 0 head; odd-index pick is all ones
        assert s0.coeffs[0] == 0 and np.all(s0.coeffs[1:] == 1)
        assert np.all(s1.coeffs == 1)

    def test_thue_morse_r0_fixed(self, tm_series):
        sec = cartier_section(tm_series, 0)
        assert np.array_equal(sec.coeffs[:64], tm_series.coeffs[:64])

    def test_thue_morse_r1_complement(self, tm_series):
        sec = cartier_section(tm_series, 1)
        assert np.array_equal(sec.coeffs[:64], 1 - tm_series.coeffs[:64])

    def test_window_formula(self, tm_series):
        for r in (0, 1):
            sec = cartier_section(tm_series, r)
            assert sec.reliable_len == (tm_series.reliable_len - r) // 2

    def test_exhaustion(self, table):
        s = series_from_table(table("mu", N=100), 2, 70)
        first = cartier_section(s, 1)  # 34 reliable coefficients left
        with pytest.raises(ExhaustionError):
            cartier_section(first, 1)

    def test_series_shorter_than_p(self):
        short = FpSeries(p=5, coeffs=np.ones(3, dtype=np.int64))
        for r in range(5):
            with pytest.raises(ExhaustionError):
                cartier_section(short, r)

    def test_bad_residue(self, tm_series):
        with pytest.raises(DomainError):
            cartier_section(tm_series, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 20))
    def test_section_kernel_duality(self, table, r, n):
        # section r of the series equals the kernel element (l=1, r) mod p
        p = 3
        t = table("tau", N=2**12)
        series = series_from_table(t, p, 2**12)
        sec = cartier_section(series, r)
        el = kernel_element(t, p, 1, r, 64)
        assert sec.coeffs[n + 1] == el.prefix[n] % p

    def test_reconstruction_by_interleaving(self, tm_series):
        secs = [cartier_section(tm_series, r) for r in (0, 1)]
        window = 2 * min(s.reliable_len for s in secs)
        rebuilt = np.empty(window, dtype=np.int64)
        for r, sec in enumerate(secs):
            rebuilt[r::2] = sec.coeffs[: window // 2]
        assert np.array_equal(rebuilt, tm_series.coeffs[:window])


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
        # the window-keyed closure reproduces the pairwise scan field for
        # field; finite and growing verdicts do not depend on section order
        for tag in ORBIT_TAGS:
            s = series_from_table(table(tag, N=2**17), p, N)
            rep = orbit_explore(s, budget)
            assert rep == pairwise_orbit(s, budget, range(p)), tag
            assert rep.window >= MIN_WINDOW
            if rep.verdict != "inconclusive":
                rev = pairwise_orbit(s, budget, range(p)[::-1])
                assert (rev.verdict, rev.size) == (rep.verdict, rep.size), tag

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


class TestValidation:
    def test_series_field_checks(self):
        with pytest.raises(DomainError):
            FpSeries(p=4, coeffs=np.zeros(40, dtype=np.int64))
        with pytest.raises(DomainError):
            FpSeries(p=2, coeffs=np.zeros(0, dtype=np.int64))

    def test_prime_past_2_31_refused(self, table):
        # 2^31 + 11 and 2^61 - 1 are prime, but no table holds a section's
        # 32 p coefficients, and trial division to sqrt(2^61) takes minutes
        with pytest.raises(DomainError, match=r"^p must be below 2\^31, got 2147483659$"):
            FpSeries(p=2**31 + 11, coeffs=np.zeros(40, dtype=np.int64))
        with pytest.raises(DomainError, match="below 2"):
            series_from_table(table("lambda", N=100), 2**61 - 1, 50)

    def test_json_export(self, table):
        s = series_from_table(table("mu", N=100), 2, 6)
        doc = s.to_json()
        assert doc == {"p": 2, "reliable_len": 6, "coeffs": [0, 1, 1, 1, 0, 1]}
