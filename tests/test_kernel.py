import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelscope.automaton import build_representation
from kernelscope.errors import CapacityError, DomainError, VerdictError
from kernelscope.kernel import (
    Verdict,
    _classify,
    _depth_windows,
    _distinct_cap,
    _FpRowSpace,
    _enumerate_distinct,
    kernel_element,
    kernel_profile,
    rank_profile,
    value_density,
)
from kernelscope.seqgen import FunctionId, ValueTable, reduce_mod

from conftest import squarefree_mask

P31 = 2**31 - 1


def oracle_ranks(t, k, L, M):
    """Rank at every depth by independent Fraction-based elimination over
    the same rows."""
    rows = []
    ends = []
    for l in range(L + 1):
        for r in range(k**l):
            rows.append([Fraction(int(t.values[k**l * n + r])) for n in range(1, M + 1)])
        ends.append(len(rows))
    return [_fraction_rank([row[:] for row in rows[:end]], M) for end in ends]


def _fraction_rank(rows, M):
    rank = 0
    for col in range(M):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestKernelElement:
    def test_thue_morse_halving(self, table):
        tm = table("thue_morse_pm", N=64)
        top = kernel_element(tm, 2, 0, 0, 8)
        half = kernel_element(tm, 2, 1, 0, 8)
        assert np.array_equal(top.prefix, half.prefix)

    def test_lambda_halving_negates(self, table):
        # complete multiplicativity with lambda(2) = -1
        lam = table("lambda", N=64)
        top = kernel_element(lam, 2, 0, 0, 8)
        half = kernel_element(lam, 2, 1, 0, 8)
        assert np.array_equal(half.prefix, -top.prefix)

    def test_identity_progression(self, table):
        idn = table("identity_n", N=64)
        el = kernel_element(idn, 2, 2, 3, 4)
        assert el.prefix.tolist() == [7, 11, 15, 19]

    def test_capacity_error_names_requirement(self, table):
        with pytest.raises(CapacityError) as err:
            kernel_element(table("mu", N=100), 2, 5, 0, 8)
        assert "256" in str(err.value)

    def test_residue_validation(self, table):
        with pytest.raises(DomainError):
            kernel_element(table("mu", N=100), 2, 1, 2, 8)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 3), st.integers(0, 1), st.integers(1, 16))
    def test_refinement_consistency(self, table, l, r, j, n):
        # the depth-(l+1) refinements of (l, r) are (l+1, r + j k^l):
        # element (l, r) at index k n + j equals element (l+1, r + j k^l) at n
        k = 2
        if r >= k**l:
            r = r % k**l
        t = table("tau", N=4096)
        parent = kernel_element(t, k, l, r, 2 * 16 + k)
        child = kernel_element(t, k, l + 1, r + j * k**l, 16)
        assert parent.prefix[k * n + j - 1] == child.prefix[n - 1]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_reduce_mod_commutes_with_extraction(self, table, data):
        # reducing the table then extracting equals extracting then reducing,
        # negative values included (least non-negative residues both ways)
        tag = data.draw(st.sampled_from(["mu", "lambda", "thue_morse_pm", "phi", "tau"]))
        k = data.draw(st.integers(2, 4))
        l = data.draw(st.integers(0, 3))
        r = data.draw(st.integers(0, k**l - 1))
        M = data.draw(st.integers(1, 40))
        m = data.draw(st.integers(2, 12))
        t = table(tag, N=4096)
        got = kernel_element(reduce_mod(t, m), k, l, r, M).prefix
        want = np.mod(kernel_element(t, k, l, r, M).prefix, m)
        assert np.array_equal(got, want)


class TestKernelProfile:
    def test_thue_morse_saturates_at_two(self, table):
        prof = kernel_profile(table("thue_morse_pm", N=2**13), 2, 6, 64)
        assert prof.verdict.kind == "saturated"
        assert prof.verdict.size == 2

    def test_lambda_grows(self, table):
        prof = kernel_profile(table("lambda", N=2**17), 2, 8, 256)
        assert prof.verdict.kind == "growing"
        counts = prof.distinct_counts
        assert all(counts[d] > counts[d - 1] for d in range(1, 9))

    def test_const_three_adic(self, table):
        prof = kernel_profile(table("const_one", N=2**13), 3, 5, 32)
        assert prof.verdict.kind == "saturated"
        assert prof.verdict.size == 1

    def test_depth_zero_is_inconclusive(self, table):
        # one depth holds no growth and no stall: neither profile may say growing
        t = table("const_one", N=64)
        prof = kernel_profile(t, 2, 0, 8)
        assert prof.distinct_counts == (1,)
        assert prof.verdict.kind == "inconclusive"
        ranks = rank_profile(t, 2, 0, 8)
        assert ranks.ranks == (1,)
        assert ranks.verdict.kind == "inconclusive"

    @pytest.mark.parametrize("k, L, M, message", [
        (1, 3, 8, "base k must be >= 2, got 1"),
        (2, 3, 0, "window length must be >= 1, got 0"),
        (2, -1, 8, "max depth must be >= 0, got -1"),
    ])
    def test_geometry_refused(self, table, k, L, M, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            kernel_profile(table("mu", N=100), k, L, M)

    def test_counts_monotone(self, table):
        for tag in ("mu", "phi", "thue_morse_pm"):
            prof = kernel_profile(table(tag, N=2**13), 2, 5, 32)
            diffs = np.diff(prof.distinct_counts)
            assert np.all(diffs >= 0)

    def test_bruteforce_distinct_count_oracle(self, table):
        # literal set-of-tuples enumeration, independent of the library path
        tm = table("thue_morse_pm", N=2**13)
        vals = tm.values
        seen = set()
        counts = []
        for l in range(4):
            for r in range(2**l):
                seen.add(tuple(int(vals[2**l * n + r]) for n in range(1, 33)))
            counts.append(len(seen))
        prof = kernel_profile(tm, 2, 3, 32)
        assert list(prof.distinct_counts) == counts == [1, 2, 2, 2]


def first_double_stall(counts, L, cap):
    """The verdict rule before saturation meant flat through depth L: the
    first double stall, whatever the counts do after it."""
    if L == 0:
        return Verdict("inconclusive")
    for d in range(1, L):
        if counts[d] == counts[d - 1] and counts[d + 1] == counts[d]:
            limit = cap()
            capped = limit is not None and counts[d] >= limit
            kind = "window_capped" if capped else "saturated"
            return Verdict(kind, depth=d, size=counts[d])
    if all(counts[d] > counts[d - 1] for d in range(1, L + 1)):
        return Verdict("growing")
    return Verdict("inconclusive")


class TestSaturationRule:
    def test_rise_after_a_double_stall_is_inconclusive(self):
        # t = 1 except t(83) = 2: depth 4 meets 83 = 16 * 5 + 3, depths 1..3 do not
        N = 2**5 * 9
        values = np.ones(N + 1, dtype=np.int64)
        values[83] = 2
        t = ValueTable(FunctionId("const_one"), N, values)
        prof = kernel_profile(t, 2, 4, 8)
        assert prof.distinct_counts == (1, 1, 1, 1, 2)
        assert prof.verdict == Verdict("inconclusive")
        with pytest.raises(VerdictError, match="inconclusive"):
            build_representation(t, 2, 4, 8)

    def test_a_late_rise_is_not_saturated(self):
        assert _classify([1, 2, 2, 2, 3], 4, cap=lambda: None) == Verdict("inconclusive")
        assert _classify([1, 2, 2, 2, 2], 4, cap=lambda: None) == Verdict(
            "saturated", depth=2, size=2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=8),
           st.one_of(st.none(), st.integers(1, 8)))
    def test_matches_first_double_stall_where_flat_after_it(self, steps, limit):
        # non-decreasing counts from 1; steps of 0 make stalls
        counts = np.cumsum([1] + steps).tolist()
        L = len(steps)
        want = first_double_stall(counts, L, lambda: limit)
        got = _classify(counts, L, lambda: limit)
        if want.depth is not None and len(set(counts[want.depth :])) > 1:
            # the count rises after the first double stall: no verdict there
            assert got.depth is None or got.depth > want.depth
        else:
            assert got == want
        if got.depth is not None:
            assert got.depth <= L - 1 and len(set(counts[got.depth - 1 :])) == 1


class TestRankProfile:
    def test_identity_rank_two(self, table):
        prof = rank_profile(table("identity_n", N=2**13), 2, 6, 32)
        assert prof.verdict.kind == "saturated"
        assert prof.verdict.size == 2
        assert prof.ranks[-1] == 2

    def test_sum_binary_digits_rank_two(self, table):
        prof = rank_profile(table("sum_binary_digits", N=2**13), 2, 6, 32)
        assert prof.verdict.kind == "saturated"
        assert prof.verdict.size == 2

    def test_phi_rank_grows(self, table):
        prof = rank_profile(table("phi", N=2**13), 2, 6, 64)
        assert prof.verdict.kind == "growing"
        assert all(prof.ranks[d] > prof.ranks[d - 1] for d in range(1, 7))

    def test_rank_bounded(self, table):
        prof = rank_profile(table("phi", N=2**13), 2, 5, 16)
        rows = sum(2**l for l in range(6))
        assert prof.ranks[-1] <= min(rows, 16)

    def test_rank_at_most_distinct_count(self, table):
        for tag in ("mu", "tau", "identity_n"):
            t = table(tag, N=2**13)
            kp = kernel_profile(t, 2, 5, 32)
            rp = rank_profile(t, 2, 5, 32)
            for d in range(6):
                assert rp.ranks[d] <= kp.distinct_counts[d]

    def test_exact_rank_oracle(self, table):
        for tag in ("identity_n", "sum_binary_digits", "phi", "tau"):
            t = table(tag, N=2**11)
            prof = rank_profile(t, 2, 4, 24)
            assert prof.ranks[-1] == oracle_ranks(t, 2, 4, 24)[-1]

    @pytest.mark.parametrize("k, L", [(2, 5), (3, 3)])
    @pytest.mark.parametrize(
        "tag", ["identity_n", "sum_binary_digits", "phi", "tau", "mu"]
    )
    def test_every_depth_matches_oracle(self, table, tag, k, L):
        t = table(tag, N=2**11)
        assert list(rank_profile(t, k, L, 24).ranks) == oracle_ranks(t, k, L, 24)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_tables_match_oracle(self, data):
        # negative values, zeros, values past 2^31 (some equal mod 2^31 - 1),
        # small pools that repeat windows, and tables a + b n with at most
        # two spikes, whose windows are mostly certified dependencies
        k = data.draw(st.sampled_from([2, 3]))
        L = data.draw(st.integers(0, 3))
        M = data.draw(st.integers(1, 6))
        N = k**L * (M + 1) - 1
        pool = [0, 1, -1, 2, -3, P31, P31 + 1, 2 * P31, -P31 + 2, 2**31, 2**62, -(2**63)]
        kind = data.draw(st.sampled_from(["wide", "small", "affine"]))
        if kind == "affine":
            coef = st.one_of(
                st.sampled_from([0, 1, -2, 3, P31, P31 + 1, -(2**31), 3 * P31]),
                st.integers(-(2**40), 2**40),
            )
            a, b = data.draw(coef), data.draw(coef)
            vals = [a + b * n for n in range(1, N + 1)]
            spike = st.tuples(st.integers(0, N - 1), st.sampled_from([1, -5, P31]))
            for i, v in data.draw(st.lists(spike, max_size=2)):
                vals[i] += v
        else:
            value = (
                st.one_of(st.sampled_from(pool), st.integers(-(2**63), 2**63 - 1))
                if kind == "wide"
                else st.integers(-2, 4)
            )
            vals = data.draw(st.lists(value, min_size=N, max_size=N))
        t = ValueTable(FunctionId("identity_n"), N, np.array([0] + vals, dtype=np.int64))
        assert list(rank_profile(t, k, L, M).ranks) == oracle_ranks(t, k, L, M)

    def test_bad_prime_restarts(self):
        # windows (1, 1) and (1, 1 + p) coincide mod p = 2^31 - 1 but not over Q
        vals = np.array([0, 1, 1, 1, 1, 1 + P31], dtype=np.int64)
        t = ValueTable(FunctionId("identity_n"), 5, vals)
        assert rank_profile(t, 2, 1, 2).ranks == (1, 2)

    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(-3, 7), Fraction(1, 100003)])
    def test_rational_dependency_certified(self, c):
        # the depth-1 window (t3, t5) is c times (t1, t2); 100003 is past the
        # denominators rational reconstruction mod 2^31 - 1 can recover
        a = c.denominator
        vals = [0, a, 2 * a, c.numerator, 4 * a, 2 * c.numerator]
        t = ValueTable(FunctionId("identity_n"), 5, np.array(vals, dtype=np.int64))
        assert rank_profile(t, 2, 1, 2).ranks == (1, 1)

    def test_wide_window_few_rows(self, table):
        # three distinct windows of width 40000: the elimination holds
        # three rows, not 40000 x 40000 arrays of 12.8 GB each
        t = table("mu", N=100_000)
        M = 40_000
        windows = np.stack([t.values[1 : M + 1], t.values[2 : 2 * M + 1 : 2],
                            t.values[3 : 2 * M + 2 : 2]]).astype(np.float64)
        tracemalloc.start()
        try:
            prof = rank_profile(t, 2, 1, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.ranks == (np.linalg.matrix_rank(windows[:1]),
                              np.linalg.matrix_rank(windows)) == (1, 3)
        assert peak < 64 * 2**20

    def test_phi_benchmark_profile(self, table):
        # the profile reads only values[1 : 2^9 * 129]
        prof = rank_profile(table("phi", N=2**17), 2, 9, 128)
        assert prof.ranks == (1, 3, 5, 9, 17, 33, 65, 128, 128, 128)
        assert str(prof.verdict) == "window_capped_at(8, size=128)"


def fp_rank(rows, p):
    """Rank mod p by Fraction elimination on the residues, each pivot row
    scaled to 1 and every entry reduced mod p."""
    rows = [[Fraction(int(x) % p) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(int(rows[rank][col]), -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestFpRowSpace:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p", [3, 5, P31])
    def test_coefficients_and_rank(self, p, seed):
        # rows mixed from a few random ones, so many depend on earlier rows,
        # absorbed in three batches so coefficients span batches
        rng = np.random.default_rng([p, seed])
        width = int(rng.integers(1, 9))
        base = rng.integers(0, p, size=(int(rng.integers(1, width + 2)), width))
        mix = rng.integers(0, p, size=(3 * width, len(base)))
        rows = np.vstack([base, (mix.astype(object) @ base.astype(object)) % p])
        rows = rows[rng.permutation(len(rows))].astype(np.int64)
        space = _FpRowSpace(p, width, min(width, len(rows)))
        absorbed, offset, found = [], 0, 0
        for batch in np.array_split(rows, 3):
            got, dependent, coef = space.absorb(batch)
            absorbed += [offset + i for i in got]
            assert coef.shape == (len(dependent), space.rank)
            for i, c in zip(dependent, coef.tolist()):
                combo = [sum(a * int(x) for a, x in zip(c, col)) % p
                         for col in rows[absorbed].T]
                assert combo == batch[i].tolist()
            found += len(dependent)
            offset += len(batch)
        assert space.rank == len(absorbed) == fp_rank(rows[absorbed], p)
        assert space.rank == fp_rank(rows, p)
        assert found or space.rank == width

    def test_full_rank_stops_the_batch(self):
        space = _FpRowSpace(5, 2, 2)
        absorbed, dependent, coef = space.absorb(np.array([[1, 2], [2, 4], [0, 1], [3, 3]]))
        assert (absorbed, dependent, space.rank) == ([0, 2], [1], 2)
        assert coef.tolist() == [[2, 0]]


class TestDepthWindows:
    @pytest.mark.parametrize("k, L, M", [(2, 6, 24), (3, 4, 17)])
    @pytest.mark.parametrize("tag", ["tau", "thue_morse_pm"])
    def test_block_rows_are_kernel_elements(self, table, tag, k, L, M):
        t = table(tag, N=2**13)
        for l in range(L + 1):
            block = _depth_windows(t.values, k, l, M, 1)
            assert block.shape == (k**l, M)
            for r in range(k**l):
                assert np.array_equal(block[r], kernel_element(t, k, l, r, M).prefix)

    @pytest.mark.parametrize("k, L, M", [(2, 6, 24), (3, 4, 17), (2, 5, 2)])
    @pytest.mark.parametrize("tag", ["tau", "thue_morse_pm", "lambda"])
    def test_enumerate_matches_element_loop(self, table, tag, k, L, M):
        t = table(tag, N=2**13)
        first: dict[bytes, tuple] = {}
        counts = []
        for l in range(L + 1):
            for r in range(k**l):
                prefix = kernel_element(t, k, l, r, M).prefix
                first.setdefault(prefix.tobytes(), (l, r, prefix))
            counts.append(len(first))
        (reps, _), got_counts = _enumerate_distinct(t, k, L, M)
        assert got_counts == counts
        assert [(l, r) for l, r, _ in reps] == [(l, r) for l, r, _ in first.values()]
        for (_, _, got), (_, _, want) in zip(reps, first.values()):
            assert np.array_equal(np.frombuffer(got, t.values.dtype), want)


class TestWindowsHeldOnce:
    @pytest.mark.parametrize("tag, param, k, L, M", [
        ("phi", None, 3, 7, 64), ("tau", None, 3, 8, 64), ("lambda", None, 2, 12, 64),
        ("sigma_m", 2, 2, 8, 512),
    ])
    def test_profile_holds_each_window_once(self, table, tag, param, k, L, M):
        # the traced peak is one copy of each distinct window, as its bytes
        # key, and the deepest depth's block
        t = table(tag, param)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            prof = kernel_profile(t, k, L, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        window = M * t.values.itemsize
        distinct, windows = prof.distinct_counts[-1], sum(k**l for l in range(L + 1))
        # a key's object, dict slot, int and (l, r, key) tuple take < 256
        # bytes beside its window; each window's class is a list slot
        bound = distinct * (window + 256) + windows * 16 + k**L * window + 64 * 2**10
        assert peak <= bound, (peak, bound)


class TestWindowCap:
    def test_mu_rank_stalls_at_window_width(self, table):
        prof = rank_profile(table("mu"), 2, 8, 16)
        assert prof.ranks[:6] == (1, 3, 5, 9, 16, 16)
        assert prof.verdict.kind == "window_capped"
        assert (prof.verdict.depth, prof.verdict.size) == (5, 16)
        assert str(prof.verdict) == "window_capped_at(5, size=16)"

    def test_identity_rank_below_cap_still_saturated(self, table):
        prof = rank_profile(table("identity_n"), 2, 6, 32)
        assert prof.verdict.kind == "saturated"
        assert prof.verdict.size == 2

    def test_distinct_count_stalls_at_alphabet_power(self, table):
        # lambda takes two values, so width-2 windows have at most 2^2 forms
        prof = kernel_profile(table("lambda", N=2**14), 2, 6, 2)
        assert max(prof.distinct_counts) == 4
        assert prof.verdict.kind == "window_capped"

    def test_one_value_region_not_capped(self, table):
        prof = kernel_profile(table("const_one", N=2**13), 2, 5, 1)
        assert prof.verdict.kind == "saturated"
        assert prof.verdict.size == 1

    def test_cap_computed_only_on_a_stall(self, table, monkeypatch):
        from kernelscope import automaton, kernel
        from kernelscope.errors import VerdictError

        calls = []
        real = kernel._distinct_cap
        monkeypatch.setattr(kernel, "_distinct_cap",
                            lambda *a: calls.append(a) or real(*a))
        lam = table("lambda", N=2**17)
        assert kernel_profile(lam, 2, 8, 256).verdict.kind == "growing"
        with pytest.raises(VerdictError):
            automaton.build_representation(lam, 2, 8, 256)
        assert calls == []
        assert kernel_profile(table("lambda", N=2**14), 2, 6, 2).verdict.kind == "window_capped"
        assert len(calls) == 1

    @pytest.mark.parametrize("tag, k, L, M", [
        ("phi", 2, 10, 127), ("tau", 3, 8, 20), ("const_one", 2, 11, 31), ("mu", 2, 1, 32768),
    ])
    def test_letter_count_across_blocks(self, table, tag, k, L, M):
        # the letters are counted block by block over values[1 : k^L (M + 1)]:
        # 2^17 - 1, 137780, 2^16 - 1 and 2^16 + 1 entries
        t = table(tag)
        letters = len(np.unique(t.values[1 : k**L * (M + 1)]))
        assert _distinct_cap(t, k, L, M) == (letters**M if letters > 1 else None)


class TestValueDensity:
    @pytest.mark.parametrize("N", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7])
    def test_counts_across_block_edges(self, table, N):
        t = table("mu", N=N)
        lengths = [X for X in (1, 2**16 - 1, 2**16, 2**16 + 1, 2**17, 2**17 + 1, N) if X <= N]
        for v in (-1, 0, 1, 2):
            got = [e.count for e in value_density(t, v, lengths)]
            assert got == [int(np.count_nonzero(t.values[1 : X + 1] == v)) for X in lengths]

    def test_const_density_one(self, table):
        ests = value_density(table("const_one", N=1000), 1, [10, 100, 1000])
        assert all(e.density == 1.0 for e in ests)
        assert all(e.approx == 1 for e in ests)

    def test_square_density(self, table):
        est = value_density(table("tau", mod=2), 1, [10**6])[0]
        assert est.count == 1000  # floor(sqrt(10^6)) perfect squares
        assert est.density == 0.001

    def test_mu_zero_density(self, table):
        est = value_density(table("mu"), 0, [10**6])[0]
        sf = squarefree_mask(10**6)
        expected = 10**6 - int(sf[1:].sum())
        assert est.count == expected
        assert abs(est.density - 0.392074) < 1e-6

    @pytest.mark.parametrize("X", [0, -5])
    def test_non_positive_prefix_is_a_domain_error(self, table, X):
        with pytest.raises(DomainError, match=f"^prefix length must be >= 1, got {X}$"):
            value_density(table("mu", N=100), 0, [10, X])

    def test_prefix_past_the_table_is_a_capacity_error(self, table):
        with pytest.raises(CapacityError, match="^prefix length 101 outside table range"):
            value_density(table("mu", N=100), 0, [101])

    def test_rational_approx_reported(self, table):
        est = value_density(table("thue_morse_pm", N=4096), 1, [4096])[0]
        assert est.approx.denominator <= 64
        assert est.residual <= 1 / 64


class TestExports:
    def test_profile_json_csv(self, table, tmp_path):
        prof = kernel_profile(table("thue_morse_pm", N=2**13), 2, 4, 32)
        doc = prof.to_json()
        assert doc["verdict"]["kind"] == "saturated"
        assert doc["counts"] == [1, 2, 2, 2, 2]
        p = tmp_path / "prof.csv"
        with open(p, "w") as fh:
            prof.write_csv(fh)
        assert p.read_text().splitlines()[0] == "depth,count"
