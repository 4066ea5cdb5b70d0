import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelscope.errors import CapacityError, ConstructionError, DomainError, RangeError
from kernelscope.kernel import value_density
from kernelscope.seqgen import (
    ALL_TAGS,
    FactorTable,
    FunctionId,
    ValueTable,
    build_factor_table,
    build_table,
    generate,
    is_prime,
    reduce_mod,
    residues,
    sieve_bound,
)

from conftest import bool_prime_sieve, brute_divisors, squarefree_mask, trial_factorization


class TestFactorTable:
    def test_small_examples(self):
        ft = build_factor_table(10)
        assert ft.spf[9] == 3
        assert ft.spf[10] == 2

    def test_prime_fixed_point(self):
        # a prime's spf entry is 0: the prime itself is in ``primes``
        ft = build_factor_table(2)
        assert ft.spf[2] == 0

    def test_spf_divides(self):
        ft = build_factor_table(1000)
        n = np.arange(2, 1001)
        composite = ft.spf[2:] != 0
        assert np.array_equal(composite, ~bool_prime_sieve(1000)[2:])
        assert np.all(n[composite] % ft.spf[2:][composite] == 0)

    def test_prime_count_1e6(self, ft_1m):
        # independent boolean sieve as the primality oracle
        is_prime = bool_prime_sieve(10**6)
        assert int(is_prime.sum()) == 78498
        zeros = np.flatnonzero(ft_1m.spf == 0)
        zeros = zeros[zeros >= 2]
        assert len(zeros) == 78498
        assert np.array_equal(np.flatnonzero(is_prime), zeros)

    def test_capacity_errors(self):
        with pytest.raises(CapacityError):
            build_factor_table(1)
        with pytest.raises(CapacityError):
            build_factor_table(10**8 + 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("KERNELSCOPE_MAX_N", "100")
        with pytest.raises(CapacityError):
            build_factor_table(200)
        build_factor_table(100)

    @pytest.mark.parametrize("raw, message", [
        ("abc", "^KERNELSCOPE_MAX_N must be an integer, got 'abc'$"),
        ("1", "^KERNELSCOPE_MAX_N must be >= 2, got 1$"),
    ])
    def test_env_override_refused(self, monkeypatch, raw, message):
        monkeypatch.setenv("KERNELSCOPE_MAX_N", raw)
        with pytest.raises(DomainError, match=message):
            build_factor_table(100)

    def test_int32_layout_guard(self, monkeypatch):
        # rest is int32: a cap raised past 2^31 - 1 must not let it wrap,
        # and the refusal comes before any allocation
        monkeypatch.setenv("KERNELSCOPE_MAX_N", str(2**31 + 10))
        with pytest.raises(CapacityError):
            build_factor_table(2**31)

    def test_peel_invariants(self, ft_1m):
        N = 10**6
        n = np.arange(N + 1, dtype=np.int64)
        # the smallest prime of every n, read as n where spf holds 0
        least = np.where(ft_1m.spf == 0, n, ft_1m.spf)
        n, spf = n[2:], least[2:]
        exp, rest = (a[2:].astype(np.int64) for a in (ft_1m.exp, ft_1m.rest))
        assert np.array_equal(rest * spf**exp, n)
        assert np.all(rest % spf != 0)
        assert np.all(exp >= 1)
        assert np.all((rest == 1) | (least[rest] > spf))
        for a in (ft_1m.spf, ft_1m.exp, ft_1m.rest, ft_1m.primes):
            with pytest.raises(ValueError):
                a[5] = 1
        for k in [*range(2, 3001), *range(N - 199, N + 1)]:
            fac = trial_factorization(k)
            p = min(fac)
            want = (0 if p == k else p, fac[p], k // p ** fac[p])
            assert (ft_1m.spf[k], ft_1m.exp[k], ft_1m.rest[k]) == want

    @pytest.fixture(scope="class")
    def split_oracle(self):
        """(spf, exp, rest) of 2..196609 by trial division, spf 0 at a prime."""
        out = {}
        for k in range(2, 196610):
            fac = trial_factorization(k)
            p = min(fac)
            out[k] = (0 if p == k else p, fac[p], k // p ** fac[p])
        return out

    @staticmethod
    def _check_against(oracle, N):
        ft = build_factor_table(N)
        got = zip(ft.spf[2:].tolist(), ft.exp[2:].tolist(), ft.rest[2:].tolist())
        assert [*got] == [oracle[k] for k in range(2, N + 1)], N
        assert ft.primes.tolist() == [k for k in range(2, N + 1) if oracle[k][0] == 0], N

    def test_every_table_up_to_300(self, split_oracle):
        # each bound on or past a prime square changes which strides run
        for N in range(2, 301):
            self._check_against(split_oracle, N)

    # 961 = 31^2, 66049 = 257^2, 134689 = 367^2 and 196249 = 443^2; chunks
    # double up to [2^16, 2^17), and [2^17, 3 * 2^16) is the first one cut
    # short of 2a by the chunk size
    @pytest.mark.parametrize("N", [2, 3, 4, 961, 962, 65535, 65536, 65537, 66049, 131071,
                                   131072, 131073, 134689, 196249, 196607, 196608, 196609])
    def test_square_and_chunk_edges(self, split_oracle, N):
        self._check_against(split_oracle, N)

    @pytest.mark.parametrize("N", [2, 1000, 2**16 + 1])
    def test_layout(self, N):
        ft = build_factor_table(N)
        dtypes = [a.dtype for a in (ft.spf, ft.rest, ft.exp, ft.primes)]
        assert dtypes == [np.uint16, np.int32, np.int8, np.int32]
        # 7 bytes per n: 2 + 4 + 1
        assert ft.spf.nbytes == 2 * (N + 1)
        assert len(ft.rest) == len(ft.exp) == N + 1

    def test_extras_do_not_grow_with_N(self):
        # beyond its four outputs the build holds one chunk's temporaries;
        # a temporary of one byte per n would grow by 1.75 MiB
        extras = [_traced_extra(build_factor_table, N) for N in (2**18, 2**21)]
        assert extras[1] - extras[0] <= 7 * 2**16, extras


class TestGenerate:
    def test_lambda_at_one(self, table):
        assert table("lambda").value(1) == 1

    def test_mu_at_square(self, table):
        assert table("mu").value(4) == 0

    def test_lambda_first_ten(self, table):
        # oracle: parity of Omega from trial division
        expected = [(-1) ** sum(trial_factorization(n).values()) for n in range(1, 11)]
        assert table("lambda").values[1:11].tolist() == expected
        assert expected == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1]

    def test_rho_counts_squarefree_divisors(self, table):
        rho = table("rho")
        for n in (1, 2, 12, 36, 100):
            brute = sum(
                 1
                 for d in brute_divisors(n)
                 if all(e == 1 for e in trial_factorization(d).values())
            )
            assert rho.value(n) == brute
        assert rho.value(12) == 4

    def test_chi_prime_power(self, table):
        chi = table("chi_PP")
        assert chi.value(8) == 1
        assert chi.value(6) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6))
    def test_lambda_mu_omega_vs_factorization(self, table, n):
        fac = trial_factorization(n)
        big = sum(fac.values())
        assert table("lambda").value(n) == (-1) ** big
        assert table("big_omega").value(n) == big
        assert table("omega").value(n) == len(fac)
        mu = 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)
        assert table("mu").value(n) == mu

    def test_tau_sigma_small(self, table):
        tau, sigma = table("tau"), table("sigma_m", 1)
        for n in range(1, 200):
            ds = brute_divisors(n)
            assert tau.value(n) == len(ds)
            assert sigma.value(n) == sum(ds)

    def test_sigma_3_value(self, table):
        assert table("sigma_m", 3, N=100).value(10) == 1 + 8 + 125 + 1000

    def test_tau_k_ordered_tuples(self, table):
        # tau_3(n): ordered triples with product n, by brute force
        t3 = table("tau_k", 3, N=30)
        for n in range(1, 31):
            brute = sum(
                1
                for a in range(1, n + 1)
                for b in range(1, n + 1)
                if n % a == 0 and (n // a) % b == 0
            )
            assert t3.value(n) == brute

    def test_tau_family(self, table):
        tau = table("tau", N=10**4)
        tsq = table("tau_squared", N=10**4)
        tos = table("tau_of_square", N=10**4)
        # tau is narrow (int8 at 10^4); widen before squaring, as numpy wraps
        assert np.array_equal(tsq.values[1:], tau.values[1:].astype(np.int64) ** 2)
        for n in (1, 2, 12, 144, 9999):
            assert tos.value(n) == len(brute_divisors(n * n))

    def test_divisor_oracle_matches_full_trial(self):
        # the paired oracle returns what trying every d <= n returns
        for n in range(1, 2001):
            assert brute_divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n

    def test_nth_prime(self, ft_1m):
        t = generate(FunctionId("nth_prime"), 5, build_factor_table(12))
        assert t.values[1:6].tolist() == [2, 3, 5, 7, 11]
        assert generate(FunctionId("nth_prime"), 78498, ft_1m).value(78498) == 999983
        # sieve_bound(N) holds the N-th prime and stays within 1.3 of it
        for N in range(1, 78499):
            bound = sieve_bound(FunctionId("nth_prime"), N)
            assert ft_1m.primes[N - 1] <= bound <= max(12, 1.3 * ft_1m.primes[N - 1]), N
        assert sieve_bound(FunctionId("mu"), 77) == 77

    @pytest.mark.parametrize("fid, N, message", [
        (FunctionId("mu"), 0, "table bound must be >= 1, got 0"),
        (FunctionId("mu", modulus=3), 10, "generate() produces unreduced tables; use reduce_mod"),
    ])
    def test_refused_before_tabulating(self, fid, N, message):
        with pytest.raises(DomainError) as err:
            generate(fid, N, build_factor_table(12))
        assert str(err.value) == message

    def test_value_table_refusals(self):
        t = ValueTable(FunctionId("mu"), 3, np.array([0, 1, -1, -1], dtype=np.int8))
        aligned = r"^values must be index-aligned with length N\+1$"
        with pytest.raises(ConstructionError, match=aligned):
            ValueTable(FunctionId("mu"), 4, t.values)
        for n in (0, 4):
            with pytest.raises(RangeError, match=rf"^index {n} outside table range 1\.\.3$"):
                t.value(n)

    def test_nth_prime_exhaustion(self):
        with pytest.raises(RangeError):
            generate(FunctionId("nth_prime"), 6, build_factor_table(12))

    def test_fixture_sequences(self, table):
        tm = table("thue_morse_pm", N=64)
        sb = table("sum_binary_digits", N=64)
        assert sb.values[1:9].tolist() == [1, 1, 2, 1, 2, 2, 3, 1]
        assert np.array_equal(tm.values[1:], 1 - 2 * (sb.values[1:] % 2))
        assert np.all(table("const_one", N=64).values[1:] == 1)
        assert np.array_equal(
            table("identity_n", N=64).values[1:], np.arange(1, 65)
        )

    def test_values_at_one(self, table):
        expected = {
            "lambda": 1, "mu": 1, "abs_mu": 1, "phi": 1, "tau": 1, "omega": 0,
            "big_omega": 0, "rho": 1, "r_half_rho": 0, "chi_P": 0, "chi_PP": 0,
            "tau_of_square": 1, "tau_squared": 1, "const_one": 1,
            "thue_morse_pm": -1, "sum_binary_digits": 1, "identity_n": 1,
        }
        for tag, v in expected.items():
            assert table(tag, N=10).value(1) == v, tag

    def test_overflow_refused(self):
        ft = build_factor_table(3 * 10**6)
        with pytest.raises(CapacityError):
            generate(FunctionId("sigma_m", 3), 3 * 10**6, ft)
        with pytest.raises(CapacityError):
            generate(FunctionId("tau_k", 200), 10**6, ft)

    def test_table_shorter_than_request(self):
        ft = build_factor_table(100)
        with pytest.raises(CapacityError):
            generate(FunctionId("mu"), 200, ft)

    def test_immutable(self, table):
        t = table("mu", N=100)
        with pytest.raises(ValueError):
            t.values[3] = 7

    def test_bad_params(self):
        with pytest.raises(DomainError):
            FunctionId("q_m", 1)
        with pytest.raises(DomainError):
            FunctionId("tau_k")
        with pytest.raises(DomainError):
            FunctionId("mu", 3)
        with pytest.raises(DomainError):
            FunctionId("no_such_function")
        for m in (0, 1, -3):
            with pytest.raises(DomainError, match=f"^modulus must be >= 2, got {m}$"):
                FunctionId("mu", modulus=m)
        for m in (2**63, 10**23):
            with pytest.raises(DomainError, match=rf"^modulus must be <= 2\^63 - 1, got {m}$"):
                FunctionId("mu", modulus=m)
        FunctionId("mu", modulus=2**63 - 1)


class TestReduceMod:
    def test_big_omega_mod2_example(self, table):
        reduced = table("big_omega", mod=2, N=100)
        assert reduced.values[1:9].tolist() == [0, 1, 1, 0, 1, 0, 1, 1]
        lam = table("lambda", N=100)
        assert np.array_equal(reduced.values[1:], (1 - lam.values[1:]) // 2)

    def test_tau_mod2_is_square_indicator(self, table):
        reduced = table("tau", mod=2, N=100)
        assert reduced.values[1:11].tolist() == [1, 0, 0, 1, 0, 0, 0, 0, 1, 0]

    def test_const_mod5(self, table):
        assert np.all(table("const_one", mod=5, N=50).values[1:] == 1)

    def test_mod_annotated(self, table):
        t = table("tau", mod=2, N=50)
        assert t.id.modulus == 2
        assert str(t.id) == "tau mod 2"

    def test_double_reduce_refused(self, table):
        with pytest.raises(DomainError):
            reduce_mod(table("tau", mod=2, N=50), 3)

    @pytest.mark.parametrize("m", [0, 2**63])
    def test_modulus_out_of_range_refused(self, table, m):
        with pytest.raises(DomainError, match="^modulus must be"):
            reduce_mod(table("mu", N=50), m)

    @pytest.mark.parametrize("m", [2, 3, 7, 2**31 - 1, 2**62 + 1, 2**63 - 1])
    @pytest.mark.parametrize("tag, param", [
        ("lambda", None), ("mu", None), ("phi", None), ("sigma_m", 3),
    ])
    def test_matches_floored_remainder(self, table, tag, param, m):
        # Python's % is the floored remainder, in [0, m) for every sign of v;
        # the residues take the narrowest type that holds m - 1
        t = table(tag, param, N=2**16 + 5)
        got = reduce_mod(t, m).values
        want_type = {2: np.int8, 3: np.int8, 7: np.int8, 2**31 - 1: np.int32}.get(m, np.int64)
        assert got.dtype == want_type and got[0] == 0
        assert got[1:].tolist() == [v % m for v in t.values[1:].tolist()]


class TestBuildTable:
    @pytest.mark.parametrize("N", [5, 6, 1000])
    @pytest.mark.parametrize("tag, param, mod", [
        ("lambda", None, 3), ("sigma_m", 2, None), ("nth_prime", None, None),
    ])
    def test_equals_generate_on_an_explicit_sieve(self, ft_1m, tag, param, mod, N):
        want = generate(FunctionId(tag, param), N, ft_1m)
        if mod is not None:
            want = reduce_mod(want, mod)
        got = build_table(FunctionId(tag, param, mod), N)
        assert got.id == want.id == FunctionId(tag, param, mod)
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)

    def test_single_entry_table(self):
        # a table of one entry still gets a sieve of 2
        assert build_table(FunctionId("mu"), 1).values.tolist() == [0, 1]


def test_is_prime_matches_the_sieve():
    sieve = bool_prime_sieve(3000)
    assert [is_prime(n) for n in range(-3, 3001)] == [False] * 3 + sieve.tolist()
    assert is_prime(2**31 - 1) and not is_prime(2**31 - 3)


class TestInvariants:
    def test_lambda_completely_multiplicative_exhaustive(self, table):
        lam = table("lambda", N=3000).values
        for a in range(1, 55):
            for b in range(1, 3000 // a + 1):
                assert lam[a * b] == lam[a] * lam[b]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10**3), st.integers(1, 10**3))
    def test_lambda_completely_multiplicative_sampled(self, table, a, b):
        lam = table("lambda").values
        assert lam[a * b] == lam[a] * lam[b]

    def test_abs_mu_equals_q2(self, table):
        assert np.array_equal(
            np.abs(table("mu", N=10**4).values), table("q_m", 2, N=10**4).values
        )
        assert np.array_equal(
            table("abs_mu", N=10**4).values, table("q_m", 2, N=10**4).values
        )

    def test_rho_identities(self, table):
        rho = table("rho", N=10**4).values
        omega = table("omega", N=10**4).values
        r = table("r_half_rho", N=10**4).values
        assert np.array_equal(rho[1:], 1 << omega[1:].astype(np.int64))
        # 2 r(n) = rho(n) holds for n >= 2; rho(1) = 1 is odd, and the
        # integer convention r(1) = 0 keeps (r mod 2) = chi_PP
        assert np.array_equal(2 * r[2:], rho[2:])
        assert r[1] == 0
        chi = table("chi_PP", N=10**4).values
        assert np.array_equal(r[1:] % 2, chi[1:])

    def test_phi_divisor_sum(self, table):
        N = 10**4
        phi = table("phi", N=N).values
        acc = np.zeros(N + 1, dtype=np.int64)
        for d in range(1, N + 1):
            acc[d::d] += phi[d]
        assert np.array_equal(acc[1:], np.arange(1, N + 1))

    def test_lambda_mu_match_on_squarefree(self, table):
        N = 10**5
        sf = squarefree_mask(N)[1:]
        lam = table("lambda", N=N).values[1:]
        mu = table("mu", N=N).values[1:]
        assert np.array_equal(lam[sf], mu[sf])
        assert np.all(mu[~sf] == 0)

    def test_growth_bounds_hold(self, table):
        n = np.arange(1, 10**4 + 1, dtype=np.float64)
        # every branch of the parameterised growth rows
        params = {"tau_k": (1, 2, 3, 5), "sigma_m": (0, 1, 2, 3), "q_m": (2, 3)}
        for tag in ALL_TAGS:
            if tag == "nth_prime":
                continue
            for param in params.get(tag, (None,)):
                t = table(tag, param, N=10**4)
                C, d = t.id.growth_bound()
                ratio = np.abs(t.values[1:]) / n**d
                assert ratio.max() <= C, (tag, param, ratio.max())

    def test_nth_prime_growth_bound(self, table):
        t = table("nth_prime", N=78498)
        C, d = t.id.growth_bound()
        n = np.arange(1, t.N + 1, dtype=np.float64)
        assert (t.values[1:] / n**d).max() <= C


class TestExport:
    def test_json_shape(self, table):
        doc = table("mu", N=10).to_json()
        assert doc["N"] == 10
        assert len(doc["values"]) == 10
        assert doc["values"][0] == 1
        assert all(type(v) is int for v in doc["values"])

    def test_csv(self, table, tmp_path):
        path = tmp_path / "t.csv"
        with open(path, "w") as fh:
            table("tau", N=5).write_csv(fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,value"
        assert lines[1] == "1,1"
        assert len(lines) == 6

    def test_csv_matches_row_writer_across_blocks(self, table):
        # the formatted block writes against one csv.writer row per entry,
        # on tables that end just past a 2^16-entry block: lambda's single
        # digits, sigma_2's up to 10 digits and mu's -1
        for tag, param in [("lambda", None), ("sigma_m", 2), ("mu", None)]:
            t = table(tag, param, N=2**16 + 5)
            want = io.StringIO()
            w = csv.writer(want, lineterminator="\n")
            w.writerow(["n", "value"])
            for n in range(1, t.N + 1):
                w.writerow([n, int(t.values[n])])
            got = io.StringIO()
            t.write_csv(got)
            # as lines with their ends, which join back to the whole text, so
            # that a failure names the first bad row rather than diffing 0.5 MB
            assert (got.getvalue().splitlines(keepends=True)
                    == want.getvalue().splitlines(keepends=True)), tag
        # the array formatter against one "%d,%d\n" per row: every tag at the
        # oracle tests' params, phi with n crossing 99 999 -> 100 000 inside
        # its second block, and hand-built tables of each integer type
        tables = [table(tag, m, N=2**16 + 5)
                  for tag in ALL_TAGS for m in _ORACLE_PARAMS.get(tag, (None,))]
        tables.append(table("phi", N=100_005))
        picks = [0, 9, -9, 10, -10, 99, -99, 100, -100]
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            info = np.iinfo(dtype)
            values = np.array([0, info.min, info.max, *picks], dtype)
            tables.append(ValueTable(FunctionId("mu"), len(values) - 1, values))
        # a block below 2^32 formats in uint32, one at 2^32 in uint64
        for top in (2**32 - 1, 2**32):
            tables.append(ValueTable(FunctionId("mu"), 3, np.array([0, top, -top, 7], np.int64)))
        for t in tables:
            want = "n,value\n" + "".join("%d,%d\n" % (n, v)
                                          for n, v in enumerate(t.values.tolist()) if n)
            got = io.StringIO()
            t.write_csv(got)
            assert (got.getvalue().splitlines(keepends=True)
                    == want.splitlines(keepends=True)), (t.id, t.values.dtype)


_ORACLE_N = 3000
_ORACLE_PARAMS = {"tau_k": (3, 4), "sigma_m": (0, 1, 2), "q_m": (2, 3)}


@pytest.fixture(scope="module")
def oracle_data():
    """Trial factorisations, brute-force divisors and a boolean prime sieve
    for 1..3000, none of them built from the spf sieve."""
    facs = {n: trial_factorization(n) for n in range(1, _ORACLE_N + 1)}
    divs = {n: brute_divisors(n) for n in range(1, _ORACLE_N + 1)}
    return facs, divs, bool_prime_sieve(30_000)


def _tau_k_oracle(divs, k):
    # tau_k = 1 * 1 * ... * 1 (k factors), by repeated divisor sums
    t = {n: 1 for n in divs}
    for _ in range(k - 1):
        t = {n: sum(t[d] for d in ds) for n, ds in divs.items()}
    return t


def _oracle_value(tag, m, n, fac, divs, is_prime):
    es = list(fac.values())
    squarefree = all(e == 1 for e in es)
    popcount = bin(n).count("1")
    return {
        "lambda": lambda: (-1) ** sum(es),
        "mu": lambda: (-1) ** len(es) if squarefree else 0,
        "abs_mu": lambda: int(squarefree),
        "phi": lambda: math.prod(p ** (e - 1) * (p - 1) for p, e in fac.items()),
        "tau": lambda: len(divs),
        "omega": lambda: len(es),
        "big_omega": lambda: sum(es),
        "rho": lambda: sum(all(e == 1 for e in trial_factorization(d).values())
                           for d in divs),
        "r_half_rho": lambda: 2 ** len(es) // 2,
        "chi_P": lambda: int(is_prime[n]),
        "chi_PP": lambda: int(len(es) == 1),
        "nth_prime": lambda: int(np.flatnonzero(is_prime)[n - 1]),
        "tau_of_square": lambda: math.prod(2 * e + 1 for e in es),
        "tau_squared": lambda: len(divs) ** 2,
        "const_one": lambda: 1,
        "thue_morse_pm": lambda: (-1) ** popcount,
        "sum_binary_digits": lambda: popcount,
        "identity_n": lambda: n,
        "sigma_m": lambda: sum(d**m for d in divs),
        "q_m": lambda: int(all(e < m for e in es)),
    }[tag]()


# the narrowest type holding each row's bound at N = 3000: max tau 48,
# phi <= 3000, p_3000 = 27449, max tau_of_square 315, max tau^2 2304,
# max tau_3 540 and tau_4 3360, sigma_1 bound 33000, sigma_2 bound 1.8e7;
# every other row, sigma_0 = tau included, is int8
_ORACLE_WIDE = {("phi", None): np.int16, ("nth_prime", None): np.int16,
                ("tau_of_square", None): np.int16, ("tau_squared", None): np.int16,
                ("identity_n", None): np.int16, ("tau_k", 3): np.int16, ("tau_k", 4): np.int16,
                ("sigma_m", 1): np.int32, ("sigma_m", 2): np.int32}


class TestOracleEveryTag:
    @pytest.mark.parametrize(
        "tag,param",
        [(tag, m) for tag in ALL_TAGS for m in _ORACLE_PARAMS.get(tag, (None,))],
    )
    def test_table_matches_oracle(self, ft_1m, oracle_data, tag, param):
        facs, divs, is_prime = oracle_data
        got = generate(FunctionId(tag, param), _ORACLE_N, ft_1m).values
        assert got.dtype == _ORACLE_WIDE.get((tag, param), np.int8) and got[0] == 0
        if tag == "tau_k":
            want = _tau_k_oracle(divs, param)
        else:
            want = {n: _oracle_value(tag, param, n, facs[n], divs[n], is_prime)
                    for n in range(1, _ORACLE_N + 1)}
        assert got[1:].tolist() == [want[n] for n in range(1, _ORACLE_N + 1)]

    @pytest.mark.parametrize("m,N", [(2, 10**6), (3, 10**6), (2, 10**5), (3, 10**5)])
    def test_sigma_at_largest_primes_is_exact(self, ft_1m, m, N):
        # 1 + p^m fits int64 where (p^(2m) - 1) / (p^m - 1) would wrap
        t = generate(FunctionId("sigma_m", m), N, ft_1m)
        for p in ft_1m.primes[ft_1m.primes < N][-20:].tolist():
            assert t.value(p) == 1 + p**m


# closed forms from the factorisation for the tags whose oracle above
# enumerates divisors, which is too slow past _ORACLE_N
_FACTORISATION_FORMS = {
    "tau": lambda fac, m: math.prod(e + 1 for e in fac.values()),
    "rho": lambda fac, m: 2 ** len(fac),
    "tau_squared": lambda fac, m: math.prod(e + 1 for e in fac.values()) ** 2,
    "tau_k": lambda fac, m: math.prod(math.comb(e + m - 1, m - 1) for e in fac.values()),
    "sigma_m": lambda fac, m: math.prod(sum(p ** (m * i) for i in range(e + 1))
                                        for p, e in fac.items()),
}


@pytest.fixture(scope="module")
def deep_points():
    """Every prime power p^e <= 10^6 with e >= 2 (up to 2^19) and the 50
    largest n <= 10^6, with trial factorisations and a boolean prime sieve."""
    N = 10**6
    is_prime = bool_prime_sieve(N)
    ns = [q for p in np.flatnonzero(is_prime[: math.isqrt(N) + 1]).tolist()
          for q in (p**e for e in range(2, 20)) if q <= N]
    ns += range(N - 49, N + 1)
    return {n: trial_factorization(n) for n in ns}, is_prime


class TestDeepExponents:
    @pytest.mark.parametrize(
        "tag,param",
        [(tag, m) for tag in ALL_TAGS for m in _ORACLE_PARAMS.get(tag, (None,))
         if tag not in ("nth_prime", "const_one", "thue_morse_pm", "sum_binary_digits",
                        "identity_n")],
    )
    def test_prime_powers_and_last_chunk(self, ft_1m, deep_points, tag, param):
        facs, is_prime = deep_points
        assert 2**19 in facs and max(e for fac in facs.values() for e in fac.values()) == 19
        got = generate(FunctionId(tag, param), 10**6, ft_1m)
        for n, fac in facs.items():
            if tag in _FACTORISATION_FORMS:
                want = _FACTORISATION_FORMS[tag](fac, param)
            else:
                want = _oracle_value(tag, param, n, fac, None, is_prime)
            assert got.value(n) == want, (tag, param, n)


# --- a pass holds the table and one block ------------------------------------

# every tag at the parameters of TestInvariants' growth check, less sigma_3,
# which int64 cannot hold at N = 2^21 (CapacityError)
_MEMORY_CASES = [(tag, m) for tag in ALL_TAGS
                 for m in {"tau_k": (1, 2, 3, 5), "sigma_m": (0, 1, 2), "q_m": (2, 3)}.get(
                     tag, (None,))]
# the table each read-off row applies its op to, held beside the output
_READ_OFF_SOURCE = {"r_half_rho": "rho", "chi_P": "big_omega", "chi_PP": "omega",
                    "thue_morse_pm": "sum_binary_digits"}
# a block's temporaries are the same at both sizes, but for a table whose
# type widens between them; a temporary of one bit per n would grow by
# 224 KiB from 2^18 to 2^21 entries
_MEMORY_SLACK = 64 * 2**10
# block edges: one short of a block, one block, one past it, and a short
# last block after three
_EDGES = [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7]


@pytest.fixture(scope="module")
def ft_2m():
    return build_factor_table(2**21)


def _traced_extra(fn, *args) -> int:
    """The tracemalloc peak of fn(*args) beyond the nbytes of the table or
    factor table it returns (all of it for any other result)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(out, FactorTable):
        return peak - sum(a.nbytes for a in (out.spf, out.rest, out.exp, out.primes))
    return peak - (out.values.nbytes if isinstance(out, ValueTable) else 0)


class TestOneBlock:
    @pytest.mark.parametrize("tag,param", _MEMORY_CASES)
    def test_extras_do_not_grow_with_N(self, ft_2m, tag, param):
        fid = FunctionId(tag, param)
        sizes, ft = (2**18, 2**21), ft_2m
        if tag == "nth_prime":  # its first 2^21 primes need a sieve past the default cap
            sizes = (2**16, 2**18)
            ft = build_factor_table(sieve_bound(fid, sizes[1]))
        extras, itemsize = [], []
        for N in sizes:
            t = generate(fid, N, ft)
            itemsize.append(t.values.itemsize)
            extras.append([_traced_extra(generate, fid, N, ft),
                           _traced_extra(reduce_mod, t, 3),
                           _traced_extra(reduce_mod, t, 2**31 - 1),
                           _traced_extra(value_density, t, int(t.values[1]), [N])])
        # two block temporaries widen with the table's type (rho, tau_squared)
        allowed = [_MEMORY_SLACK + 2 * 2**16 * (itemsize[1] - itemsize[0])] * 4
        if tag in _READ_OFF_SOURCE:
            src = [generate(FunctionId(_READ_OFF_SOURCE[tag]), N, ft).values.nbytes
                   for N in sizes]
            allowed[0] += src[1] - src[0]
        names = ("generate", "reduce_mod 3", "reduce_mod 2^31 - 1", "value_density")
        for name, small, big, allow in zip(names, *extras, allowed):
            assert big - small <= allow, (name, small, big)

    @pytest.mark.parametrize("N", _EDGES)
    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_residues_match_whole_array(self, N, dtype):
        info = np.iinfo(dtype)
        values = np.random.default_rng(N).integers(info.min, info.max, N + 1, dtype=dtype,
                                                   endpoint=True)
        # the type's extremes at both ends and on both sides of the first edge
        for i in (0, 1, 2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1, N - 1, N):
            if i <= N:
                values[i] = info.min if i % 2 else info.max
        for m in (2, 3, 7, 2**31 - 1, 2**63 - 1):
            got = residues(values, m)
            assert got.dtype == {2**31 - 1: np.int32, 2**63 - 1: np.int64}.get(m, np.int8)
            assert np.array_equal(got, np.mod(values.astype(np.int64), m)), m

    @pytest.mark.parametrize("N", _EDGES)
    def test_block_builders_match_whole_array(self, ft_1m, N):
        def whole(tag):
            return generate(FunctionId(tag), N, ft_1m).values

        popcount = np.bitwise_count(np.arange(N + 1, dtype=np.uint64)).astype(np.int64)
        want = {"sum_binary_digits": popcount, "thue_morse_pm": 1 - 2 * (popcount & 1),
                "chi_P": whole("big_omega") == 1, "chi_PP": whole("omega") == 1,
                "r_half_rho": whole("rho") >> 1}
        for tag, w in want.items():
            got = whole(tag)
            # every one of them fits int8 at these N
            assert got.dtype == np.int8 and got[0] == 0, tag
            assert np.array_equal(got[1:], w[1:]), tag
