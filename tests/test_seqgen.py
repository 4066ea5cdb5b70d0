import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelscope.errors import CapacityError, DomainError, RangeError
from kernelscope.seqgen import (
    ALL_TAGS,
    FunctionId,
    build_factor_table,
    build_table,
    generate,
    is_prime,
    reduce_mod,
    sieve_bound,
)

from conftest import bool_prime_sieve, brute_divisors, squarefree_mask, trial_factorization


class TestFactorTable:
    def test_small_examples(self):
        ft = build_factor_table(10)
        assert ft.spf[9] == 3
        assert ft.spf[10] == 2

    def test_prime_fixed_point(self):
        ft = build_factor_table(2)
        assert ft.spf[2] == 2

    def test_spf_divides(self):
        ft = build_factor_table(1000)
        n = np.arange(2, 1001)
        assert np.all(n % ft.spf[2:] == 0)

    def test_prime_count_1e6(self, ft_1m):
        # independent boolean sieve as the primality oracle
        is_prime = bool_prime_sieve(10**6)
        assert int(is_prime.sum()) == 78498
        fixed_points = np.flatnonzero(ft_1m.spf == np.arange(10**6 + 1))
        fixed_points = fixed_points[fixed_points >= 2]
        assert len(fixed_points) == 78498
        assert np.array_equal(np.flatnonzero(is_prime), fixed_points)

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

    def test_int32_layout_guard(self, monkeypatch):
        # spf and rest are int32: a cap raised past 2^31 - 1 must not let
        # them wrap, and the refusal comes before any allocation
        monkeypatch.setenv("KERNELSCOPE_MAX_N", str(2**31 + 10))
        with pytest.raises(CapacityError):
            build_factor_table(2**31)

    def test_peel_invariants(self, ft_1m):
        N = 10**6
        n = np.arange(2, N + 1, dtype=np.int64)
        spf, exp, rest = (a[2:].astype(np.int64) for a in (ft_1m.spf, ft_1m.exp, ft_1m.rest))
        assert np.array_equal(rest * spf**exp, n)
        assert np.all(rest % spf != 0)
        assert np.all(exp >= 1)
        assert np.all((rest == 1) | (ft_1m.spf[rest] > ft_1m.spf[2:]))
        for a in (ft_1m.spf, ft_1m.exp, ft_1m.rest):
            with pytest.raises(ValueError):
                a[5] = 1
        for k in [*range(2, 3001), *range(N - 199, N + 1)]:
            fac = trial_factorization(k)
            p = min(fac)
            assert (ft_1m.spf[k], ft_1m.exp[k], ft_1m.rest[k]) == (p, fac[p], k // p ** fac[p])

    @pytest.fixture(scope="class")
    def split_oracle(self):
        """(spf, exp, rest) of 2..131073 by trial division."""
        out = {}
        for k in range(2, 131074):
            fac = trial_factorization(k)
            p = min(fac)
            out[k] = (p, fac[p], k // p ** fac[p])
        return out

    @staticmethod
    def _check_against(oracle, N):
        ft = build_factor_table(N)
        got = zip(ft.spf[2:].tolist(), ft.exp[2:].tolist(), ft.rest[2:].tolist())
        assert [*got] == [oracle[k] for k in range(2, N + 1)], N
        assert ft.primes.tolist() == [k for k in range(2, N + 1) if oracle[k][0] == k], N

    def test_every_table_up_to_300(self, split_oracle):
        # each bound on or past a prime square changes which strides run
        for N in range(2, 301):
            self._check_against(split_oracle, N)

    @pytest.mark.parametrize("N", [961, 962, 65536, 65537, 131073])
    def test_square_and_chunk_edges(self, split_oracle, N):
        # 961 = 31^2; 2^16 + 1 and 2^17 + 1 open a new split chunk
        self._check_against(split_oracle, N)


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
        assert np.array_equal(tsq.values[1:], tau.values[1:] ** 2)
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
        # Python's % is the floored remainder, in [0, m) for every sign of v
        t = table(tag, param, N=2**16 + 5)
        got = reduce_mod(t, m).values
        assert got.dtype == np.int64 and got[0] == 0
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
            assert got.getvalue() == want.getvalue(), tag


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


class TestOracleEveryTag:
    @pytest.mark.parametrize(
        "tag,param",
        [(tag, m) for tag in ALL_TAGS for m in _ORACLE_PARAMS.get(tag, (None,))],
    )
    def test_table_matches_oracle(self, ft_1m, oracle_data, tag, param):
        facs, divs, is_prime = oracle_data
        got = generate(FunctionId(tag, param), _ORACLE_N, ft_1m).values
        assert got.dtype == np.int64 and got[0] == 0
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
