"""Value tables in the narrowest integer type their bound allows.

Each table's type is _int_type of its row's exact bound, its values equal
an independent oracle whatever that type, every consumer gives the same
result on a table and on the same table widened to int64, and the CLI's
exports stay byte-identical.
"""

import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest

from kernelscope import cli
from kernelscope.automaton import build_representation
from kernelscope.christol import series_from_table
from kernelscope.dirichlet import direct_sums
from kernelscope.errors import CapacityError
from kernelscope.kernel import kernel_profile, rank_profile, value_density
from kernelscope.seqgen import (
    ALL_TAGS,
    FunctionId,
    ValueTable,
    _int_type,
    build_table,
    generate,
    reduce_mod,
    sieve_bound,
)

from conftest import bool_prime_sieve

_PARAMS = {"tau_k": (3, 4), "sigma_m": (0, 1, 2), "q_m": (2, 3)}
_CASES = [(tag, m) for tag in ALL_TAGS for m in _PARAMS.get(tag, (None,))]
_BIG_N = 10**6

# f(p^e) of each multiplicative (True) or additive (False) row, for p a
# Python int, or an array of primes at e = 1
_PRIME_POWER_RULES = {
    "lambda": (True, lambda p, e, m: (-1) ** e),
    "mu": (True, lambda p, e, m: -1 if e == 1 else 0),
    "abs_mu": (True, lambda p, e, m: int(e < 2)),
    "phi": (True, lambda p, e, m: p ** (e - 1) * (p - 1)),
    "tau": (True, lambda p, e, m: e + 1),
    "omega": (False, lambda p, e, m: 1),
    "big_omega": (False, lambda p, e, m: e),
    "rho": (True, lambda p, e, m: 2),
    "tau_of_square": (True, lambda p, e, m: 2 * e + 1),
    "tau_squared": (True, lambda p, e, m: (e + 1) ** 2),
    "tau_k": (True, lambda p, e, m: math.comb(e + m - 1, e)),
    "sigma_m": (True, lambda p, e, m: sum(p ** (m * i) for i in range(e + 1))),
    "q_m": (True, lambda p, e, m: int(e < m)),
}


@pytest.fixture(scope="module")
def signatures():
    """For n <= 10^6: the exponent of each prime p <= 1000 in each multiple
    of p, by strides over the multiples (n = p i has p^j | n exactly when
    p^(j-1) | i), and the cofactor left after dividing those out, which is
    1 or a prime above 1000.  Nothing here reads the spf sieve."""
    N = _BIG_N
    rest = np.arange(N + 1, dtype=np.int64)
    exps = []
    for p in np.flatnonzero(bool_prime_sieve(1000)).tolist():
        e = np.ones(N // p, dtype=np.int64)
        k = p
        while k * p <= N:
            e[k - 1 :: k] += 1
            k *= p
        rest[p::p] //= p**e
        exps.append((p, e))
    return exps, rest


@pytest.fixture(scope="module")
def first_primes():
    """The first 10^6 primes, from a boolean sieve to 1.6 * 10^7."""
    return np.flatnonzero(bool_prime_sieve(16_000_000))[:_BIG_N]


def _oracle(tag, m, signatures, primes):
    """f on 0..10^6 (with f(0) = 0) in int64, from the signatures."""
    exps, rest = signatures
    N = _BIG_N
    n = np.arange(N + 1, dtype=np.int64)
    if tag in _PRIME_POWER_RULES:
        mult, rule = _PRIME_POWER_RULES[tag]
        combine = np.multiply if mult else np.add
        out = np.full(N + 1, int(mult), dtype=np.int64)
        for p, e in exps:
            lut = np.array([rule(p, j, m) for j in range(int(e.max()) + 1)], dtype=np.int64)
            combine(out[p::p], lut.take(e), out=out[p::p])
        big = np.flatnonzero(rest > 1)
        out[big] = combine(out[big], rule(rest[big], 1, m))
    elif tag == "r_half_rho":
        out = _oracle("rho", None, signatures, primes) >> 1
    elif tag in ("chi_P", "chi_PP"):
        count = _oracle("big_omega" if tag == "chi_P" else "omega", None, signatures, primes)
        out = (count == 1).astype(np.int64)
    elif tag == "nth_prime":
        out = np.concatenate([[0], primes])
    else:
        popcount = sum((n >> b) & 1 for b in range(N.bit_length()))
        out = {"const_one": np.ones_like(n), "thue_morse_pm": 1 - 2 * (popcount & 1),
               "sum_binary_digits": popcount, "identity_n": n}[tag]
    out[0] = 0
    return out


def _bound(tag, m, N, want):
    """The a-priori bound on |f| over 1..N that each row's builder takes."""
    if tag in ("phi", "identity_n"):
        return N
    if tag in ("omega", "big_omega"):
        return N.bit_length() - 1  # Omega(n) <= log2 N, and max |f(p^e)| / e = 1
    if tag == "sigma_m" and m:
        return N * (2 + math.ceil(math.log(N))) if m == 1 else 2 * N**m
    # every other row's bound is exact: the largest |f(n)| for n <= N
    return int(np.abs(want[1:]).max())


class TestTypeContract:
    def test_int_type_boundaries(self):
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            top = int(np.iinfo(dtype).max)
            assert _int_type(top) is dtype
            if dtype is not np.int64:
                assert _int_type(top + 1) is not dtype
        assert _int_type(0) is np.int8
        with pytest.raises(CapacityError, match=r"^values would exceed int64 \(max \|f\| "
                                                r"bound 9223372036854775808 > "):
            _int_type(2**63)

    @pytest.mark.parametrize("N", [2**16 + 5, _BIG_N])
    @pytest.mark.parametrize("tag, m", _CASES)
    def test_type_and_values(self, ft_1m, signatures, first_primes, monkeypatch, tag, m, N):
        fid = FunctionId(tag, m)
        if tag == "nth_prime":
            # the 10^6-th prime needs a sieve to 1.64e7, past the default cap
            monkeypatch.setenv("KERNELSCOPE_MAX_N", str(sieve_bound(fid, N)))
            t = build_table(fid, N)
        else:
            t = generate(fid, N, ft_1m)
        want = _oracle(tag, m, signatures, first_primes)[: N + 1]
        assert t.values.dtype == _int_type(_bound(tag, m, N, want))
        assert np.array_equal(t.values, want)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_residues_at_the_extremes(self, dtype):
        info = np.iinfo(dtype)
        top = int(info.max)
        values = np.array([0, top, -top, int(info.min), top - 1, -1, 1, 0, 2, -2], dtype=dtype)
        t = ValueTable(FunctionId("mu"), len(values) - 1, values)
        for m in {2, 3, top, top + 1, 2**63 - 1} - {2**63}:
            got = reduce_mod(t, m).values
            assert got.dtype == _int_type(m - 1), m
            assert got[1:].tolist() == [v % m for v in values[1:].tolist()], m


# kernel_profile, rank_profile, value_density, direct_sums and
# series_from_table on each table and on it widened to int64
_PARITY_TABLES = [("lambda", None), ("mu", None), ("phi", None), ("tau", None),
                  ("omega", None), ("mu", 3)]
# automatic_scan's fixtures: tag, k, modulus
_AUTOMATIC = [("thue_morse_pm", 2, None), ("const_one", 2, None), ("const_one", 3, None),
              ("sum_binary_digits", 2, 3), ("identity_n", 2, 3)]


def _widened(t):
    return ValueTable(t.id, t.N, t.values.astype(np.int64))


class TestConsumerParity:
    @pytest.mark.parametrize("tag, mod", _PARITY_TABLES)
    def test_every_consumer(self, tag, mod):
        t = build_table(FunctionId(tag, None, mod), 2**16 + 5)
        wide = _widened(t)
        assert t.values.dtype != np.int64
        for k, L, M in [(2, 6, 32), (3, 5, 64)]:
            assert kernel_profile(t, k, L, M) == kernel_profile(wide, k, L, M)
            assert rank_profile(t, k, L, M) == rank_profile(wide, k, L, M)
        # values beyond int8 and int16 occur nowhere, and count 0 in both
        for v in (0, 1, -1, 2, 4, 127, 1000, -129, 2**40):
            ests = value_density(t, v, [1, 1000, t.N])
            assert ests == value_density(wide, v, [1, 1000, t.N]), v
        ss = [3.5 + 2j, 4.0, 2.75 - 11j]
        assert direct_sums(t, ss, t.N) == direct_sums(wide, ss, t.N)
        for p in (2, 3, 2**31 - 1):
            got, want = series_from_table(t, p, 2**12), series_from_table(wide, p, 2**12)
            assert got.coeffs.dtype == want.coeffs.dtype == np.int64
            assert np.array_equal(got.coeffs, want.coeffs)
        if mod is None:
            assert np.array_equal(reduce_mod(t, 3).values, reduce_mod(wide, 3).values)

    @pytest.mark.parametrize("tag, k, mod", _AUTOMATIC)
    def test_representation(self, tag, k, mod):
        t = build_table(FunctionId(tag, None, mod), 2**16)
        rep = build_representation(t, k, 6, 64)
        assert rep.seeds.dtype == np.int64
        assert rep.to_json() == build_representation(_widened(t), k, 6, 64).to_json()


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.run(argv) == 0
    return buf.getvalue()


class TestGoldenExports:
    # sha256 of the output of the int64 tables these narrow ones replaced
    @pytest.mark.parametrize("args, digest", [
        (["--fn", "lambda"], "299d1c34232473b6a931997e997b2b90ace5a8d79cf0507debafafe6f1b6e062"),
        (["--fn", "tau"], "e95ee20bb94001a19653aafc2905e9e8a60ee2723f4fd05415179a5971dbca5d"),
        (["--fn", "phi"], "08fbd087049aaf62788ddba45b06367d5c28135b2fdd12ad97403762fb755256"),
        (["--fn", "mu", "--mod", "3"],
         "f711de7459e24be8da512e858b1e18c09c93aa8a833aaf81de71a05fe750d8f4"),
    ])
    def test_csv(self, args, digest):
        text = _stdout(["generate", *args, "--N", "1000", "--format", "csv"])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_json_apart_from_wall_time(self):
        doc = json.loads(_stdout(["generate", "--fn", "tau", "--N", "1000", "--format", "json"]))
        del doc["wall_time_s"]
        digest = hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()
        assert digest == "1bae3b0ccc134a3ab205626923876ff652c21d4d833327c5f04bc95da2c32d51"
