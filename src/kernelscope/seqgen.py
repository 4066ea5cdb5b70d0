"""Sieve-based generation of arithmetic-function value tables.

One smallest-prime-factor sieve up to N drives every arithmetic function:
a single pass splits each n into p = spf(n), the exponent e of p and
rest = n / p^e, and combines the function's value at p^e with its
finished value at rest (a product for multiplicative functions, a sum for
additive ones).  Each function is then just its rule for f(p^e).  Values
are stored as int64 behind an a-priori exact overflow bound, so
construction refuses (CapacityError) instead of silently wrapping.

Tables are index-aligned: ``values[n]`` is f(n) for 1 <= n <= N and
``values[0]`` is unused padding (always 0).  Exports emit n = 1..N only.
Sequences are indexed from 1; there is no f(0).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConstructionError, DomainError, RangeError

DEFAULT_MAX_N = 10_000_000

_PARAMETERLESS_TAGS = (
    "lambda",
    "mu",
    "abs_mu",
    "phi",
    "tau",
    "omega",
    "big_omega",
    "rho",
    "r_half_rho",
    "chi_P",
    "chi_PP",
    "nth_prime",
    "tau_of_square",
    "tau_squared",
    "const_one",
    "thue_morse_pm",
    "sum_binary_digits",
    "identity_n",
)

# tag -> minimal admissible parameter
_PARAMETERIZED_TAGS = {"tau_k": 1, "sigma_m": 0, "q_m": 2}

ALL_TAGS = _PARAMETERLESS_TAGS + tuple(_PARAMETERIZED_TAGS)


def max_table_size() -> int:
    """Capacity cap for sieves and tables; KERNELSCOPE_MAX_N overrides."""
    raw = os.environ.get("KERNELSCOPE_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"KERNELSCOPE_MAX_N must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise DomainError(f"KERNELSCOPE_MAX_N must be >= 2, got {cap}")
    return cap


@dataclass(frozen=True)
class FunctionId:
    """Identifier of a supported arithmetic function, plus parameters.

    ``param`` is the k of tau_k, the m of sigma_m/q_m; None elsewhere.
    ``modulus`` is set by reduce_mod and marks a reduced table.
    """

    tag: str
    param: int | None = None
    modulus: int | None = None

    def __post_init__(self):
        if self.tag in _PARAMETERIZED_TAGS:
            low = _PARAMETERIZED_TAGS[self.tag]
            if self.param is None or self.param < low:
                raise DomainError(f"{self.tag} requires an integer parameter >= {low}")
        elif self.tag in _PARAMETERLESS_TAGS:
            if self.param is not None:
                raise DomainError(f"{self.tag} takes no parameter")
        else:
            raise DomainError(f"unknown function tag {self.tag!r}")
        if self.modulus is not None and self.modulus < 2:
            raise DomainError("modulus must be >= 2")

    def __str__(self):
        s = self.tag if self.param is None else f"{self.tag}({self.param})"
        if self.modulus is not None:
            s += f" mod {self.modulus}"
        return s

    def growth_bound(self) -> tuple[float, float]:
        """(C, d) with |f(n)| <= C * n**d for all n >= 1.

        Used for Dirichlet tail bounds.  Each pair is an elementary bound:
        tau(n) <= 8.45 n^{1/4} is the product over p of max_e (e+1) p^{-e/4}
        (primes >= 17 contribute 1), Omega(n) <= log2(n) <= 2.13 n^{1/4},
        sigma_m(n) <= zeta(m) n^m for m >= 2, p(n) <= 2 n^{5/4}.
        """
        if self.modulus is not None:
            return float(self.modulus - 1) if self.modulus > 1 else 1.0, 0.0
        tag, m = self.tag, self.param
        if tag in ("lambda", "mu", "abs_mu", "q_m", "chi_P", "chi_PP",
                   "const_one", "thue_morse_pm"):
            return 1.0, 0.0
        if tag in ("omega", "big_omega"):
            return 2.2, 0.25
        if tag in ("tau", "rho"):
            return 8.45, 0.25
        if tag == "tau_of_square":
            return 8.45, 0.5
        if tag == "tau_squared":
            return 72.0, 0.5
        if tag == "sum_binary_digits":
            return 2.6, 0.25
        if tag in ("phi", "identity_n"):
            return 1.0, 1.0
        if tag == "r_half_rho":
            return 4.25, 0.25
        if tag == "nth_prime":
            return 2.0, 1.25
        if tag == "tau_k":
            return 8.45 ** (m - 1), 0.25 * (m - 1)
        if tag == "sigma_m":
            if m == 0:
                return 8.45, 0.25
            if m == 1:
                return 1.3, 1.25
            return 2.0, float(m)
        raise ConstructionError(f"no growth bound recorded for {self}")


@dataclass(frozen=True)
class FactorTable:
    """Smallest-prime-factor sieve up to N.

    ``spf[n]`` is the smallest prime factor of n for 2 <= n <= N;
    spf[0] = spf[1] = 0.  n is prime exactly when spf[n] == n.
    """

    N: int
    spf: np.ndarray
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.spf.flags.writeable = False
        self.primes.flags.writeable = False


def build_factor_table(N: int) -> FactorTable:
    """Sieve smallest prime factors for 2..N (O(N log log N))."""
    cap = max_table_size()
    if not 2 <= N <= cap:
        raise CapacityError(f"factor table bound must satisfy 2 <= N <= {cap}, got {N}")
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    untouched = spf[2:] == 0
    spf[2:][untouched] = np.arange(2, N + 1, dtype=np.int64)[untouched]
    primes = np.flatnonzero(spf == np.arange(N + 1, dtype=np.int64))
    primes = primes[primes >= 2]
    return FactorTable(N=N, spf=spf, primes=primes)


@dataclass(frozen=True)
class ValueTable:
    """An arithmetic function tabulated on 1..N.

    ``values`` has length N+1 and is index-aligned (values[0] is padding);
    it is frozen after construction and safe to share across threads.
    """

    id: FunctionId
    N: int
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.N + 1:
            raise ConstructionError("values must be index-aligned with length N+1")
        self.values.flags.writeable = False

    def value(self, n: int) -> int:
        if not 1 <= n <= self.N:
            raise RangeError(f"index {n} outside table range 1..{self.N}")
        return int(self.values[n])

    def to_json(self) -> dict:
        return {
            "id": self.id.tag,
            "params": {"param": self.id.param, "modulus": self.id.modulus},
            "N": self.N,
            "values": [int(v) for v in self.values[1:]],
        }

    def write_csv(self, fh) -> None:
        fh.write("n,value\n")
        # one joined write per block: a single join over all N values would
        # hold every value as a Python int at once (over 1 GiB at N = 10^7)
        for lo in range(1, self.N + 1, 1 << 16):
            block = self.values[lo : lo + (1 << 16)].tolist()
            fh.write("".join(f"{n},{v}\n" for n, v in enumerate(block, lo)))


def _signature_max(N: int, coef, cap: int) -> int:
    """Exact max over n <= N of prod coef(e_i) across prime signatures.

    Valid for prime-independent |f(p^e)| = coef(e): sorting exponents
    decreasingly onto the smallest primes cannot decrease the value or
    push the support above N, so only non-increasing signatures are tried.
    Search aborts early once ``cap`` is exceeded.
    """
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    best = 1

    def rec(i, room, acc, e_max):
        nonlocal best
        if acc > best:
            best = acc
            if best > cap:
                return
        if i >= len(primes):
            return
        p = primes[i]
        pe, e = p, 1
        while pe <= room and e <= e_max:
            c = abs(coef(e))
            if c:
                rec(i + 1, room // pe, acc * c, e)
                if best > cap:
                    return
            pe *= p
            e += 1

    rec(0, N, 1, N.bit_length() + 1)
    return best


_INT64_MAX = 2**63 - 1

# n is tabulated in chunks of at most this many entries
_CHUNK = 1 << 16


def _tabulate(N: int, ft: FactorTable, fpe, additive: bool) -> np.ndarray:
    """f on 1..N from its prime-power values, in one pass over ``ft.spf``.

    For n >= 2 with p = spf[n], p^e || n and rest = n / p^e, a
    multiplicative f has f(n) = fpe(p, e) f(rest) and an additive one
    f(n) = fpe(p, e) + f(rest).  n runs in chunks [a, b) with b <= 2a, so
    rest <= n / 2 < a is final before its chunk starts.  ``fpe`` is called
    on an int64 array of primes with e = 1, and on exact ints with e >= 2,
    where p <= sqrt(N) leaves few prime powers.
    """
    powers = []
    for p in ft.primes[ft.primes <= math.isqrt(N)].tolist():
        q, e = p * p, 2
        while q <= N:
            powers.append((q, fpe(p, e)))
            q, e = q * p, e + 1
    keys, vals = np.array(sorted(powers), dtype=np.int64).reshape(-1, 2).T
    out = np.empty(N + 1, dtype=np.int64)
    out[0], out[1] = 0, 0 if additive else 1
    a = 2
    while a <= N:
        b = min(2 * a, a + _CHUNK, N + 1)
        p = ft.spf[a:b]
        pe, rest = p.copy(), np.arange(a, b, dtype=np.int64) // p
        deep = np.flatnonzero(rest % p == 0)
        while deep.size:
            pe[deep] *= p[deep]
            rest[deep] //= p[deep]
            deep = deep[rest[deep] % p[deep] == 0]
        f = np.empty_like(p)
        f[...] = fpe(p, 1)
        deep = np.flatnonzero(pe != p)
        f[deep] = vals[np.searchsorted(keys, pe[deep])]
        out[a:b] = f + out[rest] if additive else f * out[rest]
        a = b
    return out


# f(p^e) of the multiplicative functions whose prime-power values depend
# on e alone; m is the tag's parameter
_EXPONENT_RULES = {
    "lambda": lambda e, m: (-1) ** e,
    "mu": lambda e, m: -1 if e == 1 else 0,
    "abs_mu": lambda e, m: int(e < 2),
    "q_m": lambda e, m: int(e < m),
    "rho": lambda e, m: 2,
    "r_half_rho": lambda e, m: 2,
    "tau": lambda e, m: e + 1,
    "tau_of_square": lambda e, m: 2 * e + 1,
    "tau_squared": lambda e, m: (e + 1) ** 2,
    "tau_k": lambda e, m: math.comb(e + m - 1, e),
}

# g(p^e) of the additive functions; chi_P = [Omega = 1], chi_PP = [omega = 1]
_ADDITIVE_RULES = {"omega": lambda p, e: 1, "big_omega": lambda p, e: e,
                   "chi_P": lambda p, e: e, "chi_PP": lambda p, e: 1}


def _multiplicative(N: int, ft: FactorTable, tag: str, m: int | None) -> np.ndarray:
    """Tabulate a multiplicative tag behind its int64 overflow bound.

    ``bound`` must dominate |f| on 1..N; every intermediate of the engine
    is itself a value of f at some divisor of n (f(p^e) and f(rest)), so
    the bound covers the whole computation.
    """
    if tag == "sigma_m" and m == 0:
        tag = "tau"
    if tag in _EXPONENT_RULES:
        rule = _EXPONENT_RULES[tag]
        bound = _signature_max(N, lambda e: rule(e, m), _INT64_MAX)
        fpe = lambda p, e: rule(e, m)
    elif tag == "phi":
        bound = N
        fpe = lambda p, e: p ** (e - 1) * (p - 1)
    elif tag == "sigma_m":
        # sigma_m(n) <= n^m * zeta(m) for m >= 2; <= n (1 + ln n) for m = 1.
        # Summing 1 + p^m + ... + p^(me) keeps every term below the value,
        # which (p^(m(e+1)) - 1) / (p^m - 1) would not.
        bound = N * (2 + math.ceil(math.log(max(N, 2)))) if m == 1 else 2 * N**m
        fpe = lambda p, e: sum(p ** (m * i) for i in range(e + 1))
    else:
        raise DomainError(f"unknown function tag {tag!r}")
    if bound > _INT64_MAX:
        raise CapacityError(
            f"values would exceed int64 (max |f| bound {bound} > {_INT64_MAX})"
        )
    return _tabulate(N, ft, fpe, additive=False)


def _nth_prime_table(N: int, ft: FactorTable) -> np.ndarray:
    if len(ft.primes) < N:
        raise RangeError(
            f"need the first {N} primes but the sieve up to {ft.N} "
            f"holds only {len(ft.primes)}"
        )
    out = np.zeros(N + 1, dtype=np.int64)
    out[1:] = ft.primes[:N]
    return out


def generate(fid: FunctionId, N: int, ft: FactorTable) -> ValueTable:
    """Tabulate the function named by ``fid`` on 1..N from the sieve ``ft``.

    Multiplicative and additive functions come from one pass over the
    smallest prime factors that combines f(p^e) with the finished value at
    n / p^e; chi_P, chi_PP and r_half_rho are read off Omega, omega and rho.
    nth_prime and the fixture sequences have closed forms.  Raises
    CapacityError when int64 cannot hold the result.
    """
    if N < 1:
        raise DomainError(f"table bound must be >= 1, got {N}")
    if fid.tag != "nth_prime" and ft.N < N:
        raise CapacityError(f"factor table covers 2..{ft.N}, need {N}")
    if fid.modulus is not None:
        raise DomainError("generate() produces unreduced tables; use reduce_mod")
    tag = fid.tag

    if tag == "const_one":
        vals = np.ones(N + 1, dtype=np.int64)
    elif tag == "identity_n":
        vals = np.arange(N + 1, dtype=np.int64)
    elif tag in ("thue_morse_pm", "sum_binary_digits"):
        vals = np.bitwise_count(np.arange(N + 1, dtype=np.uint64)).astype(np.int64)
        if tag == "thue_morse_pm":
            vals = 1 - 2 * (vals & 1)
    elif tag == "nth_prime":
        vals = _nth_prime_table(N, ft)
    elif tag in _ADDITIVE_RULES:
        vals = _tabulate(N, ft, _ADDITIVE_RULES[tag], additive=True)
        if tag in ("chi_P", "chi_PP"):
            vals = (vals == 1).astype(np.int64)
    else:
        vals = _multiplicative(N, ft, tag, fid.param)
        if tag == "r_half_rho":
            # 2 r(n) = rho(n) has no integer solution at n = 1 (rho(1) = 1);
            # r(1) = 0 keeps (r mod 2) equal to the prime-power indicator.
            vals >>= 1

    vals[0] = 0
    return ValueTable(id=fid, N=N, values=vals)


def reduce_mod(t: ValueTable, m: int) -> ValueTable:
    """Entrywise least non-negative residue mod m; the id records m."""
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    if t.id.modulus is not None:
        raise DomainError("table is already reduced; reduce the unreduced table")
    fid = FunctionId(t.id.tag, t.id.param, modulus=m)
    vals = np.mod(t.values, m)
    vals[0] = 0
    return ValueTable(id=fid, N=t.N, values=vals)
