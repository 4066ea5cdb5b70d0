"""Sieve-based generation of arithmetic-function value tables.

One smallest-prime-factor sieve up to N drives every arithmetic function.
It strides spf[p*p::p] = p over the primes p <= sqrt(N), largest first, so
the last write to a composite n is its smallest prime, with no compare or
mask.  It then splits each n once into p = spf(n), the exponent e with
p^e || n and rest = n / p^e.  Each function is then just its rule for
f(p^e): one pass reads f(p^e) (by e alone where the rule allows) and
combines it with the finished value at rest (a product for multiplicative
functions, a sum for additive ones).  Values are stored as int64 behind an
a-priori exact overflow bound, so construction refuses (CapacityError)
instead of silently wrapping.

A new function is one ``_TAGS`` row: its table builder, its growth pair
(C, d) and its parameter floor.

Every table the package builds for itself comes from ``build_table``: it
sizes the sieve, runs ``generate`` and reduces by the id's modulus.

Tables are index-aligned: ``values[n]`` is f(n) for 1 <= n <= N and
``values[0]`` is unused padding (always 0).  Exports emit n = 1..N only.
Sequences are indexed from 1; there is no f(0).
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ConstructionError, DomainError, RangeError

DEFAULT_MAX_N = 10_000_000
_INT64_MAX = 2**63 - 1


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
    ``modulus`` marks a reduced table: reduce_mod sets it, build_table
    reduces by it, and generate refuses it.
    """

    tag: str
    param: int | None = None
    modulus: int | None = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise DomainError(f"unknown function tag {self.tag!r}")
        low = _TAGS[self.tag].param_min
        if low is None:
            if self.param is not None:
                raise DomainError(f"{self.tag} takes no parameter")
        elif self.param is None or self.param < low:
            raise DomainError(f"{self.tag} requires an integer parameter >= {low}")
        if self.modulus is not None:
            if self.modulus < 2:
                raise DomainError(f"modulus must be >= 2, got {self.modulus}")
            if self.modulus > _INT64_MAX:
                raise DomainError(f"modulus must be <= 2^63 - 1, got {self.modulus}")

    def __str__(self):
        s = self.tag if self.param is None else f"{self.tag}({self.param})"
        if self.modulus is not None:
            s += f" mod {self.modulus}"
        return s

    def growth_bound(self) -> tuple[float, float]:
        """(C, d) with |f(n)| <= C * n**d for all n >= 1, the tag's growth
        row (see _TAGS) or m - 1 for a table reduced mod m.  Used for
        Dirichlet tail bounds."""
        if self.modulus is not None:
            return float(self.modulus - 1), 0.0
        growth = _TAGS[self.tag].growth
        return growth(self.param) if callable(growth) else growth


@dataclass(frozen=True)
class FactorTable:
    """Smallest-prime-factor sieve up to N, with each n split at its spf.

    For 2 <= n <= N, with p = ``spf[n]`` the smallest prime factor of n,
    ``exp[n]`` is the e with p^e || n and ``rest[n]`` = n / p^e, so
    rest[n] = 1 or spf[rest[n]] > p.  Index 0 and 1 hold 0.  n is prime
    exactly when spf[n] == n.  spf, rest and exp are int32, int32 and int8
    (9 bytes per n), which caps N below 2^31.
    """

    N: int
    spf: np.ndarray
    rest: np.ndarray = field(repr=False)
    exp: np.ndarray = field(repr=False)
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.spf, self.rest, self.exp, self.primes):
            a.flags.writeable = False


# n is split and tabulated in chunks of at most this many entries
_CHUNK = 1 << 16


def _chunks(N: int):
    """[a, b) covering 2..N with b <= 2a, so every n // p with p >= 2 is
    below a and final before its chunk starts."""
    a = 2
    while a <= N:
        b = min(2 * a, a + _CHUNK, N + 1)
        yield a, b
        a = b


def build_factor_table(N: int) -> FactorTable:
    """Sieve smallest prime factors for 2..N (O(N log log N)), then split
    each n = p^e * rest from m = n // p: p divides m exactly when
    spf[m] == p, and then n shares m's rest with one more factor p.

    The sieve writes spf[p*p::p] = p for the primes p <= sqrt(N) (from a
    boolean sieve to sqrt(N)), largest first: a composite n is hit by
    every prime q with q^2 <= n and q | n, spf(n) among them since
    spf(n)^2 <= n, and spf(n) is the last of them.  Entries still 0 are
    the primes."""
    cap = min(max_table_size(), 2**31 - 1)  # spf and rest are int32
    if not 2 <= N <= cap:
        raise CapacityError(f"factor table bound must satisfy 2 <= N <= {cap}, got {N}")
    root = math.isqrt(N)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    spf = np.zeros(N + 1, dtype=np.int32)
    for p in np.flatnonzero(small)[::-1].tolist():
        spf[p * p :: p] = p
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    rest = np.zeros(N + 1, dtype=np.int32)
    exp = np.zeros(N + 1, dtype=np.int8)
    for a, b in _chunks(N):
        p = spf[a:b]
        m = np.arange(a, b, dtype=np.int32) // p
        exp[a:b], rest[a:b] = 1, m
        deep = np.flatnonzero(spf.take(m) == p)
        below = m.take(deep)
        exp[a + deep] += exp.take(below)
        rest[a + deep] = rest.take(below)
    return FactorTable(N=N, spf=spf, rest=rest, exp=exp, primes=primes)


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
            "values": self.values[1:].tolist(),
        }

    def write_csv(self, fh) -> None:
        fh.write("n,value\n")
        # one formatted write per block: formatting all N rows at once would
        # hold every value as a Python int (over 1 GiB at N = 10^7)
        for lo in range(1, self.N + 1, 1 << 16):
            block = self.values[lo : lo + (1 << 16)]
            rows = np.empty((len(block), 2), dtype=np.int64)
            rows[:, 0] = np.arange(lo, lo + len(block))
            rows[:, 1] = block
            fh.write("%d,%d\n" * len(block) % tuple(rows.ravel().tolist()))


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


def _tabulate(N: int, ft: FactorTable, fpe, additive: bool) -> np.ndarray:
    """f on 1..N from its prime-power values and the split in ``ft``.

    For n >= 2 with p^e || n at p = spf[n] and rest = n / p^e, a
    multiplicative f has f(n) = f(p^e) f(rest) and an additive one
    f(n) = f(p^e) + f(rest).  ``fpe(ft, a, b, out)`` returns f(p^e) for the
    n in [a, b).  Everything below a is final before the chunk [a, b)
    starts, rest and p^(e-1) included; f(rest) is read with ``take`` and
    combined straight into out[a:b].
    """
    out = np.empty(N + 1, dtype=np.int64)
    out[0], out[1] = 0, 0 if additive else 1
    combine = np.add if additive else np.multiply
    for a, b in _chunks(N):
        combine(fpe(ft, a, b, out), out.take(ft.rest[a:b]), out=out[a:b])
    return out


def _fits_int64(bound: int) -> None:
    if bound > _INT64_MAX:
        raise CapacityError(f"values would exceed int64 (max |f| bound {bound} > {_INT64_MAX})")


# Table builders: table(N, ft, m) returns int64 values on 0..N for the
# parameter m.  A multiplicative builder checks its int64 bound before any
# f(p^e) is formed; every intermediate of _tabulate is at most a value of f
# at some divisor of n, so the bound covers the whole pass.


def _by_exponent(rule, additive: bool = False):
    """Builder for f(p^e) = rule(e, m), read from one table over
    0 <= e < bit_length(N).  A multiplicative rule is bounded by the exact
    _signature_max; an additive f is at most max rule times log2 N."""

    def table(N: int, ft: FactorTable, m) -> np.ndarray:
        f = lambda e: rule(e, m)
        if not additive:
            _fits_int64(_signature_max(N, f, _INT64_MAX))
        lut = np.array([f(e) for e in range(N.bit_length())], dtype=np.int64)
        return _tabulate(N, ft, lambda ft, a, b, out: lut.take(ft.exp[a:b]), additive)

    return table


def _phi_table(N: int, ft: FactorTable, m) -> np.ndarray:
    """phi(p^e) = p^e - p^(e-1), with p^e = n / rest in int32 (the factor
    table's layout keeps N below 2^31)."""
    _fits_int64(N)

    def fpe(ft, a, b, out):
        pe = np.arange(a, b, dtype=np.int32) // ft.rest[a:b]
        return pe - pe // ft.spf[a:b]

    return _tabulate(N, ft, fpe, additive=False)


def _sigma_table(N: int, ft: FactorTable, m: int) -> np.ndarray:
    """sigma_m(p^e) = 1 + p^m sigma_m(p^(e-1)), with p^(e-1) = n / rest / p
    read from ``out``.  Every intermediate stays below the value, which
    (p^(m(e+1)) - 1) / (p^m - 1) would not.  sigma_0 is tau."""
    if m == 0:
        return _TAGS["tau"].table(N, ft, m)
    # sigma_m(n) <= n^m * zeta(m) for m >= 2; <= n (1 + ln n) for m = 1
    _fits_int64(N * (2 + math.ceil(math.log(max(N, 2)))) if m == 1 else 2 * N**m)

    def fpe(ft, a, b, out):
        p = ft.spf[a:b]
        below = out.take(np.arange(a, b, dtype=np.int32) // ft.rest[a:b] // p)
        return 1 + p.astype(np.int64) ** m * below

    return _tabulate(N, ft, fpe, additive=False)


def _read_off(tag: str, op):
    """Builder for op applied to the table of ``tag``."""
    return lambda N, ft, m: op(_TAGS[tag].table(N, ft, m))


def _nth_prime_table(N: int, ft: FactorTable, m) -> np.ndarray:
    if len(ft.primes) < N:
        raise RangeError(
            f"need the first {N} primes but the sieve up to {ft.N} "
            f"holds only {len(ft.primes)}"
        )
    out = np.zeros(N + 1, dtype=np.int64)
    out[1:] = ft.primes[:N]
    return out


@dataclass(frozen=True)
class _Tag:
    """One supported function: its table builder, its growth (C, d), or a
    function of the parameter giving it, and its least parameter (None for
    a tag that takes none)."""

    table: Callable[[int, FactorTable, int | None], np.ndarray]
    growth: tuple[float, float] | Callable[[int], tuple[float, float]]
    param_min: int | None = None


# One row per function tag; ALL_TAGS keeps this order.  Each growth (C, d)
# is an elementary bound |f(n)| <= C n^d for all n >= 1: tau(n) <= 8.45 n^{1/4}
# is the product over p of max_e (e+1) p^{-e/4} (primes >= 17 contribute 1),
# Omega(n) <= log2(n) <= 2.13 n^{1/4}, sigma_m(n) <= zeta(m) n^m for m >= 2,
# p(n) <= 2 n^{5/4}.
_TAGS = {
    "lambda": _Tag(_by_exponent(lambda e, m: (-1) ** e), (1.0, 0.0)),
    "mu": _Tag(_by_exponent(lambda e, m: -1 if e == 1 else 0), (1.0, 0.0)),
    "abs_mu": _Tag(_by_exponent(lambda e, m: int(e < 2)), (1.0, 0.0)),
    "phi": _Tag(_phi_table, (1.0, 1.0)),
    "tau": _Tag(_by_exponent(lambda e, m: e + 1), (8.45, 0.25)),
    "omega": _Tag(_by_exponent(lambda e, m: 1, additive=True), (2.2, 0.25)),
    "big_omega": _Tag(_by_exponent(lambda e, m: e, additive=True), (2.2, 0.25)),
    "rho": _Tag(_by_exponent(lambda e, m: 2), (8.45, 0.25)),
    # 2 r(n) = rho(n) has no integer solution at n = 1 (rho(1) = 1);
    # r(1) = 0 keeps (r mod 2) equal to the prime-power indicator.
    "r_half_rho": _Tag(_read_off("rho", lambda v: v >> 1), (4.25, 0.25)),
    "chi_P": _Tag(_read_off("big_omega", lambda v: (v == 1).astype(np.int64)), (1.0, 0.0)),
    "chi_PP": _Tag(_read_off("omega", lambda v: (v == 1).astype(np.int64)), (1.0, 0.0)),
    "nth_prime": _Tag(_nth_prime_table, (2.0, 1.25)),
    "tau_of_square": _Tag(_by_exponent(lambda e, m: 2 * e + 1), (8.45, 0.5)),
    "tau_squared": _Tag(_by_exponent(lambda e, m: (e + 1) ** 2), (72.0, 0.5)),
    "const_one": _Tag(lambda N, ft, m: np.ones(N + 1, dtype=np.int64), (1.0, 0.0)),
    "thue_morse_pm": _Tag(_read_off("sum_binary_digits", lambda v: 1 - 2 * (v & 1)), (1.0, 0.0)),
    "sum_binary_digits": _Tag(
        lambda N, ft, m: np.bitwise_count(np.arange(N + 1, dtype=np.uint64)).astype(np.int64),
        (2.6, 0.25)),
    "identity_n": _Tag(lambda N, ft, m: np.arange(N + 1, dtype=np.int64), (1.0, 1.0)),
    "tau_k": _Tag(_by_exponent(lambda e, m: math.comb(e + m - 1, e)),
                  lambda m: (8.45 ** (m - 1), 0.25 * (m - 1)), param_min=1),
    "sigma_m": _Tag(_sigma_table, lambda m: (8.45, 0.25) if m == 0
                    else (1.3, 1.25) if m == 1 else (2.0, float(m)), param_min=0),
    "q_m": _Tag(_by_exponent(lambda e, m: int(e < m)), (1.0, 0.0), param_min=2),
}

ALL_TAGS = tuple(_TAGS)


def sieve_bound(fid: FunctionId, N: int) -> int:
    """The least sieve bound that generate needs for fid on 1..N: N, or for
    nth_prime Rosser's p_N < N (ln N + ln ln N), N >= 6, and 12 below that."""
    if fid.tag != "nth_prime":
        return N
    if N < 6:
        return 12
    return math.ceil(N * (math.log(N) + math.log(math.log(N))))


def generate(fid: FunctionId, N: int, ft: FactorTable) -> ValueTable:
    """Tabulate the function named by ``fid`` on 1..N from the sieve ``ft``
    with the builder of its _TAGS row.  Raises CapacityError when int64
    cannot hold the result."""
    if N < 1:
        raise DomainError(f"table bound must be >= 1, got {N}")
    if fid.tag != "nth_prime" and ft.N < N:
        raise CapacityError(f"factor table covers 2..{ft.N}, need {N}")
    if fid.modulus is not None:
        raise DomainError("generate() produces unreduced tables; use reduce_mod")
    vals = _TAGS[fid.tag].table(N, ft, fid.param)
    vals[0] = 0
    return ValueTable(id=fid, N=N, values=vals)


def build_table(fid: FunctionId, N: int) -> ValueTable:
    """The table ``fid`` names on 1..N, reduced mod fid.modulus when set,
    from a sieve of sieve_bound(fid, N) and at least 2."""
    ft = build_factor_table(max(2, sieve_bound(fid, N)))
    t = generate(FunctionId(fid.tag, fid.param), N, ft)
    return t if fid.modulus is None else reduce_mod(t, fid.modulus)


def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division: for single small moduli, not tables."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def residues(values: np.ndarray, m: int) -> np.ndarray:
    """Entrywise least non-negative residues mod m in one new array, as
    v - m * floor(v / m) (np.mod is slower on negative int64 entries)."""
    out = np.floor_divide(values, m)
    out *= m
    np.subtract(values, out, out=out)
    return out


def reduce_mod(t: ValueTable, m: int) -> ValueTable:
    """The table's residues mod m, 2 <= m <= 2^63 - 1; the id records m."""
    if t.id.modulus is not None:
        raise DomainError("table is already reduced; reduce the unreduced table")
    fid = FunctionId(t.id.tag, t.id.param, modulus=m)
    vals = residues(t.values, m)
    vals[0] = 0
    return ValueTable(id=fid, N=t.N, values=vals)
