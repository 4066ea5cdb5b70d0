"""Sieve-based generation of arithmetic-function value tables.

One smallest-prime-factor sieve up to N drives every arithmetic function.
It runs one chunk [a, b) at a time: over the primes p with p^2 < b,
largest first, it strides spf = p across the chunk's multiples of p from
p^2 on, so the last write to a composite n is its smallest prime p, with
no compare or mask; a prime keeps spf 0 and is listed in ``primes``.  It
then splits each n of the chunk once into p, the exponent e with p^e || n
and rest = n / p^e.  Each function is then just its rule for
f(p^e): one pass reads f(p^e) (by e alone where the rule allows) and
combines it with the finished value at rest (a product for multiplicative
functions, a sum for additive ones).  Each table is stored in the narrowest
of int8, int16, int32 and int64 that holds an a-priori exact bound on |f|
over 1..N, so every intermediate fits; past int64 construction refuses
(CapacityError) instead of silently wrapping.  numpy wraps narrow integers
silently, so a caller that does arithmetic on the values (products,
powers, sums, np.abs) widens them to int64 first.

A new function is one ``_TAGS`` row: its table builder, its growth pair
(C, d) and its parameter floor.

Every table the package builds for itself comes from ``build_table``: it
sizes the sieve, runs ``generate`` and reduces by the id's modulus.

A pass over a table holds the table and one block of at most 2^16
entries (``_CHUNK``), never a temporary the size of the table: the sieve
sieves and splits one chunk at a time into its four outputs, the builders
combine, read off and count block by block into the narrow output, and
``residues`` reduces one block at a time into the narrow residue array.

Tables are index-aligned: ``values[n]`` is f(n) for 1 <= n <= N and
``values[0]`` is unused padding (always 0).  Exports emit n = 1..N only:
``to_json`` lists values[1:], and ``write_csv`` formats its rows by array
arithmetic one block of 2^16 rows at a time, one write per block, so the
export's memory does not grow with N.  Every other CSV the package writes
is a header and rows through ``write_rows``.
Sequences are indexed from 1; there is no f(0).
"""

from __future__ import annotations

import csv
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
    """Smallest-prime-factor sieve up to N, with each n split at its
    smallest prime p.

    ``spf[n]`` is p for a composite n and 0 for a prime n and for n = 0, 1;
    ``_smallest_prime`` reads p for a block of n, with n itself where spf
    holds 0.  For 2 <= n <= N, ``exp[n]`` is the e with p^e || n and
    ``rest[n]`` = n / p^e, so rest[n] = 1 or rest[n]'s smallest prime
    exceeds p; index 0 and 1 hold 0.  ``primes`` lists the primes up to N
    in order.  spf, rest and exp are uint16, int32 and int8 (7 bytes per
    n); int32 caps N below 2^31, and a composite's p is at most
    sqrt(N) < 46341 < 2^16.  primes is int32 (4 bytes per prime, 2.5 MiB
    at N = 10^7).
    """

    N: int
    spf: np.ndarray
    rest: np.ndarray = field(repr=False)
    exp: np.ndarray = field(repr=False)
    primes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.spf, self.rest, self.exp, self.primes):
            a.flags.writeable = False


# n is sieved, split and tabulated in chunks of at most this many entries,
# and every other pass over a table reads it in blocks of this many
_CHUNK = 1 << 16


def _blocks(length: int):
    """Slices of at most _CHUNK entries covering 0..length - 1, in order."""
    return [slice(lo, min(lo + _CHUNK, length)) for lo in range(0, length, _CHUNK)]


def _chunks(N: int):
    """[a, b) covering 2..N with b <= 2a, so every n // p with p >= 2 is
    below a and final before its chunk starts."""
    a = 2
    while a <= N:
        b = min(2 * a, a + _CHUNK, N + 1)
        yield a, b
        a = b


def _smallest_prime(spf: np.ndarray, a: int, b: int) -> np.ndarray:
    """The smallest prime factor of each n in [a, b), 2 <= a, in int32:
    spf[n], or n itself where spf[n] is 0 (n prime)."""
    p = spf[a:b].astype(np.int32)
    p += (p == 0) * np.arange(a, b, dtype=np.int32)
    return p


def build_factor_table(N: int) -> FactorTable:
    """Sieve smallest prime factors for 2..N (O(N log log N)) one chunk
    [a, b) of ``_chunks`` at a time, then split each n of the chunk into
    n = p^e * rest from m = n // p: p divides m exactly when spf[m] == p
    or m == p, and then n shares m's rest with one more factor p.

    A chunk writes spf[n] = p over its n with n >= p^2 and p | n, for the
    primes p with p^2 < b, largest first: a composite n is hit by every
    prime q with q^2 <= n and q | n, its smallest prime among them, and
    that one is the last.  Entries still 0 are the chunk's primes.  Since
    b <= 2a, those primes are below a, so the chunks before it found them,
    and every m = n // p is below a and final.  The build holds its four
    outputs and one chunk's temporaries; ``primes`` is filled into the
    bound pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld, x > 1) and then
    shrunk in place."""
    cap = min(max_table_size(), 2**31 - 1)  # rest is int32
    if not 2 <= N <= cap:
        raise CapacityError(f"factor table bound must satisfy 2 <= N <= {cap}, got {N}")
    root = math.isqrt(N)
    spf = np.zeros(N + 1, dtype=np.uint16)
    rest = np.zeros(N + 1, dtype=np.int32)
    exp = np.zeros(N + 1, dtype=np.int8)
    primes = np.empty(math.ceil(1.25506 * N / math.log(N)), dtype=np.int32)
    count = 0
    sieving = []  # the primes up to sqrt(N) found so far, ascending
    for a, b in _chunks(N):
        chunk = spf[a:b]
        for p in reversed(sieving):
            if p * p < b:
                chunk[max(p * p, -(-a // p) * p) - a :: p] = p
        found = np.flatnonzero(chunk == 0)
        found += a
        primes[count : count + len(found)] = found
        count += len(found)
        if a <= root:
            sieving += found[found <= root].tolist()
        p = _smallest_prime(spf, a, b)
        # p divides n, so the float64 quotient is exact
        m = (np.arange(a, b, dtype=np.int32) / p).astype(np.int32)
        exp[a:b], rest[a:b] = 1, m
        deep = np.flatnonzero((spf.take(m) == p) | (m == p))
        below = m.take(deep)
        exp[a + deep] += exp.take(below)
        rest[a + deep] = rest.take(below)
    primes.resize(count, refcheck=False)
    return FactorTable(N=N, spf=spf, rest=rest, exp=exp, primes=primes)


@dataclass(frozen=True)
class ValueTable:
    """An arithmetic function tabulated on 1..N.

    ``values`` has length N+1 and is index-aligned (values[0] is padding);
    it is frozen after construction and safe to share across threads.  Its
    type is the narrowest signed integer type that holds the function's
    bound (see _int_type), so arithmetic on it widens to int64 first.
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

    def json_head(self) -> dict:
        """to_json without its last field, the value list, for a writer
        that streams the values."""
        return {
            "id": self.id.tag,
            "params": {"param": self.id.param, "modulus": self.id.modulus},
            "N": self.N,
        }

    def to_json(self) -> dict:
        return {**self.json_head(), "values": self.values[1:].tolist()}

    def write_csv(self, fh) -> None:
        """Rows "n,value" for n = 1..N under the header "n,value"."""
        fh.write("n,value\n")
        # one write per block of rows, each block one uint8 matrix whose row
        # is [n digits | ',' | '-' or NUL | value digits | '\n'], the digit
        # fields right-aligned and NUL-padded; dropping the NULs leaves the
        # row's text, with the '-' just left of the leading digit
        for lo in range(1, self.N + 1, _CSV_ROWS):
            v = self.values[lo : lo + _CSV_ROWS]
            hi = lo + len(v)
            # np.abs wraps a type's minimum onto itself, and that value's
            # bits read unsigned are its magnitude (2^63 for int64's)
            mag = np.abs(v).view(np.dtype(f"u{v.itemsize}"))
            top = int(mag.max())
            neg = v < 0
            sign = int(neg.any())
            wn, wv = len(str(hi - 1)), len(str(top))
            rows = np.empty((len(v), wn + 1 + sign + wv + 1), dtype=np.uint8)
            _ascii_digits(rows[:, :wn], np.arange(lo, hi, dtype=_digit_type(hi - 1)))
            rows[:, wn] = ord(",")
            if sign:
                np.multiply(neg, ord("-"), out=rows[:, wn + 1], casting="unsafe")
            _ascii_digits(rows[:, wn + 1 + sign : -1], mag.astype(_digit_type(top)))
            rows[:, -1] = ord("\n")
            fh.write(rows[rows != 0].tobytes().decode("ascii"))


def write_rows(fh, header, rows) -> None:
    """CSV of ``header`` and then each of ``rows``, every line ended by a
    bare line feed: a float is written as its repr (NaN as nan), and a
    field is quoted only where it holds a comma, a quote or a line break."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


# rows per CSV block; a row of its matrix takes at most the digits of N
# plus 22 bytes (int64's minimum is 20 characters), 30 at N = 10^7
_CSV_ROWS = 1 << 16


def _digit_type(top: int) -> type:
    """The unsigned type digit extraction runs in for magnitudes <= top:
    floor division of uint32 by a scalar is the fast path."""
    return np.uint32 if top < 2**32 else np.uint64


def _ascii_digits(out: np.ndarray, mag: np.ndarray) -> None:
    """Write the decimal digits of the unsigned ``mag`` into the uint8
    columns ``out``, one row per entry, right-aligned as ASCII with NUL
    left of the leading digit; ``out`` is as wide as the largest entry."""
    ten = mag.dtype.type(10)
    last = out.shape[1] - 1
    for j in range(last, -1, -1):
        # digit = mag - 10 * (mag // 10): array % is ~12x slower than this
        q = mag // ten
        col = out[:, j]
        np.subtract(mag, q * ten, out=col, casting="unsafe")
        # the units digit always shows, a higher one while digits remain
        col += np.uint8(48) if j == last else np.uint8(48) * (mag != 0)
        mag = q


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


def _tabulate(N: int, ft: FactorTable, fpe, additive: bool, dtype) -> np.ndarray:
    """f on 1..N from its prime-power values and the split in ``ft``, in
    ``dtype``.

    For n >= 2 with p^e || n at p = spf[n] and rest = n / p^e, a
    multiplicative f has f(n) = f(p^e) f(rest) and an additive one
    f(n) = f(p^e) + f(rest).  ``fpe(ft, a, b, out)`` returns f(p^e) for the
    n in [a, b).  Everything below a is final before the chunk [a, b)
    starts, rest and p^(e-1) included; f(rest) is read with ``take`` and
    combined straight into out[a:b].
    """
    out = np.empty(N + 1, dtype=dtype)
    out[0], out[1] = 0, 0 if additive else 1
    combine = np.add if additive else np.multiply
    for a, b in _chunks(N):
        combine(fpe(ft, a, b, out), out.take(ft.rest[a:b]), out=out[a:b])
    return out


_INT_TYPES = (np.int8, np.int16, np.int32, np.int64)


def _int_type(bound: int) -> type:
    """The first of int8, int16, int32 and int64 whose maximum is at least
    ``bound``; CapacityError past int64."""
    for dtype in _INT_TYPES:
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise CapacityError(f"values would exceed int64 (max |f| bound {bound} > {_INT64_MAX})")


def _largest_abs(values: np.ndarray) -> int:
    """max |v| over the entries, as a Python int (so int64's minimum fits);
    0 for no entries."""
    return max(-int(values.min()), int(values.max())) if values.size else 0


# Table builders: table(N, ft, m) returns the values on 0..N for the
# parameter m in _int_type of an exact bound on |f| over 1..N.  A builder
# takes its bound before any f(p^e) is formed; every intermediate of
# _tabulate is a value of f at some divisor of n, so the bound covers the
# whole pass.


def _by_exponent(rule, additive: bool = False):
    """Builder for f(p^e) = rule(e, m), read from one table over
    0 <= e < bit_length(N).  A multiplicative rule is bounded by the exact
    _signature_max.  An additive f sums rule(e_i) over the p_i^e_i || n,
    so |f(n)| <= Omega(n) max_e |rule(e)| / e with Omega(n) <= log2 N."""

    def table(N: int, ft: FactorTable, m) -> np.ndarray:
        f = lambda e: rule(e, m)
        top = N.bit_length() - 1  # floor(log2 N): no exponent is larger
        if additive:
            bound = max((top * abs(f(e)) // e for e in range(1, top + 1)), default=0)
        else:
            bound = _signature_max(N, f, _INT64_MAX)
        dtype = _int_type(bound)
        lut = np.array([f(e) for e in range(top + 1)], dtype=dtype)
        return _tabulate(N, ft, lambda ft, a, b, out: lut.take(ft.exp[a:b]), additive, dtype)

    return table


def _phi_table(N: int, ft: FactorTable, m) -> np.ndarray:
    """phi(p^e) = p^e - p^(e-1), with p^e = n / rest in int32 (the factor
    table's layout keeps N below 2^31); phi(n) <= N."""

    def fpe(ft, a, b, out):
        pe = np.arange(a, b, dtype=np.int32) // ft.rest[a:b]
        return pe - pe // _smallest_prime(ft.spf, a, b)

    return _tabulate(N, ft, fpe, additive=False, dtype=_int_type(N))


def _sigma_table(N: int, ft: FactorTable, m: int) -> np.ndarray:
    """sigma_m(p^e) = 1 + p^m sigma_m(p^(e-1)), with p^(e-1) = n / rest / p
    read from ``out``.  Every intermediate stays below the value, which
    (p^(m(e+1)) - 1) / (p^m - 1) would not.  sigma_0 is tau."""
    if m == 0:
        return _TAGS["tau"].table(N, ft, m)
    # sigma_m(n) <= n^m * zeta(m) for m >= 2; <= n (1 + ln n) for m = 1
    dtype = _int_type(N * (2 + math.ceil(math.log(max(N, 2)))) if m == 1 else 2 * N**m)

    def fpe(ft, a, b, out):
        p = _smallest_prime(ft.spf, a, b)
        below = out.take(np.arange(a, b, dtype=np.int32) // ft.rest[a:b] // p)
        return 1 + p.astype(dtype) ** m * below

    return _tabulate(N, ft, fpe, additive=False, dtype=dtype)


def _read_off(tag: str, op):
    """Builder for op applied to the table of ``tag``, in the type that
    the largest |value| of the result needs.  op runs block by block: once
    to find that largest |value|, then again into the output."""

    def table(N: int, ft: FactorTable, m) -> np.ndarray:
        src = _TAGS[tag].table(N, ft, m)
        blocks = _blocks(N + 1)
        out = np.empty(N + 1, dtype=_int_type(max(_largest_abs(op(src[b])) for b in blocks)))
        for b in blocks:
            out[b] = op(src[b])
        return out

    return table


def _nth_prime_table(N: int, ft: FactorTable, m) -> np.ndarray:
    """The first N primes, in the type that p_N needs."""
    if len(ft.primes) < N:
        raise RangeError(
            f"need the first {N} primes but the sieve up to {ft.N} "
            f"holds only {len(ft.primes)}"
        )
    out = np.zeros(N + 1, dtype=_int_type(int(ft.primes[N - 1])))
    out[1:] = ft.primes[:N]
    return out


def _sum_binary_digits_table(N: int, ft: FactorTable, m) -> np.ndarray:
    """The 1 bits of n, counted block by block; at most 63, so int8."""
    out = np.empty(N + 1, dtype=np.int8)
    for b in _blocks(N + 1):
        out[b] = np.bitwise_count(np.arange(b.start, b.stop, dtype=np.uint64))
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
    "chi_P": _Tag(_read_off("big_omega", lambda v: v == 1), (1.0, 0.0)),
    "chi_PP": _Tag(_read_off("omega", lambda v: v == 1), (1.0, 0.0)),
    "nth_prime": _Tag(_nth_prime_table, (2.0, 1.25)),
    "tau_of_square": _Tag(_by_exponent(lambda e, m: 2 * e + 1), (8.45, 0.5)),
    "tau_squared": _Tag(_by_exponent(lambda e, m: (e + 1) ** 2), (72.0, 0.5)),
    "const_one": _Tag(lambda N, ft, m: np.ones(N + 1, dtype=np.int8), (1.0, 0.0)),
    "thue_morse_pm": _Tag(_read_off("sum_binary_digits", lambda v: 1 - 2 * (v & 1)), (1.0, 0.0)),
    "sum_binary_digits": _Tag(_sum_binary_digits_table, (2.6, 0.25)),
    "identity_n": _Tag(lambda N, ft, m: np.arange(N + 1, dtype=_int_type(N)), (1.0, 1.0)),
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
    with the builder of its _TAGS row, in _int_type of the row's bound.
    Raises CapacityError when int64 cannot hold the result."""
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
    """Entrywise least non-negative residues mod m in one new array of the
    narrowest type that holds m - 1, written block by block.

    Computed as v - m * floor(v / m) (np.mod is slower, most of all on
    negative entries), whose intermediates lie within |v| + m of 0: in the
    values' own type when max |v| + m fits it, else in the narrowest wider
    type that holds it, then narrowed into the output.  Past int64,
    np.fmod's truncated remainder, which never overflows, is moved up by m
    where negative.
    """
    out = np.empty(len(values), dtype=_int_type(m - 1))
    reach = _largest_abs(values) + m
    wide = np.int64 if reach > _INT64_MAX else np.promote_types(values.dtype, _int_type(reach))
    # a block is worked in ``out`` itself when that is the working type
    scratch = None if out.dtype == wide else np.empty(_CHUNK, dtype=wide)
    for b in _blocks(len(values)):
        r = out[b] if scratch is None else scratch[: b.stop - b.start]
        if reach > _INT64_MAX:
            np.fmod(values[b], m, out=r, dtype=np.int64)
            r[r < 0] += m
        else:  # the values are widened as the ufunc reads them
            np.floor_divide(values[b], m, out=r, dtype=wide)
            r *= m
            np.subtract(values[b], r, out=r, dtype=wide)
        if scratch is not None:
            out[b] = r
    return out


def reduce_mod(t: ValueTable, m: int) -> ValueTable:
    """The table's residues mod m, 2 <= m <= 2^63 - 1, in the narrowest
    type that holds m - 1; the id records m."""
    if t.id.modulus is not None:
        raise DomainError("table is already reduced; reduce the unreduced table")
    fid = FunctionId(t.id.tag, t.id.param, modulus=m)
    vals = residues(t.values, m)
    vals[0] = 0
    return ValueTable(id=fid, N=t.N, values=vals)
