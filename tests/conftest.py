import math

import numpy as np
import pytest

from kernelscope.seqgen import FunctionId, build_factor_table, generate, reduce_mod


@pytest.fixture(scope="session")
def ft_1m():
    return build_factor_table(10**6)


@pytest.fixture(scope="session")
def table(ft_1m):
    """Cached table factory: table(tag, param=None, N=10**6, mod=None)."""
    cache = {}

    def get(tag, param=None, N=10**6, mod=None):
        key = (tag, param, N, mod)
        if key not in cache:
            t = generate(FunctionId(tag, param), N, ft_1m)
            if mod is not None:
                t = reduce_mod(t, mod)
            cache[key] = t
        return cache[key]

    return get


# --- independent oracles (no kernelscope internals) --------------------------


def trial_factorization(n: int) -> dict[int, int]:
    """Plain trial division, independent of the sieve code."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_divisors(n: int) -> list[int]:
    """Every divisor of n, ascending: each d <= isqrt(n) dividing n, and n // d."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def bool_prime_sieve(limit: int) -> np.ndarray:
    """Classic boolean Eratosthenes, distinct from the spf construction."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return is_prime


def squarefree_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for k in range(2, math.isqrt(limit) + 1):
        mask[k * k :: k * k] = False
    return mask
