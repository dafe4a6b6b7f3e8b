"""Shared number-theory helpers: primes, trial factorization, valuations, CRT."""

from __future__ import annotations

import math

FACTOR_BOUND = 1 << 31  # factorize's n, and so the tower's ell, lie in [1, FACTOR_BOUND)


def primes_upto(n: int) -> list[int]:
    """All primes p <= n via a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, v in enumerate(sieve) if v]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of 1 <= n < FACTOR_BOUND = 2^31 as {p: exponent},
    p ascending, by trial division up to sqrt(n) < 46,341."""
    if not 1 <= n < FACTOR_BOUND:
        raise ValueError(f"factorize expects 1 <= n < 2^31, not {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def v_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def crt(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Solve x = r_i (mod m_i) for pairwise coprime m_i; returns (x mod M, M)."""
    r, m = 0, 1
    for ri, mi in pairs:
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError("crt moduli must be pairwise coprime")
        inv = pow(m, -1, mi)
        r = r + m * ((ri - r) * inv % mi)
        m = m * mi
        r %= m
    return r, m
