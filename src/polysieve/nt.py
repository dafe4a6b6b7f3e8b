"""Shared number-theory helpers: primes, factorization, CRT, resultants."""

from __future__ import annotations

import math
from functools import reduce


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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit (and desk-scale bigger) n."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    x, c = 2, 1
    while True:
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        x, c = x + 1, c + 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {p: exponent}; trial division plus Pollard rho."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    inc = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 100000:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += inc[i]
        i = (i + 1) % 8
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                d = _pollard_rho(m)
                stack.extend((d, m // d))
    return dict(sorted(out.items()))


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


def resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials (coefficients constant-first).

    Computed exactly by fraction-free (Bareiss) elimination on the Sylvester
    matrix; degrees here are tiny so this is plenty fast.
    """
    f = list(f)
    g = list(g)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0 or (m == 0 and n == 0):
        return 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    mat = [[0] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(reversed(g)):
            mat[n + i][i + j] = c
    # Bareiss fraction-free Gaussian elimination
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


def gcd_many(values) -> int:
    return reduce(math.gcd, values, 0)
