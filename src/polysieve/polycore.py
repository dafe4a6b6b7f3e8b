"""Exact integer polynomials with arbitrary-precision coefficients.

Coefficients are stored constant term first, so ``coeffs[i]`` is the
coefficient of x**i. All arithmetic is exact; nothing here touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .nt import gcd_many


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = list(self.coeffs)
        if not all(isinstance(c, int) for c in cs):
            raise TypeError("IntPoly coefficients must be exact integers")
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def of(cls, coeffs: Iterable[int]) -> "IntPoly":
        return cls(tuple(int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    def derivative(self) -> "IntPoly":
        if self.degree == 0:
            return IntPoly((0,))
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def compose_affine(self, r: int, ell: int) -> "IntPoly":
        """The polynomial n -> self(r + ell*n), expanded exactly."""
        if ell < 1:
            raise ValueError("compose_affine requires ell >= 1")
        acc = [self.coeffs[-1]]
        for c in reversed(self.coeffs[:-1]):
            nxt = [0] * (len(acc) + 1)
            for j, a in enumerate(acc):
                nxt[j] += a * r
                nxt[j + 1] += a * ell
            nxt[0] += c
            acc = nxt
        return IntPoly(tuple(acc))

    def shift(self, c: int) -> "IntPoly":
        return self.compose_affine(c, 1)

    def scale_divide(self, d: int) -> "IntPoly":
        """Exact coefficient-wise division; raises if any coefficient resists."""
        if d == 0:
            raise ZeroDivisionError
        out = []
        for c in self.coeffs:
            q, rem = divmod(c, d)
            if rem:
                raise ValueError(f"coefficient {c} not divisible by {d}")
            out.append(q)
        return IntPoly(tuple(out))

    def content(self) -> int:
        return gcd_many(self.coeffs)

    def max_abs_coeff(self) -> int:
        return max(abs(c) for c in self.coeffs)

    def cauchy_bound(self) -> int:
        """Integer B such that every real root x satisfies |x| < B."""
        if self.degree == 0:
            return 1
        lead = abs(self.leading)
        frac = max(abs(c) for c in self.coeffs[:-1]) / lead
        return 1 + math.ceil(1 + frac)

    def positive_for_all_n_from(self, n0: int = 1) -> bool:
        """True iff self(n) > 0 for every integer n >= n0 (exact check)."""
        if self.is_zero:
            return False
        if self.leading < 0:
            return False
        bound = max(n0, self.cauchy_bound() + 1)
        return all(self(n) > 0 for n in range(n0, bound + 1))

    def to_coeff_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Iterable) -> "IntPoly":
        return cls(tuple(int(s) for s in items))

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0 and self.degree > 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return " + ".join(terms).replace("+ -", "- ")


def poly_eval(h: IntPoly, n: int) -> int:
    return h(n)


def normalize_positive(h: IntPoly) -> tuple[IntPoly, int]:
    """Minimal shift C >= 0 with g = h(n + C) and g, g', g'' > 0 on n >= 1.

    Positivity is decided exactly: beyond the Cauchy root bound a polynomial
    with positive leading coefficient has no sign changes, so it suffices to
    test integers up to that bound.
    """
    if h.degree < 2:
        raise ValueError("normalize_positive requires degree >= 2")
    if h.leading <= 0:
        raise ValueError("normalize_positive requires a positive leading coefficient")
    d1 = h.derivative()
    d2 = d1.derivative()
    cap = max(h.cauchy_bound(), d1.cauchy_bound(), d2.cauchy_bound()) + 2
    for c in range(cap + 1):
        g = h.shift(c)
        if (
            g.positive_for_all_n_from(1)
            and g.derivative().positive_for_all_n_from(1)
            and g.derivative().derivative().positive_for_all_n_from(1)
        ):
            return g, c
    raise AssertionError("no positivity shift found below the root bound")
