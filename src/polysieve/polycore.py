"""Exact integer polynomials with arbitrary-precision coefficients.

Coefficients are stored constant term first, so ``coeffs[i]`` is the
coefficient of x**i. IntPoly is the package's one polynomial evaluator: at
a scalar or elementwise on an integer array, optionally mod m or, on an
array, mod 2**64 in wrapping uint64. Evaluation is exact; an array uses
int64 only where no intermediate can overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


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
        """self(x) for a scalar, or elementwise for an integer ndarray.

        An array is evaluated in int64 when sum |c_i| * top**i < 2**63 with
        top = max(1, max|x|), which bounds every coefficient and every Horner
        intermediate, and in exact object integers otherwise; the result has
        that dtype.
        """
        if isinstance(x, np.ndarray):
            top = max(1, int(x.max(initial=0)), -int(x.min(initial=0)))
            bound = sum(abs(c) * top**i for i, c in enumerate(self.coeffs))
            x = x.astype(np.int64 if bound < 1 << 63 else object, copy=False)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mod(self, x, m: int):
        """self(x) mod m in [0, m), for a scalar or an integer ndarray.

        Coefficients and array elements are reduced mod m first; an array
        needs 1 <= m < 2**31 so that every product of two residues fits in
        int64.
        """
        if isinstance(x, np.ndarray):
            if not 1 <= m < 1 << 31:
                raise ValueError("eval_mod on an array needs 1 <= m < 2^31")
            x = (x % m).astype(np.int64, copy=False)
        cs = [c % m for c in self.coeffs]
        acc = 0
        for c in reversed(cs):
            acc = (acc * x + c) % m
        return acc

    def eval_low64(self, x: np.ndarray) -> np.ndarray:
        """self(x) mod 2**64 as uint64, elementwise on an integer ndarray.

        Horner in wrapping uint64 arithmetic on the coefficients and the
        elements mod 2**64: exact for any coefficient size, since mod 2**64
        is a ring homomorphism, and never builds the values themselves.
        """
        if x.dtype == object:
            x = x & ((1 << 64) - 1)
        x = x.astype(np.uint64)
        acc = np.zeros(x.shape, dtype=np.uint64)
        for c in reversed(self.coeffs):
            acc *= x
            acc += np.uint64(c % (1 << 64))
        return acc

    def roots_mod(self, m: int) -> list[int]:
        """Residues r in [0, m) with self(r) = 0 (mod m), by evaluation at
        every residue; needs 1 <= m < 2**31."""
        if not 1 <= m < 1 << 31:
            raise ValueError("roots_mod needs 1 <= m < 2^31")
        if m <= 16:  # numpy's per-call cost exceeds a scalar loop this small
            return [r for r in range(m) if self.eval_mod(r, m) == 0]
        return np.flatnonzero(self.eval_mod(np.arange(m), m) == 0).tolist()

    def largest_n_at_most(self, X: int) -> int:
        """Largest n >= 1 with self(n) <= X, or 0 when there is none; the
        leading coefficient must be positive."""
        return IntPoly((self.coeffs[0] - X, *self.coeffs[1:])).last_nonpositive(1)

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
        return math.gcd(*self.coeffs)

    def max_abs_coeff(self) -> int:
        return max(abs(c) for c in self.coeffs)

    def cauchy_bound(self) -> int:
        """Integer B such that every real root x satisfies |x| < B."""
        if self.degree == 0:
            return 1
        # 2 + ceil(max |c_i| / |lead|), in integers so that no float overflows
        return 2 - (-max(abs(c) for c in self.coeffs[:-1]) // abs(self.leading))

    def root_cells(self) -> list[int]:
        """Ascending integers c such that every real root lies in some cell
        [c, c + 1], by derivative-sequence isolation (Collins and Loos, 1982)
        in integers: the derivative's cells are kept, and between other
        consecutive ends of them and the Cauchy bounds self is monotone, so a
        sign change there is bisected down to one cell. A cell may hold none."""
        if self.degree < 1:
            return []
        cells = set(self.derivative().root_cells())
        bound = self.cauchy_bound()
        ends = sorted({-bound, bound, *cells, *(c + 1 for c in cells)})
        for a, b in zip(ends, ends[1:]):
            pa = self(a)
            if pa * self(b) <= 0:
                while b - a > 1:  # a root lies in [a, b]
                    mid = (a + b) // 2
                    a, b = (mid, b) if pa * self(mid) > 0 else (a, mid)
                cells.add(a)
        return sorted(cells)

    def last_nonpositive(self, lo: int = 1) -> int:
        """Largest integer n >= lo with self(n) <= 0, or lo - 1 when there is
        none; the leading coefficient must be positive. Exact: if
        self(n) <= 0 < self(n + 1), a root lies in [n, n + 1), so n is an end
        of a root cell, and only the ends are tested."""
        ends = {e for c in self.root_cells() for e in (c, c + 1)}
        return max((n for n in ends if n >= lo and self(n) <= 0), default=lo - 1)

    def positive_for_all_n_from(self, n0: int = 1) -> bool:
        """True iff self(n) > 0 for every integer n >= n0 (exact check)."""
        return self.leading > 0 and self.last_nonpositive(n0) < n0

    def to_coeff_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

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

    g^(i)(n) = h^(i)(n + C), so C is the largest n >= 1 where h, h' or h''
    is <= 0, or 0 when there is none.
    """
    if h.degree < 2:
        raise ValueError("normalize_positive requires degree >= 2")
    if h.leading <= 0:
        raise ValueError("normalize_positive requires a positive leading coefficient")
    d1 = h.derivative()
    c = max(h.last_nonpositive(), d1.last_nonpositive(), d1.derivative().last_nonpositive())
    return h.shift(c), c
