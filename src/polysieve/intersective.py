"""p-adic root data, intersectivity verdicts, and auxiliary polynomial towers.

For an integer polynomial h and a fixed choice of p-adic root z_p per prime,
each modulus ell gets a residue r_ell in (-ell, 0] with ell | h(r_ell), a
completely multiplicative scaling lambda(ell), and the rescaled polynomial
h_ell(n) = h(r_ell + ell*n) / lambda(ell), which stays in Z[n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .nt import FACTOR_BOUND, crt, factorize, primes_upto, v_p
from .polycore import IntPoly


class PrecisionExhausted(RuntimeError):
    """Root lifting was inconclusive within the precision/depth budget."""


class MissingRootError(ValueError):
    """No p-adic root exists for a prime dividing ell."""


# ---------------------------------------------------------------------------
# squarefree decomposition (Yun's algorithm over Q, primitive integer output)
# ---------------------------------------------------------------------------


def _q_div(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, bc in enumerate(b):
            a[i + k] -= c * bc
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a or [Fraction(0)]


def _q_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = a[:], b[:]
    while any(b) and (len(b) > 1 or b[0] != 0):
        _, r = _q_div(a, b)
        a, b = b, r
        if len(b) == 1 and b[0] == 0:
            break
    if a[-1] != 0:
        a = [c / a[-1] for c in a]
    return a


def _q_deriv(a: list[Fraction]) -> list[Fraction]:
    if len(a) == 1:
        return [Fraction(0)]
    return [i * c for i, c in enumerate(a) if i >= 1]


def _q_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _primitive(a: list[Fraction]) -> IntPoly:
    den = math.lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = math.gcd(*ints) if any(ints) else 1
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPoly(tuple(ints))


@lru_cache(maxsize=64)
def squarefree_factors(h: IntPoly) -> tuple[tuple[IntPoly, int], ...]:
    """Yun decomposition: pairwise-coprime primitive factors with multiplicities.

    Cached per polynomial: a tower asks for it at every (prime, precision)."""
    if h.is_zero:
        raise ValueError("zero polynomial")
    if h.degree == 0:
        return ()
    f = [Fraction(c) for c in h.coeffs]
    g = _q_gcd(f, _q_deriv(f))
    c, _ = _q_div(f, g)
    d0, _ = _q_div(_q_deriv(f), g)
    d = _q_sub(d0, _q_deriv(c))
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while len(c) > 1:
        a = _q_gcd(c, d)
        if len(a) > 1:
            out.append((_primitive(a), i))
        c, _ = _q_div(c, a)
        dd, _ = _q_div(d, a)
        d = _q_sub(dd, _q_deriv(c))
        i += 1
        if i > h.degree + 2:
            raise AssertionError("squarefree decomposition did not terminate")
    return tuple(out)


# ---------------------------------------------------------------------------
# p-adic roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalRootData:
    p: int
    root: int  # residue in [0, p**precision)
    multiplicity: int
    precision: int

    def residue(self, e: int) -> int:
        if e > self.precision:
            raise ValueError("requested residue beyond stored precision")
        return self.root % self.p**e

    def digit_key(self) -> tuple[int, ...]:
        """Base-p digits, least significant first; a refinement-stable sort key."""
        r, ds = self.root, []
        for _ in range(self.precision):
            r, d = divmod(r, self.p)
            ds.append(d)
        return tuple(ds)

    def to_jsonable(self) -> dict:
        return {
            "p": self.p,
            "root": str(self.root),
            "multiplicity": self.multiplicity,
            "precision": self.precision,
        }


def _newton_lift(f: IntPoly, a: int, m: int, prec: int, p: int) -> int:
    """Lift a to a root residue mod p**prec given v(f(a)) > 2m, v(f'(a)) = m."""
    fp = f.derivative()
    work = prec + m + 2
    mod = p**work
    x = a % mod
    # gap = v(f(x)) - 2m doubles each step; stop once x pins the root mod p**prec
    for _ in range(work + 2):
        fx = f(x) % mod
        if fx == 0:
            break
        t = v_p(fx, p)
        if t - m >= prec:
            break
        der = fp(x)
        unit = der // p**m
        x = (x - (fx // p**m) * pow(unit % mod, -1, mod)) % mod
    return x % p**prec


def _integer_roots(f: IntPoly) -> list[int]:
    """All integer roots of f, ascending: each is an end of a root cell."""
    return sorted({e for c in f.root_cells() for e in (c, c + 1) if f(e) == 0})


class _SquarefreeRootFinder:
    """Digit-by-digit exploration of Z_p roots of a squarefree polynomial.

    Each tree node is the ball {z = a (mod p^d)}. A node terminates when the
    strong Hensel criterion v(f(a)) > 2*v(f'(a)) holds with d > v(f'(a)), an
    exact root f(a) = 0 counting as infinite valuation: the node then contains
    exactly one root, reachable by Newton iteration. A node dies when the
    transformed polynomial has no roots mod p, which certifies v_p(f(z)) = V
    exactly on the whole ball; the maximum such V over dead branches yields a
    checkable non-solvability exponent. The walk runs on construction.
    """

    def __init__(self, f: IntPoly, p: int, prec: int):
        self.f = f
        self.fp = f.derivative()
        self.p = p
        self.prec = max(1, prec)
        self.budget = _factor_budget(f, p, prec)
        self.roots: list[int] = []
        self.max_dead_v = 0
        self._descend(0, 0, f, 0)

    def _descend(self, a: int, d: int, g: IntPoly, vtot: int) -> None:
        p = self.p
        if d >= 1:
            m = v_p(self.fp(a), p) if self.fp(a) != 0 else None
            fa = self.f(a)
            if m is not None and (fa == 0 or v_p(fa, p) > 2 * m) and d >= m + 1:
                self.roots.append(_newton_lift(self.f, a, m, self.prec, p))
                return
        rts = g.roots_mod(p)
        if len(rts) < p:
            self.max_dead_v = max(self.max_dead_v, vtot)
        if not rts:
            return
        if d >= self.budget:
            raise PrecisionExhausted(
                f"lifting inconclusive for p={p} at depth {d}, past the resultant budget"
            )
        for r in rts:
            gg = g.compose_affine(r, p)
            v = min(v_p(c, p) for c in gg.coeffs if c != 0)
            g1 = gg.scale_divide(p**v)
            self._descend(a + r * p**d, d + 1, g1, vtot + v)


@lru_cache(maxsize=64)
def _discriminant_resultant(f: IntPoly) -> int:
    """Res(f, f') by the Euclidean algorithm on _q_div: Res(a, b) =
    (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) with r = a mod b,
    Res(a, b) = 0 when r = 0, and b^deg a for a constant b. Cached per
    factor like its squarefree decomposition."""
    a = [Fraction(c) for c in f.coeffs]
    b = _q_deriv(a)
    res = Fraction(1)
    while len(b) > 1:
        _, r = _q_div(a, b)
        if not any(r):
            return 0
        res *= (-1) ** ((len(a) - 1) * (len(b) - 1)) * b[-1] ** (len(a) - len(r))
        a, b = b, r
    return int(res * b[0] ** (len(a) - 1))


def _factor_budget(f: IntPoly, p: int, precision: int) -> int:
    """Search depth that always suffices: at depth 2 v_p(Res(f, f')) + 1
    every surviving ball passes the Hensel test."""
    res = _discriminant_resultant(f)
    vres = v_p(res, p) if res != 0 else 0
    return max(precision, 2 * vres + 1) + 2


def padic_roots(h: IntPoly, p: int, precision: int) -> list[LocalRootData]:
    """All distinct p-adic roots of h detected to the requested precision,
    sorted by (multiplicity, base-p digits least significant first).

    Simple roots are lifted by Newton iteration; repeated-factor structure is
    resolved first by squarefree decomposition, so each reported multiplicity
    is the multiplicity of the root in h itself.
    """
    if h.degree < 1:
        raise ValueError("padic_roots expects a nonconstant polynomial")
    out: list[LocalRootData] = []
    for f, mult in squarefree_factors(h):
        for r in _SquarefreeRootFinder(f, p, precision).roots:
            out.append(LocalRootData(p, r % p**precision, mult, precision))
    seen = set()
    uniq = []
    for item in sorted(out, key=lambda d: (d.multiplicity, d.digit_key())):
        key = (item.root, item.multiplicity)
        if key not in seen:
            seen.add(key)
            uniq.append(item)
    return uniq


def _padic_solvable(h: IntPoly, p: int) -> tuple[bool, int]:
    """(True, 0) if h has a p-adic root; else (False, e) with no root mod p**e."""
    content = abs(h.content())
    exponent = v_p(content, p) if content > 1 else 0
    for f, mult in squarefree_factors(h):
        finder = _SquarefreeRootFinder(f, p, 1)
        if finder.roots:
            return True, 0
        exponent += mult * finder.max_dead_v
    return False, exponent + 1


# ---------------------------------------------------------------------------
# intersectivity verdict
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certified:
    root: int

    kind = "certified"

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "root": self.root}


@dataclass(frozen=True)
class NotIntersective:
    prime: int
    exponent: int

    kind = "not_intersective"

    @property
    def witness(self) -> int:
        return self.prime**self.exponent

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "prime": self.prime, "exponent": self.exponent,
                "witness": str(self.witness)}


@dataclass(frozen=True)
class EmpiricalUpTo:
    prime_bound: int

    kind = "empirical"

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "prime_bound": self.prime_bound}


Verdict = Union[Certified, NotIntersective, EmpiricalUpTo]


def intersectivity_verdict(h: IntPoly, prime_bound: int) -> Verdict:
    """Three-way verdict: integer-root certificate, finite refutation, or
    empirical solvability at every prime up to the bound."""
    if h.degree < 2:
        raise ValueError("intersectivity_verdict requires degree >= 2")
    roots = _integer_roots(h)
    if roots:
        best = min(roots, key=lambda r: (abs(r), r))
        return Certified(best)
    for p in primes_upto(prime_bound):
        ok, exponent = _padic_solvable(h, p)
        if not ok:
            return NotIntersective(p, exponent)
    return EmpiricalUpTo(prime_bound)


# ---------------------------------------------------------------------------
# auxiliary context and builder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuxiliaryContext:
    base: IntPoly
    ell: int
    r_ell: int
    lambda_ell: int
    aux: IntPoly
    roots: dict[int, LocalRootData] = field(compare=False)
    builder: AuxiliaryBuilder = field(repr=False, compare=False)

    def to_jsonable(self) -> dict:
        return {
            "ell": self.ell,
            "r_ell": self.r_ell,
            "lambda_ell": str(self.lambda_ell),
            "aux": self.aux.to_coeff_strings(),
            "roots": [self.roots[p].to_jsonable() for p in sorted(self.roots)],
        }


def coefficient_bound(h: IntPoly) -> int:
    """A constant R with every coefficient of h_ell bounded by R * ell**(k-1).

    From expanding h(r + ell*n) binomially with |r| < ell and dividing by
    lambda(ell) >= ell: each coefficient is at most
    (k+1) * 2**k * max|a_i| * ell**(k-1).
    """
    k = h.degree
    if k < 2:
        raise ValueError("coefficient_bound requires degree >= 2")
    return (k + 1) * 2**k * h.max_abs_coeff()


class AuxiliaryBuilder:
    """Caches per-prime root choices and builds auxiliary contexts.

    Root selection policy: smallest multiplicity first (slower lambda growth),
    ties broken by base-p digits of the residue, least significant digit
    first, which is stable when the stored precision is later refined. That
    is the first root ``padic_roots`` returns.
    """

    def __init__(self, h: IntPoly):
        if h.degree < 1:
            raise ValueError("nonconstant polynomial required")
        self.h = h
        self._roots: dict[int, list[LocalRootData]] = {}
        self._prec: dict[int, int] = {}
        self._ctx: dict[int, AuxiliaryContext] = {}

    def _ensure_roots(self, p: int, precision: int) -> list[LocalRootData]:
        if self._prec.get(p, 0) < precision:
            found = padic_roots(self.h, p, precision)
            if not found:
                raise MissingRootError(
                    f"h has no {p}-adic root; contexts with {p} | ell are impossible"
                )
            self._roots[p] = found
            self._prec[p] = precision
        return self._roots[p]

    def chosen_root(self, p: int, precision: int = 1) -> LocalRootData:
        return self._ensure_roots(p, precision)[0]

    def _local(self, ell: int) -> dict[int, tuple[int, LocalRootData]]:
        """p -> (v_p(ell), chosen root) for each prime p dividing ell."""
        if not 1 <= ell < FACTOR_BOUND:
            raise ValueError(f"ell must lie in [1, 2^31), not {ell}")
        return {p: (a, self.chosen_root(p, a)) for p, a in factorize(ell).items()}

    def lambda_of(self, ell: int) -> int:
        return _scaling(self._local(ell))

    def context(self, ell: int) -> AuxiliaryContext:
        if ell in self._ctx:
            return self._ctx[ell]
        local = self._local(ell)
        r = _residue(ell, local)
        lam = _scaling(local)
        if self.h(r) % ell != 0:
            raise AssertionError("root residue failed ell | h(r_ell)")
        composed = self.h.compose_affine(r, ell)
        try:
            aux = composed.scale_divide(lam)
        except ValueError as exc:
            raise ValueError(
                f"non-integral quotient at ell={ell}: inconsistent root data"
            ) from exc
        if aux.leading <= 0:
            raise AssertionError("auxiliary polynomial must have positive leading term")
        if self.h.degree >= 2:
            bound = coefficient_bound(self.h) * ell ** (self.h.degree - 1)
            if aux.max_abs_coeff() > bound:
                raise AssertionError("coefficient bound violated")
        # each root at v_p(ell), whatever precision the builder holds it to
        roots = {p: LocalRootData(p, z.residue(a), z.multiplicity, a) for p, (a, z) in local.items()}
        ctx = AuxiliaryContext(self.h, ell, r, lam, aux, roots, self)
        self._ctx[ell] = ctx
        return ctx


def _residue(ell: int, local: dict[int, tuple[int, LocalRootData]]) -> int:
    """r_ell in (-ell, 0]: the CRT of the chosen roots mod p**v_p(ell)."""
    r, _ = crt([(z.residue(a), p**a) for p, (a, z) in local.items()])
    r %= ell
    return r - ell if r > 0 else 0


def _scaling(local: dict[int, tuple[int, LocalRootData]]) -> int:
    """lambda(ell) = prod p**(v_p(ell) * multiplicity of the chosen root)."""
    return math.prod(p ** (a * z.multiplicity) for p, (a, z) in local.items())


@dataclass
class InheritanceReport:
    ell: int
    q: int
    r_ell: int
    r_qell: int
    lambda_q: int
    divisibility_ok: bool
    violations: list[int]

    @property
    def ok(self) -> bool:
        return self.divisibility_ok and not self.violations


def inheritance_check(
    builder: AuxiliaryBuilder, ell: int, q: int, sample_count: int = 50
) -> InheritanceReport:
    """Check the exact identity lambda(q) * h_{q ell}(n) = h_ell(s + q n)
    with s = (r_{q ell} - r_ell)/ell, for n = 1..sample_count."""
    lo = builder.context(ell)
    hi = builder.context(q * ell)
    lam_q = builder.lambda_of(q)
    div_ok = (hi.r_ell - lo.r_ell) % ell == 0
    violations = []
    if div_ok:
        s = (hi.r_ell - lo.r_ell) // ell
        for n in range(1, sample_count + 1):
            if lam_q * hi.aux(n) != lo.aux(s + q * n):
                violations.append(n)
    return InheritanceReport(ell, q, lo.r_ell, hi.r_ell, lam_q, div_ok, violations)
