"""Pairwise-coprime modulus families, fraction lifting, and the level-d
energy audit.

A family holds one distinguished highly-composite member (a large power of a
primorial) plus maximal prime powers in an interval. Every denominator up to
the family's reach divides a product of few members, which is what lets the
energy over reduced fractions be grouped by the minimal cover size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .harmonic import _fold_fft
from .nt import factorize, primes_upto


@dataclass
class ModulusFamily:
    variant: int
    members: list[int]  # distinguished member first
    member_factors: list[dict[int, int]]
    smooth_bound: float  # primes up to this go into the distinguished member
    p_max: float
    params: dict = field(default_factory=dict)

    @property
    def distinguished(self) -> int:
        return self.members[0]

    def pairwise_coprime(self) -> bool:
        seen: set[int] = set()
        for fac in self.member_factors:
            ps = set(fac)
            if ps & seen:
                return False
            seen |= ps
        return True

    def to_jsonable(self) -> dict:
        return {
            "variant": self.variant,
            "smooth_bound": self.smooth_bound,
            "p_max": self.p_max,
            "distinguished": {
                "primes": sorted(self.member_factors[0]),
                "exponent": self.params.get("distinguished_exponent"),
            },
            "members": [
                [{"p": p, "b": b} for p, b in sorted(fac.items())]
                for fac in self.member_factors[1:]
            ],
            "params": {k: v for k, v in self.params.items() if k != "distinguished_exponent"},
        }

    @classmethod
    def from_members(cls, members: Sequence[int], variant: int = 0) -> "ModulusFamily":
        """Ad-hoc family from explicit members (first member distinguished)."""
        ms = list(members)
        fam = cls(
            variant=variant,
            members=ms,
            member_factors=[factorize(m) for m in ms],
            smooth_bound=0.0,
            p_max=float(max(ms)) if ms else 0.0,
        )
        if not fam.pairwise_coprime():
            raise ValueError("family members must be pairwise coprime")
        return fam


def _product(xs: Sequence[int]) -> int:
    """Product of xs by a balanced tree: the operands of each multiplication
    have about equal size, where multiplying one at a time into a growing
    product would cost time quadratic in its length."""
    xs = list(xs)
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def build_family(
    variant: int,
    alpha: float,
    epsilon: float,
    constants: Optional[dict] = None,
) -> ModulusFamily:
    """Variant 1: smooth cutoff L^(2+eps), distinguished exponent
    ceil(2(2+eps)L), reach max(C1 alpha^-(2+eps), L^(2+eps)).
    Variant 2: smooth cutoff C3 L^(3+eps), exponent ceil(2(2+eps)(log L)^2),
    reach max(C2 L^((2+eps) floor(log L)), C3 L^(3+eps))."""
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    consts = {"C1": 10.0, "C2": 100.0, "C3": 100.0}
    consts.update(constants or {})
    L = math.log(1.0 / alpha)
    if variant == 1:
        smooth = L ** (2.0 + epsilon)
        exponent = math.ceil(2.0 * (2.0 + epsilon) * L)
        p_max = max(consts["C1"] * alpha ** -(2.0 + epsilon), smooth)
    elif variant == 2:
        if L <= 1.0:
            raise ValueError("variant 2 needs log(1/alpha) > 1")
        smooth = consts["C3"] * L ** (3.0 + epsilon)
        exponent = math.ceil(2.0 * (2.0 + epsilon) * math.log(L) ** 2)
        p_max = max(consts["C2"] * L ** ((2.0 + epsilon) * math.floor(math.log(L))), smooth)
    else:
        raise ValueError("variant must be 1 or 2")
    smooth_primes = primes_upto(int(smooth))
    members = [_product(smooth_primes) ** exponent]
    factors = [dict.fromkeys(smooth_primes, exponent)]
    for p in primes_upto(int(p_max)):
        if p <= smooth:
            continue
        b = 1
        while p ** (b + 1) <= p_max:
            b += 1
        members.append(p**b)
        factors.append({p: b})
    fam = ModulusFamily(
        variant=variant,
        members=members,
        member_factors=factors,
        smooth_bound=smooth,
        p_max=p_max,
        params={
            "alpha": alpha,
            "epsilon": epsilon,
            "distinguished_exponent": exponent,
            **consts,
        },
    )
    assert fam.pairwise_coprime()
    return fam


def minimal_cover(r: int, Q: ModulusFamily) -> Optional[list[int]]:
    """Indices of the unique minimal member set whose product r divides.

    Pairwise coprimality forces each prime power of r into exactly one
    member, so the minimal cover is the set of those members; None when some
    prime power is uncovered."""
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1:
        return []
    idx: set[int] = set()
    for p, e in factorize(r).items():
        for i, fac in enumerate(Q.member_factors):
            if fac.get(p, 0) >= e:
                idx.add(i)
                break
        else:
            return None
    return sorted(idx)


def l_value(r: int, Q: ModulusFamily) -> float:
    """Minimum number of members whose product r divides; inf if impossible."""
    cover = minimal_cover(r, Q)
    return float(len(cover)) if cover is not None else math.inf


def lift_fraction(a: int, q: int, Q: ModulusFamily) -> tuple[list[int], int]:
    """Rewrite a/q as b/R_S over a minimal member set S, with no member of S
    dividing b. Returns (S as member values, b)."""
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError("need q >= 1 and gcd(a, q) = 1")
    cover = minimal_cover(q, Q)
    if cover is None:
        raise ValueError("q does not divide any product of family members")
    S = [Q.members[i] for i in cover]
    R = math.prod(S)
    b = a * (R // q)
    assert Fraction(a, q) == Fraction(b, R)
    for m in S:
        assert b % m != 0, "lifted numerator divisible by a member"
    return S, b


@dataclass
class LevelDReport:
    d: int
    alpha: float
    X: int
    lhs: float
    rhs: float
    branch1_ok: bool
    branch2_found: bool
    branch2_S: Optional[list[int]]
    branch2_r: Optional[int]
    branch2_average: Optional[float]
    branch2_threshold: Optional[float]
    hypotheses: dict
    hypotheses_ok: bool

    @property
    def dichotomy_ok(self) -> bool:
        return self.branch1_ok or self.branch2_found


def level_d_energy(f: np.ndarray, Q: ModulusFamily, d: int) -> float:
    """Left side of the level-d inequality: sum over |S| = d and residues a
    mod R_S with no member of S dividing a, of |f^(a/R_S)|^2; f is real."""
    if np.iscomplexobj(f):
        raise ValueError("f must be real")
    n_members = len(Q.members)
    if not 1 <= d <= n_members:
        raise ValueError("d out of range")
    if math.comb(n_members, d) > 200000:
        raise ValueError("family too large to enumerate level-d subsets")
    positions = np.arange(1, len(f) + 1)  # f[0] sits at position 1
    total = 0.0
    for combo in combinations(range(n_members), d):
        R = math.prod(Q.members[i] for i in combo)
        if R > 10**7:
            raise ValueError("subset modulus too large to enumerate residues")
        hat = _fold_fft(positions, f, R)
        keep = np.ones(R, dtype=bool)
        for i in combo:
            keep[:: Q.members[i]] = False  # multiples of the member, incl. 0
        total += float(np.sum(np.abs(hat[keep]) ** 2))
    return total


def level_d_energy_bruteforce(f: np.ndarray, Q: ModulusFamily, d: int) -> float:
    """Independent oracle: enumerate every fraction and sum directly."""
    from .harmonic import fourier_point

    X = len(f)
    vals = np.arange(1, X + 1, dtype=np.int64)
    total = 0.0
    for combo in combinations(range(len(Q.members)), d):
        R = math.prod(Q.members[i] for i in combo)
        for a in range(R):
            if any(a % Q.members[i] == 0 for i in combo):
                continue
            z = fourier_point((vals, f), Fraction(a, R))
            total += abs(z) ** 2
    return total


def level_d_audit(
    f: np.ndarray,
    Q: ModulusFamily,
    d: int,
    alpha: float,
    c0: float = 2.0**13,
) -> LevelDReport:
    """Evaluate both branches of the level-d dichotomy for real |f| <= 1 on [X].

    Hypotheses are checked and reported; the audit still runs when they fail
    so desk-scale behavior is observable."""
    f = np.asarray(f)
    X = len(f)
    if np.max(np.abs(f)) > 1 + 1e-12:
        raise ValueError("need |f| <= 1 pointwise")
    L = math.log(1.0 / alpha)
    maxq_log = max(math.log(m) for m in Q.members)
    hypotheses = {
        "alpha_in_range": 0 < alpha < 0.5,
        "alpha_gt_2_over_sqrtX": alpha > 2.0 / math.sqrt(X),
        "max_q_small": maxq_log <= math.log(X) / (32.0 * L) if L > 0 else False,
        "d_in_range": 1 <= d <= 2.0**-7 * L,
    }
    lhs = level_d_energy(f, Q, d)
    rhs = alpha**2 * X**2 * (c0 * L / d) ** d
    # density alternative: average of |f| over progressions mod R_S
    absf = np.abs(f)
    found = False
    bS = br = bavg = bthr = None
    max_size = min(len(Q.members), int(2.0 * L))
    for size in range(1, max_size + 1):
        for combo in combinations(range(len(Q.members)), size):
            R = math.prod(Q.members[i] for i in combo)
            thr = 2.0**size * alpha
            if R > X:
                avg = float(absf.max())
                r_at = int(np.argmax(absf)) + 1
                means = None
            else:
                positions = np.arange(1, X + 1) % R
                sums = np.bincount(positions, weights=absf, minlength=R)
                counts = np.bincount(positions, minlength=R)
                means = sums / np.maximum(counts, 1)
                r_at = int(np.argmax(means))
                avg = float(means[r_at])
            if avg > thr:
                found = True
                bS = [Q.members[i] for i in combo]
                br = r_at
                bavg = avg
                bthr = thr
                break
        if found:
            break
    return LevelDReport(
        d=d,
        alpha=alpha,
        X=X,
        lhs=lhs,
        rhs=rhs,
        branch1_ok=lhs <= rhs,
        branch2_found=found,
        branch2_S=bS,
        branch2_r=br,
        branch2_average=bavg,
        branch2_threshold=bthr,
        hypotheses=hypotheses,
        hypotheses_ok=all(hypotheses.values()),
    )
