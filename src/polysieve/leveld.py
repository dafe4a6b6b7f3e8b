"""Pairwise-coprime modulus families and the level-d energy audit.

A family holds one distinguished highly-composite member (a large power of a
primorial) plus maximal prime powers in an interval. The level-d energy sums
|f^(a/R_S)|^2 over the member sets S of size d and the residues a mod R_S
that no member of S divides; level_d_energy evaluates it in closed form from
one autocorrelation of f, and level_d_audit checks it against the paper's
bound next to the density alternative.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Optional, Sequence

import numpy as np

from .harmonic import _autocorrelation
from .increment import IncrementConfig
from .nt import primes_upto

C0 = 2.0**13  # the level-d bound is alpha^2 X^2 (C0 L / d)^d


@dataclass
class ModulusFamily:
    members: list[int]  # distinguished member first

    @property
    def distinguished(self) -> int:
        return self.members[0]

    @classmethod
    def from_members(cls, members: Sequence[int]) -> "ModulusFamily":
        """Ad-hoc family from explicit members (first member distinguished),
        each checked by one gcd against the product of those before it."""
        ms = list(members)
        before = 1
        for m in ms:
            if m < 1:
                raise ValueError(f"family members must be at least 1, not {m}")
            if math.gcd(m, before) != 1:
                raise ValueError(f"family members must be pairwise coprime; {m} shares a factor")
            before *= m
        return cls(ms)


def _product(xs: Sequence[int]) -> int:
    """Product of xs by a balanced tree: the operands of each multiplication
    have about equal size, where multiplying one at a time into a growing
    product would cost time quadratic in its length."""
    xs = list(xs)
    while len(xs) > 1:
        xs = [math.prod(xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def build_family(variant: int, alpha: float, cfg: IncrementConfig) -> ModulusFamily:
    """Variant 1: smooth cutoff L^(2+eps), distinguished exponent
    ceil(2(2+eps)L), reach max(C1 alpha^-(2+eps), L^(2+eps)).
    Variant 2: smooth cutoff C3 L^(3+eps), exponent ceil(2(2+eps)(log L)^2),
    reach max(C2 L^((2+eps) floor(log L)), C3 L^(3+eps)).
    eps and C1-C3 come from cfg."""
    if not 0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    epsilon = cfg.epsilon
    L = math.log(1.0 / alpha)
    if variant == 1:
        smooth = L ** (2.0 + epsilon)
        exponent = math.ceil(2.0 * (2.0 + epsilon) * L)
        p_max = max(cfg.C1 * alpha ** -(2.0 + epsilon), smooth)
    elif variant == 2:
        if L <= 1.0:
            raise ValueError("variant 2 needs log(1/alpha) > 1")
        smooth = cfg.C3 * L ** (3.0 + epsilon)
        exponent = math.ceil(2.0 * (2.0 + epsilon) * math.log(L) ** 2)
        p_max = max(cfg.C2 * L ** ((2.0 + epsilon) * math.floor(math.log(L))), smooth)
    else:
        raise ValueError("variant must be 1 or 2")
    # coprime by construction: the primes up to the cutoff, then one power
    # of each larger prime
    smooth_primes = primes_upto(int(smooth))
    members = [_product(smooth_primes) ** exponent]
    for p in primes_upto(int(p_max)):
        if p <= smooth:
            continue
        b = 1
        while p ** (b + 1) <= p_max:
            b += 1
        members.append(p**b)
    return ModulusFamily(members)


@dataclass
class LevelDReport:
    d: int
    alpha: float
    X: int
    lhs: float  # an exact int when f is a 0/+-1 mask
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


def _small_subsets(
    members: Sequence[int], bound: int, max_size: int
) -> list[tuple[tuple[int, ...], int]]:
    """(U, R_U) for every member set U with |U| <= max_size and product
    R_U <= bound, the empty set included: one depth-first walk over the
    members in ascending order, which leaves a branch at the first member
    that takes the product past bound."""
    ms = sorted(m for m in members if m <= bound)
    out: list[tuple[tuple[int, ...], int]] = []

    def walk(start: int, U: tuple[int, ...], R: int) -> None:
        out.append((U, R))
        if len(U) == max_size:
            return
        for i in range(start, len(ms)):
            if R * ms[i] > bound:
                break
            walk(i + 1, U + (ms[i],), R * ms[i])

    walk(0, (), 1)
    return out


def _elementary(members: Sequence[int], d: int) -> int:
    """e_d(m_1 - 1, ..., m_n - 1) in Python ints. The first (distinguished)
    member, which can have millions of bits, is folded in once at the end:
    e_d = e_d(rest) + (m_0 - 1) e_{d-1}(rest)."""
    e = [1] + [0] * d
    for m in islice(members, 1, None):
        x = m - 1
        for j in range(d, 0, -1):
            e[j] += e[j - 1] * x
    return e[d] + (members[0] - 1) * e[d - 1]


def level_d_energy(f: np.ndarray, Q: ModulusFamily, d: int) -> float:
    """Left side of the level-d inequality: sum over |S| = d and residues a
    mod R_S with no member of S dividing a, of |f^(a/R_S)|^2; f is real.

    Inclusion-exclusion over the members dividing a, then Parseval, give
    R(0) e_d(m_i - 1) + 2 sum_U (-1)^(d-|U|) C(n-|U|, d-|U|) R_U
    sum_{k>=1} R(k R_U), R the autocorrelation of f on [1, X] and U over the
    member sets of at most d members with R_U <= X (_small_subsets); every
    larger U has no lag k R_U < X. For a 0/+-1 mask R is rounded to
    integers and the energy is an exact int; any other f is summed in
    Fractions over the float R and rounded once to float, which raises
    OverflowError out of float range."""
    if np.iscomplexobj(f):
        raise ValueError("f must be real")
    n = len(Q.members)
    if not 1 <= d <= n:
        raise ValueError("d out of range")
    R = _autocorrelation(f)
    exact = bool(np.isin(f, (-1, 0, 1)).all())
    if exact:
        rounded = np.rint(R)
        R -= rounded
        if np.abs(R, out=R).max() > 0.25:
            raise ArithmeticError("autocorrelation of an integer mask is not near integers")
        R = rounded.astype(np.int64)
        lag0, tail = int(R[0]), lambda r: int(R[r::r].sum())
    else:
        lag0, tail = Fraction(R[0]), lambda r: Fraction(math.fsum(R[r::r]))
    total = lag0 * _elementary(Q.members, d)
    for U, r in _small_subsets(Q.members, len(f), d):
        k = len(U)
        total += (-1) ** (d - k) * 2 * math.comb(n - k, d - k) * r * tail(r)
    return total if exact else float(total)


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


def _class_means(padded: np.ndarray, X: int, R: int) -> np.ndarray:
    """The mean of |f| over the n in [1, X] with n = r mod R, r = 0..R-1,
    for R <= X, from padded: |f| at the positions 0..2X, zero but at 1..X.
    Its first rows * R entries, as rows of R, hold each class in one
    column, summed row after row; each class's count is a closed form."""
    rows = X // R + 1
    sums = padded[: rows * R].reshape(rows, R).sum(axis=0)
    r = np.arange(R)
    return sums / ((X - r) // R + (r > 0))


def level_d_audit(
    f: np.ndarray,
    Q: ModulusFamily,
    d: int,
    alpha: float,
) -> LevelDReport:
    """Evaluate both branches of the level-d dichotomy for real |f| <= 1 on [X].

    Branch 2 looks, size by size, for a member set S whose progressions mod
    R_S hold a mean of |f| above 2^|S| alpha. A set with R_S > X puts at
    most one point in each progression, so its best mean is max|f|; only
    the sets with R_S <= X (_small_subsets) are folded, and a size whose
    threshold reaches max|f| ends the search. Hypotheses are checked and
    reported; the audit still runs when they fail so desk-scale behavior
    is observable."""
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
    rhs = alpha**2 * X**2 * (C0 * L / d) ** d
    # density alternative: average of |f| over progressions mod R_S
    absf = np.abs(f)
    top = float(absf.max())
    n = len(Q.members)
    sizes = [s for s in range(1, min(n, int(2.0 * L)) + 1) if 2.0**s * alpha < top]
    small = _small_subsets(Q.members, X, len(sizes))
    padded = np.zeros(2 * X + 1)  # for _class_means
    padded[1 : X + 1] = absf
    found = False
    bS = br = bavg = bthr = None
    for size in sizes:
        thr = 2.0**size * alpha
        folded = [(U, R) for U, R in small if len(U) == size]
        if len(folded) < math.comb(n, size):  # some S of this size has R_S > X
            found = True
            bS = heapq.nlargest(size, Q.members)
            br = int(np.argmax(absf)) + 1
            bavg = top
            bthr = thr
            break
        for U, R in folded:
            means = _class_means(padded, X, R)
            r_at = int(np.argmax(means))
            if means[r_at] > thr:
                found = True
                bS = list(U)
                br = r_at
                bavg = float(means[r_at])
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
