"""Ground truth for D(F, X): exact maximum avoiding sets, greedy lower
bounds, and forbidden-difference generation from polynomial images.

Sets live as bitmasks in Python integers (bit n set means n is a member),
so pairwise-difference checks collapse to shifts and ANDs.

dmax_table is the solver. The clique-cover branch and bound in
exact_max_avoiding is kept on purpose as its independent cross-check: it
shares no search code with the table, so the checks that compare the two
(perfbench/make_reference.py, the benchmark's reference checks, and the
acceptance tests) do not compare the solver with itself.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .intersective import AuxiliaryContext
from .polycore import IntPoly
from .sieve import SieveTable, w_mask


@dataclass(frozen=True)
class AvoidingSet:
    X: int
    bits: int  # bit n (1-indexed) set iff n is a member

    def __post_init__(self):
        if self.X < 0:
            raise ValueError("X must be nonnegative")
        if self.bits >> (self.X + 1) or self.bits & 1:
            raise ValueError("members must lie in [1, X]")

    @classmethod
    def from_members(cls, X: int, members: Iterable[int]) -> "AvoidingSet":
        bits = 0
        for m in members:
            if not 1 <= m <= X:
                raise ValueError(f"member {m} outside [1, {X}]")
            bits |= 1 << m
        return cls(X, bits)

    @classmethod
    def empty(cls, X: int) -> "AvoidingSet":
        return cls(X, 0)

    @classmethod
    def full(cls, X: int) -> "AvoidingSet":
        return cls(X, ((1 << X) - 1) << 1)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def alpha(self) -> float:
        return self.size / self.X if self.X else 0.0

    def members(self) -> list[int]:
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return out

    def __contains__(self, n: int) -> bool:
        return 0 < n <= self.X and bool(self.bits >> n & 1)

    def to_jsonable(self) -> list[int]:
        return self.members()

    def member_array(self) -> np.ndarray:
        return np.array(self.members(), dtype=np.int64)


def image_values(poly: IntPoly, lo: int, hi: int) -> list[int]:
    """All values of poly over the integers that land in [lo, hi], sorted."""
    vals = set()
    cauchy = poly.cauchy_bound()
    n = 1
    while True:
        v = poly(n)
        if v > hi and poly(n + 1) > v:  # increasing beyond the bound
            break
        if lo <= v <= hi:
            vals.add(v)
        n += 1
        if n > hi + cauchy + 2:
            break
    bound = cauchy + int(round(hi ** (1 / max(poly.degree, 1)))) + 2
    for n in range(-bound, 1):
        v = poly(n)
        if lo <= v <= hi:
            vals.add(v)
    return sorted(vals)


def forbidden_values(
    aux: AuxiliaryContext | IntPoly,
    X: int,
    mode: str = "all",
    U: Optional[float] = None,
    table: Optional[SieveTable] = None,
) -> list[int]:
    """Image of the auxiliary polynomial over positive n, intersected with
    [1, X]; mode "sieved" keeps only n in W(U)."""
    poly = aux.aux if isinstance(aux, AuxiliaryContext) else aux
    if poly.leading <= 0 or not poly.derivative().positive_for_all_n_from(1):
        raise ValueError("forbidden_values requires a polynomial increasing on the naturals")
    if mode not in ("all", "sieved"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sieved" and table is None:
        if U is None:
            raise ValueError("mode 'sieved' needs U or a prebuilt table")
        if not isinstance(aux, AuxiliaryContext):
            raise ValueError("mode 'sieved' needs an AuxiliaryContext")
        table = SieveTable.build(aux, U)
    n_max = poly.largest_n_at_most(X)
    if mode == "all":
        ns = np.arange(1, n_max + 1)
    else:
        ns = np.flatnonzero(w_mask(table, n_max)[1:]) + 1
    # poly increases on n >= 1, so the values come out sorted and distinct
    return [v for v in poly(ns).tolist() if v >= 1]


def _forbidden_mask(F: Sequence[int], X: int) -> int:
    bits = 0
    for f in F:
        if 1 <= f <= X - 1:
            bits |= 1 << f
    return bits


def verify_avoiding(A: AvoidingSet, F: Sequence[int]) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Exhaustive check that no two members differ by an element of F.

    Returns (ok, first violation as (smaller, larger, difference))."""
    fmask = _forbidden_mask(F, A.X)
    f = fmask
    while f:
        low = f & -f
        diff = low.bit_length() - 1
        hit = A.bits & (A.bits >> diff)
        if hit:
            n = (hit & -hit).bit_length() - 1
            return False, (n, n + diff, diff)
        f ^= low
    return True, None


def greedy_avoiding(F: Sequence[int], X: int) -> AvoidingSet:
    """Left-to-right greedy scan admitting n unless it conflicts with an
    earlier member."""
    farr = np.array(sorted({f for f in F if 1 <= f <= X - 1}), dtype=np.int64)
    blocked = np.zeros(X + 1, dtype=bool)
    bits = 0
    for n in range(1, X + 1):
        if not blocked[n]:
            bits |= 1 << n
            if farr.size:
                hits = n + farr[farr <= X - n]
                blocked[hits] = True
    return AvoidingSet(X, bits)


def exhaustive_max_table(F: Sequence[int], X: int) -> list[int]:
    """Brute-force D(F, X') for all X' <= X by scanning all 2**X subsets.

    Dynamic programming over the subset lattice: a subset is independent iff
    its top element does not conflict with the rest and the rest is
    independent. Memory-bound at X <= 24.
    """
    if X > 24:
        raise ValueError("exhaustive oracle capped at X = 24")
    if X == 0:
        return [0]
    conflict = []  # conflict[i] = mask over positions 0..i-1 clashing with i
    fset = {f for f in F if f >= 1}
    for i in range(X):
        m = 0
        for j in range(i):
            if (i - j) in fset:
                m |= 1 << j
        conflict.append(m)
    total = 1 << X
    ind = np.zeros(total, dtype=bool)
    ind[0] = True
    pop = np.zeros(total, dtype=np.int8)
    for b in range(X):
        size = 1 << b
        rest = np.arange(size, dtype=np.int64)
        ind[size : 2 * size] = ind[:size] & ((rest & conflict[b]) == 0)
        pop[size : 2 * size] = pop[:size] + 1
    out = [0]
    best = 0
    for xprime in range(1, X + 1):
        size = 1 << (xprime - 1)
        block = pop[size : 2 * size][ind[size : 2 * size]]
        if block.size:
            best = max(best, int(block.max()))
        out.append(best)
    return out


def exact_max_avoiding(
    F: Sequence[int], X: int, cap: int = 2000
) -> tuple[int, AvoidingSet]:
    """Exact D(F, X) with a witness, by branch and bound on the difference
    graph: vertices in decreasing-degree order, bitset candidate masks, and a
    greedy clique-cover upper bound."""
    if X > cap:
        raise ValueError(f"X = {X} exceeds the exact-search cap {cap}")
    if X == 0:
        return 0, AvoidingSet.empty(0)
    diffs = sorted({f for f in F if 1 <= f <= X - 1})
    adj = [0] * (X + 1)
    for v in range(1, X + 1):
        m = 0
        for f in diffs:
            if v + f <= X:
                m |= 1 << (v + f)
            if v - f >= 1:
                m |= 1 << (v - f)
        adj[v] = m

    order = sorted(range(1, X + 1), key=lambda v: (-adj[v].bit_count(), v))

    seed = greedy_avoiding(diffs, X)
    best_size = seed.size
    best_bits = seed.bits

    def cover_bound(P: int) -> int:
        cliques: list[int] = []  # common-adjacency masks
        count = 0
        for v in order:
            bit = 1 << v
            if not P & bit:
                continue
            for i, cand in enumerate(cliques):
                if cand & bit:
                    cliques[i] = cand & adj[v]
                    break
            else:
                cliques.append(adj[v])
                count += 1
        return count

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * X + 100))

    def dfs(P: int, size: int, chosen: int) -> None:
        nonlocal best_size, best_bits
        if size + P.bit_count() <= best_size:
            return
        if P == 0:
            if size > best_size:
                best_size, best_bits = size, chosen
            return
        if size + cover_bound(P) <= best_size:
            return
        for v in order:
            if P & (1 << v):
                break
        dfs(P & ~(adj[v] | (1 << v)), size + 1, chosen | (1 << v))
        dfs(P & ~(1 << v), size, chosen)

    dfs(((1 << X) - 1) << 1, 0, 0)
    return best_size, AvoidingSet(X, best_bits)


_clock = time.monotonic
_CLOCK_EVERY = 4096  # search nodes between clock readings under a deadline


class TimeBudgetExceeded(RuntimeError):
    """Raised when a table computation overruns its wallclock budget."""

    def __init__(self, partial, msg):
        super().__init__(msg)
        self.partial = partial


def _decide_anchor_py(
    X: int, target: int, D: list[int], fmask: int, deadline: Optional[float] = None
) -> Optional[int]:
    """Anchored decision: a size-target avoiding set inside [1, X] containing
    X, or None. D[1..X-1] must be exact. With a deadline the clock is read
    every _CLOCK_EVERY nodes, and TimeBudgetExceeded is raised once it has
    passed; without one the search does no per-node bookkeeping."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * X + 100))
    found: list[int] = []

    def dfs(n: int, need: int, chosen: int) -> bool:
        if need == 0:
            found.append(chosen)
            return True
        while n >= 1 and chosen & (fmask << n):
            n -= 1  # skip positions conflicting with chosen elements
        if n < need or D[n] < need:
            return False
        if step(n - 1, need - 1, chosen | (1 << n)):
            return True
        return step(n - 1, need, chosen)

    if deadline is None:
        step = dfs
    else:
        nodes = 0

        def step(n: int, need: int, chosen: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes % _CLOCK_EVERY == 0 and _clock() > deadline:
                raise TimeBudgetExceeded(None, f"dmax table stopped at X = {X - 1}")
            return dfs(n, need, chosen)

    if step(X - 1, target - 1, 1 << X):
        return found[0]
    return None


def dmax_table(
    F: Sequence[int],
    X_max: int,
    cap: int = 2000,
    time_budget: Optional[float] = None,
) -> list[tuple[int, int, AvoidingSet]]:
    """Monotone table of (X, D(F, X), witness) for X = 1..X_max.

    Exploits D(F, X+1) in {D(F, X), D(F, X)+1}: any witness of the larger
    value inside [1, X] must contain X, so each step is one anchored decision
    search pruned by the already-known smaller entries (Russian-doll search).
    Refutation steps still grow exponentially on long plateaus; time_budget
    (seconds) aborts, between or inside steps, with the finished rows
    attached to the exception.
    """
    if X_max > cap:
        raise ValueError(f"X_max = {X_max} exceeds the cap {cap}")
    deadline = None if time_budget is None else _clock() + time_budget
    fmask = _forbidden_mask(F, X_max)  # differences beyond X_max-1 never matter
    D = [0]
    out: list[tuple[int, int, AvoidingSet]] = []
    for X in range(1, X_max + 1):
        if deadline is not None and _clock() > deadline:
            raise TimeBudgetExceeded(out, f"dmax table stopped at X = {X - 1}")
        target = D[X - 1] + 1
        try:
            bits = _decide_anchor_py(X, target, D, fmask, deadline)
        except TimeBudgetExceeded as exc:
            exc.partial = out
            raise
        if bits is None:
            D.append(D[X - 1])
            bits = out[-1][2].bits  # X = 1 always succeeds, so out is nonempty
        else:
            D.append(target)
        out.append((X, D[X], AvoidingSet(X, bits)))
    return out
