"""Ground truth for D(F, X): exact maximum avoiding sets, greedy lower
bounds, and forbidden-difference generation from polynomial images.

Sets live as bitmasks in Python integers (bit n set means n is a member),
so pairwise-difference checks collapse to shifts and ANDs. Array code
crosses into and out of that format only through AvoidingSet.indicator and
AvoidingSet.from_indicator.

dmax_table is the solver. Its anchored search, and the scan behind
greedy_avoiding, run in a C kernel, _anchor.c, which is compiled with gcc on
first use into a cache directory under the system temp directory; without
gcc both raise RuntimeError. The clique-cover branch and bound in
exact_max_avoiding is the kernel's oracle, kept on purpose as an independent
cross-check: it shares no search code with the table, so the checks that
compare the two (perfbench/make_reference.py, the benchmark's reference
checks, and the acceptance tests) do not compare the solver with itself. It
seeds its bound with the compiled greedy set, but only after verify_avoiding
has checked that set in Python integers.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from collections.abc import Iterable, Sequence
from typing import Optional

import numpy as np

from .intersective import AuxiliaryContext
from .polycore import IntPoly

EXACT_CAP = 2000  # largest X that exact_max_avoiding and dmax_table take


@dataclass(frozen=True, slots=True)
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
        if X < 0:
            raise ValueError("X must be nonnegative")
        mask = np.zeros(X + 1, dtype=bool)
        for m in members:
            if not 1 <= m <= X:
                raise ValueError(f"member {m} outside [1, {X}]")
            mask[m] = True
        return cls.from_indicator(mask)

    @classmethod
    def from_indicator(cls, mask: np.ndarray) -> "AvoidingSet":
        """The set over [1, len(mask) - 1] whose members are the true
        entries of mask; the inverse of indicator."""
        packed = np.packbits(mask, bitorder="little")
        return cls(len(mask) - 1, int.from_bytes(packed.tobytes(), "little"))

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

    def indicator(self) -> np.ndarray:
        """Bool array of length X + 1 whose entry n says whether n is a
        member (entry 0 is False), as sieve.w_mask."""
        raw = np.frombuffer(self.bits.to_bytes(self.X // 8 + 1, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=self.X + 1, bitorder="little").view(bool)

    def members(self) -> list[int]:
        return self.member_array().tolist()

    def __contains__(self, n: int) -> bool:
        return 0 < n <= self.X and bool(self.bits >> n & 1)

    def to_jsonable(self) -> list[int]:
        return self.members()

    def member_array(self) -> np.ndarray:
        return np.flatnonzero(self.indicator())


def image_values(poly: IntPoly, lo: int, hi: int) -> list[int]:
    """All values of poly over the integers that land in [lo, hi], sorted.

    lo <= poly(n) <= hi can change truth only at an end of a root cell of
    poly - lo or poly - hi, so each gap between consecutive ends is tested
    at one point, and only the member gaps are evaluated."""
    if poly.degree < 1:  # a constant has no cells, and one value
        return [poly(0)] if lo <= poly(0) <= hi else []
    ends = set()
    for level in (lo, hi):
        cells = IntPoly((poly.coeffs[0] - level, *poly.coeffs[1:])).root_cells()
        ends.update(c + i for c in cells for i in (0, 1))
    ends = sorted(ends)
    vals = {v for v in map(poly, ends) if lo <= v <= hi}
    for a, b in zip(ends, ends[1:]):
        if b - a > 1 and lo <= poly(a + 1) <= hi:
            vals.update(poly(np.arange(a + 1, b)).tolist())
    return sorted(vals)


def forbidden_values(aux: AuxiliaryContext, X: int) -> list[int]:
    """Image of the auxiliary polynomial over positive n, intersected with
    [1, X]."""
    poly = aux.aux
    if poly.leading <= 0 or not poly.derivative().positive_for_all_n_from(1):
        raise ValueError("forbidden_values requires a polynomial increasing on the naturals")
    ns = np.arange(1, poly.largest_n_at_most(X) + 1)
    # poly increases on n >= 1, so the values come out sorted and distinct
    return [v for v in poly(ns).tolist() if v >= 1]


def verify_avoiding(A: AvoidingSet, F: Sequence[int]) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Exhaustive check that no two members differ by an element of F.

    Returns (ok, first violation as (smaller, larger, difference))."""
    for diff in sorted({f for f in F if 1 <= f <= A.X - 1}):
        hit = A.bits & (A.bits >> diff)
        if hit:
            n = (hit & -hit).bit_length() - 1
            return False, (n, n + diff, diff)
    return True, None


def greedy_avoiding(F: Sequence[int], X: int) -> AvoidingSet:
    """Left-to-right greedy scan admitting n unless it conflicts with an
    earlier member, run by the kernel's greedy_scan. Only members below n
    block n, so blocked[n] is final when the scan reaches n, and the members
    are the unblocked positions. Raises RuntimeError when the kernel cannot
    be built."""
    _load_kernel()
    farr = np.array(sorted({f for f in F if 1 <= f <= X - 1}), dtype=np.int64)
    blocked = np.zeros(X + 1, dtype=np.uint8)
    blocked[0] = 1
    _greedy(X, len(farr), farr.ctypes.data, blocked.ctypes.data)
    return AvoidingSet.from_indicator(blocked == 0)


def exhaustive_max_table(F: Sequence[int], X: int) -> list[int]:
    """Brute-force D(F, X') for all X' <= X by scanning all 2**X subsets.

    Dynamic programming over the subset lattice: a subset is independent iff
    its top element does not conflict with the rest and the rest is
    independent. Memory-bound at X <= 24. The table depends only on the
    differences in [1, X-1] and is memoized on them; each call returns a
    fresh list.
    """
    if X > 24:
        raise ValueError("exhaustive oracle capped at X = 24")
    return list(_exhaustive_max_table(frozenset(f for f in F if 1 <= f <= X - 1), X))


@lru_cache(maxsize=64)
def _exhaustive_max_table(fset: frozenset[int], X: int) -> tuple[int, ...]:
    if X == 0:
        return (0,)
    conflict = []  # conflict[i] = mask over positions 0..i-1 clashing with i
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
        top = ind[size : 2 * size]  # subsets whose top element is b
        top[:] = ind[:size]
        for j in range(b):
            if conflict[b] >> j & 1:
                top.reshape(-1, 2, 1 << j)[:, 1, :] = False  # the rests holding j
        np.add(pop[:size], 1, out=pop[size : 2 * size])
    out = [0]
    best = 0
    for xprime in range(1, X + 1):
        size = 1 << (xprime - 1)
        block = pop[size : 2 * size][ind[size : 2 * size]]
        if block.size:
            best = max(best, int(block.max()))
        out.append(best)
    return tuple(out)


def exact_max_avoiding(F: Sequence[int], X: int) -> tuple[int, AvoidingSet]:
    """Exact D(F, X) with a witness, by branch and bound on the difference
    graph: vertices in decreasing-degree order, bitset candidate masks, and a
    greedy clique-cover upper bound. X is at most EXACT_CAP."""
    if X > EXACT_CAP:
        raise ValueError(f"X = {X} exceeds the exact-search cap {EXACT_CAP}")
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
    if not verify_avoiding(seed, diffs)[0]:  # the oracle does not trust the compiled scan
        raise RuntimeError(f"the greedy seed at X = {X} has a forbidden difference")
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
_SPLIT_NODES = 1 << 11  # a row splits into jobs when the last row that searched took more nodes
_SPLIT_DEPTH = 6  # the depth of the split's prefix walk: at most 2^6 jobs


class TimeBudgetExceeded(RuntimeError):
    """Raised when a table computation overruns its wallclock budget."""

    def __init__(self, partial, msg):
        super().__init__(msg)
        self.partial = partial


_SOURCE = Path(__file__).with_name("_anchor.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-pthread")
_TICK = ctypes.CFUNCTYPE(ctypes.c_int)
_kernel = None  # anchor_decide from the compiled _anchor.c, once loaded
_greedy = None  # greedy_scan from the same library, loaded with _kernel


def _compiler() -> Optional[str]:
    return shutil.which("gcc")


def _cache_dir() -> Path:
    return Path(tempfile.gettempdir()) / f"polysieve-{os.getuid()}"


def _load_kernel():
    """anchor_decide from _anchor.c, compiled on first use into the cache
    directory under a name keyed by the source and the flags; greedy_scan
    from the same library goes to _greedy. A library that is missing or
    fails to load is built again. Setting _kernel to None loads both anew."""
    global _kernel, _greedy
    if _kernel is not None:
        return _kernel
    # zlib's two checksums, not hashlib, whose OpenSSL adds 3 MiB of memory
    data = _SOURCE.read_bytes() + " ".join(_CFLAGS).encode()
    key = f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"
    cache = _cache_dir()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise RuntimeError(f"not using {cache} for the search kernel: others can write there")
    lib = cache / f"anchor-{key}.so"
    try:
        dll = ctypes.CDLL(str(lib))
    except OSError:  # not built yet, or not a library
        dll = _build_kernel(lib)
    kernel = dll.anchor_decide
    kernel.argtypes = [ctypes.c_int] * 3 + [ctypes.c_void_p] * 5 + [_TICK, ctypes.c_long, ctypes.POINTER(ctypes.c_long), ctypes.c_int]
    kernel.restype = ctypes.c_int
    greedy = dll.greedy_scan
    greedy.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    greedy.restype = None
    _kernel, _greedy = kernel, greedy
    return kernel


def _build_kernel(lib: Path) -> ctypes.CDLL:
    """Compile _anchor.c under a temporary name, load it and rename it to
    lib, so a process never loads a half-written library. The libraries of
    other versions stay, so checkouts of different versions used in turn
    each build theirs once."""
    import subprocess  # here, so that importing polysieve stays as fast

    cc = _compiler()
    if cc is None:
        raise RuntimeError(
            f"the search kernel {_SOURCE.name} (dmax_table, greedy_avoiding, and the greedy, step and "
            "iterate tasks) is built with gcc, and gcc was not found on PATH"
        )
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=lib.parent)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *_CFLAGS, "-o", tmp, str(_SOURCE)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{cc} failed to build {_SOURCE.name} (exit {proc.returncode}):\n{proc.stderr}")
        dll = ctypes.CDLL(tmp)
        os.replace(tmp, lib)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return dll


def _conflict_rows(F: Sequence[int], X_max: int, W: int) -> np.ndarray:
    """Row n, in W words, marks the positions n - f >= 1 for f in F."""
    rev = 0  # bit X_max - f for each difference f that can occur
    for f in set(F):
        if 1 <= f <= X_max - 1:
            rev |= 1 << (X_max - f)
    rows = (((rev >> (X_max - n)) & ~1).to_bytes(8 * W, "little") for n in range(X_max + 1))
    return np.frombuffer(b"".join(rows), dtype="<u8").astype(np.uint64)


@lru_cache(maxsize=8)
def _window_table(diffs: frozenset[int]) -> np.ndarray:
    """The kernel's window table, read-only: entry p, for each 16-bit
    pattern p, is the size of the largest subset of p's positions no two of
    which differ by an element of diffs. A DP over the top bit i of p: skip
    i, or take it and keep only the positions below it that do not clash
    with it. Every temporary is at most 64 KiB: a larger one raises glibc's
    mmap threshold, and the heap stays that much larger for the rest of the
    process. Memoized on the differences, as a 64 KiB table built anew for
    every call scatters the heap between the rows a caller keeps."""
    T = np.zeros(1 << 16, dtype=np.uint8)
    for i in range(16):
        size = 1 << i
        keep = 0xFFFF & ~sum(1 << (i - f) for f in diffs if 1 <= f <= i)
        rest = np.arange(size, dtype=np.uint16)
        rest &= keep  # take i: the positions below i left free
        top = T[size : 2 * size]
        np.take(T, rest, out=top, mode="clip")  # indices are below size: clip never acts
        top += 1
        np.maximum(top, T[:size], out=top)  # or skip i
    T.flags.writeable = False
    return T


class DmaxTable(Sequence):
    """The rows (X, D(F, X), witness) of dmax_table for X = 1..len(table),
    built on access. D rises by at most 1 from row to row, and a row where it
    does not rise has the witness of the row before, so the table keeps one
    bit per row (does D rise here?) and one witness per value of D, packed
    into one buffer of equal-width little-endian words, instead of a tuple
    and an AvoidingSet per row. The column nodes gives, for each row, the
    number of nodes the kernel searched to decide it; it is kept as
    little-endian base-128 varints, since most rows take under 2^14 nodes
    and a row can take more than 2^32."""

    __slots__ = ("_len", "_rises", "_witnesses", "_width", "_nodes")

    def __init__(self, D: np.ndarray, witnesses: bytes, nodes: bytes):
        # D[0] = 0, then D(F, X) for each row X; witnesses holds the bits of
        # the first set found of each size d = 0..D[-1], one after another
        self._len = len(D) - 1
        rises = np.diff(D, prepend=0).astype(bool)  # entry X: D[X] = D[X - 1] + 1
        self._rises = int.from_bytes(np.packbits(rises, bitorder="little").tobytes(), "little")
        self._witnesses = witnesses
        self._width = len(witnesses) // (self._rises.bit_count() + 1)
        self._nodes = nodes

    @property
    def nodes(self) -> list[int]:
        """The kernel's node count of each row, in row order."""
        out, v, shift = [], 0, 0
        for byte in self._nodes:
            v |= (byte & 0x7F) << shift
            shift += 7
            if byte < 0x80:
                out.append(v)
                v, shift = 0, 0
        return out

    def _witness(self, d: int) -> int:
        return int.from_bytes(self._witnesses[d * self._width : (d + 1) * self._width], "little")

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        X = range(1, len(self) + 1)[i]  # negative indices and IndexError as for a list
        d = (self._rises & ((2 << X) - 1)).bit_count()
        return X, d, AvoidingSet(X, self._witness(d))

    def __iter__(self):
        d, bits = 0, 0
        for X in range(1, len(self) + 1):
            if self._rises >> X & 1:
                d += 1
                bits = self._witness(d)
            yield X, d, AvoidingSet(X, bits)  # refuted rows share the witness before them

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented


def dmax_table(
    F: Sequence[int],
    X_max: int,
    time_budget: Optional[float] = None,
) -> DmaxTable:
    """Monotone table of (X, D(F, X), witness) for X = 1..X_max.

    Exploits D(F, X+1) in {D(F, X), D(F, X)+1}: any witness of the larger
    value inside [1, X+1] must contain X+1, and also 1, or shifting it down
    by one would fit it in [1, X]. So each step is one decision search
    anchored at both ends, run by the compiled kernel: it is refuted at once
    when X is a difference, and otherwise pruned by the already-known
    smaller entries (Russian-doll search) and by a window bound: the largest
    avoiding subset of each 16-position block's free positions, read from a
    table of all 2^16 free patterns (_window_table, built on first use for
    each set of differences below 16). The cuts keep every branch that holds
    a witness, so the first witness found is the one the search anchored at
    X+1 alone finds. The table's nodes column counts the kernel's nodes for
    each row. A row splits into jobs when the last row whose search went past
    its root took more than _SPLIT_NODES nodes: the kernel walks the search's
    first _SPLIT_DEPTH levels, makes each node it reaches there a job, in the
    search's order, and runs the jobs on the caller and one thread made for
    the call. The first job in that order that finds a set wins, and the
    row's count is the serial search's: the walk's nodes before the winner
    and the nodes of every job up to it, or every node of a refuted row. So
    D, the witnesses and the counts do not depend on the split. The thread
    runs no Python but the budget's clock, and is joined before the kernel
    returns. Refutation steps still grow exponentially on long plateaus;
    time_budget (seconds) aborts, between or inside steps, with the finished
    rows attached to the exception. Inside a step the kernel asks for the
    clock every _CLOCK_EVERY nodes, and only under a budget. The kernel's
    conflict rows and level masks take about X_max^2/4 bytes (1 MB at
    EXACT_CAP, the largest X_max taken). Raises RuntimeError when the kernel
    cannot be built.
    """
    if X_max > EXACT_CAP:
        raise ValueError(f"X_max = {X_max} exceeds the cap {EXACT_CAP}")
    kernel = _load_kernel()
    X_max = max(X_max, 0)
    deadline = None if time_budget is None else _clock() + time_budget
    W = X_max // 64 + 1  # words holding bits 0..X_max
    rows = _conflict_rows(F, X_max, W)  # differences beyond X_max-1 never matter
    T = _window_table(frozenset(f for f in F if 1 <= f < 16))
    D = np.zeros(X_max + 1, dtype=np.intc)
    nodes = bytearray()  # the node count of each row, as DmaxTable keeps it
    count = ctypes.c_long()
    last = 0  # the node count of the last row whose search went past its root
    masks = np.zeros((X_max + 1) * W, dtype=np.uint64)  # one forbidden mask per level
    found = np.zeros(W, dtype=np.uint64)
    tick = _TICK() if deadline is None else _TICK(lambda: _clock() > deadline)  # _TICK() is NULL
    witnesses = bytearray(8 * W)  # the empty set, of size 0

    def stopped(X):
        partial = DmaxTable(D[:X], bytes(witnesses), bytes(nodes))
        return TimeBudgetExceeded(partial, f"dmax table stopped at X = {X - 1}")

    for X in range(1, X_max + 1):
        if deadline is not None and _clock() > deadline:
            raise stopped(X)
        target = int(D[X - 1]) + 1
        depth = _SPLIT_DEPTH if last > _SPLIT_NODES else 0
        r = kernel(X, target, W, D.ctypes.data, rows.ctypes.data, T.ctypes.data, masks.ctypes.data,
                   found.ctypes.data, tick, _CLOCK_EVERY, ctypes.byref(count), depth)
        if r == -2:
            raise MemoryError(f"the search kernel could not allocate its jobs at X = {X}")
        if r < 0:
            raise stopped(X)
        v = count.value
        last = v if v > 1 else last
        while v >= 0x80:
            nodes.append(v & 0x7F | 0x80)
            v >>= 7
        nodes.append(v)
        if r > 0:
            witnesses += found.astype("<u8").tobytes()
        D[X] = D[X - 1] + (r > 0)
    return DmaxTable(D, bytes(witnesses), bytes(nodes))
