"""Smooth weights, weighted polynomial images, exponential sums, and arcs.

The weight w is a finite convolution of box kernels with widths shrinking
like 1/(j+1)^2, peak-normalized onto [0,1]. The weighted image g places
mass J * h'(n) * w(h(n)/X) at +-h(n) for sieved n. Fourier data is computed
either pointwise (exact phase reduction) or on a grid by FFT (for the real
even g, by a cosine transform at half the length).
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .intersective import AuxiliaryContext
from .search import AvoidingSet
from .sieve import SieveTable, J_factor, in_W, w_mask

TWO_PI = 2.0 * math.pi
_SAMPLES_PER_UNIT = 4  # weight_fourier_audit samples w^ at t = m / 4


# ---------------------------------------------------------------------------
# smooth weight
# ---------------------------------------------------------------------------


@dataclass
class SmoothWeight:
    grid: np.ndarray  # samples on a uniform grid over [0, 1]
    depth: int
    resolution: int  # number of grid intervals; len(grid) == resolution + 1

    def __call__(self, x) -> np.ndarray | float:
        xs = np.asarray(x, dtype=float)
        out = np.interp(xs, np.linspace(0.0, 1.0, len(self.grid)), self.grid, left=0.0, right=0.0)
        if np.isscalar(x) or xs.ndim == 0:
            return float(out)
        return out

    @property
    def mass(self) -> float:
        """Integral of w over [0, 1] (trapezoid on the grid)."""
        trap = getattr(np, "trapezoid", None) or np.trapz
        return float(trap(self.grid, dx=1.0 / self.resolution))

    def fourier(self, ts) -> np.ndarray:
        """Transform of the piecewise-linear interpolant, int w(x) e(-xt) dx.

        Exact for the interpolant: the rectangle-rule sum times the Fejer
        kernel sinc^2(pi t delta), since piecewise-linear interpolation is
        convolution of grid masses with a triangle kernel.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        delta = 1.0 / self.resolution
        xs = np.linspace(0.0, 1.0, len(self.grid))
        out = np.empty(len(ts), dtype=complex)
        for i in range(0, len(ts), 64):
            block = ts[i : i + 64]
            phases = np.exp(-2j * np.pi * np.outer(block, xs))
            out[i : i + 64] = phases @ self.grid * delta
        return out * _fejer(np.pi * ts * delta)

    def decay_audit_limit(self) -> float:
        """Largest |t| where the grid can still resolve the decay envelope.

        The piecewise-linear model deviates from the true convolution by
        about h^2 * ||w''||/8; the envelope must stay above that floor.
        """
        h2 = (1.0 / self.resolution) ** 2
        curvature = 60.0  # crude bound for the box-convolution second derivative
        floor = h2 * curvature / 8.0
        return 2.0 * math.log(1.0 / floor) ** 2


def _fejer(arg: np.ndarray) -> np.ndarray:
    """(sin arg / arg)^2, with 1 at arg == 0."""
    out = np.ones_like(arg)
    nz = arg != 0
    out[nz] = (np.sin(arg[nz]) / arg[nz]) ** 2
    return out


def smooth_weight_build(depth: int, resolution: int) -> SmoothWeight:
    """Convolution of `depth` box kernels with widths a0/(j+1)^2 summing to 1,
    peak-normalized and clipped into [0, 1]."""
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if resolution < 2**10:
        raise ValueError("resolution must be at least 2^10")
    weights = [1.0 / (j + 1) ** 2 for j in range(depth)]
    total = sum(weights)
    widths = [wj / total for wj in weights]
    lengths = [max(2, round(wj * resolution)) for wj in widths]
    n_out = sum(lengths) - depth + 1
    n_fft = 1 << (n_out - 1).bit_length()
    spec = np.ones(n_fft // 2 + 1, dtype=complex)
    for L in lengths:
        box = np.zeros(n_fft)
        box[:L] = 1.0 / L
        spec *= np.fft.rfft(box)
    conv = np.fft.irfft(spec, n_fft)[:n_out]
    conv = np.clip(conv / conv.max(), 0.0, 1.0)
    grid = np.interp(
        np.linspace(0.0, 1.0, resolution + 1), np.linspace(0.0, 1.0, n_out), conv
    )
    grid[0] = 0.0
    grid[-1] = 0.0
    return SmoothWeight(grid=np.clip(grid, 0.0, 1.0), depth=depth, resolution=resolution)


@dataclass
class WeightFourierAudit:
    t_max: float
    fitted_c: float
    argmax_t: float
    w0: float
    violations: list[float]
    ts: np.ndarray = field(repr=False)  # the sampled t = m / _SAMPLES_PER_UNIT
    magnitudes: np.ndarray = field(repr=False)  # |w^(t)| at each sampled t

    def to_jsonable(self) -> dict:
        return {
            "t_max": self.t_max,
            "fitted_c": self.fitted_c,
            "argmax_t": self.argmax_t,
            "w0": self.w0,
            "violations": self.violations,
        }


def weight_fourier_audit(w: SmoothWeight, t_max: float) -> WeightFourierAudit:
    """Fit the smallest C with |w^(t)| <= C exp(-sqrt(t/2)) on [0, t_max].

    The transform is evaluated on the grid t = m/_SAMPLES_PER_UNIT by a
    single zero-padded FFT (exact for the piecewise-linear interpolant after
    the Fejer correction), so the whole sweep costs one FFT.
    """
    limit = w.decay_audit_limit()
    if t_max > limit:
        raise ValueError(f"t_max {t_max} beyond the grid-resolved range {limit:.0f}")
    P = w.resolution * _SAMPLES_PER_UNIT
    m_max = int(t_max * _SAMPLES_PER_UNIT)
    padded = np.zeros(P)
    padded[: len(w.grid)] = w.grid
    spec = np.fft.rfft(padded)[: m_max + 1] / w.resolution
    ts = np.arange(m_max + 1) / _SAMPLES_PER_UNIT
    mags = np.abs(spec) * _fejer(np.pi * ts / w.resolution)
    env = np.exp(-np.sqrt(ts / 2.0))
    ratios = mags / env
    fitted = float(ratios.max())
    arg = float(ts[int(ratios.argmax())])
    bad = ts[mags > fitted * env * (1.0 + 1e-9)]
    return WeightFourierAudit(
        t_max=t_max,
        fitted_c=fitted,
        argmax_t=arg,
        w0=float(mags[0]),
        violations=[float(t) for t in bad],
        ts=ts,
        magnitudes=mags,
    )


# ---------------------------------------------------------------------------
# weighted image g
# ---------------------------------------------------------------------------


@dataclass
class WeightedImage:
    aux: AuxiliaryContext
    X: int
    U: float
    values: np.ndarray  # increasing positive values h(n), int64
    weights: np.ndarray  # J * h'(n) * w(h(n)/X), float64
    J: float
    table: SieveTable = field(repr=False)

    @property
    def total_mass(self) -> float:
        """Sum of g over the integers (both signs)."""
        return 2.0 * float(self.weights.sum())

    def fourier(self, theta) -> float:
        """g^(theta) = 2 * sum w_v cos(2 pi v theta); real since g is even."""
        phases = _phases_mod1(self.values, theta)
        return 2.0 * float(np.cos(TWO_PI * phases) @ self.weights)


def g_build(
    aux: AuxiliaryContext,
    X: int,
    U: float,
    w: SmoothWeight,
    table: Optional[SieveTable] = None,
) -> WeightedImage:
    poly = aux.aux
    if not poly.positive_for_all_n_from(1) or not poly.derivative().positive_for_all_n_from(1):
        raise ValueError("g_build needs a polynomial positive and increasing on the naturals")
    if table is None:
        table = SieveTable.build(aux, U)
    J = float(J_factor(table))  # the exact rational, rounded once
    n_max = poly.largest_n_at_most(X)
    if n_max == 0:
        return WeightedImage(aux, X, U, np.zeros(0, np.int64), np.zeros(0), J, table)
    ns = np.flatnonzero(w_mask(table, n_max)[1:]) + 1
    # the values lie in [1, X], so they fit in int64 even when the
    # evaluation bound forced object integers
    vals = poly(ns).astype(np.int64, copy=False)
    derivs = poly.derivative()(ns).astype(float)
    weights = J * derivs * w(vals / X)
    return WeightedImage(aux, X, U, vals, weights, J, table)


# ---------------------------------------------------------------------------
# Fourier evaluation
# ---------------------------------------------------------------------------


Source = Union[AvoidingSet, WeightedImage, tuple]


def _support(source: Source) -> tuple[np.ndarray, np.ndarray]:
    """(values, weights) with the even extension applied for WeightedImage."""
    if isinstance(source, AvoidingSet):
        vals = source.member_array()
        return vals, np.ones(len(vals))
    if isinstance(source, WeightedImage):
        vals = np.concatenate([source.values, -source.values])
        return vals, np.concatenate([source.weights, source.weights])
    vals, weights = source
    return np.asarray(vals, dtype=np.int64), np.asarray(weights, dtype=float)


def _low64(values: np.ndarray) -> np.ndarray:
    """values mod 2^64 as uint64."""
    if values.dtype == object:
        values = values & ((1 << 64) - 1)
    return values.astype(np.uint64)


def _dyadic64(den: int) -> bool:
    """Whether den is a power of two <= 2^64: a theta with this denominator
    needs only the values mod 2^64 in _phases_mod1."""
    return den & (den - 1) == 0 and den <= 1 << 64


def _phases_mod1(
    values: Optional[np.ndarray],
    theta,
    low64: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """values * theta mod 1, reduced exactly in integers and rounded once.

    theta is the rational num/den that it is (exact for a float). A power of
    two den <= 2^64 reduces in wrapping uint64 products of values mod 2^64
    (low64, when a caller with several thetas has it already; values may
    then be None), any den < 2^31 in int64, and every other den in object
    integers. A caller with several thetas passes its own float64 out and,
    for the power-of-two case, a uint64 scratch array of the same length;
    the phases are the same bits either way.
    """
    num, den = Fraction(theta).as_integer_ratio()
    num %= den
    if _dyadic64(den):
        if low64 is None:
            low64 = _low64(values)
        red = np.multiply(low64, np.uint64(num), out=scratch)
        red &= np.uint64(den - 1)
    elif den < 1 << 31:
        red = (values % den).astype(np.int64) * num % den
    else:
        phases = (values.astype(object) * num % den / den).astype(float)
        if out is None:
            return phases
        out[...] = phases
        return out
    if out is None:
        return red.astype(float) / den
    np.copyto(out, red, casting="safe")
    return np.divide(out, den, out=out)


def fourier_point(source: Source, theta) -> complex:
    """f^(theta) = sum f(n) e(-n theta), as BLAS dots of exact phases."""
    vals, weights = _support(source)
    if len(vals) == 0:
        return 0j
    phases = _phases_mod1(vals, theta)
    ang = -TWO_PI * phases
    return complex(np.cos(ang) @ weights + 1j * (np.sin(ang) @ weights))


def _fold_fft(positions: np.ndarray, weights: np.ndarray, q: int) -> np.ndarray:
    """f^(a/q) for a = 0..q-1, for f = real weights at positions: fold the
    weights mod q into float64 and take one real FFT, mirroring its conjugate
    into the upper half; a large grid gets no complex copy of the fold."""
    c = np.zeros(q)
    np.add.at(c, positions % q, weights)
    half = np.fft.rfft(c)
    del c  # freed before the output is allocated
    m = half.size  # q // 2 + 1
    out = np.empty(q, dtype=half.dtype)
    out[:m] = half
    np.conjugate(half[q - m : 0 : -1], out=out[m:])  # out[j] = conj(out[q - j])
    return out


def _units_mod(q: int) -> np.ndarray:
    """The residues a in [0, q) with gcd(a, q) = 1, ascending."""
    return np.flatnonzero(np.gcd(np.arange(q), q) == 1)


_DCT_BASE = 1 << 10  # _cosine_spectrum halves no DCT-I of this size or less


def _union(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the slot among them of each key.

    A stable argsort, which timsort does in O(len(keys)) when the keys are a
    few ascending runs, as every caller's are."""
    order = np.argsort(keys, kind="stable")
    srt = keys[order]
    new = np.empty(srt.size, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    slot = np.empty(srt.size, dtype=np.intp)
    slot[order] = np.cumsum(new) - 1
    return srt[new], slot


def _even_fold(vals: np.ndarray, weights: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights at v folded onto min(v mod N, N - v mod N): the distinct
    indices, ascending, and each one's sum, taken from 0.0 in input order as
    np.bincount sums."""
    r = vals % N
    idx, slot = _union(np.minimum(r, N - r))
    sums = np.zeros(idx.size)
    np.add.at(sums, slot, weights)
    return idx, sums


def _spread(size: int, slot: np.ndarray, vals: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """A length-size array of fill with vals at slot."""
    out = np.full(size, fill)
    out[slot] = vals
    return out


def _worker():
    """A pool of one thread, made for one call and shut down with it, so a
    forked child never inherits a pool without its thread. numpy's FFTs and
    ufuncs release the GIL, so the thread runs on the second core; it runs
    numpy and this module's private helpers only. concurrent.futures is
    imported here, not with polysieve."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1)


def _both(pool, mine: list, theirs: list) -> None:
    """Make the calls in theirs, in order, on the pool's thread while those
    in mine run on this one; return when both are done."""
    done = pool.submit(lambda: [f() for f in theirs])
    for f in mine:
        f()
    done.result()


def _copy_on_both(pool, pairs: list) -> None:
    """dst[:] = src for each (dst, src): the first half of each on this
    thread and the rest on the pool's, so the two write to either end of
    the output, not to the same cache lines."""
    cuts = [len(dst) // 2 for dst, _ in pairs]
    _both(
        pool,
        [partial(np.copyto, dst[:c], src[:c]) for (dst, src), c in zip(pairs, cuts)],
        [partial(np.copyto, dst[c:], src[c:]) for (dst, src), c in zip(pairs, cuts)],
    )


def _inverse_level(L: int, u: np.ndarray, Hu: np.ndarray, w: np.ndarray, space: np.ndarray) -> None:
    """One halving level's transform: the irfft of length L, into w, of the
    H that is Hu at the indices u and zero elsewhere, built in the first
    L + 2 floats of space."""
    H = space[: 2 * (L // 2 + 1)].view(complex)
    H[:] = 0.0
    H[u] = Hu
    np.fft.irfft(H, L, norm="forward", out=w)


def _even_rfft(idx: np.ndarray, x: np.ndarray, m: int, ext: np.ndarray, top: np.ndarray) -> None:
    """top = the real part of the rfft of the even extension, built in ext,
    of the x_0..x_m that are x at idx and zero elsewhere: the extension's
    interior holds half of each x_n on either side."""
    n = ext.size
    ext[: m + 1] = 0.0
    ext[idx] = x
    ext[1 : n - m] *= 0.5
    ext[m + 1 :] = ext[n - m - 1 : 0 : -1]
    top[:] = np.fft.rfft(ext).real


def _cosine_spectrum(idx: np.ndarray, x: np.ndarray, N: int) -> np.ndarray:
    """out[j] = sum_n x_n cos(2 pi n j / N) for j = 0..N-1, from the support
    of x_0..x_{N // 2}: indices idx, ascending and distinct, and their
    values x; every other x_n is 0. The spectrum of the real even
    sequence that x folds, itself real and even (out[N - j] == out[j]).

    For even N = 2M, out[:M + 1] is the DCT-I G(j) = sum x_n cos(pi n j / M).
    Its even outputs are a DCT-I of size M/2 on y_m = x_m + x_{M-m}
    (y_{M/2} = x_{M/2}); its odd outputs G(2k + 1) are the DCT-III
    sum_{m < L} z_m cos(pi m (2k + 1) / 2L) of z_m = x_m - x_{M-m},
    L = M/2, which one irfft of length L gives (Makhoul, IEEE TASSP 1980):
    with H_0 = z_0 and H_m = e(m / 4L) (z_m - i z_{L-m}) / 2, the irfft's
    entry n is G(4n + 1) for n < L/2 and G(2M - 4n - 1) after. The loop
    halves M while it is even and above _DCT_BASE, writing each level into
    a strided view of the output, and one rfft of the symmetric extension
    ends it; so the work is irfft(N/4) + irfft(N/8) + ... instead of
    rfft(N).

    Each level works on the support alone: an index s < L of x stays, one
    above L maps to M - s, and the two ascending runs merge into the
    support of y and z. H is zero but at the at most 2K indices that z
    reaches, K the support's size, and its twiddles are computed there
    only, H_i's at angle (i * 2^k) * (pi / 2 L_0) on level k (L_0 the top
    level's L). Every sum and product, signed zeros included, is the one
    the dense transform takes, so the output is bit for bit the same.

    The caller computes every level's support first; the dense work then
    runs on two threads (_worker), numpy only. Level k's irfft of length
    L_k writes to out[N + 1 - 2 L_k : N + 1 - L_k], so the levels fill the
    upper half of the output, scratch until the final mirror, and builds
    its H in the lower half, which no level writes until every transform
    is done. Level 0, whose irfft with pocketfft's buffers takes about 8N
    bytes, runs next to the base alone; then level 1 runs next to levels 2
    and on, their H after H_1. Then the two threads write the lower half,
    one end each, and mirror it. The peak is no higher than the serial
    transform's, and no thread's malloc arena keeps more than one level's
    buffers.
    """
    M = N // 2
    out = np.empty(N)
    levels = []  # (L, u, Hu, w): each level's H and its outputs
    writes = []  # (dst, src): where the outputs go
    view, m, step, unit = out[: M + 1], M, 1, None
    while N % 2 == 0 and m % 2 == 0 and m > _DCT_BASE:
        L = m // 2
        h = L // 2 + 1
        if unit is None:
            unit = 0.5 * np.pi / L
        # x_s for s < L, and x_{m-s} for s > L, on one ascending union
        lo = np.searchsorted(idx, L)
        hi = lo + int(lo < idx.size and idx[lo] == L)
        pos, slot = _union(np.concatenate([idx[:lo], m - idx[hi:][::-1]]))
        a = _spread(pos.size, slot[:lo], x[:lo])
        b = _spread(pos.size, slot[lo:], x[hi:][::-1])
        z = a - b
        # H_i on the indices u that z reaches: z_i for i < h and -z_{L-i}
        # for i > 0, an absent one +0 and -0 as in the dense transform,
        # and every H_i but H_0 times its twiddle
        nre = np.searchsorted(pos, h)
        nim = np.searchsorted(pos, L - h, side="right")
        u, uslot = _union(np.concatenate([pos[:nre], L - pos[nim:][::-1]]))
        Hu = np.empty(u.size, dtype=complex)
        Hu.real = _spread(u.size, uslot[:nre], z[:nre])
        Hu.imag = _spread(u.size, uslot[nre:], np.negative(z[nim:][::-1]), -0.0)
        k0 = int(u.size > 0 and u[0] == 0)
        Hu.imag[:k0] = 0.0
        angle = (u[k0:] * step) * unit
        tw = np.empty(angle.size, dtype=complex)
        np.cos(angle, out=tw.real)
        np.sin(angle, out=tw.imag)
        tw *= 0.5
        Hu[k0:] *= tw
        w = out[N + 1 - 2 * L : N + 1 - L]
        levels.append((L, u, Hu, w))
        k = (L + 1) // 2
        writes += [(view[1:m:4], w[:k]), (view[3:m:4], w[k:][::-1])]
        y = a + b
        if hi > lo:  # y_L = x_L
            pos, y = np.append(pos, L), np.append(y, x[lo])
        view, idx, x, m, step = view[::2], pos, y, L, 2 * step
    # the base; with no halving, its extension is built in the output
    top = np.empty(m + 1)
    base = partial(_even_rfft, idx, x, m, out if step == 1 else np.empty(2 * m), top)
    writes.append((view, top))

    def ffts(ks: slice, at: int) -> list:
        # the irffts of levels[ks], one after another, each H at out[at:]
        return [partial(_inverse_level, *level, out[at:]) for level in levels[ks]]

    with _worker() as pool:
        _both(pool, ffts(slice(1), 0), [base])
        # H_1 takes L_1 + 2 = M/4 + 2 floats
        _both(pool, ffts(slice(1, 2), 0), ffts(slice(2, None), M // 4 + 2))
        _copy_on_both(pool, writes)
        _copy_on_both(pool, [(out[M + 1 :], out[N - M - 1 : 0 : -1])])
    return out


@dataclass
class Spectrum:
    n: int
    # f^(j/N) for j = 0..N-1: float64 for a WeightedImage, whose spectrum is
    # real and even (computed from its folded support, bit for bit the dense
    # cosine transform's output), complex128 for every other source
    values: np.ndarray


def fourier_grid(source: Source, N: int) -> Spectrum:
    """f^(j/N) for j = 0..N-1; agrees with fourier_point at every j/N.

    A WeightedImage is real and even: its weights at +-v fold onto
    min(v mod N, N - v mod N), kept as the support's distinct indices and
    their sums (_even_fold, no length-N/2 array), and one cosine transform
    at half the length on that support (_cosine_spectrum) gives the
    spectrum as float64 values. Its cost is the inverse FFTs, on two
    threads, and O(K) a level for K folded points; its peak is the N
    outputs and the top level's inverse FFT, about 9 bytes a point. Any
    other source folds onto v mod N and takes an FFT (_fold_fft), giving
    complex128 values.
    """
    vals, weights = _support(source)
    maxmag = int(np.abs(vals).max(initial=0))
    if N < 2 * maxmag + 1:
        raise ValueError(f"grid size {N} too small for support magnitude {maxmag}")
    if isinstance(source, WeightedImage):
        return Spectrum(N, _cosine_spectrum(*_even_fold(vals, weights, N), N))
    return Spectrum(N, _fold_fft(vals, weights, N))


# ---------------------------------------------------------------------------
# Gauss sums and Weyl sums over sieved sets
# ---------------------------------------------------------------------------


def gauss_sum_sieved(
    aux: AuxiliaryContext,
    a: int,
    q: int,
    U: float,
    table: Optional[SieveTable] = None,
) -> complex:
    """Sum of e(h(s) a / q) over s mod q restricted to W^q(U); exact phases."""
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(a, q) != 1:
        raise ValueError("need gcd(a, q) = 1")
    if table is None:
        table = SieveTable.build(aux, U)
    poly = aux.aux
    total = 0j
    for s in range(q):
        if not in_W(s, table, q):
            continue
        t = poly.eval_mod(s, q) * (a % q) % q
        total += complex(math.cos(TWO_PI * t / q), math.sin(TWO_PI * t / q))
    return total


class GaussSweep(abc.Sequence):
    """The rows (q, a, |sum|) of gauss_sum_sweep, kept as the columns q, a
    (int32, or int64 for q past 2^31) and mag (float64). A row reads as a
    tuple of Python int, int and float, a slice as a GaussSweep, and a
    sweep equals another sweep or a sequence of rows with the same rows."""

    def __init__(self, q: np.ndarray, a: np.ndarray, mag: np.ndarray):
        self.q, self.a, self.mag = q, a, mag

    def __len__(self) -> int:
        return self.mag.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return GaussSweep(self.q[i], self.a[i], self.mag[i])
        return int(self.q[i]), int(self.a[i]), float(self.mag[i])

    def __iter__(self):
        return zip(self.q.tolist(), self.a.tolist(), self.mag.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussSweep):
            return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in ("q", "a", "mag"))
        if isinstance(other, abc.Sequence):
            return len(self) == len(other) and all(row == theirs for row, theirs in zip(self, other))
        return NotImplemented


def gauss_sum_sweep(
    aux: AuxiliaryContext,
    q_max: int,
    U: float,
    all_a: bool = True,
    table: Optional[SieveTable] = None,
) -> GaussSweep:
    """(q, a, |sum|) over q <= q_max, for every reduced a mod q (only a = 1
    unless all_a; a = 0 for q = 1); matches gauss_sum_sieved at every point.

    Per modulus, c(t) counts the kept residues s with h(s) = t mod q; c is
    real, so |sum_s e(h(s) a / q)| = |fft(c)[a]| = |fft(c)[q - a]|, and one
    real FFT gives every a. The rows are kept as columns: at q_max = 1000
    they take 16 bytes each, where Python tuples took about 116."""
    if table is None:
        table = SieveTable.build(aux, U)
    poly = aux.aux
    a_cols, mag_cols = [], []
    for q in range(1, q_max + 1):
        # w_mask indexes 1..q; rolling moves residue 0 from index q to the front
        keep = np.roll(w_mask(table, q, q)[1:], 1)
        counts = np.bincount(poly.eval_mod(np.arange(q), q)[keep], minlength=q)
        mags = np.abs(np.fft.rfft(counts))
        if q == 1:
            a_values = np.array([0])
        else:
            a_values = _units_mod(q) if all_a else np.array([1])
        a_cols.append(a_values)
        mag_cols.append(mags[np.minimum(a_values, q - a_values)])
    itype = np.int32 if q_max < 2**31 else np.int64
    return GaussSweep(
        np.repeat(np.arange(1, q_max + 1, dtype=itype), [col.size for col in a_cols]),
        np.concatenate(a_cols or [np.zeros(0)]).astype(itype),
        np.concatenate(mag_cols or [np.zeros(0)]),
    )


def _weyl_sums(vals, low64, thetas, scratch, phases, terms) -> list[complex]:
    """sum_n e(-theta h(n)) for each theta, h(n) given as to _phases_mod1,
    computed in the arrays scratch, phases and terms."""
    sums = []
    for theta in thetas:
        _phases_mod1(vals, theta, low64, out=phases, scratch=scratch)
        np.multiply(-2j * np.pi, phases, out=terms)
        np.exp(terms, out=terms)
        sums.append(complex(np.sum(terms)))
    return sums


@dataclass
class WeylSample:
    theta: float
    a: int
    q: int
    lhs: float
    rhs: float
    fitted_c: float


@dataclass
class WeylReport:
    N: int
    U: float
    Z: float
    samples: list[WeylSample]


def weyl_sum_audit(
    aux: AuxiliaryContext,
    U: float,
    N: int,
    theta_samples: Sequence[Union[float, Fraction]],
    Z: Optional[float] = None,
    table: Optional[SieveTable] = None,
) -> WeylReport:
    """Exact |sum over n <= N in W(U) of e(theta h(n))| against the two-term
    envelope N (log U)^{ek} [exp(-log Z/log U) + (b_k log^{k^2}(b_k q N)
    (1/q + Z/N + q Z^k/(b_k N^k)))^{1/K}] with (a, q) a convergent of theta.

    A theta whose denominator is a power of two <= 2^64 (every float of
    magnitude at least 2^-12) needs only h(n) mod 2^64, which
    IntPoly.eval_low64 gives in uint64 once for all such thetas. The exact
    values h(n), object integers once they pass int64, are built only when
    some theta has another denominator. A worker thread (_worker) sums the
    second half of the thetas next to the caller's first half, each in its
    own arrays and by the same expression; the caller then computes every
    convergent and envelope."""
    if Z is None:
        Z = N / max(U, 2.0)
    if U < 2 or Z < 2 or N < 4 or U * Z > N * (1 + 1e-9):
        raise ValueError("need U, Z >= 2 and U*Z <= N")
    if table is None:
        table = SieveTable.build(aux, U)
    poly = aux.aux
    k = poly.degree
    K = 2**k
    b_k = poly.leading
    ns = np.flatnonzero(w_mask(table, N)[1:]) + 1
    low64 = poly.eval_low64(ns)  # every dyadic theta reduces these
    dyadic = all(_dyadic64(Fraction(t).denominator) for t in theta_samples)
    vals = None if dyadic else poly(ns)  # object integers for the sextic
    logU = math.log(U)
    half = (len(theta_samples) + 1) // 2
    # one set of per-theta arrays for each half of the thetas, the second
    # half's summed on the worker thread
    arrays = [
        (np.empty(len(ns), dtype=np.uint64), np.empty(len(ns)), np.empty(len(ns), dtype=complex))
        for _ in range(2)
    ]
    with _worker() as pool:
        later = pool.submit(_weyl_sums, vals, low64, theta_samples[half:], *arrays[1])
        sums = _weyl_sums(vals, low64, theta_samples[:half], *arrays[0]) + later.result()
    samples = []
    for theta, s in zip(theta_samples, sums):
        a, q, _ = rational_approx(theta, max(2, N))
        lhs = abs(s)
        logterm = math.log(max(b_k * q * N, 3.0)) ** (k * k)
        inner = b_k * logterm * (1.0 / q + Z / N + q * Z**k / (b_k * N**k))
        rhs = (
            N
            * logU ** (math.e * k)
            * (math.exp(-math.log(Z) / logU) + inner ** (1.0 / K))
        )
        samples.append(WeylSample(float(theta), a, q, lhs, rhs, lhs / rhs))
    return WeylReport(N, U, Z, samples)


# ---------------------------------------------------------------------------
# rational approximation and arcs
# ---------------------------------------------------------------------------


def rational_approx(theta, Qmax: int) -> tuple[int, int, float]:
    """Best continued-fraction convergent a/q with q <= Qmax; gcd(a, q) = 1."""
    if Qmax < 1:
        raise ValueError("Qmax must be >= 1")
    fr = Fraction(theta)
    floor = math.floor(fr)
    x = fr - floor
    # convergents of the fractional part
    num, den = x.numerator, x.denominator
    a_list = []
    while den:
        a_list.append(num // den)
        num, den = den, num % den
    best_p, best_q = 0, 1
    p0, q0 = 1, 0
    p1, q1 = a_list[0] if a_list else 0, 1
    if a_list:
        best_p, best_q = p1, q1
        for coef in a_list[1:]:
            p2, q2 = coef * p1 + p0, coef * q1 + q0
            if q2 > Qmax:
                break
            best_p, best_q = p2, q2
            p0, q0, p1, q1 = p1, q1, p2, q2
    a = best_p + floor * best_q
    delta = abs(float(fr - Fraction(a, best_q)))
    return a, best_q, delta


@dataclass(frozen=True)
class ArcParams:
    alpha: float
    epsilon: float
    C1: float
    X: int
    tau: float
    Qmax: float
    L: float

    @classmethod
    def make(cls, alpha: float, epsilon: float, C1: float, X: int) -> "ArcParams":
        if not 0 < alpha <= 1:
            raise ValueError("alpha must lie in (0, 1]")
        L = math.log(1.0 / alpha)
        tau = C1 * L * L / X
        qmax = max(2.0, C1 * alpha ** -(2 + epsilon))
        return cls(alpha, epsilon, C1, X, tau, qmax, L)

    @property
    def covers_circle(self) -> bool:
        """Whether the arcs cover R/Z: the widest gap between Farey fractions
        of order Q = floor(Qmax) is 1/Q, so exactly when 2 tau Q >= 1."""
        return 2.0 * self.tau * int(self.Qmax) >= 1.0


@dataclass(frozen=True)
class Arc:
    kind: str  # "major" | "minor"
    q: int = 0
    a: int = 0

    @property
    def is_major(self) -> bool:
        return self.kind == "major"


def classify_arc(theta: float, params: ArcParams) -> Arc:
    """Major iff some a/q with q <= Qmax sits within tau of theta; the
    witness with smallest q wins. Brute scan over q keeps this exact even
    when tau exceeds the convergent separation scale."""
    t = theta - math.floor(theta)
    qmax = int(params.Qmax)
    for q in range(1, qmax + 1):
        a = round(t * q)
        if a and math.gcd(a, q) != 1:
            continue
        dist = abs(t - a / q)
        if dist <= params.tau + 1e-18:
            return Arc("major", q, a % q if q > 1 else 0)
    return Arc("minor")


def major_arc_mask(thetas: np.ndarray, params: ArcParams) -> np.ndarray:
    """classify_arc(theta, params).is_major for every theta in an array.

    theta mod 1 is major iff its float distance |t - a/q| to some a/q with
    q <= Qmax is at most tol = tau + 1e-18. The thetas are sorted once, each
    arc [a/q - tol, a/q + tol] is searched in them, and a difference array
    over the sorted thetas marks the hits, so the time grows like
    Qmax^2 log N, not like Qmax^2 N. Denominators go in blocks of at most
    about 2^20 fractions, which bounds the memory. Sorted fractions at most
    2 tol apart (an exact difference) leave no point between their arcs, so
    each run of them is searched once.

    The ends are exact. The arcs do not cover the circle, so
    tol < 1/(2 Qmax) <= a/q / 2 for a > 0; near an arc's end t - a/q is
    then exact (Sterbenz), and the predicate holds exactly for the floats
    t >= a/q - tol (real). That bound rounds to p = fl(a/q - tol), and the
    predicate at p says whether p or the next float up is the first point
    inside; likewise at the upper end.
    """
    t = np.asarray(thetas, dtype=float)
    t = t - np.floor(t)
    if params.covers_circle:
        return np.ones(t.shape, dtype=bool)
    tol = params.tau + 1e-18
    flat = t.ravel()
    order = np.argsort(flat, kind="stable")
    ts = flat[order]
    cover = np.zeros(ts.size + 1, dtype=np.intp)
    qmax = int(params.Qmax)
    step = max(1, (1 << 20) // (qmax + 1))
    for q0 in range(1, qmax + 1, step):
        qs = range(q0, min(q0 + step, qmax + 1))
        fracs = np.sort(np.concatenate([np.arange(q + 1) / q for q in qs]))
        cut = np.flatnonzero(np.diff(fracs) > 2 * tol)  # where a run of arcs ends
        first = fracs[np.r_[0, cut + 1]]
        last = fracs[np.r_[cut, fracs.size - 1]]
        p = first - tol
        lo = np.searchsorted(ts, np.where(first - p <= tol, p, np.nextafter(p, np.inf)), "left")
        p = last + tol
        hi = np.searchsorted(ts, np.where(p - last <= tol, p, np.nextafter(p, -np.inf)), "right")
        np.add.at(cover, lo, 1)
        np.add.at(cover, hi, -1)
    mask = np.empty(ts.size, dtype=bool)
    mask[order] = np.cumsum(cover[:-1]) > 0
    return mask.reshape(t.shape)


@dataclass
class HarmonicParams:
    X: int
    k: int
    b_k: int
    U: float
    Z: float
    K: int
    Y: float

    @classmethod
    def for_scale(cls, X: int, aux: AuxiliaryContext) -> "HarmonicParams":
        poly = aux.aux
        logx = math.log(X)
        U = math.exp(math.sqrt(logx))
        Z = math.exp(logx ** (7.0 / 8.0))
        k = poly.degree
        n = poly.largest_n_at_most(X)
        if n == 0:
            raise ValueError("X below the first polynomial value")
        # real solution of poly(Y) = X by bisection in the cell [n, n + 1]
        # (poly increasing on [1, inf))
        lo, hi = float(n), float(n + 1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if poly(mid) < X:
                lo = mid
            else:
                hi = mid
        return cls(X, k, poly.leading, U, Z, 2**k, (lo + hi) / 2)


# ---------------------------------------------------------------------------
# major/minor arc audits
# ---------------------------------------------------------------------------


@dataclass
class MajorArcReport:
    a: int
    q: int
    theta: float
    measured: float
    predicted: float
    abs_diff: float
    ratio: Optional[float]
    rel_to_mass: float
    hypotheses_ok: bool
    hypothesis_notes: list[str]


def major_arc_predict(
    image: WeightedImage, a: int, q: int, theta: float, w: SmoothWeight
) -> MajorArcReport:
    """Compare g^(a/q + theta) with the sieve main term
    J * (2X/q) * Re[ w^(theta X) * prod_(p<=U, p^gamma not| q)(1 - j/p^gamma)
    * sum_(b in W^q mod q) e(-a h(b)/q) ]."""
    X = image.X
    k = image.aux.aux.degree
    notes = []
    if q < 1 or math.gcd(a, q) != 1:
        raise ValueError("need q >= 1 and gcd(a, q) = 1")
    if q >= X ** (1.0 / (8 * k)):
        notes.append(f"q={q} exceeds X^(1/8k)={X ** (1.0 / (8 * k)):.3f}")
    if abs(theta) > X ** -(1.0 - 1.0 / (8 * k)):
        notes.append("theta outside the major-arc radius hypothesis")
    table = image.table
    restricted = float(1 / J_factor(table, q))
    if q == 1:
        gauss = complex(1.0)
    else:
        gauss = gauss_sum_sieved(image.aux, (-a) % q, q, image.U, table)
    what = complex(w.fourier(np.array([theta * X]))[0])
    predicted = image.J * (2.0 * X / q) * restricted * (what * gauss).real
    measured = image.fourier(Fraction(a, q) + Fraction(theta))
    mass = image.total_mass
    diff = abs(measured - predicted)
    ratio = measured / predicted if abs(predicted) > 1e-12 * max(mass, 1.0) else None
    return MajorArcReport(
        a=a,
        q=q,
        theta=theta,
        measured=measured,
        predicted=predicted,
        abs_diff=diff,
        ratio=ratio,
        rel_to_mass=diff / mass if mass else math.inf,
        hypotheses_ok=not notes,
        hypothesis_notes=notes,
    )


@dataclass
class MinorArcReport:
    threshold: float
    sup_minor: float
    argmax_theta: Optional[float]
    passes: bool
    margin_ratio: float
    n_minor_sampled: int
    hypothesis_ok: bool
    alpha_floor: float
    mass: float
    arcs_cover_circle: bool

    def to_jsonable(self) -> dict:
        return dict(vars(self))


def minor_arc_audit(
    image: WeightedImage,
    alpha: float,
    params: Optional[ArcParams] = None,
    extra_points: Sequence[float] = (),
) -> MinorArcReport:
    """Exact sup of |g^| over the minor-arc points of the FFT grid j/N and of
    `extra_points`, against the threshold 2^-9 alpha X. Without `params` the
    arcs take epsilon and C1 from IncrementConfig's defaults.

    `major_arc_mask` decides every point at once; `argmax_theta` is reduced
    into [0, 1). `alpha_floor` is the bound (log X)^{ek} exp(-(log X)^{3/8})
    that `hypothesis_ok` tests alpha against.
    """
    X = image.X
    if params is None:
        from .increment import IncrementConfig  # increment imports this module

        cfg = IncrementConfig()
        params = ArcParams.make(alpha, cfg.epsilon, cfg.C1, X)
    threshold = 2.0**-9 * alpha * X
    k = image.aux.aux.degree
    logx = math.log(X)
    alpha_floor = logx ** (math.e * k) * math.exp(-(logx**0.375))

    maxv = int(image.values.max(initial=0))
    N = 1 << max(4, (2 * maxv + 1).bit_length())
    extra = np.asarray(extra_points, dtype=float)
    thetas = np.concatenate([np.arange(N) / N, extra])
    minor = ~major_arc_mask(thetas, params)
    sup, arg = 0.0, None
    if minor.any():
        mags = np.concatenate(
            [np.abs(fourier_grid(image, N).values), [abs(image.fourier(t)) for t in extra]]
        )
        best = int(np.where(minor, mags, -1.0).argmax())
        sup = float(mags[best])
        arg = float(thetas[best] - math.floor(thetas[best]))
    return MinorArcReport(
        threshold=threshold,
        sup_minor=sup,
        argmax_theta=arg,
        passes=sup <= threshold,
        margin_ratio=sup / threshold if threshold else math.inf,
        n_minor_sampled=int(minor.sum()),
        hypothesis_ok=alpha >= alpha_floor,
        alpha_floor=alpha_floor,
        mass=image.total_mass,
        arcs_cover_circle=params.covers_circle,
    )


# ---------------------------------------------------------------------------
# initial Fourier mass
# ---------------------------------------------------------------------------


def _autocorrelation(f: np.ndarray, offset: float = 0.0) -> np.ndarray:
    """R(d) = sum_n w(n + d) w(n), d = 0..X-1, for w = f - offset on [1, X],
    f real, from one real FFT pair of length 2X, zero-padded so it is not
    circular, in one buffer that holds w, then R: the increment scan can set
    a run's peak memory. R is the buffer's first half; the second half
    (R.base[X:], the negative lags) is free for the caller's scratch."""
    X = len(f)
    buf = np.zeros(2 * X)
    buf[:X] = f
    buf[:X] -= offset
    spec = np.fft.rfft(buf)
    re, im = spec.real, spec.imag
    re *= re
    im *= im
    re += im
    im[:] = 0.0  # spec = |spec|^2
    np.fft.irfft(spec, 2 * X, out=buf)
    return buf[:X]


def _mod_masses(A: AvoidingSet, offset: float, q_max: int, xis: Sequence[float]) -> np.ndarray:
    """out[i, q] = sum over a mod q of |f^(a/q + xi_i)|^2, q = 1..q_max, for
    f = 1_A - offset on [1, X]: by Parseval q (R(0) + 2 sum_{k >= 1} R(kq)
    cos 2 pi (kq |xi| mod 1)), or q R(0) for q >= X (xi and -xi get the same
    number), with R = _autocorrelation(1_A, offset)."""
    X = A.X
    R = _autocorrelation(A.indicator()[1:], offset)
    terms = R.base[X:]
    out = np.full((len(xis), 1), R[0]) * np.arange(q_max + 1)  # q R(0), kept for q >= X
    lags = np.arange(X, dtype=np.float64)
    for i, xi in enumerate(xis):
        np.multiply(lags, abs(xi), out=terms)
        terms -= np.floor(terms)  # exactly fmod(terms, 1) for finite terms >= 0, at a third of np.mod's cost
        terms *= TWO_PI
        np.cos(terms, out=terms)
        terms *= R
        for q in range(1, min(q_max, X - 1) + 1):
            out[i, q] = q * (R[0] + 2.0 * float(terms[q::q].sum()))
    return out


def initial_mass(A: AvoidingSet, xi: float, params: ArcParams) -> float:
    """sum over 2 <= q <= Qmax of q^(-1/(2+eps)) * sum over reduced a of
    |1_A^(a/q + xi)|^2. The sum over all a mod q (_mod_masses) is the sum
    over d | q of the reduced sums mod d; subtracting each reduced sum from
    its proper multiples, d ascending, leaves the reduced sums."""
    if abs(xi) > params.tau * (1 + 1e-9):
        raise ValueError("xi outside the arc radius")
    if A.size == 0:
        return 0.0
    qmax = int(params.Qmax)
    if qmax > 10**7:  # time and memory grow like Qmax: about 10 s and 0.25 GiB at the bound
        raise ValueError(f"Qmax = {qmax} too large for the mass")
    red = _mod_masses(A, 0.0, qmax, [float(xi)])[0]
    for d in range(1, qmax // 2 + 1):
        red[2 * d :: d] -= red[d]
    return float(np.arange(2, qmax + 1) ** (-1.0 / (2.0 + params.epsilon)) @ red[2:])
