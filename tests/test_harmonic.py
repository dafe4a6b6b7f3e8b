import cmath
import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_python
from polysieve import harmonic
from polysieve.harmonic import (
    ArcParams,
    GaussSweep,
    HarmonicParams,
    _cosine_spectrum,
    _fold_fft,
    _phases_mod1,
    _support,
    classify_arc,
    fourier_grid,
    fourier_point,
    g_build,
    gauss_sum_sieved,
    gauss_sum_sweep,
    initial_mass,
    major_arc_mask,
    major_arc_predict,
    minor_arc_audit,
    rational_approx,
    smooth_weight_build,
    weight_fourier_audit,
    weyl_sum_audit,
)
from polysieve.intersective import AuxiliaryBuilder
from polysieve.polycore import IntPoly
from polysieve.search import AvoidingSet
from polysieve.sieve import J_factor, SieveTable, w_mask


@pytest.fixture(scope="module")
def x2ctx():
    return AuxiliaryBuilder(IntPoly((0, 0, 1))).context(1)


# ---------------------------------------------------------------------------
# smooth weight
# ---------------------------------------------------------------------------


def test_weight_invariants(smooth24):
    w = smooth24
    assert w(-0.1) == 0.0 and w(1.1) == 0.0
    assert abs(w(0.5) - 1.0) < 1e-9
    assert w(0.25) >= 0.5 and w(0.75) >= 0.5
    xs = np.linspace(0, 1, 2001)
    vals = w(xs)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    # w >= 1/2 on the middle half, checked densely
    mid = xs[(xs >= 0.25) & (xs <= 0.75)]
    assert np.all(w(mid) >= 0.5)


def test_weight_build_validation():
    with pytest.raises(ValueError):
        smooth_weight_build(1, 2**12)
    with pytest.raises(ValueError):
        smooth_weight_build(8, 100)


def test_weight_fourier_audit(smooth24):
    audit = weight_fourier_audit(smooth24, 400)
    assert 0 < audit.w0 <= 1
    assert abs(audit.w0 - smooth24.mass) < 1e-9
    assert math.isfinite(audit.fitted_c)
    assert audit.violations == []
    # |w^(t)| <= w^(0) pointwise for a nonnegative weight
    mags = np.abs(smooth24.fourier(np.linspace(0, 50, 200)))
    assert np.all(mags <= audit.w0 + 1e-12)


def test_weight_audit_range_guard(smooth24):
    with pytest.raises(ValueError):
        weight_fourier_audit(smooth24, 10**6)


# ---------------------------------------------------------------------------
# weighted image
# ---------------------------------------------------------------------------


def test_g_build_example(smooth24, x2ctx):
    img = g_build(x2ctx, 100, 2, smooth24)
    assert img.values.tolist() == [1, 9, 25, 49, 81]
    expected = img.J * 10 * smooth24(0.25)
    assert abs(img.weights[2] - expected) < 1e-12
    assert img.J == 2.0
    # 16 = h(4) is sieved out; 3 is off the image entirely
    assert 16 not in img.values and 3 not in img.values


@pytest.mark.parametrize("name", ["x2", "x2m1", "sextic"])
def test_g_build_j_is_the_exact_product_rounded_once(smooth24, normalized_fixtures, name):
    # a sum of logs misses in the last bits: 3.0000000000000004 for the
    # squares at U = 4 and 3.999999999999999 for the sextic at U = 2
    ctx = AuxiliaryBuilder(normalized_fixtures[name]).context(1)
    for U in (2, 4, 55, 1000):
        img = g_build(ctx, 100, U, smooth24)
        assert img.J == float(J_factor(img.table))


def test_g_mass_close_to_2x_integral(smooth24, x2ctx):
    X = 10**6
    img = g_build(x2ctx, X, 2, smooth24)
    assert abs(img.total_mass - 2 * X * smooth24.mass) / (2 * X * smooth24.mass) < 0.02


def test_g_build_rejects_nonmonotone(smooth24):
    bad = AuxiliaryBuilder(IntPoly((5, -10, 1)))  # decreasing near 1
    with pytest.raises(ValueError):
        g_build(bad.context(1), 100, 2, smooth24)


# ---------------------------------------------------------------------------
# Fourier evaluation
# ---------------------------------------------------------------------------


def test_fourier_point_examples():
    A = AvoidingSet.from_members(100, range(2, 101, 2))
    assert fourier_point(A, 0) == pytest.approx(50)
    assert fourier_point(A, Fraction(1, 2)) == pytest.approx(50)
    single = AvoidingSet.from_members(10, [1])
    for theta in (0.13, 0.77, Fraction(3, 7)):
        assert abs(fourier_point(single, theta)) == pytest.approx(1.0)


_phase_values = st.one_of(
    st.lists(st.integers(-(2**62), 2**62), max_size=64).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(-(2**120), 2**120), max_size=64).map(lambda v: np.array(v, dtype=object)),
)
_big = st.integers(-(2**70), 2**70)
_phase_thetas = st.one_of(
    st.floats(-4, 4, allow_nan=False),
    st.integers(1, 2**53).map(lambda u: 2.0**-150 * u),
    st.builds(Fraction, _big, st.integers(0, 80).map(lambda s: 2**s)),  # dyadic
    st.builds(Fraction, _big, st.integers(1, 2**31 - 1)),
    st.builds(Fraction, _big, st.integers(2**31, 2**90)),
    _big,
)


@given(_phase_values, _phase_thetas)
@example(np.array([3 * 10**9 + 7]), 0.1)
@settings(max_examples=300, deadline=None)
def test_phases_mod1_exact(values, theta):
    # every branch rounds the exact residue v * theta mod 1 once
    got = _phases_mod1(values, theta)
    want = np.array([float(Fraction(int(v)) * Fraction(theta) % 1) for v in values], dtype=float)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_fourier_grid_agreement():
    rng = np.random.default_rng(5)
    members = (np.nonzero(rng.random(10**4) < 0.5)[0] + 1).tolist()
    A = AvoidingSet.from_members(10**4, members)
    N = 1 << 15
    spec = fourier_grid(A, N)
    for j in rng.integers(0, N, 64):
        direct = fourier_point(A, Fraction(int(j), N))
        assert abs(spec.values[j] - direct) <= 1e-9 * max(1.0, abs(direct))
    assert spec.values[0] == pytest.approx(A.size)


def test_fourier_grid_too_small():
    A = AvoidingSet.from_members(100, [1, 99])
    with pytest.raises(ValueError):
        fourier_grid(A, 100)


def test_conjugate_symmetry():
    A = AvoidingSet.from_members(50, [3, 7, 31])
    spec = fourier_grid(A, 128)
    for j in (1, 13, 40):
        assert spec.values[-j] == pytest.approx(spec.values[j].conjugate())


@given(st.integers(1, 300), st.integers(0, 60), st.integers(0, 2**32 - 1))
@example(1, 7, 0)
@example(2, 7, 0)
@settings(max_examples=150, deadline=None)
def test_real_fold_matches_complex_fft(q, size, seed):
    # real weights take the real FFT and mirror it; the reference is the
    # complex FFT of the same fold
    rng = np.random.default_rng(seed)
    positions = rng.integers(-10**6, 10**6, size)
    weights = rng.standard_normal(size)
    folded = np.zeros(q, dtype=complex)
    np.add.at(folded, positions % q, weights)
    got = _fold_fft(positions, weights, q)
    assert got.shape == (q,) and got.dtype == np.complex128
    err = np.abs(got - np.fft.fft(folded)).max()
    assert err <= 1e-12 * np.abs(weights).sum()


def test_subgroup_parseval():
    rng = np.random.default_rng(17)
    for _ in range(50):
        X = int(rng.integers(50, 400))
        q = int(rng.integers(2, 65))
        members = (np.nonzero(rng.random(X) < 0.4)[0] + 1).tolist()
        if not members:
            continue
        A = AvoidingSet.from_members(X, members)
        lhs = sum(abs(fourier_point(A, Fraction(a, q))) ** 2 for a in range(q))
        arr = A.member_array()
        counts = np.bincount(arr % q, minlength=q)
        rhs = q * float(np.sum(counts.astype(float) ** 2))
        assert abs(lhs - rhs) <= 1e-6 * rhs


def test_weighted_image_spectrum_real_even(smooth24, x2ctx):
    img = g_build(x2ctx, 2000, 2, smooth24)
    N = 1 << 12
    spec = fourier_grid(img, N)
    assert spec.values.dtype == np.float64
    assert np.array_equal(spec.values[1:], spec.values[:0:-1])  # values[N - j] == values[j]
    assert spec.values[0] == pytest.approx(img.total_mass)
    assert img.fourier(0.0) == pytest.approx(img.total_mass)


# grid sizes for support magnitudes up to 1000: the smallest allowed (odd),
# the next (even, M = max + 1 <= 2^10, so no halving), M = 2^10 and 2^11 on
# either side of the halving's stop, and M = 3 * 2^11, halved three times
GRID_SIZES = {
    "2max+1": lambda maxv: 2 * maxv + 1,
    "2max+2": lambda maxv: 2 * maxv + 2,
    "2^11": lambda maxv: 1 << 11,
    "2^12": lambda maxv: 1 << 12,
    "3*2^12": lambda maxv: 3 << 12,
    "2^14": lambda maxv: 1 << 14,
}


@given(st.integers(0, 2**32 - 1), st.integers(0, 60), st.sampled_from(sorted(GRID_SIZES)))
@example(0, 0, "2max+1")
@example(1, 1, "2max+2")
@example(2, 60, "2^11")  # M = 2^10: one rfft, no halving
@example(3, 60, "2^12")  # M = 2^11: one halving, then the rfft
@settings(max_examples=150, deadline=None)
def test_weighted_image_grid_matches_fold_fft(smooth24, x2ctx, seed, size, kind):
    # the half-length cosine transform against the rfft fold of the even support
    rng = np.random.default_rng(seed)
    values = np.sort(rng.choice(np.arange(1, 1001), size, replace=False)).astype(np.int64)
    img = dataclasses.replace(
        g_build(x2ctx, 100, 2, smooth24), values=values, weights=rng.standard_normal(size)
    )
    N = GRID_SIZES[kind](int(values.max(initial=0)))
    got = fourier_grid(img, N).values
    want = _fold_fft(*_support(img), N)
    assert got.dtype == np.float64 and got.shape == (N,)
    assert np.abs(got - want).max() <= 1e-12 * 2.0 * np.abs(img.weights).sum()


@given(st.integers(1, 1 << 14), st.integers(0, 2**32 - 1))
@example(1 << 11, 0)
@example((1 << 11) + 4, 0)
@example(1 << 14, 1)
@example(3 << 11, 2)
@example(5 << 10, 3)
@settings(max_examples=150, deadline=None)
def test_cosine_spectrum_matches_rfft_of_even_extension(N, seed):
    # dense inputs; the extension puts x_0 (and x_M for even N) once and half
    # of every other x_n at n and at N - n
    rng = np.random.default_rng(seed)
    M = N // 2
    x = rng.standard_normal(M + 1)
    ext = np.zeros(N)
    ext[: M + 1] = x
    ext[1 : N - M] *= 0.5
    ext[M + 1 :] = ext[N - M - 1 : 0 : -1]
    half = np.fft.rfft(ext).real
    want = np.concatenate([half, half[N - M - 1 : 0 : -1]])
    got = _cosine_spectrum(np.arange(M + 1), x, N)
    assert got.dtype == np.float64 and np.array_equal(got[1:], got[:0:-1])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(x).sum()


def _cosine_spectrum_dense(x, N):
    """The dense transform that the support-only _cosine_spectrum replaced:
    x holds every x_n, n = 0..N // 2, and is overwritten; the twiddles are
    one table at the top level. Reference only."""
    M = N // 2
    out = np.empty(N)
    view, m, step, tw = out[: M + 1], M, 1, None
    while N % 2 == 0 and m % 2 == 0 and m > harmonic._DCT_BASE:
        L = m // 2
        h = L // 2 + 1
        if tw is None:
            tw = np.empty(h, dtype=complex)
            angle = np.arange(h) * (0.5 * np.pi / L)
            np.cos(angle, out=tw.real)
            np.sin(angle, out=tw.imag)
            tw *= 0.5
        z = out[M + 1 : M + 1 + L]
        np.subtract(x[:L], x[m:L:-1], out=z)
        x[:L] += x[m:L:-1]
        H = np.empty(h, dtype=complex)
        H.real = z[:h]
        H.imag[0] = 0.0
        np.negative(z[L - 1 : L - h : -1], out=H.imag[1:])
        H[1:] *= tw[step : step * h : step]
        np.fft.irfft(H, L, norm="forward", out=z)
        k = (L + 1) // 2
        view[1:m:4] = z[:k]
        view[3:m:4] = z[k:][::-1]
        view, x, m, step = view[::2], x[: L + 1], L, 2 * step
    n = N if step == 1 else 2 * m
    ext = out if step == 1 else np.empty(n)
    ext[: m + 1] = x
    ext[1 : n - m] *= 0.5
    ext[m + 1 :] = ext[n - m - 1 : 0 : -1]
    view[:] = np.fft.rfft(ext).real
    out[M + 1 :] = out[N - M - 1 : 0 : -1]
    return out


def _dense_grid(vals, weights, N):
    """fourier_grid of an even support by the dense fold and transform."""
    r = vals % N
    return _cosine_spectrum_dense(np.bincount(np.minimum(r, N - r), weights, minlength=N // 2 + 1), N)


def _support_of(kind, N, rng):
    """(positions, weights) whose folded support is sparse, dense, or holds
    s and M - s together, which the top halving pairs, with s reached three
    times (as s, -s and s + N)."""
    M = N // 2
    if kind == "sparse":
        pos = rng.integers(-3 * N, 3 * N, int(rng.integers(0, 80)))
    elif kind == "dense":
        pos = np.concatenate([np.arange(M + 1), -np.arange(M + 1)])
    else:
        s = rng.integers(0, M + 1, int(rng.integers(1, 40)))
        pos = np.concatenate([s, M - s, -s, s + N])
    weights = rng.standard_normal(pos.size)
    # exact zeros of either sign and cancelling pairs: the dense transform's
    # signed zeros must come out the same
    special = rng.random(pos.size)
    weights[special < 0.1] = 0.0
    weights[(0.1 <= special) & (special < 0.2)] = -0.0
    return pos, weights


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["sparse", "dense", "mirrored"]),
    st.one_of(st.integers(1, 1 << 14), st.sampled_from([1 << 15, 1 << 16, 3 << 13, (1 << 15) + 6])),
)
@example(0, "sparse", 1 << 14)
@example(1, "dense", 1 << 14)
@example(2, "mirrored", 1 << 16)
@example(3, "mirrored", (1 << 14) + 1)  # odd N: no halving, one dense rfft
@example(4, "dense", 1)
@settings(max_examples=200, deadline=None)
def test_cosine_spectrum_on_the_support_is_the_dense_one_bit_for_bit(seed, kind, N):
    rng = np.random.default_rng(seed)
    pos, weights = _support_of(kind, N, rng)
    got = _cosine_spectrum(*harmonic._even_fold(pos, weights, N), N)
    assert got.tobytes() == _dense_grid(pos, weights, N).tobytes()


def test_weighted_image_grid_is_the_dense_one_bit_for_bit(smooth24, x2ctx):
    # the minor-arc audit's image: X = 10^6, N = 2^21
    img = g_build(x2ctx, 10**6, 2.0, smooth24)
    N = 1 << 21
    got = fourier_grid(img, N).values
    assert got.tobytes() == _dense_grid(*_support(img), N).tobytes()


def test_weighted_image_grid_memory():
    # the cosine transform keeps the N float64 outputs and one N/8-point
    # complex H a level, about 11 bytes a point; a dense fold of the M + 1
    # weights and an N/8-point twiddle table would add 4N. The peak is the
    # child's VmHWM, which starts afresh at exec: ru_maxrss would carry over
    # the resident set of the process that forked it.
    N = 1 << 23
    code = (
        "from polysieve.harmonic import fourier_grid, g_build, smooth_weight_build\n"
        "from polysieve.intersective import AuxiliaryBuilder\n"
        "from polysieve.polycore import IntPoly\n"
        "def peak():\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        "aux = AuxiliaryBuilder(IntPoly((0, 0, 1))).context(1)\n"
        "img = g_build(aux, 2 * 10**6, 2.0, smooth_weight_build(24, 2**12))\n"
        "before = peak()\n"
        f"spec = fourier_grid(img, {N})\n"
        "print(peak() - before)\n"
    )
    assert int(run_python(code, timeout=120)) * 1024 < 12 * N  # VmHWM counts KiB


def test_import_loads_no_thread_pool():
    # the spectral layer's worker thread comes from concurrent.futures,
    # which is imported on the first call, not with the package
    code = "import sys, polysieve\nprint('concurrent.futures' in sys.modules)"
    assert run_python(code, timeout=60).strip() == "False"


def _spectral_calls(smooth24, x2ctx, sextic):
    """One fourier_grid with every halving level and the base, and Weyl
    audits on both paths: uint64 phases and object integers."""
    img = harmonic.g_build(x2ctx, 10**4, 2.0, smooth24)
    spec = harmonic.fourier_grid(img, 1 << 15)  # four levels of 2^13 .. 2^10 points
    thetas = [0.1, Fraction(1, 3), 2.0**-150, 0.7]
    return spec.values, [harmonic.weyl_sum_audit(ctx, 4.0, 2000, thetas).samples for ctx in (x2ctx, sextic)]


def test_spectral_layer_calls_public_functions_on_the_calling_thread(smooth24, x2ctx, fixtures, monkeypatch):
    # a tracer keeps one span stack for every thread, so the worker thread
    # may run numpy and private helpers only: every public function and
    # method of the package is wrapped, wherever it is bound, and records
    # the thread that calls it
    import inspect
    import threading

    sextic = AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    mods = [m for name, m in sorted(sys.modules.items()) if name.startswith("polysieve.")]
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapped

    spies = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                spies[id(obj)] = spy(f"{mod.__name__}.{attr}", obj)
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        monkeypatch.setattr(obj, meth, spy(f"{attr}.{meth}", fn))
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in spies:
                monkeypatch.setattr(mod, attr, spies[id(obj)])
    _spectral_calls(smooth24, x2ctx, sextic)
    names = {name for name, _ in calls}
    assert {"polysieve.harmonic.fourier_grid", "polysieve.harmonic.rational_approx"} <= names
    assert "IntPoly.eval_low64" in names
    assert {ident for _, ident in calls} == {threading.get_ident()}


def test_spectral_layer_runs_in_a_forked_child(smooth24, x2ctx, fixtures):
    # the worker thread lives for one call, so a child forked after the
    # parent ran the spectral layer has no pool whose thread it lacks
    import multiprocessing

    sextic = AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    want = _spectral_calls(smooth24, x2ctx, sextic)

    def child():  # an exception exits with code 1
        values, samples = _spectral_calls(smooth24, x2ctx, sextic)
        assert values.tobytes() == want[0].tobytes() and samples == want[1]

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=60)
    alive = proc.is_alive()
    if alive:
        proc.kill()
        proc.join()
    assert not alive and proc.exitcode == 0


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def test_gauss_examples(x2ctx):
    assert abs(gauss_sum_sieved(x2ctx, 1, 5, 2)) == pytest.approx(math.sqrt(5))
    val = gauss_sum_sieved(x2ctx, 1, 4, 2)
    assert val == pytest.approx(2j)
    assert gauss_sum_sieved(x2ctx, 0, 1, 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gauss_sum_sieved(x2ctx, 2, 4, 2)


def test_gauss_sweep_matches_pointwise(x2ctx, fixtures):
    # the sextic's auxiliary polynomial at ell = 2^13 has 63- to 69-bit
    # coefficients, past int64
    sextic = AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    assert max(abs(c) for c in sextic.aux.coeffs) >= 2**63
    for ctx, q_max, U in ((x2ctx, 24, 10), (sextic, 60, 60)):
        table = SieveTable.build(ctx, U)
        for q, a, mag in gauss_sum_sweep(ctx, q_max, U, all_a=True, table=table):
            direct = abs(gauss_sum_sieved(ctx, a if q > 1 else 1, q, U, table))
            assert mag == pytest.approx(direct, abs=1e-9)


def _gauss_sum_sweep_py(aux, q_max, U, all_a, table):
    """The per-(q, a) loop the FFT sweep replaced: reference only."""
    out = []
    for q in range(1, q_max + 1):
        keep = np.roll(w_mask(table, q, q)[1:], 1)
        hmod = aux.aux.eval_mod(np.arange(q), q)[keep]
        roots_of_unity = np.exp(2j * np.pi * np.arange(q) / q)
        a_values = [a for a in range(1, q + 1) if math.gcd(a, q) == 1] if all_a else [1]
        if q == 1:
            a_values = [0]
        for a in a_values:
            tot = roots_of_unity[(hmod * a) % q].sum() if hmod.size else 0j
            out.append((q, a % q if q > 1 else 0, float(abs(tot))))
    return out


@pytest.mark.parametrize("all_a", [True, False])
def test_gauss_sweep_matches_the_loop(x2ctx, fixtures, all_a):
    sextic = AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    for ctx, q_max, U in ((x2ctx, 300, 50), (sextic, 80, 60)):
        table = SieveTable.build(ctx, U)
        got = gauss_sum_sweep(ctx, q_max, U, all_a, table)
        want = _gauss_sum_sweep_py(ctx, q_max, U, all_a, table)
        assert got[0] == want[0] and got[0][:2] == (1, 0)
        assert [row[:2] for row in got] == [row[:2] for row in want]
        assert all(abs(g - w) <= 1e-12 * q for (q, _, g), (_, _, w) in zip(got, want))


def test_gauss_sweep_columns_read_as_rows(x2ctx):
    table = SieveTable.build(x2ctx, 50)
    sweep = gauss_sum_sweep(x2ctx, 40, 50, True, table)
    rows = _gauss_sum_sweep_py(x2ctx, 40, 50, True, table)
    assert isinstance(sweep, GaussSweep) and len(sweep) == len(rows) == sweep.mag.size
    assert sweep.q.itemsize + sweep.a.itemsize + sweep.mag.itemsize <= 24
    first, last = sweep[0], sweep[-1]
    assert first == (1, 0, 1.0) and [type(v) for v in last] == [int, int, float]
    assert list(sweep) == [sweep[i] for i in range(len(sweep))]
    assert [row[:2] for row in sweep] == [row[:2] for row in rows]
    part = sweep[3:9]
    assert isinstance(part, GaussSweep) and list(part) == list(sweep)[3:9]
    # equal to itself, to its rows as a list, and to nothing else
    assert sweep == gauss_sum_sweep(x2ctx, 40, 50, True, table) == list(sweep)
    assert list(sweep) == sweep and sweep != list(sweep)[:-1] and sweep != sweep[1:]
    assert sweep != [(q, a, mag + 1.0) for q, a, mag in sweep] and sweep != 3
    assert len(gauss_sum_sweep(x2ctx, 0, 50, True, table)) == 0


def test_gauss_sweep_keeps_a_few_bytes_a_row(x2ctx):
    # a benchmark that keeps every pass's sweep kept about 116 bytes a row
    # as Python tuples, 33.7 MiB at q_max = 1000
    import tracemalloc

    table = SieveTable.build(x2ctx, 1000.0)
    gauss_sum_sweep(x2ctx, 20, 1000.0, True, table)  # table caches out of the count
    tracemalloc.start()
    try:
        sweep = gauss_sum_sweep(x2ctx, 1000, 1000.0, True, table)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(sweep) == 304_192
    assert kept < 8 * 2**20


def test_gauss_odd_prime_magnitudes(x2ctx):
    from polysieve.nt import primes_upto

    table = SieveTable.build(x2ctx, 2)
    for q in primes_upto(500):
        if q == 2:
            continue
        assert abs(abs(gauss_sum_sieved(x2ctx, 1, q, 2, table)) - math.sqrt(q)) < 1e-9


def test_gauss_dyadic_block_stability(normalized_fixtures):
    # fitted constant against q^0.6 stays within a factor 2 across dyadic
    # blocks of q, matching square-root cancellation up to the epsilon slack
    for h in normalized_fixtures.values():
        ctx = AuxiliaryBuilder(h).context(1)
        table = SieveTable.build(ctx, 64)
        fits = []
        for lo, hi in ((8, 16), (16, 32), (32, 64)):
            best = 0.0
            for q in range(lo, hi):
                best = max(best, abs(gauss_sum_sieved(ctx, 1, q, 64, table)) / q**0.6)
            fits.append(best)
        assert max(fits) <= 2.5 * min(fits) + 1e-9


# ---------------------------------------------------------------------------
# Weyl sums
# ---------------------------------------------------------------------------


def test_weyl_theta_zero_counts_sieved(x2ctx):
    N = 2000
    rep = weyl_sum_audit(x2ctx, 4.0, N, [0.0])
    table = SieveTable.build(x2ctx, 4.0)
    count = int(w_mask(table, N)[1:].sum())
    assert rep.samples[0].lhs == pytest.approx(count)


def test_weyl_half_parity(x2ctx):
    N = 2000
    rep = weyl_sum_audit(x2ctx, 2.0, N, [0.5])
    table = SieveTable.build(x2ctx, 2.0)
    count = int(w_mask(table, N)[1:].sum())
    # odd n -> n^2 odd -> e(n^2/2) = -1 for every sieved term
    assert rep.samples[0].lhs == pytest.approx(count)
    assert rep.samples[0].q == 2


def test_weyl_envelope_golden(x2ctx):
    golden = (math.sqrt(5) - 1) / 2
    rep = weyl_sum_audit(x2ctx, 4.0, 10**4, [golden, math.pi - 3, 0.125])
    assert max(s.fitted_c for s in rep.samples) < 10.0
    for s in rep.samples:
        assert s.lhs <= s.rhs * max(s.fitted_c, 1.0) + 1e-9


def test_weyl_object_values_small_theta(fixtures):
    # values past 2^63 evaluate as object integers; theta = 2^-150 has a
    # power-of-two denominator above 2^64, so their phases reduce in objects
    ctx = AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    theta = 2.0**-150
    rep = weyl_sum_audit(ctx, 4.0, 10**4, [theta])
    ns = np.flatnonzero(w_mask(SieveTable.build(ctx, 4.0), 10**4))
    ref = sum(
        cmath.exp(-2j * math.pi * float(Fraction(ctx.aux(int(n))) * Fraction(theta) % 1))
        for n in ns
    )
    assert abs(rep.samples[0].lhs - abs(ref)) <= 1e-9 * len(ns)


def test_weyl_float_thetas_build_no_object_values(fixtures, monkeypatch):
    # a float theta >= 2^-12 has a power-of-two denominator <= 2^64, so its
    # phases need h(n) mod 2^64 only: the sextic's values past 2^63 are
    # never built as object integers, and each sum is the one they give
    ctx = AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    table = SieveTable.build(ctx, 4.0)
    thetas = [0.1, (math.sqrt(5) - 1) / 2, 0.125, 0.999]
    built = []
    call = IntPoly.__call__

    def spy(self, x):
        out = call(self, x)
        if isinstance(out, np.ndarray) and out.dtype == object:
            built.append(out.size)
        return out

    monkeypatch.setattr(IntPoly, "__call__", spy)
    rep = weyl_sum_audit(ctx, 4.0, 10**4, thetas, table=table)
    assert built == []
    weyl_sum_audit(ctx, 4.0, 10**4, [Fraction(1, 3)], table=table)
    assert built  # another denominator needs the values themselves
    monkeypatch.undo()
    vals = ctx.aux(np.flatnonzero(w_mask(table, 10**4)[1:]) + 1)
    assert vals.dtype == object
    for s, theta in zip(rep.samples, thetas):
        assert s.lhs == abs(complex(np.sum(np.exp(-2j * np.pi * _phases_mod1(vals, theta)))))


@pytest.mark.parametrize("name", ["squares", "sextic"])
def test_weyl_lhs_bits_match_fresh_arrays(fixtures, x2ctx, name):
    # the audit reuses one set of arrays across its thetas; each lhs is the
    # bits of the expression that allocates new ones for every theta
    ctx = x2ctx if name == "squares" else AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    table = SieveTable.build(ctx, 4.0)
    rng = np.random.default_rng(20)
    thetas = [*rng.random(16), Fraction(1, 3), Fraction(2, 7), Fraction(1, (1 << 40) + 15), 2.0**-150]
    rep = weyl_sum_audit(ctx, 4.0, 10**4, thetas, table=table)
    vals = ctx.aux(np.flatnonzero(w_mask(table, 10**4)[1:]) + 1)
    for s, theta in zip(rep.samples, thetas, strict=True):
        assert s.lhs == abs(complex(np.sum(np.exp(-2j * np.pi * _phases_mod1(vals, theta)))))


@pytest.mark.parametrize("count", [1, 2, 3, 20])
@pytest.mark.parametrize("name", ["squares", "sextic"])
def test_weyl_halves_match_one_theta_at_a_time(fixtures, x2ctx, name, count):
    # the second half of the thetas is summed on the worker thread; every
    # sample is the bits of an audit of its theta alone
    ctx = x2ctx if name == "squares" else AuxiliaryBuilder(fixtures["sextic"]).context(8192)
    table = SieveTable.build(ctx, 4.0)
    thetas = [Fraction(1, 3), 2.0**-150, *np.random.default_rng(count).random(18)][:count]
    rep = weyl_sum_audit(ctx, 4.0, 10**4, thetas, table=table)
    alone = [weyl_sum_audit(ctx, 4.0, 10**4, [theta], table=table).samples[0] for theta in thetas]
    assert rep.samples == alone
    vals = ctx.aux(np.flatnonzero(w_mask(table, 10**4)[1:]) + 1)
    for s, theta in zip(rep.samples, thetas, strict=True):
        assert s.lhs == abs(complex(np.sum(np.exp(-2j * np.pi * _phases_mod1(vals, theta)))))


def test_weyl_rational_theta_exact(x2ctx):
    # a rational theta = a/q stays exact: the sum over the sieved n <= N is
    # the sum over residues r of #{n : n^2 = r mod q} e(-r a / q)
    N = 10**6
    ns = np.flatnonzero(w_mask(SieveTable.build(x2ctx, 4.0), N)[1:]) + 1
    thetas = [Fraction(1, 3), Fraction(2, 7)]
    rep = weyl_sum_audit(x2ctx, 4.0, N, thetas)
    for s, theta in zip(rep.samples, thetas):
        a, q = theta.numerator, theta.denominator
        counts = np.bincount(ns * ns % q, minlength=q)
        exact = sum(int(c) * cmath.exp(-2j * math.pi * (r * a % q) / q) for r, c in enumerate(counts))
        assert abs(s.lhs - abs(exact)) <= 1e-6
        assert s.theta == float(theta) and (s.a, s.q) == (a, q)


def test_weyl_hypothesis_guard(x2ctx):
    with pytest.raises(ValueError):
        weyl_sum_audit(x2ctx, 100.0, 150, [0.1])  # U Z > N


# ---------------------------------------------------------------------------
# rational approximation and arcs
# ---------------------------------------------------------------------------


def test_rational_approx_examples():
    assert rational_approx(0.5, 10) == (1, 2, 0.0)
    a, q, d = rational_approx(math.pi - 3, 10)
    assert (a, q) == (1, 7) and d == pytest.approx(0.0012644892, abs=1e-9)
    a, q, d = rational_approx(Fraction(16, 113), 200)
    assert (a, q, d) == (16, 113, 0.0)


@given(st.floats(0, 1, allow_nan=False, allow_infinity=False), st.integers(1, 500))
@settings(max_examples=150, deadline=None)
def test_rational_approx_dirichlet_bound(theta, qmax):
    a, q, delta = rational_approx(theta, qmax)
    assert 1 <= q <= qmax
    assert math.gcd(a, q) == 1 or a == 0
    assert delta <= 1.0 / q  # coarse; convergents give 1/(q q') <= 1/q


def test_classify_examples():
    params = ArcParams.make(0.1, 1.0, 10.0, 10**5)
    assert classify_arc(0.0, params).is_major
    assert classify_arc(0.0, params).q == 1
    arc = classify_arc(0.5 + params.tau / 2, params)
    assert (arc.kind, arc.q, arc.a) == ("major", 2, 1)
    tiny = ArcParams(alpha=0.1, epsilon=1.0, C1=10.0, X=10**5, tau=1e-9, Qmax=2.0, L=math.log(10))
    assert classify_arc(0.5 + 2e-5, tiny).kind == "minor"


def test_arc_params_invariants():
    p = ArcParams.make(0.1, 1.0, 10.0, 10**5)
    assert p.L == math.log(10)
    assert p.tau == pytest.approx(10 * math.log(10) ** 2 / 10**5)
    assert p.Qmax == pytest.approx(10 * 0.1**-3)


def test_harmonic_params(x2ctx):
    hp = HarmonicParams.for_scale(10**6, x2ctx)
    assert hp.K == 4
    assert hp.U == pytest.approx(math.exp(math.sqrt(math.log(10**6))))
    assert hp.Z == pytest.approx(math.exp(math.log(10**6) ** 0.875))
    assert abs(hp.Y - (hp.X / hp.b_k) ** (1 / hp.k)) <= 1 + sum(abs(c) for c in x2ctx.aux.coeffs)
    assert hp.U * hp.Z <= 10**6  # the Weyl range U Z <= N holds at N = X


def test_harmonic_params_y_solves(normalized_fixtures):
    for h in normalized_fixtures.values():
        ctx = AuxiliaryBuilder(h).context(1)
        X = 10**8
        hp = HarmonicParams.for_scale(X, ctx)
        assert h(hp.Y) == pytest.approx(X, rel=1e-6)
        assert abs(hp.Y - (X / hp.b_k) ** (1 / hp.k)) <= 1 + sum(abs(c) for c in h.coeffs) / h.leading


# ---------------------------------------------------------------------------
# major/minor arcs and mass
# ---------------------------------------------------------------------------


def test_major_arc_q1_ratio(smooth24, x2ctx):
    img = g_build(x2ctx, 10**5, 2, smooth24)
    rep = major_arc_predict(img, 0, 1, 0.0, smooth24)
    assert rep.ratio == pytest.approx(1.0, abs=0.05)
    assert rep.predicted == pytest.approx(2 * 10**5 * smooth24.mass, rel=0.01)


def test_major_arc_q5_agreement(smooth24, x2ctx):
    img = g_build(x2ctx, 10**6, 2, smooth24)
    rep = major_arc_predict(img, 1, 5, 0.0, smooth24)
    assert rep.rel_to_mass < 0.05
    assert rep.ratio == pytest.approx(1.0, abs=0.1)


def test_major_arc_hypothesis_flags(smooth24, x2ctx):
    img = g_build(x2ctx, 10**6, 2, smooth24)
    rep = major_arc_predict(img, 1, 4, 0.0, smooth24)
    assert not rep.hypotheses_ok  # q = 4 > X^(1/16)
    # both sides nearly vanish: odd squares sit at 1 mod 8, so the phase at
    # 1/4 is i times a real sum and the even extension cancels it
    assert abs(rep.measured) < 1e-6 * img.total_mass
    assert abs(rep.predicted) < 1e-6 * img.total_mass


def test_minor_arc_qualitative(smooth24, x2ctx):
    X = 10**6
    img = g_build(x2ctx, X, 2, smooth24)
    golden = (math.sqrt(5) - 1) / 2
    assert abs(img.fourier(golden)) < 0.05 * img.total_mass
    # the documented constants make the arcs cover the whole circle at desk
    # scale, so a meaningful audit needs a modest denominator cutoff
    params = ArcParams(
        alpha=0.1, epsilon=1.0, C1=10.0, X=X,
        tau=10 * math.log(10) ** 2 / X, Qmax=40.0, L=math.log(10),
    )
    rep = minor_arc_audit(img, 0.1, params=params, extra_points=[golden])
    assert rep.n_minor_sampled > 0
    assert rep.sup_minor >= abs(img.fourier(golden)) - 1e-9
    assert rep.threshold == pytest.approx(2.0**-9 * 0.1 * X)
    assert rep.passes == (rep.sup_minor <= rep.threshold)
    assert not rep.hypothesis_ok  # the asymptotic lower bound cannot hold here
    assert rep.hypothesis_ok == (0.1 >= rep.alpha_floor)
    assert not rep.arcs_cover_circle


def test_minor_arc_default_constants_cover_circle(smooth24, x2ctx):
    img = g_build(x2ctx, 10**4, 2, smooth24)
    rep = minor_arc_audit(img, 0.1)
    assert rep.arcs_cover_circle
    assert rep.n_minor_sampled == 0 and rep.passes


def test_minor_arc_excludes_major_points(smooth24, x2ctx):
    X = 10**4
    img = g_build(x2ctx, X, 2, smooth24)
    params = ArcParams(
        alpha=0.1, epsilon=1.0, C1=10.0, X=X,
        tau=10 * math.log(10) ** 2 / X, Qmax=20.0, L=math.log(10),
    )
    rep = minor_arc_audit(img, 0.1, params=params)
    assert rep.n_minor_sampled > 0
    assert classify_arc(rep.argmax_theta, params).kind == "minor"


@pytest.mark.parametrize(
    "qmax, tau_times_q",
    [(40.0, None), (200.0, None), (40.0, 0.6), (1250.0, None)],
    ids=["qmax40", "qmax200", "farey_cover", "dirichlet_cover"],
)
def test_minor_arc_audit_matches_brute_force(smooth24, x2ctx, qmax, tau_times_q):
    X = 2 * 10**4
    img = g_build(x2ctx, X, 2, smooth24)
    params = dataclasses.replace(ArcParams.make(0.2, 1.0, 10.0, X), Qmax=qmax)
    if tau_times_q is not None:
        params = dataclasses.replace(params, tau=tau_times_q / qmax)
    extra = [math.sqrt(2), -math.pi, 3 + 2 * params.tau]
    rep = minor_arc_audit(img, 0.2, params=params, extra_points=extra)

    N = 2**16
    thetas = [j / N for j in range(N)] + extra
    minor = np.array([not classify_arc(t, params).is_major for t in thetas])
    assert np.array_equal(~major_arc_mask(np.array(thetas), params), minor)
    mags = np.concatenate(
        [np.abs(fourier_grid(img, N).values), [abs(img.fourier(t)) for t in extra]]
    )
    assert rep.n_minor_sampled == int(minor.sum())
    assert rep.arcs_cover_circle == (not minor.any())
    if minor.any():
        assert rep.sup_minor == mags[minor].max()
        assert 0.0 <= rep.argmax_theta < 1.0
        assert abs(abs(img.fourier(rep.argmax_theta)) - rep.sup_minor) <= 1e-9 * img.total_mass
    else:
        assert rep.sup_minor == 0.0 and rep.argmax_theta is None


def _major_arc_mask_blocks(thetas, params):
    """The block-sort major_arc_mask, kept as the reference: per block of
    about 2^21 fractions, one sort and one searchsorted of every theta, and
    a test of its two sorted neighbours."""
    t = np.asarray(thetas, dtype=float)
    t = t - np.floor(t)
    if params.covers_circle:
        return np.ones(t.shape, dtype=bool)
    tol = params.tau + 1e-18
    mask = np.zeros(t.shape, dtype=bool)
    qmax = int(params.Qmax)
    step = max(1, (1 << 21) // (qmax + 1))
    for lo in range(1, qmax + 1, step):
        qs = range(lo, min(lo + step, qmax + 1))
        fracs = np.sort(np.concatenate([np.arange(q + 1) / q for q in qs]))
        i = np.searchsorted(fracs, t)
        mask |= (np.abs(t - fracs[i - 1]) <= tol) | (np.abs(t - fracs[i]) <= tol)
    return mask


def _arc_edges(params, qs):
    """Points on and one float beside both ends of the arcs around a/q."""
    out = []
    for q in qs:
        for a in range(q + 1):
            for end in (a / q - params.tau, a / q + params.tau):
                out += [end, np.nextafter(end, -1.0), np.nextafter(end, 2.0)]
    return out


def test_major_arc_mask_matches_blocks_with_gaps():
    # Qmax = 10^4 with tau = 2.6e-5: the arcs leave gaps, and the reference
    # sorts about 5 * 10^7 fractions in 24 blocks
    params = dataclasses.replace(ArcParams.make(0.2, 1.0, 10.0, 10**6), Qmax=1e4, tau=2.6e-5)
    assert not params.covers_circle
    N = 1 << 16
    rng = np.random.default_rng(7)
    thetas = np.concatenate(
        [np.arange(N) / N, rng.random(1000) * 6 - 3, _arc_edges(params, [1, 2, 3, 9973, 10**4])]
    )
    got = major_arc_mask(thetas, params)
    assert np.array_equal(got, _major_arc_mask_blocks(thetas, params))
    assert 0 < int((~got).sum()) < thetas.size


@given(
    st.integers(1, 400),
    st.floats(0.0, 0.999),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "grid", "edges", "ties"]),
)
@example(1, 0.0, 0, "edges")
@example(40, 0.5, 1, "edges")
@example(400, 0.999, 2, "grid")
@settings(max_examples=200, deadline=None)
def test_major_arc_mask_matches_blocks(qmax, cover, seed, kind):
    # 2 tau Qmax = cover < 1, so the arcs never cover the circle
    params = dataclasses.replace(
        ArcParams.make(0.2, 1.0, 10.0, 10**6), Qmax=float(qmax), tau=max(cover, 1e-12) / (2 * qmax)
    )
    rng = np.random.default_rng(seed)
    if kind == "random":
        thetas = rng.random(500) * 4 - 2
    elif kind == "grid":
        thetas = np.arange(4096) / 4096
    elif kind == "edges":
        thetas = np.array(_arc_edges(params, rng.integers(1, qmax + 1, 5).tolist()))
    else:  # many equal thetas at the ends of arcs
        thetas = np.repeat(_arc_edges(params, [1, qmax]), 3)
    assert np.array_equal(major_arc_mask(thetas, params), _major_arc_mask_blocks(thetas, params))


@pytest.mark.parametrize("qmax", [3, 50, 400])
def test_major_arc_mask_keeps_gaps_a_hair_wider_than_two_arcs(qmax):
    # 1/qmax and 1/(qmax - 1) are neighbours in the Farey sequence; with tau
    # a hair below half their gap, the middle of the gap is minor, and runs
    # of overlapping arcs must not join across it
    gap = Fraction(1, qmax * (qmax - 1))
    params = dataclasses.replace(
        ArcParams.make(0.2, 1.0, 10.0, 10**6), Qmax=float(qmax), tau=float(gap / 2) * (1 - 1e-4)
    )
    fracs = sorted({Fraction(a, q) for q in range(1, qmax + 1) for a in range(q + 1)})
    middles = np.array([float((x + y) / 2) for x, y in zip(fracs, fracs[1:])])
    got = major_arc_mask(middles, params)
    assert np.array_equal(got, _major_arc_mask_blocks(middles, params))
    assert not got[fracs.index(Fraction(1, qmax))]


def test_initial_mass_examples():
    p = ArcParams.make(0.5, 1.0, 10.0, 10)
    assert initial_mass(AvoidingSet.empty(10), 0.0, p) == 0.0

    A = AvoidingSet.from_members(300, range(3, 301, 3))
    params = ArcParams.make(1 / 3, 1.0, 10.0, 300)
    total = initial_mass(A, 0.0, params)
    q3 = 3 ** (-1 / (2 + 1)) * 2 * 100**2
    assert total >= q3
    # direct check of the q = 3 term via pointwise evaluation
    term = 3 ** (-1 / 3) * sum(
        abs(fourier_point(A, Fraction(a, 3))) ** 2 for a in (1, 2)
    )
    assert term == pytest.approx(q3)

    full = AvoidingSet.full(300)
    pf = ArcParams.make(1.0, 1.0, 10.0, 300)
    mass = initial_mass(full, 0.0, pf)
    assert mass < 300**2 / 8  # far below the alpha^2 X^2 scale


def _initial_mass_py(A, xi, params):
    """initial_mass with its reduced residues from a gcd list: reference only."""
    ns = A.member_array()
    shift = np.exp(-2j * np.pi * np.mod(ns * float(xi), 1.0))
    total = 0.0
    for q in range(2, int(params.Qmax) + 1):
        folded = np.zeros(q, dtype=complex)
        np.add.at(folded, ns % q, shift)
        hat = np.fft.fft(folded)
        amask = np.array([a for a in range(1, q) if math.gcd(a, q) == 1])
        total += q ** (-1.0 / (2.0 + params.epsilon)) * float(np.sum(np.abs(hat[amask]) ** 2))
    return total


def test_initial_mass_matches_the_gcd_list():
    # the mass set of the spectral_audit benchmark at seed 1, where the sum
    # was 0x1.c59fdc7471194p+23 with the residues from a gcd list
    rng = np.random.default_rng([1, 2])
    rng.random(20)
    A = AvoidingSet.from_members(10**4, (np.nonzero(rng.random(10**4) < 0.3)[0] + 1).tolist())
    params = ArcParams.make(A.alpha, 1.0, 10.0, A.X)
    total = initial_mass(A, 0.0, params)
    assert total == pytest.approx(_initial_mass_py(A, 0.0, params), rel=1e-13)
    assert total == pytest.approx(float.fromhex("0x1.c59fdc7471194p+23"), rel=1e-12)
    xi = params.tau / 3
    assert initial_mass(A, xi, params) == pytest.approx(_initial_mass_py(A, xi, params), rel=1e-13)


def test_initial_mass_matches_the_oracle_past_x():
    # Qmax = 10 * 0.2^-3 (1249.99... in floats) > X = 200: the moduli q >= X
    # read q R(0), and the divisor subtraction runs over every q <= Qmax
    rng = np.random.default_rng(31)
    A = AvoidingSet.from_members(200, (np.flatnonzero(rng.random(200) < 0.2) + 1).tolist())
    params = ArcParams.make(0.2, 1.0, 10.0, A.X)
    assert int(params.Qmax) == 1249
    for xi in (0.0, params.tau / 3, -params.tau / 3):
        got = initial_mass(A, xi, params)
        assert got == pytest.approx(_initial_mass_py(A, xi, params), rel=1e-13)
    assert initial_mass(A, params.tau / 3, params) == initial_mass(A, -params.tau / 3, params)


def _mod_masses_np_mod(A, offset, q_max, xis):
    """_mod_masses with its phases reduced by np.mod: reference only."""
    R = harmonic._autocorrelation(A.indicator()[1:], offset)
    out = np.full((len(xis), 1), R[0]) * np.arange(q_max + 1)
    for i, xi in enumerate(xis):
        terms = np.cos(np.mod(np.arange(A.X) * abs(xi), 1.0) * harmonic.TWO_PI) * R
        for q in range(1, min(q_max, A.X - 1) + 1):
            out[i, q] = q * (R[0] + 2.0 * float(terms[q::q].sum()))
    return out


@given(
    st.integers(1, 30_000),
    st.floats(0.01, 0.9),
    st.integers(0, 2**32 - 1),
    st.integers(1, 64),
    st.floats(1e-6, 4.0),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_mod_masses_match_np_mod_bit_for_bit(X, density, seed, q_max, tau, balanced):
    # x - floor(x) is fmod(x, 1) exactly for finite x >= 0, so each mass is
    # the np.mod formula's to the bit, on the 17 offsets of the increment's scan
    A = AvoidingSet.from_indicator(np.append(False, np.random.default_rng(seed).random(X) < density))
    xis = np.arange(0, 33, 2) * tau / 32
    offset = A.alpha if balanced else 0.0
    got = harmonic._mod_masses(A, offset, q_max, xis)
    assert np.array_equal(got.view(np.int64), _mod_masses_np_mod(A, offset, q_max, xis).view(np.int64))


def test_initial_mass_xi_guard():
    p = ArcParams.make(0.5, 1.0, 10.0, 100)
    with pytest.raises(ValueError):
        initial_mass(AvoidingSet.full(100), p.tau * 2, p)
    # alpha = 10^-3 gives Qmax = 10^10: refused before any array is built
    sparse = ArcParams.make(1e-3, 1.0, 10.0, 1000)
    with pytest.raises(ValueError, match="too large"):
        initial_mass(AvoidingSet.from_members(1000, [500]), 0.0, sparse)
