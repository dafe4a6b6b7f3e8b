import itertools
import math
import os
import pickle
import shutil
import subprocess
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import int_polys, run_python, squares_upto
from polysieve import search
from polysieve.intersective import AuxiliaryBuilder
from polysieve.polycore import IntPoly
from polysieve.search import (
    AvoidingSet,
    TimeBudgetExceeded,
    dmax_table,
    exact_max_avoiding,
    exhaustive_max_table,
    forbidden_values,
    greedy_avoiding,
    image_values,
    verify_avoiding,
)

SQ = squares_upto(10**5)


def test_forbidden_values_examples():
    ctx = AuxiliaryBuilder(IntPoly((0, 0, 1))).context(1)
    assert forbidden_values(ctx, 30) == [1, 4, 9, 16, 25]
    aux2 = AuxiliaryBuilder(IntPoly((-1, 0, 1))).context(2)
    assert aux2.aux.coeffs == (0, -2, 2)
    assert forbidden_values(aux2, 30) == [4, 12, 24]


def _forbidden_per_n(poly, X):
    """The per-n scan forbidden_values used to run: reference only."""
    vals = []
    n = 1
    while True:
        v = poly(n)
        if v > X:
            break
        if v >= 1:
            vals.append(v)
        n += 1
    return sorted(set(vals))


def test_forbidden_values_matches_per_n_scan(normalized_fixtures):
    for h in normalized_fixtures.values():
        builder = AuxiliaryBuilder(h)
        for ell in (1, 6):
            ctx = builder.context(ell)
            for X in (1, 50, 10**4):
                assert forbidden_values(ctx, X) == _forbidden_per_n(ctx.aux, X)


def test_exact_examples():
    assert exact_max_avoiding(SQ, 3)[0] == 2
    assert exact_max_avoiding(SQ, 6)[0] == 3
    assert exact_max_avoiding(SQ, 10)[0] == 4
    assert exact_max_avoiding([1], 10)[0] == 5


def test_exact_cap():
    with pytest.raises(ValueError):
        exact_max_avoiding([1], 2001)


def test_greedy_examples():
    g = greedy_avoiding(SQ, 10)
    assert g.members() == [1, 3, 6, 8]
    assert greedy_avoiding([], 5).members() == [1, 2, 3, 4, 5]
    assert greedy_avoiding(SQ, 0) == greedy_avoiding([], 0) == AvoidingSet.empty(0)
    assert greedy_avoiding(SQ, 1) == AvoidingSet.full(1)
    assert greedy_avoiding([], 70) == AvoidingSet.full(70)
    assert greedy_avoiding([0, -3, 70, 71], 70) == AvoidingSet.full(70)  # no difference in [1, 69]


def test_verify_examples():
    ok, viol = verify_avoiding(AvoidingSet.from_members(10, [1, 3, 6, 8]), SQ)
    assert ok and viol is None
    ok, viol = verify_avoiding(AvoidingSet.from_members(10, [1, 2]), SQ)
    assert not ok and viol == (1, 2, 1)
    assert verify_avoiding(AvoidingSet.empty(10), SQ) == (True, None)


FAMILIES = {
    "squares": SQ,
    "cubes": [n**3 for n in range(1, 30)],
    "unit": [1],
    "2n2-2n": [4, 12, 24, 40, 60, 84, 112, 144, 180, 220, 264, 312, 364, 420, 480],
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_exact_matches_exhaustive_oracle(name):
    F = FAMILIES[name]
    oracle = exhaustive_max_table(F, 22)
    for X in range(1, 23):
        size, witness = exact_max_avoiding(F, X)
        assert size == oracle[X]
        ok, _ = verify_avoiding(witness, F)
        assert ok and witness.size == size


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_dmax_table_matches_oracle(name):
    F = FAMILIES[name]
    oracle = exhaustive_max_table(F, 22)
    table = dmax_table(F, 22)
    assert [d for _, d, _ in table] == oracle[1:]
    for X, d, w in table:
        ok, _ = verify_avoiding(w, F)
        assert ok and w.size == d and w.X == X


def test_exhaustive_table_depends_only_on_the_differences_in_range():
    want = exhaustive_max_table([1, 4, 9, 16], 20)
    assert exhaustive_max_table([16, 9, 4, 1], 20) == want
    assert exhaustive_max_table((9, 1, 4, 4, 16, 1), 20) == want
    assert exhaustive_max_table([0, -3, 1, 4, 9, 16, 20, 25, 400], 20) == want
    expected = want.copy()
    want[1] = -1  # the caller owns the list it was given
    want.append(99)
    assert exhaustive_max_table([1, 4, 9, 16], 20) == expected
    assert exhaustive_max_table([], 0) == [0] and exhaustive_max_table([1], 1) == [0, 1]


def test_exhaustive_table_memory():
    # at X = 24 the DP keeps 16 MiB independence and size tables; a level
    # mask of int64 indices would add 128 MiB of temporaries on the last level
    code = (
        "import resource\n"
        "from polysieve.search import exhaustive_max_table\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "exhaustive_max_table([n * n for n in range(1, 5)], 24)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    assert int(run_python(code, timeout=120)) < 64 * 1024  # ru_maxrss counts KiB on Linux


def test_dmax_monotone_unit_steps():
    table = dmax_table(SQ, 120)
    ds = [d for _, d, _ in table]
    assert all(ds[i] <= ds[i + 1] <= ds[i] + 1 for i in range(len(ds) - 1))


def test_dmax_table_rows_behave_as_a_list():
    table = dmax_table(SQ, 30)
    rows = list(table)
    assert len(table) == 30 and table[-1] == rows[29] and table[5:8] == rows[5:8]
    assert table == rows and rows == table and table == dmax_table(SQ, 30)
    assert table != rows[:29]
    with pytest.raises(IndexError):
        table[30]
    for (_, d0, w0), (_, d1, w1) in zip(rows, rows[1:]):
        if d1 == d0:
            assert w1.bits is w0.bits  # a refuted row shares the witness before it


def test_dmax_table_is_compact():
    table = dmax_table(SQ, 130)
    assert not hasattr(table, "__dict__")
    # one bit per row, and one witness of three words per value of D
    assert table._rises.bit_length() <= 131 and len(table._witnesses) == 24 * (table[-1][1] + 1)


def _table_digest(F, X_max):
    rows = b"".join(f"{X} {d} {w.bits:x}\n".encode() for X, d, w in dmax_table(F, X_max))
    return zlib.crc32(rows)


SERIAL = 1 << 62  # a split threshold above any row's node count
SPLIT = -1  # a split threshold below every row's: each row splits into jobs


def test_plateau_tables_are_pinned(monkeypatch):
    # the D column and every witness, as the search anchored at X alone found
    # them, whether or not the rows split into jobs
    for threshold in (search._SPLIT_NODES, SPLIT):
        monkeypatch.setattr(search, "_SPLIT_NODES", threshold)
        assert _table_digest(squares_upto(172), 172) == 3317257726
        assert _table_digest([n * n - 1 for n in range(2, 11)], 106) == 1850201570


@given(st.integers(1, 90), st.sets(st.integers(1, 30), max_size=10))
@settings(max_examples=60, deadline=None)
def test_every_rise_has_a_witness_holding_both_ends(X_max, F):
    d_before = 0
    for X, d, w in dmax_table(sorted(F), X_max):
        if d > d_before:
            assert 1 in w and X in w and w.size == d and verify_avoiding(w, sorted(F))[0]
        d_before = d


def test_node_counts_repeat_and_start_at_zero(monkeypatch):
    table = dmax_table(SQ, 120)
    assert len(table.nodes) == 120 and table.nodes == dmax_table(SQ, 120).nodes
    # the kernel counts the same nodes whether or not it reads a clock, and
    # whether or not the rows split into jobs
    assert dmax_table(SQ, 120, time_budget=1e6).nodes == table.nodes
    monkeypatch.setattr(search, "_SPLIT_NODES", SPLIT)
    assert dmax_table(SQ, 120).nodes == dmax_table(SQ, 120, time_budget=1e6).nodes == table.nodes
    for X, nodes in zip(range(1, 121), table.nodes):
        # a row whose X - 1 is forbidden is refuted before the search starts
        assert (nodes == 0) == (X - 1 in SQ), X


@given(st.integers(1, 90), st.sets(st.integers(1, 30), max_size=10))
@example(82, {1, 18, 27, 30})  # a later job often finds its set before the first job holding one
@settings(max_examples=60, deadline=None)
def test_split_rows_match_the_serial_table(X_max, F):
    # the first job in the search's order that finds a set wins, and the
    # count stops with it, so the rows and counts are the serial kernel's
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_SPLIT_NODES", SERIAL)
        serial = dmax_table(sorted(F), X_max)
        mp.setattr(search, "_SPLIT_NODES", SPLIT)
        split = dmax_table(sorted(F), X_max)
    assert list(split) == list(serial) and split.nodes == serial.nodes


def test_split_table_leaves_no_thread(monkeypatch):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to list the threads")
    monkeypatch.setattr(search, "_SPLIT_NODES", SPLIT)
    dmax_table(SQ, 40)  # the kernel is loaded and warm
    before = sorted(os.listdir("/proc/self/task"))
    table = dmax_table(SQ, 130)
    assert max(table.nodes) > 1 << 16  # rows large enough that both threads take jobs
    assert sorted(os.listdir("/proc/self/task")) == before


@given(st.sets(st.integers(1, 30), max_size=10), st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=20))
@example({1, 4, 9}, [0xFFFF, 0, 1, 0x8001])
@settings(max_examples=40, deadline=None)
def test_window_table_matches_brute_force(F, patterns):
    T = search._window_table(frozenset(F))
    assert T.shape == (1 << 16,)
    for p in patterns:
        best, s = 0, p
        while True:  # every subset s of p's positions
            if all(not s & s >> f for f in F):
                best = max(best, s.bit_count())
            if s == 0:
                break
            s = (s - 1) & p
        assert T[p] == best <= p.bit_count()


def test_kernel_source_builds_without_warnings():
    cc = shutil.which("gcc")
    if cc is None:
        pytest.skip("gcc not found")
    args = [cc, "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only", str(search._SOURCE)]
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_TSAN_PROGRAM = r"""
#include <stdio.h>
#include "_anchor.c"

static int calls;
static int never(void) { return 0; }
static int third(void) { return ++calls >= 3; }  /* tick runs under the kernel's lock */

int main(int argc, char **argv)
{
    int X, W;
    FILE *f = fopen(argv[1], "rb");
    if (!f || fread(&X, sizeof X, 1, f) != 1 || fread(&W, sizeof W, 1, f) != 1)
        return 2;
    int *D = malloc((X + 1) * sizeof *D);
    uint64_t *rows = malloc((X + 1) * W * sizeof *rows), *masks = malloc((X + 1) * W * sizeof *masks);
    uint64_t *out = malloc(W * sizeof *out);
    uint8_t *T = malloc(1 << 16);
    if (fread(D, sizeof *D, X + 1, f) != (size_t)X + 1 || fread(rows, sizeof *rows, (X + 1) * W, f) != (size_t)(X + 1) * W
        || fread(T, 1, 1 << 16, f) != 1 << 16)
        return 2;
    long nodes;
    int (*ticks[])(void) = {NULL, never, third};
    for (int x = X - 1; x <= X; x++)
        for (int i = 0; i < 3; i++) {
            calls = 0;
            int r = anchor_decide(x, D[x - 1] + 1, W, D, rows, T, masks, out, ticks[i], 64, &nodes, 6);
            printf("%d %ld", r, nodes);
            for (int k = 0; k < W; k++)
                printf(" %llx", (unsigned long long)out[k]);
            printf("\n");
        }
    return 0;
}
"""


def test_split_decision_is_race_free_under_thread_sanitizer(tmp_path):
    # two large squares rows, one refuted and one raising D, each decided on
    # two threads without a clock, with a clock that never fires, and with
    # one that fires on its third reading
    cc = shutil.which("gcc")
    if cc is None:
        pytest.skip("gcc not found")
    X, W = 131, 3
    table = dmax_table(SQ, X)
    D = np.array([0] + [d for _, d, _ in table], dtype=np.intc)
    rows = search._conflict_rows(SQ, X, W)
    T = search._window_table(frozenset(f for f in SQ if f < 16))
    (tmp_path / "row.bin").write_bytes(np.array([X, W], dtype=np.intc).tobytes() + D.tobytes() + rows.tobytes() + T.tobytes())
    (tmp_path / "decide.c").write_text(_TSAN_PROGRAM)
    exe = tmp_path / "decide"
    build = [cc, "-fsanitize=thread", "-O1", "-g", "-pthread", "-I", str(search._SOURCE.parent), "-o", str(exe), str(tmp_path / "decide.c")]
    proc = subprocess.run(build, capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.skip(f"gcc cannot build with ThreadSanitizer here: {proc.stderr[-300:]}")
    run = subprocess.run([str(exe), str(tmp_path / "row.bin")], capture_output=True, text=True, timeout=300)
    assert "WARNING: ThreadSanitizer" not in run.stderr, run.stderr
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6
    for x, (plain, ticking, stopped) in zip((X - 1, X), (lines[:3], lines[3:])):
        found = table[x - 1][1] > table[x - 2][1]
        bits = table[x - 1][2].bits if found else 0
        want = f"{int(found)} {table.nodes[x - 1]}" + "".join(f" {bits >> 64 * k & (1 << 64) - 1:x}" for k in range(W))
        assert plain == ticking == want
        assert stopped.split()[0] == "-1"
    assert lines[0].startswith("0 ") and lines[3].startswith("1 ")


def test_time_budget_stops_inside_a_step(monkeypatch):
    def no_clock():
        raise AssertionError("clock read without a time budget")

    X_max = 60
    monkeypatch.setattr(search, "_clock", no_clock)
    full_table = dmax_table(SQ, X_max)
    full = [d for _, d, _ in full_table]
    # A clock that advances one second per reading. The readings taken
    # between steps alone stay inside the budget, so the table can only stop
    # early if the anchored search itself reads the clock; reading it every
    # 64 nodes keeps that true of a kernel that cuts more nodes.
    # Each row splits into jobs in the second pass, and both threads read.
    monkeypatch.setattr(search, "_CLOCK_EVERY", 64)
    for threshold in (search._SPLIT_NODES, SPLIT):
        monkeypatch.setattr(search, "_SPLIT_NODES", threshold)
        readings = itertools.count()
        monkeypatch.setattr(search, "_clock", lambda: float(next(readings)))
        with pytest.raises(TimeBudgetExceeded) as exc:
            dmax_table(SQ, X_max, time_budget=X_max + 0.5)
        partial = exc.value.partial
        assert len(partial) < X_max
        assert [d for _, d, _ in partial] == full[: len(partial)]
        assert partial.nodes == full_table.nodes[: len(partial)]
        assert str(exc.value) == f"dmax table stopped at X = {len(partial)}"


def test_kernel_unwinds_at_its_first_late_clock_reading(monkeypatch):
    # the clock reads late only when the kernel asks, so the table can only
    # stop inside a step, and must stop at the first reading
    real = search._load_kernel()
    inside, late = [False], []

    def kernel(*args):
        inside[0] = True
        try:
            return real(*args)
        finally:
            inside[0] = False

    def clock():
        if inside[0]:
            late.append(True)
            return 1.0
        return 0.0

    full_table = dmax_table(SQ, 60)
    full = [d for _, d, _ in full_table]
    monkeypatch.setattr(search, "_CLOCK_EVERY", 64)
    monkeypatch.setattr(search, "_kernel", kernel)
    monkeypatch.setattr(search, "_clock", clock)
    # when the rows split, the thread that reads late stops the other
    for threshold in (search._SPLIT_NODES, SPLIT):
        monkeypatch.setattr(search, "_SPLIT_NODES", threshold)
        late.clear()
        with pytest.raises(TimeBudgetExceeded) as exc:
            dmax_table(SQ, 60, time_budget=0.5)
        partial = exc.value.partial
        assert late == [True] and len(partial) < 60
        assert [d for _, d, _ in partial] == full[: len(partial)]
        assert partial.nodes == full_table.nodes[: len(partial)]
        assert str(exc.value) == f"dmax table stopped at X = {len(partial)}"


def _decide_anchor_py(X, target, D, fmask):
    """The pure-Python anchored search the kernel replaced: reference only."""
    found = []

    def dfs(n, need, chosen):
        if need == 0:
            found.append(chosen)
            return True
        while n >= 1 and chosen & (fmask << n):
            n -= 1
        if n < need or D[n] < need:
            return False
        return dfs(n - 1, need - 1, chosen | (1 << n)) or dfs(n - 1, need, chosen)

    return found[0] if dfs(X - 1, target - 1, 1 << X) else None


def _reference_table(F, X_max):
    fmask = sum(1 << f for f in set(F) if 1 <= f <= X_max - 1)
    D, rows = [0], []
    for X in range(1, X_max + 1):
        bits = _decide_anchor_py(X, D[-1] + 1, D, fmask)
        D.append(D[-1] + (bits is not None))
        rows.append((X, D[X], rows[-1][2] if bits is None else bits))
    return rows


def _kernel_table(F, X_max):
    return [(X, d, w.bits) for X, d, w in dmax_table(F, X_max)]


# differences up to 12 only: a family of a few large differences has a dense
# maximum set and refutation steps that take the Python search minutes
@given(st.integers(1, 80), st.sets(st.integers(1, 12), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_python_search(X_max, F):
    assert _kernel_table(sorted(F), X_max) == _reference_table(sorted(F), X_max)


@pytest.mark.parametrize("shift", [0, 1])
def test_kernel_matches_python_search_on_quadratics(shift):
    F = [n * n - shift for n in range(1, 12) if n * n - shift >= 1]
    assert _kernel_table(F, 100) == _reference_table(F, 100)


@pytest.mark.parametrize("entry", [dmax_table, greedy_avoiding], ids=["dmax_table", "greedy_avoiding"])
def test_missing_compiler_is_a_clear_error(monkeypatch, tmp_path, entry):
    # resetting _kernel reloads both entry points, so neither keeps a library
    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_cache_dir", lambda: tmp_path / "kernels")
    monkeypatch.setattr(search, "_compiler", lambda: None)
    with pytest.raises(RuntimeError, match="gcc was not found") as exc:
        entry(SQ, 10)
    assert "_anchor.c" in str(exc.value)


def test_failed_compile_carries_stderr(monkeypatch, tmp_path):
    cc = tmp_path / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: no such flag' >&2\nexit 3\n")
    cc.chmod(0o755)
    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_cache_dir", lambda: tmp_path / "kernels")
    monkeypatch.setattr(search, "_compiler", lambda: str(cc))
    with pytest.raises(RuntimeError, match="exit 3") as exc:
        dmax_table(SQ, 10)
    assert "cc: no such flag" in str(exc.value)
    assert list((tmp_path / "kernels").iterdir()) == []  # no half-written library left


def test_cache_others_can_write_is_refused(monkeypatch, tmp_path):
    cache = tmp_path / "kernels"
    cache.mkdir()
    cache.chmod(0o777)
    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_cache_dir", lambda: cache)
    with pytest.raises(RuntimeError, match="others can write there"):
        dmax_table(SQ, 10)
    assert list(cache.iterdir()) == []


def test_warm_cache_loads_without_compiler(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_cache_dir", lambda: tmp_path / "kernels")
    want = _kernel_table(SQ, 30)
    assert [p.suffix for p in (tmp_path / "kernels").iterdir()] == [".so"]

    def no_compiler():
        raise AssertionError("compiler looked up with a warm cache")

    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_compiler", no_compiler)
    assert _kernel_table(SQ, 30) == want


def test_build_keeps_other_versions(monkeypatch, tmp_path):
    # checkouts of different versions used in turn each build theirs once
    cache = tmp_path / "kernels"
    cache.mkdir(mode=0o700)
    other = cache / "anchor-0123456789abcdef.so"
    other.write_bytes(b"a library of another version")
    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_cache_dir", lambda: cache)
    assert _kernel_table(SQ, 30) == _reference_table(SQ, 30)
    built = [p for p in cache.iterdir() if p != other]
    assert len(built) == 1 and built[0].name.startswith("anchor-") and built[0].suffix == ".so"
    assert other.read_bytes() == b"a library of another version"


def test_unloadable_library_is_built_once(monkeypatch, tmp_path):
    cache = tmp_path / "kernels"
    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_cache_dir", lambda: cache)
    want = _kernel_table(SQ, 30)
    [lib] = cache.iterdir()
    lib.unlink()
    lib.write_bytes(b"not a library")  # a new file, not the one this process loaded
    builds = []
    monkeypatch.setattr(search, "_kernel", None)
    monkeypatch.setattr(search, "_compiler", lambda: builds.append("gcc") or shutil.which("gcc"))
    assert _kernel_table(SQ, 30) == want and builds == ["gcc"]
    assert [p.name for p in cache.iterdir()] == [lib.name] and lib.read_bytes() != b"not a library"


def test_greedy_always_verifies():
    for name, F in FAMILIES.items():
        for X in (50, 500):
            g = greedy_avoiding(F, X)
            ok, _ = verify_avoiding(g, F)
            assert ok, name


def test_greedy_envelope():
    # admitted elements block at most |F cap [1,X]| successors, giving the
    # X^(1/2) lower bound; the observed size also stays well below X
    for X in (10**3, 10**4):
        size = greedy_avoiding(SQ, X).size
        assert size >= 0.5 * math.sqrt(X)
        assert size <= X ** 0.85


@pytest.mark.parametrize("shift", [0, 1], ids=["squares", "x2-1"])
def test_greedy_kernel_matches_python_loop(shift):
    F = [n * n - shift for n in range(1, 317) if n * n - shift >= 1]
    assert greedy_avoiding(F, 10**5) == _greedy_loop(F, 10**5)


def test_greedy_sizes_are_pinned():
    sq = squares_upto(10**6)
    for X, size in ((10**3, 115), (10**4, 579), (10**5, 2781), (10**6, 13952)):
        assert greedy_avoiding(sq, X).size == size
    assert greedy_avoiding([n * n - 1 for n in range(2, 1001)], 10**6).size == 7917


def test_exact_search_checks_its_greedy_seed(monkeypatch):
    # the oracle verifies the compiled greedy set in Python integers
    monkeypatch.setattr(search, "greedy_avoiding", lambda F, X: AvoidingSet.full(X))
    with pytest.raises(RuntimeError, match="forbidden difference"):
        exact_max_avoiding(SQ, 10)


@given(st.integers(1, 200), st.sets(st.integers(1, 40), max_size=8))
@settings(max_examples=60, deadline=None)
def test_greedy_verifies_random_families(X, F):
    g = greedy_avoiding(sorted(F), X)
    ok, _ = verify_avoiding(g, sorted(F))
    assert ok


def test_bitset_roundtrip_and_alpha():
    A = AvoidingSet.from_members(10, [2, 5, 7])
    assert A.members() == [2, 5, 7]
    assert A.size == 3
    assert A.alpha == 0.3
    assert 5 in A and 4 not in A
    with pytest.raises(ValueError):
        AvoidingSet.from_members(10, [11])


def test_avoiding_set_pickle_eq_hash():
    A = AvoidingSet.from_members(70, [2, 5, 64, 70])
    B = pickle.loads(pickle.dumps(A))
    assert B == A and hash(B) == hash(A) and B.members() == [2, 5, 64, 70]
    assert A != AvoidingSet.from_members(70, [2, 5]) and not hasattr(A, "__dict__")


def _members_loop(A):
    """The bit-peeling members() the indicator codec replaced: reference only."""
    out = []
    b = A.bits
    while b:
        low = b & -b
        out.append(low.bit_length() - 1)
        b ^= low
    return out


def _verify_loop(A, F):
    """The forbidden-mask verify_avoiding the codec replaced: reference only."""
    f = sum(1 << d for d in set(F) if 1 <= d <= A.X - 1)
    while f:
        low = f & -f
        diff = low.bit_length() - 1
        hit = A.bits & (A.bits >> diff)
        if hit:
            n = (hit & -hit).bit_length() - 1
            return False, (n, n + diff, diff)
        f ^= low
    return True, None


def _greedy_loop(F, X):
    """The bits-building greedy_avoiding the codec replaced: reference only."""
    farr = np.array(sorted({f for f in F if 1 <= f <= X - 1}), dtype=np.int64)
    blocked = np.zeros(X + 1, dtype=bool)
    bits = 0
    for n in range(1, X + 1):
        if not blocked[n]:
            bits |= 1 << n
            if farr.size:
                blocked[n + farr[farr <= X - n]] = True
    return AvoidingSet(X, bits)


_sets = st.integers(0, 300).flatmap(lambda X: st.tuples(st.just(X), st.integers(0, (1 << X) - 1)))


@given(_sets)
@example((7, 0b1010101))
@example((15, (1 << 15) - 1))
@example((0, 0))
@settings(max_examples=200, deadline=None)
def test_indicator_round_trip(case):
    X, raw = case
    A = AvoidingSet(X, raw << 1)
    mask = A.indicator()
    assert mask.dtype == bool and mask.shape == (X + 1,) and not mask[0]
    assert np.flatnonzero(mask).tolist() == _members_loop(A)
    assert AvoidingSet.from_indicator(mask) == A


def test_from_indicator_rejects_zero():
    with pytest.raises(ValueError):
        AvoidingSet.from_indicator(np.ones(9, dtype=bool))


@given(_sets, st.lists(st.integers(-3, 320), max_size=12))
@settings(max_examples=200, deadline=None)
def test_codec_matches_bit_loops(case, F):
    X, raw = case
    A = AvoidingSet(X, raw << 1)
    assert A.members() == _members_loop(A)
    assert A.member_array().tolist() == _members_loop(A) and A.member_array().dtype == np.int64
    assert AvoidingSet.from_members(X, _members_loop(A)) == A
    assert verify_avoiding(A, F) == _verify_loop(A, F)
    assert greedy_avoiding(F, X) == _greedy_loop(F, X)


# differences at and next to multiples of 64, where a shift crosses a word
_word_diffs = st.integers(0, 11).flatmap(lambda k: st.sampled_from([64 * k - 1, 64 * k, 64 * k + 1]))


@st.composite
def _planted_sets(draw):
    """An avoiding set over [1, X] with X up to 11 words, with pairs at
    differences of F planted into it, and F."""
    X = draw(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]) | st.integers(0, 700))
    F = draw(st.lists(_word_diffs | st.integers(1, 700), min_size=1, max_size=10))
    bits = greedy_avoiding(F, X).bits
    for f, n, top in draw(st.lists(st.tuples(st.sampled_from(F), st.integers(1, 700), st.booleans()), max_size=4)):
        if top:  # the larger member within 64 of X, where the shorter slices end
            n = X - f - n % 64
        if f >= 1 and 1 <= n <= X - f:
            bits |= 1 << n | 1 << (n + f)
    return AvoidingSet(X, bits), F


@given(_planted_sets())
@example((AvoidingSet.from_members(200, [1, 67, 130]), [1, 66, 129]))  # group 1 hits 129 before group 2 hits 66
@example((AvoidingSet.from_members(129, [1, 2, 65, 129]), [1, 64, 128]))
@example((AvoidingSet.from_members(129, [1, 65, 129]), [64, 128, 129]))
@settings(max_examples=300, deadline=None)
def test_word_check_matches_the_loop_across_words_and_groups(case):
    A, F = case
    assert verify_avoiding(A, F) == _verify_loop(A, F)


def test_word_check_finds_a_violation_in_a_late_group():
    # squares visit residue 17 (81) after residues 1, 4, 9, ..., 36 and 0, so
    # a pair planted at difference 81 is found in a group visited late
    sq = squares_upto(2 * 10**5)
    n = 10**5
    mask = greedy_avoiding(sq, 2 * 10**5).indicator()
    for m in (n, n + 81):
        for s in sq:
            mask[[v for v in (m - s, m + s) if 0 < v < mask.size]] = False
    mask[[n, n + 81]] = True
    A = AvoidingSet.from_indicator(mask)
    assert verify_avoiding(A, sq) == _verify_loop(A, sq) == (False, (n, n + 81, 81))


def _image_values_loop(poly, lo, hi):
    """The scan image_values used to run, which stops on the positive side
    at the first n past hi where poly increases: reference only."""
    vals = set()
    cauchy = poly.cauchy_bound()
    n = 1
    while True:
        v = poly(n)
        if v > hi and poly(n + 1) > v:
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


def _image_values_scan(poly, lo, hi):
    """The scan image_values used to run over every n within the Cauchy
    bound plus hi^(1/degree) + 2, in blocks: reference only, and exact when
    -hi <= lo <= hi."""
    bound = poly.cauchy_bound() + int(round(hi ** (1 / max(poly.degree, 1)))) + 2
    vals = set()
    for start in range(-bound, bound + 1, 1 << 12):
        block = poly(np.arange(start, min(start + (1 << 12), bound + 1))).tolist()
        vals.update(v for v in block if lo <= v <= hi)
    return sorted(vals)


@given(int_polys(), st.integers(-30, 30), st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_image_values_match_the_scan(poly, lo, width):
    hi = abs(lo) + width
    for p in (poly, IntPoly.of(-c for c in poly.coeffs)):
        assert image_values(p, lo, hi) == _image_values_scan(p, lo, hi)


def test_image_values_of_a_polynomial_that_is_not_monotone():
    # n (n - 15)^2 falls from n = 5 to n = 15 after passing 100
    assert image_values(IntPoly((0, 225, -30, 1)), 1, 100) == [14, 16, 52, 68]
    assert _image_values_loop(IntPoly((0, 225, -30, 1)), 1, 100) == []
    assert image_values(IntPoly((5,)), 1, 100) == [5] and image_values(IntPoly((5,)), 6, 100) == []


def test_image_values_matches_loop_on_increasing_towers(normalized_fixtures):
    # ell = 1 is left out: there the sextic's Cauchy bound is about 8e5,
    # which costs the old loop seconds per call
    for name in ("x2", "x2m1", "sextic"):
        builder = AuxiliaryBuilder(normalized_fixtures[name])
        for ell in (2, 3, 6, 12):
            aux = builder.context(ell).aux
            for hi in (10, 10**3, 10**5):
                assert image_values(aux, 1, hi) == _image_values_loop(aux, 1, hi), (name, ell, hi)
        aux = builder.context(1).aux  # the sextic's bound costs the scan about a second
        assert image_values(aux, 1, 10**5) == _image_values_scan(aux, 1, 10**5), name
