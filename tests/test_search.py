import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import squares_upto
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
    verify_avoiding,
)

SQ = squares_upto(10**5)


def test_forbidden_values_examples():
    ctx = AuxiliaryBuilder(IntPoly((0, 0, 1))).context(1)
    assert forbidden_values(ctx, 30) == [1, 4, 9, 16, 25]
    assert forbidden_values(ctx, 30, "sieved", U=2) == [1, 9, 25]
    aux2 = AuxiliaryBuilder(IntPoly((-1, 0, 1))).context(2)
    assert aux2.aux.coeffs == (0, -2, 2)
    assert forbidden_values(aux2, 30) == [4, 12, 24]


def test_exact_examples():
    assert exact_max_avoiding(SQ, 3)[0] == 2
    assert exact_max_avoiding(SQ, 6)[0] == 3
    assert exact_max_avoiding(SQ, 10)[0] == 4
    assert exact_max_avoiding([1], 10)[0] == 5


def test_exact_cap():
    with pytest.raises(ValueError):
        exact_max_avoiding([1], 50, cap=20)


def test_greedy_examples():
    g = greedy_avoiding(SQ, 10)
    assert g.members() == [1, 3, 6, 8]
    assert greedy_avoiding([], 5).members() == [1, 2, 3, 4, 5]


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


def test_dmax_monotone_unit_steps():
    table = dmax_table(SQ, 120)
    ds = [d for _, d, _ in table]
    assert all(ds[i] <= ds[i + 1] <= ds[i] + 1 for i in range(len(ds) - 1))


def test_time_budget_stops_inside_a_step(monkeypatch):
    def no_clock():
        raise AssertionError("clock read without a time budget")

    X_max = 60
    monkeypatch.setattr(search, "_clock", no_clock)
    full = [d for _, d, _ in dmax_table(SQ, X_max)]
    # A clock that advances one second per reading. The readings taken
    # between steps alone stay inside the budget, so the table can only stop
    # early if the anchored search itself reads the clock.
    readings = itertools.count()
    monkeypatch.setattr(search, "_clock", lambda: float(next(readings)))
    with pytest.raises(TimeBudgetExceeded) as exc:
        dmax_table(SQ, X_max, time_budget=X_max + 0.5)
    partial = exc.value.partial
    assert len(partial) < X_max
    assert [d for _, d, _ in partial] == full[: len(partial)]
    assert str(exc.value) == f"dmax table stopped at X = {len(partial)}"


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
