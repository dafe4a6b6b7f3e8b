import math
from fractions import Fraction

import pytest

from polysieve.intersective import AuxiliaryBuilder
from polysieve.polycore import IntPoly, normalize_positive
from polysieve.sieve import (
    J_factor,
    SieveTable,
    brun_sum_audit,
    in_W,
    local_datum,
    w_count_in_period,
    w_mask,
)


@pytest.fixture(scope="module")
def x2ctx():
    return AuxiliaryBuilder(IntPoly((0, 0, 1))).context(1)


def test_local_data_examples(x2ctx):
    aux3 = AuxiliaryBuilder(IntPoly((-1, 0, 1))).context(3)
    assert aux3.aux.coeffs == (1, -4, 3)
    for ctx, p, gamma_j in ((x2ctx, 2, (2, 2)), (x2ctx, 7, (1, 1)), (aux3, 3, (1, 0))):
        datum = local_datum(ctx.aux, p)
        assert (datum.gamma, datum.j) == gamma_j


def test_local_data_by_value_scan(normalized_fixtures):
    # oracle: gamma is minimal with the derivative not vanishing identically
    # as a function mod p**gamma, checked by direct evaluation
    for h in normalized_fixtures.values():
        ctx = AuxiliaryBuilder(h).context(1)
        d = h.derivative()
        for p in (2, 3, 5, 7):
            datum = local_datum(h, p)
            for gamma in range(1, datum.gamma + 1):
                m = p**gamma
                vanishes = all(d(n) % m == 0 for n in range(m))
                assert vanishes == (gamma < datum.gamma)
            m = p**datum.gamma
            roots = [n for n in range(m) if d(n) % m == 0]
            assert datum.j == len(roots) and list(datum.roots) == roots


def test_in_w_examples(x2ctx):
    t3 = SieveTable.build(x2ctx, 3)
    assert in_W(5, t3) is True
    assert in_W(4, t3) is False
    t2 = SieveTable.build(x2ctx, 2)
    assert all(in_W(n, t2, q=5) for n in range(1, 100))


def test_j_factor_examples(x2ctx):
    assert J_factor(SieveTable.build(x2ctx, 3)) == 3
    assert J_factor(SieveTable.build(x2ctx, 2)) == 2
    aux3 = AuxiliaryBuilder(IntPoly((-1, 0, 1))).context(3)
    t = SieveTable.build(aux3, 3)
    # j = 0 at p = 3 contributes a vacuous factor
    assert t.entries[3].j == 0
    assert J_factor(t) == Fraction(2, 1)


def test_density_identity_exact(normalized_fixtures):
    for h in normalized_fixtures.values():
        ctx = AuxiliaryBuilder(h).context(1)
        for U in (2, 3, 5, 10):
            table = SieveTable.build(ctx, U)
            count = w_count_in_period(table)
            assert count * J_factor(table) == table.period


def test_w_mask_matches_pointwise(x2ctx):
    for U, q in ((5, None), (1000, 1), (1000, 12), (1000, 1000), (1000, None)):
        table = SieveTable.build(x2ctx, U)
        mask = w_mask(table, 300, q)
        for n in range(1, 301):
            assert mask[n] == in_W(n, table, q)


def test_wq_with_covering_q_matches_unrestricted(x2ctx):
    table = SieveTable.build(x2ctx, 3)
    q = table.period  # divisible by every p**gamma
    for n in range(1, int(table.period) + 1):
        assert in_W(n, table, q=q) == in_W(n, table)


def test_brun_examples(x2ctx):
    t2 = SieveTable.build(x2ctx, 2)
    r = brun_sum_audit(t2, 1, 0, 100)
    assert r.empirical == 5000 and r.main_term == 5000 and r.abs_error == 0

    t3 = SieveTable.build(x2ctx, 3)
    r = brun_sum_audit(t3, 1, 0, 99)
    assert r.empirical == 3266 and r.main_term == 3267 and r.abs_error <= 2

    r = brun_sum_audit(t3, 2, 0, 99)
    assert r.empirical == 0 and r.main_term == 0
    assert r.main_term_paper != 0 and r.main_term != r.main_term_paper
    assert r.blocked_prime == 2


def test_brun_tolerance_sweep(normalized_fixtures):
    t = 20000
    u_cap = math.exp(math.sqrt(math.log(t)))
    for h in normalized_fixtures.values():
        ctx = AuxiliaryBuilder(h).context(1)
        for U in (2, 3, 5, int(u_cap)):
            table = SieveTable.build(ctx, U)
            for q in (1, 2, 5, 10):
                if t / q < 1000:
                    continue
                for b in range(q):
                    rep = brun_sum_audit(table, q, b, t)
                    if rep.main_term == 0:
                        assert rep.empirical == 0
                    else:
                        assert rep.rel_error <= 0.05, (
                            f"{h.coeffs} U={U} q={q} b={b}: {rep.rel_error}"
                        )


def test_j_growth_envelope(normalized_fixtures):
    # J(U) <= C (log U)^(k-1) with C fitted at U = 10
    for h in normalized_fixtures.values():
        ctx = AuxiliaryBuilder(h).context(1)
        k = h.degree
        c = float(J_factor(SieveTable.build(ctx, 10))) / math.log(10) ** (k - 1)
        for U in (100, 1000, 10**4):
            J = float(J_factor(SieveTable.build(ctx, U)))
            assert J <= c * math.log(U) ** (k - 1) * (1 + 1e-9)


def test_table_serialization(x2ctx):
    table = SieveTable.build(x2ctx, 3)
    blob = table.to_jsonable()
    assert blob["entries"] == [
        {"p": 2, "gamma": 2, "j": 2},
        {"p": 3, "gamma": 1, "j": 1},
    ]
    assert blob["period"] == "12"
