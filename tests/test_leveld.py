import math

import numpy as np
import pytest

from polysieve.leveld import (
    ModulusFamily,
    build_family,
    l_value,
    level_d_audit,
    level_d_energy,
    level_d_energy_bruteforce,
    lift_fraction,
    minimal_cover,
)
from polysieve.nt import factorize


def test_build_family_variant1_example():
    fam = build_family(1, 0.1, 0.5, {"C1": 1.0})
    assert fam.distinguished == 210**12
    assert sorted(fam.member_factors[0]) == [2, 3, 5, 7]
    assert fam.params["distinguished_exponent"] == 12
    assert fam.p_max == pytest.approx(316.2277660168, abs=1e-6)
    others = set(fam.members[1:])
    assert {121, 169, 289}.issubset(others)
    assert 19 in others and 313 in others
    assert 361 not in others
    assert fam.pairwise_coprime()


def test_build_family_degenerate():
    # alpha close to 1/2 shrinks the reach until no extra primes fit
    fam = build_family(1, 0.45, 0.5, {"C1": 0.01})
    assert len(fam.members) >= 1
    assert fam.pairwise_coprime()


def test_build_family_variant2():
    fam = build_family(2, 0.05, 1.0)
    assert fam.pairwise_coprime()
    expo = math.ceil(2 * 3 * math.log(math.log(20)) ** 2)
    assert fam.params["distinguished_exponent"] == expo


@pytest.mark.parametrize(
    "variant, alpha, epsilon", [(1, 0.1, 0.5), (1, 0.02, 0.5), (2, 0.05, 1.0), (2, 5e-4, 0.01)]
)
def test_distinguished_member_is_the_sequential_product(variant, alpha, epsilon):
    # the product tree against multiplying the prime powers one at a time
    fam = build_family(variant, alpha, epsilon)
    expo = fam.params["distinguished_exponent"]
    product = 1
    for p in sorted(fam.member_factors[0]):
        product *= p**expo
    assert fam.distinguished == product
    assert fam.member_factors[0] == {p: expo for p in fam.member_factors[0]}


def test_build_family_validation():
    with pytest.raises(ValueError):
        build_family(1, 0.7, 1.0)
    with pytest.raises(ValueError):
        build_family(3, 0.1, 1.0)


def test_l_value_examples():
    Q = ModulusFamily.from_members([4, 9, 5])
    assert l_value(1, Q) == 0
    assert l_value(6, Q) == 2
    assert l_value(8, Q) == math.inf


def test_l_value_bounded_by_omega():
    Q = ModulusFamily.from_members([16, 81, 25, 49, 121, 169])
    for q in range(1, 10**4 + 1):
        lv = l_value(q, Q)
        if lv != math.inf:
            assert lv <= len(factorize(q))


def test_denominator_lower_bound():
    # members above the smooth part are prime powers > Y; l(q) = d forces
    # q >= Y^(d-1)
    fam = build_family(1, 0.1, 0.5, {"C1": 1.0})
    Y = fam.smooth_bound
    for q in range(2, 10**4 + 1):
        lv = l_value(q, fam)
        if lv not in (math.inf, 0):
            assert q >= Y ** (lv - 1) * (1 - 1e-9)


def test_lift_fraction_examples():
    Q = ModulusFamily.from_members([4, 9, 5])
    S, b = lift_fraction(1, 6, Q)
    assert sorted(S) == [4, 9] and b == 6
    S, b = lift_fraction(1, 4, Q)
    assert S == [4] and b == 1
    S, b = lift_fraction(7, 45, Q)
    assert sorted(S) == [5, 9] and b == 7


def test_lift_fraction_postconditions():
    Q = ModulusFamily.from_members([8, 27, 25, 49])
    from fractions import Fraction

    for q in (2, 4, 8, 6, 15, 35, 54, 200):
        cover = minimal_cover(q, Q)
        if cover is None:
            with pytest.raises(ValueError):
                lift_fraction(1, q, Q)
            continue
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            S, b = lift_fraction(a, q, Q)
            R = math.prod(S)
            assert Fraction(a, q) == Fraction(b, R)
            assert all(b % m for m in S)
            assert len(S) == l_value(q, Q)


def test_level_d_audit_structured_example():
    X = 1200
    f = np.zeros(X)
    f[np.arange(12, X + 1, 12) - 1] = 1.0
    Q = ModulusFamily.from_members([3, 4, 5])
    rep = level_d_audit(f, Q, 2, 1 / 12)
    # the S = {3,4} block alone contributes six residues of weight |A|^2
    assert rep.lhs == pytest.approx(6 * 100**2)
    assert rep.branch2_found
    assert rep.branch2_average > rep.branch2_threshold
    assert rep.dichotomy_ok


def test_level_d_audit_zero_function():
    Q = ModulusFamily.from_members([3, 4, 5])
    rep = level_d_audit(np.zeros(100), Q, 1, 0.2)
    assert rep.lhs == 0.0 and rep.branch1_ok


def test_level_d_audit_d_range():
    Q = ModulusFamily.from_members([3, 4, 5])
    with pytest.raises(ValueError):
        level_d_audit(np.zeros(50), Q, 4, 0.2)
    with pytest.raises(ValueError):
        level_d_audit(np.zeros(50), Q, 0, 0.2)


def test_level_d_rejects_complex_f():
    # the fold is real; casting would drop the imaginary part
    Q = ModulusFamily.from_members([3, 4, 5])
    f = np.full(60, 0.5 + 0.5j)
    with pytest.raises(ValueError, match="real"):
        level_d_energy(f, Q, 2)
    with pytest.raises(ValueError, match="real"):
        level_d_audit(f, Q, 2, 0.2)
    assert level_d_audit(f.real, Q, 2, 0.2).lhs == level_d_energy(f.real, Q, 2)


def test_energy_matches_bruteforce():
    rng = np.random.default_rng(101)
    Q = ModulusFamily.from_members([3, 4, 5, 7])
    for X in (120, 500):
        f = (rng.random(X) < 0.3).astype(float)
        for d in (1, 2):
            fast = level_d_energy(f, Q, d)
            brute = level_d_energy_bruteforce(f, Q, d)
            assert fast == pytest.approx(brute, rel=1e-9)


def test_monte_carlo_dichotomy():
    rng = np.random.default_rng(2024)
    Q = ModulusFamily.from_members([3, 4, 5, 7, 11])
    X = 2000
    for alpha in (0.1, 0.2):
        for _ in range(20):
            f = (rng.random(X) < alpha).astype(float)
            for d in (1, 2):
                rep = level_d_audit(f, Q, d, alpha)
                if rep.hypotheses_ok:
                    assert rep.dichotomy_ok


def test_family_serialization():
    fam = build_family(1, 0.1, 0.5, {"C1": 1.0})
    blob = fam.to_jsonable()
    assert blob["distinguished"]["primes"] == [2, 3, 5, 7]
    assert blob["distinguished"]["exponent"] == 12
    assert {"p": 11, "b": 2} in blob["members"][0:1][0] or any(
        {"p": 11, "b": 2} in m for m in blob["members"]
    )
