import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_python
from polysieve.harmonic import _fold_fft
from polysieve.increment import IncrementConfig
from polysieve.leveld import (
    ModulusFamily,
    _class_means,
    build_family,
    level_d_audit,
    level_d_energy,
    level_d_energy_bruteforce,
)
from polysieve.nt import primes_upto


def _shape(variant, alpha, cfg):
    """build_family's smooth cutoff, distinguished exponent and reach, from
    its formulas."""
    eps, L = cfg.epsilon, math.log(1.0 / alpha)
    if variant == 1:
        smooth = L ** (2.0 + eps)
        return smooth, math.ceil(2.0 * (2.0 + eps) * L), max(cfg.C1 * alpha ** -(2.0 + eps), smooth)
    smooth = cfg.C3 * L ** (3.0 + eps)
    reach = max(cfg.C2 * L ** ((2.0 + eps) * math.floor(math.log(L))), smooth)
    return smooth, math.ceil(2.0 * (2.0 + eps) * math.log(L) ** 2), reach


def _check_family(fam, smooth, exponent, reach):
    """The members are pairwise coprime (by gcd against the product of
    those before), the first is the product of the primes up to smooth to
    the exponent, and the others are p^b with p^b <= reach < p^(b+1), one
    for each prime p in (smooth, reach], p found as the member's gcd with
    the product of the primes up to reach."""
    before = 1
    for m in fam.members:
        assert math.gcd(m, before) == 1
        before *= m
    assert fam.distinguished == math.prod(primes_upto(int(smooth))) ** exponent
    primes = primes_upto(int(reach))
    radical = math.prod(primes)
    bases = [math.gcd(m, radical) for m in fam.members[1:]]
    assert bases == [p for p in primes if p > smooth]  # one member per larger prime
    for m, p in zip(fam.members[1:], bases):
        b = round(math.log(m, p))
        assert m == p**b <= reach < p ** (b + 1)


def test_build_family_variant1_example():
    cfg = IncrementConfig(epsilon=0.5, C1=1.0)
    fam = build_family(1, 0.1, cfg)
    smooth, exponent, reach = _shape(1, 0.1, cfg)
    assert exponent == 12 and reach == pytest.approx(316.2277660168, abs=1e-6)
    assert fam.distinguished == 210**12
    others = set(fam.members[1:])
    assert {121, 169, 289}.issubset(others)
    assert 19 in others and 313 in others
    assert 361 not in others
    _check_family(fam, smooth, exponent, reach)


def test_build_family_degenerate():
    # alpha close to 1/2 shrinks the reach until no extra primes fit
    cfg = IncrementConfig(epsilon=0.5, C1=0.01)
    fam = build_family(1, 0.45, cfg)
    assert len(fam.members) >= 1
    _check_family(fam, *_shape(1, 0.45, cfg))


def test_build_family_variant2():
    fam = build_family(2, 0.05, IncrementConfig())
    smooth, exponent, reach = _shape(2, 0.05, IncrementConfig())
    assert exponent == math.ceil(2 * 3 * math.log(math.log(20)) ** 2)
    _check_family(fam, smooth, exponent, reach)


@pytest.mark.parametrize(
    "variant, alpha, epsilon", [(1, 0.1, 0.5), (1, 0.02, 0.5), (2, 0.05, 1.0), (2, 5e-4, 0.01)]
)
def test_distinguished_member_is_the_sequential_product(variant, alpha, epsilon):
    # the product tree against multiplying the prime powers one at a time
    cfg = IncrementConfig(epsilon=epsilon)
    fam = build_family(variant, alpha, cfg)
    smooth, exponent, _ = _shape(variant, alpha, cfg)
    product = 1
    for p in primes_upto(int(smooth)):
        product *= p**exponent
    assert fam.distinguished == product


def test_build_family_validation():
    with pytest.raises(ValueError):
        build_family(1, 0.7, IncrementConfig())
    with pytest.raises(ValueError):
        build_family(3, 0.1, IncrementConfig())


def test_denominator_lower_bound():
    # every member but the first is a prime power p^b with p > Y, so a
    # product of d members with d - 1 of them outside the distinguished one
    # is at least Y^(d-1)
    for variant, alpha, cfg in (
        (1, 0.1, IncrementConfig(epsilon=0.5, C1=1.0)),
        (1, 0.02, IncrementConfig(epsilon=0.5)),
        (2, 0.05, IncrementConfig(C2=1000.0, C3=1.0)),
    ):
        fam = build_family(variant, alpha, cfg)
        assert len(fam.members) > 1
        _check_family(fam, *_shape(variant, alpha, cfg))


@pytest.mark.parametrize("members", [[0], [-3, 5], [4, 6], [3, 3], [5, 7, 14]])
def test_from_members_rejects_bad_members(members):
    with pytest.raises(ValueError):
        ModulusFamily.from_members(members)


def test_from_members_accepts_coprime_members():
    assert ModulusFamily.from_members([1, 1]).members == [1, 1]
    assert ModulusFamily.from_members([2**100, 3**50, 1, 25]).distinguished == 2**100


def test_from_members_does_not_factor():
    # (2^61 - 1)(2^89 - 1): the members were factored, by Pollard rho, in
    # time that grows like the fourth root of the smaller prime
    code = (
        "from polysieve.leveld import ModulusFamily\n"
        "print(len(ModulusFamily.from_members([(2**61 - 1) * (2**89 - 1), 3]).members))\n"
    )
    assert run_python(code, timeout=10).strip() == "2"


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


def _level_d_energy_fft(f, Q, d):
    """Reference: one real FFT of f folded mod R_S for every d-subset S."""
    n_members = len(Q.members)
    positions = np.arange(1, len(f) + 1)
    total = 0.0
    for combo in combinations(range(n_members), d):
        R = math.prod(Q.members[i] for i in combo)
        hat = _fold_fft(positions, f, R)
        keep = np.ones(R, dtype=bool)
        for i in combo:
            keep[:: Q.members[i]] = False  # multiples of the member, incl. 0
        total += float(np.sum(np.abs(hat[keep]) ** 2))
    return total


def _branch2_py(f, Q, alpha):
    """Reference for branch 2: every member set, size by size in index
    order, folded or (R_S > X) read as max|f|. Returns (found, size)."""
    absf = np.abs(f)
    X = len(f)
    L = math.log(1.0 / alpha)
    for size in range(1, min(len(Q.members), int(2.0 * L)) + 1):
        for combo in combinations(range(len(Q.members)), size):
            R = math.prod(Q.members[i] for i in combo)
            if R > X:
                avg = float(absf.max())
            else:
                positions = np.arange(1, X + 1) % R
                sums = np.bincount(positions, weights=absf, minlength=R)
                counts = np.bincount(positions, minlength=R)
                avg = float(np.max(sums / np.maximum(counts, 1)))
            if avg > 2.0**size * alpha:
                return True, size
    return False, None


def _prime_power_family(count):
    # pairwise coprime: one power per prime, the primes below 8 squared
    ps = primes_upto(200)[:count]
    return ModulusFamily.from_members([p * p if p < 8 else p for p in ps])


@pytest.mark.parametrize("d, count", [(2, 30), (3, 18)])
def test_energy_matches_the_fft_loop(d, count):
    # the per-subset FFT costs e_d(members) points: 30 members at d = 3
    # would take about half a minute, so d = 3 runs on the first 18
    Q = _prime_power_family(count)
    rng = np.random.default_rng(17 + d)
    for density in (0.05, 0.3):
        f = (rng.random(2000) < density).astype(float)
        lhs = level_d_energy(f, Q, d)
        ref = _level_d_energy_fft(f, Q, d)
        assert type(lhs) is int and lhs == round(ref)
        assert ref == pytest.approx(lhs, rel=1e-12)


_PRIMES_64 = primes_upto(64)


@st.composite
def _small_families(draw):
    # pairwise-coprime prime powers <= 64, kept few and small enough at
    # d = 3 that the brute-force oracle visits a few thousand fractions
    d = draw(st.integers(1, 3))
    cap = 64 if d < 3 else 16
    pool = [p for p in _PRIMES_64 if p <= cap]
    most = 3 if d < 3 else 4
    primes = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=most, unique=True))
    members = []
    for p in primes:
        top = int(math.log(cap, p) + 1e-9)
        members.append(p ** draw(st.integers(1, top)))
    return members, d


@given(
    _small_families(),
    st.integers(1, 120),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(([64, 27, 25], 2), 40, True, 0)  # members at or above X
@example(([2, 3], 2), 60, False, 1)
@settings(max_examples=100, deadline=None)
def test_energy_matches_bruteforce_property(family, X, mask, seed):
    members, d = family
    Q = ModulusFamily.from_members(members)
    rng = np.random.default_rng(seed)
    f = rng.integers(-1, 2, X).astype(float) if mask else rng.uniform(-1, 1, X)
    if seed % 3 == 0 and not mask:
        f[:] = f[0]  # constant f: the reduced energy nearly vanishes
    lhs = level_d_energy(f, Q, d)
    brute = level_d_energy_bruteforce(f, Q, d)
    if mask:
        assert type(lhs) is int and lhs == round(brute)
    else:
        # the closed form is exact over the float autocorrelation, whose
        # rounding is relative to the unreduced mass sum_S R_S sum f^2, not
        # to the reduced energy it leaves after cancellation
        unreduced = sum(math.prod(S) for S in combinations(members, d)) * float(f @ f)
        assert lhs == pytest.approx(brute, rel=1e-12, abs=1e-14 * unreduced)


def test_branch2_matches_the_loop_over_every_subset():
    rng = np.random.default_rng(31)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for trial in range(150):
        ps = rng.choice(primes, rng.integers(1, 7), replace=False)
        Q = ModulusFamily.from_members([int(p) ** int(rng.integers(1, 4)) for p in ps])
        X = int(rng.integers(20, 400))
        alpha = float(rng.uniform(0.02, 0.45))
        if trial % 2:
            f = (rng.random(X) < alpha).astype(float)
        else:
            f = rng.uniform(0, 1, X) * (rng.random(X) < 0.5)
        rep = level_d_audit(f, Q, 1, alpha)
        size = len(rep.branch2_S) if rep.branch2_found else None
        assert (rep.branch2_found, size) == _branch2_py(f, Q, alpha)


@pytest.mark.parametrize("mask", [True, False])
def test_class_means_match_the_bincount_loop(mask):
    # branch 2 once took two bincounts over positions % R for every set;
    # the row sums give a mask's means exactly, real f's to rounding
    rng = np.random.default_rng(41)
    for X in (1, 2, 7, 100, 601):
        f = (rng.random(X) < 0.3).astype(float) if mask else rng.uniform(-1, 1, X)
        absf = np.abs(f)
        padded = np.zeros(2 * X + 1)
        padded[1 : X + 1] = absf
        positions = np.arange(1, X + 1)
        for R in range(1, X + 1):
            pos = positions % R
            want = np.bincount(pos, weights=absf, minlength=R) / np.maximum(np.bincount(pos, minlength=R), 1)
            got = _class_means(padded, X, R)
            if mask:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("d", [2, 3])
def test_audit_runs_on_a_built_family(d):
    # variant 1 at alpha = 0.2: 203 members, the distinguished one 6^10.
    # A per-subset FFT would fold mod 6^10 * 1249 for one pair and visit
    # 1,373,701 triples; the closed form reads only the sets with product
    # at most X = 10^4
    fam = build_family(1, 0.2, IncrementConfig())
    assert len(fam.members) == 203
    f = (np.random.default_rng(d).random(10**4) < 0.2).astype(float)
    rep = level_d_audit(f, fam, d, 0.2)
    assert type(rep.lhs) is int and rep.lhs > 0
    assert rep.branch2_found and rep.branch2_S == [fam.distinguished]
    assert rep.dichotomy_ok


def test_energy_rejects_an_autocorrelation_off_the_integers(monkeypatch):
    import polysieve.leveld as leveld

    exact = leveld._autocorrelation
    monkeypatch.setattr(leveld, "_autocorrelation", lambda f: exact(f) + 0.3)
    with pytest.raises(ArithmeticError):
        level_d_energy(np.ones(50), ModulusFamily.from_members([3, 4]), 1)


def test_real_energy_out_of_float_range_raises():
    # a member past float range, as variant 2's distinguished member
    Q = ModulusFamily([2**1100, 3])
    f = np.full(20, 0.5)
    with pytest.raises(OverflowError):
        level_d_energy(f, Q, 1)
    assert level_d_energy(np.ones(20), Q, 1) > 2**1100  # a mask stays exact
