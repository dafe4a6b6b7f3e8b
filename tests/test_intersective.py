import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_polys, run_python
from polysieve.intersective import (
    AuxiliaryBuilder,
    Certified,
    EmpiricalUpTo,
    MissingRootError,
    NotIntersective,
    coefficient_bound,
    inheritance_check,
    intersectivity_verdict,
    padic_roots,
    squarefree_factors,
    _discriminant_resultant,
    _integer_roots,
)
from polysieve.nt import factorize
from polysieve.polycore import IntPoly


def test_squarefree_decomposition():
    # x^3 - x^2 = x^2 (x - 1)
    parts = squarefree_factors(IntPoly((0, 0, -1, 1)))
    assert sorted((f.coeffs, m) for f, m in parts) == [((-1, 1), 1), ((0, 1), 2)]
    parts = squarefree_factors(IntPoly((0, 0, 1)))
    assert [(f.coeffs, m) for f, m in parts] == [((0, 1), 2)]


def test_padic_roots_examples():
    roots = padic_roots(IntPoly((0, 0, 1)), 3, 2)
    assert len(roots) == 1 and roots[0].root == 0 and roots[0].multiplicity == 2

    roots = padic_roots(IntPoly((-1, 0, 1)), 7, 2)
    assert sorted(r.root for r in roots) == [1, 48]
    assert all(r.multiplicity == 1 for r in roots)

    roots = padic_roots(IntPoly((-2, 0, 1)), 7, 1)
    assert sorted(r.root for r in roots) == [3, 4]


def test_padic_roots_validate_congruence(fixtures):
    for h in fixtures.values():
        for p in (2, 3, 5, 13):
            for r in padic_roots(h, p, 4):
                assert h(r.root) % p**r.precision == 0
                # truncation consistency
                low = padic_roots(h, p, 2)
                assert any(
                    r.residue(2) == l.root and r.multiplicity == l.multiplicity
                    for l in low
                )


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_padic_roots_of_planted_integer_roots(roots, mults, p, e):
    # h = prod (x - r_i)^m_i: every root is an integer, negative ones too, and
    # the walk finds each at its residue mod p^e with its multiplicity
    coeffs = [1]
    for r, m in zip(roots, mults):
        for _ in range(m):  # multiply by (x - r)
            coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    found = {(d.root, d.multiplicity) for d in padic_roots(IntPoly(tuple(coeffs)), p, e)}
    assert found == {(r % p**e, m) for r, m in zip(roots, mults)}


def test_padic_roots_two_adic_square():
    # 17 = 1 mod 8 is a 2-adic square; x^2 - 17 has exactly two roots
    roots = padic_roots(IntPoly((-17, 0, 1)), 2, 6)
    rs = sorted(r.root for r in roots)
    assert len(rs) == 2
    assert all((r * r - 17) % 64 == 0 for r in rs)
    assert (rs[0] + rs[1]) % 64 == 0  # negatives of each other


def test_verdict_examples(fixtures):
    assert intersectivity_verdict(fixtures["x2"], 100) == Certified(0)
    v = intersectivity_verdict(IntPoly((-2, 0, 1)), 100)
    assert isinstance(v, NotIntersective)
    # the witness is a checkable certificate: no root modulo it
    mod = v.witness
    assert all((x * x - 2) % mod != 0 for x in range(mod))


def test_verdict_large_constant_term():
    # (x - 10^16)(x - 5): the roots come from the divisors of 5 * 10^16
    h = IntPoly((5 * 10**16, -(10**16 + 5), 1))
    assert intersectivity_verdict(h, 100) == Certified(5)


def _integer_roots_by_divisors(f):
    """The divisor search _integer_roots used to run: once the factors x are
    gone, every integer root divides the constant term. Reference only."""
    roots = set()
    g = f
    while g.coeffs[0] == 0 and g.degree >= 1:
        roots.add(0)
        g = IntPoly(g.coeffs[1:])
    if g.degree >= 1:
        ds = [1]
        for p, e in factorize(abs(g.coeffs[0])).items():
            ds = [d * p**k for d in ds for k in range(e + 1)]
        roots.update(r for d in ds for r in (d, -d) if g(r) == 0)
    return sorted(roots)


@given(int_polys())
@settings(max_examples=300, deadline=None)
def test_integer_roots_match_the_divisor_search(h):
    assert _integer_roots(h) == _integer_roots_by_divisors(h)


def test_verdict_on_a_product_of_two_large_primes():
    # x^2 - pq, p and q the two primes after 10^15: the divisor search had
    # to factor pq, in time that grows like sqrt(p)
    code = (
        "from polysieve.intersective import intersectivity_verdict\n"
        "from polysieve.polycore import IntPoly\n"
        "print(intersectivity_verdict(IntPoly((-(10**15 + 37) * (10**15 + 91), 0, 1)), 10))\n"
    )
    assert run_python(code, timeout=10).strip() == "NotIntersective(prime=2, exponent=2)"


def _resultant_bareiss(f, g):
    """Resultant of two integer polynomials (constant term first) by
    fraction-free elimination on the Sylvester matrix: the oracle the
    Euclidean _discriminant_resultant replaced. Reference only."""
    f, g = list(f), list(g)
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    m, n = len(f) - 1, len(g) - 1
    if m == 0 and n == 0:
        return 1
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    mat = [[0] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(reversed(g)):
            mat[n + i][i + j] = c
    sign, prev = 1, 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            for r in range(k + 1, size):
                if mat[r][k] != 0:
                    mat[k], mat[r] = mat[r], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[size - 1][size - 1]


@given(int_polys())
@settings(max_examples=300, deadline=None)
def test_discriminant_resultant_matches_bareiss(h):
    # h itself (zero when a root repeats) and each of its squarefree factors
    for f in (h, *(g for g, _ in squarefree_factors(h))):
        assert _discriminant_resultant(f) == _resultant_bareiss(f.coeffs, f.derivative().coeffs)


@given(st.integers(-50, 50).filter(bool), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_discriminant_resultant_closed_forms(a, b, c):
    # Res(f, f') = -a (b^2 - 4ac) for f = a x^2 + b x + c, and a for a x + b
    assert _discriminant_resultant(IntPoly((c, b, a))) == -a * (b * b - 4 * a * c)
    assert _discriminant_resultant(IntPoly((b, a))) == a


def test_verdict_deep_two_adic_root():
    # 17 * 2^140 is a 2-adic square whose root lies more than 64 digits
    # deep; the resultant budget reaches it, and p = 3 refutes
    h = IntPoly((-17 * 2**140, 0, 1))
    assert intersectivity_verdict(h, 100) == NotIntersective(3, 1)


def test_verdict_sextic_empirical(fixtures):
    v = intersectivity_verdict(fixtures["sextic"], 10**4)
    assert v == EmpiricalUpTo(10**4)


def test_verdict_exponents_pinned():
    # (prime, exponent) of the finite refutations: the refutation exponent is
    # part of the verdict record, so a change to the root walk must not move it
    cases = {
        (-2, 0, 1): (2, 2),
        (1, 0, 1): (2, 2),
        (-3, 0, 1): (2, 2),
        (2, 0, 1): (2, 2),
        (-5, 0, 1): (2, 3),
        (3, 0, 1): (2, 3),
        (-6, 0, 0, 1): (2, 2),
        (1, 1, 1): (2, 1),
        (-17 * 2**140, 0, 1): (3, 1),
        (4, 0, -4, 0, 1): (2, 3),  # (x^2-2)^2: multiplicity 2 times v = 1, plus 1
        (1, 0, 3, 0, 3, 0, 1): (2, 4),  # (x^2+1)^3
        (8, 0, -8, 0, 2): (2, 4),  # 2(x^2-2)^2: the content adds v_2(2) = 1
    }
    for coeffs, (p, e) in cases.items():
        assert intersectivity_verdict(IntPoly(coeffs), 100) == NotIntersective(p, e)


# (x^2-13)(x^2-17)(x^2-221), normalized to positive values on n >= 1
SEXTIC_POSITIVE = IntPoly((-818925, 663796, 287915, 40824, 2689, 84, 1))


@pytest.mark.parametrize(
    "h, digest",
    [
        (IntPoly((-1, 0, 1)), "ff0f2c2e82e6309518a3fb22908ef9075bdcfd3e50d3819068185dd4fd7a0137"),
        (IntPoly((0, 0, -1, 1)), "f1d839d9ad73465e52d84b6a9b1ffafb75258ca5335f63dd877938a978d0ee48"),
        (SEXTIC_POSITIVE, "010b2abfa649e9343a89de4421efa5ddd3a085dd3866737514deb948b3711ab8"),
    ],
    ids=["x2-1", "x3-x2", "sextic"],
)
def test_tower_contexts_pinned(h, digest):
    # every context of a fresh builder for ell = 1..30, in order: `aux`
    # records hold these, so a change to the root walk must not move them;
    # each root is recorded at v_p(ell)
    b = AuxiliaryBuilder(h)
    rows = [b.context(ell).to_jsonable() for ell in range(1, 31)]
    assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("h", [IntPoly((0, 0, 1)), IntPoly((-1, 0, 1)), SEXTIC_POSITIVE])
@pytest.mark.parametrize("seed", [0, 1])
def test_context_roots_do_not_depend_on_build_order(h, seed):
    # one builder, contexts in a shuffled order, against a fresh builder for
    # each ell: every root is recorded at precision v_p(ell), whatever
    # precision the builder has refined that prime to
    ells = list(range(1, 31))
    random.Random(seed).shuffle(ells)
    b = AuxiliaryBuilder(h)
    for ell in ells:
        ctx = b.context(ell)
        assert ctx.to_jsonable() == AuxiliaryBuilder(h).context(ell).to_jsonable()
        for p, z in ctx.roots.items():
            assert ell % p**z.precision == 0 and ell % p ** (z.precision + 1) != 0


def test_root_residue_examples():
    assert AuxiliaryBuilder(IntPoly((0, 0, 1))).context(60).r_ell == 0
    assert AuxiliaryBuilder(IntPoly((-1, 0, 1))).context(6).r_ell == -5


def test_lambda_examples():
    assert AuxiliaryBuilder(IntPoly((0, 0, 1))).lambda_of(12) == 144
    assert AuxiliaryBuilder(IntPoly((-1, 0, 1))).lambda_of(12) == 12


def test_auxiliary_poly_examples():
    assert AuxiliaryBuilder(IntPoly((0, 0, 1))).context(5).aux.coeffs == (0, 0, 1)
    b = AuxiliaryBuilder(IntPoly((-1, 0, 1)))
    assert b.context(2).aux.coeffs == (0, -2, 2)
    assert b.context(3).aux.coeffs == (1, -4, 3)


def test_context_invariants(fixtures):
    for name, h in fixtures.items():
        if h.degree < 2:
            continue
        b = AuxiliaryBuilder(h)
        r_h = coefficient_bound(h)
        k = h.degree
        for ell in (1, 2, 6, 12, 30):
            ctx = b.context(ell)
            assert h(ctx.r_ell) % ell == 0
            assert -ell < ctx.r_ell <= 0
            assert ctx.lambda_ell % ell == 0 and ell**k % ctx.lambda_ell == 0
            assert ctx.aux.leading > 0
            assert ctx.aux.max_abs_coeff() <= r_h * ell ** (k - 1)


def test_missing_root_error():
    b = AuxiliaryBuilder(IntPoly((-2, 0, 1)))  # no 5-adic root
    with pytest.raises(MissingRootError):
        b.context(5)


def test_context_rejects_ell_past_the_factorization_range():
    b = AuxiliaryBuilder(IntPoly((0, 0, 1)))
    assert b.context(2**30).ell == 2**30
    for ell in (0, -4, 2**31):
        with pytest.raises(ValueError, match=str(ell)):
            b.context(ell)


def test_context_on_a_semiprime_ell_returns():
    # (2^61 - 1)(2^89 - 1): ell was factored, by Pollard rho, in time that
    # grows like the fourth root of the smaller prime
    code = (
        "from polysieve.intersective import AuxiliaryBuilder\n"
        "from polysieve.polycore import IntPoly\n"
        "try:\n"
        "    AuxiliaryBuilder(IntPoly((0, 0, 1))).context((2**61 - 1) * (2**89 - 1))\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert run_python(code, timeout=10).strip() == "ValueError"


def test_ell_one_degenerate(fixtures):
    for h in fixtures.values():
        ctx = AuxiliaryBuilder(h).context(1)
        assert ctx.r_ell == 0 and ctx.lambda_ell == 1 and ctx.aux == h


def test_coefficient_bound_examples():
    assert coefficient_bound(IntPoly((0, 0, 1))) == 12
    assert coefficient_bound(IntPoly((-1, 0, 1))) == 12
    with pytest.raises(ValueError):
        coefficient_bound(IntPoly((0, 1)))


def test_inheritance_examples():
    rep = inheritance_check(AuxiliaryBuilder(IntPoly((-1, 0, 1))), 1, 2)
    assert rep.ok
    rep = inheritance_check(AuxiliaryBuilder(IntPoly((0, 0, 1))), 3, 5)
    assert rep.ok
    rep = inheritance_check(AuxiliaryBuilder(IntPoly((-1, 0, 1))), 2, 3)
    assert rep.ok


def test_lambda_completely_multiplicative(fixtures):
    rng = random.Random(11)
    for name in ("x2", "x2m1", "x3mx"):
        b = AuxiliaryBuilder(fixtures[name])
        for _ in range(200):
            a = rng.randint(1, 40)
            c = rng.randint(1, 40)
            assert b.lambda_of(a * c) == b.lambda_of(a) * b.lambda_of(c)


def test_certified_root_congruence(fixtures):
    # for certified polynomials with z_p = the integer root, r_ell = root mod ell
    h = fixtures["x2"]
    b = AuxiliaryBuilder(h)
    for ell in range(1, 60):
        assert b.context(ell).r_ell % ell == 0


@given(st.integers(1, 120), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_inheritance_property_random(ell, q):
    rep = inheritance_check(AuxiliaryBuilder(IntPoly((-1, 0, 1))), ell, q, sample_count=12)
    assert rep.ok


def test_context_serialization():
    ctx = AuxiliaryBuilder(IntPoly((-1, 0, 1))).context(6)
    blob = ctx.to_jsonable()
    assert blob["ell"] == 6
    assert blob["aux"] == [str(c) for c in ctx.aux.coeffs]
    assert {r["p"] for r in blob["roots"]} == {2, 3}
