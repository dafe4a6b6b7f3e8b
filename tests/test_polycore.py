import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_polys, run_python
from polysieve.polycore import (
    IntPoly,
    normalize_positive,
    poly_eval,
)

small_coeffs = st.lists(st.integers(-50, 50), min_size=1, max_size=6)


def test_eval_examples():
    assert poly_eval(IntPoly((0, 0, 1)), 0) == 0
    assert poly_eval(IntPoly((-1, 0, 1)), 5) == 24
    assert poly_eval(IntPoly((0, 1, 0, 2)), -3) == -57


def test_derivative_examples():
    assert IntPoly((0, 0, 1)).derivative().coeffs == (0, 2)
    assert IntPoly((7,)).derivative().coeffs == (0,)
    assert IntPoly((1, -4, 3)).derivative().coeffs == (-4, 6)


def test_compose_affine_examples():
    assert IntPoly((0, 0, 1)).compose_affine(-1, 2).coeffs == (1, -4, 4)
    assert IntPoly((0, 0, 1)).compose_affine(0, 1).coeffs == (0, 0, 1)
    assert IntPoly((-1, 0, 1)).compose_affine(-2, 3).coeffs == (3, -12, 9)


def test_compose_affine_requires_positive_step():
    with pytest.raises(ValueError):
        IntPoly((0, 1)).compose_affine(0, 0)


def test_normalize_positive_examples():
    g, c = normalize_positive(IntPoly((0, 0, 1)))
    assert (g.coeffs, c) == ((0, 0, 1), 0)
    g, c = normalize_positive(IntPoly((0, -3, 1)))
    assert (g.coeffs, c) == ((0, 3, 1), 3)
    g, c = normalize_positive(IntPoly((-1, 0, 1)))
    assert (g.coeffs, c) == ((0, 2, 1), 1)


def test_cauchy_bound_exact():
    sextic = (-48841, 0, 6851, 0, -251, 0, 1)  # (x^2 - 13)(x^2 - 17)(x^2 - 221)
    for coeffs, bound in (
        ((0, 0, 1), 2),
        ((-1, 0, 1), 3),
        (sextic, 48843),
        ((7, 3, 2), 6),
        ((5, 0, 0, 3), 4),
    ):
        assert IntPoly(coeffs).cauchy_bound() == bound
    # a float quotient overflows here
    assert IntPoly((10**400, 0, 1)).cauchy_bound() == 10**400 + 2


def _last_nonpositive_scan(p, lo, top=40):
    """The downward scan last_nonpositive used to run, here from top, which
    lies past every real root int_polys draws: reference only."""
    for n in range(top, lo - 1, -1):
        if p(n) <= 0:
            return n
    return lo - 1


@given(int_polys(), st.integers(-40, 40))
@settings(max_examples=400, deadline=None)
def test_root_cells_hold_every_root(p, lo):
    cells = p.root_cells()
    assert cells == sorted(set(cells))
    for n in range(-40, 40):
        if p(n) == 0:
            assert n - 1 in cells or n in cells, n
        if p(n) * p(n + 1) < 0:  # a root strictly inside (n, n + 1)
            assert n in cells, n
    assert p.last_nonpositive(lo) == _last_nonpositive_scan(p, lo)


def test_root_cells_examples():
    assert IntPoly((5,)).root_cells() == []
    # x^2 - 2: the roots +-1.414 lie inside [-2, -1] and [1, 2]
    cells = IntPoly((-2, 0, 1)).root_cells()
    assert -2 in cells and 1 in cells
    square = IntPoly((0, 0, 1))
    assert [square.largest_n_at_most(X) for X in (10**16 - 1, 10**16, 10**40)] == [10**8 - 1, 10**8, 10**20]


@pytest.mark.parametrize("b, shift", [(10**16, 0), (-(10**16), 10**16 - 1)])
def test_normalize_positive_with_a_huge_coefficient(b, shift):
    # for b = 10^16 the old scan went through every n below the Cauchy bound,
    # about 10^16; for b = -10^16 it stopped at once
    code = (
        "from polysieve.polycore import IntPoly, normalize_positive\n"
        f"print(normalize_positive(IntPoly((1, {b}, 1)))[1])\n"
    )
    assert int(run_python(code, timeout=10)) == shift


def test_normalize_positive_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_positive(IntPoly((0, 1)))  # degree 1
    with pytest.raises(ValueError):
        normalize_positive(IntPoly((0, 0, -1)))  # negative leading


def test_normalize_positive_exhaustive_range(fixtures):
    for h in fixtures.values():
        g, _ = normalize_positive(h)
        d1, d2 = g.derivative(), g.derivative().derivative()
        for n in range(1, 1001):
            assert g(n) > 0 and d1(n) > 0 and d2(n) > 0


def test_normalize_positive_minimality(fixtures):
    for h in fixtures.values():
        _, c = normalize_positive(h)
        if c == 0:
            continue
        prev = h.shift(c - 1)
        ok = (
            prev.positive_for_all_n_from(1)
            and prev.derivative().positive_for_all_n_from(1)
            and prev.derivative().derivative().positive_for_all_n_from(1)
        )
        assert not ok


def _positive_from_scan(p, n0):
    """Reference: test every integer from n0 up past the Cauchy bound."""
    if p.is_zero or p.leading < 0:
        return False
    return all(p(n) > 0 for n in range(n0, max(n0, p.cauchy_bound() + 1) + 1))


def _normalize_positive_loop(h):
    """Reference: try each shift c in turn until g, g', g'' are positive."""
    d1 = h.derivative()
    cap = max(h.cauchy_bound(), d1.cauchy_bound(), d1.derivative().cauchy_bound()) + 2
    for c in range(cap + 1):
        g = h.shift(c)
        if all(_positive_from_scan(p, 1) for p in (g, g.derivative(), g.derivative().derivative())):
            return g, c
    raise AssertionError("no positivity shift found below the root bound")


@given(
    st.lists(st.integers(-12, 12), min_size=2, max_size=4),
    st.integers(1, 5),
    st.integers(-3, 4),
)
@settings(max_examples=300, deadline=None)
def test_positivity_matches_loop(lower, lead, n0):
    h = IntPoly.of([*lower, lead])
    assert normalize_positive(h) == _normalize_positive_loop(h)
    for p in (h, h.derivative(), IntPoly.of([*lower, -lead]), IntPoly((0,))):
        assert p.positive_for_all_n_from(n0) == _positive_from_scan(p, n0)


def test_normalize_positive_matches_loop(fixtures):
    for h in fixtures.values():
        assert normalize_positive(h) == _normalize_positive_loop(h)


@given(small_coeffs, st.integers(-20, 20), st.integers(1, 10), st.integers(-30, 30))
@settings(max_examples=150, deadline=None)
def test_compose_affine_matches_eval(coeffs, r, ell, n):
    h = IntPoly.of(coeffs)
    assert poly_eval(h.compose_affine(r, ell), n) == poly_eval(h, r + ell * n)


@given(small_coeffs, st.integers(-20, 20), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_derivative_of_composition(coeffs, r, ell):
    h = IntPoly.of(coeffs)
    lhs = h.compose_affine(r, ell).derivative()
    rhs = IntPoly.of(
        [ell * c for c in h.derivative().compose_affine(r, ell).coeffs]
    )
    assert lhs.coeffs == rhs.coeffs


def test_serialization_roundtrip():
    h = IntPoly((-(10**40), 3, 0, 12))
    strings = h.to_coeff_strings()
    assert all(isinstance(s, str) for s in strings)
    assert IntPoly.of(strings) == h


def test_zero_and_normalization():
    assert IntPoly((0, 0, 0)).coeffs == (0,)
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0,)).is_zero
    assert IntPoly((0,)).degree == 0


@st.composite
def coeffs_and_points(draw):
    # magnitudes drawn by bit length, so both sides of the int64 guard occur
    bits = draw(st.integers(0, 70))
    coeffs = draw(st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=6))
    top = draw(st.integers(0, 62))
    ns = draw(st.lists(st.integers(-(2**top), 2**top), min_size=1, max_size=20))
    return coeffs, ns


@given(coeffs_and_points(), st.integers(1, 2**31 - 1))
@settings(max_examples=300, deadline=None)
def test_array_eval_matches_scalar(case, m):
    coeffs, ns = case
    h = IntPoly.of(coeffs)
    xs = np.array(ns, dtype=np.int64)
    vals = h(xs)
    assert vals.tolist() == [h(n) for n in ns]
    top = max(1, *(abs(n) for n in ns))
    fits = sum(abs(c) * top**i for i, c in enumerate(h.coeffs)) < 2**63
    assert vals.dtype == (np.int64 if fits else object)
    assert h.eval_mod(xs, m).tolist() == [h(n) % m for n in ns] == [h.eval_mod(n, m) for n in ns]


@given(
    st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=8),
    st.lists(st.integers(-(2**62), 2**62), max_size=32),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_eval_low64_matches_exact(coeffs, ns, as_object):
    # wrapping uint64 Horner against the exact value mod 2^64, with
    # coefficients negative and past 2^64, on int64 and on object arrays
    h = IntPoly.of(coeffs)
    xs = np.array(ns, dtype=object if as_object else np.int64)
    got = h.eval_low64(xs)
    assert got.dtype == np.uint64 and got.shape == (len(ns),)
    assert got.tolist() == [int(h(n)) % 2**64 for n in ns]


def test_array_eval_guard_edges():
    square = IntPoly((0, 0, 1))
    edge = 3037000499  # largest n with n^2 < 2^63
    for n, dtype in ((edge, np.int64), (edge + 1, object)):
        vals = square(np.array([-n, 0, n]))
        assert vals.dtype == dtype and vals.tolist() == [n * n, 0, n * n]
    for m in (0, 2**31):
        with pytest.raises(ValueError):
            square.eval_mod(np.arange(4), m)
        with pytest.raises(ValueError):
            square.roots_mod(m)


@given(small_coeffs, st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_roots_mod_matches_scan(coeffs, m):
    h = IntPoly.of(coeffs)
    assert h.roots_mod(m) == [r for r in range(m) if h(r) % m == 0]


def test_largest_n_at_most():
    square = IntPoly((0, 0, 1))
    assert square.largest_n_at_most(0) == 0
    assert [square.largest_n_at_most(X) for X in (1, 3, 4, 99, 100)] == [1, 1, 2, 9, 10]
    assert IntPoly((5, 1)).largest_n_at_most(5) == 0
