import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve.nt import factorize, primes_upto

PRIMES = set(primes_upto(46_341))  # every prime up to sqrt(2^31)


def _is_prime(p):
    return p > 1 and all(p % q for q in PRIMES if q * q <= p)


@given(st.integers(1, 2**31 - 1))
@example(1)
@example(2**31 - 1)
@example(2**30)
@example(46_337**2)  # the square of the largest prime below sqrt(2^31)
@settings(max_examples=300, deadline=None)
def test_factorize_is_a_prime_factorization(n):
    fac = factorize(n)
    product = 1
    for p, e in fac.items():
        assert e >= 1 and _is_prime(p)
        product *= p**e
    assert product == n
    assert list(fac) == sorted(fac)


@pytest.mark.parametrize("n", [0, -6, 2**31])
def test_factorize_rejects_n_outside_its_range(n):
    with pytest.raises(ValueError):
        factorize(n)
