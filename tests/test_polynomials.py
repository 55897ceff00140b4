"""Arithmetic in F_p[t] and the trial-division prime helpers, against
sympy: long division, exact division, the distinct-degree sieve, is_prime
and prime_factors."""

import random

import pytest
import sympy

from avcyclic import polynomials as poly
from avcyclic import weil

PRIMES = (2, 3, 5, 7, 13, 101)
T = sympy.symbols("t")


def _random_poly(rng: random.Random, m: int, deg: int) -> tuple:
    """A polynomial over F_m of degree exactly deg, lowest degree first."""
    return tuple(rng.randrange(m) for _ in range(deg)) + (rng.randrange(1, m),)


def test_divmod_reassembles_the_dividend():
    rng = random.Random(20261019)
    for m in PRIMES:
        for _ in range(40):
            a = _random_poly(rng, m, rng.randrange(0, 9))
            b = _random_poly(rng, m, rng.randrange(0, 5))
            quo, rem = poly.pmod_divmod(a, b, m)
            assert poly.pmod(poly.add(poly.pmod_mul(quo, b, m), rem), m) == poly.pmod(a, m)
            assert poly.degree(rem) < poly.degree(b)
            assert poly.pmod_rem(a, b, m) == rem
            # unreduced input gives the same division
            lifted = tuple(c + m * rng.randrange(-3, 4) for c in a)
            assert poly.pmod_divmod(lifted, b, m) == (quo, rem)


def test_div_exact_returns_the_cofactor_and_refuses_a_remainder():
    rng = random.Random(7)
    for m in PRIMES:
        for _ in range(20):
            b = _random_poly(rng, m, rng.randrange(1, 5))
            c = _random_poly(rng, m, rng.randrange(0, 5))
            assert poly.pmod_div_exact(poly.pmod_mul(b, c, m), b, m) == c
    # t^2 + 1 = (t + 1)(t - 1) + 2 over F_5
    with pytest.raises(ValueError):
        poly.pmod_div_exact((1, 0, 1), (1, 1), 5)


def _sympy_pattern(f_low: tuple, p: int):
    expr = sum(c * T**k for k, c in enumerate(f_low))
    _, factors = sympy.Poly(expr, T, modulus=p).factor_list()
    if any(mult > 1 for _, mult in factors):
        return None
    return sorted(fac.degree() for fac, _ in factors)


def test_distinct_degree_pattern_matches_sympy():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(25):
            n = rng.randrange(1, 9)
            f_low = tuple(rng.randrange(-20, 21) for _ in range(n)) + (1,)
            assert poly.distinct_degree_pattern(f_low, p) == _sympy_pattern(f_low, p), (f_low, p)
    # t^4 + 1 splits into two quadratics mod 3 and is a square mod 2
    assert poly.distinct_degree_pattern((1, 0, 0, 0, 1), 3) == [2, 2]
    assert poly.distinct_degree_pattern((1, 0, 0, 0, 1), 2) is None


def test_prime_helpers_match_sympy():
    for n in range(-50, 5001):
        assert weil.is_prime(n) == sympy.isprime(n), n
        assert weil.prime_factors(n) == sympy.primefactors(n), n
