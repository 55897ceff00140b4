"""The factor degrees of the irreducibility sieve and the prime helpers,
against sympy: weil._factor_degrees, is_prime and prime_factors."""

import random

import sympy

from avcyclic import linalg
from avcyclic import polynomials as poly
from avcyclic import weil

PRIMES = (2, 3, 5, 7, 13, 101)
T = sympy.symbols("t")


def _sympy_pattern(f_low: tuple, p: int):
    expr = sum(c * T**k for k, c in enumerate(f_low))
    _, factors = sympy.Poly(expr, T, modulus=p).factor_list()
    if any(mult > 1 for _, mult in factors):
        return None
    return sorted(fac.degree() for fac, _ in factors)


def test_factor_degrees_match_sympy():
    # sympy finds a repeated factor mod p exactly when p divides Res(f, f'),
    # the primes the sieve skips; at the others the degrees agree
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(25):
            n = rng.randrange(1, 9)
            f_low = tuple(rng.randrange(-20, 21) for _ in range(n)) + (1,)
            expected = _sympy_pattern(f_low, p)
            res = linalg.determinant(poly.sylvester(f_low, poly.derivative(f_low)))
            assert (res % p == 0) == (expected is None), (f_low, p)
            if expected is not None:
                assert weil._factor_degrees(f_low, p) == expected, (f_low, p)
    # t^4 + 1 splits into two quadratics mod 3 and is a square mod 2, where
    # 2 divides its resultant with 4t^3
    assert weil._factor_degrees((1, 0, 0, 0, 1), 3) == [2, 2]
    res = linalg.determinant(poly.sylvester((1, 0, 0, 0, 1), (0, 0, 0, 4)))
    assert res % 2 == 0 and _sympy_pattern((1, 0, 0, 0, 1), 2) is None


def test_prime_helpers_match_sympy():
    for n in range(-50, 5001):
        assert weil.is_prime(n) == sympy.isprime(n), n
        assert weil.prime_factors(n) == sympy.primefactors(n), n
