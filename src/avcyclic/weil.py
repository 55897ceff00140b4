"""Weil polynomial contexts: validation, ordinariness, irreducibility,
point counts, and desk-scale enumeration.

A context bundles a prime power q = p^r, a dimension g, and a monic integer
polynomial of degree 2g given highest-degree-first (constant term last).
Root location on the circle of radius sqrt(q) is decided exactly over Z:
the functional equation is checked coefficient-wise, the real substitution
s = t + q/t produces a degree-g polynomial h, and every principal minor of
one Hankel matrix of power sums of the roots of h must be non-negative,
which holds exactly when all g roots of h lie in [-2*sqrt(q), 2*sqrt(q)].

Irreducibility of a Weil polynomial is read off h as well: f = t^g h(t + q/t)
is irreducible iff h is irreducible and has no root +-2*sqrt(q).  Any other
monic polynomial goes through a sieve of factor degrees mod small primes,
read off Berlekamp's matrix by the mod-p kernel of linalg, then one exact
factor search over Z whose box is bounded by Landau-Mignotte and capped at
FACTOR_BOX_CAP points.  A context decides irreducibility on first use,
after the gate has refused non-Weil f.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb, gcd, isqrt, prod
from typing import Sequence

from . import linalg
from . import polynomials as poly
from .errors import CapabilityError, InputError

DEGREE_CAP = 8  # largest polynomial degree the exact kernels accept
ENUM_Q_CAP = 16
ENUM_G_CAP = 2
FACTOR_BOX_CAP = 5 * 10**7  # candidate factors one irreducibility test may try

_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# strong Miller-Rabin to the 13 prime bases up to 41 decides every n below it
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_int(x) -> bool:
    """The one rule for integer input: an int, and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_prime(n: int) -> bool:
    """Primality of n: a screen by the primes up to 41, which alone decides
    n < 43^2, the least composite with no such factor; above that, strong
    Miller-Rabin to those 13 bases, deterministic below MILLER_RABIN_BOUND
    (Sorenson & Webster, Math. Comp. 86 (2017)).  Larger n raise
    CapabilityError."""
    bases = _SIEVE_PRIMES[:13]  # the primes up to 41
    for b in bases:
        if n % b == 0:
            return n == b
    if n < 43 * 43:
        return n > 1
    if n >= MILLER_RABIN_BOUND:
        raise CapabilityError(f"primality of {n} is not decided above {MILLER_RABIN_BOUND}")
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in increasing order: trial division,
    which stops once the cofactor left is below MILLER_RABIN_BOUND and
    prime."""
    n, out, d = abs(n), [], 2
    prime = n < MILLER_RABIN_BOUND and is_prime(n)
    while not prime and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            prime = n < MILLER_RABIN_BOUND and is_prime(n)
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def prime_power_split(q: int) -> tuple[int, int] | None:
    """(p, r) with q = p^r, or None if q is not a prime power: p is the
    integer r-th root of q for the largest r that has one, so no factor
    search runs.  A root p of MILLER_RABIN_BOUND or more raises
    CapabilityError (is_prime)."""
    if q < 2:
        return None
    bits = q.bit_length()
    for r in range(bits, 0, -1):
        # integer Newton from 2^ceil(bits / r) >= q^(1/r) down to floor(q^(1/r))
        p = 1 << -(-bits // r)
        while (below := ((r - 1) * p + q // p ** (r - 1)) // r) < p:
            p = below
        if p ** r == q:
            return (p, r) if is_prime(p) else None
    return None


@dataclass(frozen=True)
class WeilContext:
    """Validated input bundle for one isogeny class candidate.

    ``f`` is the monic coefficient tuple, highest degree first.  The flags
    record what validation found; is_irreducible, which may need a factor
    search, is decided on first use.  Construction never rejects a
    polynomial that parses, it just flags it.
    """

    p: int
    r: int
    q: int
    g: int
    f: tuple[int, ...]
    is_weil: bool
    weil_reason: str | None
    is_ordinary: bool

    @cached_property
    def is_irreducible(self) -> bool:
        """Irreducibility of f over Q.  A Weil polynomial f = t^g h(t + q/t)
        is irreducible iff h is and h(+-2 sqrt q) != 0: the roots b of h are
        real, and t^2 - b t + q splits over Q(b) only if b^2 = 4q.  With E
        and O the even and odd parts of h at s^2 = 4q, h(+-2 sqrt q) =
        E +- 2 sqrt(q) O, so such a root exists iff E^2 = 4q O^2.  Any other
        f goes through is_irreducible(f)."""
        if not self.is_weil:
            return is_irreducible(self.f)
        h = _real_substitution(self.f_low, self.q, self.g)
        even = poly.evaluate(h[0::2], 4 * self.q)
        odd = poly.evaluate(h[1::2], 4 * self.q)
        return is_irreducible(h[::-1]) and even * even != 4 * self.q * odd * odd

    @cached_property
    def f_low(self) -> tuple[int, ...]:
        return poly.from_monic_first(self.f)

    @property
    def n(self) -> int:
        return 2 * self.g

    @cached_property
    def point_count(self) -> int:
        """Order of the group of rational points: f(1), positive for Weil f.
        Each non-real pair of roots gives |1 - alpha|^2 > 0, and f(0) = q^g
        forces an even number of roots -sqrt(q), hence of roots +sqrt(q)."""
        return poly.evaluate(self.f_low, 1)

    @cached_property
    def trace_sums(self) -> tuple[int, ...]:
        """Newton power sums of the roots, k = 0 .. 2n-2 (always integers)."""
        return tuple(poly.power_sums(self.f_low, 2 * self.n - 2))

    def refuse_non_simple(self) -> None:
        """The acceptance gate of every layer built on the bijection: ideal
        classes, the equivalence search and GL_n(Z)-conjugacy all need
        K = Q[t]/(f) to be a CM field, so non-Weil input is refused first,
        before irreducibility is decided, then reducible input."""
        if not self.is_weil:
            raise InputError("not_weil", f"not a Weil polynomial: {self.weil_reason}")
        if not self.is_irreducible:
            raise InputError("not_irreducible", "polynomial is reducible; class is not simple")


def make_context(p: int, r: int, g: int, coeffs: Sequence[int]) -> WeilContext:
    """Validate raw input and compute the flags; is_irreducible waits for use."""
    coeffs = list(coeffs)
    if not all(map(is_int, (p, r, g, *coeffs))):
        raise InputError("not_integer", "p, r, g and the coefficients must be integers")
    if not is_prime(p):
        raise InputError("p_not_prime", f"p = {p} is not prime")
    if r < 1:
        raise InputError("bad_extension", "r must be a positive integer")
    if g < 1:
        raise InputError("bad_dimension", "g must be a positive integer")
    if 2 * g > DEGREE_CAP:
        raise CapabilityError(f"degree 2g = {2 * g} exceeds the supported cap {DEGREE_CAP}")
    if len(coeffs) != 2 * g + 1:
        raise InputError("bad_degree", f"expected {2 * g + 1} coefficients, got {len(coeffs)}")
    if coeffs[0] != 1:
        raise InputError("not_monic", "leading coefficient must be 1")
    # the JSON writer prints at most sys.get_int_max_str_digits() digits (0, or
    # no such call: any), so q >= 10^limit is refused before p^r is formed, by
    # bit lengths where they decide (8^limit < 10^limit < 16^limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    bits = r * p.bit_length()
    if limit and bits > 3 * limit and (bits - r >= 4 * limit or p**r >= 10**limit):
        raise CapabilityError(f"q = {p}^{r} has more than {limit} decimal digits, "
                              "the most the JSON writer prints")
    q = p**r
    f = tuple(coeffs)
    ok, reason = _weil_reason(poly.from_monic_first(f), q)
    ordinary = gcd(f[g], p) == 1  # middle coefficient coprime to p
    return WeilContext(p, r, q, g, f, ok, reason, ordinary)


def _weil_reason(f_low: tuple, q: int) -> tuple[bool, str | None]:
    """(is Weil, reason if not)."""
    n = len(f_low) - 1
    if n < 2 or n % 2:
        return False, "bad_degree"
    if f_low[-1] != 1:
        return False, "not_monic"
    g = n // 2
    if f_low[0] != q**g:
        return False, "constant_term"
    # a_i is the coefficient of t^(2g-i); the root pairing t <-> q/t forces
    # a_{2g-i} = q^(g-i) a_i, i.e. f_low[i] = q^(g-i) * f_low[2g-i].
    for i in range(g):
        if f_low[i] != q ** (g - i) * f_low[n - i]:
            return False, "functional_equation"
    if not _roots_in_interval(_real_substitution(f_low, q, g), q):
        return False, "root_location"
    return True, None


def _real_substitution(f_low: tuple, q: int, g: int) -> tuple:
    """The unique h with f(t) = t^g h(t + q/t); requires the functional
    equation (checked by the caller)."""
    work = list(f_low) + [0] * (2 * g + 1 - len(f_low))
    h = [0] * (g + 1)
    for k in range(g, -1, -1):
        c = work[g + k]
        h[k] = c
        if c:
            # subtract c * t^g * (t + q/t)^k = c * sum_j C(k,j) q^j t^(g+k-2j)
            for j in range(k + 1):
                work[g + k - 2 * j] -= c * comb(k, j) * q**j
    if any(work):
        raise AssertionError("real substitution left a nonzero remainder")
    return poly.trim(h)


def _roots_in_interval(h: tuple, q: int) -> bool:
    """True iff every root of the monic integer polynomial h is real and lies
    in [-2 sqrt q, 2 sqrt q].

    With p_k the power sums of the g roots r and v_r = (1, r, ..., r^(g-1)),
    the Hankel matrix H = (4q p_(i+j) - p_(i+j+2)) is the sum over the roots
    of (4q - r^2) v_r v_r^T, Hermite's quadratic form for the weight 4q - s^2
    (Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 4).  The
    v_r of distinct roots are independent, so each distinct real root adds one
    square of the sign of its weight, each pair of non-real roots (whose weight
    is never 0) one positive and one negative square, and the endpoints
    nothing.  H is therefore positive semidefinite, i.e. every principal minor
    is >= 0 (the leading ones are not enough: h = s^3 - 6qs gives 0, 0, > 0),
    exactly when no root is non-real or outside the interval; the unweighted
    form (p_(i+j)), which only tests that the roots are real, adds nothing."""
    g = len(h) - 1
    p = poly.power_sums(h, 2 * g)
    form = [[4 * q * p[i + j] - p[i + j + 2] for j in range(g)] for i in range(g)]
    return all(linalg.determinant([[form[i][j] for j in rows] for i in rows]) >= 0
               for k in range(1, g + 1) for rows in combinations(range(g), k))


# ---------------------------------------------------------------------------
# Irreducibility over Q for monic integer polynomials, desk scale.


def is_irreducible(coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q of a monic integer polynomial of degree <= 8.

    No integer root, a nonzero resultant r of f and f' (square-free), then
    factor-degree patterns over the small fields F_p with p not dividing r;
    any degree the sieve cannot rule out is settled by an exhaustive search
    for a monic integer factor inside the Landau-Mignotte box.  Both
    searches raise CapabilityError past FACTOR_BOX_CAP: the box when it
    holds more points, the divisors of f(0) when sqrt|f(0)| exceeds it.
    `WeilContext.is_irreducible` calls this on h, of degree g, for a Weil
    polynomial.
    """
    f_low = poly.from_monic_first(coeffs)
    n = poly.degree(f_low)
    if n > DEGREE_CAP:
        raise CapabilityError(f"degree {n} exceeds the supported cap {DEGREE_CAP}")
    if n <= 0:
        return False
    if n == 1:
        return True
    if f_low[-1] != 1:
        raise InputError("not_monic", "irreducibility test expects a monic polynomial")
    if _integer_root_exists(f_low):
        return False
    if n <= 3:
        return True  # no rational root and degree <= 3
    res = linalg.determinant(poly.sylvester(f_low, poly.derivative(f_low)))
    if res == 0:
        return False
    candidates = set(range(2, n // 2 + 1))
    for pr in _SIEVE_PRIMES:
        if res % pr == 0:
            continue  # f mod pr is not square-free
        pattern = _factor_degrees(f_low, pr)
        if pattern == [n]:
            return True
        candidates &= _subset_sums(pattern)
        if not candidates:
            return True
    for d in sorted(candidates):
        if _has_factor_of_degree(f_low, d):
            return False
    return True


def _integer_root_exists(f_low: tuple) -> bool:
    c0 = f_low[0]
    if c0 == 0:
        return True
    for div in _divisors(abs(c0)):
        if poly.evaluate(f_low, div) == 0 or poly.evaluate(f_low, -div) == 0:
            return True
    return False


def _divisors(v: int) -> list[int]:
    """The divisors of v >= 1, by trial division up to sqrt(v), which is
    refused past FACTOR_BOX_CAP."""
    top = isqrt(v)
    if top > FACTOR_BOX_CAP:
        raise CapabilityError(f"listing the divisors of {v} needs {top} trial divisions, "
                              f"over the cap {FACTOR_BOX_CAP}")
    out = [d for d in range(1, top + 1) if v % d == 0]
    out += [v // d for d in reversed(out) if d * d != v]
    return out


def _factor_degrees(f_low: tuple, p: int) -> list[int]:
    """The degrees, sorted, of the irreducible factors over F_p of the monic
    f of degree n, for a prime p not dividing Res(f, f'), so that f mod p is
    square-free.  Berlekamp's matrix Q, whose row j is t^(pj) mod f, is
    x -> x^p on F_p[t]/(f) = prod F_(p^d_i), so dim ker(Q^d - I) is
    sum_i gcd(d, d_i) (Cohen, GTM 138, section 3.4).  For d = 1..n that is
    one integer system G c = k in the number c_e of factors of degree e,
    G = (gcd(d, e)), solved by the integer inverse pair of G."""
    n = len(f_low) - 1
    power = [1] + [0] * (n - 1)
    rows = [power]
    for k in range(1, p * (n - 1) + 1):
        # power <- t * power mod f, as t^n = -(f_0 + .. + f_(n-1) t^(n-1))
        power = [((power[i - 1] if i else 0) - power[-1] * f_low[i]) % p for i in range(n)]
        if k % p == 0:
            rows.append(power)
    dims, qd = [], linalg.identity(n)
    for d in range(1, n + 1):
        qd = [[x % p for x in row] for row in linalg.mat_mul(qd, rows)]
        dims.append(len(linalg.kernel_mod([[x - (i == j) for j, x in enumerate(row)]
                                           for i, row in enumerate(qd)], p)))
    e, den = linalg.inverse_pair([[gcd(d, k) for k in range(1, n + 1)] for d in range(1, n + 1)])
    counts = [sum(x * y for x, y in zip(row, dims)) // den for row in e]
    return [k for k, c in enumerate(counts, start=1) for _ in range(c)]


def _subset_sums(multiset: list[int]) -> set[int]:
    sums = {0}
    for x in multiset:
        sums |= {s + x for s in sums}
    return sums


def _has_factor_of_degree(f_low: tuple, d: int) -> bool:
    """Exhaustive search for a monic integer factor g of degree d of f, which
    has no integer root.

    Mignotte's bound |g_k| <= C(d, k) M(g) with M(g) = M(f) / M(f/g),
    M(f) <= ||f||_2 and M(f/g) >= |f(0) / g(0)| gives
    |g_k| <= C(d, k) ||f||_2 |g(0) / f(0)| (Cohen, GTM 138, section 3.5).
    g(0) divides f(0), and at d = n/2 the search may keep to g(0)^2 <= |f(0)|,
    since g or f/g qualifies; g(1) divides f(1), which is nonzero."""
    n, f0, f1 = len(f_low) - 1, f_low[0], poly.evaluate(f_low, 1)
    norm2 = sum(c * c for c in f_low)
    boxes = [(c0, [isqrt(comb(d, k) ** 2 * norm2 * c0 * c0 // (f0 * f0)) for k in range(1, d)])
             for c0 in _divisors(abs(f0)) if 2 * d != n or c0 * c0 <= abs(f0)]
    size = sum(2 * prod(2 * top + 1 for top in tops) for _, tops in boxes)
    if size > FACTOR_BOX_CAP:
        raise CapabilityError(f"the degree-{d} factor search needs {size} candidates, "
                              f"over the cap {FACTOR_BOX_CAP}")
    for c0, tops in boxes:
        for mids in product(*(range(-top, top + 1) for top in tops)):
            at_one = sum(mids) + 1
            for signed in (c0, -c0):
                if (at_one + signed and f1 % (at_one + signed) == 0
                        and poly.divides((signed, *mids, 1), f_low)):
                    return True
    return False


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_weil_contexts(
    p: int,
    r: int,
    g: int,
    *,
    ordinary: bool | None = None,
    irreducible: bool | None = None,
) -> list[WeilContext]:
    """All degree-2g contexts over F_q passing the root-location check,
    in lexicographic coefficient order, optionally filtered by the
    ordinary/irreducible flags.  Supports g in {1, 2} and q <= 16."""
    if g > ENUM_G_CAP:
        raise CapabilityError(f"enumeration supports g <= {ENUM_G_CAP}")
    if not is_prime(p) or r < 1:
        raise InputError("bad_field", "q must be a prime power")
    # p^r >= 2^r > ENUM_Q_CAP once r reaches the cap's bit length, so a long r
    # is refused before p^r is formed
    if r >= ENUM_Q_CAP.bit_length() or p**r > ENUM_Q_CAP:
        raise CapabilityError(f"enumeration supports q <= {ENUM_Q_CAP}")
    q = p**r
    # Only coefficient vectors already satisfying the functional equation can
    # pass _weil_reason, so the generator fixes the mirrored coefficients.
    if g == 1:
        top = isqrt(4 * q)
        box = ([1, a1, q] for a1 in range(-top, top + 1))
    else:
        # every Weil quartic has 2|a1|sqrt(q) - 2q <= a2 <= a1^2/4 + 2q (Rueck,
        # Compositio Math. 76 (1990); Maisner & Nart, Experiment. Math. 11
        # (2002)), here rounded inward exactly
        top1 = isqrt(16 * q)
        box = ([1, a1, a2, q * a1, q * q]
               for a1 in range(-top1, top1 + 1)
               for a2 in range((isqrt(4 * a1 * a1 * q - 1) + 1 if a1 else 0) - 2 * q,
                               a1 * a1 // 4 + 2 * q + 1))
    # both boxes hold Weil polynomials only, so the irreducible filter decides
    # it for Weil input only; the is_weil filter states the contract
    contexts = (make_context(p, r, g, coeffs) for coeffs in box)
    return [ctx for ctx in contexts if ctx.is_weil and _match(ctx, ordinary, irreducible)]


def _match(ctx: WeilContext, ordinary: bool | None, irreducible: bool | None) -> bool:
    if ordinary is not None and ctx.is_ordinary != ordinary:
        return False
    if irreducible is not None and ctx.is_irreducible != irreducible:
        return False
    return True
