"""Exact univariate polynomial arithmetic over Z.

Polynomials are tuples of integer coefficients in increasing degree order:
``coeffs[k]`` is the coefficient of t^k.  The zero polynomial is the empty
tuple.  Division is only ever by a monic polynomial, so every quotient stays
integral; nothing here touches floating point.

A second, self-contained section provides arithmetic in F_p[t], used by the
irreducibility sieve.
"""

from __future__ import annotations

from typing import Sequence

Poly = tuple


def trim(coeffs: Sequence) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(p: Sequence) -> int:
    """Degree, with degree(0) = -1."""
    return len(trim(p)) - 1


def add(p: Sequence, q: Sequence) -> Poly:
    n = max(len(p), len(q))
    return trim([(p[k] if k < len(p) else 0) + (q[k] if k < len(q) else 0) for k in range(n)])


def sub(p: Sequence, q: Sequence) -> Poly:
    return add(p, [-c for c in q])


def evaluate(p: Sequence, x):
    """Horner evaluation."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: Sequence) -> Poly:
    return trim([k * p[k] for k in range(1, len(p))])


def divides(q: Sequence, p: Sequence) -> bool:
    """True iff the monic integer polynomial q divides the integer polynomial
    p, by exact integer division."""
    rem = list(p)
    dq = len(q) - 1
    for k in range(len(rem) - 1 - dq, -1, -1):
        c = rem[k + dq]
        if c:
            for j in range(dq):
                rem[k + j] -= c * q[j]
    return not any(rem[:dq])


def sylvester(p: Sequence, q: Sequence) -> list[list[int]]:
    """Sylvester matrix of p and q (trimmed, lowest degree first); its
    determinant is their resultant up to sign."""
    m, n = len(p) - 1, len(q) - 1
    rows = [[0] * k + list(p) + [0] * (n - 1 - k) for k in range(n)]
    return rows + [[0] * k + list(q) + [0] * (m - 1 - k) for k in range(m)]


def from_monic_first(seq: Sequence) -> Poly:
    """Convert a coefficient list written highest degree first."""
    return trim(list(reversed(list(seq))))


def power_sums(f_low: Sequence, count: int) -> list:
    """Newton power sums s_k = sum of k-th powers of the roots of monic f,
    for k = 0..count (inclusive).  f given lowest degree first; integer
    coefficients give integer sums."""
    f = trim(f_low)
    n = len(f) - 1
    if n < 0 or f[-1] != 1:
        raise ValueError("power_sums needs a monic polynomial")
    # a[i] is the coefficient of t^(n-i), so a[0] = 1.
    a = list(reversed(f))
    s = [n]
    for k in range(1, count + 1):
        acc = -k * a[k] if k <= n else 0
        for i in range(1, min(k, n + 1)):
            acc -= a[i] * s[k - i]
        s.append(acc)
    return s


# ---------------------------------------------------------------------------
# Arithmetic in F_p[t].  Coefficient tuples, lowest degree first, entries in
# range(p).  Only what the distinct-degree sieve needs.


def pmod(p: Sequence, m: int) -> Poly:
    return trim([c % m for c in p])


def pmod_mul(a: Sequence, b: Sequence, m: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return trim(out)


def pmod_divmod(a: Sequence, b: Sequence, m: int) -> tuple[Poly, Poly]:
    """(quotient, remainder) of a by b over F_m, m prime, by long division
    (Cohen, GTM 138, section 3.1)."""
    b = trim(b)
    inv_lead, db = pow(b[-1], -1, m), len(b) - 1
    rem = list(pmod(a, m))
    quo = [0] * max(1, len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        quo[k] = c = rem[k + db] * inv_lead % m
        for j in range(db + 1):
            rem[k + j] = (rem[k + j] - c * b[j]) % m
    return trim(quo), trim(rem[:db])


def pmod_rem(a: Sequence, f: Sequence, m: int) -> Poly:
    """Remainder of a modulo f over F_m."""
    return pmod_divmod(a, f, m)[1]


def pmod_powmod(base: Sequence, e: int, f: Sequence, m: int) -> Poly:
    """base^e modulo f over F_m, square and multiply."""
    result: Poly = (1,)
    acc = pmod_rem(base, f, m)
    while e:
        if e & 1:
            result = pmod_rem(pmod_mul(result, acc, m), f, m)
        acc = pmod_rem(pmod_mul(acc, acc, m), f, m)
        e >>= 1
    return result


def pmod_gcd(a: Sequence, b: Sequence, m: int) -> Poly:
    a, b = pmod(a, m), pmod(b, m)
    while b:
        a, b = b, pmod_rem(a, b, m)
    if not a:
        return ()
    inv = pow(a[-1], -1, m)
    return tuple((c * inv) % m for c in a)


def pmod_div_exact(a: Sequence, b: Sequence, m: int) -> Poly:
    """Exact quotient a/b over F_m; raises if the division leaves a remainder."""
    quo, rem = pmod_divmod(a, b, m)
    if rem:
        raise ValueError("inexact division in F_p[t]")
    return quo


def distinct_degree_pattern(f_low: Sequence, p: int) -> list[int] | None:
    """Multiset of irreducible factor degrees of monic f over F_p, or None
    when f mod p is not squarefree (the sieve skips such primes)."""
    f = pmod(f_low, p)
    if len(f) - 1 != len(trim(f_low)) - 1:
        return None  # leading coefficient vanished; not monic mod p
    d = pmod_gcd(f, derivative(f), p)
    if len(d) > 1:
        return None
    degrees: list[int] = []
    rem = f
    x: Poly = (0, 1)
    power = x
    d_deg = 1
    while len(rem) - 1 >= 2 * d_deg:
        # power = x^(p^d_deg) mod rem
        power = pmod_powmod(power, p, rem, p)
        g = pmod_gcd(sub(power, x), rem, p)
        if len(g) > 1:
            degrees.extend([d_deg] * ((len(g) - 1) // d_deg))
            rem = pmod_div_exact(rem, g, p)
            power = pmod_rem(power, rem, p)
        d_deg += 1
    if len(rem) > 1:
        degrees.append(len(rem) - 1)
    degrees.sort()
    return degrees
