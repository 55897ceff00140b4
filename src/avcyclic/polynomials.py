"""Exact univariate polynomial arithmetic over Z.

Polynomials are tuples of integer coefficients in increasing degree order:
``coeffs[k]`` is the coefficient of t^k.  The zero polynomial is the empty
tuple.  Division is only ever by a monic polynomial, so every quotient stays
integral; nothing here touches floating point.  Work mod p lives in
linalg's mod-p kernel: the irreducibility sieve (weil._factor_degrees)
reads its factor degrees off Berlekamp's matrix, with no F_p[t] arithmetic.
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

