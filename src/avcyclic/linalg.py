"""Exact linear algebra over Z and Q.

Matrices are sequences of rows.  Every function returns fresh lists and
never mutates its input.  The kernels work on integers: determinants and
inverses by fraction-free Bareiss elimination, the characteristic
polynomial and the adjugate (so the cofactors and tau) from one integer
Faddeev-LeVerrier pass, the canonical Hermite normal form (so lattice
bases are reproducible byte for byte) and the Smith normal form from
alternating row and column Hermite forms, and integral LLL and the
Fincke-Pohst search of short_vectors, both on one integral Gram-Schmidt
(Gram determinants).  Rational input reaches them through one
common denominator: the determinant, inverse, characteristic polynomial,
Hermite form, LLL transform and short vectors of A are read off those of
d A, d the least common denominator of the entries.  Fractions appear only
in the rational results (mat_inverse_fraction, the characteristic
polynomial of a rational matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, Sequence

from .errors import DegenerateLatticeError

Matrix = Sequence[Sequence]


def copy_rows(a: Matrix) -> list[list]:
    return [list(row) for row in a]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(m)]


def transpose(a: Matrix) -> list[list]:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def freeze(a: Matrix) -> tuple[tuple, ...]:
    return tuple(tuple(row) for row in a)


def determinant(a: Matrix) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = copy_rows(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _cleared(a: Matrix) -> tuple[list[list[int]], int]:
    """(d * a as integer rows, d) for d the least common denominator of the
    entries of the rational matrix a."""
    d = lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in a], d


def cofactor_matrix(a: Matrix) -> list[list[int]]:
    """Cofactor matrix: entry (i, j) is (-1)^(i+j) times the (i, j) minor,
    the transpose of the adjugate.  Dimension 1 gives [[1]], so that
    A * cof(A)^T = det(A) * I holds there too."""
    return transpose(_leverrier(a)[1])


def entries_gcd(a: Matrix) -> int:
    g = 0
    for row in a:
        for x in row:
            g = gcd(g, x)
    return g


def tau(a: Matrix) -> int:
    """gcd of all cofactors, read off the adjugate; conjugation invariant,
    and tau(AB) is divisible by tau(A) * tau(B)."""
    return entries_gcd(_leverrier(a)[1])


def is_unimodular(a: Matrix) -> bool:
    return len(a) == len(a[0]) and abs(determinant(a)) == 1


def inverse_unimodular(a: Matrix) -> list[list[int]]:
    """Exact integer inverse of a unimodular matrix: D E for (E, D) =
    inverse_pair(a), D = +-1."""
    try:
        e, d = inverse_pair(a)
    except DegenerateLatticeError:
        raise ValueError("matrix is not unimodular") from None
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in e]


def inverse_pair(b: Matrix) -> tuple[list[list[int]], int]:
    """(E, D) with E B = D I for a nonsingular integer matrix B, D = +-det(B).

    One fraction-free (Bareiss) Gauss-Jordan elimination takes [B | I] to
    [D I | E]; every division by the previous pivot is exact, so this is
    O(n^3) integer operations.
    """
    n = len(b)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(b)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise DegenerateLatticeError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        top = m[k]
        for i, row in enumerate(m):
            if i != k:
                c = row[k]
                m[i] = [(top[k] * x - c * y) // prev for x, y in zip(row, top)]
        prev = top[k]
    return [row[n:] for row in m], prev


def mat_inverse_fraction(a: Matrix) -> list[list[Fraction]]:
    """Exact inverse of a rational matrix: d B^-1 = d E / D for B = d A and
    (E, D) = inverse_pair(B)."""
    b, d = _cleared(a)
    e, det = inverse_pair(b)
    return [[Fraction(d * x, det) for x in row] for row in e]


def _leverrier(b: Matrix) -> tuple[list[int], list[list[int]]]:
    """(c, adj(B)) for a square integer matrix B: c = [1, c_1, .., c_n] with
    det(tI - B) = sum_k c_k t^(n-k), by integer Faddeev-LeVerrier.

    M_k = B (M_(k-1) + c_(k-1) I) from M_0 = 0, and c_k = -tr(M_k) / k is an
    exact integer.  M_(n-1) + c_(n-1) I = B^(n-1) + c_1 B^(n-2) + .. + c_(n-1) I,
    which is (-1)^(n+1) adj(B) by Cayley-Hamilton, singular B included.
    """
    n = len(b)
    c = [1]
    m = adj = zeros(n, n)
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c[-1]
        adj = m
        m = mat_mul(b, m)
        c.append(-sum(m[i][i] for i in range(n)) // k)
    return c, adj if n % 2 else [[-x for x in row] for row in adj]


def charpoly(a: Matrix) -> tuple:
    """Characteristic polynomial det(tI - A), lowest degree first, monic.

    Integer Faddeev-LeVerrier (_leverrier) on B = d A; the coefficient of
    t^(n-k) of A is c_k / d^k.  Integer input gives int coefficients, any
    other input Fraction.
    """
    b, d = _cleared(a)
    high = _leverrier(b)[0]
    if all(isinstance(x, int) for row in a for x in row):
        return tuple(reversed(high))
    return tuple(Fraction(c, d ** k) for k, c in enumerate(high))[::-1]


# ---------------------------------------------------------------------------
# Hermite normal form


def _hnf_core(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Row HNF of integer rows.  Returns (h, rank): h is canonical (upper
    echelon, positive pivots, entries above each pivot reduced into
    [0, pivot)) with its zero rows collected at the bottom.  Deterministic:
    columns left to right, pivot chained down from the first nonzero row.
    No transform is kept; hnf_rational reads one off [A | I]."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    h = copy_rows(rows)
    r = 0
    for col in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if h[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            h[r], h[piv] = h[piv], h[r]
        for i in range(r + 1, m):
            while h[i][col] != 0:
                q = h[r][col] // h[i][col]
                h[r] = [x - q * y for x, y in zip(h[r], h[i])]
                h[r], h[i] = h[i], h[r]
        if h[r][col] < 0:
            h[r] = [-x for x in h[r]]
        for i in range(r):
            q = h[i][col] // h[r][col]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        r += 1
    return h, r


def hnf_rational(a: Matrix) -> tuple[list[list[int]], list[list[int]], int, int]:
    """Clear denominators and reduce: returns (h, u, den, rank) where
    u * (den * a) = h, h canonical with zero rows at the bottom and u
    unimodular.  h and u are the left and right blocks of the Hermite form
    of [den * a | I]; the left block does not depend on the right one."""
    cleared, den = _cleared(a)
    if not cleared:
        raise DegenerateLatticeError("empty generating set")
    n = len(cleared[0])
    hu, _ = _hnf_core([row + e for row, e in zip(cleared, identity(len(cleared)))])
    h = [row[:n] for row in hu]
    return h, [row[n:] for row in hu], den, sum(1 for row in h if any(row))


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    s: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]


def smith_normal_form(a: Matrix) -> SnfResult:
    """Smith normal form S of a square integer matrix: diagonal, nonnegative,
    each invariant factor dividing the next, zeros last.  No transforms are
    kept.

    Kannan-Bachem (Cohen, GTM 138, 2.4.4): Hermite forms of the rows and of
    the columns alternate until the matrix is diagonal, and then (d_i, d_j)
    -> (gcd, lcm) over i < j puts the diagonal in divisibility order.  The
    loop ends.  Once the rows and columns before k are clear, each Hermite
    form after the first leaves a positive (k, k) pivot that divides the one
    before: it is the gcd of a column that holds the old pivot.  A pivot
    that stays equal divided that whole column, and then its row and column
    are clear, since the Hermite form of the row lattice is unique and the
    form with both clear is one.
    """
    n = len(a)
    m = a
    while any(m[i][j] for i in range(n) for j in range(n) if i != j):
        m = transpose(_hnf_core(m)[0])
    d = [abs(m[k][k]) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return SnfResult(freeze([[x if i == j else 0 for j in range(n)]
                             for i, x in enumerate(d)]), tuple(d))


# ---------------------------------------------------------------------------
# Lattice reduction


def _orthogonalize(g: list[list[int]], lam: list[list[int]], d: list[int], k: int) -> None:
    """Row k of the integral Gram-Schmidt of the integer Gram matrix g (Cohen,
    GTM 138, Alg. 2.6.7): lam[k][j] = d[j+1] mu[k][j] for j < k and the Gram
    determinant d[k+1], from rows < k.  ValueError unless d[k+1] > 0."""
    row = lam[k]
    for j in range(k + 1):
        t = g[k][j]
        for i in range(j):
            t = (d[i + 1] * t - row[i] * lam[j][i]) // d[i]
        if j < k:
            row[j] = t
        else:
            d[k + 1] = t
    if d[k + 1] <= 0:
        raise ValueError("gram matrix is not positive definite")


def lll_reduce_gram(gram: Matrix, delta: Fraction = Fraction(99, 100)) -> list[list[int]]:
    """LLL transformation for a positive definite rational Gram matrix.

    Returns unimodular integer rows u such that u * basis is LLL-reduced
    when gram[i][j] is the inner product of basis vectors i and j.  Raises
    ValueError when the form is not positive definite (a Gram-Schmidt
    length comes out zero or negative).

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7) on the cleared Gram matrix
    c * gram, which has the same mu and the same decisions: d[i] is the Gram
    determinant of the first i vectors and lam[k][j] = d[j+1] mu[k][j], all
    integers, and every division below is exact.  The Gram matrix of the
    current basis is kept up to date, and only the Gram-Schmidt row being
    worked on is recomputed.  mu is rounded half to even, as round() rounds
    a Fraction, so the output is deterministic.
    """
    n = len(gram)
    g, _ = _cleared(gram)  # Gram matrix of u * basis, times c
    a, b = delta.as_integer_ratio()
    u = identity(n)
    lam = zeros(n, n)
    d = [1] * (n + 1)
    # terminates: each swap shrinks the Lovasz potential by a factor of delta
    if n:
        _orthogonalize(g, lam, d, 0)
    k = 1
    while k < n:
        _orthogonalize(g, lam, d, k)
        for j in range(k - 1, -1, -1):
            q, r = divmod(2 * lam[k][j] + d[j + 1], 2 * d[j + 1])  # floor(mu + 1/2)
            if r == 0 and q & 1:  # mu is a half-integer: round to even
                q -= 1
            if q:
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                g[k] = [x - q * y for x, y in zip(g[k], g[j])]
                for row in g:
                    row[k] -= q * row[j]
                lam[k][j] -= q * d[j + 1]
                for m in range(j):
                    lam[k][m] -= q * lam[j][m]
        if b * d[k + 1] * d[k - 1] >= a * d[k] ** 2 - b * lam[k][k - 1] ** 2:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            k = max(1, k - 1)
            if k == 1:
                _orthogonalize(g, lam, d, 0)
    return u


def short_vectors(gram: Matrix, bound) -> Iterator[tuple[int, ...]]:
    """Fincke-Pohst enumeration of the nonzero integer vectors v with
    v * gram * v^T <= bound, for a positive definite rational Gram matrix.

    Yields one vector of each pair +-v (the one whose last nonzero
    coordinate is positive), the last coordinate outermost, each in
    increasing order.  Raises ValueError when the form is not positive
    definite.  Integer arithmetic on the Gram-Schmidt data of g = c * gram
    against N / D = c * bound (Cohen, GTM 138, Alg. 2.7.5): coordinate i
    adds (d[i+1] v_i + s_i)^2 / (d[i] d[i+1]), s_i = sum_{j>i} lam[j][i] v_j.
    """
    n = len(gram)
    g, c = _cleared(gram)
    num, den = (c * bound).as_integer_ratio()
    lam = zeros(n, n)
    d = [1] * (n + 1)
    for k in range(n):
        _orthogonalize(g, lam, d, k)
    v = [0] * n

    def search(i: int, e: int, on_axis: bool):
        # e: d[i+1] times the part of v g v^T from coordinates > i, an integer
        # Gram determinant.  on_axis: every coordinate above i is zero, so
        # s_i = 0 and the sign of v is fixed by taking v_i >= 0
        s = sum(lam[j][i] * v[j] for j in range(i + 1, n))
        m = isqrt(d[i] * (d[i + 1] * num - den * e) // den)
        lo = 0 if on_axis else -((m + s) // d[i + 1])
        for x in range(lo, (m - s) // d[i + 1] + 1):
            v[i] = x
            if i == 0:
                if x or not on_axis:
                    yield tuple(v)
            else:
                t = d[i + 1] * x + s
                yield from search(i - 1, (d[i] * e + t * t) // d[i + 1], on_axis and x == 0)
        v[i] = 0

    if n:
        yield from search(n - 1, 0, True)
