"""Exact integer/rational matrix kernel tests.

Oracle values were computed by hand (2x2 cofactor rule, row reduction)
before the implementation and are frozen here; the property tests at the
end compare the kernels with sympy on random integer and rational matrices.
"""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from avcyclic import conjugacy, icm, linalg, orders, weil
from avcyclic.errors import DegenerateLatticeError
from avcyclic.orders import IdealLattice

from _helpers import (conjugate, corpus_contexts, determinant_fraction, kernel_int,
                      random_int_matrix, random_unimodular)


def test_determinant_hand_values():
    assert linalg.determinant([[1, 0], [0, 1]]) == 1
    assert linalg.determinant([[0, -2], [1, -1]]) == 2
    assert linalg.determinant([[1, 2], [-1, 2]]) == 4
    assert linalg.determinant([[3]]) == 3


def test_determinant_matches_fraction_path():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        m = random_int_matrix(rng, n)
        assert linalg.determinant(m) == determinant_fraction(m)


def test_cofactor_hand_values():
    assert linalg.cofactor_matrix([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert linalg.cofactor_matrix([[0, -2], [1, -1]]) == [[-1, -1], [2, 0]]
    assert linalg.cofactor_matrix([[0, 2], [-2, 0]]) == [[0, 2], [-2, 0]]


def test_cofactor_dimension_one_convention():
    assert linalg.cofactor_matrix([[17]]) == [[1]]


def test_cofactor_transpose_identity():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = random_int_matrix(rng, n)
        d = linalg.determinant(m)
        prod = linalg.mat_mul(m, linalg.transpose(linalg.cofactor_matrix(m)))
        assert prod == [[d if i == j else 0 for j in range(n)] for i in range(n)]


def test_cofactor_product_rule():
    # Cof is multiplicative in the same order; its transpose (the adjugate)
    # reverses the order.  Both checked on random integer pairs.
    rng = random.Random(3)
    for n in (3, 4):
        for _ in range(20):
            a = random_int_matrix(rng, n, 5)
            b = random_int_matrix(rng, n, 5)
            ab = linalg.mat_mul(a, b)
            assert linalg.cofactor_matrix(ab) == linalg.mat_mul(
                linalg.cofactor_matrix(a), linalg.cofactor_matrix(b)
            )
            adj = [linalg.transpose(linalg.cofactor_matrix(m)) for m in (ab, a, b)]
            assert adj[0] == linalg.mat_mul(adj[2], adj[1])


def test_tau_hand_values():
    assert linalg.tau([[1, 0], [0, 1]]) == 1
    assert linalg.tau([[0, 2], [-2, 0]]) == 2
    assert linalg.tau([[1, 2], [-1, 2]]) == 1


def test_tau_zero_matrix():
    assert linalg.tau([[0, 0], [0, 0]]) == 0


def test_tau_conjugation_invariance():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.choice([2, 3])
        m = random_int_matrix(rng, n)
        u = random_unimodular(rng, n)
        assert linalg.tau(conjugate(m, u)) == linalg.tau(m)


def test_smith_hand_values():
    assert linalg.smith_normal_form([[1, 0], [0, 1]]).invariant_factors == (1, 1)
    assert linalg.smith_normal_form([[0, 2], [-2, 0]]).invariant_factors == (2, 2)
    assert linalg.smith_normal_form([[1, 2], [-1, 2]]).invariant_factors == (1, 4)
    assert linalg.smith_normal_form([[1, 5], [-1, -1]]).invariant_factors == (1, 4)


def test_smith_transforms_and_divisibility():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        m = random_int_matrix(rng, n)
        res = linalg.smith_normal_form(m)
        s = [list(r) for r in res.s]
        assert res.invariant_factors == tuple(s[i][i] for i in range(n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert s[i][j] == 0
        facts = res.invariant_factors
        for a, b in zip(facts, facts[1:]):
            if a:
                assert b % a == 0
        det = linalg.determinant(m)
        if det:
            prod = 1
            for f in facts:
                prod *= f
            assert prod == abs(det)


def test_smith_deterministic():
    m = [[6, 4, 2], [4, 4, 4], [2, 4, 8]]
    first = linalg.smith_normal_form(m)
    again = linalg.smith_normal_form([row[:] for row in m])
    assert first == again


def _hnf(a):
    """(h, u) for a full-row-rank rational a: the canonical form of the
    cleared matrix and a unimodular u with u * (den * a) = h."""
    h, u, _, rank = linalg.hnf_rational(a)
    assert rank == len(a)
    return h, u


def test_hermite_hand_values():
    h, u = _hnf([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]] and u == [[1, 0], [0, 1]]
    assert linalg._hnf_core([[2, 0], [0, 2]]) == ([[2, 0], [0, 2]], 2)
    h, u = _hnf([[1, 2], [-1, 2]])
    assert h == [[1, 2], [0, 4]]
    assert linalg.is_unimodular(u)
    assert linalg.mat_mul(u, [[1, 2], [-1, 2]]) == h
    assert linalg._hnf_core([[1, 2], [-1, 2]]) == (h, 2)


def test_hermite_shape_convention():
    # upper triangular, positive pivots, entries above a pivot reduced into [0, pivot)
    rng = random.Random(6)
    for _ in range(40):
        n = rng.choice([2, 3])
        m = random_int_matrix(rng, n)
        if linalg.determinant(m) == 0:
            continue
        h, rank = linalg._hnf_core(m)
        assert rank == n
        for i in range(n):
            assert h[i][i] > 0
            for j in range(i):
                assert h[i][j] == 0
            for i2 in range(i):
                assert 0 <= h[i2][i] < h[i][i]


def test_hermite_canonical_under_rebasing():
    rng = random.Random(7)
    base = [[2, 1, 0], [0, 3, 1], [0, 0, 5]]
    h0, _ = _hnf(base)
    for _ in range(25):
        u = random_unimodular(rng, 3)
        h, _ = _hnf(linalg.mat_mul(u, base))
        assert h == h0
        assert linalg._hnf_core(linalg.mat_mul(u, base)) == (h0, 3)


def test_hermite_rational_input_clears_denominators():
    h, u, den, rank = linalg.hnf_rational([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    # cleared by lcm 6 to [[3, 0], [0, 2]], already in Hermite form
    assert (h, u, den, rank) == ([[3, 0], [0, 2]], [[1, 0], [0, 1]], 6, 2)


def test_hermite_degenerate():
    h, _, _, rank = linalg.hnf_rational([[1, 2], [2, 4]])
    assert (h, rank) == ([[1, 2], [0, 0]], 1)
    with pytest.raises(DegenerateLatticeError):
        IdealLattice.over(weil.make_context(2, 1, 1, [1, 1, 2]), [[1, 2], [2, 4]], 1)


def test_hnf_transform_on_rank_deficient_input():
    # hnf_rational returns a unimodular u with u * (den * a) = h, h the
    # canonical form of _hnf_core, whatever the rank; a lattice needs full rank
    ctxs = {n: weil.make_context(2, 1, n // 2, [1] + [0] * (n - 1) + [2 ** (n // 2)])
            for n in (2, 4, 6)}
    rng = random.Random(12)
    for _ in range(60):
        m, n, k = rng.randint(2, 6), rng.randint(1, 6), rng.randint(0, 4)
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        a = linalg.mat_mul(left, right) if k else linalg.zeros(m, n)
        if rng.randrange(2):
            a = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in a]
        h, u, den, rank = linalg.hnf_rational(a)
        cleared = [[x * den for x in row] for row in a]
        assert rank == sympy.Matrix(a).rank()
        assert linalg.is_unimodular(u)
        assert linalg.mat_mul(u, cleared) == h
        assert linalg._hnf_core([[int(x) for x in row] for row in cleared]) == (h, rank)
        assert not any(any(row) for row in h[rank:])
        if rank < n and n in ctxs:
            with pytest.raises(DegenerateLatticeError):
                IdealLattice.from_rows(ctxs[n], a)


def test_unimodular():
    assert linalg.is_unimodular([[1, 0], [0, 1]])
    assert linalg.is_unimodular([[1, 1], [0, 1]])
    assert not linalg.is_unimodular([[2, 0], [0, 1]])


def test_inverse_unimodular():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        u = random_unimodular(rng, n)
        inv = linalg.inverse_unimodular(u)
        assert linalg.mat_mul(u, inv) == linalg.identity(n)
    # singular and determinant-2 input is refused; a row swap (det -1) is its own inverse
    for m in ([[1, 2], [2, 4]], [[0, 0, 0], [1, 2, 3], [4, 5, 6]], [[2, 1], [0, 1]],
              [[1, 1, 0], [0, 2, 0], [0, 0, 1]]):
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            linalg.inverse_unimodular(m)
    assert linalg.inverse_unimodular([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]


def test_charpoly_companion():
    # companion of t^2 + t + 2 in column convention
    assert linalg.charpoly([[0, -2], [1, -1]]) == (2, 1, 1)
    assert linalg.charpoly([[0, -5], [1, 2]]) == (5, -2, 1)
    assert linalg.charpoly([[1, -2], [2, 1]]) == (5, -2, 1)


def test_charpoly_matches_determinant_and_trace():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        m = random_int_matrix(rng, n)
        cp = linalg.charpoly(m)
        assert cp[n] == 1
        # det(tI - M) at t = 0 is (-1)^n det(M); next coefficient is -trace
        assert cp[0] == (-1) ** n * linalg.determinant(m)
        assert cp[n - 1] == -sum(m[i][i] for i in range(n))


def test_kernel_int():
    ker = kernel_int([[1, 2], [2, 4]])
    assert len(ker) == 1
    x = ker[0]
    assert [x[0] * 1 + x[1] * 2, x[0] * 2 + x[1] * 4] == [0, 0]


def _random_gram(rng, n):
    while True:
        b = random_int_matrix(rng, n, bound=4)
        if linalg.determinant(b) != 0:
            return linalg.mat_mul(b, linalg.transpose(b))


def _form(gram, v):
    n = len(v)
    return sum(v[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def test_lll_reduce_gram_output_is_reduced():
    rng = random.Random(26)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        gram = _random_gram(rng, n)
        u = linalg.lll_reduce_gram(gram)
        assert linalg.is_unimodular(u)
        g = linalg.mat_mul(linalg.mat_mul(u, gram), linalg.transpose(u))
        # Gram-Schmidt of the reduced basis: size reduced, Lovasz with 99/100
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = []
        for i in range(n):
            for j in range(i):
                mu[i][j] = (g[i][j] - sum(mu[j][k] * mu[i][k] * norms[k]
                                          for k in range(j))) / norms[j]
                assert abs(mu[i][j]) <= Fraction(1, 2)
            norms.append(g[i][i] - sum(mu[i][k] ** 2 * norms[k] for k in range(i)))
            if i:
                assert norms[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * norms[i - 1]
    with pytest.raises(ValueError):
        linalg.lll_reduce_gram([[1, 0], [0, -1]])


def _lll_reduce_gram_fraction(gram, delta=Fraction(99, 100)):
    """The Fraction LLL that integral LLL replaced, kept as its oracle."""
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]  # Gram matrix of u * basis
    u = linalg.identity(n)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n

    def orthogonalize(i):
        for j in range(i):
            mu[i][j] = (g[i][j] - sum(mu[j][m] * mu[i][m] * norms[m]
                                      for m in range(j))) / norms[j]
        norms[i] = g[i][i] - sum(mu[i][m] ** 2 * norms[m] for m in range(i))
        if norms[i] <= 0:
            raise ValueError("gram matrix is not positive definite")

    # terminates: each swap shrinks the Lovasz potential by a factor of delta
    if n:
        orthogonalize(0)
    k = 1
    while k < n:
        orthogonalize(k)
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                g[k] = [x - q * y for x, y in zip(g[k], g[j])]
                for row in g:
                    row[k] -= q * row[j]
                mu[k][j] -= q
                for m in range(j):
                    mu[k][m] -= q * mu[j][m]
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            k = max(1, k - 1)
            if k == 1:
                orthogonalize(0)
    return u


# mu = +-1/2, +-3/2 or 5/2 at some step: round() takes these to the even neighbour
TIE_GRAMS = ([[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[4, 6], [6, 20]], [[4, -6], [-6, 20]],
             [[4, 10], [10, 30]], [[2, 1, 1], [1, 2, 1], [1, 1, 2]])


def test_lll_matches_fraction_oracle():
    rng = random.Random(2674)
    grams = list(TIE_GRAMS)
    for n in (1, 2, 3, 4, 6, 8):
        for _ in range(60 if n <= 4 else 20):
            b = random_int_matrix(rng, n, bound=rng.choice([3, 9, 40]))
            if linalg.determinant(b) == 0:
                continue
            if rng.randrange(3) == 0:  # a third rational, over mixed denominators
                b = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in b]
            grams.append(linalg.mat_mul(b, linalg.transpose(b)))
    assert len(grams) > 250
    for gram in grams:
        assert linalg.lll_reduce_gram(gram) == _lll_reduce_gram_fraction(gram), gram
    for delta in (Fraction(3, 4), Fraction(1, 2)):
        for gram in grams[::7]:
            assert (linalg.lll_reduce_gram(gram, delta)
                    == _lll_reduce_gram_fraction(gram, delta)), (gram, delta)
    assert linalg.lll_reduce_gram([]) == []
    for gram in ([[1, 0], [0, -1]], [[1, 2], [2, 4]], [[0]], [[1, 0, 0], [0, 1, 1], [0, 1, 1]]):
        with pytest.raises(ValueError, match="not positive definite"):
            linalg.lll_reduce_gram(gram)


def test_lll_on_integer_gram_constructs_no_fraction(monkeypatch):
    rng = random.Random(77)
    grams = list(TIE_GRAMS) + [_random_gram(rng, n) for n in (3, 5, 8)]
    want = [_lll_reduce_gram_fraction(g) for g in grams]

    def refuse(*args):
        raise AssertionError("Fraction constructed")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    got = [linalg.lll_reduce_gram(g) for g in grams]
    monkeypatch.undo()
    assert got == want
    assert all(type(x) is int for u in got for row in u for x in row)


def test_short_vectors_match_brute_force():
    rng = random.Random(1985)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        gram = [[Fraction(x, 2) for x in row] for row in _random_gram(rng, n)]
        bound = Fraction(rng.randint(1, 80), rng.randint(1, 3))
        got = list(linalg.short_vectors(gram, bound))
        # v_i^2 <= bound * (gram^-1)_ii on the ellipsoid
        inv = linalg.mat_inverse_fraction(gram)
        box = [isqrt(int(bound * inv[i][i])) + 1 for i in range(n)]
        want = set()
        for v in itertools.product(*[range(-r, r + 1) for r in box]):
            last = next((c for c in reversed(v) if c), 0)
            if last > 0 and _form(gram, v) <= bound:
                want.add(v)
        assert len(got) == len(set(got))
        assert set(got) == want
    with pytest.raises(ValueError):
        list(linalg.short_vectors([[1, 0], [0, -1]], 5))


def _short_vectors_fraction(gram, bound):
    """The Fraction Fincke-Pohst search that the integer one replaced, kept
    as its oracle."""
    n = len(gram)
    # Cohen, GTM 138, Alg. 2.7.6: v G v^T = sum_i q_ii (v_i + sum_{j>i} q_ij v_j)^2
    q = [[Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("gram matrix is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] /= q[i][i]
        for k in range(i + 1, n):
            for m in range(k, n):
                q[k][m] -= q[k][i] * q[i][m]
    v = [0] * n

    def search(i: int, room: Fraction, on_axis: bool):
        # on_axis: every coordinate above i is zero, so the center is 0 and
        # the sign of v is fixed by taking v_i >= 0
        center = -sum((q[i][j] * v[j] for j in range(i + 1, n)), Fraction(0))
        num, den = center.numerator, center.denominator
        radius = room / q[i][i] * den * den
        m = isqrt(radius.numerator // radius.denominator)
        lo = 0 if on_axis else -((m - num) // den)
        for x in range(lo, (num + m) // den + 1):
            v[i] = x
            if i == 0:
                if x or not on_axis:
                    yield tuple(v)
            else:
                yield from search(i - 1, room - q[i][i] * (x - center) ** 2,
                                  on_axis and x == 0)
        v[i] = 0

    if n:
        yield from search(n - 1, Fraction(bound), True)


def _short_vector_inputs(rng):
    """(gram, bound): seeded positive definite Grams with n in {1, 2, 3, 4, 6},
    a third rational, each raw and LLL-reduced, under the bound 0, an int
    bound and a Fraction bound, both at most three times the largest
    diagonal entry of the reduced Gram."""
    for n in (1, 2, 3, 4, 6):
        for _ in range(40 if n <= 4 else 12):
            b = random_int_matrix(rng, n, bound=rng.choice([2, 4, 9]))
            if rng.randrange(3) == 0:
                b = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in b]
            if determinant_fraction(b) == 0:
                continue
            gram = linalg.mat_mul(b, linalg.transpose(b))
            u = linalg.lll_reduce_gram(gram)
            reduced = linalg.mat_mul(linalg.mat_mul(u, gram), linalg.transpose(u))
            top = max(reduced[i][i] for i in range(n))
            for g in (gram, reduced):
                for bound in (0, int(2 * top), Fraction(rng.randint(1, 6) * top, rng.randint(2, 3))):
                    yield g, bound


def test_short_vectors_match_fraction_oracle():
    inputs = list(_short_vector_inputs(random.Random(1959)))
    assert len(inputs) > 800
    seen = 0
    for gram, bound in inputs:
        got = list(linalg.short_vectors(gram, bound))
        assert got == list(_short_vectors_fraction(gram, bound)), (gram, bound)
        seen += len(got)
    assert seen > 10000
    assert list(linalg.short_vectors([], 5)) == []
    for gram in ([[1, 0], [0, -1]], [[1, 2], [2, 4]], [[0]], [[1, 0, 0], [0, 1, 1], [0, 1, 1]]):
        with pytest.raises(ValueError, match="not positive definite"):
            list(linalg.short_vectors(gram, 5))


def test_short_vectors_on_integer_gram_constructs_no_fraction(monkeypatch):
    rng = random.Random(88)
    inputs = [(g, b) for g, b in _short_vector_inputs(rng)
              if all(type(x) is int for row in g for x in row) and type(b) is int][::5]
    want = [list(_short_vectors_fraction(g, b)) for g, b in inputs]

    def refuse(*args):
        raise AssertionError("Fraction constructed")

    monkeypatch.setattr(linalg, "Fraction", refuse)
    got = [list(linalg.short_vectors(g, b)) for g, b in inputs]
    monkeypatch.undo()
    assert got == want
    assert sum(map(len, got)) > 1000


# ---------------------------------------------------------------------------
# Property tests against sympy

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _square(entries):
    return st.integers(1, 8).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


INT_MATRICES = _square(st.integers(-5, 5))
# mixed denominators up to 5, so d is the lcm of several distinct ones
RATIONAL_MATRICES = _square(st.fractions(-4, 4, max_denominator=5))


def _fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _sympy_charpoly(m) -> tuple:
    t = sympy.Symbol("t")
    coeffs = sympy.Matrix(m).charpoly(t).all_coeffs()
    return tuple(_fraction(c) for c in reversed(coeffs))


@PROPERTY
@given(st.one_of(INT_MATRICES, RATIONAL_MATRICES))
def test_charpoly_matches_sympy(m):
    cp = linalg.charpoly(m)
    assert cp == _sympy_charpoly(m)
    # integer input gives int coefficients, any other input Fraction
    integral = all(isinstance(x, int) for row in m for x in row)
    assert all(type(c) is (int if integral else Fraction) for c in cp)


@PROPERTY
@given(st.one_of(INT_MATRICES, RATIONAL_MATRICES))
def test_determinant_and_inverse_match_sympy(m):
    det = _fraction(sympy.Matrix(m).det())
    assert determinant_fraction(m) == det
    if det == 0:
        with pytest.raises(DegenerateLatticeError):
            linalg.mat_inverse_fraction(m)
        return
    inv = linalg.mat_inverse_fraction(m)
    assert inv == [[_fraction(x) for x in row] for row in sympy.Matrix(m).inv().tolist()]
    assert all(type(x) is Fraction for row in inv for x in row)


@PROPERTY
@given(st.one_of(INT_MATRICES, RATIONAL_MATRICES), st.data())
def test_singular_inverse_raises(m, data):
    # overwrite one row with a rational combination of the others
    m, n = [list(row) for row in m], len(m)
    i = data.draw(st.integers(0, n - 1))
    weights = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n))
    m[i] = [sum((w * row[j] for k, (w, row) in enumerate(zip(weights, m)) if k != i),
                Fraction(0)) for j in range(n)]
    assert determinant_fraction(m) == 0
    with pytest.raises(DegenerateLatticeError, match="singular matrix"):
        linalg.mat_inverse_fraction(m)


@PROPERTY
@given(INT_MATRICES)
def test_smith_invariant_factors_match_sympy(m):
    want = sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
    assert linalg.smith_normal_form(m).invariant_factors == tuple(int(x) for x in want)


def test_inverse_reads_no_cofactors(monkeypatch):
    # cyclicity.q_stability_check counts the exact inverse and tau (read off
    # the adjugate of _leverrier) as independent routes
    def refuse(a):
        raise AssertionError("adjugate called")

    monkeypatch.setattr(linalg, "cofactor_matrix", refuse)
    monkeypatch.setattr(linalg, "_leverrier", refuse)
    for m in ([[2, 1, 0], [1, 3, 1], [0, 1, 4]],
              [[0, Fraction(1, 2)], [Fraction(-2, 3), 5]]):
        inv = linalg.mat_inverse_fraction(m)
        assert linalg.mat_mul(m, inv) == linalg.identity(len(m))


def test_smith_reads_no_adjugate(monkeypatch):
    # cyclicity.group_structure_oracle counts the invariant factors of 1 - M
    # and tau(1 - M) (read off the adjugate of _leverrier) as independent
    # routes.  Every corpus class, then seeded matrices of sizes 1..8 with
    # entries up to 1000 in size and zero rows and columns forced in
    mats = []
    for ctx in corpus_contexts():
        for lat in icm.enumerate_icm(orders.frobenius_pair_order(ctx)).classes:
            m = conjugacy.ideal_to_matrix(lat).rep
            mats.append([[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(m)])
    assert len(mats) == 97
    rng = random.Random(29)
    for n in range(1, 9):
        for k in range(12):
            m = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(n)]
            for i in rng.sample(range(n), min(k % 3, n)):
                m[i] = [0] * n
            for j in rng.sample(range(n), min(k % 4 // 2, n)):
                for row in m:
                    row[j] = 0
            mats.append(m)
    want = [tuple(int(x) for x in sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ))
            for m in mats]
    assert sum(0 in w for w in want) >= 60

    def refuse(a):
        raise AssertionError("adjugate called")

    monkeypatch.setattr(linalg, "cofactor_matrix", refuse)
    monkeypatch.setattr(linalg, "_leverrier", refuse)
    assert [linalg.smith_normal_form(m).invariant_factors for m in mats] == want


@PROPERTY
@given(INT_MATRICES, st.integers(0, 2**32))
def test_hnf_unique_under_unimodular_left_multiplication(m, seed):
    u = random_unimodular(random.Random(seed), len(m))
    h, rank = linalg._hnf_core(m)
    assert linalg._hnf_core(linalg.mat_mul(u, m)) == (h, rank)


@st.composite
def _low_rank_matrices(draw):
    """Square integer matrices of size n <= 8, a third of them of rank n - 1
    and a third of rank <= n - 2 (rows replaced by combinations of others)."""
    m = [list(row) for row in draw(INT_MATRICES)]
    n = len(m)
    drop = draw(st.integers(0, min(n, 3)))
    for i in range(n - drop, n):
        weights = draw(st.lists(st.integers(-2, 2), min_size=n - drop, max_size=n - drop))
        m[i] = [sum(w * m[k][j] for k, w in enumerate(weights)) for j in range(n)]
    return m


@PROPERTY
@given(_low_rank_matrices())
def test_cofactor_matrix_matches_sympy_adjugate(m):
    want = sympy.Matrix(m).adjugate().T.tolist() if len(m) > 1 else [[1]]
    assert linalg.cofactor_matrix(m) == [[int(x) for x in row] for row in want]
    assert linalg.tau(m) == linalg.entries_gcd(want)


def test_low_rank_matrices_reach_every_rank_drop():
    # the strategy above covers full rank, rank n - 1 and rank <= n - 2
    drops = set()

    @PROPERTY
    @given(_low_rank_matrices())
    def record(m):
        drops.add(min(len(m) - sympy.Matrix(m).rank(), 2))

    record()
    assert drops == {0, 1, 2}


def test_tau_reads_no_determinant(monkeypatch):
    rng = random.Random(13)
    mats = [random_int_matrix(rng, n) for n in (1, 2, 3, 4, 6, 8) for _ in range(3)]
    mats += [[[1, 2], [2, 4]], [[0, 0, 0], [1, 2, 3], [4, 5, 6]]]
    want = [linalg.tau(m) for m in mats]

    def refuse(a):
        raise AssertionError("determinant called")

    monkeypatch.setattr(linalg, "determinant", refuse)
    assert [linalg.tau(m) for m in mats] == want
    assert want[-2:] == [1, 3]
