"""Shared test utilities: the acceptance corpus, the g = 1 contexts of the
Hasse interval, seeded random matrix generation, and the integer kernel,
row-vector product, ideal sum and ideal intersection that serve as oracles
for the lattice kernels, the rational determinant and trace-pairing Gram
route that serve as oracles for orders.discriminant, the integrality test
on field elements that serves as the oracle for p-maximality, and the
two-pass document writer that serves as the oracle for cli._dump."""

import json
import random
from fractions import Fraction
from math import isqrt, lcm

from avcyclic import linalg, orders, weil

# The acceptance corpus: every ordinary irreducible g = 1 context for these
# fields plus the first ten ordinary irreducible quartics over F_2 and F_3.
G1_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
QUARTIC_FIELDS = ((2, 1), (3, 1))
QUARTICS_PER_FIELD = 10


def corpus_contexts():
    """The 62 corpus contexts in enumeration order."""
    for p, r in G1_FIELDS:
        yield from weil.enumerate_weil_contexts(p, r, 1, ordinary=True, irreducible=True)
    for p, r in QUARTIC_FIELDS:
        quartics = weil.enumerate_weil_contexts(p, r, 2, ordinary=True, irreducible=True)
        assert len(quartics) >= QUARTICS_PER_FIELD
        yield from quartics[:QUARTICS_PER_FIELD]


def g1_contexts(q_max: int):
    """Every ordinary irreducible g = 1 context t^2 + a t + q with q <= q_max,
    by q and then a, straight from the Hasse interval a^2 <= 4q (enumeration
    proper stops at weil.ENUM_Q_CAP)."""
    for q in range(2, q_max + 1):
        split = weil.prime_power_split(q)
        if split is None:
            continue
        top = isqrt(4 * q)
        for a in range(-top, top + 1):
            ctx = weil.make_context(*split, 1, [1, a, q])
            if ctx.is_weil and ctx.is_ordinary and ctx.is_irreducible:
                yield ctx


def random_unimodular(rng: random.Random, n: int, entry_bound: int = 5,
                      steps: int = 12) -> list[list[int]]:
    """Unimodular matrix built from elementary row operations, resampled
    until every entry stays within entry_bound."""
    while True:
        u = linalg.identity(n)
        for _ in range(steps):
            kind = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if kind == 0 and i != j:
                c = rng.choice([-2, -1, 1, 2])
                for k in range(n):
                    u[i][k] += c * u[j][k]
            elif kind == 1 and i != j:
                u[i], u[j] = u[j], u[i]
            elif kind == 2:
                u[i] = [-x for x in u[i]]
        if max(abs(x) for row in u for x in row) <= entry_bound:
            assert linalg.is_unimodular(u)
            return u


def random_int_matrix(rng: random.Random, n: int, bound: int = 9) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def conjugate(m: list[list[int]], u: list[list[int]]) -> list[list[int]]:
    """u * m * u^-1 over the integers (u unimodular)."""
    return linalg.mat_mul(linalg.mat_mul(u, m), linalg.inverse_unimodular(u))


def kernel_int(a) -> list[list[int]]:
    """Basis of the left integer kernel {x : x * a = 0} of an integer matrix:
    the rows of the unimodular u with u * a = h that meet the zero rows of h."""
    _, u, _, rank = linalg.hnf_rational(a)
    return u[rank:]


def vec_mat(v, a) -> list:
    """The row vector v times the matrix a."""
    return [sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(a[0]))]


def ideal_sum(a, b):
    """a + b, the lattice spanned by both bases."""
    orders._same_ctx(a, b)
    return orders.IdealLattice.from_elements(a.ctx, a.elements + b.elements)


def ideal_intersection(a, b):
    """a and b as lattices intersected: the kernel of [A | -B] over the
    common denominator d, read back through A."""
    d = lcm(a.den, b.den)
    am = [[x * (d // a.den) for x in row] for row in a.mat]
    kernel = kernel_int(am + [[-x * (d // b.den) for x in row] for row in b.mat])
    return orders.IdealLattice.over(a.ctx, [vec_mat(k[:a.ctx.n], am) for k in kernel], d)


def determinant_fraction(a) -> Fraction:
    """Exact determinant of a rational matrix: det(d A) / d^n."""
    b, d = linalg._cleared(a)
    return Fraction(linalg.determinant(b), d ** len(b))


def discriminant_gram(order) -> int:
    """Determinant of the trace pairing Gram matrix Tr(e_i e_j) on the basis
    elements e_i of the order, entry by entry."""
    elems = order.lattice.elements
    gram = [[(ei * ej).trace() for ej in elems] for ei in elems]
    d = determinant_fraction(gram)
    assert d.denominator == 1
    return int(d)


def is_integral(x) -> bool:
    """Whether the field element x is an algebraic integer: its
    characteristic polynomial has integer coefficients."""
    return all(c.denominator == 1 for c in x.charpoly())


def _stringify(value):
    """Recursively convert integers (not booleans) to decimal strings."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else (
            f"{value.numerator}/{value.denominator}")
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def dump_oracle(doc) -> str:
    """The document bytes as json.dumps writes them after stringifying
    every integer: the contract of cli._dump."""
    return json.dumps(_stringify(doc), sort_keys=True, indent=2) + "\n"
