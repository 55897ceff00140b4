"""Shared test utilities: the acceptance corpus, the g = 1 contexts of the
Hasse interval, seeded random matrix generation and the exact inverse of a
unimodular matrix, the integer kernel, row-vector product, ideal sum and
ideal intersection that serve as oracles for the lattice kernels, the
rational determinant and trace-pairing Gram route that serve as oracles for
orders.discriminant, the integrality test on field elements, the two-pass
document writer that serves as the oracle for cli._dump, the convolution
product with the per-basis products built on it, which serve as oracles for
the one multiplication, FieldElement.mult_matrix, and the lattice kernels
that read it off, the conjugate built on it, which serves as the oracle for
the conjugation rows of the witness search, the zero element and the norm
det M(x) / den^n of a field element, the ring-first equivalence decision
that serves as the oracle for orders.ideal_equivalent, the pairwise class
listing, rings by colon ideals, that serves as the oracle for the descents
and the rings of icm._classes_by_descent, the full projective scan that
serves as the reference for the spaces of icm._scan_spaces, the cofactor
matrix read off the adjugate of linalg._leverrier, Minkowski's
convex-body index bound that serves as the reference for
icm.minkowski_index_bound, and the element built from rational coordinates
and the Weil test on bare coefficients, which only tests need."""

import json
import random
from fractions import Fraction
from math import factorial, isqrt, lcm

from avcyclic import icm, linalg, orders, weil
from avcyclic import polynomials as poly
from avcyclic.errors import DegenerateLatticeError

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


def inverse_unimodular(a) -> list[list[int]]:
    """Exact integer inverse of a unimodular matrix: D E for (E, D) =
    inverse_pair(a), D = +-1."""
    try:
        e, d = linalg.inverse_pair(a)
    except DegenerateLatticeError:
        raise ValueError("matrix is not unimodular") from None
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row] for row in e]


def conjugate(m: list[list[int]], u: list[list[int]]) -> list[list[int]]:
    """u * m * u^-1 over the integers (u unimodular)."""
    return linalg.mat_mul(linalg.mat_mul(u, m), inverse_unimodular(u))


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


def convolution_product(x, y):
    """x * y by the convolution of the numerators, reduced from the top
    power down by alpha^n = -(f_0 + f_1 alpha + .. + f_(n-1) alpha^(n-1))."""
    f, n = x.ctx.f_low, x.ctx.n
    conv = [0] * (2 * n - 1)
    for i, a in enumerate(x.num):
        for j, b in enumerate(y.num):
            conv[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        for j in range(n):
            conv[k - n + j] -= conv[k] * f[j]
    return orders.FieldElement.over(x.ctx, conv[:n], x.den * y.den)


def make_element(ctx, seq):
    """The field element with the given rational power-basis coordinates,
    at most n of them, padded with zeros."""
    coeffs = [Fraction(c) for c in seq]
    assert len(coeffs) <= ctx.n
    coeffs += [Fraction(0)] * (ctx.n - len(coeffs))
    d = lcm(*(c.denominator for c in coeffs))
    return orders.FieldElement.over(ctx, [c.numerator * (d // c.denominator) for c in coeffs], d)


def zero(ctx):
    return orders.FieldElement(ctx, (0,) * ctx.n)


def validate_weil(coeffs, q: int) -> bool:
    """Whether the monic even-degree polynomial, highest degree first, has
    every root on |t| = sqrt(q): the Weil flag of weil.make_context, for
    any q."""
    return weil._weil_reason(poly.from_monic_first(coeffs), q)[0]


def norm(x) -> Fraction:
    """N(x) = det M(x) / den^n, M(x) the multiplication matrix of den x."""
    return Fraction(linalg.determinant(x.mult_matrix()), x.den ** x.ctx.n)


def convolution_conj(x):
    """conj(x) = sum_k x_k (q/alpha)^k, the powers by convolution_product."""
    ctx = x.ctx
    abar, power, out = orders.q_over_alpha(ctx), orders.one(ctx), zero(ctx)
    for c in x.num:
        out = out + c * power
        power = convolution_product(power, abar)
    return out * Fraction(1, x.den)


def ring_first_equivalent(a, b):
    """orders.ideal_equivalent decided rings first: different multiplicator
    rings are never equivalent, and for a common ring S the witness search
    runs with S, so (b : S) = b when a is S."""
    if a == b:
        return orders.EquivalenceResult("equivalent", orders.one(a.ctx))
    ring = orders.multiplicator_ring(a).lattice
    if ring != orders.multiplicator_ring(b).lattice:
        return orders.EquivalenceResult("not_equivalent")
    return orders._witness_search(a, b, ring)


def pairwise_icm(order, index_bound):
    """icm.enumerate_icm at g >= 2 with no descent and no ring read off the
    discriminant: each candidate's ring is its colon ideal, and it is a new
    class unless the witness search, given that ring, finds it equivalent
    to a kept representative with that ring, and each pair the search
    leaves undecided against a kept candidate is reported."""
    ctx, lat = order.ctx, order.lattice
    reps, rings, indeterminate = [], [], []
    for t in icm.integral_ideals(order, index_bound):
        cand = orders.IdealLattice.over(ctx, linalg.mat_mul(t, lat.mat), lat.den)
        ring = orders.multiplicator_ring(cand).lattice
        unresolved = []
        for i, rep in enumerate(reps):
            if rings[i] != ring:
                continue
            eq = orders._witness_search(rep, cand, ring)
            if eq.status == "equivalent":
                break
            if eq.status == "indeterminate":
                unresolved.append((i, len(reps), eq.search_bound))
        else:
            indeterminate.extend(unresolved)
            reps.append(cand)
            rings.append(ring)
    certified = index_bound >= icm.minkowski_index_bound(order) and not indeterminate
    ranked = sorted(range(len(reps)), key=lambda i: (reps[i].den, reps[i].mat))
    rank = {old: new for new, old in enumerate(ranked)}
    return icm.IcmResult(
        order=order,
        classes=tuple(reps[i] for i in ranked),
        multiplicator_rings=tuple(rings[i] for i in ranked),
        index_bound=index_bound,
        completeness="certified" if certified else "heuristic",
        indeterminate_pairs=tuple((rank[i], rank[j], b) for i, j, b in indeterminate),
    )


def projective_scan_spaces(alpha, roots, p, c):
    """The spaces of the full projective scan, the reference for
    icm._scan_spaces: the eigenspaces of alpha for c = 1 and all of F_p^n
    for c >= 2, every point of P(F_p^n) (a stable U contains a cyclic U',
    whose ideal is queued itself)."""
    n = len(alpha)
    if c >= 2:
        return [linalg.identity(n)]
    return [linalg.kernel_mod([[x - lam * (i == j) for j, x in enumerate(row)]
                               for i, row in enumerate(alpha)], p) for lam in roots]


def minkowski_convex_body_bound(order) -> int:
    """The reference for icm.minkowski_index_bound: an upper integer bound
    for Minkowski's (2g)!/(2g)^(2g) * (4/pi)^g * sqrt(|disc|), exact: 4/pi
    is rounded up to 4 * 10^6 / 3141592 and the square root is taken with
    isqrt, so the bound is never understated."""
    n = order.ctx.n
    c = Fraction(factorial(n), n**n) * Fraction(4 * 10**6, 3141592) ** (n // 2)
    val = c * c * abs(orders.discriminant(order))
    return isqrt(val.numerator // val.denominator) + 1


def products_matrix(x, lat):
    """orders.multiplication_matrix by products: the coordinates in lat of
    x times each basis element, or None when one of them is not in lat."""
    rows = [lat.coords(convolution_product(x, e)) for e in lat.elements]
    return None if None in rows else rows


def products_scale(lat, x):
    """x * lat, spanned by x times each basis element."""
    return orders.IdealLattice.from_elements(lat.ctx, [convolution_product(x, e)
                                                       for e in lat.elements])


def products_ideal_product(a, b):
    """a * b, spanned by the products of the basis elements."""
    return orders.IdealLattice.from_elements(a.ctx, [convolution_product(ea, eb)
                                                     for ea in a.elements for eb in b.elements])


def cofactor_matrix(a) -> list[list[int]]:
    """Cofactor matrix: entry (i, j) is (-1)^(i+j) times the (i, j) minor,
    the transpose of the adjugate.  Dimension 1 gives [[1]], so that
    A * cof(A)^T = det(A) * I holds there too."""
    return linalg.transpose(linalg._leverrier(a)[1])


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
