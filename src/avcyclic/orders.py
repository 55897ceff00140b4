"""Arithmetic in K = Q[t]/(f): field elements, full-rank lattices, orders,
fractional ideals, and ideal equivalence with witnesses.

Elements and lattices are integers over one positive denominator.  An
element is (num, den), power-basis coordinates with no common factor
(Cohen, GTM 138, 4.2.2); a lattice is (den, mat), mat the row Hermite normal
form of den times a generating set and den the least common denominator.
Equal elements and equal lattices give identical pairs, so dataclass
equality is equality in K.  The lattice kernels other modules need (integer
coordinates, multiplication matrices between bases, colon ideals) live here.

ideal_equivalent checks its inputs and compares multiplicator rings; the
witness search below it takes the common ring S, which icm already holds
for its candidates, so no ring is rebuilt there.  When a is S itself,
b is an S-module and the search runs on (b : S) = b with no colon ideal.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

from . import linalg
from .errors import ConsistencyError, DegenerateLatticeError, InputError
from .weil import WeilContext, is_prime

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FieldElement:
    """num / den on the power basis, in lowest terms with den > 0."""

    ctx: WeilContext
    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def make(ctx: WeilContext, seq) -> "FieldElement":
        coeffs = [Fraction(c) for c in seq]
        if len(coeffs) > ctx.n:
            raise InputError("bad_coords", f"expected at most {ctx.n} coordinates")
        (num,), den = linalg._cleared([coeffs + [0] * (ctx.n - len(coeffs))])
        return FieldElement(ctx, tuple(num), den)

    @staticmethod
    def over(ctx: WeilContext, num, den: int) -> "FieldElement":
        """The element num / den for integers num and a nonzero den."""
        g = gcd(den, *num) * (-1 if den < 0 else 1)
        if g != 1:
            num, den = [x // g for x in num], den // g
        return FieldElement(ctx, tuple(num), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        d = lcm(self.den, other.den)
        s, t = d // self.den, d // other.den
        return FieldElement.over(self.ctx, [s * a + t * b for a, b in zip(self.num, other.num)], d)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + -other

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):  # an int or a Fraction
            return FieldElement.over(self.ctx, [other.numerator * a for a in self.num],
                                     other.denominator * self.den)
        n = self.ctx.n
        conv = [0] * (2 * n - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    conv[i + j] += a * b
        out = conv[:n]
        for k in range(n, 2 * n - 1):
            if conv[k]:
                row = self.ctx.power_rows[k]
                for j in range(n):
                    out[j] += conv[k] * row[j]
        return FieldElement.over(self.ctx, out, self.den * other.den)

    __rmul__ = __mul__

    def mult_matrix(self) -> list[list[int]]:
        """Row-convention integer matrix of multiplication by den times this
        element: the k-th row holds the numerators of alpha^k times it."""
        n = self.ctx.n
        top = self.ctx.power_rows[n]
        rows = [list(self.num)]
        for _ in range(n - 1):
            prev = rows[-1]
            carry = prev[n - 1]
            row = [carry * top[0]] + [prev[j - 1] + carry * top[j] for j in range(1, n)]
            rows.append(row)
        return rows

    def trace(self) -> Fraction:
        return Fraction(sum(c * s for c, s in zip(self.num, self.ctx.trace_sums)), self.den)

    def norm(self) -> Fraction:
        return Fraction(linalg.determinant(self.mult_matrix()), self.den ** self.ctx.n)

    def charpoly(self) -> tuple:
        """Characteristic polynomial of the multiplication map, lowest
        degree first.  Monic of degree 2g; equal to the minimal polynomial
        to the appropriate power."""
        n, high = self.ctx.n, linalg.charpoly(self.mult_matrix())  # den^(n-k) c_k at t^k
        return tuple(Fraction(c, self.den ** (n - k)) for k, c in enumerate(high))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        # row 0 of the inverse multiplication matrix is 1 / (den x)
        e, d = linalg.inverse_pair(self.mult_matrix())
        return FieldElement.over(self.ctx, [self.den * x for x in e[0]], d)

    def conj(self) -> "FieldElement":
        """Image under alpha -> q/alpha (complex conjugation on the CM field)."""
        d, rows = _conj_power_rows(self.ctx)
        n = self.ctx.n
        out = [0] * n
        for c, row in zip(self.num, rows):
            if c:
                for j in range(n):
                    out[j] += c * row[j]
        return FieldElement.over(self.ctx, out, d * self.den)


@lru_cache(maxsize=None)
def _conj_power_rows(ctx: WeilContext) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows) with rows[k] / d the coordinates of (q/alpha)^k,
    k = 0 .. n-1; only defined when q/alpha is again a root of f (precisely
    the functional equation)."""
    abar = q_over_alpha(ctx)
    if not _apply_poly(ctx, abar).is_zero():
        raise InputError("not_self_reciprocal", "q/alpha is not a root of f")
    powers = [one(ctx)]
    for _ in range(ctx.n - 1):
        powers.append(powers[-1] * abar)
    d = lcm(*(x.den for x in powers))
    return d, tuple(tuple(c * (d // x.den) for c in x.num) for x in powers)


def _apply_poly(ctx: WeilContext, x: FieldElement) -> FieldElement:
    """Evaluate f at a field element (Horner)."""
    acc = zero(ctx)
    for c in reversed(ctx.f_low):
        acc = acc * x + c * one(ctx)
    return acc


def zero(ctx: WeilContext) -> FieldElement:
    return FieldElement(ctx, (0,) * ctx.n)


def one(ctx: WeilContext) -> FieldElement:
    return FieldElement(ctx, (1,) + (0,) * (ctx.n - 1))


def alpha(ctx: WeilContext) -> FieldElement:
    return FieldElement(ctx, (0, 1) + (0,) * (ctx.n - 2))


def q_over_alpha(ctx: WeilContext) -> FieldElement:
    # f(alpha) = 0, so q / alpha = -q (f_1 + f_2 alpha + .. + alpha^(n-1)) / f_0
    f = ctx.f_low
    if f[0] == 0:
        raise DegenerateLatticeError("singular matrix")
    return FieldElement.over(ctx, [-ctx.q * c for c in f[1:]], f[0])


def sigma_element(ctx: WeilContext, ell: int) -> FieldElement:
    """f(1) / (ell * (1 - alpha)); integrality of this element across classes
    drives the local cyclicity refinement."""
    if not is_prime(ell):
        raise InputError("ell_not_prime", f"{ell} is not prime")
    if ctx.point_count % ell:
        raise InputError("ell_not_dividing", f"{ell} does not divide the point count")
    one_minus = one(ctx) - alpha(ctx)
    return Fraction(ctx.point_count, ell) * one_minus.inverse()


# ---------------------------------------------------------------------------
# Lattices


@dataclass(frozen=True)
class IdealLattice:
    """Full-rank lattice in K in canonical (den, mat) form.

    mat is n x n upper triangular in row HNF with positive diagonal and
    entries above each pivot reduced into [0, pivot); den is the least
    common denominator.  The basis rows are mat / den.
    """

    ctx: WeilContext
    den: int
    mat: tuple[tuple[int, ...], ...]

    @classmethod
    def over(cls, ctx: WeilContext, rows, den: int) -> "IdealLattice":
        """The lattice spanned by integer generating rows over a positive den."""
        if not rows or any(len(r) != ctx.n for r in rows):
            raise DegenerateLatticeError("generating set has wrong shape")
        h, rank = linalg._hnf_core(rows)
        if rank < ctx.n:
            raise DegenerateLatticeError()
        g = gcd(den, *(x for row in h[:rank] for x in row))
        return cls(ctx, den // g, tuple(tuple(x // g for x in row) for row in h[:rank]))

    @classmethod
    def from_rows(cls, ctx: WeilContext, rows) -> "IdealLattice":
        """The lattice spanned by rational generating rows."""
        return cls.over(ctx, *linalg._cleared(rows))

    @classmethod
    def from_elements(cls, ctx: WeilContext, elems) -> "IdealLattice":
        den = lcm(*(e.den for e in elems))
        return cls.over(ctx, [[x * (den // e.den) for x in e.num] for e in elems], den)

    @classmethod
    def standard(cls, ctx: WeilContext) -> "IdealLattice":
        """Z[alpha] as a lattice."""
        return cls(ctx, 1, linalg.freeze(linalg.identity(ctx.n)))

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement.over(self.ctx, row, self.den) for row in self.mat)

    def covolume(self) -> Fraction:
        return Fraction(prod(self.mat[k][k] for k in range(self.ctx.n)), self.den ** self.ctx.n)

    def coords(self, x: FieldElement) -> list[int] | None:
        """Integer coordinates of x in the basis rows, or None when x is
        not in the lattice (x is in lowest terms: den x is integral iff x.den | den)."""
        scale, rest = divmod(self.den, x.den)
        if rest:
            return None
        return integer_coords(self.mat, [scale * c for c in x.num])

    def __contains__(self, x: FieldElement) -> bool:
        return self.coords(x) is not None

    def scale(self, x: FieldElement) -> "IdealLattice":
        if x.is_zero():
            raise InputError("zero_scale", "cannot scale a lattice by zero")
        return IdealLattice.from_elements(self.ctx, [x * e for e in self.elements])


def ideal_product(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    _same_ctx(a, b)
    return IdealLattice.from_elements(a.ctx, [ea * eb for ea in a.elements for eb in b.elements])


def ideal_quotient(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    """(a : b) = {x in K : x * b is contained in a}.

    x * b_j lies in a exactly when x * T_j is integral, where T_j = M(b_j) A^-1
    takes power-basis coordinates to coordinates in a (M(b_j) multiplies by
    the j-th basis element of b, A stacks the basis rows of a).  So (a : b) is
    the dual {x : x . v in Z} of the lattice spanned by the n^2 columns v of
    [T_1 | ... | T_n]: one Hermite form of those columns, cleared of one
    common denominator, inverted and transposed (Cohen, GTM 138, 2.4).  Both
    inverses are integer (E, D) pairs from linalg.inverse_pair, O(n^3); on
    these upper triangular matrices with positive diagonal E is the
    adjugate and D the determinant.
    """
    _same_ctx(a, b)
    ctx = a.ctx
    # s T_j = M(den_b b_j) E_a with s = den_b D_a / den_a,
    # since A^-1 = den_a mat_a^-1 and E_a = D_a mat_a^-1
    e_a, d_a = linalg.inverse_pair(a.mat)
    cols = []
    for row in b.mat:
        cols += linalg.transpose(linalg.mat_mul(FieldElement(ctx, row).mult_matrix(), e_a))
    h = linalg._hnf_core(cols)[0][:ctx.n]
    # the columns span s L, so (a : b) = L^* has basis rows s (h^-1)^T
    e_h, d_h = linalg.inverse_pair(h)
    s = b.den * d_a
    return IdealLattice.over(ctx, [[s * x for x in col] for col in zip(*e_h)], a.den * d_h)


def integer_coords(mat, w) -> list[int] | None:
    """Integer u with u * mat = w for an upper triangular integer matrix
    with nonzero diagonal, or None when w is not in its row lattice."""
    n = len(mat)
    u = [0] * n
    for j in range(n):
        acc = w[j]
        for i in range(j):
            acc -= u[i] * mat[i][j]
        q, r = divmod(acc, mat[j][j])
        if r:
            return None
        u[j] = q
    return u


def multiplication_matrix(x: FieldElement, basis, lat: IdealLattice) -> list[list[int]] | None:
    """Integer matrix of multiplication by x from the given basis elements
    to the basis of lat: row i holds the coordinates in lat of x * basis[i].
    None when some product is not in lat."""
    rows = [lat.coords(x * e) for e in basis]
    return None if None in rows else rows


def lattice_index(sub: IdealLattice, sup: IdealLattice) -> Fraction:
    """Generalized index [sup : sub] as a positive rational: the ratio of
    covolumes.  An integer exactly when sub is contained in sup."""
    _same_ctx(sub, sup)
    return sub.covolume() / sup.covolume()


def _same_ctx(a, b) -> None:
    if a.ctx != b.ctx:
        raise InputError("context_mismatch", "operands live in different fields")


# ---------------------------------------------------------------------------
# Orders


@dataclass(frozen=True)
class OrderDesc:
    """An order: a full-rank subring lattice, plus the generators it was
    built from.  Ring evidence (1 in the lattice, closure under products of
    basis elements) is verified at construction time."""

    lattice: IdealLattice
    generators: tuple[FieldElement, ...]

    def __post_init__(self):
        lat = self.lattice
        if one(lat.ctx) not in lat:
            raise ConsistencyError("order lattice does not contain 1")
        elems = lat.elements
        for i, ei in enumerate(elems):
            for ej in elems[i:]:
                if (ei * ej) not in lat:
                    raise ConsistencyError("order lattice is not multiplicatively closed")

    @property
    def ctx(self) -> WeilContext:
        return self.lattice.ctx


def frobenius_pair_order(ctx: WeilContext) -> OrderDesc:
    """Z[alpha, q/alpha], the order generated by Frobenius and Verschiebung.

    beta = alpha + q/alpha is a root of the monic h of degree g with
    f = t^g h(t + q/t), and alpha^2 = beta alpha - q, so the order is
    Z[beta] + Z[beta] alpha with basis beta^i, beta^i alpha for 0 <= i < g
    (Howe, Trans. AMS 347 (1995)).  Weil input only.
    """
    if not ctx.is_weil:
        raise InputError("not_weil", f"not a Weil polynomial: {ctx.weil_reason}")
    a, abar = alpha(ctx), q_over_alpha(ctx)
    powers = [one(ctx)]
    for _ in range(ctx.g - 1):
        powers.append(powers[-1] * (a + abar))
    return OrderDesc(IdealLattice.from_elements(ctx, powers + [x * a for x in powers]), (a, abar))


@lru_cache(maxsize=None)
def multiplicator_ring(a: IdealLattice) -> OrderDesc:
    """(a : a), packaged as an order (the packaging re-verifies ring-ness).

    At g = 1 it is read off the primitive norm form (A, B, C) of a = Zu + Zv:
    tau = v / u is a root of A t^2 - B t + C, and the ring of u [1, tau] is
    Z[A tau] = Z + Z A tau (Cox, Primes of the form x^2 + ny^2, Lemma 7.5),
    for every lattice, stable under alpha or not.  With k the content of
    den^2 N(x u + y v), A tau = A v conj(u) / N(u) = den^2 v conj(u) / k,
    and den^2 v conj(u) = m11 alpha (m00 + m01 conj(alpha)) =
    m11 (q m01 + m00 alpha).  For g >= 2 it is the colon ideal.
    """
    if a.ctx.g == 1:
        (m00, m01), (_, m11) = a.mat
        k = _norm_form(a)[3]
        lat = IdealLattice.over(a.ctx, [[k, 0], [a.ctx.q * m11 * m01, m11 * m00]], k)
    else:
        lat = ideal_quotient(a, a)
    return OrderDesc(lat, lat.elements)


def _norm_form(lat: IdealLattice) -> tuple[int, int, int, int]:
    """(A, B, C, k) for a g = 1 lattice with basis u = (m00 + m01 alpha) / den,
    v = m11 alpha / den: N(x u + y v) den^2 = k (A x^2 + B xy + C y^2) with
    A, B, C coprime, so tau = v / u is a root of A t^2 - B t + C.  A > 0,
    and B^2 - 4AC is the discriminant of the multiplicator ring (every
    lattice of a quadratic field is invertible over its ring)."""
    (m00, m01), (_, m11) = lat.mat
    q, a1 = lat.ctx.f_low[:2]  # N(c0 + c1 alpha) = c0^2 - a1 c0 c1 + q c1^2
    a = m00 * m00 - a1 * m00 * m01 + q * m01 * m01
    b = m11 * (2 * q * m01 - a1 * m00)  # Tr(u conj(v)) den^2
    c = q * m11 * m11
    k = gcd(a, b, c)
    return a // k, b // k, c // k, k


def form_key(lat: IdealLattice) -> tuple[int, int, int]:
    """The reduced form of a g = 1 lattice: its class under K^* scaling.

    The primitive norm form (A, B, C) of _norm_form has the discriminant
    of the multiplicator ring O; every basis here is oriented alike
    (m00 m11 > 0), so equal reduced forms mean lambda I = J for some
    lambda in K^* (Cohen, GTM 138, 5.2.8), never I and its conjugate.
    """
    a, b, c, _ = _norm_form(lat)
    # reduce to |b| <= a <= c, b >= 0 if |b| = a or a = c (Cohen, 5.4.2)
    while True:
        if not -a < b <= a:
            k, r = divmod(b, 2 * a)
            if r > a:
                k, r = k + 1, r - 2 * a
            b, c = r, c - (b + r) // 2 * k
        if a <= c:
            return (a, -b if a == c and b < 0 else b, c)
        a, b, c = c, -b, a


def discriminant(order: OrderDesc) -> int:
    """Determinant of the trace pairing Gram matrix on a basis: that of
    Z[alpha], the Hankel determinant det(Tr(alpha^(i+j))) of the power
    sums, times the squared covolume of the order."""
    n, t = order.ctx.n, order.ctx.trace_sums
    d = linalg.determinant([t[i:i + n] for i in range(n)]) * order.lattice.covolume() ** 2
    if d.denominator != 1:
        raise ConsistencyError("order discriminant must be an integer")
    return d.numerator


# ---------------------------------------------------------------------------
# Equivalence


@dataclass(frozen=True)
class EquivalenceResult:
    status: str  # "equivalent" | "not_equivalent" | "indeterminate"
    witness: FieldElement | None = None
    search_bound: int | None = None  # the trace bound of an exhausted g >= 3 search


def ideal_equivalent(a: IdealLattice, b: IdealLattice) -> EquivalenceResult:
    """Searches for x with x * a = b.

    Ideals with different multiplicator rings are never equivalent; for a
    common ring S the search is _witness_search, which callers holding S
    (icm) call directly.  Every witness lies in (b : a), which is b itself
    when a = S, and has |N(x)| = [a : b].  The search is an exact Fincke-Pohst
    enumeration of (b : a) under trace forms Tr(w * x * conj(x)), w totally
    positive in K+, each on an LLL-reduced basis.  An irreducible Weil
    polynomial makes K a CM field, on which these forms are positive
    definite.  For g <= 2 (unit rank g - 1 <= 1) the bounds provably cover
    some witness, and a failed search is a proof of inequivalence.  For
    g >= 3 the bound is heuristic and an exhausted search reports
    indeterminate.
    """
    _same_ctx(a, b)
    ctx = a.ctx
    if not ctx.is_weil:
        raise InputError("not_weil", "equivalence search requires a Weil polynomial")
    if not ctx.is_irreducible:
        raise InputError("not_irreducible", "equivalence search requires an irreducible polynomial")
    if a == b:
        return EquivalenceResult("equivalent", one(ctx))
    ring = multiplicator_ring(a).lattice
    if ring != multiplicator_ring(b).lattice:
        return EquivalenceResult("not_equivalent")
    return _witness_search(a, b, ring)


def _witness_search(a: IdealLattice, b: IdealLattice, ring: IdealLattice) -> EquivalenceResult:
    """The search of ideal_equivalent for ideals a != b of one Weil context
    whose common multiplicator ring is ring.  When a is ring itself, b is a
    module over it and (b : a) = b, so no colon ideal is built."""
    ctx = a.ctx
    target = lattice_index(b, a)  # the |N(x)| any witness must have
    quo = b if a == ring else ideal_quotient(b, a)
    n, den = ctx.n, quo.den
    basis = quo.elements
    conj_basis = [e.conj() for e in basis]
    products = [[bi * cj for cj in conj_basis] for bi in basis]
    scale = lcm(*(p.den for row in products for p in row))
    products = [[[c * (scale // p.den) for c in p.num] for p in row] for row in products]
    forms, certified = _search_forms(ring, target)
    want_det = target * den**n
    red = linalg.identity(n)  # consecutive forms differ little: reduce from the last basis
    for traces, bound in forms:
        # scale * Tr(w b_i conj(b_j)), as Tr(w y) = sum_k y_k Tr(w alpha^k)
        gram = [[sum(c * t for c, t in zip(p, traces)) for p in row] for row in products]
        gram = linalg.mat_mul(linalg.mat_mul(red, gram), linalg.transpose(red))
        u = linalg.lll_reduce_gram(gram)
        gram = linalg.mat_mul(linalg.mat_mul(u, gram), linalg.transpose(u))
        red = linalg.mat_mul(u, red)
        rows = linalg.mat_mul(red, quo.mat)  # reduced basis of den * (b : a)
        for v in linalg.short_vectors(gram, scale * bound):
            coords = [sum(v[i] * rows[i][j] for i in range(n)) for j in range(n)]
            # |N(x)| = T, read off the integer multiplication matrix of den * x
            if abs(linalg.determinant(FieldElement(ctx, tuple(coords)).mult_matrix())) != want_det:
                continue
            if next(c for c in coords if c) < 0:
                coords = [-c for c in coords]
            x = FieldElement.over(ctx, coords, den)
            if a.scale(x) == b:
                return EquivalenceResult("equivalent", x)
    if certified:
        return EquivalenceResult("not_equivalent")
    return EquivalenceResult("indeterminate", search_bound=forms[0][1])


# g = 2: up to this |Tr_{K+/Q}(eta)| + 2, one search under the unit's whole
# range is cheaper than the weighted scan of _search_forms (measured on the
# F_2 .. F_5 quartics); above it the single search visits lattice points in
# proportion to its square, while the scan runs about 2 log2 of it searches
UNIT_SCAN_FROM = 16


def _search_forms(ring: IdealLattice, target: Fraction) -> tuple[list[tuple[tuple, Fraction | int]], bool]:
    """Forms Tr(w * x * conj(x)), each given by (Tr(w alpha^k))_k and a
    bound, such that some witness x meets one of them, and whether that is
    proven.  A witness can be moved by any unit of the multiplicator ring S.

    g = 1: w = 1 and Tr(x * conj(x)) = 2 N(x) = 2T exactly.
    g = 2: write P_i = |x_i|^2 at the two places of K+, so P_1 P_2 = T, and
    let eta be a real unit of S; multiplying x by eta moves P_1 / P_2 by
    eta_1^(+-4).  So some witness has Tr(x * conj(x)) = 2 (P_1 + P_2)
    <= 2 sqrt(T) (|eta_1| + |eta_2|) <= 2 sqrt(T) (|Tr_{K+/Q}(eta)| + 2).
    When that is large, scan instead: with gamma = (A - sqrt(d))^2 in K+,
    sqrt(d) = 2 beta + a1 taken positive at place 1, and
    rho = gamma_2 / gamma_1 in [4, 9), the weights w = gamma^j,
    j = 0 .. m with rho^m >= max(|eta_1|, |eta_2|)^4, bring
    w_1 P_1 / (w_2 P_2) into [rho^(-1/2), rho^(1/2)] for some j, where
    Tr(w * x * conj(x)) <= 2 (rho^(1/4) + rho^(-1/4)) sqrt(N(w) T)
    <= (14/3) sqrt(N(w) T).
    g >= 3: w = 1 under a fixed multiple of the AM-GM floor n T^(1/g),
    heuristic.
    """
    ctx = ring.ctx
    plain = ctx.trace_sums[:ctx.n]
    if ctx.g == 1:
        return [(plain, 2 * target)], True
    if ctx.g >= 3:
        r = 1
        while Fraction(r) ** ctx.g < target:
            r += 1
        return [(plain, 4 * ctx.n * r)], False
    a1, a2 = ctx.f_low[3], ctx.f_low[2]
    d = a1 * a1 - 4 * (a2 - 2 * ctx.q)  # disc of beta = alpha + q/alpha; not a square
    beta = alpha(ctx) + q_over_alpha(ctx)
    span = _real_unit_trace(ring, d, beta) + 2
    if span <= UNIT_SCAN_FROM:
        return [(plain, 2 * _sqrt_ceil(target) * span)], True
    # A in (2 sqrt(d), 3 sqrt(d)] puts (A + sqrt(d)) / (A - sqrt(d)) in [2, 3)
    big_a = isqrt(4 * d) + 1
    root = FieldElement.make(ctx, [big_a - a1]) - 2 * beta  # sqrt(d) = +-(2 beta + a1)
    gamma, gamma_norm = root * root, (big_a * big_a - d) ** 2
    forms, w = [], one(ctx)
    for j in range(2 * span.bit_length() + 1):  # rho^m >= 4^m > span^4
        traces = tuple(int(FieldElement.over(ctx, row, w.den).trace())
                       for row in w.mult_matrix())
        forms.append((traces, Fraction(14, 3) * _sqrt_ceil(target * gamma_norm**j)))
        w = w * gamma
    return forms, True


def _sqrt_ceil(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), exact when x is a square."""
    m = x.numerator * x.denominator
    root = isqrt(m)
    root += root * root < m
    return Fraction(root, x.denominator)


def _real_unit_trace(ring: IdealLattice, d: int, beta: FieldElement) -> int:
    """|Tr_{K+/Q}(eta)| for eta the least power of the fundamental unit eps
    of Z[beta], beta = alpha + q/alpha of discriminant d, that lies in the
    order ring (g = 2 only)."""
    ctx = ring.ctx
    a1 = ctx.f_low[3]
    # eps = (G + B sqrt(d)) / 2 with G = 2h - (d mod 2) k, B = k for the first
    # convergent h/k of ((d mod 2) + sqrt(d)) / 2 with G^2 - d B^2 = +-4
    # (Cohen, GTM 138, section 5.7); complete quotients are (num + sqrt(d)) / den
    sigma, root = d % 2, isqrt(d)
    num, den = sigma, 2
    h_prev, h, k_prev, k = 0, 1, 1, 0
    while True:
        c = (num + root) // den
        h_prev, h, k_prev, k = h, c * h + h_prev, k, c * k + k_prev
        big_g = 2 * h - sigma * k
        if big_g * big_g - d * k * k in (4, -4):
            break
        num = c * den - num
        den = (d - num * num) // den
    eps = FieldElement.make(ctx, [Fraction(big_g + k * a1, 2)]) + k * beta  # sqrt(d) = 2 beta + a1
    eta = eps
    while eta not in ring:
        eta = eta * eps
    return abs(int(eta.trace())) // 2

