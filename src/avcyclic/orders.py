"""Arithmetic in K = Q[t]/(f): field elements, full-rank lattices, orders,
fractional ideals, and ideal equivalence with witnesses.

Elements and lattices are integers over one positive denominator.  An
element is (num, den), power-basis coordinates with no common factor
(Cohen, GTM 138, 4.2.2); a lattice is (den, mat), mat the row Hermite normal
form of den times a generating set and den the least common denominator.
Equal elements and equal lattices give identical pairs, so dataclass
equality is equality in K.  The lattice kernels other modules need (integer
coordinates, multiplication matrices on a lattice, colon ideals) live here.

K has one multiplication: FieldElement.mult_matrix, the integer matrix M(x)
of the regular representation (Cohen, GTM 138, 4.2.2), is the one place
that reduces by alpha^n = -(f_0 + f_1 alpha + .. + f_(n-1) alpha^(n-1)).
Products of elements, scalings and products of lattices, multiplication
matrices on a lattice and the conjugates icm reads off the powers of
q/alpha are integer rows times M(x); the witness search needs no conjugate,
as its trace forms are q^min(k, l) Tr(w alpha^|k - l|) on the power basis.

Each job has one rule.  The multiplicator ring (a : a) is the colon ideal
at every g.  At g = 1 the reduced binary quadratic form of a lattice
(form_key) names its class, and ideal_equivalent decides by it, as icm
does; the one reduction (_reduced_form) also carries the basis along, and
the witness is the ratio of the first reduced basis vectors, with no colon
ideal and no search.  For g >= 2 ideal_equivalent runs the witness search
on (b : a) with no multiplicator ring: a witness x * a = b forces
(a : a) = (b : b), and the unit the search scans by is the least power of
a fixed unit that maps b into itself.  Rings are compared only when a
g >= 3 search ends indeterminate.  icm, which holds the common ring S of
its candidates, calls the search with S and with the target-free part of
its forms (_search_weights), built once per ring; when a is S itself, b is
an S-module and the search runs on (b : S) = b with no colon ideal.  The
search keeps its certified g = 1 bound, though only the tests reach it
there.
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
        (num,) = linalg.mat_mul([other.num], self.mult_matrix())
        return FieldElement.over(self.ctx, num, self.den * other.den)

    __rmul__ = __mul__

    def mult_matrix(self) -> list[list[int]]:
        """Row-convention integer matrix of multiplication by den times this
        element: the k-th row holds the numerators of alpha^k times it, so
        v M holds those of v times it for power-basis coordinates v."""
        n = self.ctx.n
        top = [-c for c in self.ctx.f_low[:n]]
        rows = [list(self.num)]
        for _ in range(n - 1):
            prev = rows[-1]
            carry = prev[n - 1]
            row = [carry * top[0]] + [prev[j - 1] + carry * top[j] for j in range(1, n)]
            rows.append(row)
        return rows

    def trace(self) -> Fraction:
        return Fraction(sum(c * s for c, s in zip(self.num, self.ctx.trace_sums)), self.den)

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


@lru_cache(maxsize=None)
def _conj_power_rows(ctx: WeilContext) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, rows) with rows[k] / d the coordinates of (q/alpha)^k,
    k = 0 .. n-1, so that the numerators x give those of conj(x) as x rows,
    over d.  The one caller, icm's conjugate descent, is reached only behind
    the gate WeilContext.refuse_non_simple: f is a Weil polynomial there,
    q/alpha is a root of f by the functional equation, and nothing is
    checked here."""
    abar = q_over_alpha(ctx)
    powers = [one(ctx)]
    for _ in range(ctx.n - 1):
        powers.append(powers[-1] * abar)
    d = lcm(*(x.den for x in powers))
    return d, tuple(tuple(c * (d // x.den) for c in x.num) for x in powers)


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
    drives the local cyclicity refinement.  f(1) - f(t) = (1 - t) s(t) with
    s_j = f_(j+1) + .. + f_n and f(alpha) = 0 give f(1) / (1 - alpha) = s(alpha),
    so the element is s(alpha) / ell, with no inversion in K (Cohen, GTM 138,
    4.2)."""
    if not is_prime(ell):
        raise InputError("ell_not_prime", f"{ell} is not prime")
    if ctx.point_count % ell:
        raise InputError("ell_not_dividing", f"{ell} does not divide the point count")
    f = ctx.f_low
    return FieldElement.over(ctx, [sum(f[j + 1:]) for j in range(ctx.n)], ell)


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
        return IdealLattice.over(self.ctx, linalg.mat_mul(self.mat, x.mult_matrix()),
                                 self.den * x.den)


def ideal_product(a: IdealLattice, b: IdealLattice) -> IdealLattice:
    _same_ctx(a, b)
    rows = [r for row in b.mat
            for r in linalg.mat_mul(a.mat, FieldElement(a.ctx, row).mult_matrix())]
    return IdealLattice.over(a.ctx, rows, a.den * b.den)


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


def multiplication_matrix(x: FieldElement, lat: IdealLattice) -> list[list[int]] | None:
    """Integer matrix of multiplication by x on lat: row i holds the
    coordinates in lat of x times its i-th basis element, the solution u of
    u * mat = mat_i * M(x) / x.den.  None when x does not map lat into itself."""
    scaled = [[x.den * c for c in row] for row in lat.mat]
    rows = [integer_coords(scaled, w) for w in linalg.mat_mul(lat.mat, x.mult_matrix())]
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
    built from.  Ring evidence (1 in the lattice, closure under
    multiplication by each basis element) is verified at construction time."""

    lattice: IdealLattice
    generators: tuple[FieldElement, ...]

    def __post_init__(self):
        lat = self.lattice
        if one(lat.ctx) not in lat:
            raise ConsistencyError("order lattice does not contain 1")
        if any(multiplication_matrix(e, lat) is None for e in lat.elements):
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
    """(a : a), the colon ideal, as an order (OrderDesc re-verifies ring-ness)."""
    lat = ideal_quotient(a, a)
    return OrderDesc(lat, lat.elements)


def form_key(lat: IdealLattice) -> tuple[int, int, int]:
    """The reduced form of a g = 1 lattice: its class under K^* scaling.

    With basis u = (m00 + m01 alpha) / den and v = m11 alpha / den,
    den^2 N(x u + y v) = k (A x^2 + B xy + C y^2) for the content k, so
    tau = v / u is a root of A t^2 - B t + C with A > 0.  Every lattice of
    a quadratic field is invertible over its multiplicator ring O, so
    B^2 - 4AC, kept by reduction, is disc(O).  Every basis here is oriented
    alike (m00 m11 > 0) and reduction keeps the orientation, so equal
    reduced forms mean equal tau on the reduced bases, and
    J = (u_J / u_I) I (Cohen, GTM 138, 5.2.8), never I and its conjugate:
    ideal_equivalent reads that witness off _reduced_form.
    """
    return _reduced_form(lat)[0]


def _reduced_form(lat: IdealLattice) -> tuple[tuple[int, int, int], tuple[int, int]]:
    """(form_key(lat), u) with u the numerators over lat.den of the first
    vector of the reduced basis (u, v) that reduction carries along: a
    translation b -> b - 2ak sends v to v - k u, the swap (a, b, c) ->
    (c, -b, a) sends (u, v) to (v, -u), and the final flip of b < 0 when
    a = c takes u to v."""
    (m00, m01), (_, m11) = lat.mat
    q, a1 = lat.ctx.f_low[:2]  # N(c0 + c1 alpha) = c0^2 - a1 c0 c1 + q c1^2
    a = m00 * m00 - a1 * m00 * m01 + q * m01 * m01
    b = m11 * (2 * q * m01 - a1 * m00)  # Tr(u conj(v)) den^2
    c = q * m11 * m11
    k = gcd(a, b, c)
    a, b, c = a // k, b // k, c // k
    (u0, u1), (v0, v1) = (m00, m01), (0, m11)
    # reduce to |b| <= a <= c, b >= 0 if |b| = a or a = c (Cohen, 5.4.2)
    while True:
        if not -a < b <= a:
            k, r = divmod(b, 2 * a)
            if r > a:
                k, r = k + 1, r - 2 * a
            b, c = r, c - (b + r) // 2 * k
            v0, v1 = v0 - k * u0, v1 - k * u1
        if a <= c:
            if a == c and b < 0:
                b, u0, u1 = -b, v0, v1
            return (a, b, c), (u0, u1)
        a, b, c = c, -b, a
        (u0, u1), (v0, v1) = (v0, v1), (-u0, -u1)


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
    """Decides whether x * a = b for some x in K, with the witness x.

    At g = 1 the reduced forms decide (form_key), the rule icm uses, and
    the witness is read off the two reduced bases: x = u_b / u_a
    (_reduced_form), certified by a.scale(x) == b, with no colon ideal and
    no search.  Equal keys whose witness fails that certificate raise
    ConsistencyError.

    For g >= 2 it searches.  Every witness lies in (b : a) and has
    |N(x)| = [a : b].  A witness also forces (a : a) = (b : b), so the
    search needs no multiplicator ring: it runs on (b : a) at once, under
    forms whose unit is the least power of a fixed unit that maps b into
    itself (_search_forms).  It is an exact Fincke-Pohst enumeration of
    (b : a) under trace forms Tr(w * x * conj(x)), w totally positive in
    K+, each on an LLL-reduced basis.  An irreducible Weil polynomial makes
    K a CM field, on which these forms are positive definite.  At g = 2
    (unit rank 1) the bounds provably cover some witness, so a failed
    search is a proof of inequivalence, for ideals with different rings
    too.  For g >= 3 the bound is heuristic: an exhausted search reports
    indeterminate, unless the multiplicator rings, compared only then,
    differ.
    """
    _same_ctx(a, b)
    ctx = a.ctx
    ctx.refuse_non_simple()
    if a == b:
        return EquivalenceResult("equivalent", one(ctx))
    if ctx.g == 1:
        (key_a, u_a), (key_b, u_b) = _reduced_form(a), _reduced_form(b)
        if key_a != key_b:
            return EquivalenceResult("not_equivalent")
        x = FieldElement.over(ctx, u_b, b.den) * FieldElement.over(ctx, u_a, a.den).inverse()
        if a.scale(x) != b:
            raise ConsistencyError("equal reduced forms, but u_b / u_a does not carry a to b")
        return EquivalenceResult("equivalent", x)
    eq = _witness_search(a, b)
    if eq.status == "indeterminate" and (multiplicator_ring(a).lattice
                                         != multiplicator_ring(b).lattice):
        return EquivalenceResult("not_equivalent")
    return eq


def _witness_search(a: IdealLattice, b: IdealLattice, ring: IdealLattice | None = None,
                    weights=None) -> EquivalenceResult:
    """The search of ideal_equivalent for g >= 2, for ideals a != b of one
    Weil context, under forms whose unit is read off b; sound at g = 1 too.
    ring, when given, is the common multiplicator ring S of a and b, which
    icm holds for its candidates: when a is S itself, b is a module over it
    and (b : a) = b, so no colon ideal is built.  weights, when given, are
    _search_weights of a lattice with ring S, which icm builds once per
    ring."""
    ctx = a.ctx
    target = lattice_index(b, a)  # the |N(x)| any witness must have
    quo = b if a == ring else ideal_quotient(b, a)
    n, den = ctx.n, quo.den
    # with b_i = rows_i / den, den^2 Tr(w b_i conj(b_j)) = rows_i T_w rows_j^T
    # (_weight_matrix); LLL and Fincke-Pohst are exact and homogeneous, so
    # the Gram matrices and the bound scaled by den^2 decide as unscaled
    forms, certified = _search_forms(ctx, weights or _search_weights(b), target)
    want_det = target * den**n
    rows = quo.mat  # consecutive forms differ little: reduce from the last basis
    for t_w, bound in forms:
        gram = linalg.mat_mul(linalg.mat_mul(rows, t_w), linalg.transpose(rows))
        u = linalg.lll_reduce_gram(gram)
        gram = linalg.mat_mul(linalg.mat_mul(u, gram), linalg.transpose(u))
        rows = linalg.mat_mul(u, rows)  # reduced basis of den * (b : a)
        for v in linalg.short_vectors(gram, den * den * bound):
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


def _weight_matrix(w: FieldElement) -> list[list[int]]:
    """T_w with x T_w y^T = Tr(w * x * conj(y)) on power-basis coordinates,
    for an integral w of K+: alpha^k conj(alpha^l) is q^min(k, l) times
    alpha^(k - l) or its conjugate, and Tr(w conj(z)) = Tr(w z) for real w,
    so T_w[k][l] = q^min(k, l) Tr(w alpha^|k - l|) (the trace form, Cohen,
    GTM 138, 5.1), and Tr(w alpha^m) = sum_i w_i p_(i+m) for the power sums
    p_k = Tr(alpha^k), k <= 2n - 2."""
    ctx, p = w.ctx, w.ctx.trace_sums
    traces = [sum(x * p[i + m] for i, x in enumerate(w.num)) // w.den for m in range(ctx.n)]
    return [[ctx.q ** min(k, l) * traces[abs(k - l)] for l in range(ctx.n)]
            for k in range(ctx.n)]


def _search_weights(lat: IdealLattice) -> tuple[int | None, tuple]:
    """The part of _search_forms that no target enters, for every lattice
    with the multiplicator ring of lat: (span, weights), weights the triples
    (w, T_w, N(w)) of the weights w and span = |Tr_{K+/Q}(eta)| + 2 when one
    search under w = 1 covers the unit's range (g = 2), else None."""
    ctx = lat.ctx
    plain = one(ctx)
    weights = ((plain, _weight_matrix(plain), 1),)
    if ctx.g != 2:
        return None, weights
    a1, a2 = ctx.f_low[3], ctx.f_low[2]
    d = a1 * a1 - 4 * (a2 - 2 * ctx.q)  # disc of beta = alpha + q/alpha; not a square
    beta = alpha(ctx) + q_over_alpha(ctx)
    span = _real_unit_trace(lat, d, beta) + 2
    if span <= UNIT_SCAN_FROM:
        return span, weights
    # A in (2 sqrt(d), 3 sqrt(d)] puts (A + sqrt(d)) / (A - sqrt(d)) in [2, 3)
    big_a = isqrt(4 * d) + 1
    root = plain * (big_a - a1) - 2 * beta  # sqrt(d) = +-(2 beta + a1)
    gamma, gamma_norm = root * root, (big_a * big_a - d) ** 2
    weights, w = [], plain
    for j in range(2 * span.bit_length() + 1):  # rho^m >= 4^m > span^4
        weights.append((w, _weight_matrix(w), gamma_norm**j))
        w = w * gamma
    return None, tuple(weights)


def _search_forms(ctx: WeilContext, weights, target: Fraction) -> tuple[list, bool]:
    """Forms Tr(w * x * conj(x)), each given by T_w (_weight_matrix) and a
    bound, such that some witness x meets one of them, and whether that is
    proven; weights are _search_weights of a lattice with the ring S of the
    target lattice.  A witness can be moved by any unit of S
    (_real_unit_trace).

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
    span, weights = weights
    if ctx.g == 1:
        return [(weights[0][1], 2 * target)], True
    if ctx.g >= 3:
        r = 1
        while Fraction(r) ** ctx.g < target:
            r += 1
        return [(weights[0][1], 4 * ctx.n * r)], False
    if span is not None:
        return [(weights[0][1], 2 * _sqrt_ceil(target) * span)], True
    return [(t_w, Fraction(14, 3) * _sqrt_ceil(target * norm)) for _, t_w, norm in weights], True


def _sqrt_ceil(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), exact when x is a square."""
    m = x.numerator * x.denominator
    root = isqrt(m)
    root += root * root < m
    return Fraction(root, x.denominator)


def _real_unit_trace(lat: IdealLattice, d: int, beta: FieldElement) -> int:
    """|Tr_{K+/Q}(eta)| for eta the least power of the fundamental unit eps
    of Z[beta], beta = alpha + q/alpha of discriminant d, that maps lat into
    itself (g = 2 only): the least power in the multiplicator ring (lat : lat),
    so any lattice with ring S gives the eta of S, and on S itself the test
    is membership."""
    ctx = lat.ctx
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
    eps = one(ctx) * Fraction(big_g + k * a1, 2) + k * beta  # sqrt(d) = 2 beta + a1
    eta = eps
    while multiplication_matrix(eta, lat) is None:
        eta = eta * eps
    return abs(int(eta.trace())) // 2

