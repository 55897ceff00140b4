"""Translation between integer matrices with characteristic polynomial f and
full lattices in Q[t]/(f) stable under multiplication by the class of t,
plus GL_n(Z)-conjugacy testing through that translation.

Conventions.  Matrices act on column vectors.  A lattice with basis rows
b_0 .. b_{n-1} corresponds to the matrix M whose j-th column holds the
coefficients of alpha * b_j in that basis, so M = (B^T)^-1 * Malpha^T * B^T
where B stacks the basis rows and Malpha is the row-convention
multiplication-by-alpha matrix on the power basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, orders
from .errors import ConsistencyError, InputError
from .orders import FieldElement, IdealLattice
from .weil import WeilContext


@dataclass(frozen=True)
class MatrixClass:
    """A conjugacy-class representative.  Class membership questions go
    through matrices_conjugate, never through representative equality."""

    rep: tuple[tuple[int, ...], ...]
    charpoly: tuple[int, ...]  # lowest degree first
    provenance: IdealLattice | None = None


@dataclass(frozen=True)
class ConjugacyResult:
    status: str  # "conjugate" | "not_conjugate" | "indeterminate"
    witness: tuple[tuple[int, ...], ...] | None = None
    search_bound: int | None = None


def _alpha_row_matrix(ctx: WeilContext) -> list[list[int]]:
    # row i is the coordinate vector of alpha^(i+1)
    return [list(ctx.power_rows[i + 1]) for i in range(ctx.n)]


def _check_charpoly(ctx: WeilContext, m) -> None:
    if len(m) != ctx.n or any(len(row) != ctx.n for row in m):
        raise InputError("bad_shape", f"matrix must be {ctx.n} x {ctx.n}")
    if any(not isinstance(x, int) for row in m for x in row):
        raise InputError("not_integer", "matrix entries must be integers")
    if linalg.charpoly(m) != ctx.f_low:
        raise InputError(
            "charpoly_mismatch",
            "matrix characteristic polynomial does not match the input polynomial",
        )


def ideal_to_matrix(lat: IdealLattice) -> MatrixClass:
    """Integer matrix of multiplication by alpha on the lattice, in the
    canonical basis.  The lattice must be stable under alpha."""
    ctx = lat.ctx
    b = lat.rows_fraction
    bt = linalg.transpose(b)
    bt_inv = linalg.mat_inverse_fraction(bt)
    malpha_t = linalg.transpose(_alpha_row_matrix(ctx))
    m = linalg.mat_mul(linalg.mat_mul(bt_inv, malpha_t), bt)
    out = []
    for row in m:
        ints = []
        for x in row:
            x = Fraction(x)
            if x.denominator != 1:
                raise InputError("not_stable", "not a Z[alpha]-module: lattice moves under alpha")
            ints.append(int(x))
        out.append(tuple(ints))
    rep = tuple(out)
    if linalg.charpoly([list(r) for r in rep]) != ctx.f_low:
        raise ConsistencyError("multiplication matrix has wrong characteristic polynomial")
    return MatrixClass(rep, ctx.f_low, lat)


def _cyclic_basis(ctx: WeilContext, m, v0=None) -> tuple[IdealLattice, list[list[Fraction]]]:
    """Lattice pulled back from Z^n through c -> (c as polynomial in m) v0,
    together with the column matrix W = [v0 | m v0 | ...] realizing the map."""
    n = ctx.n
    mf = [[Fraction(x) for x in row] for row in m]
    candidates = [v0] if v0 is not None else [
        [1 if i == k else 0 for i in range(n)] for k in range(n)
    ]
    w = None
    for cand in candidates:
        cur = [[Fraction(x)] for x in cand]
        cols = []
        for _ in range(n):
            cols.append([row[0] for row in cur])
            cur = linalg.mat_mul(mf, cur)
        stacked = linalg.transpose(cols)
        if linalg.determinant_fraction(stacked) != 0:
            w = stacked
            break
    if w is None:
        raise ConsistencyError("no cyclic vector found; is the polynomial irreducible?")
    rows = linalg.mat_inverse_fraction(linalg.transpose(w))
    return IdealLattice.from_rows(ctx, rows), w


def matrix_to_ideal(ctx: WeilContext, m, v0=None) -> IdealLattice:
    """The lattice {c in K : c v0 lies in Z^n} under the action t -> m on
    column vectors.  Round trip is certified on the spot: the canonical
    basis matrix of the result is verified integrally conjugate to m."""
    _check_charpoly(ctx, m)
    if v0 is not None:
        v0 = [int(x) for x in v0]
        if len(v0) != ctx.n:
            raise InputError("bad_shape", f"v0 must have {ctx.n} entries")
        if all(x == 0 for x in v0):
            raise InputError("zero_vector", "v0 must be nonzero")
    lat, w = _cyclic_basis(ctx, m, v0)
    p = _basis_change(lat, w)
    pt = linalg.transpose(p)
    lhs = linalg.mat_mul(pt, [list(r) for r in ideal_to_matrix(lat).rep])
    rhs = linalg.mat_mul([list(r) for r in m], pt)
    if lhs != rhs:
        raise ConsistencyError("pulled-back lattice does not realize the matrix")
    return lat


def _integer_cast(mat, what: str) -> list[list[int]]:
    out = []
    for row in mat:
        ints = []
        for x in row:
            x = Fraction(x)
            if x.denominator != 1:
                raise ConsistencyError(f"{what} is not an integer matrix")
            ints.append(int(x))
        out.append(ints)
    return out


def _basis_change(lat: IdealLattice, w) -> list[list[int]]:
    """P with (canonical rows) = P * (construction rows); P = C * W^T."""
    c = lat.rows_fraction
    p = linalg.mat_mul(c, linalg.transpose(w))
    p_int = _integer_cast(p, "basis change")
    if not linalg.is_unimodular(p_int):
        raise ConsistencyError("basis change between lattice bases is not unimodular")
    return p_int


def matrices_conjugate(ctx: WeilContext, a, b) -> ConjugacyResult:
    """Decides GL_n(Z)-conjugacy of a and b (both with characteristic
    polynomial f, f irreducible) by testing equivalence of the associated
    lattices.  On success the witness u satisfies b = u a u^-1, verified by
    exact multiplication before returning."""
    _check_charpoly(ctx, a)
    _check_charpoly(ctx, b)
    if not ctx.is_irreducible:
        raise InputError("not_irreducible", "conjugacy test requires an irreducible polynomial")
    if not ctx.is_weil:
        raise InputError("not_weil", "conjugacy test requires a Weil polynomial")
    if [list(r) for r in a] == [list(r) for r in b]:
        ident = linalg.freeze(linalg.identity(ctx.n))
        return ConjugacyResult("conjugate", ident)
    lat_a, wa = _cyclic_basis(ctx, a)
    lat_b, wb = _cyclic_basis(ctx, b)
    eq = orders.ideal_equivalent(lat_a, lat_b)
    if eq.status == "not_equivalent":
        return ConjugacyResult("not_conjugate")
    if eq.status == "indeterminate":
        return ConjugacyResult("indeterminate", search_bound=eq.search_bound)
    u = _witness_from_element(ctx, eq.witness, lat_a, wa, lat_b, wb)
    _verify_witness(a, b, u)
    return ConjugacyResult("conjugate", linalg.freeze(u))


def _witness_from_element(ctx: WeilContext, x: FieldElement,
                          lat_a: IdealLattice, wa,
                          lat_b: IdealLattice, wb) -> list[list[int]]:
    pa = _basis_change(lat_a, wa)
    pb = _basis_change(lat_b, wb)
    ca = lat_a.rows_fraction
    cb = lat_b.rows_fraction
    mx = x.mult_matrix()
    xrows = linalg.mat_mul(ca, mx)  # coords of x * (canonical basis of a)
    q = _integer_cast(linalg.mat_mul(xrows, linalg.mat_inverse_fraction(cb)),
                      "rebasing of the scaled lattice")
    pa_inv = linalg.inverse_unimodular(pa)
    u = linalg.transpose(linalg.mat_mul(linalg.mat_mul(pa_inv, q), pb))
    return [list(r) for r in u]


def _verify_witness(a, b, u) -> None:
    if not linalg.is_unimodular(u):
        raise ConsistencyError("conjugacy witness is not unimodular")
    left = linalg.mat_mul([list(r) for r in b], u)
    right = linalg.mat_mul(u, [list(r) for r in a])
    if left != right:
        raise ConsistencyError("conjugacy witness fails b u = u a")
