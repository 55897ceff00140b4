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
    rows = orders.multiplication_matrix(orders.alpha(ctx), lat.elements, lat)
    if rows is None:
        raise InputError("not_stable", "not a Z[alpha]-module: lattice moves under alpha")
    rep = linalg.freeze(linalg.transpose(rows))
    if linalg.charpoly([list(r) for r in rep]) != ctx.f_low:
        raise ConsistencyError("multiplication matrix has wrong characteristic polynomial")
    return MatrixClass(rep, ctx.f_low, lat)


def _cyclic_basis(ctx: WeilContext, m, v0=None) -> tuple[IdealLattice, list[FieldElement]]:
    """Lattice pulled back from Z^n through c -> (c as polynomial in m) v0,
    together with the basis that this map sends to the standard basis: the
    rows of (W^T)^-1 for the column matrix W = [v0 | m v0 | ...]."""
    n = ctx.n
    candidates = [v0] if v0 is not None else [
        [1 if i == k else 0 for i in range(n)] for k in range(n)
    ]
    for cand in candidates:
        cols = [list(cand)]
        for _ in range(n - 1):
            cols.append([sum(x * y for x, y in zip(row, cols[-1])) for row in m])
        if linalg.determinant(cols) != 0:
            e, d = linalg.inverse_pair(cols)
            basis = [FieldElement.over(ctx, row, d) for row in e]
            return IdealLattice.from_elements(ctx, basis), basis
    raise ConsistencyError("no cyclic vector found; is the polynomial irreducible?")


def _to_canonical(lat: IdealLattice, basis) -> list[list[int]]:
    """Unimodular P with basis = P * (canonical basis of lat)."""
    p = orders.multiplication_matrix(orders.one(lat.ctx), basis, lat)
    if p is None or not linalg.is_unimodular(p):
        raise ConsistencyError("construction basis does not span the lattice")
    return p


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
    lat, basis = _cyclic_basis(ctx, m, v0)
    # alpha acts on the rows of basis by m^T and on the canonical rows by
    # rep^T, so basis = P * canonical gives rep P^T = P^T m
    pt = linalg.transpose(_to_canonical(lat, basis))
    if linalg.mat_mul(ideal_to_matrix(lat).rep, pt) != linalg.mat_mul(pt, m):
        raise ConsistencyError("pulled-back lattice does not realize the matrix")
    return lat


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
    lat_a, basis_a = _cyclic_basis(ctx, a)
    lat_b, basis_b = _cyclic_basis(ctx, b)
    eq = orders.ideal_equivalent(lat_a, lat_b)
    if eq.status == "not_equivalent":
        return ConjugacyResult("not_conjugate")
    if eq.status == "indeterminate":
        return ConjugacyResult("indeterminate", search_bound=eq.search_bound)
    u = _witness_from_element(eq.witness, basis_a, lat_b, basis_b)
    _verify_witness(a, b, u)
    return ConjugacyResult("conjugate", linalg.freeze(u))


def _witness_from_element(x: FieldElement, basis_a, lat_b: IdealLattice,
                          basis_b) -> list[list[int]]:
    """u^T is multiplication by x from basis_a to basis_b: the two cyclic
    bases stand for the standard bases on which a and b act."""
    xrows = orders.multiplication_matrix(x, basis_a, lat_b)  # x * basis_a in lat_b
    if xrows is None:
        raise ConsistencyError("witness does not carry the lattice of a into that of b")
    back = linalg.inverse_unimodular(_to_canonical(lat_b, basis_b))
    return linalg.transpose(linalg.mat_mul(xrows, back))


def _verify_witness(a, b, u) -> None:
    if not linalg.is_unimodular(u):
        raise ConsistencyError("conjugacy witness is not unimodular")
    left = linalg.mat_mul([list(r) for r in b], u)
    right = linalg.mat_mul(u, [list(r) for r in a])
    if left != right:
        raise ConsistencyError("conjugacy witness fails b u = u a")
