"""Translation between integer matrices with characteristic polynomial f and
full lattices in Q[t]/(f) stable under multiplication by the class of t,
plus GL_n(Z)-conjugacy testing through that translation.

Conventions.  Matrices act on column vectors.  A lattice with basis rows
b_0 .. b_{n-1} corresponds to the matrix M whose j-th column holds the
coefficients of alpha * b_j in that basis, so M = (B^T)^-1 * Malpha^T * B^T
where B stacks the basis rows and Malpha is the row-convention
multiplication-by-alpha matrix on the power basis.  pull_back,
ideal_to_matrix and matrices_conjugate call the gate
WeilContext.refuse_non_simple, and matrix_to_ideal is the lattice of
pull_back; behind the gate K is a field, so for a matrix with characteristic
polynomial f every nonzero vector is cyclic and both matrix routes start
from e_0.

The round trip matrix -> lattice -> matrix is certified by its
construction: pull_back builds the lattice from an explicit basis, and the
change of basis Q to the canonical one is integral and unimodular with
Q^T rep = m Q^T exactly when the lattice realizes m (Latimer-MacDuffee).
u = (Q^T)^-1 is then a witness rep = u m u^-1, so converting needs no
equivalence search.  matrices_conjugate, which must find a witness for two
given matrices, takes the equivalence witness x of their lattices from
orders.ideal_equivalent, read off the reduced bases at g = 1 and found by
the witness search for g >= 2, and turns it into the integer matrix u.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, orders
from .errors import ConsistencyError, InputError
from .orders import IdealLattice
from .weil import WeilContext, is_int


@dataclass(frozen=True)
class MatrixClass:
    """A conjugacy-class representative.  Class membership questions go
    through matrices_conjugate, never through representative equality."""

    rep: tuple[tuple[int, ...], ...]
    provenance: IdealLattice


@dataclass(frozen=True)
class ConjugacyResult:
    status: str  # "conjugate" | "not_conjugate" | "indeterminate"
    witness: tuple[tuple[int, ...], ...] | None = None
    search_bound: int | None = None


def _check_charpoly(ctx: WeilContext, m) -> None:
    if len(m) != ctx.n or any(len(row) != ctx.n for row in m):
        raise InputError("bad_shape", f"matrix must be {ctx.n} x {ctx.n}")
    if not all(is_int(x) for row in m for x in row):
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
    ctx.refuse_non_simple()
    rows = orders.multiplication_matrix(orders.alpha(ctx), lat)
    if rows is None:
        raise InputError("not_stable", "not a Z[alpha]-module: lattice moves under alpha")
    rep = linalg.freeze(linalg.transpose(rows))
    if linalg.charpoly(rep) != ctx.f_low:
        raise ConsistencyError("multiplication matrix has wrong characteristic polynomial")
    return MatrixClass(rep, lat)


def _krylov(ctx: WeilContext, m) -> tuple[IdealLattice, list, list, int]:
    """(lat, wt, E, D) for the Krylov matrix wt with rows e_0, m e_0, ..,
    m^(n-1) e_0, E wt = D I, and the lattice lat spanned by the rows of
    wt^-1 = E / D: the pull-back of Z^n through c -> (c as polynomial in m)
    e_0.  The coordinates of y in the basis wt^-1 are y wt.  Behind the gate
    every nonzero vector is cyclic, so wt is nonsingular."""
    wt = [[1] + [0] * (ctx.n - 1)]
    for _ in range(ctx.n - 1):
        wt.append([sum(x * y for x, y in zip(row, wt[-1])) for row in m])
    e, d = linalg.inverse_pair(wt)
    return IdealLattice.over(ctx, e, abs(d)), wt, e, d


def pull_back(ctx: WeilContext, m) -> tuple[IdealLattice, MatrixClass, tuple]:
    """(lat, mclass, u): the lattice lat = {c in K : c e_0 lies in Z^n} under
    the action t -> m on column vectors, the class mclass = ideal_to_matrix(lat)
    of its canonical basis, and a witness u with mclass.rep = u m u^-1.  The
    construction certifies the round trip: u is the inverse of the change of
    basis it builds, verified unimodular and conjugating before it is
    returned, or the identity when m already equals mclass.rep."""
    _check_charpoly(ctx, m)
    ctx.refuse_non_simple()
    lat, wt, _, _ = _krylov(ctx, m)
    # Q = lat.mat wt / lat.den holds the coordinates of the canonical basis
    # in the basis wt^-1; alpha acts on the former by rep^T and on the
    # latter by m^T, so Q^T rep = m Q^T and u = (Q^T)^-1 = D E for
    # (E, D) = inverse_pair(Q^T); D E is unimodular only when D = +-1
    q = _divide_exactly(linalg.mat_mul(lat.mat, wt), lat.den,
                        "construction basis does not span the lattice")
    e, d = linalg.inverse_pair(linalg.transpose(q))
    u = [[d * x for x in row] for row in e]
    mclass = ideal_to_matrix(lat)
    _verify_witness(m, mclass.rep, u)
    if linalg.freeze(m) == mclass.rep:
        u = linalg.identity(ctx.n)
    return lat, mclass, linalg.freeze(u)


def matrix_to_ideal(ctx: WeilContext, m) -> IdealLattice:
    """The lattice of pull_back: {c in K : c e_0 lies in Z^n} under the
    action t -> m on column vectors, its round trip certified by the change
    of basis that builds it."""
    return pull_back(ctx, m)[0]


def matrices_conjugate(ctx: WeilContext, a, b) -> ConjugacyResult:
    """Decides GL_n(Z)-conjugacy of a and b (both with characteristic
    polynomial f, f an irreducible Weil polynomial) by testing equivalence
    of the associated lattices.  On success the witness u satisfies
    b = u a u^-1, verified by exact multiplication before returning."""
    _check_charpoly(ctx, a)
    _check_charpoly(ctx, b)
    ctx.refuse_non_simple()
    lat_a, _, e_a, d_a = _krylov(ctx, a)
    lat_b, wt_b, _, _ = _krylov(ctx, b)
    eq = orders.ideal_equivalent(lat_a, lat_b)
    if eq.status == "not_equivalent":
        return ConjugacyResult("not_conjugate")
    if eq.status == "indeterminate":
        return ConjugacyResult("indeterminate", search_bound=eq.search_bound)
    # u^T is multiplication by x from the basis wt_a^-1 = E_a / D_a, on
    # which a acts, to the basis wt_b^-1, on which b acts
    x = eq.witness
    ut = _divide_exactly(linalg.mat_mul(linalg.mat_mul(e_a, x.mult_matrix()), wt_b), d_a * x.den,
                         "witness does not carry the lattice of a into that of b")
    u = linalg.transpose(ut)
    _verify_witness(a, b, u)
    return ConjugacyResult("conjugate", linalg.freeze(u))


def _divide_exactly(a, d: int, failure: str) -> list[list[int]]:
    """a / d as an integer matrix; ConsistencyError(failure) when d does
    not divide every entry."""
    if any(x % d for row in a for x in row):
        raise ConsistencyError(failure)
    return [[x // d for x in row] for row in a]


def _verify_witness(a, b, u) -> None:
    if not linalg.is_unimodular(u):
        raise ConsistencyError("conjugacy witness is not unimodular")
    if linalg.mat_mul(b, u) != linalg.mat_mul(u, a):
        raise ConsistencyError("conjugacy witness fails b u = u a")
