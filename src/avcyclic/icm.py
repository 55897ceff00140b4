"""Enumeration of the ideal class monoid of an order at desk scale.

Every class of fractional ideals contains an integral ideal of index at
most a Minkowski-type bound, so enumerating stable sublattices of the order
up to that index and deduplicating under equivalence yields the full
monoid.  For g <= 2 every equivalence test is decided; g = 1 enumerates to
the Minkowski bound, while g = 2 and g >= 3 get a capped default bound (and
an honest "heuristic" completeness flag above it) to stay inside laptop
budgets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, isqrt

from . import linalg, orders
from .errors import ConsistencyError, InputError
from .orders import IdealLattice, OrderDesc

logger = logging.getLogger(__name__)

# Default index bound caps.  The shape walk tests about 0.5 * bound^(2g)
# Hermite shapes for stability: a quartic at bound 24 takes about 2 s, and
# Minkowski bounds reach 287 for q = 16; a sextic at its full bound would
# walk about 1e8 shapes.
QUARTIC_INDEX_CAP = 24
HIGH_GENUS_INDEX_CAP = 12


@dataclass(frozen=True)
class IcmResult:
    order: OrderDesc
    classes: tuple[IdealLattice, ...]
    multiplicator_rings: tuple[IdealLattice, ...]
    index_bound: int
    completeness: str  # "certified" | "heuristic"
    indeterminate_pairs: tuple[tuple[int, int, int], ...] = ()


def minkowski_index_bound(order: OrderDesc) -> int:
    """Upper integer bound for (2g)!/(2g)^(2g) * (4/pi)^g * sqrt(|disc|),
    exact: 4/pi is rounded up to 4 * 10^6 / 3141592 and the square root is
    taken with isqrt, so certifying against it never understates the bound."""
    n = order.ctx.n
    c = Fraction(factorial(n), n**n) * Fraction(4 * 10**6, 3141592) ** (n // 2)
    val = c * c * abs(orders.discriminant(order))
    return isqrt(val.numerator // val.denominator) + 1


def _divisor_tuples(d: int, k: int):
    """Ordered factorizations of d into k positive factors."""
    if k == 1:
        yield (d,)
        return
    for first in range(1, d + 1):
        if d % first == 0:
            for rest in _divisor_tuples(d // first, k - 1):
                yield (first,) + rest


def _sublattice_shapes(n: int, d: int):
    """Upper triangular integer matrices in row Hermite form with
    determinant d: positive diagonal, entry (i, j) above pivot j reduced
    into [0, diag_j)."""
    for diag in _divisor_tuples(d, n):
        cells = [(i, j) for j in range(n) for i in range(j)]
        ranges = [range(diag[j]) for (_, j) in cells]
        for vals in product(*ranges):
            t = [[0] * n for _ in range(n)]
            for k in range(n):
                t[k][k] = diag[k]
            for (i, j), v in zip(cells, vals):
                t[i][j] = v
            yield t


def _stable(t: list[list[int]], gens: list[list[list[int]]]) -> bool:
    n = len(t)
    for g in gens:
        for row in t:
            w = [sum(row[i] * g[i][j] for i in range(n)) for j in range(n)]
            if orders.integer_coords(t, w) is None:
                return False
    return True


def enumerate_icm(order: OrderDesc, index_bound: int | None = None) -> IcmResult:
    """All ideal classes of the order, as canonical integral representatives
    of index at most index_bound, pairwise inequivalent.

    completeness is "certified" when the bound covers the Minkowski-type
    bound and every equivalence test was definitive; any indeterminate
    equivalence keeps both candidates (never undercounts) and downgrades
    the flag to "heuristic".
    """
    ctx = order.ctx
    if not ctx.is_irreducible:
        raise InputError("not_irreducible", "class enumeration requires an irreducible polynomial")
    mink = minkowski_index_bound(order)
    if index_bound is None:
        cap = QUARTIC_INDEX_CAP if ctx.g == 2 else HIGH_GENUS_INDEX_CAP
        index_bound = mink if ctx.g == 1 else min(mink, cap)
    if index_bound < 1:
        raise InputError("bad_bound", "index bound must be a positive integer")
    # multiplication by each ring generator on coordinates in the order's basis
    gens = [orders.multiplication_matrix(g, order.lattice.elements, order.lattice)
            for g in order.generators]
    if None in gens:
        raise InputError("not_integral", "generator does not stabilize the order")
    base_rows = order.lattice.rows_fraction
    reps: list[IdealLattice] = []
    rings: list[IdealLattice] = []
    indeterminate: list[tuple[int, int, int]] = []
    definitive = True
    for d in range(1, index_bound + 1):
        for t in _sublattice_shapes(ctx.n, d):
            if not _stable(t, gens):
                continue
            # distinct shapes t give distinct sublattices t * L of one lattice L
            cand = IdealLattice.from_rows(ctx, linalg.mat_mul(t, base_rows))
            ring = orders.multiplicator_ring(cand).lattice
            duplicate = False
            unresolved = []
            for i, rep in enumerate(reps):
                if rings[i] != ring:
                    continue
                eq = orders.ideal_equivalent(rep, cand)
                if eq.status == "equivalent":
                    duplicate = True
                    break
                if eq.status == "indeterminate":
                    unresolved.append((i, len(reps), eq.search_bound))
            if not duplicate:
                # an unresolved comparison against a kept candidate may
                # overcount classes; surfaced, never silently resolved
                if unresolved:
                    indeterminate.extend(unresolved)
                    definitive = False
                reps.append(cand)
                rings.append(ring)
    certified = index_bound >= mink and definitive
    if indeterminate:
        logger.warning("equivalence search exhausted on %d pairs; class count may overshoot",
                       len(indeterminate))
    return IcmResult(
        order=order,
        classes=tuple(reps),
        multiplicator_rings=tuple(rings),
        index_bound=index_bound,
        completeness="certified" if certified else "heuristic",
        indeterminate_pairs=tuple(indeterminate),
    )


def refine_by_sigma(result: IcmResult, ell: int) -> list[IdealLattice]:
    """Classes stable under multiplication by f(1)/(ell (1 - alpha)).

    Both available tests (direct stability of the representative, and
    membership of the element in the multiplicator ring) are computed and
    must agree.
    """
    ctx = result.order.ctx
    sigma = orders.sigma_element(ctx, ell)
    kept = []
    for lat, ring in zip(result.classes, result.multiplicator_rings):
        stable = orders.multiplication_matrix(sigma, lat.elements, lat) is not None
        in_ring = sigma in ring
        if stable != in_ring:
            raise ConsistencyError("sigma stability disagrees with ring membership")
        if stable:
            kept.append(lat)
    return kept
