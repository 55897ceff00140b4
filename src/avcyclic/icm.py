"""Enumeration of the ideal class monoid of an order at desk scale.

Every class of fractional ideals contains an integral ideal of index at
most floor(sqrt(|disc R| / k_n)), Hermite's bound (minkowski_index_bound),
so listing the integral ideals up to that index and deduplicating them
under equivalence yields the full monoid.
At g = 1 each ideal is invertible over its multiplicator ring, and its
reduced binary quadratic form names its class, so deduplication is one set
lookup per candidate.  For g >= 2 each candidate N keeps its class and a
witness x with x * rep = N, and most candidates are placed by descent from
ones already placed (Marseglia, arXiv:1805.09671): x^-1 N for a placed
over-ideal M = x C of N, or the conjugate of N, which is listed too since
Z[F, V] is closed under conjugation.  Only a candidate with neither is
tested against every kept representative with its multiplicator ring.
That ring is R = Z[F, V], with no colon ideal, where the discriminant
proves it, else (I : I).  At g = 1 it is R exactly when the reduced form
has discriminant disc(R).  For g >= 2 an ideal I of index d of R has
R <= (I : I) <= d^-1 R, so it is R when no prime p | d has p^2 | disc(R).
The tests run the witness search of orders.ideal_equivalent with that ring
and its search weights, built once per ring, and a test against R itself
builds no colon ideal either, since (b : R) = b.

The integral ideals are built prime by prime (Cohen, GTM 138, 6.2).  At
g = 1 the order Z[F, V] is Z[alpha], since q/alpha = -a1 - alpha, and its
ideals of p-power index are listed in closed form: p^j (p^e Z + (alpha - r) Z)
for the roots r of f mod p^e, each lifted from a root mod p^(e-1) (Cohen,
GTM 138, 5.2).  For g >= 2 and each prime p the ideals of p-power index
grow breadth first from the order R.  Below an ideal M of index m, the
ideals N with pM <= N < M are the preimages of the subspaces W of M/pM
that the ring maps into themselves; dually U = W^perp is stable too, of
dimension at most
c = floor(log_p(bound / m)).  Each U found is the cyclic subspace spanned
from a point of ker(alpha - lam) mod p for a root lam of f mod p, or, for
c >= 2, of V', the image of prod (alpha - lam)^n mod p, where alpha has no
eigenvalue in F_p.  These simple steps reach every ideal: along a
composition series each step's U is simple, and alpha acts on it as a
scalar of F_p, inside an eigenspace, or as an element outside F_p, inside
V' by Fitting's lemma.  Ideals I and J of coprime indices d and e then
intersect in e I + d J.
The candidates are visited by index and Hermite shape, so the first
representative of each class is the least shape of index at most the
bound.

For g <= 2 every equivalence test is decided; g = 1 enumerates to that
bound, and refuses a default bound above a cap, while g = 2 and
g >= 3 get a capped default bound (and an honest "heuristic" completeness
flag above it).  Both the form key and the equivalence search need
K = Q[t]/(f) to be a CM field, so enumerate_icm refuses non-Weil and
reducible input at every g.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import gcd, isqrt, prod

from . import linalg, orders
from . import polynomials as poly
from .errors import CapabilityError, ConsistencyError, InputError
from .orders import IdealLattice, OrderDesc
from .weil import is_int, is_prime, prime_factors

logger = logging.getLogger(__name__)

# Default index bound caps.  Listing the integral ideals is cheap at any
# bound; the caps bound the equivalence tests among them.  On one core of a
# 2-vCPU container, enumerate_icm certifies t^4 - t^2 + 49 over F_7 at its
# index bound 97 in about 0.11 s (82 candidates, 38 of them searched,
# 8 classes), and t^4 + 2t^3 - 13t^2 + 32t + 256 over F_16 at its bound 235
# in about 3 s (802 candidates, 61 searched, 16 classes; listed in 0.13 s);
# the bounds grow as sqrt(|disc|).
QUARTIC_INDEX_CAP = 24
HIGH_GENUS_INDEX_CAP = 12
# g = 1 certifies at its index bound or refuses a default bound above
# this cap; an explicit bound is honoured.  In-process classify of
# t^2 + t + q on one core of a 2-vCPU container takes about 1.1 s at
# q = 2^24 (bound 4729, 4848 classes) and 2.8 s at q = 2^26 (bound 9459,
# 9984 classes), and the bound grows as sqrt(q)
G1_INDEX_CAP = 10**4


@dataclass(frozen=True)
class IcmResult:
    order: OrderDesc
    classes: tuple[IdealLattice, ...]
    multiplicator_rings: tuple[IdealLattice, ...]
    index_bound: int
    completeness: str  # "certified" | "heuristic"
    indeterminate_pairs: tuple[tuple[int, int, int], ...] = ()


def minkowski_index_bound(order: OrderDesc) -> int:
    """floor(sqrt(|disc R| / k_n)) for the order R of degree n, with
    k_n = (n / gamma_n)^n = 3, 64, 2187, 65536 for n = 2, 4, 6, 8
    (gamma_n Hermite's constant): every ideal class of R meets an integral
    ideal of index at most this bound.  The public name keeps Minkowski's;
    the constant is Hermite's.  At g = 1 the bound is Gauss's
    a <= sqrt(|D| / 3) for reduced forms.

    Proof.  K is a CM field, so Tr(x xbar) = sum_i |sigma_i(x)|^2 is
    positive definite, and on a full lattice L its Gram matrix has
    determinant |disc R| [R : L]^2.  By the definition of Hermite's
    constant some x != 0 in L has Tr(x xbar) <= gamma_n (|disc R| [R : L]^2)^(1/n),
    and AM-GM over the n embeddings gives |N(x)|^(2/n) <= Tr(x xbar) / n,
    so |N(x)| <= sqrt(|disc R| / k_n) [R : L].  For a fractional ideal I
    take L = (R : I) and y its short element: y I <= R lies in the class
    of I, and [R : y I] = |N(y)| [R : I]
    <= sqrt(|disc R| / k_n) [R : (R : I)] [R : I] <= sqrt(|disc R| / k_n).
    The last step, [R : (R : I)] [R : I] <= 1, is an equality when R is
    Gorenstein, since then I -> (R : I) reverses inclusions and keeps
    indices; Z[F, V] = Z[beta][t] / (t^2 - beta t + q) over the monogenic
    Z[beta] is a complete intersection, hence Gorenstein.  For an order
    that is not Gorenstein the step is not proven here, and Minkowski's
    convex-body bound (n! / n^n) (4 / pi)^g sqrt(|disc R|) rests on it
    too: the constant enters only through the short element.

    gamma_2^2 = 4/3 (Lagrange-Gauss), gamma_4^4 = 4 (Korkine-Zolotarev),
    gamma_6^6 = 64/3 and gamma_8^8 = 256 (Blichfeldt 1935); see Cassels,
    An Introduction to the Geometry of Numbers, and Conway-Sloane, SPLAG,
    ch. 1.  Even n <= 8 covers weil.DEGREE_CAP.  The integer form is exact,
    since floor(sqrt(floor(x))) = floor(sqrt(x))."""
    return _index_bound(order.ctx.n, orders.discriminant(order))


# k_n = (n / gamma_n)^n for the even degrees up to weil.DEGREE_CAP
_HERMITE_K = {2: 3, 4: 64, 6: 2187, 8: 65536}


def _index_bound(n: int, disc: int) -> int:
    """minkowski_index_bound of an order of degree n and discriminant disc."""
    return isqrt(abs(disc) // _HERMITE_K[n])


def integral_ideals(order: OrderDesc, index_bound: int) -> list[list[list[int]]]:
    """Every integral ideal of the order of index at most index_bound, as
    the row Hermite form of its basis in the order's coordinates, sorted by
    index, then diagonal, then the entries above the diagonal column by
    column.  At g = 1 the order must be Z[alpha] (which Z[F, V] is there)."""
    ctx, lat = order.ctx, order.lattice
    if ctx.g == 1:
        if lat != IdealLattice.standard(ctx):
            raise InputError("not_z_alpha", "at g = 1 the order must be Z[alpha]")
        local_ideals = partial(_quadratic_ideals, ctx.f_low)
    else:
        # multiplication by alpha and by each ring generator, in the order's basis
        mats = [orders.multiplication_matrix(g, lat)
                for g in dict.fromkeys((orders.alpha(ctx),) + order.generators)]
        if None in mats:
            raise InputError("not_integral", "the order must contain alpha and its generators")
        local_ideals = partial(_local_ideals, mats, ctx.f_low)
    ideals = [(1, linalg.identity(ctx.n))]
    for p in range(2, index_bound + 1):
        if is_prime(p):
            local = local_ideals(p, index_bound)
            # every local index is at least p
            ideals += [(d * e, _coprime_intersection(a, d, b, e) if d > 1 else b)
                       for d, a in ideals if d * p <= index_bound
                       for e, b in local if d * e <= index_bound]
    return [t for _, t in sorted(ideals, key=_shape_key)]


def _shape_key(ideal):
    index, t = ideal
    n = len(t)
    return (index, [t[k][k] for k in range(n)], [t[i][j] for j in range(n) for i in range(j)])


def _coprime_intersection(a, d: int, b, e: int) -> list[list[int]]:
    """The intersection e I + d J of ideals I and J of coprime indices d and e."""
    rows = [[e * x for x in row] for row in a] + [[d * x for x in row] for row in b]
    return linalg._hnf_core(rows)[0][:len(a)]


def _quadratic_ideals(f_low, p: int, bound: int) -> list[tuple[int, list[list[int]]]]:
    """(index, Hermite form) of every ideal of Z[alpha] of index p^k, 1 <= k,
    at most bound, for f = t^2 + a1 t + q: the ideals p^j (p^e Z + (alpha - r) Z)
    with f(r) = 0 mod p^e and 0 <= r < p^e, of index p^(2j + e) (Cohen,
    GTM 138, 5.2).  The roots mod p^e are the lifts r + s p^(e-1) of the
    roots mod p^(e-1) that still vanish."""
    q, a1 = f_low[:2]
    out = []
    a, roots = 1, [0]
    while roots:
        for r in roots:
            # k (a, 0), k (-r, 1) in Hermite form: with g = gcd(a, r), the
            # pivot k g has alpha-coordinate k y for a x - r y = g
            g = gcd(a, r)
            y = -pow(r // g, -1, a // g) % (a // g)
            k = 1 if a > 1 else p
            while k * k * a <= bound:
                out.append((k * k * a, [[k * g, k * y], [0, k * a // g]]))
                k *= p
        a *= p
        roots = [x for r in roots for x in range(r, a, a // p)
                 if (x * x + a1 * x + q) % a == 0] if a <= bound else []
    return out


def _local_ideals(mats, f_low, p: int, bound: int) -> list[tuple[int, list[list[int]]]]:
    """(index, Hermite form) of every ideal of index p^k, 1 <= k, at most
    bound, grown breadth first by simple steps.  An ideal N of p-power index
    has a composition series R > N_1 > ... > N; each step N_(i+1) contains
    p N_i and has index at most the bound, so its U = W^perp is a simple
    module of dimension at most c.  alpha acts on a simple U as an element
    of its residue field: one in F_p is a root lam of f mod p, and then
    U <= ker(alpha - lam); one outside F_p makes prod (alpha - lam)
    invertible on U, and then U <= V' = im prod (alpha - lam)^n, the part of
    M/pM where alpha has no eigenvalue in F_p (Fitting's lemma).  So the
    cyclic spans of the points of those spaces (_scan_spaces) reach every
    step, and every span found is a stable subspace, whose ideal is
    genuine."""
    n = len(mats[0])
    roots = [x for x in range(p) if poly.evaluate(f_low, x) % p == 0]
    queue = [(1, linalg.identity(n))]
    seen = set()
    for m, t in queue:
        c = 0
        while m * p ** (c + 1) <= bound:
            c += 1
        if c == 0 or (c == 1 and not roots):
            continue
        # the matrices in the basis t of M, mod p; acting on columns they map
        # each U = W^perp into itself exactly when W is stable
        gens = [[[x % p for x in orders.integer_coords(t, row)] for row in linalg.mat_mul(t, a)]
                for a in mats]
        # gens[0] is alpha, whose characteristic polynomial on M/pM is f mod p
        for u in _stable_subspaces(_scan_spaces(gens[0], roots, p, c), gens, p, c):
            rows = linalg.kernel_mod(u, p) + [[p * (i == j) for j in range(n)] for i in range(n)]
            h = linalg._hnf_core(linalg.mat_mul(rows, t))[0][:n]
            key = linalg.freeze(h)
            if key not in seen:
                seen.add(key)
                queue.append((m * p ** len(u), h))
    return queue[1:]


def _scan_spaces(alpha, roots, p: int, c: int) -> list:
    """Bases of the spaces that hold every simple stable U of dimension at
    most c: ker(alpha - lam) for each root lam of f mod p and, for c >= 2,
    V' = im prod (alpha - lam)^n when it is not zero (a line of V' is never
    stable under alpha)."""
    n = len(alpha)
    shifted = [[[(x - lam * (i == j)) % p for j, x in enumerate(row)]
                for i, row in enumerate(alpha)] for lam in roots]
    spaces = [linalg.kernel_mod(a, p) for a in shifted]
    if c >= 2:
        power = linalg.identity(n)
        for a in shifted * n:
            power = [[x % p for x in row] for row in linalg.mat_mul(power, a)]
        image = ()
        for column in linalg.transpose(power):
            image = linalg.insert_mod(image, column, p)
        if image:
            spaces.append(image)
    return spaces


def _stable_subspaces(spaces, gens, p: int, c: int) -> set[tuple[tuple[int, ...], ...]]:
    """Every subspace of dimension 1..c of F_p^n that gens span from one
    point of the given spaces, each given by a basis (the smallest subspace
    containing the point that each matrix in gens maps into itself), in
    reduced echelon form.  Each projective point of a space is tried once."""
    found = set()
    for basis in spaces:
        for lead in range(len(basis)):
            for tail in product(range(p), repeat=len(basis) - lead - 1):
                point = [sum(x * row[j] for x, row in zip((1,) + tail, basis[lead:])) % p
                         for j in range(len(basis[0]))]
                span = _cyclic_span(point, gens, p, c)
                if span:
                    found.add(span)
    return found


def _cyclic_span(u, gens, p: int, c: int):
    """The smallest subspace containing u that gens map into itself, or
    None when its dimension exceeds c."""
    span = linalg.insert_mod((), u, p)
    todo = [u]
    while todo:
        v = todo.pop()
        for a in gens:
            w = [sum(x * y for x, y in zip(row, v)) % p for row in a]
            bigger = linalg.insert_mod(span, w, p)
            if bigger is not span:
                if len(bigger) > c:
                    return None
                span = bigger
                todo.append(w)
    return span


def _ring_of(order: OrderDesc, disc: int, ideal: IdealLattice, evidence) -> IdealLattice:
    """The multiplicator ring of an ideal I of the order R of discriminant
    disc: R itself, with no colon ideal, where the evidence e read off I
    proves it, else (I : I).  At g = 1, e is the reduced form (a, b, c) of
    I, whose discriminant is that of (I : I) >= R, and an order of an
    imaginary quadratic field is fixed by its discriminant.  For g >= 2, e
    is the index d of I: dR <= I gives R <= (I : I) <= d^-1 R, and an
    over-order S with p | [S : R] has p | d and p^2 | disc(R)."""
    if order.ctx.g == 1:
        a, b, c = evidence
        proven = b * b - 4 * a * c == disc
    else:
        proven = all(disc % (p * p) for p in prime_factors(evidence))
    return order.lattice if proven else orders.multiplicator_ring(ideal).lattice


def enumerate_icm(order: OrderDesc, index_bound: int | None = None) -> IcmResult:
    """All ideal classes of the order, as canonical integral representatives
    of index at most index_bound, pairwise inequivalent: the first candidate
    of each class in the order of integral_ideals, listed in (den, mat)
    order, the one index space of the class list.  multiplicator_rings
    follows that order, and each indeterminate pair (i, j, bound) names two
    classes by it.  Each ring comes from _ring_of, read off the reduced
    form at g = 1, once per form discriminant, and the index for g >= 2.
    At g = 1 a candidate is new when its reduced form (orders.form_key) is.
    For g >= 2 _classes_by_descent places a candidate in a class by descent
    when it can, and else it is new when the witness search separates it
    from every kept representative with its ring.  index_bound must be a
    positive int (weil.is_int), or InputError bad_bound.  Non-Weil input
    raises not_weil and reducible input not_irreducible, at every g
    (WeilContext.refuse_non_simple).  At g = 1 a default bound, the
    minkowski_index_bound, above G1_INDEX_CAP raises CapabilityError.
    disc(R) is computed once, for that bound and for _ring_of.

    completeness is "certified" when the bound covers minkowski_index_bound
    and every equivalence test was definitive; any indeterminate
    equivalence keeps both candidates (never undercounts) and downgrades
    the flag to "heuristic".
    """
    ctx = order.ctx
    ctx.refuse_non_simple()
    disc = orders.discriminant(order)
    needed = _index_bound(ctx.n, disc)
    if index_bound is None:
        if ctx.g == 1 and needed > G1_INDEX_CAP:
            raise CapabilityError(f"the g = 1 index bound {needed} exceeds the default "
                                  f"cap {G1_INDEX_CAP}; an explicit index bound is honoured")
        cap = QUARTIC_INDEX_CAP if ctx.g == 2 else HIGH_GENUS_INDEX_CAP
        index_bound = needed if ctx.g == 1 else min(needed, cap)
    if not is_int(index_bound) or index_bound < 1:
        raise InputError("bad_bound", "index bound must be a positive integer")
    ideals = integral_ideals(order, index_bound)
    if ctx.g == 1:
        reps, rings, keys, ring_of_disc = [], [], set(), {}
        for t in ideals:
            cand = IdealLattice(ctx, 1, linalg.freeze(t))  # already canonical over Z[alpha]
            key = orders.form_key(cand)
            if key not in keys:
                keys.add(key)
                reps.append(cand)
                # the form's discriminant is that of the ring, which it fixes
                a, b, c = key
                if (form_disc := b * b - 4 * a * c) not in ring_of_disc:
                    ring_of_disc[form_disc] = _ring_of(order, disc, cand, key)
                rings.append(ring_of_disc[form_disc])
        indeterminate = []
    else:
        reps, rings, indeterminate, _ = _classes_by_descent(order, ideals, disc)
    certified = index_bound >= needed and not indeterminate
    if indeterminate:
        logger.warning("equivalence search exhausted on %d pairs; class count may overshoot",
                       len(indeterminate))
    ranked = sorted(range(len(reps)), key=lambda i: (reps[i].den, reps[i].mat))
    rank = {old: new for new, old in enumerate(ranked)}
    return IcmResult(
        order=order,
        classes=tuple(reps[i] for i in ranked),
        multiplicator_rings=tuple(rings[i] for i in ranked),
        index_bound=index_bound,
        completeness="certified" if certified else "heuristic",
        indeterminate_pairs=tuple((rank[i], rank[j], b) for i, j, b in indeterminate),
    )


def _classes_by_descent(order: OrderDesc, ideals, disc: int):
    """The classes of the candidates of integral_ideals (g >= 2), in the
    order they are first met: (reps, rings, indeterminate, labels), labels
    mapping the (den, mat) of each candidate N to (c, x) with x * reps[c] = N.
    disc is disc(R), from which _ring_of reads the rings.

    A candidate is placed by descent when it can, else by the witness search
    against every kept representative with its ring, which is complete at
    g = 2.  A descent only ever proves an equivalence, with its witness.
    Over-ideal: an earlier candidate M > N, of index properly dividing N's,
    with M = x C for its representative C, gives x^-1 N <= C, a listed
    integral ideal of index [R : C] [M : N]; if it is labelled (c, y), N is
    (c, x y).  Conjugate: R = Z[F, V] is closed under conjugation, so
    conj(N) is listed at N's index; if it is labelled (c, y) and
    conj(reps[c]) is (c', z), N is (c', conj(y) z).  x^-1 is formed only
    once an over-ideal test passes, the label of conj(reps[c]) is kept once
    found, and the search weights are built once per ring."""
    ctx, lat = order.ctx, order.lattice
    d, conj_rows = orders._conj_power_rows(ctx)

    def label_of_conj(x: IdealLattice):
        bar = IdealLattice.over(ctx, linalg.mat_mul(x.mat, conj_rows), x.den * d)
        return labels.get((bar.den, bar.mat))

    reps: list[IdealLattice] = []
    rings: list[IdealLattice] = []
    indeterminate: list[tuple[int, int, int]] = []
    labels: dict = {}
    # index -> [t, x, x^-1 once formed] of each candidate placed with x != 1
    over: dict[int, list] = {}
    conj_of_rep: dict[int, tuple] = {}  # c -> the label of conj(reps[c]), once found
    weights: dict[IdealLattice, tuple] = {}
    counts = dict.fromkeys(("over-ideal", "conjugate", "searched"), 0)
    for t in ideals:
        index = prod(t[k][k] for k in range(ctx.n))
        cand = IdealLattice.over(ctx, linalg.mat_mul(t, lat.mat), lat.den)
        label, kind = None, "over-ideal"
        for m in sorted(over):
            if m >= index or label:
                break
            if index % m:
                continue
            for entry in over[m]:
                sup, x, inv = entry
                if all(orders.integer_coords(sup, row) is not None for row in t):
                    if inv is None:
                        inv = entry[2] = x.inverse()
                    below = cand.scale(inv)
                    if (below.den, below.mat) in labels:
                        c, y = labels[below.den, below.mat]
                        label = (c, x * y)
                        break
        if label is None and (found := label_of_conj(cand)):
            c, y = found
            # conj(reps[c]) may be labelled only after more candidates are
            # placed, so a miss is looked up again next time
            if found := conj_of_rep.get(c) or label_of_conj(reps[c]):
                conj_of_rep[c] = found
                c, z = found
                (bar_y,) = linalg.mat_mul([y.num], conj_rows)
                label, kind = (c, orders.FieldElement.over(ctx, bar_y, y.den * d) * z), "conjugate"
        if label is None:
            kind, ring = "searched", _ring_of(order, disc, cand, index)
            unresolved = []
            for i, rep in enumerate(reps):
                if rings[i] != ring:
                    continue
                if ring not in weights:
                    weights[ring] = orders._search_weights(ring)
                eq = orders._witness_search(rep, cand, ring, weights[ring])
                if eq.status == "equivalent":
                    label = (i, eq.witness)
                    break
                if eq.status == "indeterminate":
                    unresolved.append((i, len(reps), eq.search_bound))
            if label is None:
                # an unresolved comparison against a kept candidate may
                # overcount classes; surfaced, never silently resolved
                indeterminate.extend(unresolved)
                label = (len(reps), orders.one(ctx))
                reps.append(cand)
                rings.append(ring)
        counts[kind] += 1
        labels[cand.den, cand.mat] = label
        if reps[label[0]] is not cand:
            over.setdefault(index, []).append([t, label[1], None])
    logger.debug("%d candidates: %d by over-ideal descent, %d by conjugate descent, "
                 "%d searched; %d classes", len(ideals), counts["over-ideal"],
                 counts["conjugate"], counts["searched"], len(reps))
    return reps, rings, indeterminate, labels


def refine_by_sigma(result: IcmResult, ell: int) -> tuple[int, ...]:
    """Indices of the classes stable under multiplication by
    f(1)/(ell (1 - alpha)), in the order of result.classes.

    Both available tests (direct stability of the representative, and
    membership of the element in the multiplicator ring) are computed and
    must agree.
    """
    ctx = result.order.ctx
    sigma = orders.sigma_element(ctx, ell)
    kept = []
    for i, (lat, ring) in enumerate(zip(result.classes, result.multiplicator_rings)):
        stable = orders.multiplication_matrix(sigma, lat) is not None
        in_ring = sigma in ring
        if stable != in_ring:
            raise ConsistencyError("sigma stability disagrees with ring membership")
        if stable:
            kept.append(i)
    return tuple(kept)
