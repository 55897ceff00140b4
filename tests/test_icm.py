"""Ideal class monoid enumeration: bounds, dedup, completeness flags,
local refinement."""

from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from avcyclic import icm, linalg, orders, weil
from avcyclic.errors import InputError
from avcyclic.orders import IdealLattice

from _helpers import corpus_contexts, g1_contexts, is_integral, vec_mat


def pair_order(p, r, g, coeffs):
    return orders.frobenius_pair_order(weil.make_context(p, r, g, coeffs))


def test_minkowski_bound_values():
    assert icm.minkowski_index_bound(pair_order(2, 1, 1, [1, 1, 2])) == 2  # disc -7
    assert icm.minkowski_index_bound(pair_order(5, 1, 1, [1, -2, 5])) == 3  # disc -16
    assert icm.minkowski_index_bound(pair_order(2, 2, 1, [1, 1, 4])) == 3  # disc -15


def test_single_class_monoid():
    r = icm.enumerate_icm(pair_order(2, 1, 1, [1, 1, 2]))
    assert len(r.classes) == 1
    assert r.classes[0] == IdealLattice.standard(r.order.ctx)
    assert r.completeness == "certified"
    assert r.indeterminate_pairs == ()
    assert r.index_bound == 2


def test_two_class_monoid_with_distinct_rings():
    r = icm.enumerate_icm(pair_order(5, 1, 1, [1, -2, 5]))
    assert [(l.den, l.mat) for l in r.classes] == [
        (1, ((1, 0), (0, 1))),
        (1, ((1, 1), (0, 2))),
    ]
    assert [(l.den, l.mat) for l in r.multiplicator_rings] == [
        (1, ((1, 0), (0, 1))),
        (2, ((1, 1), (0, 2))),
    ]
    assert r.completeness == "certified"


def test_two_class_monoid_same_ring():
    # class number 2 at discriminant -15: a genuinely non-principal class
    r = icm.enumerate_icm(pair_order(2, 2, 1, [1, 1, 4]))
    assert len(r.classes) == 2
    std = IdealLattice.standard(r.order.ctx)
    assert r.multiplicator_rings == (std, std)
    assert orders.ideal_equivalent(r.classes[0], r.classes[1]).status == "not_equivalent"


def test_classes_are_pairwise_inequivalent_and_stable():
    r = icm.enumerate_icm(pair_order(5, 1, 1, [1, -2, 5]))
    ctx = r.order.ctx
    a = orders.alpha(ctx)
    v = orders.q_over_alpha(ctx)
    for lat in r.classes:
        for e in lat.elements:
            assert (a * e) in lat and (v * e) in lat
    for i in range(len(r.classes)):
        for j in range(i + 1, len(r.classes)):
            assert orders.ideal_equivalent(r.classes[i], r.classes[j]).status == "not_equivalent"


def test_bound_edge_cases():
    o = pair_order(5, 1, 1, [1, -2, 5])
    with pytest.raises(InputError) as e:
        icm.enumerate_icm(o, index_bound=0)
    assert e.value.code == "bad_bound"
    tiny = icm.enumerate_icm(o, index_bound=1)
    assert len(tiny.classes) == 1  # only the order itself at index 1
    assert tiny.completeness == "heuristic"  # bound below the certified one


def test_monotone_and_stabilizing():
    for p, r_, g, coeffs in ((2, 1, 1, [1, 1, 2]), (5, 1, 1, [1, -2, 5]), (2, 2, 1, [1, 1, 4]),
                             (2, 1, 2, [1, 0, 1, 0, 4])):
        o = pair_order(p, r_, g, coeffs)
        mink = icm.minkowski_index_bound(o)
        at_mink = icm.enumerate_icm(o, index_bound=mink)
        doubled = icm.enumerate_icm(o, index_bound=2 * mink)
        assert set(at_mink.classes) <= set(doubled.classes)
        assert len(at_mink.classes) == len(doubled.classes)


def test_requires_irreducible():
    ctx = weil.make_context(2, 2, 1, [1, -4, 4])
    o = orders.frobenius_pair_order(ctx)
    with pytest.raises(InputError) as e:
        icm.enumerate_icm(o)
    assert e.value.code == "not_irreducible"


def test_quartic_default_bound_is_minkowski():
    ctx = weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])
    o = orders.frobenius_pair_order(ctx)
    r = icm.enumerate_icm(o)
    assert r.index_bound == icm.minkowski_index_bound(o)
    assert r.completeness == "certified"
    assert r.classes[0] == o.lattice


def test_quartic_default_bound_is_capped(monkeypatch):
    # above the cap the default bound stops there, flagged heuristic, and
    # every pair below it is still decided
    o = pair_order(5, 1, 2, [1, -1, 1, -5, 25])
    assert icm.minkowski_index_bound(o) > icm.QUARTIC_INDEX_CAP
    monkeypatch.setattr(icm, "QUARTIC_INDEX_CAP", 4)
    r = icm.enumerate_icm(o)
    assert r.index_bound == 4
    assert r.completeness == "heuristic"
    assert r.indeterminate_pairs == ()


def test_high_genus_default_bound_is_capped(monkeypatch):
    o = pair_order(2, 1, 3, [1, -2, 1, 1, 2, -8, 8])
    mink = icm.minkowski_index_bound(o)
    assert mink > icm.HIGH_GENUS_INDEX_CAP
    monkeypatch.setattr(icm, "HIGH_GENUS_INDEX_CAP", 3)
    r = icm.enumerate_icm(o)
    assert r.index_bound == min(mink, 3)
    assert r.completeness == "heuristic"


def test_sextic_indeterminate_pairs_are_reported():
    # g = 3: a pair with no witness within the heuristic equivalence bound
    # stays undecided and is surfaced (values frozen)
    r = icm.enumerate_icm(pair_order(2, 1, 3, [1, -1, 2, -1, 4, -4, 8]), index_bound=4)
    assert r.completeness == "heuristic"
    assert r.indeterminate_pairs == ((0, 1, 48),)
    for i, j, bound in r.indeterminate_pairs:
        assert 0 <= i < j < len(r.classes)
        eq = orders.ideal_equivalent(r.classes[i], r.classes[j])
        assert eq.status == "indeterminate"
        assert eq.search_bound == bound


def test_quartic_class_list_is_certified():
    # the t^4 + t^2 + 4 list once held an undecided pair; every pair is now
    # decided (test_monotone_and_stabilizing doubles its bound)
    r = icm.enumerate_icm(pair_order(2, 1, 2, [1, 0, 1, 0, 4]))
    assert r.indeterminate_pairs == ()
    assert r.completeness == "certified"
    assert len(r.classes) == 2
    for i in range(len(r.classes)):
        for j in range(i + 1, len(r.classes)):
            assert orders.ideal_equivalent(r.classes[i], r.classes[j]).status == "not_equivalent"


def _reduced_form_count(d: int) -> int:
    """Reduced positive definite forms a x^2 + b xy + c y^2 of discriminant
    d < 0, primitive or not: |b| <= a <= c, and b >= 0 if |b| = a or a = c."""
    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a) == 0:
                c = (b * b - d) // (4 * a)
                if c >= a and not (b < 0 and a == c):
                    count += 1
        a += 1
    return count


def test_g1_class_counts_match_kronecker_class_number():
    # ordinary g = 1: the ideal classes of Z[pi] are counted by the Kronecker
    # class number H(a^2 - 4q), the sum of h(O) over the orders O containing
    # Z[pi] (Deuring; Schoof 1987, Thm 4.6)
    fields = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))
    checked = 0
    for p, r_ in fields:
        for ctx in weil.enumerate_weil_contexts(p, r_, 1, ordinary=True, irreducible=True):
            res = icm.enumerate_icm(orders.frobenius_pair_order(ctx))
            assert res.completeness == "certified"
            assert len(res.classes) == _reduced_form_count(ctx.f[1] ** 2 - 4 * ctx.q), ctx.f
            checked += 1
    assert checked == 76


def test_g1_form_key_decides_equivalence():
    # enumerate_icm keeps one candidate per reduced-form key at g = 1, so the
    # key must separate exactly what ideal_equivalent separates: never I from
    # x I, never merging I with its conjugate, whatever the index; and the
    # reduced form's discriminant is that of the multiplicator ring
    pairs = 0
    for ctx in g1_contexts(16):
        order = orders.frobenius_pair_order(ctx)
        base = order.lattice
        cands = [IdealLattice.over(ctx, linalg.mat_mul(t, base.mat), base.den)
                 for t in icm.integral_ideals(order, icm.minkowski_index_bound(order))]
        keys = [orders.form_key(c) for c in cands]
        for cand, (a, b, c) in zip(cands, keys):
            assert b * b - 4 * a * c == orders.discriminant(orders.multiplicator_ring(cand))
        for i, j in combinations(range(len(cands)), 2):
            status = orders.ideal_equivalent(cands[i], cands[j]).status
            assert (keys[i] == keys[j]) == (status == "equivalent"), (ctx.f, i, j)
            pairs += status == "equivalent"
    assert pairs > 0


def test_refine_by_sigma_values():
    r5 = icm.enumerate_icm(pair_order(5, 1, 1, [1, -2, 5]))
    kept = icm.refine_by_sigma(r5, 2)
    assert [(l.den, l.mat) for l in kept] == [(1, ((1, 1), (0, 2)))]
    r2 = icm.enumerate_icm(pair_order(2, 1, 1, [1, 1, 2]))
    assert icm.refine_by_sigma(r2, 2) == []
    with pytest.raises(InputError) as e:
        icm.refine_by_sigma(r5, 3)
    assert e.value.code == "ell_not_dividing"


def _ordered_factorizations(d, k):
    if k == 1:
        return [(d,)]
    return [(a,) + rest for a in range(1, d + 1) if d % a == 0
            for rest in _ordered_factorizations(d // a, k - 1)]


def _hermite_walk(order, bound):
    """Brute-force oracle: every upper triangular Hermite shape of index at
    most bound whose row span, in the order's coordinates, the generators
    map into itself; by index, diagonal, then entries column by column."""
    n, lat = order.ctx.n, order.lattice
    gens = [orders.multiplication_matrix(g, lat.elements, lat) for g in order.generators]
    cells = [(i, j) for j in range(n) for i in range(j)]
    out = []
    for d in range(1, bound + 1):
        for diag in _ordered_factorizations(d, n):
            for vals in product(*(range(diag[j]) for _, j in cells)):
                t = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
                for (i, j), v in zip(cells, vals):
                    t[i][j] = v
                if all(orders.integer_coords(t, vec_mat(row, a)) is not None
                       for a in gens for row in t):
                    out.append(t)
    return out


def test_integral_ideals_match_hermite_walk():
    cases = []
    for p in (2, 3):  # the corpus quartics at their default bounds
        for ctx in weil.enumerate_weil_contexts(p, 1, 2, ordinary=True, irreducible=True)[:10]:
            o = orders.frobenius_pair_order(ctx)
            cases.append((o, min(icm.minkowski_index_bound(o), icm.QUARTIC_INDEX_CAP)))
    f5 = weil.enumerate_weil_contexts(5, 1, 2, ordinary=True, irreducible=True)
    cases += [(orders.frobenius_pair_order(ctx), 12) for ctx in f5[::13][:5]]
    cases.append((pair_order(2, 1, 3, [1, -2, 1, 1, 2, -8, 8]), 6))
    # g = 1 lists its ideals in closed form: at and beyond the Minkowski bound
    for ctx in g1_contexts(16):
        o = orders.frobenius_pair_order(ctx)
        mink = icm.minkowski_index_bound(o)
        cases += [(o, mink), (o, 4 * mink)]
    cases.append((pair_order(2, 1, 1, [1, 1, 2]), 200))
    for o, bound in cases:
        assert icm.integral_ideals(o, bound) == _hermite_walk(o, bound), (o.ctx.f, bound)


def test_g1_integral_ideals_need_z_alpha():
    # the closed form lists the ideals of Z[alpha] only; an over-order is refused
    o = pair_order(5, 1, 1, [1, -2, 5])  # Z[alpha] = Z[2i] in Z[i]
    big = orders.multiplicator_ring(IdealLattice.from_rows(o.ctx, [[1, 1], [0, 2]]))
    with pytest.raises(InputError) as e:
        icm.integral_ideals(big, 4)
    assert e.value.code == "not_z_alpha"


def test_integral_ideals_find_prime_of_residue_degree_two():
    # f = t^2 (t^2 + t + 1) mod 2, and P = (2, alpha^2 + alpha + 1) has
    # R/P = F_4, with no line stable under R: no eigenline of alpha finds P,
    # only the search over all points of P^3(F_2)
    o = pair_order(2, 1, 2, [1, -1, -1, -2, 4])
    a = orders.alpha(o.ctx)
    gen = a * a + a + orders.one(o.ctx)
    prime = IdealLattice.from_elements(
        o.ctx, [2 * e for e in o.lattice.elements] + [gen * e for e in o.lattice.elements])
    assert orders.lattice_index(prime, o.lattice) == 4
    base = o.lattice
    assert prime in [IdealLattice.over(o.ctx, linalg.mat_mul(t, base.mat), base.den)
                     for t in icm.integral_ideals(o, 4)]


# quartics at explicit bounds above the default cap, where g = 2 equivalence
# tests are many (t^4 - t^2 + 49 over F_7 lists 111 candidates)
BOUNDED_QUARTICS = ((7, 1, [1, 0, -1, 0, 49], 119), (5, 1, [1, -3, 7, -15, 25], 34))


def test_decided_ring_is_the_multiplicator_ring():
    # R itself where no prime of the index can carry an over-order, the colon
    # ideal elsewhere: both routes occur, and both give (I : I)
    cases = [(ctx, None) for ctx in corpus_contexts() if ctx.g == 2]
    cases += [(weil.make_context(p, r, 2, f), bound) for p, r, f, bound in BOUNDED_QUARTICS]
    routes = set()
    for ctx, bound in cases:
        o = orders.frobenius_pair_order(ctx)
        bound = bound or icm.minkowski_index_bound(o)
        ring_of = icm._ring_decider(o)
        for t in icm.integral_ideals(o, bound):
            cand = IdealLattice.over(ctx, linalg.mat_mul(t, o.lattice.mat), o.lattice.den)
            ring = ring_of(cand, prod(t[k][k] for k in range(ctx.n)))
            assert ring == orders.multiplicator_ring(cand).lattice, (ctx.f, t)
            routes.add(ring == o.lattice)
    assert routes == {True, False}


def _p_maximal_by_search(o, p) -> bool:
    """R is p-maximal iff no y / p with y in R \\ pR is integral."""
    basis = o.lattice.elements
    for coeffs in product(range(p), repeat=len(basis)):
        if any(coeffs):
            y = sum((c * e for c, e in zip(coeffs, basis)), orders.zero(o.ctx))
            if is_integral(y * Fraction(1, p)):
                return False
    return True


def test_p_maximality_matches_integral_element_search():
    verdicts = []
    for p, r in ((2, 1), (3, 1), (2, 2)):
        for ctx in weil.enumerate_weil_contexts(p, r, 2, ordinary=True, irreducible=True):
            o = orders.frobenius_pair_order(ctx)
            disc = orders.discriminant(o)
            for ell in (2, 3, 5):
                if disc % (ell * ell) == 0:
                    got = icm._is_p_maximal(o, ell)
                    assert got == _p_maximal_by_search(o, ell), (ctx.f, ell)
                    verdicts.append(got)
    assert len(verdicts) == 100 and verdicts.count(False) == 22


def test_colon_by_the_ring_is_the_ideal():
    # (b : S) = b for a class b over its multiplicator ring S, which lets the
    # equivalence search skip the colon ideal when one side is its own ring
    for ctx in corpus_contexts():
        result = icm.enumerate_icm(orders.frobenius_pair_order(ctx))
        for b, ring in zip(result.classes, result.multiplicator_rings):
            assert orders.ideal_quotient(b, ring) == b, (ctx.f, b)
