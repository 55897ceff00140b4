"""Ideal class monoid enumeration: bounds, dedup, completeness flags,
local refinement."""

from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from avcyclic import cyclicity, icm, linalg, orders, weil
from avcyclic.errors import CapabilityError, InputError
from avcyclic.orders import IdealLattice

from _helpers import (corpus_contexts, g1_contexts, minkowski_convex_body_bound, pairwise_icm,
                      projective_scan_spaces, vec_mat)


def pair_order(p, r, g, coeffs):
    return orders.frobenius_pair_order(weil.make_context(p, r, g, coeffs))


def test_minkowski_bound_values():
    # floor(sqrt(|D| / 3)) at g = 1, Gauss's bound on a reduced form's a
    assert icm.minkowski_index_bound(pair_order(2, 1, 1, [1, 1, 2])) == 1  # disc -7
    assert icm.minkowski_index_bound(pair_order(5, 1, 1, [1, -2, 5])) == 2  # disc -16
    assert icm.minkowski_index_bound(pair_order(2, 2, 1, [1, 1, 4])) == 2  # disc -15


def test_g1_default_bound_is_capped_and_an_explicit_one_honoured():
    # bound 18918 at q = 2^28; q = 2^26 gives 9459, under the cap
    order = pair_order(2, 28, 1, [1, 1, 2**28])
    assert icm.minkowski_index_bound(order) > icm.G1_INDEX_CAP
    with pytest.raises(CapabilityError):
        icm.enumerate_icm(order)
    result = icm.enumerate_icm(order, 50)
    assert (result.index_bound, result.completeness) == (50, "heuristic")
    assert result.classes


def test_single_class_monoid():
    r = icm.enumerate_icm(pair_order(2, 1, 1, [1, 1, 2]))
    assert len(r.classes) == 1
    assert r.classes[0] == IdealLattice.standard(r.order.ctx)
    assert r.completeness == "certified"
    assert r.indeterminate_pairs == ()
    assert r.index_bound == 1


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


def test_class_list_is_in_den_mat_order_with_first_seen_representatives():
    # the classes come back sorted by (den, mat), each with its ring, and
    # each is the first candidate of integral_ideals with its reduced form
    for ctx in g1_contexts(16):
        o = orders.frobenius_pair_order(ctx)
        r = icm.enumerate_icm(o)
        keys = [(lat.den, lat.mat) for lat in r.classes]
        assert keys == sorted(keys), ctx.f
        assert list(r.multiplicator_rings) == [orders.multiplicator_ring(lat).lattice
                                               for lat in r.classes]
        first = {}
        for t in icm.integral_ideals(o, r.index_bound):
            cand = IdealLattice.over(ctx, linalg.mat_mul(t, o.lattice.mat), o.lattice.den)
            first.setdefault(orders.form_key(cand), cand)
        assert set(r.classes) == set(first.values()), ctx.f


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


@pytest.mark.parametrize("bound", [True, False, 2.5, 3.0, "3", Fraction(3)])
def test_a_bound_that_is_not_an_int_is_refused(bound):
    # one rule for integer input, weil.is_int: a bool is not a bound, and
    # neither is a float, a string or a Fraction, in icm or the pipeline
    ctx = weil.make_context(5, 1, 1, [1, -2, 5])
    for call in (lambda: icm.enumerate_icm(orders.frobenius_pair_order(ctx), bound),
                 lambda: cyclicity.classify_isogeny_class(ctx, bound)):
        with pytest.raises(InputError) as e:
            call()
        assert e.value.code == "bad_bound"


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


@pytest.mark.parametrize("p, f", [
    (2, [1, 5, 2]),  # real quadratic Z[(1 + sqrt 17) / 2], class number 1
    (3, [1, 0, -10]),  # real quadratic Z[sqrt 10], class number 2
    (2, [1, 0, 3]),  # imaginary, but N(alpha) = 3 is not q
])
def test_refuses_non_weil_at_g1(p, f):
    # the form key names classes of imaginary quadratic orders only, and
    # Z[alpha] is Z[F, V] only when N(alpha) = q: no class list is certified
    ctx = weil.make_context(p, 1, 1, f)
    order = orders.OrderDesc(IdealLattice.standard(ctx), (orders.alpha(ctx),))
    with pytest.raises(InputError) as e:
        icm.enumerate_icm(order)
    assert e.value.code == "not_weil"


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
    # enumerate_icm and ideal_equivalent decide g = 1 classes by the reduced
    # form, so the key must separate exactly what the certified witness
    # search, which reads no form, separates: never I from x I, never
    # merging I with its conjugate, whatever the index.  ideal_equivalent's
    # witness maps each pair with equal keys onto each other, and the
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
            status = orders._witness_search(cands[i], cands[j]).status
            assert (keys[i] == keys[j]) == (status == "equivalent"), (ctx.f, i, j)
            if keys[i] == keys[j]:
                eq = orders.ideal_equivalent(cands[i], cands[j])
                assert eq.status == "equivalent", (ctx.f, i, j)
                assert cands[i].scale(eq.witness) == cands[j], (ctx.f, i, j)
                pairs += 1
    assert pairs > 0



def test_g1_candidates_are_already_canonical():
    # at g = 1 the order is Z[alpha], with basis (1, alpha) over den 1, and
    # integral_ideals returns canonical Hermite forms, so enumerate_icm takes
    # each as the lattice (1, t) with no second Hermite form
    count = 0
    for ctx in g1_contexts(64):
        order = orders.frobenius_pair_order(ctx)
        base = order.lattice
        assert (base.den, base.mat) == (1, ((1, 0), (0, 1)))
        for t in icm.integral_ideals(order, icm.minkowski_index_bound(order)):
            cand = IdealLattice.over(ctx, linalg.mat_mul(t, base.mat), base.den)
            assert IdealLattice(ctx, 1, linalg.freeze(t)) == cand, (ctx.f, t)
            count += 1
    assert count == 1888


def test_refine_by_sigma_values():
    r5 = icm.enumerate_icm(pair_order(5, 1, 1, [1, -2, 5]))
    kept = icm.refine_by_sigma(r5, 2)
    assert kept == (1,)
    assert [(r5.classes[i].den, r5.classes[i].mat) for i in kept] == [(1, ((1, 1), (0, 2)))]
    r2 = icm.enumerate_icm(pair_order(2, 1, 1, [1, 1, 2]))
    assert icm.refine_by_sigma(r2, 2) == ()
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
    gens = [orders.multiplication_matrix(g, lat) for g in order.generators]
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


def test_integral_ideals_match_the_projective_scan(monkeypatch):
    # the simple steps, from the eigenspaces of alpha and V' only, list the
    # ideals of the scan over every point of P(F_p^n)
    cases = [(pair_order(p, r, 2, f), bound) for p, r, f, bound in BOUNDED_QUARTICS]
    for ctx in weil.enumerate_weil_contexts(2, 2, 2, ordinary=True, irreducible=True):
        o = orders.frobenius_pair_order(ctx)
        cases.append((o, min(icm.minkowski_index_bound(o), icm.QUARTIC_INDEX_CAP)))
    f7 = weil.enumerate_weil_contexts(7, 1, 2, ordinary=True, irreducible=True)
    cases += [(orders.frobenius_pair_order(ctx), 60) for ctx in f7[::25][:5]]
    cases.append((pair_order(2, 1, 3, [1, -2, 1, 1, 2, -8, 8]), 12))
    listed = [icm.integral_ideals(o, bound) for o, bound in cases]
    monkeypatch.setattr(icm, "_scan_spaces", projective_scan_spaces)
    for (o, bound), ideals in zip(cases, listed):
        assert icm.integral_ideals(o, bound) == ideals, (o.ctx.f, bound)


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
    # only a point of V', the image of alpha^n mod 2, on which alpha has no
    # eigenvalue in F_2
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
    # R itself where the reduced form's discriminant (g = 1) or the index
    # (g = 2) rules out an over-order, the colon ideal elsewhere: both
    # routes occur at each g, and both give (I : I)
    cases = [(ctx, None) for ctx in corpus_contexts() if ctx.g == 2]
    cases += [(weil.make_context(p, r, 2, f), bound) for p, r, f, bound in BOUNDED_QUARTICS]
    cases += [(ctx, None) for ctx in g1_contexts(64)]
    routes = set()
    for ctx, bound in cases:
        o = orders.frobenius_pair_order(ctx)
        bound = bound or icm.minkowski_index_bound(o)
        disc = orders.discriminant(o)
        for t in icm.integral_ideals(o, bound):
            cand = IdealLattice.over(ctx, linalg.mat_mul(t, o.lattice.mat), o.lattice.den)
            evidence = (orders.form_key(cand) if ctx.g == 1
                        else prod(t[k][k] for k in range(ctx.n)))
            ring = icm._ring_of(o, disc, cand, evidence)
            assert ring == orders.multiplicator_ring(cand).lattice, (ctx.f, t)
            routes.add((ctx.g, ring == o.lattice))
    assert routes == {(1, True), (1, False), (2, True), (2, False)}


def test_colon_by_the_ring_is_the_ideal():
    # (b : S) = b for a class b over its multiplicator ring S, which lets the
    # equivalence search skip the colon ideal when one side is its own ring
    for ctx in corpus_contexts():
        result = icm.enumerate_icm(orders.frobenius_pair_order(ctx))
        for b, ring in zip(result.classes, result.multiplicator_rings):
            assert orders.ideal_quotient(b, ring) == b, (ctx.f, b)


def _corpus_quartic_orders():
    return [orders.frobenius_pair_order(ctx) for ctx in corpus_contexts() if ctx.g == 2]


def test_descent_lists_the_classes_of_the_pairwise_search():
    # the descents only ever prove equivalences, so the class list, the
    # rings, the flag and the undecided pairs are those of the pairwise
    # search; on the corpus quartics every descent witness is exact
    cases = [(o, None) for o in _corpus_quartic_orders()]
    cases += [(pair_order(p, r, 2, f), bound) for p, r, f, bound in BOUNDED_QUARTICS]
    for o, bound in cases:
        result = icm.enumerate_icm(o, bound)
        assert result == pairwise_icm(o, result.index_bound), o.ctx.f
    for o, _ in cases[:-len(BOUNDED_QUARTICS)]:
        ideals = icm.integral_ideals(o, icm.enumerate_icm(o).index_bound)
        reps, _, _, labels = icm._classes_by_descent(o, ideals, orders.discriminant(o))
        assert len(labels) == len(ideals)
        for t in ideals:
            cand = IdealLattice.over(o.ctx, linalg.mat_mul(t, o.lattice.mat), o.lattice.den)
            c, x = labels[cand.den, cand.mat]
            assert reps[c].scale(x) == cand, (o.ctx.f, t)


def test_descent_counters_on_the_corpus_quartics(monkeypatch):
    # machine-independent counts: the descents leave 47 of the pairwise
    # search's witness searches, and the unit is read once per searched
    # ring of each context, the same on every run
    calls = {}

    def counted(name):
        fn = getattr(orders, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(orders, name, wrapper)

    counted("_witness_search")
    counted("_real_unit_trace")
    runs = []
    for _ in range(2):
        calls.clear()
        for o in _corpus_quartic_orders():
            icm.enumerate_icm(o)
        runs.append(dict(calls))
    assert runs[0] == runs[1]
    assert runs[0]["_witness_search"] <= 47
    assert runs[0]["_real_unit_trace"] <= 17


def test_listing_counters_on_the_corpus_quartics(monkeypatch):
    # machine-independent counts: the simple steps try the points of the
    # eigenspaces and of V' only, and an over-ideal's witness is inverted
    # only once a containment test passes, the same on every run
    calls = dict.fromkeys(("_cyclic_span", "inverse"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(icm, "_cyclic_span")
    counted(orders.FieldElement, "inverse")
    runs = []
    for _ in range(2):
        calls.update(dict.fromkeys(calls, 0))
        for o in _corpus_quartic_orders():
            icm.enumerate_icm(o)
        runs.append(dict(calls))
    assert runs[0] == runs[1]
    assert runs[0]["_cyclic_span"] <= 259
    assert runs[0]["inverse"] <= 18


def _bound_oracle_orders():
    """Z[F, V] of every g = 1 context with q <= 64, of every ordinary
    irreducible quartic over F_2, F_3 and F_4, and of the F_5 quartics
    whose convex-body bound is at most 40."""
    out = [orders.frobenius_pair_order(ctx) for ctx in g1_contexts(64)]
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1)):
        for ctx in weil.enumerate_weil_contexts(p, r, 2, ordinary=True, irreducible=True):
            o = orders.frobenius_pair_order(ctx)
            if p < 5 or minkowski_convex_body_bound(o) <= 40:
                out.append(o)
    return out


def test_hermite_bound_lists_the_classes_of_the_convex_body_bound():
    # Hermite's bound is at most Minkowski's, and listing to it finds the
    # same classes, rings and flag as listing to Minkowski's
    cases = _bound_oracle_orders()
    assert len(cases) == 558
    for o in cases:
        bound, old = icm.minkowski_index_bound(o), minkowski_convex_body_bound(o)
        assert bound <= old, o.ctx.f
        new, ref = icm.enumerate_icm(o, bound), icm.enumerate_icm(o, old)
        assert new.completeness == ref.completeness == "certified", o.ctx.f
        assert new.classes == ref.classes, o.ctx.f
        assert new.multiplicator_rings == ref.multiplicator_rings, o.ctx.f


def test_dual_index_step_of_the_bound():
    # the proof's index step: [R : (R : I)] [R : I] <= 1 for every ideal I,
    # an equality since Z[F, V] is Gorenstein
    checked = 0
    for p in (2, 3):
        for ctx in weil.enumerate_weil_contexts(p, 1, 2, ordinary=True, irreducible=True):
            o = orders.frobenius_pair_order(ctx)
            base = o.lattice
            for t in icm.integral_ideals(o, 12):
                ideal = IdealLattice.over(ctx, linalg.mat_mul(t, base.mat), base.den)
                dual = orders.ideal_quotient(base, ideal)
                assert (orders.lattice_index(dual, base)
                        * orders.lattice_index(ideal, base)) == 1, (ctx.f, t)
                checked += 1
    assert checked == 490


def test_g1_rings_take_one_colon_per_form_discriminant(monkeypatch):
    # an imaginary quadratic order is fixed by its discriminant, so the
    # reduced forms' discriminants name the rings: one colon ideal per
    # discriminant other than disc(R), and each ring is the colon (I : I)
    colon = orders.multiplicator_ring
    calls = []
    monkeypatch.setattr(orders, "multiplicator_ring", lambda i: calls.append(i) or colon(i))
    checked = 0
    for ctx in g1_contexts(64):
        o = orders.frobenius_pair_order(ctx)
        calls.clear()
        result = icm.enumerate_icm(o)
        discs = set()
        for rep, ring in zip(result.classes, result.multiplicator_rings):
            a, b, c = orders.form_key(rep)
            discs.add(b * b - 4 * a * c)
            assert ring == colon(rep).lattice, (ctx.f, rep)
            checked += 1
        assert len(calls) == len(discs - {orders.discriminant(o)}), ctx.f
    assert checked > 0
