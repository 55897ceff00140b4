"""Field arithmetic, canonical lattices, ideal operations, orders,
discriminants, equivalence with witnesses."""

import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcyclic import conjugacy, icm, linalg, orders, weil
from avcyclic.errors import ConsistencyError, DegenerateLatticeError, InputError
from avcyclic.orders import FieldElement, IdealLattice

from _helpers import (conjugate, convolution_conj, convolution_product, corpus_contexts,
                      discriminant_gram, g1_contexts, ideal_intersection, ideal_sum,
                      is_integral, make_element, norm, products_ideal_product, products_matrix,
                      products_scale, random_unimodular, ring_first_equivalent, zero)


def ctx2():
    return weil.make_context(2, 1, 1, [1, 1, 2])


def ctx5():
    return weil.make_context(5, 1, 1, [1, -2, 5])


def quartic_ctx():
    return weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])


def test_element_arithmetic():
    c = ctx2()
    a = orders.alpha(c)
    assert (a * a).coeffs == (Fraction(-2), Fraction(-1))  # alpha^2 = -2 - alpha
    assert (a + a).coeffs == (Fraction(0), Fraction(2))
    assert (a - a).is_zero()
    assert (-a).coeffs == (Fraction(0), Fraction(-1))
    assert (3 * a).coeffs == (Fraction(0), Fraction(3))
    assert a.trace() == -1
    assert norm(a) == 2
    assert a.charpoly() == (2, 1, 1)
    assert is_integral(a)


def test_inverse_and_conj():
    c = ctx2()
    a = orders.alpha(c)
    inv = a.inverse()
    assert inv.coeffs == (Fraction(-1, 2), Fraction(-1, 2))
    assert (a * inv).coeffs == (Fraction(1), Fraction(0))
    assert not is_integral(inv)
    # conjugation swaps alpha with q/alpha: it is row 1 of the conjugation rows
    assert orders.q_over_alpha(c).coeffs == (Fraction(-1), Fraction(-1))
    assert orders._conj_power_rows(c) == (1, ((1, 0), (-1, -1)))
    with pytest.raises(ZeroDivisionError):
        zero(c).inverse()


def test_q_over_alpha_read_off_f():
    # q / alpha from f(alpha) = 0 is the inverse of alpha times q, Weil or not
    rng = random.Random(173)
    contexts = list(corpus_contexts())
    for _ in range(60):
        g = rng.choice([1, 2, 3])
        f_0 = rng.choice([-1, 1]) * rng.randint(1, 9)
        f = [1] + [rng.randint(-9, 9) for _ in range(2 * g - 1)] + [f_0]
        contexts.append(weil.make_context(3, 1, g, f))
    for c in contexts:
        assert orders.q_over_alpha(c) == c.q * orders.alpha(c).inverse(), c.f
    with pytest.raises(DegenerateLatticeError):
        orders.q_over_alpha(weil.make_context(2, 1, 1, [1, 1, 0]))


def test_mult_matrix_rows():
    c = ctx2()
    m = orders.alpha(c).mult_matrix()
    # row k holds coordinates of alpha^k * alpha
    assert m == [[0, 1], [-2, -1]]


def test_sigma_element():
    c = ctx5()
    s = orders.sigma_element(c, 2)
    assert s.coeffs == (Fraction(-1, 2), Fraction(1, 2))
    assert (s * s).coeffs == (Fraction(-1), Fraction(0))  # sigma_2^2 = -1
    with pytest.raises(InputError) as e:
        orders.sigma_element(c, 4)
    assert e.value.code == "ell_not_prime"
    with pytest.raises(InputError) as e:
        orders.sigma_element(c, 3)  # point count is 4
    assert e.value.code == "ell_not_dividing"


def test_sigma_times_one_minus_alpha_is_the_point_count_over_ell():
    # sigma_ell (1 - alpha) = f(1) / ell by field arithmetic, for every prime
    # ell | f(1) of the corpus and of the g = 1 contexts with q <= 64
    contexts = list(corpus_contexts()) + list(g1_contexts(64))
    pairs = 0
    for ctx in contexts:
        one_minus = orders.one(ctx) - orders.alpha(ctx)
        for ell in weil.prime_factors(ctx.point_count):
            sigma = orders.sigma_element(ctx, ell)
            want = make_element(ctx, [Fraction(ctx.point_count, ell)])
            assert sigma * one_minus == want, (ctx.f, ell)
            pairs += 1
    assert pairs > 800


def test_lattice_canonical_form():
    c = ctx2()
    std = IdealLattice.standard(c)
    assert std.den == 1 and std.mat == ((1, 0), (0, 1))
    # same span, different generators: identical canonical pair
    l1 = IdealLattice.from_rows(c, [[2, 1], [0, 1]])
    l2 = IdealLattice.from_rows(c, [[2, 0], [0, 1], [2, 1]])
    assert l1 == l2
    assert l1.mat == ((2, 0), (0, 1))
    # rational input clears denominators into den
    l3 = IdealLattice.from_rows(c, [[Fraction(1, 2), 0], [0, 1]])
    assert (l3.den, l3.mat) == (2, ((1, 0), (0, 2)))
    assert l3.covolume() == Fraction(1, 2)


def test_lattice_contains_and_scale():
    c = ctx2()
    std = IdealLattice.standard(c)
    assert orders.one(c) in std
    assert orders.alpha(c) in std
    assert make_element(c, [Fraction(1, 2), 0]) not in std
    half = IdealLattice.from_rows(c, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert make_element(c, [Fraction(1, 2), Fraction(-3, 2)]) in half
    doubled = std.scale(make_element(c, [2]))
    assert doubled.mat == ((2, 0), (0, 2))
    with pytest.raises(InputError):
        std.scale(zero(c))


def test_lattice_degenerate_inputs():
    c = ctx2()
    with pytest.raises(DegenerateLatticeError):
        IdealLattice.from_rows(c, [[1, 0]])  # rank 1
    with pytest.raises(DegenerateLatticeError):
        IdealLattice.from_rows(c, [[1, 0, 0]])  # wrong width
    with pytest.raises(DegenerateLatticeError):
        IdealLattice.from_rows(c, [])


def test_ideal_operations():
    c = ctx2()
    std = IdealLattice.standard(c)
    a = orders.alpha(c)
    alat = std.scale(a)
    two = std.scale(make_element(c, [2]))
    assert alat.mat == ((2, 0), (0, 1))
    # 2 = alpha * conj(alpha), so (2) + (alpha) = (alpha)
    assert ideal_sum(two, alat) == alat
    assert orders.ideal_product(two, alat).mat == ((4, 0), (0, 2))
    assert ideal_intersection(two, alat) == two  # (2) inside (alpha)
    # spec'd quotient value: scaling both sides by 2 halves the quotient
    four = std.scale(make_element(c, [4]))
    q = orders.ideal_quotient(two, four)
    assert (q.den, q.mat) == (2, ((1, 0), (0, 1)))
    # (ab : b) = a for invertible b
    assert orders.ideal_quotient(orders.ideal_product(two, alat), alat) == two


def test_ideal_ops_are_commutative_and_monotone():
    c = ctx5()
    std = IdealLattice.standard(c)
    x = std.scale(make_element(c, [1, 1]))
    y = std.scale(make_element(c, [2, -1]))
    assert ideal_sum(x, y) == ideal_sum(y, x)
    assert orders.ideal_product(x, y) == orders.ideal_product(y, x)
    assert ideal_intersection(x, y) == ideal_intersection(y, x)
    s = ideal_sum(x, y)
    i = ideal_intersection(x, y)
    for e in i.elements:
        assert e in x and e in y
    for e in x.elements:
        assert e in s


def test_context_mismatch_rejected():
    with pytest.raises(InputError) as e:
        ideal_sum(IdealLattice.standard(ctx2()), IdealLattice.standard(ctx5()))
    assert e.value.code == "context_mismatch"


def test_lattice_index():
    c = ctx5()
    std = IdealLattice.standard(c)
    maximal = orders.multiplicator_ring(IdealLattice.from_rows(c, [[1, 1], [0, 2]])).lattice
    assert orders.lattice_index(std, maximal) == 2
    assert orders.lattice_index(maximal, std) == Fraction(1, 2)
    assert orders.lattice_index(std, std) == 1


def _standard_order(c):
    """Z[alpha]; OrderDesc verifies that it is a ring."""
    return orders.OrderDesc(IdealLattice.standard(c), (orders.alpha(c),))


def test_ring_closure_and_orders():
    c = ctx2()
    o = _standard_order(c)
    assert o.lattice == IdealLattice.standard(c)
    # q/alpha lies in Z[alpha] for quadratics, so the pair order is the same
    assert orders.frobenius_pair_order(c).lattice == o.lattice
    assert orders.frobenius_pair_order(c).generators == (orders.alpha(c), orders.q_over_alpha(c))
    # at g = 3 the pair order is strictly larger than Z[alpha]
    c3 = weil.make_context(2, 1, 3, [1, -2, 1, 1, 2, -8, 8])
    o3 = orders.frobenius_pair_order(c3)
    assert o3.lattice == _pair_span(c3)
    assert orders.lattice_index(IdealLattice.standard(c3), o3.lattice) == 8


def _pair_span(ctx):
    """Z[alpha, q/alpha] as the span of alpha^i (q/alpha)^j, 0 <= i, j < n:
    f is monic, so every higher power of either reduces into these."""
    a, abar = orders.alpha(ctx), orders.q_over_alpha(ctx)
    apow, bpow = [orders.one(ctx)], [orders.one(ctx)]
    for _ in range(ctx.n - 1):
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * abar)
    return IdealLattice.from_elements(ctx, [x * y for x in apow for y in bpow])


def _sextics(seed: int, count: int):
    """Seeded Weil sextics t^3 h(t + q/t), h a monic cubic with small
    coefficients (some of them products of linear factors, so reducible)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice((2, 3, 4, 5, 7))
        b = isqrt(4 * q)
        if rng.randrange(2):
            r1, r2, r3 = (rng.randint(-b, b) for _ in range(3))
            h = (-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3, -(r1 + r2 + r3))
        else:
            h = (rng.randint(-3 * q, 3 * q), rng.randint(-2 * q, 2 * q), rng.randint(-b, b))
        h0, h1, h2 = h
        # t^3 h(t + q/t) = t^6 + h2 t^5 + (3q + h1) t^4 + (2q h2 + h0) t^3 + ...
        f = [1, h2, 3 * q + h1, 2 * q * h2 + h0, q * (3 * q + h1), q * q * h2, q ** 3]
        ctx = weil.make_context(*weil.prime_power_split(q), 3, f)
        if ctx.is_weil:
            out.append(ctx)
    return out


def test_frobenius_pair_order_matches_power_span():
    # the basis beta^i, beta^i alpha against the independent span of all
    # alpha^i (q/alpha)^j, on irreducible and reducible Weil input alike
    contexts = list(corpus_contexts())
    for p in (2, 3, 5):
        contexts += weil.enumerate_weil_contexts(p, 1, 2)
    contexts += _sextics(31, 60)
    for ctx in contexts:
        lat = orders.frobenius_pair_order(ctx).lattice
        assert lat == _pair_span(ctx), ctx.f
        # [Z[alpha, q/alpha] : Z[alpha]] = q^(g(g-1)/2)
        index = orders.lattice_index(IdealLattice.standard(ctx), lat)
        assert index == ctx.q ** (ctx.g * (ctx.g - 1) // 2), ctx.f
    assert any(not ctx.is_irreducible for ctx in contexts if ctx.g == 2)
    assert any(not ctx.is_irreducible for ctx in contexts if ctx.g == 3)


def test_frobenius_pair_order_refuses_non_weil():
    for p, g, f in ((2, 1, [1, 5, 2]),  # root location: real roots -4.56 and -0.44
                    (2, 1, [1, 1, 3]),  # constant term
                    (3, 2, [1, 1, 1, 1, 9])):  # functional equation
        ctx = weil.make_context(p, 1, g, f)
        assert not ctx.is_weil
        with pytest.raises(InputError) as e:
            orders.frobenius_pair_order(ctx)
        assert e.value.code == "not_weil"


def test_order_verification():
    c = ctx2()
    with pytest.raises(ConsistencyError):
        orders.OrderDesc(IdealLattice.from_rows(c, [[2, 0], [0, 1]]), ())  # no 1
    with pytest.raises(ConsistencyError):
        # contains 1 but (alpha/2)^2 escapes
        orders.OrderDesc(IdealLattice.from_rows(c, [[1, 0], [0, Fraction(1, 2)]]), ())


def test_multiplicator_ring():
    c = ctx5()
    std = IdealLattice.standard(c)
    assert orders.multiplicator_ring(std).lattice == std
    bigger = orders.multiplicator_ring(IdealLattice.from_rows(c, [[1, 1], [0, 2]]))
    assert (bigger.lattice.den, bigger.lattice.mat) == (2, ((1, 1), (0, 2)))
    # invariant under scaling the ideal
    scaled = IdealLattice.from_rows(c, [[1, 1], [0, 2]]).scale(make_element(c, [3, 1]))
    assert orders.multiplicator_ring(scaled).lattice == bigger.lattice


@cache
def _g1_ideals(ctx) -> tuple[IdealLattice, ...]:
    o = orders.OrderDesc(IdealLattice.standard(ctx), (orders.alpha(ctx),))  # Z[F, V] if Weil
    return tuple(IdealLattice.over(ctx, t, 1)
                 for t in icm.integral_ideals(o, 4 * icm.minkowski_index_bound(o)))


# irreducible g = 1 contexts over F_2 that are not Weil: three real
# quadratic fields, and three imaginary ones where N(alpha) = f(0) is not q
_NON_WEIL_G1 = [weil.make_context(2, 1, 1, f)
                for f in ([1, 5, 2], [1, 0, -2], [1, 1, -1], [1, 0, 1], [1, 0, 3], [1, 1, 3])]


def _draw_g1_lattice(ctx, kind, data) -> IdealLattice:
    """An integral ideal of Z[alpha], one scaled by a random x, or ("any")
    a random lattice that alpha need not map into itself."""
    if kind == "any":
        entries = st.integers(-40, 40)
        rows = data.draw(st.lists(st.lists(entries, min_size=2, max_size=2), min_size=2,
                                  max_size=3).filter(lambda r: linalg.determinant(r[:2])))
        return IdealLattice.over(ctx, rows, data.draw(st.integers(1, 12)))
    lat = data.draw(st.sampled_from(_g1_ideals(ctx)))
    if kind == "scaled":
        coords = st.lists(st.fractions(-9, 9, max_denominator=7), min_size=2, max_size=2)
        lat = lat.scale(make_element(lat.ctx, data.draw(coords.filter(any))))
    return lat


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(list(g1_contexts(64))), st.sampled_from(_NON_WEIL_G1)),
       st.sampled_from(("ideal", "scaled", "any")), st.data())
def test_g1_multiplicator_ring_matches_colon_ring(ctx, kind, data):
    # the fact icm reads g = 1 rings by: the reduced form of a lattice has
    # the discriminant of its multiplicator ring, the colon ideal (L : L),
    # and as an order of a quadratic field is fixed by its discriminant,
    # that discriminant is disc(Z[alpha]) exactly when the ring is Z[alpha].
    # It holds for every lattice: integral ideals, their rational scalings,
    # and lattices that alpha does not map into themselves, in every
    # quadratic field, where N(alpha) = f(0)
    assert ctx.is_irreducible
    lat = _draw_g1_lattice(ctx, kind, data)
    ring = orders.multiplicator_ring.__wrapped__(lat)
    assert ring.lattice == orders.ideal_quotient(lat, lat)
    a, b, c = orders.form_key(lat)
    disc = orders.discriminant(ring)
    assert b * b - 4 * a * c == disc
    std = _standard_order(ctx)
    assert (disc == orders.discriminant(std)) == (ring.lattice == std.lattice)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(list(g1_contexts(64))), st.sampled_from(("scaled", "any")),
       st.booleans(), st.data())
def test_g1_equivalence_status_is_the_search_status(ctx, kind, moved, data):
    # ideal_equivalent decides g = 1 pairs by the reduced form and reads the
    # witness u_b / u_a off the reduced bases; the certified search, which
    # reads no form, reaches the same status on pairs of scaled ideals, on
    # pairs of lattices that alpha does not map into themselves, and on a
    # lattice against a scaled copy of itself.  Both witnesses carry a to b,
    # so they differ by a unit of the common multiplicator ring
    a = _draw_g1_lattice(ctx, kind, data)
    if moved:
        coords = st.lists(st.fractions(-9, 9, max_denominator=7), min_size=2, max_size=2)
        b = a.scale(make_element(ctx, data.draw(coords.filter(any))))
    else:
        b = _draw_g1_lattice(ctx, kind, data)
    r, search = orders.ideal_equivalent(a, b), orders._witness_search(a, b)
    assert r.status == search.status
    if r.status == "equivalent":
        assert a.scale(r.witness) == b == a.scale(search.witness)
        unit, ring = r.witness * search.witness.inverse(), orders.multiplicator_ring(a).lattice
        assert unit in ring and unit.inverse() in ring



def test_discriminants():
    assert orders.discriminant(_standard_order(ctx2())) == -7
    c5 = ctx5()
    assert orders.discriminant(_standard_order(c5)) == -16
    maximal = orders.multiplicator_ring(IdealLattice.from_rows(c5, [[1, 1], [0, 2]]))
    assert orders.discriminant(maximal) == -4


def test_discriminant_matches_gram_route():
    # Z[F, V] of the corpus contexts, of every g = 1 context with q <= 128
    # and of every ordinary irreducible quartic over F_5, then the
    # multiplicator rings of the corpus classes, whose covolumes are not 1
    corpus = list(corpus_contexts())
    contexts = [*corpus, *g1_contexts(128),
                *weil.enumerate_weil_contexts(5, 1, 2, ordinary=True, irreducible=True)]
    rings = [orders.frobenius_pair_order(ctx) for ctx in contexts]
    for ring in rings[:len(corpus)]:
        rings += [orders.multiplicator_ring(c) for c in icm.enumerate_icm(ring).classes]
    assert len(contexts) == 1176
    assert any(ring.lattice.covolume() != 1 for ring in rings if ring.ctx.g == 1)
    for ring in rings:
        assert orders.discriminant(ring) == discriminant_gram(ring), ring.ctx.f


def test_equivalence_quadratic():
    c = ctx2()
    std = IdealLattice.standard(c)
    alat = std.scale(orders.alpha(c))
    r = orders.ideal_equivalent(std, alat)
    assert r.status == "equivalent"
    assert std.scale(r.witness) == alat
    assert orders.ideal_equivalent(std, std).status == "equivalent"
    # same class both directions
    back = orders.ideal_equivalent(alat, std)
    assert back.status == "equivalent"
    assert alat.scale(back.witness) == std


def test_equivalence_distinct_rings_short_circuit():
    # at g = 1 the reduced forms, whose discriminants are those of the
    # rings, differ and decide before any search; at g = 2 the certified
    # search decides
    c = ctx5()
    std = IdealLattice.standard(c)
    other = IdealLattice.from_rows(c, [[1, 1], [0, 2]])
    r = orders.ideal_equivalent(std, other)
    assert r.status == "not_equivalent"
    assert r.witness is None


def test_g1_equal_keys_without_a_witness_raise(monkeypatch):
    # at g = 1 the reduced forms decide and the witness u_b / u_a is read
    # off the reduced bases, then certified: a witness that does not carry
    # a to b, from a broken reduction or a broken scaling, is a consistency
    # failure, never an answer
    c = ctx5()
    std = IdealLattice.standard(c)
    moved = std.scale(make_element(c, [1, 1]))
    assert orders.form_key(std) == orders.form_key(moved)
    assert orders.ideal_equivalent(std, moved).status == "equivalent"
    reduced = orders._reduced_form
    with monkeypatch.context() as patch:
        patch.setattr(orders, "_reduced_form", lambda lat: (reduced(lat)[0], (lat.den, 0)))
        with pytest.raises(ConsistencyError):
            orders.ideal_equivalent(std, moved)
    with monkeypatch.context() as patch:
        patch.setattr(IdealLattice, "scale", lambda lat, x: lat)
        with pytest.raises(ConsistencyError):
            orders.ideal_equivalent(std, moved)


def test_equivalence_certified_negative():
    # discriminant -15 has class number 2: the prime over 2 is not
    # principal, and the exhausted definite search proves it (no
    # indeterminate escape hatch in the quadratic branch)
    c = weil.make_context(2, 2, 1, [1, 1, 4])
    std = IdealLattice.standard(c)
    two = std.scale(make_element(c, [2]))
    p2 = ideal_sum(two, std.scale(orders.alpha(c)))
    assert (p2.den, p2.mat) == (1, ((2, 0), (0, 1)))
    assert orders.multiplicator_ring(p2).lattice == std
    r = orders.ideal_equivalent(std, p2)
    assert r.status == "not_equivalent"
    # its square is principal, generated by alpha
    r2 = orders.ideal_equivalent(std, orders.ideal_product(p2, p2))
    assert r2.status == "equivalent"
    assert r2.witness.coeffs == (Fraction(0), Fraction(1))


def test_equivalence_witness_norm_matches_index():
    c = ctx5()
    std = IdealLattice.standard(c)
    moved = std.scale(make_element(c, [1, 1]))
    r = orders.ideal_equivalent(std, moved)
    assert r.status == "equivalent"
    assert abs(norm(r.witness)) == orders.lattice_index(moved, std)


def test_equivalence_quartic_heuristic():
    c = quartic_ctx()
    std = IdealLattice.standard(c)
    moved = std.scale(orders.alpha(c))
    r = orders.ideal_equivalent(std, moved)
    assert r.status == "equivalent"
    assert std.scale(r.witness) == moved


def test_equivalence_quartic_certified_negative():
    # same multiplicator ring and no witness: the exhausted search is a proof
    # (values frozen from the t^4 + t^2 + 4 class list over F_2)
    c = weil.make_context(2, 1, 2, [1, 0, 1, 0, 4])
    a = IdealLattice(c, 2, ((2, 0, 0, 0), (0, 1, 0, 1), (0, 0, 2, 0), (0, 0, 0, 2)))
    b = IdealLattice(c, 2, ((2, 0, 0, 2), (0, 1, 0, 1), (0, 0, 2, 2), (0, 0, 0, 4)))
    assert orders.multiplicator_ring(a).lattice == orders.multiplicator_ring(b).lattice
    for x, y in ((a, b), (b, a)):
        r = orders.ideal_equivalent(x, y)
        assert r.status == "not_equivalent"
        assert r.witness is None and r.search_bound is None


def _real_unit(c):
    """A unit s + w beta != +-1 of Z[beta], beta = alpha + q/alpha, by brute
    force: beta^2 + a1 beta + (a2 - 2q) = 0 gives the norm s^2 - a1 s w +
    (a2 - 2q) w^2."""
    a1, a2 = c.f[1], c.f[2]
    for w in range(1, 50):
        for s in range(-50 * w, 50 * w + 1):
            if abs(s * s - a1 * s * w + (a2 - 2 * c.q) * w * w) == 1:
                return make_element(c, [s]) + w * (orders.alpha(c) + orders.q_over_alpha(c))
    raise AssertionError("no small real unit")


@pytest.mark.parametrize("p, coeffs", [
    (2, [1, 1, 1, 2, 4]),
    (2, [1, 0, 1, 0, 4]),
    (3, [1, -1, 1, -3, 9]),
])
def test_equivalence_quartic_principal_multiples(p, coeffs):
    # q/alpha is not in Z[alpha], so a unit of Z[alpha + q/alpha] need not
    # lie in the multiplicator ring Z[alpha]: x * Z[alpha] with x = y * u^j
    # is reached only through the least power of the unit that does
    c = weil.make_context(p, 1, 2, coeffs)
    std = IdealLattice.standard(c)
    unit = _real_unit(c)
    assert orders.q_over_alpha(c) not in std and unit not in std
    rng = random.Random(2001)
    for _ in range(12):
        x = make_element(c, [rng.randint(-4, 4) for _ in range(4)])
        if x.is_zero():
            continue
        for _ in range(rng.randint(0, 3)):
            x = x * unit
        moved = std.scale(x)
        r = orders.ideal_equivalent(std, moved)
        assert r.status == "equivalent", x.coeffs
        assert std.scale(r.witness) == moved
        assert next(v for v in r.witness.coeffs if v) > 0


@pytest.mark.parametrize("p, coeffs", [
    (2, [1, 0, 1, 0, 4]),
    (3, [1, -1, 1, -3, 9]),
    (5, [1, 0, -1, 0, 25]),
])
def test_equivalence_quartic_unit_scan_agrees_with_one_search(p, coeffs, monkeypatch):
    # the weighted scan used for large units and the one search under the
    # whole unit range must reach the same, correct verdicts: each class
    # against a moved copy of every class
    c = weil.make_context(p, 1, 2, coeffs)
    classes = icm.enumerate_icm(orders.frobenius_pair_order(c), index_bound=6).classes
    assert len(classes) >= 2
    rng = random.Random(2001)
    pairs = []
    for i, x in enumerate(classes):
        for j, y in enumerate(classes):
            z = make_element(c, [rng.randint(-3, 3) for _ in range(3)] + [1])
            pairs.append((x, y.scale(z), i == j))
    for scan_from in (0, 10**9):
        monkeypatch.setattr(orders, "UNIT_SCAN_FROM", scan_from)
        for x, y, same in pairs:
            r = orders.ideal_equivalent(x, y)
            assert r.status == ("equivalent" if same else "not_equivalent")
            if same:
                assert x.scale(r.witness) == y


def test_equivalence_quartic_huge_unit():
    # Z[alpha + q/alpha] = Z[sqrt(46)], fundamental unit 24335 + 3588 sqrt(46):
    # one search under the whole unit range would run to about 1e5 sqrt(T),
    # the weighted scan decides each pair at once
    c = weil.make_context(2, 4, 2, [1, 2, -13, 32, 256])
    classes = icm.enumerate_icm(orders.frobenius_pair_order(c), index_bound=2).classes
    assert len(classes) == 3
    for x, y in permutations(classes, 2):
        assert orders.ideal_equivalent(x, y).status == "not_equivalent"
    root = orders.alpha(c) + orders.q_over_alpha(c) + orders.one(c)  # +-sqrt(46)
    unit = make_element(c, [24335]) + 3588 * root
    assert norm(unit) == 1
    moved = classes[1].scale(unit * unit * (orders.alpha(c) + orders.one(c)))
    r = orders.ideal_equivalent(classes[1], moved)
    assert r.status == "equivalent"
    assert classes[1].scale(r.witness) == moved


def test_equivalence_sextic_finds_witness():
    c = weil.make_context(2, 1, 3, [1, -2, 1, 1, 2, -8, 8])
    std = IdealLattice.standard(c)
    moved = std.scale(orders.alpha(c))
    r = orders.ideal_equivalent(std, moved)
    assert r.status == "equivalent"
    assert std.scale(r.witness) == moved


def test_equivalence_sextic_indeterminate():
    # g = 3: with no witness within the heuristic bound 4 n ceil(T^(1/3)) the
    # pair is reported, not decided (values frozen from the class list of
    # t^6 - t^5 + 2t^4 - t^3 + 4t^2 - 4t + 8 over F_2 at index bound 4)
    c = weil.make_context(2, 1, 3, [1, -1, 2, -1, 4, -4, 8])
    a = IdealLattice(c, 4, ((4, 0, 0, 0, 0, 0), (0, 2, 0, 2, 2, 0), (0, 0, 1, 2, 1, 3),
                            (0, 0, 0, 4, 0, 0), (0, 0, 0, 0, 4, 0), (0, 0, 0, 0, 0, 4)))
    b = IdealLattice(c, 4, ((4, 0, 0, 0, 0, 4), (0, 2, 0, 2, 2, 4), (0, 0, 1, 2, 1, 3),
                            (0, 0, 0, 4, 0, 8), (0, 0, 0, 0, 4, 4), (0, 0, 0, 0, 0, 12)))
    assert orders.multiplicator_ring(a).lattice == orders.multiplicator_ring(b).lattice
    assert orders.lattice_index(b, a) == 3
    r = orders.ideal_equivalent(a, b)
    assert r.status == "indeterminate"
    assert r.search_bound == 4 * 6 * 2  # ceil(3^(1/3)) = 2
    assert r.witness is None


def test_element_charpoly_has_integer_coeffs_for_integral_elements():
    c = quartic_ctx()
    a = orders.alpha(c)
    assert is_integral(a)
    assert a.charpoly() == tuple(Fraction(x) for x in (4, 2, 1, 1, 1))
    v = orders.q_over_alpha(c)
    assert is_integral(v)  # Verschiebung is integral even off Z[alpha]


def _quotient_by_intersection(a, b):
    """(a : b) as the intersection of the a * b_j^-1 over a basis of b."""
    result = None
    for e in b.elements:
        lat = a.scale(e.inverse())
        result = lat if result is None else ideal_intersection(result, lat)
    return result


def test_ideal_quotient_matches_intersection_of_scaled_copies():
    contexts = [c for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
                for c in weil.enumerate_weil_contexts(p, r, 1, ordinary=True, irreducible=True)]
    contexts += weil.enumerate_weil_contexts(2, 1, 2, ordinary=True, irreducible=True)[:10]
    pairs = 0
    for c in contexts:
        result = icm.enumerate_icm(orders.frobenius_pair_order(c))
        lattices = list(dict.fromkeys(result.classes + result.multiplicator_rings))
        for a in lattices:
            for b in lattices:
                assert orders.ideal_quotient(a, b) == _quotient_by_intersection(a, b), (c.f, a, b)
                pairs += 1
    assert len(contexts) == 52 and pairs == 237


def test_ideal_quotient_reads_no_cofactors(monkeypatch):
    # both inverses come from linalg.inverse_pair, O(n^3), not from adjugates
    c = quartic_ctx()
    lattices = icm.enumerate_icm(orders.frobenius_pair_order(c)).classes
    lattices += (lattices[-1].scale(make_element(c, [Fraction(1, 3), 1, 0, Fraction(-1, 2)])),)
    want = {(a, b): _quotient_by_intersection(a, b) for a in lattices for b in lattices}

    def refuse(a):
        raise AssertionError("adjugate called")

    monkeypatch.setattr(linalg, "_leverrier", refuse)
    for (a, b), q in want.items():
        assert orders.ideal_quotient(a, b) == q


@cache
def _corpus_results() -> tuple[icm.IcmResult, ...]:
    return tuple(icm.enumerate_icm(orders.frobenius_pair_order(ctx)) for ctx in corpus_contexts())


@cache
def _corpus_classes(g: int) -> tuple[IdealLattice, ...]:
    return tuple(lat for result in _corpus_results() if result.order.ctx.g == g
                 for lat in result.classes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((1, 2)), st.data())
def test_equivalence_finds_a_witness_for_any_scaling(g, data):
    # a corpus class against a copy scaled by a random nonzero x
    a = data.draw(st.sampled_from(_corpus_classes(g)))
    coords = st.lists(st.fractions(-4, 4, max_denominator=3), min_size=a.ctx.n, max_size=a.ctx.n)
    x = make_element(a.ctx, data.draw(coords.filter(any)))
    r = orders.ideal_equivalent(a, a.scale(x))
    assert r.status == "equivalent"
    assert a.scale(r.witness) == a.scale(x)


def test_equivalence_agrees_with_the_ring_first_decision_on_corpus_lattices():
    # on every ordered pair of the class representatives and multiplicator
    # rings of each corpus context (g = 1 and g = 2) ideal_equivalent reaches
    # the status of the decision that compares the rings first, each witness
    # carries a to b, and where the rings differ the certified search alone,
    # with no ring, proves inequivalence
    pairs = distinct = 0
    for result in _corpus_results():
        lattices = list(dict.fromkeys(result.classes + result.multiplicator_rings))
        for a in lattices:
            for b in lattices:
                r, want = orders.ideal_equivalent(a, b), ring_first_equivalent(a, b)
                assert r.status == want.status, (a, b)
                assert r.witness is None or a.scale(r.witness) == b, (a, b)
                pairs += 1
                if orders.multiplicator_ring(a) != orders.multiplicator_ring(b):
                    assert orders._witness_search(a, b).status == "not_equivalent", (a, b)
                    distinct += 1
    assert pairs == 285 and distinct == 96


def test_equivalence_agrees_with_the_ring_first_decision_on_conjugate_pairs():
    # the lattices of U M U^-1 and of M, as matrices_conjugate tests them,
    # for M the matrix of a corpus class and U seeded with entries <= 5
    reps = [(lat.ctx, conjugacy.ideal_to_matrix(lat).rep)
            for result in _corpus_results() for lat in result.classes]
    rng = random.Random(27)
    searched = 0
    for k in range(200):
        ctx, m = reps[k % len(reps)]
        moved = conjugate(m, random_unimodular(rng, ctx.n))
        a, b = conjugacy.matrix_to_ideal(ctx, moved), conjugacy.matrix_to_ideal(ctx, m)
        r = orders.ideal_equivalent(a, b)
        assert r.status == "equivalent" == ring_first_equivalent(a, b).status, (ctx.f, moved)
        assert a.scale(r.witness) == b, (ctx.f, moved)
        searched += a != b
    assert searched == 167


def test_equivalence_agrees_with_the_ring_first_decision_on_distinct_rings():
    # the g = 1 lattices above whose rings differ, both ways round: the
    # discriminants of their reduced forms differ, as their rings do
    c = ctx5()
    std = IdealLattice.standard(c)
    other = IdealLattice.from_rows(c, [[1, 1], [0, 2]])
    maximal = orders.multiplicator_ring(other).lattice
    scaled = other.scale(make_element(c, [3, 1]))
    pairs = [(a, b) for a, b in permutations((std, other, maximal, scaled), 2)
             if orders.multiplicator_ring(a) != orders.multiplicator_ring(b)]
    assert len(pairs) == 6  # Z[alpha] against each lattice of the maximal order, both ways
    for a, b in pairs:
        r = orders.ideal_equivalent(a, b)
        assert r == orders.EquivalenceResult("not_equivalent") == ring_first_equivalent(a, b)


def test_equivalence_sextic_distinct_rings():
    # g = 3: Z[F, V] of t^6 - t^5 + t^4 - 3t^3 + 2t^2 - 4t + 8 over F_2 is
    # not 2-maximal, and its three classes of index at most 2 have three
    # different multiplicator rings.  The heuristic search ends indeterminate
    # on every pair, and the rings, compared then, prove inequivalence
    c = weil.make_context(2, 1, 3, [1, -1, 1, -3, 2, -4, 8])
    result = icm.enumerate_icm(orders.frobenius_pair_order(c), index_bound=2)
    assert len(set(result.multiplicator_rings)) == len(result.classes) == 3
    for a, b in permutations(result.classes, 2):
        assert orders._witness_search(a, b).status == "indeterminate"
        r = orders.ideal_equivalent(a, b)
        assert r == orders.EquivalenceResult("not_equivalent") == ring_first_equivalent(a, b)


def test_real_unit_is_read_off_any_lattice_with_the_ring():
    # eta is the least power of eps that maps L into itself: for every ring
    # S reached on the 20 corpus quartics, S and each class with ring S
    # give the same eta
    rings = 0
    for result in _corpus_results():
        ctx = result.order.ctx
        if ctx.g != 2:
            continue
        a1, a2 = ctx.f_low[3], ctx.f_low[2]
        d = a1 * a1 - 4 * (a2 - 2 * ctx.q)
        beta = orders.alpha(ctx) + orders.q_over_alpha(ctx)
        traces = {}
        for lat, ring in zip(result.classes, result.multiplicator_rings):
            if ring not in traces:
                traces[ring] = orders._real_unit_trace(ring, d, beta)
            assert orders._real_unit_trace(lat, d, beta) == traces[ring], (ctx.f, lat)
        rings += len(traces)
    assert rings == 26


# Reference arithmetic on Fraction coordinates, independent of the integer
# representation: convolve, then reduce by alpha^n = -(f_0 + ... + f_{n-1} alpha^{n-1}).


def _ref_mul(ctx, x, y):
    n = ctx.n
    conv = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            conv[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        for j in range(n):
            conv[k - n + j] -= conv[k] * ctx.f_low[j]
    return tuple(conv[:n])


def _ref_trace(ctx, x):
    # the diagonal of multiplication by x on the power basis
    return sum(_ref_mul(ctx, [int(j == k) for j in range(ctx.n)], x)[k] for k in range(ctx.n))


@cache
def _corpus_contexts_up_to_g2():
    return tuple(corpus_contexts())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_element_arithmetic_matches_fraction_reference(data):
    ctx = data.draw(st.sampled_from(_corpus_contexts_up_to_g2()))
    coords = st.lists(st.fractions(-20, 20, max_denominator=12), min_size=ctx.n, max_size=ctx.n)
    xs, ys = data.draw(coords), data.draw(coords)
    x, y = make_element(ctx, xs), make_element(ctx, ys)
    assert x.coeffs == tuple(xs)
    checks = [(x + y, tuple(a + b for a, b in zip(xs, ys))),
              (x - y, tuple(a - b for a, b in zip(xs, ys))),
              (x * y, _ref_mul(ctx, xs, ys))]
    if any(xs):
        inv = x.inverse()
        assert _ref_mul(ctx, xs, inv.coeffs) == tuple(Fraction(int(k == 0)) for k in range(ctx.n))
        checks.append((inv, inv.coeffs))
    for got, want in checks:
        assert got.coeffs == want
        # lowest terms: equal elements are equal pairs, so they compare and hash equal
        assert got.den > 0 and gcd(got.den, *got.num) == 1
        same = make_element(ctx, want)
        assert got == same and hash(got) == hash(same)
    assert x.trace() == _ref_trace(ctx, xs)


def test_element_and_lattice_arithmetic_construct_no_fraction(monkeypatch):
    # +, -, *, coords and elements work on integer numerators over one
    # denominator; only the coeffs view and the rational surface build Fractions
    c = quartic_ctx()
    x = make_element(c, [Fraction(1, 2), 3, Fraction(-5, 6), 1])
    y = make_element(c, [2, Fraction(1, 3), 0, Fraction(7, 4)])
    lat = IdealLattice.from_rows(c, [[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, 3]])
    half = Fraction(1, 2)

    def refuse(*args):
        raise AssertionError("Fraction constructed")

    monkeypatch.setattr(orders, "Fraction", refuse)
    z = (x + y) * (x - y) * x * half - 2 * y
    assert lat.coords(z) is None
    assert [lat.coords(e) for e in lat.elements] == [[int(i == j) for j in range(4)]
                                                     for i in range(4)]
    assert lat.scale(z) != lat and not (-z).is_zero()
    monkeypatch.undo()
    want = _ref_mul(c, [a + b for a, b in zip(x.coeffs, y.coeffs)],
                    [a - b for a, b in zip(x.coeffs, y.coeffs)])
    want = _ref_mul(c, want, x.coeffs)
    assert z.coeffs == tuple(w / 2 - 2 * b for w, b in zip(want, y.coeffs))


# one Weil context of each degree n = 2, 4, 6
_ONE_CONTEXT_PER_DEGREE = (ctx2(), quartic_ctx(),
                           weil.make_context(2, 1, 3, [1, -2, 1, 1, 2, -8, 8]))


@pytest.mark.parametrize("ctx", _ONE_CONTEXT_PER_DEGREE, ids=lambda ctx: f"n{ctx.n}")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("rational", "integral", "ring")), st.data())
def test_one_multiplication_matches_products(ctx, kind, data):
    # products, scalings, ideal products and multiplication matrices all
    # read off FieldElement.mult_matrix; the convolution product, and
    # per-basis products located by coords, are the references.  x is a
    # rational element (integral or not), an integral one, or an element of
    # the ring (L : L), the one kind of x that preserves L
    n = ctx.n

    def vectors(entries, size):
        return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=size, max_size=size)

    def lattice():
        # every lattice has an upper triangular basis with positive diagonal
        rows = data.draw(vectors(st.integers(-9, 9), n))
        for i, row in enumerate(rows):
            row[:i + 1] = [0] * i + [data.draw(st.integers(1, 9))]
        return IdealLattice.over(ctx, rows, data.draw(st.integers(1, 6)))

    xs, ys = data.draw(vectors(st.fractions(-6, 6, max_denominator=4), 2))
    x, y = make_element(ctx, xs), make_element(ctx, ys)
    assert x * y == convolution_product(x, y)
    lat, other = lattice(), lattice()
    ring = orders.ideal_quotient(lat, lat)
    if kind == "integral":
        x = make_element(ctx, [c.numerator for c in xs])
    elif kind == "ring":
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        x = sum((c * e for c, e in zip(coeffs, ring.elements)), zero(ctx))
    mat = orders.multiplication_matrix(x, lat)
    assert mat == products_matrix(x, lat)
    assert (mat is not None) == (x in ring)
    if kind == "ring":
        assert mat is not None
    if not x.is_zero():
        assert lat.scale(x) == products_scale(lat, x)
    assert orders.ideal_product(lat, other) == products_ideal_product(lat, other)


@pytest.mark.parametrize("ctx", _ONE_CONTEXT_PER_DEGREE, ids=lambda ctx: f"n{ctx.n}")
def test_conj_power_rows_match_convolution(ctx):
    # the witness search conjugates x as x.num times these rows over d * x.den:
    # row k is conj(alpha^k) by the convolution reference, and the map is an
    # involution that sends alpha to q / alpha, so alpha * conj(alpha) = q
    d, rows = orders._conj_power_rows(ctx)
    power = orders.one(ctx)
    for row in rows:
        assert FieldElement.over(ctx, row, d) == convolution_conj(power)
        power = power * orders.alpha(ctx)

    def conj(x):
        (num,) = linalg.mat_mul([x.num], rows)
        return FieldElement.over(ctx, num, d * x.den)

    a = orders.alpha(ctx)
    assert conj(a) == orders.q_over_alpha(ctx)
    assert a * conj(a) == make_element(ctx, [ctx.q])
    rng = random.Random(ctx.n)
    for _ in range(20):
        x = make_element(ctx, [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                    for _ in range(ctx.n)])
        assert conj(conj(x)) == x



def test_weight_matrix_is_the_trace_form(monkeypatch):
    # T_w[k][l] = q^min(k, l) Tr(w alpha^|k - l|), its traces read off the
    # power sums, is Tr(w alpha^k conj(alpha^l)) for real w: w = 1 and every
    # scan weight gamma^j on the corpus quartics, and w = 1 and powers of
    # beta = alpha + q/alpha at g = 3
    monkeypatch.setattr(orders, "UNIT_SCAN_FROM", 0)  # every quartic scans
    cases = []
    for ctx in corpus_contexts():
        if ctx.g == 2:
            _, weights = orders._search_weights(orders.frobenius_pair_order(ctx).lattice)
            assert weights[0][0] == orders.one(ctx)
            cases += [(w, t_w) for w, t_w, _ in weights]
    ctx = _ONE_CONTEXT_PER_DEGREE[2]
    beta = orders.alpha(ctx) + orders.q_over_alpha(ctx)
    cases += [(w, orders._weight_matrix(w)) for w in (orders.one(ctx), beta, beta * beta)]
    assert len(cases) == 149
    for w, t_w in cases:
        ctx = w.ctx
        d, rows = orders._conj_power_rows(ctx)
        powers = [orders.one(ctx)]
        for _ in range(ctx.n - 1):
            powers.append(powers[-1] * orders.alpha(ctx))
        conj_powers = [FieldElement.over(ctx, row, d) for row in rows]
        assert t_w == [[(w * x * y).trace() for y in conj_powers] for x in powers], ctx.f
