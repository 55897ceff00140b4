"""Context validation: root location, ordinariness, irreducibility,
enumeration completeness at desk scale."""

import random
import time
from math import isqrt

import pytest
import sympy

from avcyclic import polynomials as poly
from avcyclic import orders, weil
from avcyclic.errors import CapabilityError, InputError

from _helpers import validate_weil


def test_prime_helpers():
    assert [n for n in range(2, 30) if weil.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not weil.is_prime(1)
    assert not weil.is_prime(0)
    assert weil.prime_factors(360) == [2, 3, 5]
    assert weil.prime_factors(97) == [97]
    assert weil.prime_power_split(8) == (2, 3)
    assert weil.prime_power_split(9) == (3, 2)
    assert weil.prime_power_split(7) == (7, 1)
    assert weil.prime_power_split(6) is None
    assert weil.prime_power_split(1) is None
    # integer roots, no factor search: a large prime power splits at once,
    # and a root above MILLER_RABIN_BOUND is refused, not trial-divided
    assert weil.prime_power_split(3**40) == (3, 40)
    with pytest.raises(CapabilityError):
        weil.prime_power_split(2**89 - 1)


def test_make_context_basic_flags():
    ctx = weil.make_context(2, 1, 1, [1, 1, 2])
    assert (ctx.p, ctx.r, ctx.q, ctx.g, ctx.n) == (2, 1, 2, 1, 2)
    assert ctx.is_weil and ctx.weil_reason is None
    assert ctx.is_ordinary and ctx.is_irreducible
    assert ctx.point_count == 4
    assert ctx.f_low == (2, 1, 1)


def test_make_context_rejects_bad_input():
    with pytest.raises(InputError) as e:
        weil.make_context(4, 1, 1, [1, 1, 4])
    assert e.value.code == "p_not_prime"
    with pytest.raises(InputError) as e:
        weil.make_context(2, 0, 1, [1, 1, 2])
    assert e.value.code == "bad_extension"
    with pytest.raises(InputError) as e:
        weil.make_context(2, 1, 0, [1])
    assert e.value.code == "bad_dimension"
    with pytest.raises(InputError) as e:
        weil.make_context(2, 1, 1, [1, 1, 1, 2])
    assert e.value.code == "bad_degree"
    with pytest.raises(InputError) as e:
        weil.make_context(2, 1, 1, [1, "1", 2])
    assert e.value.code == "not_integer"
    with pytest.raises(InputError) as e:
        weil.make_context(2, 1, 1, [2, 1, 2])
    assert e.value.code == "not_monic"


def test_make_context_refuses_bool_input():
    # bool is an int: the input rule that ingest and the conversions apply
    # holds for p, r, g and the coefficients, so no document prints true
    for args in ((2, 1, 1, [True, 1, 2]), (2, 1, 1, [1, False, 2]), (True, 1, 1, [1, 1, 2]),
                 (2, True, 1, [1, 1, 2]), (2, 1, True, [1, 1, 2])):
        with pytest.raises(InputError) as e:
            weil.make_context(*args)
        assert e.value.code == "not_integer", args


def test_degree_cap_is_a_capability_error():
    with pytest.raises(CapabilityError):
        weil.make_context(2, 1, 5, [1] + [0] * 9 + [32])


def test_validate_weil_examples():
    # in: valid ordinary elliptic input
    assert validate_weil([1, -1, 2], 2)
    # boundary double root at +-2 sqrt(q) when q is a square
    assert validate_weil([1, -4, 4], 4)
    assert validate_weil([1, 4, 4], 4)
    # trace too large: roots leave the circle
    assert not validate_weil([1, -5, 2], 2)
    assert weil._weil_reason(poly.from_monic_first([1, -5, 2]), 2)[1] == "root_location"
    # wrong constant term
    assert not validate_weil([1, 0, -2], 2)
    assert weil._weil_reason(poly.from_monic_first([1, 0, -2]), 2)[1] == "constant_term"
    # odd degree never qualifies
    assert weil._weil_reason(poly.from_monic_first([1, 0, 0, -8]), 2)[1] == "bad_degree"
    # quartic functional equation violation: a3 must equal q * a1
    assert weil._weil_reason(poly.from_monic_first([1, 1, 1, 0, 4]), 2)[1] == "functional_equation"


def test_validate_weil_quartics():
    # (t^2 - 2)^2: repeated real roots at +-sqrt(2), still on the circle
    assert validate_weil([1, 0, -4, 0, 4], 2)
    ctx = weil.make_context(2, 1, 2, [1, 0, -4, 0, 4])
    assert ctx.is_weil and not ctx.is_ordinary and not ctx.is_irreducible
    # genuinely ordinary irreducible quartic over F_2
    ctx = weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])
    assert ctx.is_weil and ctx.is_ordinary and ctx.is_irreducible
    assert ctx.point_count == 9


def test_boundary_context_flags():
    ctx = weil.make_context(2, 2, 1, [1, -4, 4])
    assert ctx.is_weil
    assert not ctx.is_ordinary  # middle coefficient divisible by p
    assert not ctx.is_irreducible  # (t - 2)^2


def test_point_count_guard():
    ctx = weil.make_context(2, 1, 1, [1, -1, 2])
    assert ctx.point_count == 2
    # f(1) > 0 for every Weil f, reducible ones included: non-real root
    # pairs give |1 - alpha|^2 > 0 and the roots +-sqrt(q) come in pairs
    fields = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))
    seen = reducible = 0
    for p, r in fields:
        for g in (1, 2):
            for ctx in weil.enumerate_weil_contexts(p, r, g):
                assert ctx.point_count == poly.evaluate(ctx.f_low, 1) > 0, ctx.f
                seen += 1
                reducible += not ctx.is_irreducible
    assert seen > reducible > 0


def test_is_prime_matches_sympy():
    assert [n for n in range(10**5) if weil.is_prime(n)] == list(sympy.primerange(10**5))
    rng = random.Random(20261020)
    samples = [rng.randrange(10**5, weil.MILLER_RABIN_BOUND) for _ in range(300)]
    samples += [sympy.prevprime(x) * sympy.nextprime(x) for x in (10**6, 10**9, 10**12)]
    samples += [561, 41041, 825265, 321197185, 3215031751]  # Carmichael and base-2..7 liars
    for n in samples:
        assert weil.is_prime(n) == sympy.isprime(n), n
    assert weil.is_prime(10**18 + 3) and weil.is_prime(2**61 - 1)


def test_strong_pseudoprimes_are_composite():
    # 3825123056546413051 is a strong pseudoprime to the bases 2 .. 23, and
    # 318665857834031151167461 to every prime base up to 37
    for n in (3825123056546413051, 318665857834031151167461):
        assert not sympy.isprime(n)
        assert not weil.is_prime(n)
    with pytest.raises(CapabilityError):
        weil.is_prime(int(sympy.nextprime(weil.MILLER_RABIN_BOUND)))


def test_prime_factors_stop_at_a_prime_cofactor():
    # trial division stops once the cofactor 10^18 + 3 is prime, where it
    # would otherwise run towards 10^9
    start = time.monotonic()
    assert weil.prime_factors(2**40 * (10**18 + 3)) == [2, 10**18 + 3]
    assert weil.prime_factors(-(10**18 + 3)) == [10**18 + 3]
    assert time.monotonic() - start < 1
    rng = random.Random(7)
    for n in [rng.randrange(1, 10**9) for _ in range(200)] + [0, 1, 1849, 43 * 47 * 53]:
        assert weil.prime_factors(n) == sorted(sympy.primefactors(n)), n


def test_power_rows_and_trace_sums():
    ctx = weil.make_context(2, 1, 1, [1, 1, 2])
    # the rows of M(alpha) are alpha and alpha^2 = -2 - alpha
    assert orders.alpha(ctx).mult_matrix() == [[0, 1], [-2, -1]]
    # s0 = 2, s1 = -1, s2 = (sum)^2 - 2 prod = 1 - 4 = -3
    assert ctx.trace_sums == (2, -1, -3)
    assert all(type(s) is int for s in ctx.trace_sums)


def test_irreducibility_matches_sympy():
    t = sympy.Symbol("t")
    cases = [
        [1, -1, 2],
        [1, -4, 4],
        [1, 0, -4, 0, 4],
        [1, 1, 1, 2, 4],
        [1, -1, 2, -2, 4],
        [1, 0, 0, 0, 4],
        [1, 2, 3, 4, 4],
        [1, -2, 2, -6, 9],
        # (t^2 + t + 2)(t^2 - t + 2): a pair of degree-2 factors
        [1, 0, 3, 0, 4],
        # Weil octic over F_2, every sieve prime leaves [2, 2, 2, 2] or [4, 4]:
        # the degree-4 search runs over the Landau-Mignotte box, about 1.2e5
        # points with g(0) in {1, 2, 4}
        [1, 0, 0, 0, 1, 0, 0, 0, 16],
        # t^8 + 9t^4 + 16, irreducible and not Weil for any q; the sieve again
        # leaves degree 4 open
        [1, 0, 0, 0, 9, 0, 0, 0, 16],
        # a product of two quartics
        [1, -5, -1, -17, -36, -53, -10, 17, 20],
        # (t^4 + 1000)^2: the resultant of f and f' vanishes
        [1, 0, 0, 0, 2000, 0, 0, 0, 1000000],
    ]
    for coeffs in cases:
        expected = sympy.Poly(coeffs, t).is_irreducible
        assert weil.is_irreducible(coeffs) == bool(expected), coeffs
    # make_context decides a Weil f through h; sympy factors f itself
    weil_cases = [(p, r, 2, f) for p, r in ((2, 1), (3, 1), (2, 2), (5, 1))
                  for f in (ctx.f for ctx in weil.enumerate_weil_contexts(p, r, 2))]
    weil_cases += _seeded_weil_sextics_and_octics()
    # h = s^2 - 4q is irreducible for non-square q, but h(2 sqrt q) = 0 and
    # f = t^4 - 2q t^2 + q^2 = (t^2 - q)^2
    weil_cases += [(p, 1, 2, [1, 0, -2 * p, 0, p * p]) for p in (2, 3, 5, 7)]
    verdicts = set()
    for p, r, g, f in weil_cases:
        ctx = weil.make_context(p, r, g, f)
        assert ctx.is_weil, f
        expected = bool(sympy.Poly(f, t).is_irreducible)
        verdicts.add((g, expected))
        assert ctx.is_irreducible == expected, (p, r, f)
    assert verdicts == {(g, v) for g in (2, 3, 4) for v in (True, False)}


def _seeded_weil_sextics_and_octics():
    """(p, r, g, f) for Weil polynomials of degree 6 and 8: products of Weil
    factors of lower degree over the same field, and t^g h(t + q/t) for h with
    integer roots in [-2 sqrt q, 2 sqrt q] and one coefficient moved by 1,
    kept when still Weil."""
    s, t = sympy.symbols("s t")
    rng = random.Random(1011)
    out = []
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1)):
        q = p**r
        factors = [ctx.f for g in (1, 2) for ctx in weil.enumerate_weil_contexts(p, r, g)]
        for g in (3, 4):
            for _ in range(6):
                f, degree = sympy.Poly(1, t), 0
                while degree < 2 * g:
                    part = rng.choice([c for c in factors if len(c) - 1 <= 2 * g - degree])
                    f, degree = f * sympy.Poly(part, t), degree + len(part) - 1
                out.append((p, r, g, [int(c) for c in f.all_coeffs()]))
            top = isqrt(4 * q)
            kept = 0
            while kept < 6:
                roots = [rng.randint(-top, top) for _ in range(g)]
                coeffs = sympy.Poly(sympy.prod(s - x for x in roots), s).all_coeffs()
                coeffs[rng.randint(1, g)] += rng.choice((-1, 1))
                h = sympy.Poly(coeffs, s).as_expr()
                f = sympy.Poly(sympy.expand(t**g * h.subs(s, t + sympy.Rational(q) / t)), t)
                f = [int(c) for c in f.all_coeffs()]
                if validate_weil(f, q):
                    out.append((p, r, g, f))
                    kept += 1
    return out


def test_quartic_root_location_matches_rueck():
    """Exact g = 2 oracle independent of the root-location test: the quartic
    t^4 + a1 t^3 + a2 t^2 + q a1 t + q^2 is a Weil polynomial iff
    a1^2 <= 16q, a2 + 2q >= 0, 4 a1^2 q <= (a2 + 2q)^2 and 4 a2 <= a1^2 + 8q
    (Rueck, Compositio Math. 76 (1990); Maisner & Nart, Experiment. Math. 11
    (2002)), over a box wider than both ranges."""
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        top = isqrt(16 * q) + 2
        for a1 in range(-top, top + 1):
            for a2 in range(-6 * q, 6 * q + 1):
                rueck = (a1 * a1 <= 16 * q and a2 + 2 * q >= 0
                         and 4 * a1 * a1 * q <= (a2 + 2 * q) ** 2
                         and 4 * a2 <= a1 * a1 + 8 * q)
                assert validate_weil([1, a1, a2, q * a1, q * q], q) == rueck, (q, a1, a2)


def test_root_location_matches_sympy_real_roots():
    """g = 3 and 4: f(t) = t^g h(t + q/t) is a Weil polynomial iff h has g
    real roots, counted with multiplicity, each with r^2 <= 4q.  sympy's
    real_roots is exact (radicals for quadratic factors, CRootOf above)."""
    s, t = sympy.symbols("s t")
    rng = random.Random(1011)
    cases = []
    for q in (2, 4, 9, 16):  # non-real pairs inside the disc, one repeated
        cases += [(q, (s**2 + 1) ** 2), (q, (s**2 + 1) * (s - 1))]
    for q in (2, 3, 5):  # irrational endpoint roots +-2 sqrt(q), and one outside
        cases += [(q, (s**2 - 4 * q) * (s - 1)), (q, (s**2 - 4 * q) * s * (s + 1)),
                  (q, (s**2 - 4 * q - 1) * s)]
    for q in (2, 3, 4, 5):  # roots 0, +-sqrt(6q): leading minors 0, 0, > 0, yet not inside
        cases.append((q, (s**2 - 6 * q) * s))
    for _ in range(240):
        g = rng.choice((3, 4))
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13, 16))
        top = isqrt(4 * q)
        roots = [rng.randint(-top, top) for _ in range(g)]
        roots[1] = roots[0] if rng.random() < 0.3 else roots[1]  # repeated root
        if top * top == 4 * q and rng.random() < 0.3:
            roots[2] = rng.choice((top, -top))  # endpoint root for square q
        coeffs = sympy.Poly(sympy.prod(s - r for r in roots), s).all_coeffs()
        if rng.random() < 0.5:
            coeffs[rng.randint(1, g)] += rng.choice((-1, 1))
        cases.append((q, sympy.Poly(coeffs, s).as_expr()))
    verdicts = set()
    for q, h in cases:
        h = sympy.Poly(h, s)
        g = h.degree()
        f = sympy.Poly(sympy.expand(t**g * h.as_expr().subs(s, t + sympy.Rational(q) / t)), t)
        real = h.real_roots()
        expected = len(real) == g and all(bool(r**2 <= 4 * q) for r in real)
        verdicts.add(expected)
        assert validate_weil([int(c) for c in f.all_coeffs()], q) == expected, (q, h)
    assert verdicts == {True, False}


def test_root_location_matches_sympy():
    # numeric root moduli from sympy; every case is far from the tolerance
    t = sympy.Symbol("t")
    cases = [([1, -1, 2], 2), ([1, -5, 2], 2), ([1, 1, 1, 2, 4], 2),
             ([1, 1, -1, 3, 9], 3), ([1, 0, -4, 0, 4], 2), ([1, 3, 5, 9, 9], 3)]
    for coeffs, q in cases:
        pol = sympy.Poly(coeffs, t)
        squarefree = pol.quo(sympy.gcd(pol, pol.diff(t)))  # nroots chokes on repeats
        roots = squarefree.nroots(n=30)
        on_circle = all(abs(abs(complex(ro)) ** 2 - q) < 1e-9 for ro in roots)
        assert validate_weil(coeffs, q) == on_circle, (coeffs, q)


def test_enumeration_counts_ordinary_irreducible():
    expected = {(2, 1): 2, (3, 1): 4, (2, 2): 4, (5, 1): 8, (7, 1): 10, (2, 3): 6, (3, 2): 8}
    for (p, r), count in expected.items():
        got = weil.enumerate_weil_contexts(p, r, 1, ordinary=True, irreducible=True)
        assert len(got) == count, (p, r)
        for ctx in got:
            assert ctx.is_weil and ctx.is_ordinary and ctx.is_irreducible


def test_enumeration_is_lexicographic_and_unfiltered_superset():
    every = weil.enumerate_weil_contexts(2, 1, 1)
    coeff_lists = [ctx.f for ctx in every]
    assert coeff_lists == sorted(coeff_lists)
    filtered = weil.enumerate_weil_contexts(2, 1, 1, ordinary=True, irreducible=True)
    assert {ctx.f for ctx in filtered} <= {ctx.f for ctx in every}
    assert (1, 1, 2) in {ctx.f for ctx in filtered}
    assert (1, -1, 2) in {ctx.f for ctx in filtered}


def test_enumeration_brute_force_g1():
    """Independent generate-and-test over the full trace range."""
    for p, r in ((2, 1), (3, 1), (2, 2)):
        q = p**r
        brute = set()
        for a1 in range(-2 * q, 2 * q + 1):  # wide net, wider than needed
            if validate_weil([1, a1, q], q):
                brute.add((1, a1, q))
        got = {ctx.f for ctx in weil.enumerate_weil_contexts(p, r, 1)}
        assert got == brute


def test_enumeration_matches_make_context_over_the_box():
    # the enumerator builds contexts over the exact Weil box only; the result
    # must equal make_context over the wider quartic box, filtered
    q = 2
    box = [weil.make_context(2, 1, 2, [1, a1, a2, q * a1, q * q])
           for a1 in range(-isqrt(16 * q), isqrt(16 * q) + 1) for a2 in range(-6 * q, 6 * q + 1)]
    weil_box = [ctx for ctx in box if ctx.is_weil]
    assert weil.enumerate_weil_contexts(2, 1, 2) == weil_box
    assert weil.enumerate_weil_contexts(2, 1, 2, ordinary=True, irreducible=True) == [
        ctx for ctx in weil_box if ctx.is_ordinary and ctx.is_irreducible]
    assert weil.enumerate_weil_contexts(2, 1, 2, irreducible=False) == [
        ctx for ctx in weil_box if not ctx.is_irreducible]


def test_quartic_box_is_exact():
    """The generated range 2|a1|sqrt(q) - 2q <= a2 <= a1^2/4 + 2q keeps every
    Weil quartic of the wide box |a2| <= 6q, in the same order, and both
    ends are attained, so neither can be tightened."""
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        q = p**r
        top1 = isqrt(16 * q)
        wide = [(1, a1, a2, q * a1, q * q) for a1 in range(-top1, top1 + 1)
                for a2 in range(-6 * q, 6 * q + 1)
                if validate_weil([1, a1, a2, q * a1, q * q], q)]
        assert [ctx.f for ctx in weil.enumerate_weil_contexts(p, r, 2)] == wide, q
        # a2 - 1 falls below the lower end, or a2 + 1 above the upper end
        lower_edge = [f for f in wide if f[2] - 1 + 2 * q < 0
                      or (f[2] - 1 + 2 * q) ** 2 < 4 * f[1] ** 2 * q]
        upper_edge = [f for f in wide if 4 * (f[2] + 1 - 2 * q) > f[1] ** 2]
        assert lower_edge and upper_edge, q


def test_enumeration_caps():
    with pytest.raises(CapabilityError):
        weil.enumerate_weil_contexts(2, 1, 3)
    with pytest.raises(CapabilityError):
        weil.enumerate_weil_contexts(17, 1, 1)
    with pytest.raises(InputError):
        weil.enumerate_weil_contexts(6, 1, 1)
    # p^r >= 2^r exceeds ENUM_Q_CAP once r reaches the cap's bit length, so
    # r = 10^12 is refused at once, without forming p^r; q = 2^4 = 16, the
    # cap itself, still enumerates
    start = time.monotonic()
    for p, r in ((2, 10**12), (3, 10**12), (2, weil.ENUM_Q_CAP.bit_length())):
        with pytest.raises(CapabilityError):
            weil.enumerate_weil_contexts(p, r, 1)
    assert time.monotonic() - start < 1
    assert weil.enumerate_weil_contexts(2, weil.ENUM_Q_CAP.bit_length() - 1, 1)


def test_quartic_enumeration_includes_known_context():
    got = weil.enumerate_weil_contexts(2, 1, 2, ordinary=True, irreducible=True)
    assert len(got) == 13
    assert (1, 1, 1, 2, 4) in {ctx.f for ctx in got}
