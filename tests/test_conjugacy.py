"""Matrix-lattice translation and integral conjugacy testing."""

import random

import pytest

from avcyclic import conjugacy, icm, linalg, orders, weil
from avcyclic.errors import ConsistencyError, InputError
from avcyclic.orders import IdealLattice

from _helpers import (conjugate, corpus_contexts, inverse_unimodular, make_element,
                      random_unimodular)


def ctx2():
    return weil.make_context(2, 1, 1, [1, 1, 2])


def ctx5():
    return weil.make_context(5, 1, 1, [1, -2, 5])


def test_ideal_to_matrix_standard_lattice_gives_companion():
    c = ctx2()
    mc = conjugacy.ideal_to_matrix(IdealLattice.standard(c))
    assert mc.rep == ((0, -2), (1, -1))
    assert linalg.charpoly(mc.rep) == (2, 1, 1)
    assert mc.provenance == IdealLattice.standard(c)


def test_ideal_to_matrix_nonstandard_lattice():
    c = ctx5()
    lat = IdealLattice.from_rows(c, [[1, 1], [0, 2]])
    mc = conjugacy.ideal_to_matrix(lat)
    assert mc.rep == ((-5, -10), (4, 7))
    assert linalg.charpoly([list(r) for r in mc.rep]) == (5, -2, 1)


def test_ideal_to_matrix_rejects_unstable_lattice():
    c = ctx2()
    with pytest.raises(InputError) as e:
        conjugacy.ideal_to_matrix(IdealLattice.from_rows(c, [[1, 0], [0, 3]]))
    assert e.value.code == "not_stable"


def test_scaling_does_not_change_the_matrix():
    c = ctx5()
    lat = IdealLattice.from_rows(c, [[1, 1], [0, 2]])
    scaled = lat.scale(make_element(c, [3]))
    assert conjugacy.ideal_to_matrix(scaled).rep == conjugacy.ideal_to_matrix(lat).rep


def test_matrix_to_ideal_companion():
    c = ctx2()
    lat = conjugacy.matrix_to_ideal(c, [[0, -2], [1, -1]])
    assert lat == IdealLattice.standard(c)


def test_matrix_to_ideal_round_trip_stays_in_class():
    c = ctx5()
    lat = IdealLattice.from_rows(c, [[1, 1], [0, 2]])
    m = conjugacy.ideal_to_matrix(lat).rep
    back = conjugacy.matrix_to_ideal(c, m)
    assert orders.ideal_equivalent(back, lat).status == "equivalent"


def test_matrix_to_ideal_v0_independence():
    # the pull-back starts at e_0; starting m at the cyclic vector v0 = w e_0
    # (w unimodular) is starting w^-1 m w at e_0, and every start gives the
    # same class
    c = ctx5()
    m = ((-5, -10), (4, 7))
    base = conjugacy.matrix_to_ideal(c, m)
    for w in ([[0, 1], [1, 0]], [[1, 0], [1, 1]], [[2, 1], [1, 1]]):
        variant = conjugacy.matrix_to_ideal(c, conjugate(m, inverse_unimodular(w)))
        assert orders.ideal_equivalent(base, variant).status == "equivalent"


def test_matrix_to_ideal_input_checks():
    c = ctx2()
    with pytest.raises(InputError) as e:
        conjugacy.matrix_to_ideal(c, [[0, -2]])
    assert e.value.code == "bad_shape"
    with pytest.raises(InputError) as e:
        conjugacy.matrix_to_ideal(c, [[0, -2], [1, "x"]])
    assert e.value.code == "not_integer"
    with pytest.raises(InputError) as e:
        conjugacy.matrix_to_ideal(c, [[1, 0], [0, 2]])
    assert e.value.code == "charpoly_mismatch"


def test_matrix_and_v0_entries_must_be_int():
    # int only, bool refused; nothing is truncated
    c = ctx2()
    m = [[0, -2], [1, -1]]
    for x in (1.7, "2", 0.4, True):
        with pytest.raises(InputError) as e:
            conjugacy.matrix_to_ideal(c, [[x, -2], [1, -1]])
        assert e.value.code == "not_integer"
    bools = [[False, -2], [True, -1]]  # t^2 + t + 2 if read as integers
    for call in (lambda: conjugacy.matrix_to_ideal(c, bools),
                 lambda: conjugacy.matrices_conjugate(c, m, bools)):
        with pytest.raises(InputError) as e:
            call()
        assert e.value.code == "not_integer"


def test_conversions_refuse_through_the_gate():
    # (t - 2)^2 is Weil but reducible; (t + 1)(t + 2) is neither, and is
    # reported as not Weil
    for c, m, code in ((weil.make_context(2, 2, 1, [1, -4, 4]), [[0, -4], [1, 4]],
                        "not_irreducible"),
                       (weil.make_context(2, 1, 1, [1, 3, 2]), [[0, -2], [1, -3]], "not_weil")):
        with pytest.raises(InputError) as e:
            conjugacy.matrix_to_ideal(c, m)
        assert e.value.code == code
        with pytest.raises(InputError) as e:
            conjugacy.ideal_to_matrix(IdealLattice.standard(c))
        assert e.value.code == code


def test_matrices_conjugate_identical_inputs():
    c = ctx2()
    m = ((0, -2), (1, -1))
    r = conjugacy.matrices_conjugate(c, m, m)
    assert r.status == "conjugate"
    assert r.witness == ((1, 0), (0, 1))


def test_matrices_conjugate_positive_case():
    c = ctx5()
    a = ((-5, -10), (4, 7))
    b = ((1, -2), (2, 1))
    r = conjugacy.matrices_conjugate(c, a, b)
    assert r.status == "conjugate"
    u = [list(row) for row in r.witness]
    assert linalg.is_unimodular(u)
    assert linalg.mat_mul([list(x) for x in b], u) == linalg.mat_mul(u, [list(x) for x in a])


def test_matrices_conjugate_negative_case():
    c = ctx5()
    companion = ((0, -5), (1, 2))
    other = ((1, -2), (2, 1))
    r = conjugacy.matrices_conjugate(c, companion, other)
    assert r.status == "not_conjugate"
    assert r.witness is None


def test_matrices_conjugate_requires_irreducible():
    c = weil.make_context(2, 2, 1, [1, -4, 4])
    with pytest.raises(InputError) as e:
        conjugacy.matrices_conjugate(c, [[2, 1], [0, 2]], [[2, 0], [0, 2]])
    assert e.value.code == "not_irreducible"


def test_matrices_conjugate_refuses_non_weil_first():
    # (t + 1)(t + 2) is reducible and not Weil; convert reports not_weil too
    c = weil.make_context(2, 1, 1, [1, 3, 2])
    with pytest.raises(InputError) as e:
        conjugacy.matrices_conjugate(c, [[-1, 0], [0, -2]], [[-2, 0], [0, -1]])
    assert e.value.code == "not_weil"


def test_matrices_conjugate_checks_both_inputs():
    c = ctx5()
    with pytest.raises(InputError) as e:
        conjugacy.matrices_conjugate(c, ((0, -5), (1, 2)), ((1, 0), (0, 1)))
    assert e.value.code == "charpoly_mismatch"


def test_constructed_conjugates_are_detected():
    c = ctx5()
    rng = random.Random(11)
    base = [[0, -5], [1, 2]]
    for _ in range(8):
        u = random_unimodular(rng, 2)
        moved = conjugate(base, u)
        r = conjugacy.matrices_conjugate(c, base, moved)
        assert r.status == "conjugate"
        w = [list(row) for row in r.witness]
        assert linalg.mat_mul(moved, w) == linalg.mat_mul(w, base)


def test_quartic_constructed_conjugates():
    c = weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])
    base = [list(r) for r in conjugacy.ideal_to_matrix(IdealLattice.standard(c)).rep]
    rng = random.Random(7)
    for _ in range(3):
        u = random_unimodular(rng, 4)
        moved = conjugate(base, u)
        r = conjugacy.matrices_conjugate(c, base, moved)
        assert r.status == "conjugate"
        w = [list(row) for row in r.witness]
        assert linalg.is_unimodular(w)
        assert linalg.mat_mul(moved, w) == linalg.mat_mul(w, base)


def test_quartic_conjugacy_test_builds_one_colon_ideal_and_no_ring(monkeypatch):
    # the search runs on (b : a) with its unit read off b: a conjugate pair
    # with distinct lattices takes one colon ideal and no multiplicator ring
    c = weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])
    base = conjugacy.ideal_to_matrix(IdealLattice.standard(c)).rep
    moved = conjugate(base, random_unimodular(random.Random(27), 4))
    assert conjugacy.matrix_to_ideal(c, moved) != conjugacy.matrix_to_ideal(c, base)
    calls = {}

    def counted(name):
        fn = getattr(orders, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("ideal_quotient", "multiplicator_ring"):
        monkeypatch.setattr(orders, name, counted(name))
    r = conjugacy.matrices_conjugate(c, moved, base)
    assert r.status == "conjugate"
    assert calls == {"ideal_quotient": 1}



def test_g1_conjugacy_runs_no_search_and_no_colon_ideal(monkeypatch):
    # at g = 1 the witness is read off the reduced bases: U M U^-1 against M
    # for every g = 1 corpus class M, both ways round, with the witness
    # search and the colon ideal refused, still finds a verified witness
    reps = [(ctx, conjugacy.ideal_to_matrix(lat).rep) for ctx in corpus_contexts() if ctx.g == 1
            for lat in icm.enumerate_icm(orders.frobenius_pair_order(ctx)).classes]
    assert len(reps) == 68

    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(orders, "_witness_search", refuse)
    monkeypatch.setattr(orders, "ideal_quotient", refuse)
    rng = random.Random(41)
    moved_lattices = 0
    for ctx, m in reps:
        m = [list(row) for row in m]
        moved = conjugate(m, random_unimodular(rng, 2))
        moved_lattices += conjugacy.matrix_to_ideal(ctx, moved) != conjugacy.matrix_to_ideal(ctx, m)
        for a, b in ((moved, m), (m, moved)):
            r = conjugacy.matrices_conjugate(ctx, a, b)
            assert r.status == "conjugate", (ctx.f, a, b)
            u = [list(row) for row in r.witness]
            assert linalg.is_unimodular(u) and linalg.mat_mul(b, u) == linalg.mat_mul(u, a)
    assert moved_lattices == 57


def test_quartic_roundtrip():
    c = weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])
    std = IdealLattice.standard(c)
    m = conjugacy.ideal_to_matrix(std).rep
    back = conjugacy.matrix_to_ideal(c, m)
    assert orders.ideal_equivalent(back, std).status == "equivalent"
