"""Acceptance gate.  Eight criteria over the desk-scale corpus: all genus-1
contexts for q in {2, 3, 4, 5, 7, 8, 9} plus the first ten ordinary
irreducible quartics over F_2 and F_3.  Each test prints one summary line
with its pinned tolerance."""

import json
import random
import time
from math import gcd
from pathlib import Path

import sympy

from avcyclic import cli, conjugacy, cyclicity, icm, ingest, linalg, orders, weil

from _helpers import (G1_FIELDS, QUARTICS_PER_FIELD, corpus_contexts, inverse_unimodular,
                      random_unimodular)
from conftest import criterion

RUNTIME_BUDGET_SECONDS = 600.0

FIXTURE = Path(__file__).parent / "fixtures" / "external_records.jsonl"

_corpus_cache = None


def corpus():
    """Classification results for the whole corpus, built once, with the
    wall-clock build time (the criterion-1 budget covers exactly this)."""
    global _corpus_cache
    if _corpus_cache is None:
        started = time.monotonic()
        results = [cyclicity.classify_isogeny_class(ctx) for ctx in corpus_contexts()]
        _corpus_cache = (results, time.monotonic() - started)
    return _corpus_cache


def second_largest(factors):
    return factors[-2] if len(factors) >= 2 else 1


def test_criterion_1_verdict_oracle_equivalence():
    results, elapsed = corpus()
    with criterion(1, "100% verdict/oracle agreement, 100% certified, corpus runtime < 600 s"):
        g1 = sum(1 for res in results if res.ctx.g == 1)
        g2 = sum(1 for res in results if res.ctx.g == 2)
        assert g1 == 42  # every ordinary irreducible quadratic for the 7 fields
        assert g2 == 2 * QUARTICS_PER_FIELD
        heuristic = [res.ctx.f for res in results if res.completeness != "certified"]
        assert heuristic == [], heuristic
        classes = 0
        for res in results:
            for rep in res.reports:
                lhs = rep.gcd_with_point_count >= 2
                rhs = second_largest(rep.invariant_factors) > 1
                assert lhs == rhs, (res.ctx.f, rep.class_ref.rep)
                assert rep.oracle_agrees
                classes += 1
        assert classes >= 62
        assert elapsed < RUNTIME_BUDGET_SECONDS, f"corpus took {elapsed:.1f} s"


def test_criterion_2_worked_examples():
    with criterion(2, "exact class lists for q=5 t^2-2t+5 and q=2 t^2+t+2"):
        res5 = cyclicity.classify_isogeny_class(weil.make_context(5, 1, 1, [1, -2, 5]))
        assert res5.total == 2
        assert [r.verdict for r in res5.reports] == ["cyclic", "not_cyclic"]
        assert [r.group_descriptor for r in res5.reports] == [(4,), (2, 2)]
        assert sorted(r.tau_one_minus_m for r in res5.reports) == [1, 2]
        res2 = cyclicity.classify_isogeny_class(weil.make_context(2, 1, 1, [1, 1, 2]))
        assert res2.total == 1
        assert res2.reports[0].verdict == "cyclic"
        assert res2.reports[0].group_descriptor == (4,)


def test_criterion_3_round_trips():
    results, _ = corpus()
    with criterion(3, "100% verified round trips; 0 indeterminate at g=1 and at g=2"):
        counts = {1: [0, 0], 2: [0, 0]}  # g -> [comparisons, indeterminate]
        for res in results:
            ctx = res.ctx
            for rep in res.reports:
                lat = rep.class_ref.provenance
                m0 = [list(r) for r in rep.class_ref.rep]
                # ideal -> matrix -> ideal lands in the same class
                lat_back = conjugacy.matrix_to_ideal(ctx, m0)
                eq = orders.ideal_equivalent(lat, lat_back)
                counts[ctx.g][0] += 1
                if eq.status == "indeterminate":
                    counts[ctx.g][1] += 1
                else:
                    assert eq.status == "equivalent"
                    assert lat.scale(eq.witness) == lat_back
                # matrix -> ideal -> matrix returns a certified conjugate
                m1 = [list(r) for r in conjugacy.ideal_to_matrix(lat_back).rep]
                conj = conjugacy.matrices_conjugate(ctx, m0, m1)
                counts[ctx.g][0] += 1
                if conj.status == "indeterminate":
                    counts[ctx.g][1] += 1
                else:
                    assert conj.status == "conjugate"
                    u = [list(r) for r in conj.witness]
                    assert linalg.is_unimodular(u)
                    assert linalg.mat_mul(m1, u) == linalg.mat_mul(u, m0)
        assert counts[1][1] == 0, "indeterminate appeared at g = 1"
        assert counts[2][1] == 0, f"{counts[2][1]}/{counts[2][0]} indeterminate at g = 2"


def test_criterion_4_two_route_agreement_and_sigma():
    results, _ = corpus()
    with criterion(4, "q-stability routes and sigma refinement agree on 100% of classes"):
        for res in results:
            ctx = res.ctx
            for rep in res.reports:
                # raises if the three routes split; classes are stable so True
                assert cyclicity.q_stability_check([list(r) for r in rep.class_ref.rep], ctx)
            for ell in weil.prime_factors(ctx.point_count):
                sigma_set = set(icm.refine_by_sigma(res.icm_result, ell))
                tau_set = {i for i, rep in enumerate(res.reports)
                           if rep.tau_one_minus_m % ell == 0}
                assert sigma_set == tau_set, (ctx.f, ell)


def test_criterion_5_structural_identities():
    results, _ = corpus()
    with criterion(5, "det/tau/invariant-factor/annihilation identities exact on 100%"):
        for res in results:
            ctx = res.ctx
            for rep in res.reports:
                m = [list(r) for r in rep.class_ref.rep]
                one_minus = [[(1 if i == j else 0) - m[i][j] for j in range(ctx.n)]
                             for i in range(ctx.n)]
                assert linalg.determinant(m) == ctx.q**ctx.g
                assert linalg.determinant(one_minus) == ctx.point_count
                tau_im = linalg.tau(one_minus)
                assert tau_im != 0 and ctx.point_count % tau_im == 0
                prod = 1
                for d in linalg.smith_normal_form(one_minus).invariant_factors:
                    prod *= d
                assert prod == ctx.point_count
                acc = [[0] * ctx.n for _ in range(ctx.n)]
                for c in reversed(ctx.f_low):
                    acc = linalg.mat_mul(acc, m)
                    for i in range(ctx.n):
                        acc[i][i] += c
                assert acc == [[0] * ctx.n for _ in range(ctx.n)]


def test_criterion_6_conjugacy_invariance_fuzz():
    results, _ = corpus()
    with criterion(6, ">= 1000 random unimodular conjugations, entries <= 5, exact match"):
        pool = [(res.ctx, [list(r) for r in rep.class_ref.rep])
                for res in results for rep in res.reports]
        rng = random.Random(20260822)
        pairs = 0
        for i in range(1000):
            ctx, m = pool[i % len(pool)]
            u = random_unimodular(rng, ctx.n)
            u_inv = inverse_unimodular(u)
            moved = linalg.mat_mul(linalg.mat_mul(u, m), u_inv)
            one_minus = lambda mm: [[(1 if a == b else 0) - mm[a][b]
                                     for b in range(ctx.n)] for a in range(ctx.n)]
            assert linalg.tau(moved) == linalg.tau(m)
            assert linalg.tau(one_minus(moved)) == linalg.tau(one_minus(m))
            for thresh in (1, 2):
                assert (cyclicity.membership(moved, ctx, thresh)
                        == cyclicity.membership(m, ctx, thresh))
            assert (linalg.smith_normal_form(one_minus(moved)).invariant_factors
                    == linalg.smith_normal_form(one_minus(m)).invariant_factors)
            pairs += 1
        assert pairs >= 1000


def test_criterion_7_hasse_completeness():
    with criterion(7, "exact set equality against brute force for every q <= 9"):
        t = sympy.Symbol("t")
        for p, r in G1_FIELDS:
            q = p**r
            brute_all = set()
            brute_filtered = set()
            for a in range(-2 * q, 2 * q + 1):
                if a * a > 4 * q:
                    continue
                brute_all.add((1, a, q))
                ordinary = gcd(a, p) == 1
                irreducible = bool(sympy.Poly([1, a, q], t).is_irreducible)
                if ordinary and irreducible:
                    brute_filtered.add((1, a, q))
            got_all = {ctx.f for ctx in weil.enumerate_weil_contexts(p, r, 1)}
            got_filtered = {ctx.f for ctx in weil.enumerate_weil_contexts(
                p, r, 1, ordinary=True, irreducible=True)}
            assert got_all == brute_all, q
            assert got_filtered == brute_filtered, q


def test_criterion_8_ingestion_hermeticity(capsys):
    with criterion(8, "0 mismatches on the 20-record fixture; byte-identical reruns"):
        load = ingest.load_fixture(FIXTURE)
        assert len(load.records) == 20 and load.rejected == ()
        report = ingest.cross_validate(load.records)
        assert report["mismatch_count"] == 0
        argv = ["sweep", "--p", "2", "--r", "1", "--g", "1", "--no-timing",
                "--fixtures", str(FIXTURE)]
        code1 = cli.main(argv)
        first = capsys.readouterr().out
        code2 = cli.main(argv)
        second = capsys.readouterr().out
        assert code1 == 0 and code2 == 0
        assert first == second
        doc = json.loads(first)
        assert doc["cross_validation"]["report"]["mismatch_count"] == "0"
