"""Verdict route, oracle route, stability checks, full classification."""

import dataclasses
import random

import pytest

from avcyclic import cli, cyclicity, weil
from avcyclic.errors import ConsistencyError, InputError

from _helpers import conjugate, random_unimodular


def ctx5():
    return weil.make_context(5, 1, 1, [1, -2, 5])


def test_membership_values():
    c = ctx5()
    companion = [[0, -5], [1, 2]]
    other = [[-5, -10], [4, 7]]
    assert cyclicity.membership(companion, c, 1)
    assert not cyclicity.membership(companion, c, 2)
    assert cyclicity.membership(other, c, 1)
    assert cyclicity.membership(other, c, 2)


def test_membership_threshold_validation():
    c = ctx5()
    with pytest.raises(InputError) as e:
        cyclicity.membership([[0, -5], [1, 2]], c, 3)
    assert e.value.code == "bad_threshold"
    with pytest.raises(InputError) as e:
        cyclicity.membership([[1, 0], [0, 1]], c, 1)
    assert e.value.code == "charpoly_mismatch"


def test_q_stability_positive():
    c = ctx5()
    assert cyclicity.q_stability_check([[0, -5], [1, 2]], c)
    assert cyclicity.q_stability_check([[-5, -10], [4, 7]], c)


def test_q_stability_negative_quartic_companion():
    # q/alpha never lies in Z[alpha] for these quartics (its top power-basis
    # coordinate is -1/q), so the companion matrix must fail on all routes
    c = weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])
    companion = [[0, 0, 0, -4], [1, 0, 0, -2], [0, 1, 0, -1], [0, 0, 1, -1]]
    assert cyclicity.q_stability_check(companion, c) is False


def test_group_structure_oracle():
    c = ctx5()
    factors, cyclic = cyclicity.group_structure_oracle([[0, -5], [1, 2]], c)
    assert factors == (1, 4) and cyclic
    factors, cyclic = cyclicity.group_structure_oracle([[-5, -10], [4, 7]], c)
    assert factors == (2, 2) and not cyclic
    c2 = weil.make_context(2, 1, 1, [1, 1, 2])
    factors, cyclic = cyclicity.group_structure_oracle([[0, -2], [1, -1]], c2)
    assert factors == (1, 4) and cyclic


def test_structural_identities():
    c = ctx5()
    for m in ([[0, -5], [1, 2]], [[-5, -10], [4, 7]]):
        checks = cyclicity.structural_identities(c, m)
        assert all(checks.values()), checks


def test_classification_q5():
    result = cyclicity.classify_isogeny_class(ctx5())
    assert result.total == 2
    assert result.cyclic_count == 1 and result.not_cyclic_count == 1
    assert result.completeness == "certified"
    assert result.all_oracle_agree
    reps = [r.class_ref.rep for r in result.reports]
    assert reps == [((0, -5), (1, 2)), ((-5, -10), (4, 7))]
    first, second = result.reports
    assert first.verdict == "cyclic"
    assert (first.tau_m, first.tau_one_minus_m, first.gcd_with_point_count) == (1, 1, 1)
    assert first.invariant_factors == (1, 4)
    assert first.group_descriptor == (4,)
    assert first.membership_c1 and not first.membership_c2
    assert second.verdict == "not_cyclic"
    assert (second.tau_m, second.tau_one_minus_m, second.gcd_with_point_count) == (1, 2, 2)
    assert second.invariant_factors == (2, 2)
    assert second.group_descriptor == (2, 2)
    assert second.membership_c1 and second.membership_c2
    # the only prime dividing f(1) = 4 is 2; both routes keep just class 1
    assert len(result.sigma_checks) == 1
    check = result.sigma_checks[0]
    assert check.ell == 2
    assert check.sigma_class_indices == (1,)
    assert check.tau_class_indices == (1,)
    assert check.agree


def test_classification_q2():
    result = cyclicity.classify_isogeny_class(weil.make_context(2, 1, 1, [1, 1, 2]))
    assert result.total == 1
    assert result.reports[0].verdict == "cyclic"
    assert result.reports[0].invariant_factors == (1, 4)


def test_classification_refusals():
    with pytest.raises(InputError) as e:
        cyclicity.classify_isogeny_class(weil.make_context(2, 1, 1, [1, -5, 2]))
    assert e.value.code == "not_weil"
    with pytest.raises(InputError) as e:
        cyclicity.classify_isogeny_class(weil.make_context(2, 2, 1, [1, -4, 4]))
    assert e.value.code == "not_ordinary"
    with pytest.raises(InputError) as e:
        # (t^2 + t + 2)(t^2 - t + 2): ordinary, valid, not simple
        cyclicity.classify_isogeny_class(weil.make_context(2, 1, 2, [1, 0, 3, 0, 4]))
    assert e.value.code == "not_irreducible"


def test_verdict_is_a_function_of_the_ring(monkeypatch, capsys):
    # sigma_ell lies in (I : I) exactly when ell | tau(1 - M), so classes with
    # one multiplicator ring share a verdict; t^2 + t + 4 over F_4 has two
    # classes over the maximal order of discriminant -15
    c = weil.make_context(2, 2, 1, [1, 1, 4])
    result = cyclicity.classify_isogeny_class(c)
    rings = result.icm_result.multiplicator_rings
    assert len(rings) == 2 and rings[0] == rings[1]
    real, reports = cyclicity._report_for, []

    def flip_second(ctx, mclass):
        report = real(ctx, mclass)
        reports.append(report)
        if len(reports) == 2:
            other = "cyclic" if report.verdict == "not_cyclic" else "not_cyclic"
            report = dataclasses.replace(report, verdict=other)
        return report

    monkeypatch.setattr(cyclicity, "_report_for", flip_second)
    with pytest.raises(ConsistencyError, match="multiplicator ring"):
        cyclicity.classify_isogeny_class(c)
    reports.clear()
    assert cli.main(["classify", "--p", "2", "--r", "2", "--g", "1", "--poly", "1,1,4"]) == 3
    assert '"consistency"' in capsys.readouterr().out


def test_verdict_is_conjugation_invariant():
    c = ctx5()
    rng = random.Random(4)
    for base in ([[0, -5], [1, 2]], [[-5, -10], [4, 7]]):
        for _ in range(5):
            moved = conjugate(base, random_unimodular(rng, 2))
            for thresh in (1, 2):
                assert cyclicity.membership(moved, c, thresh) == \
                    cyclicity.membership(base, c, thresh)
            fb, cb = cyclicity.group_structure_oracle(base, c)
            fm, cm = cyclicity.group_structure_oracle(moved, c)
            assert fb == fm and cb == cm


def test_quartic_classification_smoke():
    c = weil.make_context(2, 1, 2, [1, 1, 1, 2, 4])
    result = cyclicity.classify_isogeny_class(c)
    assert result.total >= 1
    assert result.all_oracle_agree
    for check in result.sigma_checks:
        assert check.agree
    for rep in result.reports:
        assert rep.membership_c1
        assert (rep.verdict == "not_cyclic") == rep.membership_c2
