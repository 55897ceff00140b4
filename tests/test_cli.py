"""End-to-end command line behavior: documents, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcyclic import cli, conjugacy, cyclicity, icm, orders, weil
from avcyclic.errors import CapabilityError, ConsistencyError, DegenerateLatticeError, InputError

from _helpers import (conjugate, corpus_contexts, dump_oracle, minkowski_convex_body_bound,
                      random_unimodular)

FIXTURE = Path(__file__).parent / "fixtures" / "external_records.jsonl"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def assert_no_bare_ints(value, path="$"):
    if isinstance(value, bool):
        return
    assert not isinstance(value, (int, float)), f"bare number at {path}: {value!r}"
    if isinstance(value, list):
        for i, v in enumerate(value):
            assert_no_bare_ints(v, f"{path}[{i}]")
    elif isinstance(value, dict):
        for k, v in value.items():
            assert_no_bare_ints(v, f"{path}.{k}")


def test_validate_accepts_good_context(capsys):
    code, out = run(capsys, ["validate", "--p", "2", "--r", "1", "--g", "1",
                             "--poly", "1,-1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["is_weil"] is True and doc["weil_reason"] is None
    assert doc["is_ordinary"] is True and doc["is_irreducible"] is True
    assert doc["point_count"] == "2"
    assert doc["context"] == {"p": "2", "r": "1", "q": "2", "g": "1", "f": ["1", "-1", "2"]}
    assert_no_bare_ints(doc)


def test_validate_flags_failures_with_exit_1(capsys):
    code, out = run(capsys, ["validate", "--p", "2", "--r", "2", "--g", "1",
                             "--poly", "1,-4,4"])
    assert code == 1
    doc = json.loads(out)
    assert doc["is_weil"] is True and doc["is_ordinary"] is False
    code, out = run(capsys, ["validate", "--p", "2", "--r", "1", "--g", "1",
                             "--poly", "1,-5,2"])
    assert code == 1
    assert json.loads(out)["weil_reason"] == "root_location"


def test_validate_decides_a_large_prime_at_once(capsys):
    # p = 10^18 + 3 is decided by Miller-Rabin, not trial division towards
    # 10^9; t^2 + q is Weil and irreducible but not ordinary
    p = 10**18 + 3
    start = time.monotonic()
    code, out = run(capsys, ["validate", "--p", str(p), "--r", "1", "--g", "1",
                             f"--poly=1,0,{p}"])
    assert time.monotonic() - start < 1
    assert code == 1
    doc = json.loads(out)
    assert doc["is_weil"] is True and doc["is_irreducible"] is True
    assert doc["is_ordinary"] is False
    assert doc["point_count"] == str(p + 1)


def test_validate_usage_errors_exit_2(capsys):
    code, out = run(capsys, ["validate", "--p", "2", "--r", "1", "--g", "1",
                             "--poly", "1,x,2"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "bad_poly"
    code, out = run(capsys, ["validate", "--p", "4", "--r", "1", "--g", "1",
                             "--poly", "1,0,4"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "p_not_prime"
    # classify and convert reject a bad context the same way, through main
    for command in ("classify", "convert"):
        for p, poly, error in (("2", "1,x,2", "bad_poly"), ("4", "1,0,4", "p_not_prime"),
                               ("2", "2,1,2", "not_monic"), ("2", "1,1", "bad_degree")):
            code, out = run(capsys, [command, "--p", p, "--r", "1", "--g", "1",
                                     "--poly", poly])
            assert code == 2, (command, poly)
            assert json.loads(out)["error"]["code"] == error


def test_classify_document_shape(capsys):
    code, out = run(capsys, ["classify", "--p", "5", "--r", "1", "--g", "1",
                             "--poly", "1,-2,5", "--no-timing"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {
        "total": "2", "cyclic": "1", "not_cyclic": "1", "point_count": "4",
        "index_bound": "2", "completeness": "certified", "indeterminate_pairs": [],
    }
    first, second = doc["classes"]
    assert first["matrix"] == [["0", "-5"], ["1", "2"]]
    assert first["verdict"] == "cyclic"
    assert first["membership_c1"] is True and first["membership_c2"] is False
    assert first["invariant_factors"] == ["1", "4"]
    assert first["group"] == ["4"]
    assert first["oracle_agrees"] is True
    assert second["matrix"] == [["-5", "-10"], ["4", "7"]]
    assert second["verdict"] == "not_cyclic"
    assert second["ideal_basis"] == {"denominator": "1", "rows": [["1", "1"], ["0", "2"]]}
    assert second["group"] == ["2", "2"]
    assert doc["sigma_checks"] == [
        {"ell": "2", "sigma_classes": ["1"], "tau_classes": ["1"], "agree": True}
    ]
    assert "timing" not in doc
    assert_no_bare_ints(doc)


def test_classify_timing_present_by_default(capsys):
    code, out = run(capsys, ["classify", "--p", "2", "--r", "1", "--g", "1",
                             "--poly", "1,1,2"])
    assert code == 0
    assert "seconds" in json.loads(out)["timing"]


def test_classify_byte_determinism(capsys):
    argv = ["classify", "--p", "5", "--r", "1", "--g", "1", "--poly", "1,-2,5",
            "--no-timing"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_classify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, ["classify", "--p", "2", "--r", "1", "--g", "1",
                             "--poly", "1,1,2", "--no-timing", "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["summary"]["total"] == "1"


def test_classify_refusals_exit_1(capsys):
    code, out = run(capsys, ["classify", "--p", "2", "--r", "1", "--g", "1",
                             "--poly", "1,-5,2"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not_weil"
    code, out = run(capsys, ["classify", "--p", "2", "--r", "2", "--g", "1",
                             "--poly", "1,-4,4"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not_ordinary"


def test_classify_bad_bound_exit_2(capsys):
    code, out = run(capsys, ["classify", "--p", "5", "--r", "1", "--g", "1",
                             "--poly", "1,-2,5", "--index-bound", "0"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "bad_bound"


def test_convert_matrix_to_ideal(capsys):
    code, out = run(capsys, ["convert", "--p", "5", "--r", "1", "--g", "1",
                             "--poly", "1,-2,5", "--matrix", "0,-5;1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["direction"] == "matrix_to_ideal"
    assert doc["ideal"] == {"denominator": "1", "rows": [["1", "0"], ["0", "1"]]}
    assert doc["round_trip"]["status"] == "conjugate"
    assert doc["round_trip"]["matrix"] == [["0", "-5"], ["1", "2"]]
    assert_no_bare_ints(doc)


def test_convert_ideal_to_matrix(capsys):
    code, out = run(capsys, ["convert", "--p", "5", "--r", "1", "--g", "1",
                             "--poly", "1,-2,5", "--ideal", "1,1;0,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["direction"] == "ideal_to_matrix"
    assert doc["matrix"] == [["-5", "-10"], ["4", "7"]]
    assert doc["round_trip"]["status"] == "equivalent"
    assert doc["round_trip"]["witness"] is not None


# contexts for convert without a search: g = 1, a corpus quartic, and
# t^6 - 2t^5 + t^4 + t^3 + 2t^2 - 8t + 8 over F_2 (g = 3)
SEARCH_FREE_CONTEXTS = ((5, 1, 1, (1, -2, 5)), (2, 1, 2, (1, 1, 1, 2, 4)),
                        (2, 1, 3, (1, -2, 1, 1, 2, -8, 8)))


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(a) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m, det = [[Fraction(x) for x in row] for row in a], Fraction(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv], det = m[piv], m[k], -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            c = m[i][k] / m[k][k]
            m[i] = [x - c * y for x, y in zip(m[i], m[k])]
    return det


def _conjugation_ok(u, a, b) -> bool:
    """u is unimodular with b u = u a, by plain integer products."""
    return abs(_det(u)) == 1 and _product(b, u) == _product(u, a)


def _scaling_ok(x, lat, lat_back, f_low) -> bool:
    """x lat = lat_back for lattice documents: x times each basis row of lat,
    reduced by the monic f, has integer coordinates in the triangular basis
    of lat_back, and their matrix is unimodular."""
    n = len(f_low) - 1
    basis = [[Fraction(v, int(lat["denominator"])) for v in map(int, row)]
             for row in lat["rows"]]
    target = [[Fraction(v, int(lat_back["denominator"])) for v in map(int, row)]
              for row in lat_back["rows"]]
    coords = []
    for b in basis:
        y = [Fraction(0)] * (2 * n - 1)
        for i, xi in enumerate(x):
            for j, bj in enumerate(b):
                y[i + j] += xi * bj
        for k in range(2 * n - 2, n - 1, -1):
            for j in range(n):
                y[k - n + j] -= y[k] * f_low[j]
        c = []
        for j in range(n):
            c.append((y[j] - sum(c[i] * target[i][j] for i in range(j))) / target[j][j])
        coords.append(c)
    return all(v.denominator == 1 for row in coords for v in row) and abs(_det(coords)) == 1


def _convert(capsys, ctx, direction: str) -> dict:
    code, out = run(capsys, ["convert", "--p", str(ctx.p), "--r", str(ctx.r), "--g", str(ctx.g),
                             "--poly=" + ",".join(map(str, ctx.f)), direction])
    assert code == 0, out
    return json.loads(out)


def _matrix_arg(m) -> str:
    return "--matrix=" + ";".join(",".join(map(str, row)) for row in m)


def _ints(rows) -> list[list[int]]:
    return [[int(x) for x in row] for row in rows]


def test_convert_runs_no_equivalence_search(capsys, monkeypatch):
    # both directions certify their round trip by the construction: with
    # every equivalence search disabled they still exit 0, and each witness
    # checks out in plain integer and rational arithmetic
    def refuse(*args, **kwargs):
        raise AssertionError("equivalence search entered")

    for module, name in ((orders, "ideal_equivalent"), (orders, "_witness_search"),
                         (conjugacy, "matrices_conjugate")):
        monkeypatch.setattr(module, name, refuse)
    rng = random.Random(24)
    for p, r, g, f in SEARCH_FREE_CONTEXTS:
        ctx = weil.make_context(p, r, g, list(f))
        n = ctx.n
        companion = [[1 if i == j + 1 else 0 for j in range(n - 1)] + [-ctx.f_low[i]]
                     for i in range(n)]
        moved = conjugate(companion, random_unimodular(rng, n))
        doc = _convert(capsys, ctx, _matrix_arg(moved))
        trip = doc["round_trip"]
        u, rep = _ints(trip["witness"]), _ints(trip["matrix"])
        assert trip["status"] == "conjugate" and u != [[int(i == j) for j in range(n)]
                                                       for i in range(n)], f
        assert _conjugation_ok(u, moved, rep), f
        # the pulled-back lattice, doubled, so that it is not its own round trip
        lat = doc["ideal"]
        ideal = ";".join(",".join(f"{2 * int(v)}/{lat['denominator']}" for v in row)
                         for row in lat["rows"])
        doc = _convert(capsys, ctx, "--ideal=" + ideal)
        trip = doc["round_trip"]
        x = [Fraction(v) for v in trip["witness"]]
        assert trip["status"] == "equivalent" and x != [1] + [0] * (n - 1), f
        assert _scaling_ok(x, doc["input_ideal"], trip["ideal"], ctx.f_low), f


def test_convert_witness_and_the_search_route_agree(capsys):
    # on U M U^-1 for every corpus class M, the witness convert reads off its
    # construction conjugates the input into the round-trip matrix, and the
    # independent search route still finds the two matrices conjugate
    rng = random.Random(20261019)
    for ctx in corpus_contexts():
        for report in cyclicity.classify_isogeny_class(ctx).reports:
            m = [list(row) for row in report.class_ref.rep]
            moved = conjugate(m, random_unimodular(rng, ctx.n))
            trip = _convert(capsys, ctx, _matrix_arg(moved))["round_trip"]
            u, rep = _ints(trip["witness"]), _ints(trip["matrix"])
            assert trip["status"] == "conjugate" and _conjugation_ok(u, moved, rep), ctx.f
            search = conjugacy.matrices_conjugate(ctx, moved, rep)
            assert search.status == "conjugate", ctx.f
            assert _conjugation_ok([list(row) for row in search.witness], moved, rep), ctx.f


def test_convert_direction_validation(capsys):
    base = ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly", "1,-2,5"]
    code, out = run(capsys, base)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "bad_direction"
    code, out = run(capsys, base + ["--matrix", "0,-5;1,2", "--ideal", "1,0;0,1"])
    assert code == 2


def test_convert_charpoly_mismatch_is_a_refusal(capsys):
    code, out = run(capsys, ["convert", "--p", "5", "--r", "1", "--g", "1",
                             "--poly", "1,-2,5", "--matrix", "1,0;0,5"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "charpoly_mismatch"


def test_convert_non_weil_is_a_refusal(capsys):
    # t^2 + 4t + 2 is self-reciprocal for q = 2 but its roots are real
    base = ["convert", "--p", "2", "--r", "1", "--g", "1", "--poly", "1,4,2"]
    for direction in ("--matrix=9,-17;7,-13", "--ideal=1,0;0,1"):
        code, out = run(capsys, base + [direction])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "not_weil"


def test_convert_degenerate_ideal_exit_2(capsys):
    # a basis that does not span a full-rank lattice is malformed input:
    # exit 2 with an error document, no traceback
    base = ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly", "1,-2,5"]
    for ideal in ("--ideal=1,0", "--ideal=1,2;2,4"):
        code, out = run(capsys, base + [ideal])
        assert code == 2
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["error"]["code"] == "degenerate_lattice"


def test_signed_values_may_follow_their_option(capsys, monkeypatch):
    # a separate value that starts with '-' and a digit is the value of
    # --poly, --matrix or --ideal, byte for byte as the joined --opt=value
    g1 = ["--p", "5", "--r", "1", "--g", "1"]
    argvs = [["convert", *g1, "--poly", "1,-2,5", "--matrix", "-5,-10;4,7"],
             ["convert", *g1, "--poly", "1,-2,5", "--ideal", "-1,-1;0,-2"],
             ["convert", *g1, "--poly", "1,-2,5", "--matrix", "-1,-2;1,0"],
             ["validate", *g1, "--poly", "-1,2,5"]]
    for argv, code in zip(argvs, (0, 0, 1, 2)):
        joined = []
        for tok in argv:
            if tok[:1] == "-" and tok[1:2].isdigit():
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        want = run(capsys, joined)
        assert want[0] == code and json.loads(want[1])["schema_version"] == "1", argv
        assert run(capsys, argv) == want, argv
        monkeypatch.setattr(sys, "argv", ["avcyclic", *argv])
        assert run(capsys, None) == want, argv
    # anything else after an option is still an option to argparse
    code, out = run(capsys, ["convert", *g1, "--poly", "1,-2,5", "--matrix", "-x"])
    assert code == 2 and out == ""


def test_convert_unparsable_input_exit_2(capsys):
    base = ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly", "1,-2,5"]
    for arg, want in (("--matrix=1,x;0,1", "bad_matrix"), ("--ideal=1/0,0;0,1", "bad_ideal")):
        code, out = run(capsys, base + [arg])
        assert code == 2
        assert json.loads(out)["error"]["code"] == want


def test_sweep_small_field(capsys):
    code, out = run(capsys, ["sweep", "--p", "2", "--r", "1", "--g", "1", "--no-timing"])
    assert code == 0
    doc = json.loads(out)
    assert doc["sweep"] == {"p": "2", "r": "1", "g": "1", "contexts": "2"}
    assert len(doc["reports"]) == 2
    assert doc["failures"] == []
    csv_text = doc["aggregate_csv"]
    assert csv_text.splitlines()[0] == "q,f,classes,cyclic,not_cyclic,completeness"
    assert '2,"1,-1,2",1,1,0,certified' in csv_text
    assert '2,"1,1,2",1,1,0,certified' in csv_text


def test_sweep_with_fixtures_and_outputs(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    csv_path = tmp_path / "agg.csv"
    code, out = run(capsys, ["sweep", "--p", "2", "--r", "1", "--g", "1", "--no-timing",
                             "--fixtures", str(FIXTURE), "--out-dir", str(out_dir),
                             "--csv", str(csv_path)])
    assert code == 0
    assert out == ""
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["aggregate.csv", "g1_q2_f_1_1_2.json", "g1_q2_f_1_m1_2.json",
                     "sweep.json"]
    sweep_doc = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
    assert sweep_doc["cross_validation"]["report"]["mismatch_count"] == "0"
    assert sweep_doc["cross_validation"]["rejected_lines"] == []
    assert csv_path.read_text(encoding="utf-8") == (out_dir / "aggregate.csv").read_text(
        encoding="utf-8")
    per_ctx = json.loads((out_dir / "g1_q2_f_1_m1_2.json").read_text(encoding="utf-8"))
    assert per_ctx["context"]["f"] == ["1", "-1", "2"]


def test_sweep_fixture_record_outside_the_envelope_is_a_rejected_line(tmp_path, capsys):
    # a degree-10 record (above DEGREE_CAP) and a non-Weil octic whose factor
    # box is about 8.7e12 points (above FACTOR_BOX_CAP) are reported as bad
    # lines; the rest of the document is what the clean fixture gives
    argv = ["sweep", "--p", "2", "--r", "1", "--g", "1", "--no-timing", "--fixtures"]
    clean_code, clean = run(capsys, argv + [str(FIXTURE)])
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    lines[3:3] = [json.dumps({"label": "big", "q": 2, "g": 5, "poly": [32] + [0] * 9 + [1]}),
                  json.dumps({"label": "box", "q": 2, "g": 4,
                              "poly": [1001000, 0, 0, 0, 2001, 0, 0, 0, 1]})]
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out = run(capsys, argv + [str(mixed)])
    assert code == clean_code == 0
    doc, want = json.loads(out), json.loads(clean)
    rejected = doc["cross_validation"].pop("rejected_lines")
    assert [line for line, _ in rejected] == ["4", "5"]
    assert "exceeds the supported cap" in rejected[0][1]
    assert "over the cap" in rejected[1][1]
    assert want["cross_validation"].pop("rejected_lines") == []
    assert doc == want


def test_classify_g1_runs_no_colon_ideal_and_no_subspace_scan(capsys, monkeypatch):
    # g = 1 lists its ideals in closed form, so the generic local step is
    # never reached, and a class whose reduced form has the discriminant of
    # Z[alpha] has that ring, with no colon ideal.  Z[alpha] is maximal over
    # F_2, F_101 and F_127, so no colon is built there; t^2 - 2t + 5 over F_5
    # (disc -16) builds exactly one, the ring Z[i] = Z[(1 + alpha) / 2] of
    # its class (2, alpha - 1) = 2 Z[i]
    argvs = [["classify", "--p", p, "--r", "1", "--g", "1", "--poly=" + f, "--no-timing"]
             for p, f in (("2", "1,1,2"), ("5", "1,-2,5"), ("101", "1,3,101"),
                          ("127", "1,-10,127"))]
    want = [run(capsys, argv) for argv in argvs]
    quotient, colons = orders.ideal_quotient, []

    def counted(a, b):
        colons.append(quotient(a, b))
        return colons[-1]

    def refuse(*args):
        raise AssertionError("colon ideal or generic g >= 2 path reached at g = 1")

    monkeypatch.setattr(icm, "_local_ideals", refuse)
    for argv, expected, builds in zip(argvs, want, (0, 1, 0, 0)):
        orders.multiplicator_ring.cache_clear()
        monkeypatch.setattr(orders, "ideal_quotient", counted if builds else refuse)
        assert run(capsys, argv) == expected
    assert [(ring.den, ring.mat) for ring in colons] == [(2, ((1, 1), (0, 2)))]
    assert all(code == 0 for code, _ in want)


def test_classify_quartic_over_its_own_ring_runs_no_colon_ideal(capsys, monkeypatch):
    # disc(R) = 13^2 * 17 for t^4 - t^3 + t^2 - 2t + 4 over F_2, so below its
    # bound 6 no index has a prime whose square divides it: every candidate's
    # ring is R, and every test is against R, where (b : R) = b
    argv = ["classify", "--p", "2", "--r", "1", "--g", "2", "--poly=1,-1,1,-2,4",
            "--no-timing"]
    want = run(capsys, argv)

    def refuse(*args):
        raise AssertionError("colon ideal built")

    orders.multiplicator_ring.cache_clear()
    monkeypatch.setattr(orders, "ideal_quotient", refuse)
    assert run(capsys, argv) == want
    assert want[0] == 0 and json.loads(want[1])["summary"]["index_bound"] == "6"


@pytest.mark.parametrize("exc, code, exit_code", [
    (ConsistencyError("routes disagree"), "consistency", 3),
    (InputError("not_irreducible", "polynomial is reducible"), "not_irreducible", 1),
    (CapabilityError("over the cap"), "capability", 2),
    (DegenerateLatticeError("singular matrix"), "degenerate_lattice", 2),
])
def test_sweep_reports_a_failing_context_and_keeps_the_rest(capsys, monkeypatch, exc, code,
                                                            exit_code):
    argv = ["sweep", "--p", "3", "--r", "1", "--g", "1", "--no-timing"]
    clean_code, clean = run(capsys, argv)
    want = json.loads(clean)
    classify = cyclicity.classify_isogeny_class

    def fail_one(ctx, index_bound=None):
        if ctx.f == (1, 1, 3):
            raise exc
        return classify(ctx, index_bound)

    monkeypatch.setattr(cyclicity, "classify_isogeny_class", fail_one)
    got_code, out = run(capsys, argv)
    doc = json.loads(out)
    assert (clean_code, got_code) == (0, exit_code)
    failed = {"p": "3", "r": "1", "q": "3", "g": "1", "f": ["1", "1", "3"]}
    assert doc["failures"] == [{"context": failed,
                                "error": {"code": code, "message": str(exc)}}]
    assert doc["reports"] == [r for r in want["reports"] if r["context"] != failed]
    assert len(doc["reports"]) == len(want["reports"]) - 1 == 3
    assert doc["aggregate_csv"] == "".join(
        line for line in want["aggregate_csv"].splitlines(keepends=True)
        if not line.startswith('3,"1,1,3",'))
    assert doc["sweep"] == want["sweep"]


def test_sweep_bad_bound_exits_as_classify_does(capsys):
    # every context fails bad_bound, an input error rather than a refusal,
    # so the sweep exits 2, as classify does on one context
    code, out = run(capsys, ["sweep", "--p", "2", "--r", "1", "--g", "1", "--index-bound", "0",
                             "--no-timing"])
    doc = json.loads(out)
    assert code == 2
    assert doc["reports"] == []
    assert len(doc["failures"]) == int(doc["sweep"]["contexts"]) > 0
    assert {f["error"]["code"] for f in doc["failures"]} == {"bad_bound"}
    code, out = run(capsys, ["classify", "--p", "2", "--r", "1", "--g", "1", "--poly=1,1,2",
                             "--index-bound", "0"])
    assert (code, json.loads(out)["error"]["code"]) == (2, "bad_bound")


def test_sweep_refuses_a_field_that_is_not_a_prime_power(capsys):
    # p = 4 is not prime and r = 0 is no extension degree: bad_field, exit 2
    for p, r in (("4", "1"), ("2", "0")):
        code, out = run(capsys, ["sweep", "--p", p, "--r", r, "--g", "1", "--no-timing"])
        assert code == 2
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["error"]["code"] == "bad_field"


def test_sweep_determinism(tmp_path, capsys):
    argv = ["sweep", "--p", "3", "--r", "1", "--g", "1", "--no-timing"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_sweep_capability_exit_2(capsys):
    # g = 3, and q = 3^(10^7) over weil.ENUM_Q_CAP, refused at once, before
    # q is formed
    for p, r, g in (("2", "1", "3"), ("3", "10000000", "1")):
        start = time.monotonic()
        code, out = run(capsys, ["sweep", "--p", p, "--r", r, "--g", g])
        assert time.monotonic() - start < 1
        assert code == 2
        assert json.loads(out)["error"]["code"] == "capability"


def test_classify_at_the_convex_body_bound_prints_the_same_document(capsys):
    # on every corpus context the document at the default bound is the one
    # at Minkowski's convex-body bound, but for the bound it names
    for ctx in corpus_contexts():
        argv = ["classify", "--p", str(ctx.p), "--r", str(ctx.r), "--g", str(ctx.g),
                "--poly=" + ",".join(map(str, ctx.f)), "--no-timing"]
        old = minkowski_convex_body_bound(orders.frobenius_pair_order(ctx))
        docs = []
        for extra in ([], ["--index-bound", str(old)]):
            code, out = run(capsys, argv + extra)
            assert code == 0, ctx.f
            docs.append(json.loads(out))
        assert docs[1]["summary"].pop("index_bound") == str(old)
        del docs[0]["summary"]["index_bound"]
        assert docs[0] == docs[1], ctx.f


def test_classify_refuses_a_g1_minkowski_bound_over_the_cap(capsys):
    # q = 2^61: the default g = 1 bound, minkowski_index_bound, about 1.8e9, is
    # over icm.G1_INDEX_CAP, so classify refuses at once, where listing the
    # ideals up to it would not end
    start = time.monotonic()
    code, out = run(capsys, ["classify", "--p", "2", "--r", "61", "--g", "1",
                             "--poly=1,1,2305843009213693952", "--no-timing"])
    assert time.monotonic() - start < 1
    assert code == 2
    assert json.loads(out)["error"]["code"] == "capability"


def test_validate_factor_search_is_capped(capsys):
    # (t^4 + 1000)(t^4 + 1001): the degree-4 factor box holds about 8.7e12
    # points, far over weil.FACTOR_BOX_CAP, so validate refuses it at once
    start = time.monotonic()
    code, out = run(capsys, ["validate", "--p", "2", "--r", "1", "--g", "4",
                             "--poly=1,0,0,0,2001,0,0,0,1001000"])
    assert time.monotonic() - start < 1
    assert code == 2
    assert json.loads(out)["error"]["code"] == "capability"


@pytest.mark.parametrize("context", [
    # not Weil: the integer-root test would list the divisors of 10^30 + 1
    ["--p", "2", "--r", "1", "--g", "1", "--poly=1,0,1000000000000000000000000000001"],
    # Weil over F_p, p = 10^18 + 3: h = t^2 + t + (1 - 2p) meets the same scan
    ["--p", "1000000000000000003", "--r", "1", "--g", "2",
     "--poly=1,1,1,1000000000000000003,1000000000000000006000000000000000009"],
])
def test_validate_divisor_scan_is_capped(context):
    # listing the divisors of a constant term c takes sqrt|c| trial divisions,
    # refused past weil.FACTOR_BOX_CAP; run in a subprocess, so a stall hits
    # the time limit instead of hanging the suite
    done = subprocess.run([sys.executable, "-m", "avcyclic.cli", "validate", *context],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 2, done.stdout
    assert json.loads(done.stdout)["error"]["code"] == "capability"


def test_validate_refuses_q_too_long_to_write(capsys):
    # the JSON writer prints at most sys.get_int_max_str_digits() decimal
    # digits; a longer q = p^r is a capability error, refused before p^r is
    # formed, so r = 10^12 returns at once; the longest q is still written
    limit = sys.get_int_max_str_digits()
    start = time.monotonic()
    for r in (20000, 10**12):
        code, out = run(capsys, ["validate", "--p", "2", "--r", str(r), "--g", "1",
                                 "--poly=1,0,1"])
        assert (code, json.loads(out)["error"]["code"]) == (2, "capability"), r
    assert time.monotonic() - start < 1
    longest = (10**limit).bit_length() - 1  # 2^longest < 10^limit
    code, out = run(capsys, ["validate", "--p", "2", "--r", str(longest), "--g", "1",
                             "--poly=1,0,1"])
    assert (code, json.loads(out)["context"]["q"]) == (1, str(2**longest))
    assert len(str(2**longest)) == limit


def test_validate_non_weil_octic_returns(capsys):
    # t^8 + 9t^4 + 16 is irreducible, not Weil over F_2, and every sieve prime
    # leaves a degree-4 factor possible
    start = time.monotonic()
    code, out = run(capsys, ["validate", "--p", "2", "--r", "1", "--g", "4",
                             "--poly=1,0,0,0,9,0,0,0,16"])
    assert time.monotonic() - start < 2
    assert code == 1
    doc = json.loads(out)
    assert doc["is_weil"] is False and doc["is_irreducible"] is True


def test_non_weil_is_refused_before_any_factor_search(capsys):
    # (t^4 + 1000)(t^4 + 1001) is not Weil over F_2: classify and convert
    # refuse it with not_weil, while validate, which reports irreducibility,
    # still meets the over-cap factor box
    context = ["--p", "2", "--r", "1", "--g", "4", "--poly=1,0,0,0,2001,0,0,0,1001000"]
    companion = ";".join(",".join(str(x) for x in row) for row in (
        [0, 0, 0, 0, 0, 0, 0, -1001000], [1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, -2001], [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]))
    for argv in (["classify"] + context, ["convert"] + context + ["--matrix=" + companion]):
        code, out = run(capsys, argv)
        assert (code, json.loads(out)["error"]["code"]) == (1, "not_weil")
    code, out = run(capsys, ["validate"] + context)
    assert code == 2
    assert out == ('{\n  "error": {\n    "code": "capability",\n    "message": "the degree-4 '
                   'factor search needs 8671437808048 candidates, over the cap 50000000"\n'
                   '  },\n  "schema_version": "1"\n}\n')
    # a non-Weil product of two quartics whose factor box is under the cap
    start = time.monotonic()
    code, out = run(capsys, ["classify", "--p", "2", "--r", "1", "--g", "4",
                             "--poly=1,-5,-1,-17,-36,-53,-10,17,20"])
    assert time.monotonic() - start < 1
    assert (code, json.loads(out)["error"]["code"]) == (1, "not_weil")


def test_convert_reducible_is_a_refusal(capsys):
    # (t^2 + t + 2)^2 is Weil and ordinary, but K = Q[t]/(f) is no field;
    # this matrix has no cyclic vector, which used to surface as exit 3
    base = ["convert", "--p", "2", "--r", "1", "--g", "2", "--poly", "1,2,5,4,4"]
    code, out = run(capsys, base + ["--matrix=0,-2,0,0;1,-1,0,0;0,0,0,-2;0,0,1,-1"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not_irreducible"
    # non-Weil is reported first: (t + 1)(t + 2) has real roots
    base = ["convert", "--p", "2", "--r", "1", "--g", "1", "--poly", "1,3,2"]
    for direction in ("--matrix=-1,0;0,-2", "--ideal=1,0;0,1"):
        code, out = run(capsys, base + [direction])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "not_weil"


def test_main_returns_usage_errors(capsys):
    # argparse reads "-x,0;0,1" as an option; main returns its status 2
    # instead of raising SystemExit (a value that starts with '-' and a digit
    # parses, joined or not)
    base = ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly", "1,-2,5"]
    assert cli.main(base + ["--matrix", "-x,0;0,1"]) == 2
    assert "usage" in capsys.readouterr().err
    assert cli.main(["classify", "--help"]) == 0
    assert "--index-bound" in capsys.readouterr().out
    for matrix in (["--matrix=-1,0;0,1"], ["--matrix", "-1,0;0,1"]):
        code, out = run(capsys, base + matrix)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "charpoly_mismatch"


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    # one parser serves every call: an option given once must not stick
    target = tmp_path / "first.json"
    argv = ["classify", "--p", "5", "--r", "1", "--g", "1", "--poly", "1,-2,5", "--no-timing"]
    code, out = run(capsys, argv + ["--index-bound", "1", "--out", str(target)])
    assert (code, out) == (0, "")
    first = target.read_text(encoding="utf-8")
    assert json.loads(first)["summary"]["index_bound"] == "1"
    code, out = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["summary"]["index_bound"] != "1"
    code, out = run(capsys, ["validate", "--p", "2", "--r", "1", "--g", "1", "--poly", "1,-5,2"])
    assert code == 1
    assert json.loads(out)["weil_reason"] == "root_location"
    assert target.read_text(encoding="utf-8") == first


# strings mixing every character class with the ones JSON must escape
_CHARS = st.one_of(st.characters(), st.sampled_from('"\\/\x00\x08\n\r\t\x1f\x7f\u00e9'
                                                    '\u2028\ud800\udfff\U0001f600'))
_TEXT = st.text(_CHARS, max_size=8)
_LEAVES = st.one_of(_TEXT, st.integers(), st.integers(-2**80, -2**64), st.integers(2**64, 2**80),
                    st.booleans(), st.none(), st.fractions())
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_DOCUMENTS)
@example([])
@example({})
@example(())
@example([[], {}, ()])
@example({"a": [[], [[]]], "b": {"c": {}}})
def test_dump_matches_two_pass_oracle(doc):
    assert cli._dump(doc) == dump_oracle(doc)


@pytest.mark.parametrize("bad", [0.0, 1.5, [1, 0.0], {"a": [0.0]}, set(), {1}, b"", [b"x"],
                                 {1: "x"}, {"a": 1, 2: 3}, {("a",): 1}])
def test_dump_refuses_other_types(bad):
    with pytest.raises(TypeError):
        cli._dump(bad)


def test_dump_never_runs_the_pure_python_encoder(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    doc = {"a": [1, -2, Fraction(3, 4)], "b": {"c": "d\u00e9", "e": None, "f": True}}
    with pytest.raises(AssertionError):
        dump_oracle(doc)  # the stub does catch the indent=2 path of json.dumps
    assert cli._dump(doc).startswith("{")
    out = tmp_path / "doc.json"
    assert cli.main(["classify", "--p", "5", "--r", "1", "--g", "1", "--poly", "1,-2,5",
                     "--no-timing", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["summary"]["total"] == "2"
