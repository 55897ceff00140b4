"""End-to-end command line behavior: documents, exit codes, determinism."""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avcyclic import cli, cyclicity, icm, orders
from avcyclic.errors import CapabilityError, ConsistencyError, InputError

from _helpers import dump_oracle

FIXTURE = Path(__file__).parent / "fixtures" / "external_records.jsonl"


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
        "index_bound": "3", "completeness": "certified", "indeterminate_pairs": [],
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
    # g = 1 lists its ideals in closed form and reads each ring off the norm
    # form: neither the colon ideal nor the generic local step is reached
    argvs = [["classify", "--p", p, "--r", "1", "--g", "1", "--poly=" + f, "--no-timing"]
             for p, f in (("2", "1,1,2"), ("5", "1,-2,5"), ("101", "1,3,101"),
                          ("127", "1,-10,127"))]
    want = [run(capsys, argv) for argv in argvs]

    def refuse(*args):
        raise AssertionError("generic g >= 2 path reached at g = 1")

    orders.multiplicator_ring.cache_clear()
    monkeypatch.setattr(orders, "ideal_quotient", refuse)
    monkeypatch.setattr(icm, "_local_ideals", refuse)
    assert [run(capsys, argv) for argv in argvs] == want
    assert all(code == 0 for code, _ in want)


def test_classify_quartic_over_its_own_ring_runs_no_colon_ideal(capsys, monkeypatch):
    # disc(R) = 13^2 * 17 for t^4 - t^3 + t^2 - 2t + 4 over F_2, so below its
    # bound 9 no index has a prime whose square divides it: every candidate's
    # ring is R, and every test is against R, where (b : R) = b
    argv = ["classify", "--p", "2", "--r", "1", "--g", "2", "--poly=1,-1,1,-2,4",
            "--no-timing"]
    want = run(capsys, argv)

    def refuse(*args):
        raise AssertionError("colon ideal built")

    orders.multiplicator_ring.cache_clear()
    monkeypatch.setattr(orders, "ideal_quotient", refuse)
    assert run(capsys, argv) == want
    assert want[0] == 0 and json.loads(want[1])["summary"]["index_bound"] == "9"


@pytest.mark.parametrize("exc, code, exit_code", [
    (ConsistencyError("routes disagree"), "consistency", 3),
    (InputError("not_irreducible", "polynomial is reducible"), "not_irreducible", 1),
    (CapabilityError("over the cap"), "capability", 1),
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


def test_sweep_determinism(tmp_path, capsys):
    argv = ["sweep", "--p", "3", "--r", "1", "--g", "1", "--no-timing"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_sweep_capability_exit_2(capsys):
    code, out = run(capsys, ["sweep", "--p", "2", "--r", "1", "--g", "3"])
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
