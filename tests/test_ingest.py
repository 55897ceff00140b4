"""Fixture parsing and claim cross-validation."""

import json
from pathlib import Path

import pytest

from avcyclic import ingest
from avcyclic.errors import InputError
from avcyclic.ingest import ExternalClassRecord

FIXTURE = Path(__file__).parent / "fixtures" / "external_records.jsonl"


def test_bundled_fixture_loads_cleanly():
    load = ingest.load_fixture(FIXTURE)
    assert len(load.records) == 20
    assert load.rejected == ()
    first = load.records[0]
    assert first.label == "1.2.2_m1_1"
    assert (first.q, first.g) == (2, 1)
    assert first.poly == (2, -1, 1)
    assert first.poly_monic_first == (1, -1, 2)
    assert first.is_ordinary_claimed is True
    assert first.point_count_claimed == 2
    assert first.p_r == (2, 1)


def test_malformed_lines_reported_with_numbers(tmp_path):
    f = tmp_path / "mixed.jsonl"
    good = {"label": "a", "q": 2, "g": 1, "poly": [2, -1, 1]}
    f.write_text(
        json.dumps(good) + "\n"
        + "this is not json\n"
        + "\n"  # blank lines are fine
        + json.dumps({"label": "b", "q": 6, "g": 1, "poly": [6, -1, 1]}) + "\n"
        + json.dumps({"label": "c", "q": 2, "g": 1, "poly": [2, -1]}) + "\n"
        + json.dumps({"label": "d", "q": 2, "g": 1, "poly": [2, -1, 3]}) + "\n"
        + json.dumps({"label": "", "q": 2, "g": 1, "poly": [2, -1, 1]}) + "\n"
        + json.dumps({"q": 2, "g": 1, "poly": [2, -1, 1]}) + "\n",
        encoding="utf-8",
    )
    load = ingest.load_fixture(f)
    assert [r.label for r in load.records] == ["a"]
    assert [line for line, _ in load.rejected] == [2, 4, 5, 6, 7, 8]
    reasons = dict(load.rejected)
    assert "prime power" in reasons[4]
    assert "monic" in reasons[6]
    assert "missing field" in reasons[8]


def test_non_object_and_mistyped_claims_rejected_with_line_numbers(tmp_path):
    f = tmp_path / "claims.jsonl"
    good = {"label": "a", "q": 2, "g": 1, "poly": [2, -1, 1]}
    f.write_text(
        json.dumps(good) + "\n"
        + json.dumps([2, -1, 1]) + "\n"
        + json.dumps(dict(good, label="b", is_ordinary_claimed="yes")) + "\n"
        + json.dumps(dict(good, label="c", is_ordinary_claimed=1)) + "\n"
        + json.dumps(dict(good, label="d", point_count_claimed="2")) + "\n"
        + json.dumps(dict(good, label="e", point_count_claimed=2.0)) + "\n"
        + json.dumps(dict(good, label="f", point_count_claimed=True)) + "\n"
        + json.dumps(dict(good, label="g", is_ordinary_claimed=True, point_count_claimed=2))
        + "\n",
        encoding="utf-8",
    )
    load = ingest.load_fixture(f)
    assert [r.label for r in load.records] == ["a", "g"]
    assert load.records[1] == ExternalClassRecord("g", 2, 1, (2, -1, 1), True, 2)
    assert [line for line, _ in load.rejected] == [2, 3, 4, 5, 6, 7]
    reasons = dict(load.rejected)
    assert reasons[2] == "record must be a JSON object"
    for line in (3, 4):
        assert reasons[line] == "is_ordinary_claimed must be a boolean when present"
    for line in (5, 6, 7):
        assert reasons[line] == "point_count_claimed must be an integer when present"


def test_zero_valid_records_is_an_error(tmp_path):
    f = tmp_path / "empty.jsonl"
    f.write_text("not json either\n", encoding="utf-8")
    with pytest.raises(InputError) as e:
        ingest.load_fixture(f)
    assert e.value.code == "no_valid_records"
    g = tmp_path / "blank.jsonl"
    g.write_text("\n\n", encoding="utf-8")
    with pytest.raises(InputError):
        ingest.load_fixture(g)


def test_bad_q_property():
    rec = ExternalClassRecord("x", 12, 1, (12, -1, 1))
    with pytest.raises(InputError) as e:
        rec.p_r
    assert e.value.code == "bad_q"


def test_cross_validate_bundled_fixture_is_clean():
    load = ingest.load_fixture(FIXTURE)
    report = ingest.cross_validate(load.records)
    assert report["record_count"] == 20
    assert report["mismatch_count"] == 0
    assert report["mismatches"] == []


def test_cross_validate_detects_flipped_claims():
    base = ExternalClassRecord("good", 2, 1, (2, -1, 1), True, 2)
    flipped = ExternalClassRecord("bad-flag", 2, 1, (2, -1, 1), False, 2)
    wrong_count = ExternalClassRecord("bad-count", 2, 1, (2, -1, 1), True, 3)
    silent = ExternalClassRecord("no-claims", 2, 1, (2, -1, 1))
    report = ingest.cross_validate([base, flipped, wrong_count, silent])
    assert report["record_count"] == 4
    assert report["mismatch_count"] == 2
    fields = {(m["label"], m["field"]) for m in report["mismatches"]}
    assert fields == {("bad-flag", "is_ordinary"), ("bad-count", "point_count")}
    by_label = {m["label"]: m for m in report["mismatches"]}
    assert by_label["bad-count"]["claimed"] == 3
    assert by_label["bad-count"]["computed"] == 2


def test_boolean_q_and_g_rejected_with_line_numbers(tmp_path):
    # JSON true is a Python int; it must not pass for g = 1 (or q = 1)
    f = tmp_path / "booleans.jsonl"
    good = {"label": "a", "q": 2, "g": 1, "poly": [2, -1, 1]}
    f.write_text(
        json.dumps(good) + "\n"
        + json.dumps({"label": "b", "q": 2, "g": True, "poly": [2, -1, 1]}) + "\n"
        + json.dumps({"label": "c", "q": True, "g": 1, "poly": [1, -1, 1]}) + "\n",
        encoding="utf-8",
    )
    load = ingest.load_fixture(f)
    assert [r.label for r in load.records] == ["a"]
    assert [line for line, _ in load.rejected] == [2, 3]
    reasons = dict(load.rejected)
    assert "g = True is not a positive integer" in reasons[2]
    assert "q = True is not a prime power" in reasons[3]
