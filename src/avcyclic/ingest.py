"""Offline-first ingestion of externally tabulated isogeny-class records.

Fixture files are JSON lines, one record per line, with published-style
constant-first coefficient lists; the reversal to the internal monic-first
order happens here and nowhere else.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import CapabilityError, InputError
from .weil import is_int, make_context, prime_power_split

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExternalClassRecord:
    label: str
    q: int
    g: int
    poly: tuple[int, ...]  # constant term first, as published
    is_ordinary_claimed: bool | None = None
    point_count_claimed: int | None = None

    @property
    def poly_monic_first(self) -> tuple[int, ...]:
        return tuple(reversed(self.poly))

    @property
    def p_r(self) -> tuple[int, int]:
        split = prime_power_split(self.q)
        if split is None:
            raise InputError("bad_q", f"q = {self.q} is not a prime power")
        return split


@dataclass(frozen=True)
class FixtureLoad:
    records: tuple[ExternalClassRecord, ...]
    rejected: tuple[tuple[int, str], ...]  # (line number, reason)


def _record_from_obj(obj) -> ExternalClassRecord:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    try:
        label = obj["label"]
        q = obj["q"]
        g = obj["g"]
        poly = obj["poly"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(label, str) or not label:
        raise ValueError("label must be a nonempty string")
    if not is_int(q) or prime_power_split(q) is None:
        raise ValueError(f"q = {q!r} is not a prime power")
    if not is_int(g) or g < 1:
        raise ValueError(f"g = {g!r} is not a positive integer")
    if not isinstance(poly, list) or len(poly) != 2 * g + 1 or not all(map(is_int, poly)):
        raise ValueError(f"poly must be a list of {2 * g + 1} integers")
    if poly[-1] != 1:
        raise ValueError("poly must be monic (leading coefficient last and equal to 1)")
    ordinary = obj.get("is_ordinary_claimed")
    if ordinary is not None and not isinstance(ordinary, bool):
        raise ValueError("is_ordinary_claimed must be a boolean when present")
    count = obj.get("point_count_claimed")
    if count is not None and not is_int(count):
        raise ValueError("point_count_claimed must be an integer when present")
    return ExternalClassRecord(label, q, g, tuple(poly), ordinary, count)


def load_fixture(path) -> FixtureLoad:
    """Parse a JSON-lines fixture.  Malformed lines, and records whose
    context make_context or its irreducibility test refuses, are reported
    with their line numbers and skipped; an empty result is an error."""
    text = Path(path).read_text(encoding="utf-8")
    records = []
    rejected = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = _record_from_obj(json.loads(line))
            # a record outside the supported envelope (the degree cap, the
            # factor box of a non-Weil input) is a bad line like any other
            make_context(*rec.p_r, rec.g, list(rec.poly_monic_first)).is_irreducible
            records.append(rec)
        except (ValueError, TypeError, CapabilityError) as exc:
            rejected.append((line_no, str(exc)))
    if not records:
        raise InputError("no_valid_records", f"no valid records in fixture {path}")
    return FixtureLoad(tuple(records), tuple(rejected))


def cross_validate(records) -> dict:
    """Recompute ordinariness and the point count for each record and compare
    them to the claimed fields.  Mismatches are data, not exceptions."""
    mismatches = []
    checked = 0
    for rec in records:
        p, r = rec.p_r
        ctx = make_context(p, r, rec.g, list(rec.poly_monic_first))
        checked += 1
        if rec.is_ordinary_claimed is not None and ctx.is_ordinary != rec.is_ordinary_claimed:
            mismatches.append({
                "label": rec.label,
                "field": "is_ordinary",
                "claimed": rec.is_ordinary_claimed,
                "computed": ctx.is_ordinary,
            })
        if rec.point_count_claimed is not None:
            computed = ctx.point_count
            if computed != rec.point_count_claimed:
                mismatches.append({
                    "label": rec.label,
                    "field": "point_count",
                    "claimed": rec.point_count_claimed,
                    "computed": computed,
                })
    return {
        "record_count": checked,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches,
    }
