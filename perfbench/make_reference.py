"""Regenerate ``reference.json``, the stored answers the benchmark checks
against: for every corpus and g1-wide pool context its class count, verdicts,
groups and completeness, and the corpus class representatives that the
roundtrip workload conjugates.

Run from the repository root:  python3 perfbench/make_reference.py

The stored file was produced from the code the benchmark was introduced
with; regenerate it only when a change is meant to alter verified answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from avcyclic import cyclicity, weil  # noqa: E402

import workloads as wl  # noqa: E402


def entry(result) -> dict:
    return {
        "classes": result.total,
        "verdicts": [rep.verdict for rep in result.reports],
        "groups": [list(rep.group_descriptor) for rep in result.reports],
        "completeness": result.completeness,
    }


def main() -> None:
    ref = {"contexts": {}, "corpus": [], "roundtrip_reps": []}
    for ctx in wl.corpus_contexts(weil):
        key = wl.context_key(ctx.p, ctx.r, ctx.g, ctx.f)
        result = cyclicity.classify_isogeny_class(ctx)
        ref["corpus"].append(key)
        ref["contexts"][key] = entry(result)
        ref["roundtrip_reps"] += [{"context": key, "matrix": [list(r) for r in rep.class_ref.rep]}
                                  for rep in result.reports]
    for key in wl.g1_pool():
        if key not in ref["contexts"]:
            p, r, g, f = wl.parse_key(key)
            result = cyclicity.classify_isogeny_class(weil.make_context(p, r, g, f))
            ref["contexts"][key] = entry(result)
    wl.REFERENCE_PATH.write_text(json.dumps(ref, separators=(",", ":"), sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"{len(ref['corpus'])} corpus contexts, {len(ref['contexts'])} contexts, "
          f"{len(ref['roundtrip_reps'])} roundtrip representatives -> {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
