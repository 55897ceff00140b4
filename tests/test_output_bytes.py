"""Same JSON bytes: sha256 digests of `classify --no-timing` on every corpus
context, of `convert --matrix=M` on every class matrix M it lists and of
`convert --ideal=B` on every class ideal basis B it lists (the one document
that prints an element's rational coordinates, as the round-trip witness),
then of `classify --no-timing` on every ordinary irreducible g = 1 context with
q <= G1_Q_MAX that the corpus does not already list, and of `validate` on
every corpus context and every quartic t^4 + a1 t^3 + a2 t^2 + q a1 t + q^2 of
the boxes |a1| <= 4 sqrt(q), |a2| <= 6q over F_2 and F_3, Weil or not, then
of `classify --no-timing` on every G1_SAMPLE_STEP-th ordinary irreducible g = 1
context with G1_Q_MAX < q <= G1_SAMPLE_Q_MAX (206 of 2262), and last of
`convert --matrix=U M U^-1` on every class matrix M, U unimodular with entries
<= 5 drawn from a fixed seed (M itself mostly takes the identity shortcut,
the conjugate prints the change of basis of its pull-back), then of
`sweep --no-timing` on stdout for SWEEPS, of every file that
`sweep --out-dir` writes for OUT_DIR_SWEEP, and of one error document per
error path of `cli.main` (ERROR_INPUTS), and last of
`classify --index-bound --no-timing` for BOUNDED_CLASSIFY and of
`sweep --no-timing` for LATE_SWEEP, against the digests stored in
fixtures/output_digests.json.

A change that alters these bytes on purpose rewrites the fixture with

    PYTHONPATH=src python tests/test_output_bytes.py --write

which prints, per document kind, how many digests changed, were added,
were removed and stayed, and says so in CHANGES.md.
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from math import isqrt
from pathlib import Path

from avcyclic import cli

from _helpers import conjugate, corpus_contexts, g1_contexts, random_unimodular

FIXTURE = Path(__file__).parent / "fixtures" / "output_digests.json"
G1_Q_MAX = 32
G1_SAMPLE_Q_MAX = 257
G1_SAMPLE_STEP = 11
VALIDATE_BOX_FIELDS = ((2, 1), (3, 1))
CONJUGATE_SEED = 20261019
EXTERNAL_RECORDS = Path(__file__).parent / "fixtures" / "external_records.jsonl"
SWEEPS = (("2", "1", "1"), ("2", "1", "2"))
OUT_DIR_SWEEP = ("2", "1", "1")
# quartics classified at explicit bounds above the default cap, where g = 2
# equivalence dominates, and one whole g = 2 sweep, recorded last
BOUNDED_CLASSIFY = (("7", "1", "2", "1,0,-1,0,49", "119"),
                    ("5", "1", "2", "1,-3,7,-15,25", "34"))
LATE_SWEEP = ("5", "1", "2")
# (label, argv, exit code); the io message echoes the path, so it is fixed
ERROR_INPUTS = (
    ("charpoly_mismatch", ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly=1,-2,5",
                           "--matrix=1,0;0,5"], 1),
    ("bad_poly", ["validate", "--p", "2", "--r", "1", "--g", "1", "--poly=1,x,2"], 2),
    ("capability", ["classify", "--p", "2", "--r", "1", "--g", "5",
                    "--poly=1,0,0,0,0,0,0,0,0,0,32"], 2),
    ("degenerate_lattice", ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly=1,-2,5",
                            "--ideal=1,0"], 2),
    ("io", ["classify", "--p", "2", "--r", "1", "--g", "1", "--poly=1,1,2", "--no-timing",
            "--out", "/nonexistent-avcyclic/out.json"], 2),
    ("bad_matrix", ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly=1,-2,5",
                    "--matrix=1,x;0,1"], 2),
    ("bad_ideal", ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly=1,-2,5",
                   "--ideal=1/0,0;0,1"], 2),
    ("bad_direction", ["convert", "--p", "5", "--r", "1", "--g", "1", "--poly=1,-2,5",
                       "--matrix=1,0;0,1", "--ideal=1,0;0,1"], 2),
)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _context_args(ctx) -> list[str]:
    # joined --opt=value form, as the digests were recorded
    return ["--p", str(ctx.p), "--r", str(ctx.r), "--g", str(ctx.g),
            "--poly=" + ",".join(map(str, ctx.f))]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _key(ctx) -> str:
    return f"{ctx.p},{ctx.r},{ctx.g}:" + ",".join(map(str, ctx.f))


def _classify(ctx) -> str:
    code, text = _run(["classify", *_context_args(ctx), "--no-timing"])
    assert code == 0, _key(ctx)
    return text


def output_digests():
    """Yield (label, sha256) in corpus order: the classify document of each
    context, then the convert documents of each class matrix it lists; then
    the classify document of each further g = 1 context with q <= G1_Q_MAX.
    The convert --ideal documents, the validate documents, the sampled
    g = 1 documents with larger q and the U M U^-1 convert documents
    follow, in the order they were added, so the keys recorded before them
    keep their place in the fixture."""
    corpus = {}
    for ctx in corpus_contexts():
        key = _key(ctx)
        text = _classify(ctx)
        corpus[key] = ctx, json.loads(text)["classes"]
        yield f"classify {key}", _digest(text)
        for i, cls in enumerate(corpus[key][1]):
            matrix = ";".join(",".join(row) for row in cls["matrix"])
            code, conv = _run(["convert", *_context_args(ctx), "--matrix=" + matrix])
            assert code == 0, (key, i)
            yield f"convert {key} class {i}", _digest(conv)
    for ctx in g1_contexts(G1_Q_MAX):
        if _key(ctx) not in corpus:
            yield f"classify {_key(ctx)}", _digest(_classify(ctx))
    for key, (ctx, classes) in corpus.items():
        for i, cls in enumerate(classes):
            den = cls["ideal_basis"]["denominator"]
            ideal = ";".join(",".join(f"{x}/{den}" for x in row)
                             for row in cls["ideal_basis"]["rows"])
            code, conv = _run(["convert", *_context_args(ctx), "--ideal=" + ideal])
            assert code == 0, (key, i)
            yield f"convert --ideal {key} class {i}", _digest(conv)
    for key, argv in _validate_inputs(corpus):
        code, text = _run(["validate", *argv])
        assert code in (0, 1), key
        yield f"validate {key}", _digest(text)
    wide = [ctx for ctx in g1_contexts(G1_SAMPLE_Q_MAX) if ctx.q > G1_Q_MAX]
    for ctx in wide[::G1_SAMPLE_STEP]:
        yield f"classify {_key(ctx)}", _digest(_classify(ctx))
    rng = random.Random(CONJUGATE_SEED)
    for key, (ctx, classes) in corpus.items():
        for i, cls in enumerate(classes):
            m = [[int(x) for x in row] for row in cls["matrix"]]
            moved = conjugate(m, random_unimodular(rng, ctx.n))
            matrix = ";".join(",".join(map(str, row)) for row in moved)
            code, conv = _run(["convert", *_context_args(ctx), "--matrix=" + matrix])
            assert code == 0, (key, i)
            yield f"convert U M U^-1 {key} class {i}", _digest(conv)
    yield from _sweep_and_error_digests()


def _sweep_and_error_digests():
    """The sweep documents on stdout, the files of one sweep --out-dir, the
    error documents, then the bounded quartic classifications and the late
    sweep."""
    def sweep_args(p, r, g):
        return ["sweep", "--p", p, "--r", r, "--g", g, "--no-timing"]

    runs = [(",".join(field), sweep_args(*field)) for field in SWEEPS]
    runs.append(("3,1,1 --fixtures", sweep_args("3", "1", "1")
                 + ["--fixtures", str(EXTERNAL_RECORDS)]))
    for label, argv in runs:
        code, text = _run(argv)
        assert code == 0, label
        yield f"sweep {label}", _digest(text)
    with tempfile.TemporaryDirectory() as tmp:
        code, text = _run(sweep_args(*OUT_DIR_SWEEP) + ["--out-dir", tmp])
        assert code == 0 and text == ""
        for path in sorted(Path(tmp).iterdir()):
            yield (f"sweep --out-dir {','.join(OUT_DIR_SWEEP)} {path.name}",
                   _digest(path.read_text(encoding="utf-8")))
    for label, argv, expected in ERROR_INPUTS:
        code, text = _run(argv)
        assert code == expected and json.loads(text)["error"]["code"] == label, label
        yield f"error {label}", _digest(text)
    for p, r, g, f, bound in BOUNDED_CLASSIFY:
        code, text = _run(["classify", "--p", p, "--r", r, "--g", g, "--poly=" + f,
                           "--index-bound", bound, "--no-timing"])
        assert code == 0, f
        yield f"classify {p},{r},{g}:{f} --index-bound {bound}", _digest(text)
    code, text = _run(sweep_args(*LATE_SWEEP))
    assert code == 0, LATE_SWEEP
    yield f"sweep {','.join(LATE_SWEEP)}", _digest(text)


def _validate_inputs(corpus):
    """(key, context arguments) of the corpus contexts, then of the quartic
    boxes, each input once."""
    inputs = {key: _context_args(ctx) for key, (ctx, _) in corpus.items()}
    for p, r in VALIDATE_BOX_FIELDS:
        q = p**r
        top = isqrt(16 * q)
        for a1 in range(-top, top + 1):
            for a2 in range(-6 * q, 6 * q + 1):
                f = ",".join(map(str, (1, a1, a2, q * a1, q * q)))
                inputs.setdefault(f"{p},{r},2:{f}",
                                  ["--p", str(p), "--r", str(r), "--g", "2", "--poly=" + f])
    return inputs.items()


def test_output_bytes_match_recorded_digests():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = dict(output_digests())
    for label, digest in got.items():
        assert recorded.get(label) == digest, f"first differing document: {label}"
    assert got.keys() == recorded.keys()


REWRITE_STATES = ("changed", "added", "removed", "unchanged")


def rewrite_report(old: dict, new: dict) -> list[str]:
    """One line per document kind, the first word of a label (classify,
    convert, validate, sweep, error): how many digests of old changed in
    new, were added, were removed and stayed."""
    counts = {}
    for label in old.keys() | new.keys():
        state = ("added" if label not in old else "removed" if label not in new
                 else "unchanged" if old[label] == new[label] else "changed")
        counts.setdefault(label.split()[0], Counter())[state] += 1
    return [f"{kind}: " + ", ".join(f"{c[s]} {s}" for s in REWRITE_STATES)
            for kind, c in sorted(counts.items())]


def test_rewrite_report_counts_by_kind():
    old = {"classify a": "1", "classify b": "2", "error x": "3", "sweep s": "4"}
    new = {"classify a": "1", "classify b": "5", "error x": "3", "validate v": "6"}
    assert rewrite_report(old, new) == [
        "classify: 1 changed, 0 added, 0 removed, 1 unchanged",
        "error: 0 changed, 0 added, 0 removed, 1 unchanged",
        "sweep: 0 changed, 0 added, 1 removed, 0 unchanged",
        "validate: 0 changed, 1 added, 0 removed, 0 unchanged",
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_output_bytes.py --write")
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    new = dict(output_digests())
    FIXTURE.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print("\n".join(rewrite_report(old, new)))
