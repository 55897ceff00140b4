"""Command line surface.

Exit codes: 0 success, 1 negative verdict or refusal, 2 usage/parse or
capability error, 3 internal consistency failure.  classify and sweep share
one per-context path, _classify, which returns a context's document and
exit code.  _failure maps each error to its code and exit code once: main
applies it to a failing command, and sweep to each failing context, which
it lists under "failures" while the other contexts go on; sweep exits with
the largest exit code.  All output documents are JSON with schema_version
"1"; every integer (and every Fraction, as "n/d") is emitted as a decimal
string so arbitrary-precision values survive any JSON reader.  One
recursive pass writes each document with the bytes of
json.dumps(sort_keys=True, indent=2) on that stringified document: sorted
keys, two-space indent, ASCII escapes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import conjugacy, cyclicity, ingest, orders, weil
from .errors import (AvcyclicError, CapabilityError, ConsistencyError, DegenerateLatticeError,
                     InputError)

SCHEMA_VERSION = "1"

# error codes meaning "the input parsed fine, the math said no"
_REFUSAL_CODES = {"not_weil", "not_ordinary", "not_irreducible", "charpoly_mismatch",
                  "not_stable"}


_escape = json.encoder.encode_basestring_ascii  # the C escaper json.dumps uses


def _encode(value, indent: str) -> str:
    """JSON text of value at the given indent, as json.dumps(sort_keys=True,
    indent=2) writes it once integers (not booleans) and Fractions are
    decimal strings.  Any other type, float included, and any non-str key
    raise TypeError."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, int):
        if value is True:
            return "true"
        if value is False:
            return "false"
        return f'"{value!s}"'
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # plain ints, the bulk of every matrix, are written in place
        parts = [f'"{v}"' if type(v) is int else _encode(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _escape raises TypeError for a key that is not a str
        parts = [_escape(k) + ": " + _encode(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
    if value is None:
        return "null"
    if isinstance(value, Fraction):
        return f'"{value!s}"'
    raise TypeError(f"cannot write {type(value).__name__} to a document")


def _dump(doc) -> str:
    return _encode(doc, "") + "\n"


def _emit(doc, out: str | None) -> None:
    text = _dump(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _failure(exc: Exception) -> tuple[str, int]:
    """(error code, exit code) of a failure, for a command and for each
    context of a sweep alike: 1 for a refusal, 3 for a consistency failure,
    2 for any other error (malformed input, capability, a degenerate
    lattice such as a rank-deficient --ideal basis, I/O)."""
    if isinstance(exc, InputError):
        return exc.code, 1 if exc.code in _REFUSAL_CODES else 2
    if isinstance(exc, ConsistencyError):
        return "consistency", 3
    if isinstance(exc, CapabilityError):
        return "capability", 2
    if isinstance(exc, DegenerateLatticeError):
        return "degenerate_lattice", 2
    return "io", 2


def _error_doc(code: str, message: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "error": {"code": code, "message": message}}


def _parse_poly(text: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise InputError("bad_poly", f"cannot parse polynomial {text!r}: expected "
                         "comma-separated integers, highest degree first") from None


def _parse_rows(text: str, entry, error: InputError) -> list[list]:
    """Rows of entry(token), tokens joined by ',' and rows by ';', as
    --matrix and --ideal take them; error when a token does not parse."""
    try:
        return [[entry(tok.strip()) for tok in row.split(",")] for row in text.split(";")]
    except (ValueError, ZeroDivisionError):
        raise error from None


def _context_from_args(args) -> weil.WeilContext:
    return weil.make_context(args.p, args.r, args.g, _parse_poly(args.poly))


def _context_echo(ctx: weil.WeilContext) -> dict:
    return {"p": ctx.p, "r": ctx.r, "q": ctx.q, "g": ctx.g, "f": ctx.f}


def _lattice_doc(lat) -> dict:
    return {"denominator": lat.den, "rows": lat.mat}


def _classify(ctx: weil.WeilContext, index_bound: int | None,
              timed: bool) -> tuple[dict, int]:
    """The classification document of one context and its exit code, 0, or
    3 when an oracle disagrees: the one path of classify and of every sweep
    context."""
    started = time.monotonic()
    result = cyclicity.classify_isogeny_class(ctx, index_bound)
    seconds = time.monotonic() - started if timed else None
    classes = []
    for rep in result.reports:
        lat = rep.class_ref.provenance
        classes.append({
            "matrix": rep.class_ref.rep,
            "ideal_basis": _lattice_doc(lat),
            "tau_m": rep.tau_m,
            "tau_one_minus_m": rep.tau_one_minus_m,
            "gcd_with_point_count": rep.gcd_with_point_count,
            "membership_c1": rep.membership_c1,
            "membership_c2": rep.membership_c2,
            "invariant_factors": rep.invariant_factors,
            "group": rep.group_descriptor,
            "verdict": rep.verdict,
            "oracle_agrees": rep.oracle_agrees,
        })
    doc = {
        "schema_version": SCHEMA_VERSION,
        "context": _context_echo(result.ctx),
        "classes": classes,
        "summary": {
            "total": result.total,
            "cyclic": result.cyclic_count,
            "not_cyclic": result.not_cyclic_count,
            "point_count": result.ctx.point_count,
            "index_bound": result.icm_result.index_bound,
            "completeness": result.completeness,
            "indeterminate_pairs": result.icm_result.indeterminate_pairs,
        },
        "sigma_checks": [
            {"ell": c.ell, "sigma_classes": c.sigma_class_indices,
             "tau_classes": c.tau_class_indices, "agree": c.agree}
            for c in result.sigma_checks
        ],
    }
    if seconds is not None:
        doc["timing"] = {"seconds": f"{seconds:.3f}"}
    return doc, 0 if result.all_oracle_agree else 3


def cmd_validate(args) -> int:
    ctx = _context_from_args(args)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "context": _context_echo(ctx),
        "is_weil": ctx.is_weil,
        "weil_reason": ctx.weil_reason,
        "is_ordinary": ctx.is_ordinary,
        "is_irreducible": ctx.is_irreducible,
    }
    if ctx.is_weil:
        doc["point_count"] = ctx.point_count
    _emit(doc, None)
    return 0 if (ctx.is_weil and ctx.is_ordinary and ctx.is_irreducible) else 1


def cmd_classify(args) -> int:
    doc, status = _classify(_context_from_args(args), args.index_bound, not args.no_timing)
    _emit(doc, args.out)
    return status


def cmd_convert(args) -> int:
    ctx = _context_from_args(args)
    if (args.matrix is None) == (args.ideal is None):
        raise InputError("bad_direction", "pass exactly one of --matrix or --ideal")
    doc = {"schema_version": SCHEMA_VERSION, "context": _context_echo(ctx)}
    if args.matrix is not None:
        m = _parse_rows(args.matrix, int, InputError(
            "bad_matrix", f"cannot parse matrix {args.matrix!r}: expected rows "
            "of comma-separated integers joined by ';'"))
        lat, back, witness = conjugacy.pull_back(ctx, m)
        doc.update(direction="matrix_to_ideal", input_matrix=m, ideal=_lattice_doc(lat),
                   round_trip={"matrix": back.rep, "status": "conjugate", "witness": witness})
    else:
        rows = _parse_rows(args.ideal, Fraction, InputError(
            "bad_ideal", f"cannot parse ideal basis {args.ideal!r}: expected rows "
            "of comma-separated rationals joined by ';'"))
        lat = orders.IdealLattice.from_rows(ctx, rows)
        mclass = conjugacy.ideal_to_matrix(lat)
        lat_back = conjugacy.matrix_to_ideal(ctx, mclass.rep)
        x = orders.one(ctx) if lat == lat_back else lat.elements[0].inverse()
        if lat.scale(x) != lat_back:  # the pull-back through b_0 is b_0^-1 lat
            raise ConsistencyError("round-trip ideal is not b_0^-1 times the input ideal")
        doc.update(direction="ideal_to_matrix", input_ideal=_lattice_doc(lat),
                   matrix=mclass.rep,
                   round_trip={"ideal": _lattice_doc(lat_back), "status": "equivalent",
                               "witness": x.coeffs})
    _emit(doc, args.out)
    return 0


def _aggregate_csv(reports: list[dict]) -> str:
    """One CSV row per classification document."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "f", "classes", "cyclic", "not_cyclic", "completeness"])
    for doc in reports:
        ctx, summary = doc["context"], doc["summary"]
        writer.writerow([ctx["q"], ",".join(map(str, ctx["f"])), summary["total"],
                         summary["cyclic"], summary["not_cyclic"], summary["completeness"]])
    return buf.getvalue()


def cmd_sweep(args) -> int:
    contexts = weil.enumerate_weil_contexts(args.p, args.r, args.g,
                                            ordinary=True, irreducible=True)
    started = time.monotonic()
    reports = []
    failures = []
    worst = 0
    for ctx in contexts:
        try:
            doc, status = _classify(ctx, args.index_bound, False)
            reports.append(doc)
        except AvcyclicError as exc:
            code, status = _failure(exc)
            failures.append({"context": _context_echo(ctx),
                             "error": {"code": code, "message": str(exc)}})
        worst = max(worst, status)
    aggregate = _aggregate_csv(reports)
    sweep_doc = {
        "schema_version": SCHEMA_VERSION,
        "sweep": {"p": args.p, "r": args.r, "g": args.g, "contexts": len(contexts)},
        "reports": reports,
        "failures": failures,
        "aggregate_csv": aggregate,
    }
    if args.fixtures:
        load = ingest.load_fixture(args.fixtures)
        sweep_doc["cross_validation"] = {
            "report": ingest.cross_validate(load.records),
            "rejected_lines": load.rejected,
        }
    if not args.no_timing:
        sweep_doc["timing"] = {"seconds": f"{time.monotonic() - started:.3f}"}
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for doc in reports:
            ctx_doc = doc["context"]
            label = f"g{ctx_doc['g']}_q{ctx_doc['q']}_f_" + "_".join(
                str(c).replace("-", "m") for c in ctx_doc["f"])
            (out_dir / f"{label}.json").write_text(_dump(doc), encoding="utf-8")
        (out_dir / "aggregate.csv").write_text(aggregate, encoding="utf-8")
        (out_dir / "sweep.json").write_text(_dump(sweep_doc), encoding="utf-8")
    else:
        _emit(sweep_doc, None)
    if args.csv:
        Path(args.csv).write_text(aggregate, encoding="utf-8")
    return worst


def _add_context_args(sub, poly_required: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="characteristic prime")
    sub.add_argument("--r", type=int, required=True, help="extension degree, q = p^r")
    sub.add_argument("--g", type=int, required=True, help="dimension")
    if poly_required:
        sub.add_argument("--poly", required=True,
                         help="comma-separated integer coefficients, highest degree first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avcyclic",
        description="Classify the abelian varieties in an ordinary simple isogeny "
                    "class over F_q as cyclic or not, with exact arithmetic throughout.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_validate = subs.add_parser("validate", help="validate a candidate Weil polynomial")
    _add_context_args(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_classify = subs.add_parser("classify", help="classify every variety class as cyclic or not")
    _add_context_args(p_classify)
    p_classify.add_argument("--index-bound", type=int, default=None,
                            help="override the integral-ideal index bound")
    p_classify.add_argument("--out", default=None, help="write the JSON report to a file")
    p_classify.add_argument("--no-timing", action="store_true",
                            help="omit the timing field (byte-stable output)")
    p_classify.set_defaults(func=cmd_classify)

    p_convert = subs.add_parser("convert", help="convert matrix to ideal or ideal to matrix")
    _add_context_args(p_convert)
    p_convert.add_argument("--matrix", default=None,
                           help="rows of comma-separated integers joined by ';'")
    p_convert.add_argument("--ideal", default=None,
                           help="basis rows of comma-separated rationals joined by ';'")
    p_convert.add_argument("--out", default=None, help="write the JSON result to a file")
    p_convert.set_defaults(func=cmd_convert)

    p_sweep = subs.add_parser("sweep", help="classify every ordinary simple context for p, r, g")
    _add_context_args(p_sweep, poly_required=False)
    p_sweep.add_argument("--index-bound", type=int, default=None)
    p_sweep.add_argument("--fixtures", default=None,
                         help="JSON-lines fixture to cross-validate against")
    p_sweep.add_argument("--out-dir", default=None,
                         help="write per-context reports and aggregate.csv here")
    p_sweep.add_argument("--csv", default=None, help="also write the aggregate CSV to this path")
    p_sweep.add_argument("--no-timing", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


_PARSER = build_parser()  # parse_args keeps no state between calls

# options whose values may start with '-' and a digit ("-1,-2;1,0")
_SIGNED_VALUE_OPTIONS = ("--poly", "--matrix", "--ideal")


def _join_signed_values(argv: list[str]) -> list[str]:
    """argv with each token that starts with '-' and a digit joined by '='
    to a bare --poly, --matrix or --ideal before it; argparse would read it
    as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and tok[:1] == "-" and "0" <= tok[1:2] <= "9":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # usage errors (2) and --help (0)
        return exc.code
    try:
        return args.func(args)
    except (AvcyclicError, OSError) as exc:
        code, status = _failure(exc)
        _emit(_error_doc(code, str(exc)), None)
        return status


if __name__ == "__main__":
    sys.exit(main())
