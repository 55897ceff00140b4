"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--ops K]

MODE is ``setup`` (import and build the inputs, then stop), ``pass`` (also
run and check every op) or ``trace`` (a pass with every layer wrapped by
``tracer.Tracer``).  ``--ops`` keeps only the first K ops, for quick checks.
The last line on standard output is one JSON object; ``ready`` is the
CLOCK_MONOTONIC time at which set-up ended and the pass began.  Check
failures are listed on standard error and counted, never raised.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from math import exp, lgamma, log
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".perfbench"

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def import_program():
    """avcyclic from this checkout's src/, never from anywhere else."""
    if not (SRC / "avcyclic" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no avcyclic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import avcyclic

    if Path(avcyclic.__file__).resolve().parent != SRC / "avcyclic":
        raise SystemExit(f"benchmark: imported avcyclic from {avcyclic.__file__}")


def assert_cold(orders) -> None:
    """The value-keyed lru_caches in orders must start every pass empty, or
    a pass would reuse work done before it."""
    for fn in (orders.multiplicator_ring, orders._conj_power_rows):
        info = fn.cache_info()
        if info.currsize or info.hits or info.misses:
            raise SystemExit(f"benchmark: {fn.__name__} cache is warm at pass start: {info}")


def cli_exit_code(argv: list[str]) -> int:
    """cli.main's exit code; argparse usage errors raise SystemExit instead
    of returning 2."""
    from avcyclic import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def matrix_arg(m) -> str:
    return ";".join(",".join(str(x) for x in row) for row in m)


def context_args(key: str) -> list[str]:
    # Joined --opt=value form: argparse reads a separate value that starts
    # with '-' (a matrix such as "-1,0;...") as an option and exits with 2.
    p, r, g, f = wl.parse_key(key)
    return ["--p", str(p), "--r", str(r), "--g", str(g), "--poly=" + ",".join(map(str, f))]


class Pass:
    """Per-op latencies and check outcomes of one pass."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.certified = 0
        self.extra_s = 0.0

    def record(self, label: str, latency: float | None, problems: list[str],
               certified: bool) -> None:
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {label}: {problem}", file=sys.stderr)
        elif certified:
            self.certified += 1

    def summary(self) -> dict:
        lat = sorted(self.latencies)
        n = len(lat)
        # the highest percentile that still has at least ten samples beyond it
        tail_p = max(n - 10, 1) / n if n else 0.0
        return {
            "wall_s": self.extra_s + sum(lat),
            "ops": n,
            "attempted": self.attempted,
            "failed": self.failed,
            "certified": self.certified,
            "op_p50_ms": 1000 * harrell_davis(lat, 0.5),
            "op_tail_ms": 1000 * harrell_davis(lat, tail_p),
            "op_tail_pct": 100 * tail_p,
        }


def harrell_davis(ordered: list[float], p: float, grid: int = 8192) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples: a weighted
    mean of all order statistics, weight i being the Beta(p(n+1),
    (1-p)(n+1)) mass on [(i-1)/n, i/n].  Unlike the sample quantile it does
    not jump between neighbouring ops, which matters where the sorted
    latencies have a gap (the corpus median sits between q <= 7 and q = 8, 9
    contexts, 8 ms against 11 ms)."""
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    pdf = [0.0] + [exp((a - 1) * log(k / grid) + (b - 1) * log(1 - k / grid) - log_beta)
                   for k in range(1, grid)] + [0.0]
    cdf = [0.0]
    for k in range(1, grid + 1):
        cdf.append(cdf[-1] + (pdf[k - 1] + pdf[k]) / (2 * grid))

    def mass_below(x: float) -> float:
        k = min(int(x * grid), grid - 1)
        return (cdf[k] + (cdf[k + 1] - cdf[k]) * (x * grid - k)) / cdf[grid]

    return sum((mass_below(i / n) - mass_below((i - 1) / n)) * v
               for i, v in enumerate(ordered, start=1))


def run_op(fn, *args):
    """(result, seconds, problems); an exception is a failed op, not a crash."""
    started = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the pass must go on; the failure is counted
        return None, None, [f"raised {type(exc).__name__}: {exc}"]
    return result, time.perf_counter() - started, []


def corpus_pass(keys: list[str], ref: dict, bench: Pass) -> None:
    from avcyclic import cyclicity, weil

    started = time.perf_counter()
    found = {wl.context_key(c.p, c.r, c.g, c.f): c for c in wl.corpus_contexts(weil)}
    bench.extra_s = time.perf_counter() - started  # enumeration is part of the pass
    for key in sorted(set(found) - set(ref["corpus"])):
        bench.record(key, None, ["enumerated but not in the reference corpus"], False)
    for key in keys:
        if key not in found:
            bench.record(key, None, ["missing from the enumeration"], False)
            continue
        result, seconds, problems = run_op(cyclicity.classify_isogeny_class, found[key])
        if result is not None:
            problems = wl.result_problems(ref["contexts"][key], result)
        bench.record(key, seconds, problems,
                     result is not None and result.completeness == "certified")


def read_output(out: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
        return None


def g1_wide_pass(keys: list[str], ref: dict, out: Path, bench: Pass) -> None:
    for key in keys:
        out.unlink(missing_ok=True)
        argv = ["classify", *context_args(key), "--no-timing", "--out", str(out)]
        code, seconds, problems = run_op(cli_exit_code, argv)
        doc = None
        if not problems:
            if code != 0:
                problems = [f"exit code {code}"]
            else:
                doc = read_output(out, problems)
        if doc is not None:
            problems = wl.document_problems(ref["contexts"][key], doc)
        bench.record(key, seconds, problems,
                     doc is not None and doc["summary"]["completeness"] == "certified")


def roundtrip_op(key: str, ctx, m, moved, out: Path):
    from avcyclic import conjugacy

    argv = ["convert", *context_args(key), "--matrix=" + matrix_arg(moved), "--out", str(out)]
    return cli_exit_code(argv), conjugacy.matrices_conjugate(ctx, moved, m)


def roundtrip_pass(ops, contexts: dict, out: Path, bench: Pass) -> None:
    for key, m, moved in ops:
        out.unlink(missing_ok=True)
        result, seconds, problems = run_op(roundtrip_op, key, contexts[key], m, moved, out)
        verified = 0
        if result is not None:
            code, direct = result
            doc = read_output(out, problems) if code == 0 else None
            if code != 0:
                problems.append(f"convert exit code {code}")
            elif doc is not None:
                trip = doc["round_trip"]
                back = [[int(x) for x in row] for row in trip["matrix"]]
                verified += _witness_problem(problems, "convert", trip["status"],
                                             trip["witness"], moved, back)
            verified += _witness_problem(problems, "matrices_conjugate", direct.status,
                                         direct.witness, moved, m)
        bench.record(key, seconds, problems, verified == 2)


def _witness_problem(problems: list[str], label: str, status: str, witness, a, b) -> int:
    """1 when status is conjugate with a witness u that passes b u = u a;
    indeterminate is allowed (0); anything else is a problem."""
    if status == "conjugate":
        if wl.witness_ok(a, b, witness):
            return 1
        problems.append(f"{label}: witness fails b u = u a or det u = +-1")
    elif status != "indeterminate":
        problems.append(f"{label}: {status} for conjugate matrices")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)

    import_program()
    from avcyclic import orders, weil

    ref = wl.load_reference()
    if args.workload == "corpus":
        inputs = wl.corpus_order(ref["corpus"], args.seed)
    elif args.workload == "g1-wide":
        inputs = wl.g1_wide_inputs(args.seed)
    else:
        inputs = wl.roundtrip_inputs(args.seed, ref["roundtrip_reps"])
        contexts = {key: weil.make_context(*wl.parse_key(key)) for key in ref["corpus"]}
    if args.ops is not None:
        inputs = inputs[:args.ops]
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    assert_cold(orders)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    SPANS_DIR.mkdir(exist_ok=True)
    out = SPANS_DIR / f"out-{args.workload}.json"
    bench = Pass()
    if args.workload == "corpus":
        corpus_pass(inputs, ref, bench)
    elif args.workload == "g1-wide":
        g1_wide_pass(inputs, ref, out, bench)
    else:
        roundtrip_pass(inputs, contexts, out, bench)
    out.unlink(missing_ok=True)

    result = bench.summary()
    result["ready"] = ready
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics(orders.multiplicator_ring.cache_info())
        tracer.write_spans(SPANS_DIR / f"spans-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
