"""avcyclic benchmark: one closed-loop client, no threads, every pass in a
fresh interpreter.

    python3 perfbench/run.py --workload {corpus,g1-wide,roundtrip} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  With ``--trace 0`` it runs set-up alone
SETUP_SAMPLES times, then whole passes (perfbench/worker.py) until S seconds
of passes have elapsed, at least one, and reports medians over the passes.
With ``--trace 1`` it runs one traced pass and one plain pass and reports the
per-layer metrics.  The last line of standard output is the JSON result;
perfbench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every worker must have ended by then


class WorkerFailed(Exception):
    pass


def worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result, with
    setup_s measured from just before the interpreter was started."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"{mode} worker exceeded {exc.timeout} s") from None
    checks = [line for line in proc.stderr.splitlines() if line.startswith("check failed")]
    sys.stderr.write("".join(line + "\n" for line in checks))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - started
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def plain_run(workload: str, seed: int, seconds: int,
              deadline: float) -> tuple[dict, list[dict]]:
    setups = [worker(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        passes.append(worker(workload, seed, "pass", deadline))
    setups += [p["setup_s"] for p in passes]

    def med(key):
        return statistics.median(p[key] for p in passes)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    tail = passes[0]
    print(f"{workload}: {len(passes)} passes of {tail['attempted']} ops; op_tail_ms is "
          f"p{tail['op_tail_pct']:.1f} of n={tail['ops']} per pass; "
          f"setup_s over {len(setups)} interpreters", file=sys.stderr)
    metrics = {
        "wall_s": metric(med("wall_s"), "s"),
        "ops_per_s": metric(statistics.median(p["ops"] / p["wall_s"] for p in passes), "1/s"),
        "op_p50_ms": metric(med("op_p50_ms"), "ms"),
        "op_tail_ms": metric(med("op_tail_ms"), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MB"),
        "certified_ratio": metric(sum(p["certified"] for p in passes) / attempted, "ratio"),
        "ok_ratio": metric(1 - failed / attempted, "ratio"),
    }
    return metrics, passes


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    traced = worker(workload, seed, "trace", deadline)
    plain = worker(workload, seed, "pass", deadline)
    metrics = {name: metric(value, _layer_unit(name)) for name, value in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = metric(traced["wall_s"] / plain["wall_s"], "ratio")
    return metrics, [traced, plain]


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, passes = traced_run(args.workload, args.seed, deadline)
        else:
            metrics, passes = plain_run(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
