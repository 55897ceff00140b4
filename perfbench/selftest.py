"""Self-tests of the benchmark harness (not of avcyclic).

    python3 perfbench/selftest.py

- a pass refuses to start on a warm orders cache;
- two traced passes with the same seed give identical counters;
- icm.shapes_computed counts exactly the shapes icm generates.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracer import hnf_shape_count  # noqa: E402

TRACE_OPS = 25


def traced_pass(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", "trace", "--ops", str(TRACE_OPS)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counters(result: dict) -> dict:
    """Everything but the timings."""
    out = {k: v for k, v in result["layers"].items() if not k.endswith("_s")}
    out.update({k: result[k] for k in ("attempted", "failed", "certified", "ops")})
    return out


class HarnessTest(unittest.TestCase):
    def test_pass_refuses_warm_cache(self):
        worker.import_program()
        from avcyclic import orders, weil

        worker.assert_cold(orders)
        ctx = weil.make_context(5, 1, 1, [1, -2, 5])
        orders.multiplicator_ring(orders.IdealLattice.standard(ctx))
        with self.assertRaises(SystemExit):
            worker.assert_cold(orders)

    def test_traced_counters_repeat(self):
        for workload in ("corpus", "g1-wide", "roundtrip"):
            with self.subTest(workload=workload):
                first, second = traced_pass(workload, 11), traced_pass(workload, 11)
                self.assertEqual(counters(first), counters(second))
                self.assertEqual(first["failed"], 0)
                self.assertGreater(first["layers"]["linalg.determinant.calls"], 0)

    def test_shape_count_matches_icm(self):
        worker.import_program()
        from avcyclic import icm

        for n in (2, 4):
            for d in range(1, 13):
                self.assertEqual(hnf_shape_count(n, d),
                                 sum(1 for _ in icm._sublattice_shapes(n, d)), (n, d))


if __name__ == "__main__":
    unittest.main()
