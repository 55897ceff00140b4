"""The benchmark's traced run looks functions up by name: every name it
wraps must stay an attribute of its module.  The runtime imports the
standard library only."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from avcyclic import orders

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attrs in tracer.TRACED.items():
        module = importlib.import_module(f"avcyclic.{module_name}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    # the benchmark checks that these caches start every pass empty
    for fn in (orders.multiplicator_ring, orders._conj_power_rows):
        assert callable(fn.cache_info)


def test_runtime_imports_stdlib_only():
    sources = sorted((ROOT / "src" / "avcyclic").glob("*.py"))
    assert sources
    allowed = sys.stdlib_module_names | {"avcyclic"}
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}: import {name}"
