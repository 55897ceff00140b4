"""The benchmark's traced run looks functions up by name: every name it
wraps must stay an attribute of its module."""

import importlib
import importlib.util
from pathlib import Path

from avcyclic import orders

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
