"""Span recorder for the traced run.

Wraps public avcyclic functions at the module attribute their callers look
them up through: ``icm`` calls ``orders.ideal_equivalent``, ``orders`` calls
``linalg.lll_reduce_gram``, and ``weil.make_context`` reaches
``is_irreducible`` through the ``weil`` module globals, so replacing the
attribute on the defining module catches every call.  Nothing in the package
changes.

Each call becomes a span (name, start, end, parent span) kept in flat arrays
in memory and written out once at the end.  Calls, total and self time per
function and the deterministic counters are derived from the spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from pathlib import Path

TRACED = {
    "weil": ("make_context", "is_irreducible", "enumerate_weil_contexts"),
    "orders": ("ideal_equivalent", "ideal_quotient", "multiplicator_ring",
               "frobenius_pair_order"),
    "icm": ("enumerate_icm", "refine_by_sigma"),
    "conjugacy": ("ideal_to_matrix", "matrix_to_ideal", "matrices_conjugate"),
    "cyclicity": ("classify_isogeny_class", "group_structure_oracle",
                  "structural_identities"),
    "linalg": ("determinant", "lll_reduce_gram", "hnf_rational", "smith_normal_form",
               "charpoly", "tau"),
    "cli": ("main",),
}

STATUSES = {
    "orders.ideal_equivalent": ("equivalent", "not_equivalent", "indeterminate"),
    "conjugacy.matrices_conjugate": ("conjugate", "not_conjugate", "indeterminate"),
}
SELF_TIMED = ("weil.is_irreducible", "orders.ideal_equivalent", "orders.ideal_quotient",
              "icm.enumerate_icm", "icm.refine_by_sigma", "conjugacy.ideal_to_matrix",
              "conjugacy.matrix_to_ideal", "conjugacy.matrices_conjugate",
              "cyclicity.classify_isogeny_class", "linalg.determinant",
              "linalg.lll_reduce_gram", "linalg.hnf_rational", "linalg.smith_normal_form",
              "linalg.charpoly", "cli.main")
TOTAL_TIMED = ("weil.enumerate_weil_contexts", "orders.frobenius_pair_order",
               "cyclicity.group_structure_oracle", "cyclicity.structural_identities")


def hnf_shape_count(n: int, d: int) -> int:
    """Number of n x n row Hermite forms of determinant d, which is what
    icm enumerates for index d: a diagonal (d_0, ..., d_{n-1}) with product d
    contributes d_j choices for each of the j entries above pivot j."""
    if n == 1:
        return 1
    return sum(first ** (n - 1) * hnf_shape_count(n - 1, d // first)
               for first in range(1, d + 1) if d % first == 0)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {"icm.classes": 0, "icm.shapes_computed": 0,
                                          "weil.enumerated": 0}
        for name, statuses in STATUSES.items():
            for status in statuses:
                self.counters[f"{name}.{status}"] = 0
        self._stack = [-1]

    def install(self) -> None:
        for module_name, attrs in TRACED.items():
            module = importlib.import_module(f"avcyclic.{module_name}")
            for attr in attrs:
                setattr(module, attr, self._wrap(getattr(module, attr), f"{module_name}.{attr}"))

    def _on_result(self, name: str, result) -> None:
        if name in STATUSES:
            self.counters[f"{name}.{result.status}"] += 1
        elif name == "icm.enumerate_icm":
            self.counters["icm.classes"] += len(result.classes)
            n = result.order.ctx.n
            self.counters["icm.shapes_computed"] += sum(
                hnf_shape_count(n, d) for d in range(1, result.index_bound + 1))
        elif name == "weil.enumerate_weil_contexts":
            self.counters["weil.enumerated"] += len(result)

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self._stack)
        clock = time.perf_counter
        on_result = self._on_result if name in STATUSES or name in (
            "icm.enumerate_icm", "weil.enumerate_weil_contexts") else None

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(name, result)
            return result

        functools.update_wrapper(traced, fn)
        if hasattr(fn, "cache_info"):  # keep the lru_cache handles reachable
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def metrics(self, cache_info) -> dict[str, float]:
        """Per-function calls, self and total time, and counters.

        Self time is a span's duration minus its child spans'; total time
        counts only the outermost span of a name on any call chain.
        ``cache_info`` is multiplicator_ring's lru_cache statistics."""
        k = len(self.names)
        calls = [0] * k
        self_s = [0.0] * k
        total_s = [0.0] * k
        candidates = 0
        nid = {name: i for i, name in enumerate(self.names)}
        mring, enum_icm, make_ctx, enum_weil = (
            nid["orders.multiplicator_ring"], nid["icm.enumerate_icm"],
            nid["weil.make_context"], nid["weil.enumerate_weil_contexts"])
        made_in_enumeration = 0
        chain: list[int] = []  # open spans along the current call chain
        open_count = [0] * k
        for i, (name, par, s, e) in enumerate(zip(self.name_of, self.parent,
                                                  self.start, self.end)):
            while chain and chain[-1] != par:
                open_count[self.name_of[chain.pop()]] -= 1
            d = e - s
            calls[name] += 1
            self_s[name] += d
            if not open_count[name]:
                total_s[name] += d
            if par >= 0:
                pname = self.name_of[par]
                self_s[pname] -= d
                if name == mring and pname == enum_icm:
                    candidates += 1
                if name == make_ctx and pname == enum_weil:
                    made_in_enumeration += 1
            chain.append(i)
            open_count[name] += 1
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[nid[name]]
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self_s[nid[name]]
        for name in TOTAL_TIMED:
            out[f"{name}.total_s"] = total_s[nid[name]]
        for name, statuses in STATUSES.items():
            for status in statuses:
                out[f"{name}.{status}"] = self.counters[f"{name}.{status}"]
        lookups = cache_info.hits + cache_info.misses
        out["orders.multiplicator_ring.hit_ratio"] = cache_info.hits / lookups if lookups else 0.0
        out["weil.kept_ratio"] = (self.counters["weil.enumerated"] / made_in_enumeration
                                  if made_in_enumeration else 0.0)
        out["icm.candidates"] = candidates
        out["icm.classes"] = self.counters["icm.classes"]
        out["icm.class_yield"] = self.counters["icm.classes"] / candidates if candidates else 0.0
        out["icm.shapes_computed"] = self.counters["icm.shapes_computed"]
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: index, parent index (-1 for a root), name,
        start and end in seconds on the perf_counter clock."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tparent\tname\tstart_s\tend_s\n")
            out.writelines(f"{i}\t{p}\t{names[n]}\t{s!r}\t{e!r}\n" for i, (n, p, s, e) in
                           enumerate(zip(self.name_of, self.parent, self.start, self.end)))
