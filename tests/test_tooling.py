"""The benchmark's traced run looks functions up by name: every name it
wraps must stay an attribute of its module.  The runtime imports the
standard library only, one gate, in front of every conversion, refuses
non-Weil and reducible input, convert runs no equivalence search, the
per-context classify path and the int-not-bool input rule are each written
once, K has one multiplication, the multiplicator ring one formula, icm one
ring rule and g = 1 equivalence one rule, no option or member stays that
only tests reach, and the exact kernels take integers: linalg has one
rational entry and the sigma refinement inverts nothing in K.  The class
list is ordered once, in icm, and the primality test is bounded, with no
dead refusal left.  There is one mod-p toolkit, the echelon form in linalg,
and the benchmark's worker still runs a few ops of every workload."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from avcyclic import cli, conjugacy, linalg, orders, weil

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WORKER = ROOT / "perfbench" / "worker.py"
SOURCES = sorted((ROOT / "src" / "avcyclic").glob("*.py"))


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
    assert SOURCES
    allowed = sys.stdlib_module_names | {"avcyclic"}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}: import {name}"


def _call_sites(func: str) -> list[tuple[str, str, ast.Call]]:
    """(module, enclosing class and function, call) of every call of func,
    as f(..) or x.f(..), under src/avcyclic."""
    sites = []

    def visit(node, module: str, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and func in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                sites.append((module, ".".join(scope), child))
            visit(child, module, scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


def _input_error_sites() -> set[tuple[str, str, str]]:
    """(code, module, enclosing class and function) of every InputError
    constructed under src/avcyclic."""
    sites = set()
    for module, scope, call in _call_sites("InputError"):
        code = call.args[0]
        assert isinstance(code, ast.Constant) and isinstance(code.value, str), (
            f"{module}.py:{call.lineno}: InputError code must be a string literal")
        sites.add((code.value, module, scope))
    return sites


def test_one_gate_refuses_non_simple_input():
    # every layer refuses non-Weil and reducible input through
    # WeilContext.refuse_non_simple; frobenius_pair_order, which also serves
    # reducible Weil input, keeps its own Weil check
    sites = _input_error_sites()
    gate = ("weil", "WeilContext.refuse_non_simple")
    assert ({s[1:] for s in sites if s[0] == "not_weil"}
            == {gate, ("orders", "frobenius_pair_order")})
    assert {s[1:] for s in sites if s[0] == "not_irreducible"} == {gate}
    # every code the CLI treats as a refusal is one the package raises
    assert cli._REFUSAL_CODES <= {s[0] for s in sites}


def _called_names(node) -> set[str]:
    """Names called anywhere under node: f for f(..), attr for x.attr(..)."""
    return {getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def _tree(module: str) -> ast.Module:
    return ast.parse((ROOT / "src" / "avcyclic" / f"{module}.py").read_text(encoding="utf-8"))


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in _tree(module).body if isinstance(node, ast.FunctionDef)}


def test_the_gate_sits_in_front_of_every_conversion():
    # the conversions call the gate themselves, so the CLI repeats neither
    # it nor the charpoly check, and a context decides irreducibility only
    # when the gate or a caller asks, never on construction; matrix_to_ideal
    # is the lattice of pull_back, no second path, and convert reads both
    # round trips off the construction, with no equivalence search
    conversions = _functions("conjugacy")
    for name in ("pull_back", "ideal_to_matrix", "matrices_conjugate"):
        assert "refuse_non_simple" in _called_names(conversions[name]), name
    assert _called_names(conversions["matrix_to_ideal"]) == {"pull_back"}
    assert not _called_names(_tree("cli")) & {"refuse_non_simple", "_check_charpoly"}
    assert not _called_names(_functions("cli")["cmd_convert"]) & {
        "matrices_conjugate", "ideal_equivalent", "_witness_search"}
    assert "is_irreducible" not in _called_names(_functions("weil")["make_context"])


def test_classify_and_sweep_share_one_per_context_path():
    # both commands reach the pipeline through cli._classify, which builds
    # the document and the exit code of one context
    assert [(m, scope) for m, scope, _ in _call_sites("classify_isogeny_class")
            if m == "cli"] == [("cli", "_classify")]
    commands = _functions("cli")
    for name in ("cmd_classify", "cmd_sweep"):
        assert "_classify" in _called_names(commands[name]), name


def test_the_int_not_bool_rule_is_written_once():
    # every isinstance(x, bool) under src/avcyclic sits in weil.is_int; the
    # check that ingest's is_ordinary_claimed is a bool is a different rule
    positive = ("ingest", "_record_from_obj", "ordinary")
    sites = [(m, scope) for m, scope, call in _call_sites("isinstance")
             if "bool" in {n.id for n in ast.walk(call.args[1]) if isinstance(n, ast.Name)}
             and (m, scope, ast.unparse(call.args[0])) != positive]
    assert sites == [("weil", "is_int")]


def test_one_multiplication_in_k():
    # FieldElement.mult_matrix is the one place that reduces by alpha^n: the
    # context keeps no table of powers, products and conjugates are rows
    # times a matrix, multiplication on a lattice takes no second basis, and
    # the equivalence search builds its Gram matrices from integer rows
    weil_ctx = next(node for node in _tree("weil").body
                    if isinstance(node, ast.ClassDef) and node.name == "WeilContext")
    assert "power_rows" not in {node.name for node in weil_ctx.body
                                if isinstance(node, ast.FunctionDef)}
    orders_tree = _tree("orders")
    element = next(node for node in orders_tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "FieldElement")
    mul = next(method for method in element.body
               if isinstance(method, ast.FunctionDef) and method.name == "__mul__")
    assert not [node for node in ast.walk(mul) if isinstance(node, (ast.For, ast.While))]
    kernels = _functions("orders")
    assert [arg.arg for arg in kernels["multiplication_matrix"].args.args] == ["x", "lat"]
    search = kernels["_witness_search"]
    assert "conj" not in _called_names(search)
    assert "elements" not in {node.attr for node in ast.walk(search)
                              if isinstance(node, ast.Attribute)}


def test_one_ring_formula_and_one_g1_equivalence_rule():
    # the multiplicator ring is the colon ideal at every g, with no g = 1
    # closed form and no norm-form helper left, and ideal_equivalent
    # decides g = 1 pairs by the reduced form, the rule icm uses: form_key
    # and ideal_equivalent share the one reduction, which also yields the
    # g = 1 witness; icm reads a ring off the discriminant or takes the
    # colon, with no p-maximality test and no decider closure
    kernels = _functions("orders")
    ring = kernels["multiplicator_ring"]
    assert "g" not in {node.attr for node in ast.walk(ring) if isinstance(node, ast.Attribute)}
    assert "ideal_quotient" in _called_names(ring)
    assert not [path.name for path in SOURCES if "_norm_form" in path.read_text(encoding="utf-8")]
    assert _called_names(kernels["form_key"]) == {"_reduced_form"}
    assert "_reduced_form" in _called_names(kernels["ideal_equivalent"])
    assert {(m, scope) for m, scope, _ in _call_sites("_reduced_form")} == {
        ("orders", "form_key"), ("orders", "ideal_equivalent")}
    icm_source = (ROOT / "src" / "avcyclic" / "icm.py").read_text(encoding="utf-8")
    assert "_is_p_maximal" not in icm_source and "_ring_decider" not in icm_source
    assert {(m, scope) for m, scope, _ in _call_sites("multiplicator_ring")
            if m == "icm"} == {("icm", "_ring_of")}


def test_no_option_or_member_only_tests_reach():
    # the Krylov matrix always starts at e_0, LLL always runs at
    # delta = 99/100, and the equivalence search reads the conjugation rows
    # itself, so none of these takes an option and K has no conj or norm
    for fn in (conjugacy.pull_back, conjugacy.matrix_to_ideal, conjugacy._krylov):
        assert list(inspect.signature(fn).parameters) == ["ctx", "m"], fn.__name__
    assert list(inspect.signature(linalg.lll_reduce_gram).parameters) == ["gram"]
    assert not {"conj", "norm"} & set(vars(orders.FieldElement))


def test_the_exact_kernels_take_integers():
    # linalg keeps no Fraction and no rational inverse, hnf_rational is its
    # one rational entry, and sigma_ell is read off the coefficients of f
    tree = _tree("linalg")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "Fraction" not in names
    assert not [path.name for path in SOURCES
                if "mat_inverse_fraction" in path.read_text(encoding="utf-8")]
    assert [scope for module, scope, _ in _call_sites("_cleared")
            if module == "linalg"] == ["hnf_rational"]
    assert "inverse" not in _called_names(_functions("orders")["sigma_element"])


def test_one_class_order_and_a_bounded_prime_test():
    # enumerate_icm lists the classes in their final order, so the pipeline
    # neither re-sorts nor rebuilds the result, and leaves the gate to
    # frobenius_pair_order and enumerate_icm; FieldElement.make and
    # validate_weil live with the tests, f(1) > 0 needs no refusal, and
    # is_prime decides by Miller-Rabin, not by factoring
    assert not _called_names(_functions("cyclicity")["classify_isogeny_class"]) & {
        "sorted", "replace", "refuse_non_simple"}
    assert not hasattr(orders.FieldElement, "make")
    assert not hasattr(weil, "validate_weil")
    assert not [path.name for path in SOURCES
                if "bad_point_count" in path.read_text(encoding="utf-8")]
    assert "prime_factors" not in _called_names(_functions("weil")["is_prime"])


def test_one_mod_p_toolkit():
    # the sieve reads its factor degrees off Berlekamp's matrix with the one
    # mod-p echelon form, defined in linalg and called by icm and weil; no
    # F_p[t] arithmetic is left
    assert not [path.name for path in SOURCES
                if "pmod" in (text := path.read_text(encoding="utf-8"))
                or "distinct_degree_pattern" in text]
    defined = {(path.stem, node.name) for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name.endswith("_mod")}
    assert defined == {("linalg", "insert_mod"), ("linalg", "kernel_mod")}
    assert {m for m, _, _ in _call_sites("kernel_mod") + _call_sites("insert_mod")} >= {
        "icm", "weil"}
    assert "kernel_mod" in _called_names(_functions("weil")["_factor_degrees"])
    assert not {"add", "sub"} & set(_functions("polynomials"))


@pytest.mark.parametrize("workload, mode", [
    ("corpus", "pass"), ("g1-wide", "pass"), ("roundtrip", "pass"), ("corpus", "trace")])
def test_the_benchmark_worker_runs(workload, mode):
    # three ops of the workload in a fresh interpreter, as the benchmark runs
    # them: the worker's cold-cache check, context enumeration, cli.main and
    # matrices_conjugate all still answer, and no check fails
    env = {**os.environ, "PYTHONPATH": ""}
    done = subprocess.run([sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
                           "--mode", mode, "--ops", "3"],
                          capture_output=True, text=True, timeout=60, cwd=ROOT, env=env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["failed"], result["attempted"]) == (0, 3), done.stderr
