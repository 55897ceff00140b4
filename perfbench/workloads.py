"""Seeded inputs and output checks for the benchmark workloads.

Everything here is plain Python on plain integers: apart from the corpus,
which is the program's own enumeration, the inputs are generated without
calling avcyclic, and the checks compare avcyclic's answers against the
stored reference (``reference.json``) and re-multiply every conjugacy witness
independently.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# The criterion-1 acceptance corpus: every ordinary irreducible g=1 context for
# these fields plus the first ten ordinary irreducible quartics over F_2, F_3.
CORPUS_G1_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
CORPUS_QUARTIC_FIELDS = ((2, 1), (3, 1))
CORPUS_QUARTICS_PER_FIELD = 10

G1_WIDE_Q_MAX = 128
G1_WIDE_SAMPLE = 300

ROUNDTRIP_PASSES_PER_REP = 2
UNIMODULAR_ENTRY_BOUND = 5  # as in acceptance criterion 6

WORKLOADS = ("corpus", "g1-wide", "roundtrip")


def context_key(p: int, r: int, g: int, f) -> str:
    return f"{p},{r},{g}:" + ",".join(str(c) for c in f)


def parse_key(key: str) -> tuple[int, int, int, list[int]]:
    head, poly = key.split(":")
    p, r, g = (int(x) for x in head.split(","))
    return p, r, g, [int(c) for c in poly.split(",")]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Input generation


def _prime_power(q: int) -> tuple[int, int] | None:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = 0
    while q % p == 0:
        q //= p
        r += 1
    return (p, r) if q == 1 else None


def g1_pool(q_max: int = G1_WIDE_Q_MAX) -> list[str]:
    """Every ordinary irreducible g=1 context t^2 + a t + q with q <= q_max,
    straight from the Hasse interval: a^2 <= 4q, gcd(a, p) = 1, and
    a^2 != 4q (otherwise t^2 + a t + q has a double root)."""
    pool = []
    for q in range(2, q_max + 1):
        split = _prime_power(q)
        if split is None:
            continue
        p, r = split
        top = isqrt(4 * q)
        for a in range(-top, top + 1):
            if gcd(a, p) == 1 and a * a != 4 * q:
                pool.append(context_key(p, r, 1, (1, a, q)))
    return pool


def g1_wide_inputs(seed: int) -> list[str]:
    """G1_WIDE_SAMPLE pool contexts spread evenly over the pool (which runs
    in order of q), in seeded order.

    The sample is the same for every seed: classification cost follows the
    class number, which jumps irregularly with the discriminant, so seeded
    draws, even stratified by q, moved the pass time by 6% between seeds."""
    pool = g1_pool()
    sample = [pool[i * len(pool) // G1_WIDE_SAMPLE] for i in range(G1_WIDE_SAMPLE)]
    random.Random(f"g1-wide:{seed}").shuffle(sample)
    return sample


def corpus_contexts(weil):
    """The corpus contexts in enumeration order, from avcyclic's ``weil``
    module (looked up at call time, so a traced pass sees the calls)."""
    for p, r in CORPUS_G1_FIELDS:
        yield from weil.enumerate_weil_contexts(p, r, 1, ordinary=True, irreducible=True)
    for p, r in CORPUS_QUARTIC_FIELDS:
        quartics = weil.enumerate_weil_contexts(p, r, 2, ordinary=True, irreducible=True)
        yield from quartics[:CORPUS_QUARTICS_PER_FIELD]


def corpus_order(keys: list[str], seed: int) -> list[str]:
    """The seed only permutes the classification order of the corpus."""
    order = list(keys)
    random.Random(f"corpus:{seed}").shuffle(order)
    return order


def random_unimodular(rng: random.Random, n: int, bound: int = UNIMODULAR_ENTRY_BOUND,
                      steps: int = 12) -> list[list[int]]:
    """Product of random elementary row operations, redrawn until every
    entry lies within bound."""
    while True:
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(steps):
            kind, i, j = rng.randrange(3), rng.randrange(n), rng.randrange(n)
            if kind == 0 and i != j:
                c = rng.choice((-2, -1, 1, 2))
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            elif kind == 1:
                u[i], u[j] = u[j], u[i]
            elif kind == 2:
                u[i] = [-x for x in u[i]]
        if max(abs(x) for row in u for x in row) <= bound:
            return u


def roundtrip_inputs(seed: int, reps: list[dict]) -> list[tuple[str, list, list]]:
    """(context key, M, U M U^-1) triples: every stored class representative
    ROUNDTRIP_PASSES_PER_REP times, each with its own unimodular U.

    The U are drawn once from a fixed stream and the seed only permutes the
    order.  Conversion cost is heavy-tailed in U (about 1% of g=1 draws
    take seconds, a few over a minute), so per-seed draws would make the
    pass time swing by a factor of four between seeds."""
    draw = random.Random("roundtrip-draws")
    ops = []
    for _ in range(ROUNDTRIP_PASSES_PER_REP):
        for rep in reps:
            m = rep["matrix"]
            u = random_unimodular(draw, len(m))
            ops.append((rep["context"], m, mat_mul(mat_mul(u, m), inverse_unimodular(u))))
    random.Random(f"roundtrip:{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Plain-integer matrix arithmetic for the checks


def mat_mul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def determinant(a) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            c = m[i][k] / m[k][k]
            m[i] = [x - c * y for x, y in zip(m[i], m[k])]
    return det


def inverse_unimodular(u) -> list[list[int]]:
    n = len(u)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(u)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k])
        m[k], m[piv] = m[piv], m[k]
        m[k] = [x / m[k][k] for x in m[k]]
        for i in range(n):
            if i != k and m[i][k]:
                c = m[i][k]
                m[i] = [x - c * y for x, y in zip(m[i], m[k])]
    inv = [[x for x in row[n:]] for row in m]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def witness_ok(a, b, u) -> bool:
    """u is an integer matrix with det(u) = +-1 and b u = u a."""
    u = [[int(x) for x in row] for row in u]
    return abs(determinant(u)) == 1 and mat_mul(b, u) == mat_mul(u, a)


# ---------------------------------------------------------------------------
# Classification checks


def classification_problems(ref: dict, classes: int, verdicts: list[str],
                            groups: list[list[int]], completeness: str,
                            oracle_agrees: list[bool]) -> list[str]:
    """Differences between one classification and its reference entry.

    A context certified in the reference must be reproduced exactly.  A
    heuristic one may become certified (and then never gains classes, since
    heuristic lists only overcount); while still heuristic it must not lose
    classes."""
    problems = []
    if not all(oracle_agrees):
        problems.append("oracle disagrees on a class")
    if ref["completeness"] == "certified":
        got = (classes, verdicts, groups, completeness)
        want = (ref["classes"], ref["verdicts"], ref["groups"], ref["completeness"])
        if got != want:
            problems.append(f"certified class list changed: {got} != {want}")
    elif completeness == "heuristic" and classes < ref["classes"]:
        problems.append(f"heuristic class count fell to {classes} from {ref['classes']}")
    elif completeness == "certified" and classes > ref["classes"]:
        problems.append(f"certified count {classes} exceeds heuristic {ref['classes']}")
    return problems


def result_problems(ref: dict, result) -> list[str]:
    """classification_problems for a cyclicity.ClassificationResult."""
    return classification_problems(
        ref, result.total,
        [rep.verdict for rep in result.reports],
        [list(rep.group_descriptor) for rep in result.reports],
        result.completeness,
        [rep.oracle_agrees for rep in result.reports])


def document_problems(ref: dict, doc: dict) -> list[str]:
    """classification_problems for a ``classify`` JSON document, whose
    integers are decimal strings."""
    classes = doc["classes"]
    return classification_problems(
        ref, int(doc["summary"]["total"]),
        [c["verdict"] for c in classes],
        [[int(x) for x in c["group"]] for c in classes],
        doc["summary"]["completeness"],
        [c["oracle_agrees"] is True for c in classes])
