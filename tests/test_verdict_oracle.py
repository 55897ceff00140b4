"""An oracle for the g = 1 verdicts that reads no class list and no matrix.

For an ordinary elliptic curve E over F_q with End(E) = O, E(F_q) is
isomorphic to O / (pi - 1) O (Lenstra, J. Number Theory 56 (1996)).  The
classes of Z[pi] are the classes of the orders O containing it, h(O) for
each, so the multiset of groups `classify` reports is fixed by the orders
alone.  Plain integers only: the `classify` documents are all this test
takes from avcyclic.
"""

import io
import json
from collections import Counter
from contextlib import redirect_stdout
from math import gcd, isqrt

from avcyclic import cli

FIELDS = list(range(2, 17)) + [31, 64, 101, 257]


def _prime_power(q: int) -> tuple[int, int] | None:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    r = 0
    while q % p == 0:
        q, r = q // p, r + 1
    return (p, r) if q == 1 else None


def _class_number(d: int) -> int:
    """Primitive reduced forms a x^2 + b xy + c y^2 of discriminant d < 0:
    |b| <= a <= c, and b >= 0 if |b| = a or a = c."""
    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a) == 0:
                c = (b * b - d) // (4 * a)
                if c >= a and not (b < 0 and a == c) and gcd(a, b, c) == 1:
                    count += 1
        a += 1
    return count


def oracle_groups(a: int, q: int) -> Counter:
    """Invariant factors of O / (pi - 1) O, h(O) times, over the orders O
    containing Z[pi], pi a root of t^2 + a t + q.

    With m = [O : Z[pi]], D = disc(O) = (a^2 - 4q) / m^2 and
    omega = (D + sqrt(D)) / 2, pi = (-a + m sqrt(D)) / 2 gives
    pi - 1 = c + m omega with c = (-a - m D) / 2 - 1; O / (c + m omega) O
    has invariant factors gcd(c, m) and N(pi - 1) / gcd(c, m)."""
    d_pi, count = a * a - 4 * q, 1 + a + q
    groups = Counter()
    for m in range(1, isqrt(-d_pi) + 1):
        if d_pi % (m * m) or (d_pi // (m * m)) % 4 not in (0, 1):
            continue
        d = d_pi // (m * m)
        k = gcd((-a - m * d) // 2 - 1, m)
        groups[(k, count // k)] += _class_number(d)
    return groups


def classify_groups(p: int, r: int, a: int, q: int) -> Counter:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["classify", "--p", str(p), "--r", str(r), "--g", "1",
                         f"--poly=1,{a},{q}", "--no-timing"])
    assert code == 0
    doc = json.loads(out.getvalue())
    assert doc["summary"]["completeness"] == "certified"
    return Counter(tuple(map(int, c["invariant_factors"])) for c in doc["classes"])


def test_g1_groups_match_lenstra_oracle():
    checked = Counter()
    for q in FIELDS:
        split = _prime_power(q)
        if split is None:
            continue
        top = isqrt(4 * q)
        for a in range(-top, top + 1):
            if gcd(a, split[0]) != 1:
                continue  # supersingular
            assert classify_groups(*split, a, q) == oracle_groups(a, q), (q, a)
            checked[q <= 16] += 1
    assert checked == {True: 76, False: 142}
