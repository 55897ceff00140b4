"""Cyclicity of the rational-point group for every variety class in an
ordinary simple isogeny class.

The verdict route is matrix arithmetic only: q^{g-1} | tau(M) puts M in the
class bijection at threshold 1, and gcd(tau(1-M), f(1)) >= 2 characterizes
the non-cyclic classes.  The independent oracle computes the group itself
as coker(1-M) via Smith normal form; the two must agree on every class.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import gcd, prod

from . import conjugacy, icm, linalg, orders
from .conjugacy import MatrixClass
from .errors import ConsistencyError, InputError
from .weil import WeilContext, prime_factors

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CyclicityReport:
    class_ref: MatrixClass
    tau_m: int
    tau_one_minus_m: int
    gcd_with_point_count: int
    membership_c1: bool
    membership_c2: bool
    invariant_factors: tuple[int, ...]
    group_descriptor: tuple[int, ...]  # nontrivial cyclic factors
    verdict: str  # "cyclic" | "not_cyclic"
    oracle_agrees: bool


@dataclass(frozen=True)
class SigmaCheck:
    ell: int
    sigma_class_indices: tuple[int, ...]
    tau_class_indices: tuple[int, ...]

    @property
    def agree(self) -> bool:
        return self.sigma_class_indices == self.tau_class_indices


@dataclass(frozen=True)
class ClassificationResult:
    ctx: WeilContext
    icm_result: icm.IcmResult
    reports: tuple[CyclicityReport, ...]
    sigma_checks: tuple[SigmaCheck, ...]

    @property
    def total(self) -> int:
        return len(self.reports)

    @property
    def cyclic_count(self) -> int:
        return sum(1 for r in self.reports if r.verdict == "cyclic")

    @property
    def not_cyclic_count(self) -> int:
        return self.total - self.cyclic_count

    @property
    def completeness(self) -> str:
        return self.icm_result.completeness

    @property
    def all_oracle_agree(self) -> bool:
        return all(r.oracle_agrees for r in self.reports)


def _one_minus(m) -> list[list[int]]:
    n = len(m)
    return [[(1 if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]


def _gcd_with_count(ctx: WeilContext, tau_im: int) -> int:
    if tau_im == 0:
        logger.warning("cofactor matrix of 1-M vanished; gcd(0, n) = n convention applies")
    return gcd(tau_im, ctx.point_count)


def membership(m, ctx: WeilContext, c: int) -> bool:
    """Whether m sits in the variety bijection at gcd threshold c:
    q^{g-1} divides tau(m) and gcd(tau(1-m), f(1)) >= c."""
    if c not in (1, 2):
        raise InputError("bad_threshold", "threshold c must be 1 or 2")
    conjugacy._check_charpoly(ctx, m)
    if linalg.tau(m) % ctx.q ** (ctx.g - 1):
        return False
    return _gcd_with_count(ctx, linalg.tau(_one_minus(m))) >= c


def q_stability_check(m, ctx: WeilContext) -> bool:
    """Whether q m^-1 is an integer matrix; computed three independent ways
    (the integer inverse pair E m = D I by Bareiss elimination, so q m^-1 =
    q E / D is integral iff D divides every q E_ij; tau divisibility from the
    Faddeev-LeVerrier adjugate; lattice stability under q/alpha) which must
    agree."""
    conjugacy._check_charpoly(ctx, m)
    e, d = linalg.inverse_pair(m)
    direct = all(ctx.q * x % d == 0 for row in e for x in row)
    via_tau = linalg.tau(m) % ctx.q ** (ctx.g - 1) == 0
    lat = conjugacy.matrix_to_ideal(ctx, m)
    v = orders.q_over_alpha(ctx)
    via_lattice = orders.multiplication_matrix(v, lat) is not None
    if not (direct == via_tau == via_lattice):
        raise ConsistencyError(
            f"q-stability routes disagree: inverse={direct} tau={via_tau} lattice={via_lattice}"
        )
    return direct


def group_structure_oracle(m, ctx: WeilContext) -> tuple[tuple[int, ...], bool]:
    """Invariant factors of coker(1 - m) and whether that group is cyclic.
    Independent of the tau route: works directly on the Smith normal form."""
    conjugacy._check_charpoly(ctx, m)
    return _group_structure(ctx, _one_minus(m))


def _group_structure(ctx: WeilContext, one_minus) -> tuple[tuple[int, ...], bool]:
    """group_structure_oracle given 1 - m for a matrix m already checked."""
    factors = linalg.smith_normal_form(one_minus).invariant_factors
    if prod(factors) != ctx.point_count:
        raise ConsistencyError("group order from invariant factors differs from f(1)")
    cyclic = len(factors) < 2 or factors[-2] == 1
    return factors, cyclic


def _poly_at_matrix(f_low, m) -> list[list[int]]:
    n = len(m)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(f_low):
        acc = linalg.mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return acc


def structural_identities(ctx: WeilContext, m) -> dict[str, bool]:
    """The exact identities every class representative must satisfy."""
    one_minus = _one_minus(m)
    factors = linalg.smith_normal_form(one_minus).invariant_factors
    return _identities(ctx, m, one_minus, linalg.tau(one_minus), factors)


def _identities(ctx: WeilContext, m, one_minus, tau_im: int,
                factors: tuple[int, ...]) -> dict[str, bool]:
    """structural_identities given tau(1 - m) and the invariant factors of 1 - m."""
    zero = [[0] * ctx.n for _ in range(ctx.n)]
    return {
        "det_m": linalg.determinant(m) == ctx.q**ctx.g,
        "det_one_minus_m": linalg.determinant(one_minus) == ctx.point_count,
        "tau_divides_count": tau_im != 0 and ctx.point_count % tau_im == 0,
        "factor_product": prod(factors) == ctx.point_count,
        "annihilated_by_f": _poly_at_matrix(ctx.f_low, m) == zero,
    }


def _report_for(ctx: WeilContext, mclass: MatrixClass) -> CyclicityReport:
    m = mclass.rep
    one_minus = _one_minus(m)
    tau_m = linalg.tau(m)
    tau_im = linalg.tau(one_minus)
    g_ = _gcd_with_count(ctx, tau_im)
    c1 = tau_m % ctx.q ** (ctx.g - 1) == 0 and g_ >= 1
    c2 = tau_m % ctx.q ** (ctx.g - 1) == 0 and g_ >= 2
    factors, cyclic = _group_structure(ctx, one_minus)  # ideal_to_matrix checked m
    descriptor = tuple(d for d in factors if d != 1)
    verdict = "not_cyclic" if c2 else "cyclic"
    agrees = (verdict == "not_cyclic") == (not cyclic)
    checks = _identities(ctx, m, one_minus, tau_im, factors)
    if not all(checks.values()):
        failed = ", ".join(k for k, v in checks.items() if not v)
        raise ConsistencyError(f"structural identity failed on a class representative: {failed}")
    if not c1:
        raise ConsistencyError("enumerated class fails the threshold-1 membership")
    return CyclicityReport(
        class_ref=mclass,
        tau_m=tau_m,
        tau_one_minus_m=tau_im,
        gcd_with_point_count=g_,
        membership_c1=c1,
        membership_c2=c2,
        invariant_factors=factors,
        group_descriptor=descriptor,
        verdict=verdict,
        oracle_agrees=agrees,
    )


def classify_isogeny_class(ctx: WeilContext,
                           index_bound: int | None = None) -> ClassificationResult:
    """Full pipeline: enumerate the ideal classes of Z[alpha, q/alpha] (in
    the order enumerate_icm lists them, which every index below shares),
    convert each to its canonical matrix, and report cyclicity with the
    group-structure oracle cross-check, one verdict per multiplicator ring,
    and, for each prime ell | f(1), the classes refine_by_sigma keeps equal
    to those with ell | tau(1 - M).  Non-ordinary Weil input raises
    not_ordinary here; frobenius_pair_order refuses non-Weil input and
    enumerate_icm reducible input."""
    if ctx.is_weil and not ctx.is_ordinary:
        raise InputError("not_ordinary", "not ordinary: middle coefficient shares a factor with p")
    result = icm.enumerate_icm(orders.frobenius_pair_order(ctx), index_bound)
    reports = tuple(_report_for(ctx, conjugacy.ideal_to_matrix(lat)) for lat in result.classes)
    # sigma_ell lies in (I : I) exactly when ell | tau(1 - M): one verdict per ring
    rings = result.multiplicator_rings
    if len({(ring, r.verdict) for ring, r in zip(rings, reports)}) != len(set(rings)):
        raise ConsistencyError("classes with one multiplicator ring have different verdicts")
    sigma_checks = []
    for ell in prime_factors(ctx.point_count):
        tau_idx = tuple(i for i, rep in enumerate(reports)
                        if rep.gcd_with_point_count % ell == 0)
        check = SigmaCheck(ell, icm.refine_by_sigma(result, ell), tau_idx)
        if not check.agree:
            raise ConsistencyError(
                f"sigma refinement at ell = {ell} disagrees with the tau route"
            )
        sigma_checks.append(check)
    return ClassificationResult(
        ctx=ctx,
        icm_result=result,
        reports=reports,
        sigma_checks=tuple(sigma_checks),
    )
