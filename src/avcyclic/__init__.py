"""Exact classification of abelian varieties in an ordinary simple isogeny
class over a finite field as cyclic or not, through the correspondence
between varieties and conjugacy classes of integer matrices, with a Smith
normal form group oracle cross-checking every verdict.
"""

from .conjugacy import (
    ConjugacyResult,
    MatrixClass,
    ideal_to_matrix,
    matrices_conjugate,
    matrix_to_ideal,
)
from .cyclicity import (
    ClassificationResult,
    CyclicityReport,
    classify_isogeny_class,
    group_structure_oracle,
    membership,
    q_stability_check,
    structural_identities,
)
from .errors import (
    AvcyclicError,
    CapabilityError,
    ConsistencyError,
    DegenerateLatticeError,
    InputError,
)
from .icm import IcmResult, enumerate_icm, minkowski_index_bound, refine_by_sigma
from .ingest import ExternalClassRecord, FixtureLoad, cross_validate, load_fixture
from .linalg import (
    SnfResult,
    determinant,
    is_unimodular,
    smith_normal_form,
    tau,
)
from .orders import (
    EquivalenceResult,
    FieldElement,
    IdealLattice,
    OrderDesc,
    discriminant,
    frobenius_pair_order,
    ideal_equivalent,
    ideal_product,
    ideal_quotient,
    lattice_index,
    multiplicator_ring,
    sigma_element,
)
from .weil import (
    WeilContext,
    enumerate_weil_contexts,
    is_irreducible,
    make_context,
)

__version__ = "0.1.0"

__all__ = [
    "AvcyclicError",
    "CapabilityError",
    "ClassificationResult",
    "ConjugacyResult",
    "ConsistencyError",
    "CyclicityReport",
    "DegenerateLatticeError",
    "EquivalenceResult",
    "ExternalClassRecord",
    "FieldElement",
    "FixtureLoad",
    "IcmResult",
    "IdealLattice",
    "InputError",
    "MatrixClass",
    "OrderDesc",
    "SnfResult",
    "WeilContext",
    "classify_isogeny_class",
    "cross_validate",
    "determinant",
    "discriminant",
    "enumerate_icm",
    "enumerate_weil_contexts",
    "frobenius_pair_order",
    "group_structure_oracle",
    "ideal_equivalent",
    "ideal_product",
    "ideal_quotient",
    "ideal_to_matrix",
    "is_irreducible",
    "is_unimodular",
    "lattice_index",
    "load_fixture",
    "make_context",
    "matrices_conjugate",
    "matrix_to_ideal",
    "membership",
    "minkowski_index_bound",
    "multiplicator_ring",
    "q_stability_check",
    "refine_by_sigma",
    "sigma_element",
    "smith_normal_form",
    "structural_identities",
    "tau",
]
