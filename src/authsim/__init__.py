"""Exact analysis of unconditionally secure message authentication, classical
and quantum: hash-family deception probabilities by brute force, the
symmetric prepare-and-measure tagging framework and its impersonation floor,
the singlet-keyed one-bit protocol with optimal attacks, and symmetry-test
verification with its copy-count and key-length accounting."""

from .classical_mac import (
    DeceptionReport,
    FamilyKind,
    HashFamily,
    deception_probabilities,
    is_strongly_universal,
    key_length_lower_bound,
    make_affine_family,
    make_poly_family,
    pairwise_key_counts,
    tag,
    verify,
)
from .curty_santos import (
    Condition13Report,
    CurtySantosInstance,
    HonestRunTrace,
    IncompatibilityReport,
    as_qmac_scheme,
    attack_operator,
    condition_13_holds,
    honest_run,
    impersonation_acceptance,
    incompatibility_report,
    incompatibility_reports,
    optimal_impersonation,
    simulate_impersonation_acceptance,
    singlet,
    substitution_conclusive_probability,
)
from .errors import DomainError, InvariantViolation, ParameterError
from .qmac_framework import (
    AttackReport,
    DecisionRule,
    QmacScheme,
    Theorem2Report,
    impersonation_deception,
    is_classical_equivalent,
    max_offdiagonal_overlap,
    overlap_matrix,
    partition_keys,
    random_scheme,
    realized_labels,
    scheme_from_json_dict,
    scheme_to_json_dict,
    tag_state,
    validate_scheme,
    verify_theorem2,
)
from .quantum_core import (
    HermitianOperator,
    PureState,
    UnitaryOperator,
    basis_state,
    density_operator,
    max_eigenpair,
    measure_projective,
    overlap,
    partial_trace,
    random_state,
    random_unitaries,
    random_unitary,
    symmetric_projector,
    tensor,
)
from .symmetry_test import (
    CopiesRequired,
    KeyLengthBound,
    SweepRow,
    acceptance_error_formula,
    acceptance_error_oracle,
    copies_required,
    feasibility_threshold,
    impersonation_with_symmetry_test,
    key_length_requirement,
    sweep,
)

__version__ = "0.1.0"
