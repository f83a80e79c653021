"""Constructive library for zero-weight dynamical matrices with unit shifts.

Build the classified solution family from a nested index partition plus
numeric constants, verify candidates against the shifted consistency
equations, classify arbitrary zero-weight matrices back into the family,
analyze their spectral (Hecke-type) structure, and apply the family's
covariance transforms.  See README.md for the CLI and JSON schemas.
"""

from .builder import build, build_commuting_ops
from .classifier import (
    IncidenceReport,
    classify,
    degenerate_blocks,
    recover_params,
)
from .errors import (
    AmbiguityError,
    DynrmatError,
    NotInFamilyError,
    ParameterError,
    PoleError,
)
from .hecke import HeckeReport, basic_form_distance, hecke_classify
from .params import (
    BlockConstants,
    ClassificationParams,
    DerivedBlockConstants,
    ExactTwoForm,
    QuadraticExactTwoForm,
    TableTwoForm,
    TrivialTwoForm,
    TwoFormSpec,
    constant_table_two_form,
    derive,
    normalize_f,
    validate_params,
)
from .partition import (
    DeltaClass,
    IndexPartition,
    ValidationResult,
    all_free_partition,
    single_class_partition,
    validate,
)
from .rmatrix import (
    DensePoint,
    DynamicalRMatrix,
    Provenance,
    composite_index,
    dense_point_to_json,
    evaluate,
    pair_invariants,
    permuted,
    shifted,
)
from .sampling import random_datum, random_partition, random_two_form
from .transforms import (
    LimitReport,
    ScaledDatum,
    apply_2form,
    apply_twist,
    check_closed,
    contract,
    decouple_compose,
    reparametrize,
    scale_f,
    trig_to_rational_limit,
)
from .verifier import (
    ResidualReport,
    check_invertibility,
    check_system,
    check_zero_weight,
    dqybe_residual_normalized,
    sample_lambda,
    shift_identities,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
