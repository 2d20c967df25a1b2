"""Curvature tensors of coordinate metrics and the algebraic obstructions
to limiting Carleman weights.

The package computes Christoffel, Riemann, Ricci, Schouten, Weyl, Cotton
and Cotton-York tensors from exact order-3 jets of the metric, decides the
flag-invariance condition on the Weyl operator (dim >= 4) and the
det(CY) = 0 condition (dim 3), parametrizes the flag-invariant Weyl
operators, and constructs compactly supported metric bumps prescribing the
curvature or the Cotton-York tensor at a point.
"""

from .bivectors import (
    CurvatureOperator,
    EigenflagParams,
    PMSplit,
    bianchi_project,
    dimension_report,
    operator_from_0_4,
    operator_to_0_4,
    phi_map,
    pm_split,
    random_weyl_operator,
    ricci_contract,
    rotate_operator,
    sample_eigenflag_params,
    weyl_space_basis,
)
from .catalog import (
    CatalogEntry,
    get_entry,
    list_catalog,
    r_cross_surface,
    r_cross_surface_cy,
    random_metric_near_flat,
    sl2r_full_tensors,
)
from .dsl import MetricDef, eval_expr, metric_to_text, parse_expr, parse_metric
from .errors import (
    ConstraintViolation,
    DimensionError,
    DomainError,
    LcwError,
    NotOrthogonal,
    NotPositiveDefinite,
    ParseError,
    PreconditionViolation,
    SingularMetric,
    SymmetryViolation,
    UnknownEntry,
)
from .obstructions import (
    ObstructionConfig,
    ObstructionReport,
    auto_test,
    cotton_york_test,
    eigenflag_residual,
    eigenflag_test,
    plane_from_traceless_degenerate,
)
from .perturbation import (
    CottonPrescription,
    CurvaturePrescription,
    PerturbResult,
    normal_coordinates,
    prescribe_cotton_york,
    prescribe_curvature,
)
from .pipeline import (
    TensorSnapshot,
    compute_snapshot,
    conformal_rescale,
    kulkarni_nomizu,
    snapshot_to_json,
)

__version__ = "0.1.0"
