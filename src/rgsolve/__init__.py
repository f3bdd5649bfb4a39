"""Greedy row- and column-action iterative solvers for dense linear systems.

The row methods (kaczmarz, rgrk, rgdr, gbk, rbk) solve consistent systems and
converge to the least-norm solution; the column methods (cd, rgrcd, rgdc,
amdcd, rbcd) converge to the least-squares solution whether or not the system
is consistent. The aggregate deterministic methods rgdr/rgdc select all
indices whose loss clears a relaxed greedy threshold and project along the
residual-weighted combination of the selected rows or columns.
"""

from .cgls import CglsConfig, cgls
from .col_methods import COL_METHODS, run_col_method
from .errors import (
    ConvergedSignal,
    DegenerateStepError,
    GenerationError,
    RgsolveError,
    SizeGuardError,
    StalledError,
    SubsolverError,
    UsageError,
)
from .linalg import (
    DenseMatrix,
    as_vector,
    orthonormalize_columns,
    sigma_extremes,
    singular_values,
)
from .mmio import read_matrix, read_vector, write_matrix, write_vector
from .problems import (
    ProblemInstance,
    gen_randn,
    gen_smatrix,
    load_instance,
    make_consistent,
    make_inconsistent,
    save_instance,
)
from .row_methods import ROW_METHODS, run_row_method
from .selection import (
    LossProfile,
    SelectionConfig,
    column_losses_from_y,
    gbk_set,
    make_partition,
    max_distance_set,
    relaxed_greedy_set,
    row_losses,
)
from .state import SolveReport, StepRecord, StopRule
from .theory import (
    AggregateCertificate,
    BoundCertificate,
    certificates_to_csv,
    certify_randomized,
    certify_run,
    flops_rgdc,
    flops_rgdr,
    rgdc_factor,
    rgdr_factor,
    rgrcd_factor,
    rgrk_factor,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateCertificate",
    "BoundCertificate",
    "CglsConfig",
    "COL_METHODS",
    "ConvergedSignal",
    "DegenerateStepError",
    "DenseMatrix",
    "GenerationError",
    "LossProfile",
    "ProblemInstance",
    "ROW_METHODS",
    "RgsolveError",
    "SelectionConfig",
    "SizeGuardError",
    "SolveReport",
    "StalledError",
    "StepRecord",
    "StopRule",
    "SubsolverError",
    "UsageError",
    "as_vector",
    "certificates_to_csv",
    "certify_randomized",
    "certify_run",
    "cgls",
    "column_losses_from_y",
    "flops_rgdc",
    "flops_rgdr",
    "gbk_set",
    "gen_randn",
    "gen_smatrix",
    "load_instance",
    "make_consistent",
    "make_inconsistent",
    "make_partition",
    "max_distance_set",
    "orthonormalize_columns",
    "read_matrix",
    "read_vector",
    "relaxed_greedy_set",
    "rgdc_factor",
    "rgdr_factor",
    "rgrcd_factor",
    "rgrk_factor",
    "row_losses",
    "run_col_method",
    "run_row_method",
    "save_instance",
    "sigma_extremes",
    "singular_values",
    "write_matrix",
    "write_vector",
]
