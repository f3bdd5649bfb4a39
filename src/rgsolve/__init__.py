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
    DegenerateStepError,
    GenerationError,
    RgsolveError,
    SizeGuardError,
    SubsolverError,
    UsageError,
)
from .linalg import DenseMatrix, sigma_extremes, singular_values
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
from .selection import SelectionConfig
from .state import SolveReport, StopRule
from .theory import (
    AggregateCertificate,
    BoundCertificate,
    certificates_to_csv,
    certify_randomized,
    certify_run,
    flops_rgdc,
    flops_rgdr,
    rgrcd_factor,
    rgrk_factor,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateCertificate",
    "BoundCertificate",
    "CglsConfig",
    "COL_METHODS",
    "DegenerateStepError",
    "DenseMatrix",
    "GenerationError",
    "ProblemInstance",
    "ROW_METHODS",
    "RgsolveError",
    "SelectionConfig",
    "SizeGuardError",
    "SolveReport",
    "StopRule",
    "SubsolverError",
    "UsageError",
    "certificates_to_csv",
    "certify_randomized",
    "certify_run",
    "cgls",
    "flops_rgdc",
    "flops_rgdr",
    "gen_randn",
    "gen_smatrix",
    "load_instance",
    "make_consistent",
    "make_inconsistent",
    "read_matrix",
    "read_vector",
    "rgrcd_factor",
    "rgrk_factor",
    "run_col_method",
    "run_row_method",
    "save_instance",
    "sigma_extremes",
    "singular_values",
    "write_matrix",
    "write_vector",
]
