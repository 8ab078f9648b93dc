"""Concurrent multicommodity path-flow toolkit.

Solves the saturated concurrent-flow problem on explicit path systems with a
two-level quantized search, backed by a fractional-packing approximation
subroutine and verified against exact LP reference solvers.
"""

from .compare import CompareRow, run_compare, certified_checks
from .generator import GenerationError, generate_instance
from .instance_io import (
    Instance,
    InstanceError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from .netmodel import (
    CAP_TOLERANCE,
    Commodity,
    Edge,
    FeasibilityReport,
    Flow,
    ModelError,
    Network,
    Path,
    PathSystem,
    Traversal,
    branch_values,
    edge_loads,
    enumerate_paths,
    flow_value,
    infer_traversals,
    is_feasible,
    min_ratio,
    validate_path,
)
from .oracle import (
    OracleError,
    lp_emcfp_lambda,
    lp_emcfpsc,
    lp_mmfp_exact,
    lp_mmfpb_exact,
)
from .packing import FptasConfig, PackingError, pack_paths, solve_mmfp, solve_mmfpb
from .solver import (
    AuxNetwork,
    SolveReport,
    build_auxiliary,
    compute_epsilon,
    find_hstar,
    find_lstar,
    project_flow,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AuxNetwork",
    "CAP_TOLERANCE",
    "Commodity",
    "CompareRow",
    "Edge",
    "FeasibilityReport",
    "Flow",
    "FptasConfig",
    "GenerationError",
    "Instance",
    "InstanceError",
    "ModelError",
    "Network",
    "OracleError",
    "PackingError",
    "Path",
    "PathSystem",
    "SolveReport",
    "Traversal",
    "branch_values",
    "build_auxiliary",
    "compute_epsilon",
    "edge_loads",
    "enumerate_paths",
    "find_hstar",
    "find_lstar",
    "flow_value",
    "generate_instance",
    "infer_traversals",
    "is_feasible",
    "lp_emcfp_lambda",
    "lp_emcfpsc",
    "lp_mmfp_exact",
    "lp_mmfpb_exact",
    "min_ratio",
    "pack_paths",
    "parse_instance",
    "parse_solution",
    "project_flow",
    "run_compare",
    "serialize_instance",
    "serialize_solution",
    "solve",
    "solve_mmfp",
    "solve_mmfpb",
    "certified_checks",
    "validate_path",
    "__version__",
]
