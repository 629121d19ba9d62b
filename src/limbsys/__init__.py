"""Finite transportation problems, extremal couplings, and numbered limb systems.

The package decides extremality of a coupling among all couplings sharing
its marginals through the acyclicity of its support, decomposes acyclic
supports into numbered limb systems, reconstructs the unique coupling such a
system admits, and solves the underlying transportation problem with a
network simplex that exposes optimal dual potentials.  All value types are
immutable and every operation is a pure function, so everything here is safe
to call concurrently.
"""

from .errors import (
    CycleError,
    CyclicSupportError,
    DualInfeasibleError,
    InfeasibleError,
    InvalidSystemError,
    LimbsysError,
    ShapeMismatchError,
    SizeLimitError,
)
from .measures import (
    Coupling,
    CostMatrix,
    DiscreteMarginal,
    marginals_of,
    pushforward_antigraph,
    pushforward_graph,
    tv_distance,
    validate_coupling,
)
from .extremality import (
    CycleWitness,
    ExtremalityCertificate,
    SupportGraph,
    dl_rank_test,
    is_acyclic,
    is_extremal,
    split_witness,
    support_graph,
)
from .transport import (
    DualPotentials,
    SolveReport,
    c_transform,
    enumerate_optimal_vertices,
    is_unique_optimum,
    solve,
    zero_set,
)
from .limbs import (
    Limb,
    NumberedLimbSystem,
    ReconstructionReport,
    decompose,
    limb_count,
    reconstruct,
    system_support,
    system_violations,
    two_limb_check,
    validate_system,
)
from .circle import (
    CircleGrid,
    DemoConfig,
    DemoReport,
    SubtwistReport,
    build_circle_cost,
    build_peaked_density,
    demo_instance,
    rational_demo_instance,
    run_demo,
    subtwist_check,
    support_rows,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LimbsysError",
    "ShapeMismatchError",
    "InfeasibleError",
    "DualInfeasibleError",
    "SizeLimitError",
    "CycleError",
    "CyclicSupportError",
    "InvalidSystemError",
    "DiscreteMarginal",
    "CostMatrix",
    "Coupling",
    "marginals_of",
    "validate_coupling",
    "pushforward_graph",
    "pushforward_antigraph",
    "tv_distance",
    "SupportGraph",
    "CycleWitness",
    "ExtremalityCertificate",
    "support_graph",
    "is_acyclic",
    "dl_rank_test",
    "split_witness",
    "is_extremal",
    "DualPotentials",
    "SolveReport",
    "solve",
    "c_transform",
    "zero_set",
    "enumerate_optimal_vertices",
    "is_unique_optimum",
    "Limb",
    "NumberedLimbSystem",
    "ReconstructionReport",
    "validate_system",
    "system_violations",
    "system_support",
    "decompose",
    "reconstruct",
    "limb_count",
    "two_limb_check",
    "CircleGrid",
    "DemoConfig",
    "DemoReport",
    "SubtwistReport",
    "build_circle_cost",
    "build_peaked_density",
    "subtwist_check",
    "demo_instance",
    "rational_demo_instance",
    "run_demo",
    "support_rows",
]
