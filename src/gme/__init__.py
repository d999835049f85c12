"""Geometric-measure entanglement toolkit.

Exact values where closed forms exist, variational upper bounds through
manifold-trivialized gradient descent, and certified lower bounds through
semidefinite relaxations, for pure states, subspaces, and mixed states.
"""

from .optimizers import GmeEstimate, Objective, OptimizerConfig, minimize
from .pure import (
    MajorizationVerdict,
    TransformReport,
    concurrence_2q,
    concurrence_pure,
    distill_probability,
    entanglement_entropy,
    eof_2q,
    k_gme_pure,
    linear_entropy,
    majorization,
    nielsen_transformable,
    vidal_probability,
)
from .sdp import (
    Links,
    SdpProblem,
    SdpSolution,
    Witness,
    evaluate_witness,
    fidelity_root_sdp,
    lower_bound,
    lower_bound_mixed,
    lower_bound_subspace_ppt,
    lower_bound_subspace_reduction,
    ppt_min_eig,
    reduction_min_eig,
    solve_sdp,
    witness_from_pure,
)
from .states import (
    DensityMatrix,
    Projector,
    PureState,
    SchmidtDecomposition,
    StateError,
    Subspace,
    apply_depolarizing,
    complement_projector,
    fidelity,
    partial_trace,
    partial_transpose,
    sample_haar_pure,
    schmidt_decompose,
    tensor_product,
)
from .trivializations import make_trivialization, trivialize
from .variational import (
    gme_mixed_multipartite,
    gme_subspace_multipartite,
    gradient,
    kgme_mixed,
    kgme_pure_multipartite,
    kgme_subspace,
    perturbation_experiment,
    range_lower_bound,
)
from .zoo import (
    StateSpec,
    SubspaceSpec,
    canonical_mixed,
    canonical_pure,
    canonical_subspace,
    dicke_mixture_gme,
    haar_egd_cdf,
    haar_egd_density,
    haar_eigmarginal_d4,
    haar_psucc_full_density,
    oracle_gme,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
