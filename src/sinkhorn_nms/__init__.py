"""Differentiable non-maximum suppression via entropic optimal transport.

Detection proposals are softly assigned to latent regions by scaling a Gibbs
kernel of a quality/feature/spatial cost matrix to prescribed marginals.
The package also provides the exact discrete matching oracle, an
entropy-constrained conditional-gradient refinement of region probabilities,
the associated losses with verified gradients, classical NMS baselines, and
harnesses that empirically check the solver's convergence guarantees.
"""

from .baselines import greedy_nms, soft_nms
from .clustering import (
    AdaptiveKParams,
    Centroids,
    KMeansResult,
    estimate_k,
    init_centroids,
    kmeans,
)
from .cost import CostMatrix, CostWeights, build_cost, feature_distance, kappa, spatial_distance
from .geometry import Box, Mask, iou, iou_matrix, quality_score, quality_scores, total_variation
from .hungarian import Assignment, hungarian_solve, kl_divergence
from .losses import (
    LossReport,
    LossWeights,
    bce,
    bce_mean,
    grad_matching_wrt_cost,
    matching_loss,
    quality_labels,
    total_loss,
    tv_loss,
)
from .pipeline import (
    MethodMetrics,
    PipelineConfig,
    PipelineDiagnostics,
    RefinedProposal,
    aggregate,
    compare,
    dnms,
)
from .proposals import (
    GroundTruth,
    Proposal,
    ProposalArrays,
    ProposalSet,
    SynthConfig,
    synth_generate,
    validate,
)
from .refine import (
    FrankWolfeResult,
    RefineParams,
    SimplexVector,
    UnreachableEntropyWarning,
    duality_gap,
    entropy,
    frank_wolfe,
    line_search,
    lmo_entropy,
)
from .rng import SplitMix64
from .sinkhorn import (
    ContractionReport,
    Marginals,
    NumericalError,
    SinkhornParams,
    SoftAssignment,
    contraction_rate,
    grad_analytic,
    grad_unrolled,
    hilbert_distance,
    solve,
    verify_contraction,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveKParams",
    "Assignment",
    "Box",
    "Centroids",
    "ContractionReport",
    "CostMatrix",
    "CostWeights",
    "FrankWolfeResult",
    "GroundTruth",
    "KMeansResult",
    "LossReport",
    "LossWeights",
    "Marginals",
    "Mask",
    "MethodMetrics",
    "NumericalError",
    "PipelineConfig",
    "PipelineDiagnostics",
    "Proposal",
    "ProposalArrays",
    "ProposalSet",
    "RefineParams",
    "RefinedProposal",
    "SimplexVector",
    "SinkhornParams",
    "SoftAssignment",
    "SplitMix64",
    "SynthConfig",
    "UnreachableEntropyWarning",
    "aggregate",
    "bce",
    "bce_mean",
    "build_cost",
    "compare",
    "contraction_rate",
    "dnms",
    "duality_gap",
    "entropy",
    "estimate_k",
    "feature_distance",
    "frank_wolfe",
    "grad_analytic",
    "grad_matching_wrt_cost",
    "grad_unrolled",
    "greedy_nms",
    "hilbert_distance",
    "hungarian_solve",
    "init_centroids",
    "iou",
    "iou_matrix",
    "kappa",
    "kl_divergence",
    "kmeans",
    "line_search",
    "lmo_entropy",
    "matching_loss",
    "quality_labels",
    "quality_score",
    "quality_scores",
    "soft_nms",
    "solve",
    "spatial_distance",
    "synth_generate",
    "total_loss",
    "total_variation",
    "tv_loss",
    "validate",
    "verify_contraction",
]
