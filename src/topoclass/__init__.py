"""Neural networks as topological classifiers, at desk scale.

Generate labeled ball/shell point clouds, train small tracing MLPs, decide
separability (Voronoi criterion and disc certificate), construct explicit
Urysohn separators and bottleneck kernel witnesses, and project activation
traces with a from-scratch Isomap.
"""

from .data import (
    LabeledPointCloud,
    gen_annulus2d,
    gen_nested_shells,
    load_cloud,
    save_cloud,
)
from .isomap import (
    EmbeddingResult,
    NeighborGraph,
    classical_mds,
    geodesic_distances,
    isomap,
    knn_graph,
)
from .network import (
    ActivationTrace,
    LayerSpec,
    Mlp,
    build_paper_net,
    build_relu_net,
    forward,
    forward_batch,
    forward_trace,
    load_model,
    relu,
    save_model,
    softmax,
)
from .numerics import eigh_symmetric, make_rng, null_space_basis
from .topology import (
    Disc,
    KernelWitness,
    SeparabilityReport,
    check_disc_separation,
    check_thm3,
    component_count,
    full_separability_report,
    kernel_witness,
    linear_rank,
    min_enclosing_ball,
    simplex_class,
    urysohn_binary,
    urysohn_multiclass,
)
from .training import TrainConfig, TrainHistory, accuracy, cross_entropy, gradients, train

__version__ = "0.1.0"

# one kernel implementation; kept as a name because benchmark records report it
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "LabeledPointCloud",
    "gen_annulus2d",
    "gen_nested_shells",
    "load_cloud",
    "save_cloud",
    "EmbeddingResult",
    "NeighborGraph",
    "classical_mds",
    "geodesic_distances",
    "isomap",
    "knn_graph",
    "ActivationTrace",
    "LayerSpec",
    "Mlp",
    "build_paper_net",
    "build_relu_net",
    "forward",
    "forward_batch",
    "forward_trace",
    "load_model",
    "relu",
    "save_model",
    "softmax",
    "eigh_symmetric",
    "make_rng",
    "null_space_basis",
    "Disc",
    "KernelWitness",
    "SeparabilityReport",
    "check_disc_separation",
    "check_thm3",
    "component_count",
    "full_separability_report",
    "kernel_witness",
    "linear_rank",
    "min_enclosing_ball",
    "simplex_class",
    "urysohn_binary",
    "urysohn_multiclass",
    "TrainConfig",
    "TrainHistory",
    "accuracy",
    "cross_entropy",
    "gradients",
    "train",
]
