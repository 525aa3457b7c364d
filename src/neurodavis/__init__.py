"""Structure-preserving low-dimensional embeddings via a trainable per-sample
latent table, plus the evaluation battery and synthetic benchmarks around it.
"""

from .analysis import (
    ContractionTrace,
    EvalReport,
    GradientCheckReport,
    Lemma1Report,
    SuiteResult,
    check_gradients,
    check_lemma1,
    check_theorem1,
    evaluate_embedding,
    finite_difference_gradients,
    run_preservation_suite,
)
from .datasets import (
    Dataset,
    SYNTHETIC_KINDS,
    gen_synthetic,
    lift9,
    load_csv,
    save_csv,
)
from .errors import (
    CsvParseError,
    DegenerateInputError,
    InvalidInputError,
    NeurodavisError,
    TrainingDivergedError,
)
from .metrics import (
    agglomerative,
    ari,
    centroid_distance_preservation,
    cluster_area_preservation,
    distance_preservation,
    fmi,
    kmeans,
    knn_evaluate,
    mann_whitney_u,
    pearson_r,
    spearman_rho,
)
from .model import (
    Convergence,
    ForwardTrace,
    LossTerms,
    Model,
    ModelConfig,
    TrainReport,
    adam_step,
    embed,
    fit,
    forward,
    gradients,
    init_model,
    loss,
    save_checkpoint,
)
from .numerics import (
    make_rng,
    pair_distances,
    pairwise_euclidean,
    spectral_norm,
)

__version__ = "0.1.0"
