"""Executable theory checks and desk-scale experiment pipelines.

``check_lemma1`` verifies numerically that ||I - eta*W*W^T||_2 <= 1 whenever
||W||_F <= 1 and eta <= 1. ``check_theorem1`` trains the no-hidden-layer,
no-regularization model with plain gradient descent while projecting the
reconstruction weights to Frobenius norm <= 1 after every step, and records
the embedding gap of a close sample pair, which must never increase.
``run_preservation_suite`` repeats fit -> embed -> structure metrics over
seeded runs and reports per-run values plus medians.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import Dataset
from .errors import InvalidInputError
from .metrics import (
    DEFAULT_PAIR_BUDGET,
    EvalReport,
    agglomerative,
    ari,
    centroid_distance_preservation,
    cluster_area_preservation,
    distance_preservation,
    fmi,
    kmeans,
    knn_evaluate,
)
from .model import (
    Model,
    ModelConfig,
    embed,
    fit,
    forward,
    gradients,
    init_model,
    loss,
)
from .numerics import (
    Rng,
    as_class_ids,
    as_matrix,
    make_rng,
    pairwise_euclidean,
    spectral_norm,
)

LEMMA1_TOLERANCE = 1e-9
THEOREM1_REL_TOLERANCE = 1e-9
# False on builds whose long double is plain float64 (MSVC, Apple arm64).
LONGDOUBLE_EXTENDS_FLOAT64 = bool(
    np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
)


@dataclass
class Lemma1Report:
    trials: int
    max_dim: int
    max_norm: float

    @property
    def passed(self) -> bool:
        return self.max_norm <= 1.0 + LEMMA1_TOLERANCE


@dataclass
class ContractionTrace:
    """Per-step embedding gap of one sample pair and the reconstruction-layer
    Frobenius norm, both recorded after each projection step (index 0 is the
    initial state)."""

    gaps: np.ndarray
    recon_fro: np.ndarray

    @property
    def monotone(self) -> bool:
        g = self.gaps
        return bool(np.all(g[1:] <= g[:-1] * (1.0 + THEOREM1_REL_TOLERANCE)))


@dataclass
class GradientCheckReport:
    n_models: int
    max_rel_error: float
    tolerance: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


@dataclass
class SuiteResult:
    dataset: str
    reports: list[EvalReport]
    medians: dict[str, float] = field(default_factory=dict)


def check_lemma1(trials: int, max_dim: int, rng: Rng) -> Lemma1Report:
    """Sample random matrices scaled to Frobenius norm <= 1 and step sizes
    eta in (0, 1]; report the largest spectral norm of I - eta*W*W^T seen."""
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    if max_dim < 1:
        raise InvalidInputError(f"max_dim must be >= 1, got {max_dim}")
    worst = 0.0
    for _ in range(trials):
        rows = int(rng.integers(1, max_dim + 1))
        cols = int(rng.integers(1, max_dim + 1))
        w = rng.standard_normal((rows, cols))
        fro = np.linalg.norm(w)
        if fro > 0:
            w *= (1.0 - rng.uniform(0.0, 1.0)) / fro  # target norm in (0, 1]
        eta = 1.0 - rng.uniform(0.0, 1.0)  # (0, 1]
        m = np.eye(rows) - eta * (w @ w.T)
        worst = max(worst, spectral_norm(m))
    return Lemma1Report(trials=trials, max_dim=max_dim, max_norm=worst)


def _diameter(x: np.ndarray) -> float:
    _, _, d = pairwise_euclidean(x)
    return float(d.max())


def check_theorem1(
    x,
    pair: tuple[int, int],
    eta: float,
    steps: int,
    rng: Rng,
) -> ContractionTrace:
    """Gap trace for a close pair under the linear-decoder training regime.

    Preconditions: the pair's distance must be below 1e-3 of the data
    diameter, and eta <= 1. Uses full-batch plain gradient descent on the
    no-hidden-layer, alpha = beta = 0 model; after the initial draw and after
    every step the reconstruction weights are rescaled to Frobenius norm
    <= 1, which is the contraction hypothesis.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    i, j = int(pair[0]), int(pair[1])
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise InvalidInputError(f"pair must be two distinct row indices, got {pair}")
    if not 0.0 <= eta <= 1.0:
        raise InvalidInputError(f"eta must be in [0, 1], got {eta}")
    if steps < 0:
        raise InvalidInputError(f"steps must be >= 0, got {steps}")
    delta = 1e-3 * _diameter(x)
    gap_x = float(np.linalg.norm(x[i] - x[j]))
    if gap_x >= delta:
        raise InvalidInputError(
            f"pair gap {gap_x:.6g} is not below delta {delta:.6g}"
        )
    config = ModelConfig(
        latent_dim=2 if x.shape[1] >= 2 else 1,
        hidden_widths=(),
        alpha=0.0,
        beta=0.0,
        seed=int(rng.integers(2**63 - 1)),
    )
    model = init_model(config, n, x.shape[1])
    _project_fro(model.recon.w)
    gaps = [float(np.linalg.norm(model.latent_table[i] - model.latent_table[j]))]
    fros = [float(np.linalg.norm(model.recon.w))]
    all_idx = np.arange(n)
    for _ in range(steps):
        model.theta -= eta * gradients(model, all_idx, x, config)
        _project_fro(model.recon.w)
        gaps.append(float(np.linalg.norm(model.latent_table[i] - model.latent_table[j])))
        fros.append(float(np.linalg.norm(model.recon.w)))
    return ContractionTrace(gaps=np.asarray(gaps), recon_fro=np.asarray(fros))


def _project_fro(w: np.ndarray, limit: float = 1.0) -> None:
    fro = float(np.linalg.norm(w))
    if fro > limit:
        w *= limit / fro


def finite_difference_gradients(
    model: Model,
    batch_indices,
    x_batch: np.ndarray,
    config: ModelConfig,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradients of the batch objective, entry by entry of
    the parameter vector, returned as a float64 vector laid out like
    ``model.theta``. Only evaluates the forward pass and loss,
    so it is independent of the backpropagation path it is used to check.

    The differences are taken on a ``np.longdouble`` copy of the model. The
    roundoff error of a central difference is about eps*|L|/h (Nocedal &
    Wright, Numerical Optimization, sec. 8.1): in float64 at h = 1e-6 a loss
    of ~100 leaves an absolute error of ~2e-8, twenty times what the 1e-4
    relative bound allows on a gradient of ~1e-5. The x86-64 80-bit long
    double shrinks eps by 2048x. Where ``np.longdouble`` is no more precise
    than float64 (e.g. MSVC or Apple-arm64 builds) a ``RuntimeWarning`` says
    that the oracle is roundoff-limited again.
    """
    if not LONGDOUBLE_EXTENDS_FLOAT64:
        warnings.warn(
            "np.longdouble is no more precise than float64 on this platform; "
            "central differences are roundoff-limited (error ~ eps*|L|/h) and "
            "may exceed the gradient check's bound on small gradients",
            RuntimeWarning,
            stacklevel=2,
        )
    wide = model.astype(np.longdouble)
    theta = wide.theta
    g = np.zeros_like(theta)
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + step
        hi = loss(forward(wide, batch_indices), x_batch, wide, config).total
        theta[k] = orig - step
        lo = loss(forward(wide, batch_indices), x_batch, wide, config).total
        theta[k] = orig
        g[k] = (hi - lo) / (2.0 * step)
    return g.astype(np.float64)


def max_gradient_rel_error(
    model: Model,
    batch_indices,
    x_batch: np.ndarray,
    config: ModelConfig,
    step: float = 1e-6,
) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients over all parameters."""
    a = gradients(model, batch_indices, x_batch, config)
    f = finite_difference_gradients(model, batch_indices, x_batch, config, step)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
    return float((np.abs(a - f) / denom).max())


def check_gradients(n_models: int = 50, seed: int = 0) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences on
    random small models (n, d, k <= 6; 0-2 hidden layers; alpha/beta in
    {0, 1e-3}), full-batch.

    Parameters are redrawn from continuous distributions after construction:
    the fresh-initialization state (zero biases, tiny latents) can park a
    downstream pre-activation exactly on the ReLU kink, where central
    differences are meaningless. At generic points a kink crossing within the
    1e-6 step has probability ~0.

    The finite differences are evaluated in ``np.longdouble`` (see
    :func:`finite_difference_gradients`): their roundoff error eps*|L|/h is
    otherwise of the same order as small gradients on models with a large
    loss, and the 1e-4 relative bound would measure the oracle, not
    backpropagation.
    """
    rng = make_rng(seed)
    worst = 0.0
    for trial in range(n_models):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        n_hidden = int(rng.integers(0, 3))
        widths = tuple(int(rng.integers(1, 7)) for _ in range(n_hidden))
        alpha = 0.0 if trial % 2 == 0 else 1e-3
        beta = 0.0 if trial % 4 < 2 else 1e-3
        config = ModelConfig(
            latent_dim=k,
            hidden_widths=widths,
            alpha=alpha,
            beta=beta,
            seed=int(rng.integers(2**31)),
        )
        model = init_model(config, n, d)
        for name, p in model.views(model.theta).items():
            scale = 0.3 if name.endswith(".b") else 1.0
            p[...] = scale * rng.standard_normal(p.shape)
        x = rng.standard_normal((n, d))
        worst = max(worst, max_gradient_rel_error(model, np.arange(n), x, config))
    return GradientCheckReport(n_models=n_models, max_rel_error=worst)


def evaluate_embedding(
    x_high,
    x_low,
    labels=None,
    metrics: tuple[str, ...] = ("distance",),
    pair_budget: int | None = DEFAULT_PAIR_BUDGET,
    rng: Rng | None = None,
) -> dict[str, float]:
    """Compute the selected structure/quality metrics for one embedding.

    Selections: ``distance`` (pairwise-distance rank correlation),
    ``centroid`` (centroid-distance rank correlation), ``area``
    (bounding-rectangle area correlation; both spaces 2-D), ``knn``
    (accuracy and macro F1 of 5-NN on a stratified 80:20 split),
    ``cluster`` (k-means and agglomerative labelings with one cluster per
    label, scored by ARI/FMI against the true labels).
    """
    x_high = as_matrix(x_high, "x_high")
    x_low = as_matrix(x_low, "x_low")
    if x_high.shape[0] != x_low.shape[0]:
        raise InvalidInputError(
            f"row counts differ: {x_high.shape[0]} vs {x_low.shape[0]}"
        )
    if rng is None:
        rng = make_rng(0)
    labelled = [m for m in metrics if m in ("centroid", "area", "knn", "cluster")]
    if labelled:
        if labels is None:
            raise InvalidInputError(f"{labelled[0]} metric requires labels")
        labels, n_classes = as_class_ids(labels, x_high.shape[0])
    out: dict[str, float] = {}
    for metric in metrics:
        if metric == "distance":
            out["distance_spearman"] = distance_preservation(
                x_high, x_low, pair_budget, rng
            )
        elif metric == "centroid":
            out["centroid_spearman"] = centroid_distance_preservation(
                x_high, x_low, labels
            )
        elif metric == "area":
            out["area_pearson"] = cluster_area_preservation(x_high, x_low, labels)
        elif metric == "knn":
            acc, f1 = knn_evaluate(x_low, labels, k=5, split=0.8, rng=rng)
            out["knn_accuracy"] = acc
            out["knn_f1_macro"] = f1
        elif metric == "cluster":
            km = kmeans(x_low, n_classes, rng=rng)
            ag = agglomerative(x_low, n_classes)
            out["kmeans_ari"] = ari(labels, km)
            out["kmeans_fmi"] = fmi(labels, km)
            out["agglomerative_ari"] = ari(labels, ag)
            out["agglomerative_fmi"] = fmi(labels, ag)
        else:
            raise InvalidInputError(f"unknown metric {metric!r}")
    return out


def _suite_metrics(ds: Dataset, latent_dim: int) -> tuple[str, ...]:
    metrics: list[str] = ["distance"]
    if ds.labels is not None and ds.n_classes >= 3:
        metrics.append("centroid")
        if ds.d == 2 and latent_dim == 2:
            metrics.append("area")
    return tuple(metrics)


def run_preservation_suite(
    ds: Dataset,
    config: ModelConfig,
    n_runs: int = 10,
    pair_budget: int | None = DEFAULT_PAIR_BUDGET,
) -> SuiteResult:
    """Seeded repeats of fit -> embed -> structure metrics.

    Run r uses ``config.seed + r`` for training and for its pair sample. The
    distance metric always runs; centroid (and, for 2-D data and embeddings,
    area) preservation are added when labels with >= 3 classes exist.
    Deterministic given (dataset, config, n_runs).
    """
    if n_runs < 1:
        raise InvalidInputError(f"n_runs must be >= 1, got {n_runs}")
    metrics = _suite_metrics(ds, config.latent_dim)
    reports = []
    for r in range(n_runs):
        run_config = replace(config, seed=config.seed + r)
        model, _ = fit(ds.x, run_config)
        emb = embed(model)
        values = evaluate_embedding(
            ds.x,
            emb,
            labels=ds.labels,
            metrics=metrics,
            pair_budget=pair_budget,
            rng=make_rng(run_config.seed),
        )
        reports.append(
            EvalReport(
                dataset=ds.name,
                seed=run_config.seed,
                config_hash=run_config.config_hash(),
                metrics=values,
            )
        )
    reports.sort(key=lambda rep: rep.seed)
    medians: dict[str, float] = {}
    for key in reports[0].metrics:
        medians[key] = float(np.median([rep.metrics[key] for rep in reports]))
    return SuiteResult(dataset=ds.name, reports=reports, medians=medians)
