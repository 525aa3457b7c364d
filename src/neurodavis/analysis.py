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
from dataclasses import dataclass, replace

import numpy as np

from .datasets import Dataset
from .errors import InvalidInputError
from .metrics import (
    DEFAULT_PAIR_BUDGET,
    agglomerative,
    ari,
    centroid_distance_preservation,
    cluster_area_preservation,
    distance_preservation,
    fmi,
    kmeans,
    knn_evaluate,
    mann_whitney_u,
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
    as_count,
    as_matrix,
    as_paired,
    as_real,
    make_rng,
    pairwise_euclidean,
    spectral_norm,
)

LEMMA1_TOLERANCE = 1e-9
LEMMA1_MAX_DIM = 8  # the largest side of check_lemma1's random W
THEOREM1_REL_TOLERANCE = 1e-9
GRADIENT_TOLERANCE = 1e-4
FINITE_DIFFERENCE_STEP = 1e-6
# evaluate_embedding's selections; every one after the first needs labels.
METRICS = ("distance", "centroid", "area", "knn", "cluster")
# Each `check --which` run on the caller's generator; it looks its check_* up
# when called, so a rebound one (a probe's) runs. theorem1's input is 20
# standard-normal rows in 3-D, row 1 a copy of row 0: a pair in any delta-ball.
CHECKS = {
    "lemma1": lambda rng, trials=1000: check_lemma1(trials, rng),
    "theorem1": lambda rng: check_theorem1(
        rng.standard_normal((20, 3))[[0, 0, *range(2, 20)]], (0, 1), 0.5, 200, rng
    ),
    "gradients": lambda rng: check_gradients(20, rng),
}
# False on builds whose long double is plain float64 (MSVC, Apple arm64).
LONGDOUBLE_EXTENDS_FLOAT64 = bool(
    np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
)


@dataclass
class Lemma1Report:
    trials: int
    max_norm: float

    @property
    def passed(self) -> bool:
        return self.max_norm <= 1.0 + LEMMA1_TOLERANCE

    @property
    def detail(self) -> str:
        return (f"max |I - eta*W*W^T|_2 over {self.trials} trials = "
                f"{self.max_norm:.12f} (bound 1 + {LEMMA1_TOLERANCE:g})")


@dataclass
class ContractionTrace:
    """Per-step embedding gap of one sample pair and the reconstruction-layer
    Frobenius norm, both recorded after each projection step (index 0 is the
    initial state)."""

    gaps: np.ndarray
    recon_fro: np.ndarray

    @property
    def passed(self) -> bool:
        g = self.gaps
        return bool(np.all(g[1:] <= g[:-1] * (1.0 + THEOREM1_REL_TOLERANCE)))

    @property
    def detail(self) -> str:
        return (f"gap {self.gaps[0]:.6f} -> {self.gaps[-1]:.6f} over "
                f"{len(self.gaps) - 1} steps, monotone non-increasing")


@dataclass
class GradientCheckReport:
    n_models: int
    max_rel_error: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < GRADIENT_TOLERANCE

    @property
    def detail(self) -> str:
        return (f"max relative error over {self.n_models} models = "
                f"{self.max_rel_error:.3g} (tolerance {GRADIENT_TOLERANCE:g})")


@dataclass
class EvalReport:
    """The metric values of one seeded evaluation run."""

    seed: int
    metrics: dict[str, float]


@dataclass
class SuiteResult:
    """Seeded evaluation runs, one ``EvalReport`` each, in seed order."""

    reports: list[EvalReport]

    @property
    def medians(self) -> dict[str, float]:
        """Each metric's median over the runs, in the first run's key order."""
        return {
            key: float(np.median([rep.metrics[key] for rep in self.reports]))
            for key in self.reports[0].metrics
        }

    def to_dict(self, compare: SuiteResult | None = None) -> dict:
        """The eval report's ``runs`` and ``medians``; given ``compare``, run on
        the same seeds, also each run's ``compare_metrics`` and, per metric,
        the two run sets' rank-sum ``comparison`` (``mw_u``, ``mw_p``)."""
        runs = [{"seed": rep.seed, "metrics": rep.metrics} for rep in self.reports]
        doc = {"runs": runs, "medians": self.medians}
        if compare is not None:
            for entry, other in zip(runs, compare.reports):
                entry["compare_metrics"] = other.metrics
            doc["comparison"] = {}
            for key in doc["medians"]:
                u, p = mann_whitney_u([rep.metrics[key] for rep in self.reports],
                                      [rep.metrics[key] for rep in compare.reports])
                doc["comparison"][key] = {"mw_u": u, "mw_p": p}
        return doc


def check_lemma1(trials: int, rng: Rng) -> Lemma1Report:
    """Sample random W (sides up to ``LEMMA1_MAX_DIM``) scaled to Frobenius
    norm <= 1 and step sizes eta in (0, 1]; report the largest spectral norm
    of I - eta*W*W^T seen."""
    trials = as_count(trials, "trials", 1)
    worst = 0.0
    for _ in range(trials):
        rows = int(rng.integers(1, LEMMA1_MAX_DIM + 1))
        cols = int(rng.integers(1, LEMMA1_MAX_DIM + 1))
        w = rng.standard_normal((rows, cols))
        fro = np.linalg.norm(w)
        if fro > 0:
            w *= (1.0 - rng.uniform(0.0, 1.0)) / fro  # target norm in (0, 1]
        eta = 1.0 - rng.uniform(0.0, 1.0)  # (0, 1]
        m = np.eye(rows) - eta * (w @ w.T)
        worst = max(worst, spectral_norm(m))
    return Lemma1Report(trials=trials, max_norm=worst)


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
    i = as_count(pair[0], "pair index", 0, n - 1)
    j = as_count(pair[1], "pair index", 0, n - 1)
    if i == j:
        raise InvalidInputError(f"pair must be two distinct row indices, got {pair}")
    eta = as_real(eta, "eta", 0, 1)
    steps = as_count(steps, "steps", 0)
    delta = 1e-3 * float(pairwise_euclidean(x)[2].max())  # the diameter's
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
    _project_fro(model.layers[-1].w)
    gaps = [float(np.linalg.norm(model.latent_table[i] - model.latent_table[j]))]
    fros = [float(np.linalg.norm(model.layers[-1].w))]
    all_idx = np.arange(n)
    for _ in range(steps):
        model.theta -= eta * gradients(model, all_idx, x, config)
        _project_fro(model.layers[-1].w)
        gaps.append(float(np.linalg.norm(model.latent_table[i] - model.latent_table[j])))
        fros.append(float(np.linalg.norm(model.layers[-1].w)))
    return ContractionTrace(gaps=np.asarray(gaps), recon_fro=np.asarray(fros))


def _project_fro(w: np.ndarray) -> None:
    fro = float(np.linalg.norm(w))
    if fro > 1.0:
        w *= 1.0 / fro


def finite_difference_gradients(
    model: Model,
    batch_indices,
    x_batch: np.ndarray,
    config: ModelConfig,
) -> np.ndarray:
    """Central-difference gradients of the batch objective, with step
    h = ``FINITE_DIFFERENCE_STEP``, entry by entry of the parameter vector,
    returned as a float64 vector laid out like ``model.theta``. Only
    evaluates the forward pass and loss, so it is independent of the
    backpropagation path it is used to check.

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
    step = FINITE_DIFFERENCE_STEP
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


def check_gradients(n_models: int, rng: Rng) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences on
    random small models (n, d, k <= 6; 0-2 hidden layers; alpha/beta in
    {0, 1e-3}), full-batch, and report the worst relative disagreement
    |a - f| / max(|a|, |f|, 1e-8) over all parameters of all models.

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
    n_models = as_count(n_models, "n_models", 1)
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
        a = gradients(model, np.arange(n), x, config)
        f = finite_difference_gradients(model, np.arange(n), x, config)
        rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
        worst = max(worst, float(rel.max()))
    return GradientCheckReport(n_models=n_models, max_rel_error=worst)


def evaluate_embedding(
    x_high,
    x_low,
    labels=None,
    metrics: tuple[str, ...] = ("distance",),
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    *,
    rng: Rng,
) -> dict[str, float]:
    """Compute the selected structure/quality metrics for one embedding.

    Selections: ``distance`` (pairwise-distance rank correlation),
    ``centroid`` (centroid-distance rank correlation), ``area``
    (bounding-rectangle area correlation; both spaces 2-D), ``knn``
    (accuracy and macro F1 of 5-NN on a stratified 80:20 split),
    ``cluster`` (k-means and agglomerative labelings with one cluster per
    label, scored by ARI/FMI against the true labels). The distance pair
    sample, the k-NN split and the k-means seeding draw from ``rng`` in
    the order of ``metrics``. An unknown selection, an empty ``metrics`` or
    one naming a selection twice raises before any metric runs or draws from
    ``rng``.
    """
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise InvalidInputError(f"unknown metric {unknown[0]!r}")
    if not metrics or len(set(metrics)) < len(metrics):
        raise InvalidInputError(f"metrics must name each selection once, got {list(metrics)}")
    x_high, x_low = as_paired(x_high, x_low)
    labelled = [m for m in metrics if m in METRICS[1:]]
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
            acc, f1 = knn_evaluate(x_low, labels, rng=rng)
            out["knn_accuracy"] = acc
            out["knn_f1_macro"] = f1
        elif metric == "cluster":
            km = kmeans(x_low, n_classes, rng)
            ag = agglomerative(x_low, n_classes)
            out["kmeans_ari"] = ari(labels, km)
            out["kmeans_fmi"] = fmi(labels, km)
            out["agglomerative_ari"] = ari(labels, ag)
            out["agglomerative_fmi"] = fmi(labels, ag)
    return out


def run_preservation_suite(
    ds: Dataset,
    config: ModelConfig,
    n_runs: int = 10,
) -> SuiteResult:
    """Seeded repeats of fit -> embed -> structure metrics.

    Run r uses ``config.seed + r`` for training and for its pair sample. The
    distance metric always runs; centroid (and, for 2-D data and embeddings,
    area) preservation are added when labels with >= 3 classes exist.
    Deterministic given (dataset, config, n_runs).
    """
    n_runs = as_count(n_runs, "n_runs", 1)
    metrics = ["distance"]
    if ds.labels is not None and ds.n_classes >= 3:
        metrics.append("centroid")
        if ds.d == 2 and config.latent_dim == 2:
            metrics.append("area")
    reports = []
    for seed in range(config.seed, config.seed + n_runs):
        model, _ = fit(ds.x, replace(config, seed=seed))
        values = evaluate_embedding(
            ds.x, embed(model), labels=ds.labels, metrics=tuple(metrics), rng=make_rng(seed)
        )
        reports.append(EvalReport(seed, values))
    return SuiteResult(reports)
