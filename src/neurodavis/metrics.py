"""Quantitative instruments: rank/linear correlation, a rank-sum significance
test, structure-preservation scores, k-NN classification, clustering, and
external cluster-validity indices.

Tie handling uses average (fractional) ranks throughout. The rank-sum test
p-value is a two-sided normal approximation with tie-corrected variance and
continuity correction; it is meant for sample sizes around ten and above.
For tiny samples (n1 + n2 <= 8) the absolute error against exact enumeration
stays below 0.15 on the committed fixtures, measured against the
exact-enumeration oracle kept in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .numerics import (
    Rng,
    as_class_ids,
    as_matrix,
    make_rng,
    pair_distances,
    pairwise_euclidean,
    sq_distances,
)

DEFAULT_PAIR_BUDGET = 2_000_000


@dataclass
class EvalReport:
    """Named metric values plus provenance for one evaluation."""

    dataset: str
    seed: int
    config_hash: str
    metrics: dict[str, float] = field(default_factory=dict)


def _as_vector(a, name: str) -> np.ndarray:
    v = np.asarray(a, dtype=np.float64).ravel()
    if v.size and not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return v


def rank_average(a) -> np.ndarray:
    """Average-tie (fractional) ranks, 1-based."""
    a = _as_vector(a, "a")
    order = np.argsort(a)  # ranks of tied values do not depend on their order
    sorted_a = a[order]
    group = np.cumsum(np.r_[0, np.diff(sorted_a) != 0])
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    avg = ends - (counts - 1) / 2.0  # mean of ranks end-count+1 .. end
    ranks = np.empty(len(a))
    ranks[order] = avg[group]
    return ranks


def _pearson_from(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.dot(xc, xc))
    sy = float(np.dot(yc, yc))
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInputError("zero variance input to correlation")
    return float(np.dot(xc, yc) / math.sqrt(sx * sy))


def pearson_r(a, b) -> float:
    """Pearson correlation coefficient."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if len(a) != len(b) or len(a) < 2:
        raise InvalidInputError("inputs must have equal length >= 2")
    return _pearson_from(a, b)


def spearman_rho(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if len(a) != len(b) or len(a) < 2:
        raise InvalidInputError("inputs must have equal length >= 2")
    return _pearson_from(rank_average(a), rank_average(b))


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Rank-sum U statistic for ``a`` (ties counted half) and a two-sided
    p-value from the tie-corrected normal approximation with continuity
    correction. Swapping the samples maps U to n1*n2 - U, p unchanged."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise InvalidInputError("both samples must be nonempty")
    ranks = rank_average(np.concatenate([a, b]))
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    _, tie_counts = np.unique(np.concatenate([a, b]), return_counts=True)
    tie_term = float((tie_counts**3 - tie_counts).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return u1, 1.0  # all observations tied
    z = (u1 - mu - 0.5 * np.sign(u1 - mu)) / math.sqrt(var)
    return u1, min(1.0, 2.0 * _norm_sf(abs(z)))


def distance_preservation(
    x_high,
    x_low,
    pair_budget: int | None = DEFAULT_PAIR_BUDGET,
    rng: Rng | None = None,
) -> float:
    """Spearman correlation between pairwise distances in two row-aligned
    spaces, computed over the same (possibly budget-sampled) pair set."""
    x_high = as_matrix(x_high, "x_high")
    x_low = as_matrix(x_low, "x_low")
    if x_high.shape[0] != x_low.shape[0]:
        raise InvalidInputError(
            f"row counts differ: {x_high.shape[0]} vs {x_low.shape[0]}"
        )
    n = x_high.shape[0]
    total = n * (n - 1) // 2
    budget = None if pair_budget is None else min(pair_budget, total)
    if budget is not None and budget < total and rng is None:
        rng = make_rng(0)
    ii, jj, d_high = pairwise_euclidean(x_high, budget, rng)
    d_low = pair_distances(x_low, ii, jj)
    return spearman_rho(d_high, d_low)


def _centroids(x: np.ndarray, labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.empty((n_classes, x.shape[1]))
    for c in range(n_classes):
        out[c] = x[labels == c].mean(axis=0)
    return out


def centroid_distance_preservation(x_high, x_low, labels) -> float:
    """Spearman correlation between pairwise distances of per-class centroids
    in the two spaces. Needs >= 3 classes for a meaningful rank correlation."""
    x_high = as_matrix(x_high, "x_high")
    x_low = as_matrix(x_low, "x_low")
    if x_high.shape[0] != x_low.shape[0]:
        raise InvalidInputError("row counts differ")
    labels, n_classes = as_class_ids(labels, x_high.shape[0])
    if n_classes < 3:
        raise InvalidInputError(f"need >= 3 classes, got {n_classes}")
    c_high = _centroids(x_high, labels, n_classes)
    c_low = _centroids(x_low, labels, n_classes)
    _, _, d_high = pairwise_euclidean(c_high)
    _, _, d_low = pairwise_euclidean(c_low)
    return spearman_rho(d_high, d_low)


def cluster_area_preservation(x_high, x_low, labels) -> float:
    """Pearson correlation between per-class axis-aligned bounding-rectangle
    areas in two 2-D spaces. Singleton classes contribute area 0."""
    x_high = as_matrix(x_high, "x_high")
    x_low = as_matrix(x_low, "x_low")
    if x_high.shape[1] != 2 or x_low.shape[1] != 2:
        raise InvalidInputError("both spaces must be 2-D")
    if x_high.shape[0] != x_low.shape[0]:
        raise InvalidInputError("row counts differ")
    labels, n_classes = as_class_ids(labels, x_high.shape[0])
    if n_classes < 3:
        raise InvalidInputError(f"need >= 3 classes, got {n_classes}")

    def areas(x):
        out = np.empty(n_classes)
        for c in range(n_classes):
            pts = x[labels == c]
            ext = pts.max(axis=0) - pts.min(axis=0)
            out[c] = ext[0] * ext[1]
        return out

    return pearson_r(areas(x_high), areas(x_low))


def _stratified_split(
    labels: np.ndarray, split: float, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Class by class in id order: shuffle the class's rows with ``rng`` and
    send round(split * size) of them, at least one, to train, the rest to
    test."""
    train_parts, test_parts = [], []
    # a stable sort groups the rows by class, ascending within each class
    by_class = np.argsort(labels, kind="stable")
    for idx in np.split(by_class, np.cumsum(np.bincount(labels))[:-1]):
        idx = idx[rng.permutation(len(idx))]
        n_train = max(int(round(split * len(idx))), 1)
        train_parts.append(idx[:n_train])
        test_parts.append(idx[n_train:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    if len(test) == 0:
        raise InvalidInputError("split leaves no test points")
    return train, test


def knn_evaluate(
    embedding,
    labels,
    k: int = 5,
    split: float = 0.8,
    rng: Rng | None = None,
) -> tuple[float, float]:
    """Seeded stratified split then k-nearest-neighbour classification.

    Neighbours are ordered by (distance, original row index); vote ties go to
    the tied class whose representative appears earliest in that order.
    Returns (accuracy, macro-averaged F1); per-class F1 with empty
    numerator/denominator counts as 0.
    """
    x = as_matrix(embedding, "embedding")
    labels, n_classes = as_class_ids(labels, x.shape[0])
    if not 0.0 < split < 1.0:
        raise InvalidInputError(f"split must be in (0, 1), got {split}")
    if rng is None:
        rng = make_rng(0)
    train, test = _stratified_split(labels, split, rng)
    if not 1 <= k <= len(train):
        raise InvalidInputError(f"k must be in [1, {len(train)}], got {k}")
    preds = np.empty(len(test), dtype=np.int64)
    dists = np.sqrt(sq_distances(x[test], x[train]))
    for t in range(len(test)):
        # train is sorted, so a stable sort orders by (distance, row index)
        nearest = labels[train[np.argsort(dists[t], kind="stable")[:k]]]
        votes = np.bincount(nearest, minlength=n_classes)
        preds[t] = nearest[np.argmax(votes[nearest] == votes.max())]
    truth = labels[test]
    accuracy = float((preds == truth).mean())
    f1s = []
    for c in range(n_classes):
        tp = int(((preds == c) & (truth == c)).sum())
        fp = int(((preds == c) & (truth != c)).sum())
        fn = int(((preds != c) & (truth == c)).sum())
        f1s.append(0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn))
    return accuracy, float(np.mean(f1s))


def _kmeanspp_init(x: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = sq_distances(x, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))  # all points already covered
        centers[c] = x[pick]
        d2 = np.minimum(d2, sq_distances(x, centers[c : c + 1])[:, 0])
    return centers


def _lloyd(
    x: np.ndarray, centers: np.ndarray, max_iter: int = 300
) -> tuple[np.ndarray, float, list[float]]:
    k = len(centers)
    centers = centers.copy()
    labels = np.full(x.shape[0], -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iter):
        d2 = sq_distances(x, centers)
        new_labels = d2.argmin(axis=1)
        # empty clusters: re-seed at the point farthest from its centroid
        counts = np.bincount(new_labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            assigned = d2[np.arange(len(x)), new_labels]
            centers[empty] = x[np.argsort(assigned)[::-1][: empty.size]]
            d2 = sq_distances(x, centers)
            new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(len(x)), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = x[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    d2 = sq_distances(x, centers)
    inertia = float(d2[np.arange(len(x)), labels].sum())
    return labels, inertia, history


def kmeans(x, k: int, rng: Rng | None = None) -> np.ndarray:
    """K-means labels: ++-style seeding, Lloyd iterations to an assignment
    fixpoint (or 300 iterations), best inertia over 10 restarts (first
    restart wins ties)."""
    x = as_matrix(x, "x")
    if not 1 <= k <= x.shape[0]:
        raise InvalidInputError(f"k must be in [1, {x.shape[0]}], got {k}")
    if rng is None:
        rng = make_rng(0)
    best_labels, best_inertia = None, math.inf
    for _ in range(10):
        centers = _kmeanspp_init(x, k, rng)
        labels, inertia, _ = _lloyd(x, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def agglomerative(x, k: int) -> np.ndarray:
    """Bottom-up average-linkage clustering on Euclidean distances until k
    clusters remain. Deterministic: merge ties go to the smallest (i, j)
    pair; final cluster ids are assigned by ascending smallest member index.
    The smallest-pair rule applies to the computed (Lance-Williams) linkage
    values: a tie that earlier merges create in exact arithmetic can go
    either way by rounding (see the README's "Statistics notes").
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be in [1, {n}], got {k}")
    dist = sq_distances(x, x)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    owner = np.arange(n)  # cluster root of each point; roots are min members
    for _ in range(n - k):
        i, j = divmod(int(np.argmin(dist)), n)  # first minimum: i < j
        # average linkage via the Lance-Williams update; inf entries stay inf
        merged = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        dist[i] = merged
        dist[:, i] = merged
        dist[j] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        owner[owner == j] = i
    return np.unique(owner, return_inverse=True)[1]


def _comb2(x: np.ndarray) -> np.ndarray:
    return x * (x - 1) // 2


def _cluster_index(labels) -> np.ndarray:
    """Dense 0-based index of each id in a nonempty labeling of finite
    integers (any values, not necessarily dense)."""
    a = np.asarray(labels).ravel()
    if a.size == 0 or a.dtype.kind not in "biuf":
        raise InvalidInputError("labelings must be nonempty and numeric")
    if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.floor(a))):
        raise InvalidInputError("labelings must be finite integers")
    return np.unique(a, return_inverse=True)[1]


def _contingency(labels_true, labels_pred) -> tuple[np.ndarray, int]:
    ti = _cluster_index(labels_true)
    pi = _cluster_index(labels_pred)
    if ti.shape != pi.shape:
        raise InvalidInputError("labelings must have equal length")
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table, len(ti)


def ari(labels_true, labels_pred) -> float:
    """Adjusted Rand index from pair counts of the contingency table.

    A degenerate pair of partitions (both one cluster, or both all
    singletons) scores 1.0 by convention.
    """
    table, n = _contingency(labels_true, labels_pred)
    sum_cells = int(_comb2(table).sum())
    sum_rows = int(_comb2(table.sum(axis=1)).sum())
    sum_cols = int(_comb2(table.sum(axis=0)).sum())
    total = int(_comb2(np.int64(n)))
    if total == 0:
        return 1.0
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2.0
    if maximum == expected:
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def fmi(labels_true, labels_pred) -> float:
    """Fowlkes-Mallows index TP / sqrt((TP+FP)(TP+FN)) from pair counts;
    0.0 when either factor has no pairs."""
    table, _ = _contingency(labels_true, labels_pred)
    tp = int(_comb2(table).sum())
    rows = int(_comb2(table.sum(axis=1)).sum())
    cols = int(_comb2(table.sum(axis=0)).sum())
    if rows == 0 or cols == 0:
        return 0.0
    return float(tp / math.sqrt(rows * cols))
