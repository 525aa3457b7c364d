"""Quantitative instruments: rank/linear correlation, a rank-sum significance
test, structure-preservation scores, k-NN classification, clustering, and
external cluster-validity indices.

Tie handling uses average (fractional) ranks throughout. The rank-sum test
p-value is a two-sided normal approximation with tie-corrected variance and
continuity correction; it is meant for sample sizes around ten and above.
Below that it can be far from the exact permutation p-value, most of all
under ties: [0, 0, 2] against [0, 0, 0] gives 0.505 where exact enumeration
gives 1.0. Exact small-sample p-values are ROADMAP item 11.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .numerics import (
    Rng,
    as_class_ids,
    as_count,
    as_labeling,
    as_matrix,
    as_paired,
    as_vector,
    dense_ids,
    distances,
    pair_distances,
    pairwise_euclidean,
    sq_distances,
    unit_scaled,
)

DEFAULT_PAIR_BUDGET = 2_000_000
# Share of each class that knn_evaluate's stratified split sends to train.
KNN_SPLIT = 0.8


def _tie_ranks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average-tie ranks (1-based) of vector ``a`` and the size of each group
    of tied values, in ascending value order."""
    order = np.argsort(a)  # ranks of tied values do not depend on their order
    group = np.cumsum(np.r_[0, np.diff(a[order]) != 0])
    counts = np.bincount(group)
    avg = np.cumsum(counts) - (counts - 1) / 2.0  # mean of ranks end-count+1 .. end
    ranks = np.empty(len(a))
    ranks[order] = avg[group]
    return ranks, counts


def rank_average(a) -> np.ndarray:
    """Average-tie (fractional) ranks, 1-based."""
    return _tie_ranks(as_vector(a, "a"))[0]


def pearson_r(a, b) -> float:
    """Pearson correlation coefficient of the inputs at unit scale
    (``unit_scaled``), where no mean or sum of squares overflows or underflows."""
    a, b = as_vector(a, "a"), as_vector(b, "b")
    if len(a) != len(b) or len(a) < 2:
        raise InvalidInputError("inputs must have equal length >= 2")
    a, b = unit_scaled(a)[0], unit_scaled(b)[0]
    ac = a - a.mean()
    bc = b - b.mean()
    sa = float(np.dot(ac, ac))
    sb = float(np.dot(bc, bc))
    if sa == 0.0 or sb == 0.0:
        raise DegenerateInputError("zero variance input to correlation")
    return float(np.dot(ac, bc) / math.sqrt(sa * sb))


def spearman_rho(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of average-tie ranks."""
    a, b = as_vector(a, "a"), as_vector(b, "b")
    return pearson_r(rank_average(a), rank_average(b))


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Rank-sum U statistic for ``a`` (ties counted half) and a two-sided
    p-value from the tie-corrected normal approximation with continuity
    correction. Swapping the samples maps U to n1*n2 - U, p unchanged."""
    a, b = as_vector(a, "a"), as_vector(b, "b")
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise InvalidInputError("both samples must be nonempty")
    ranks, tie_counts = _tie_ranks(np.concatenate([a, b]))
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    tie_term = float((tie_counts**3 - tie_counts).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0.0:
        return u1, 1.0  # all observations tied
    z = (u1 - mu - 0.5 * np.sign(u1 - mu)) / math.sqrt(var)
    return u1, min(1.0, 2.0 * _norm_sf(abs(z)))


def distance_preservation(
    x_high,
    x_low,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    rng: Rng | None = None,
) -> float:
    """Spearman correlation between pairwise distances in two row-aligned
    spaces, computed over the same pair set: all n(n-1)/2 pairs when the
    integer ``pair_budget`` reaches that total, else ``pair_budget`` pairs
    drawn with ``rng``."""
    x_high, x_low = as_paired(x_high, x_low)
    pair_budget = as_count(pair_budget, "pair_budget", 1)
    ii, jj, d_high = pairwise_euclidean(x_high, pair_budget, rng)
    d_low = pair_distances(x_low, ii, jj)
    return spearman_rho(d_high, d_low)


def _class_rows(labels: np.ndarray) -> list[np.ndarray]:
    """The rows of each class of dense ids, in id order and ascending within
    each class."""
    by_class = np.argsort(labels, kind="stable")
    return np.split(by_class, np.cumsum(np.bincount(labels))[:-1])


def _paired_classes(x_high, x_low, labels):
    """Two row-aligned spaces, each at its unit scale (``unit_scaled``), and
    the rows of each of their >= 3 classes."""
    x_high, x_low = as_paired(x_high, x_low)
    labels, n_classes = as_class_ids(labels, x_high.shape[0])
    if n_classes < 3:
        raise InvalidInputError(f"need >= 3 classes, got {n_classes}")
    return unit_scaled(x_high)[0], unit_scaled(x_low)[0], _class_rows(labels)


def centroid_distance_preservation(x_high, x_low, labels) -> float:
    """Spearman correlation between pairwise distances of per-class centroids
    in the two spaces. Needs >= 3 classes for a meaningful rank correlation.

    Taken at each space's unit scale, which keeps the ranks, so a table near
    1e308 scores as at 1; a value over 2**1022 below its table's largest
    loses precision there."""
    x_high, x_low, rows = _paired_classes(x_high, x_low, labels)
    d_high, d_low = (
        pairwise_euclidean(np.array([x[r].mean(axis=0) for r in rows]))[2]
        for x in (x_high, x_low)
    )
    return spearman_rho(d_high, d_low)


def cluster_area_preservation(x_high, x_low, labels) -> float:
    """Pearson correlation between per-class axis-aligned bounding-rectangle
    areas in two 2-D spaces. Singleton classes contribute area 0.

    Taken at each space's unit scale, which keeps the correlation, so a
    table near 1e308 scores as at 1; an area below 2**-1074 times the square
    of its table's largest value reads 0 there."""
    x_high, x_low, rows = _paired_classes(x_high, x_low, labels)
    if x_high.shape[1] != 2 or x_low.shape[1] != 2:
        raise InvalidInputError("both spaces must be 2-D")
    a_high, a_low = ([np.ptp(x[r], axis=0).prod() for r in rows] for x in (x_high, x_low))
    return pearson_r(a_high, a_low)


def _stratified_split(labels: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Class by class in id order: shuffle the class's rows with ``rng`` and
    send round(KNN_SPLIT * size) of them, at least one, to train, the rest
    to test."""
    train_parts, test_parts = [], []
    for idx in _class_rows(labels):
        idx = idx[rng.permutation(len(idx))]
        n_train = max(int(round(KNN_SPLIT * len(idx))), 1)
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
    *,
    rng: Rng,
) -> tuple[float, float]:
    """Seeded stratified split (``KNN_SPLIT`` of each class to train) then
    k-nearest-neighbour classification.

    Neighbours are ordered by (distance, original row index); vote ties go to
    the tied class whose representative appears earliest in that order.
    Returns (accuracy, macro-averaged F1); per-class F1 with empty
    numerator/denominator counts as 0. Distances come from
    ``numerics.distances``, which keeps small ones at any scale.
    """
    x = as_matrix(embedding, "embedding")
    labels, n_classes = as_class_ids(labels, x.shape[0])
    train, test = _stratified_split(labels, rng)
    k = as_count(k, "k", 1, len(train))
    preds = np.empty(len(test), dtype=np.int64)
    dists = distances(x[test], x[train])
    train_labels = labels[train]
    for t in range(len(test)):
        # train is sorted, so a stable sort orders by (distance, row index)
        nearest = train_labels[np.argsort(dists[t], kind="stable")[:k]]
        votes = np.bincount(nearest, minlength=n_classes)
        preds[t] = nearest[np.argmax(votes[nearest] == votes.max())]
    truth = labels[test]
    accuracy = float((preds == truth).mean())
    hits = np.bincount(truth[preds == truth], minlength=n_classes)  # tp per class
    counts = np.bincount(np.r_[preds, truth], minlength=n_classes)  # 2tp + fp + fn
    f1 = np.divide(2 * hits, counts, out=np.zeros(n_classes), where=hits > 0)
    return accuracy, float(np.mean(f1))


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
    x: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, float, list[float]]:
    k = len(centers)
    centers = centers.copy()
    labels = np.full(x.shape[0], -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(300):
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
            return labels, history[-1], history
        labels = new_labels
        for c in range(k):
            members = x[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    d2 = sq_distances(x, centers)  # the centres moved after the last assignment
    return labels, float(d2[np.arange(len(x)), labels].sum()), history


def kmeans(x, k: int, rng: Rng) -> np.ndarray:
    """K-means labels of ``x`` at unit scale (``unit_scaled``): ++-style
    seeding, Lloyd iterations to an assignment fixpoint (or 300 iterations),
    best inertia over 10 restarts (first restart wins ties). When ``x`` has
    fewer than k distinct rows, some centres coincide and fewer than k
    clusters come back.

    Squared distances are compared at that one scale, so a table whose
    values span more than about 2**537 loses its smallest squares to
    underflow there (``numerics.distances`` keeps them; k-means does not)."""
    x = unit_scaled(as_matrix(x, "x"))[0]
    k = as_count(k, "k", 1, x.shape[0])
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
    either way by rounding (see the README's "Statistics notes"). Distances
    come from ``numerics.distances``, which keeps small ones at any scale.

    Each row caches its nearest column (the first one at its minimum), so a
    merge rescans only row i and the rows whose cached column was i or j:
    typically O(n^2) time in all, O(n^3) at worst, when most rows' nearest
    cluster takes part in each merge (Muellner, arXiv:1109.2378, sec. 3).
    The merges are those of a full-matrix argmin at every step.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    k = as_count(k, "k", 1, n)
    # a Lance-Williams sum is within the matrix total, which stays finite
    dist = distances(x, x)
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    owner = np.arange(n)  # cluster root of each point; roots are min members
    near = dist.argmin(axis=1)  # first column at each row's minimum
    near_dist = dist[np.arange(n), near]
    for _ in range(n - k):
        # the first row at the overall minimum, then its first column: the
        # first minimum of the whole matrix in row-major order, so i < j
        i = int(near_dist.argmin())
        j = int(near[i])
        # average linkage via the Lance-Williams update; inf entries stay inf
        merged = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        dist[i] = merged
        dist[:, i] = merged
        dist[j] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        owner[owner == j] = i
        # column i is now nearer, or as near and earlier, for some rows
        closer = (merged < near_dist) | ((merged == near_dist) & (near > i))
        near[closer] = i
        near_dist[closer] = merged[closer]
        # row i, and the rows whose nearest column was i and moved away or
        # was j, rescan
        stale = np.append(np.flatnonzero(((near == i) & ~closer) | (near == j)), i)
        near[stale] = dist[stale].argmin(axis=1)
        near_dist[stale] = dist[stale, near[stale]]
        near[j], near_dist[j] = -1, np.inf  # dead: never nearer, never stale
    return dense_ids(owner)


def _pair_counts(labels_true, labels_pred) -> tuple[int, int, int, int]:
    """Row pairs in one cluster under both labelings, under the first, under
    the second, and all row pairs, from the contingency table."""
    ti = as_labeling(labels_true)
    pi = as_labeling(labels_pred)
    if ti.shape != pi.shape:
        raise InvalidInputError("labelings must have equal length")
    rows, cols = ti.max() + 1, pi.max() + 1
    table = np.bincount(ti * cols + pi, minlength=rows * cols).reshape(rows, cols)
    sizes = (table, table.sum(axis=1), table.sum(axis=0), np.int64(len(ti)))
    return tuple(int((c * (c - 1) // 2).sum()) for c in sizes)


def ari(labels_true, labels_pred) -> float:
    """Adjusted Rand index from pair counts of the contingency table.

    A degenerate pair of partitions (both one cluster, or both all
    singletons) scores 1.0 by convention.
    """
    sum_cells, sum_rows, sum_cols, total = _pair_counts(labels_true, labels_pred)
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
    tp, rows, cols, _ = _pair_counts(labels_true, labels_pred)
    if rows == 0 or cols == 0:
        return 0.0
    return float(tp / math.sqrt(rows * cols))
