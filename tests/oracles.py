"""Brute-force reference implementations the tests compare against:
counting ranks, textbook Pearson, exact rank-sum enumeration, pair-by-pair
agreement counts, direct average linkage, the full-scan Lance-Williams loop
and the training step's row-major gradient formulas. Each is written for
clarity, not for speed."""

import itertools
import math

import numpy as np

from neurodavis.numerics import distances


def oracle_ranks(a):
    """Counting-based average ranks: 1 + #smaller + (#ties - 1)/2."""
    a = list(map(float, a))
    out = []
    for v in a:
        smaller = sum(1 for u in a if u < v)
        ties = sum(1 for u in a if u == v)
        out.append(1 + smaller + (ties - 1) / 2)
    return out


def oracle_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def oracle_spearman(a, b):
    return oracle_pearson(oracle_ranks(a), oracle_ranks(b))


def oracle_mwu_exact(a, b):
    """Exact two-sided p: enumerate every way the combined values could be
    split between the groups, and count |U - mu| at least as extreme."""
    a, b = list(a), list(b)
    combined = a + b
    n1 = len(a)
    mu = n1 * len(b) / 2

    def u_stat(first):
        u = 0.0
        second = combined.copy()
        for v in first:
            second.remove(v)
        for x in first:
            for y in second:
                u += 1.0 if x > y else (0.5 if x == y else 0.0)
        return u

    observed = abs(u_stat(a) - mu)
    hits = total = 0
    for positions in itertools.combinations(range(len(combined)), n1):
        first = [combined[p] for p in positions]
        total += 1
        if abs(u_stat(first) - mu) >= observed - 1e-12:
            hits += 1
    return hits / total


def oracle_pair_counts(lt, lp):
    """Pair-by-pair agreement counts between two labelings."""
    n = len(lt)
    tp = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_t = lt[i] == lt[j]
            same_p = lp[i] == lp[j]
            tp += same_t and same_p
            fp += (not same_t) and same_p
            fn += same_t and not same_p
    return tp, fp, fn


def oracle_ari(lt, lp):
    tp, fp, fn = oracle_pair_counts(lt, lp)
    n = len(lt)
    total = n * (n - 1) // 2
    sum_rows = tp + fn
    sum_cols = tp + fp
    expected = sum_rows * sum_cols / total
    maximum = (sum_rows + sum_cols) / 2
    if maximum == expected:
        return 1.0
    return (tp - expected) / (maximum - expected)


def oracle_fmi(lt, lp):
    tp, fp, fn = oracle_pair_counts(lt, lp)
    if tp + fp == 0 or tp + fn == 0:
        return 0.0
    return tp / math.sqrt((tp + fp) * (tp + fn))


def oracle_average_linkage(x, k, dist=lambda p, q: np.linalg.norm(p - q)):
    """Direct average-linkage clustering: cluster-pair distances recomputed
    from raw point distances ``dist(x[i], x[j])`` at every step (no
    recurrence); ties merge the smallest pair of cluster roots (a cluster's
    root is its minimum member).
    """
    x = np.asarray(x, dtype=float)
    clusters = [[i] for i in range(len(x))]
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = np.mean(
                    [
                        dist(x[i], x[j])
                        for i in clusters[a]
                        for j in clusters[b]
                    ]
                )
                roots = sorted((min(clusters[a]), min(clusters[b])))
                cand = (d, roots[0], roots[1])
                if best is None or cand < best[0]:
                    best = (cand, a, b)
        _, a, b = best
        merged = sorted(clusters[a] + clusters[b])
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)]
        clusters.append(merged)
    labels = np.empty(len(x), dtype=int)
    for cid, members in enumerate(sorted(clusters, key=min)):
        labels[members] = cid
    return labels


def oracle_full_scan_linkage(x, k):
    """Average linkage by the Lance-Williams recurrence on
    ``numerics.distances``, taking the first minimum of the whole matrix in
    row-major order at every step (O(n^3)): the merges ``agglomerative``
    must reproduce byte for byte, whatever it caches."""
    dist = distances(x, x)
    n = len(dist)
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    owner = np.arange(n)
    for _ in range(n - k):
        i, j = divmod(int(np.argmin(dist)), n)  # first minimum: i < j
        merged = (sizes[i] * dist[i] + sizes[j] * dist[j]) / (sizes[i] + sizes[j])
        dist[i] = merged
        dist[:, i] = merged
        dist[j] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        owner[owner == j] = i
    return np.unique(owner, return_inverse=True)[1]


def oracle_scaled_unit_rows(h, c):
    """c * h / ||h|| per row, +0.0 where the norm is not positive."""
    norms = np.sqrt(np.vecdot(h, h))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norms > 0, h * (c / norms), 0.0)


def oracle_row_major_gradients(model, idx, x_batch, cfg):
    """The training step's gradients by the row-major formulas it used
    before its feature-major block (one row per sample, each bias added on
    its own and its gradient summed by a ones-vector product), one fresh
    array per operation, for a batch of distinct indices."""
    *hidden, recon_layer = model.layers
    latent = model.latent_table[idx]
    pre, act = [], [latent]
    for layer in hidden:
        pre.append(act[-1] @ layer.w + layer.b)
        act.append(np.maximum(pre[-1], 0.0))
    recon = act[-1] @ recon_layer.w + recon_layer.b
    grads = np.zeros_like(model.theta)
    views = model.views(grads)
    d_out = (2.0 / len(idx)) * (recon - x_batch)
    views["recon.w"][...] = act[-1].T @ d_out
    views["recon.b"][...] = np.ones(len(idx)) @ d_out
    d_h = d_out @ recon_layer.w.T
    for li in reversed(range(len(hidden))):
        layer = hidden[li]
        if cfg.alpha:
            d_h = d_h + oracle_scaled_unit_rows(act[li + 1], cfg.alpha)
        d_a = d_h * (pre[li] > 0.0)
        views[f"hidden{li}.w"][...] = act[li].T @ d_a
        if cfg.beta:
            fro = float(np.linalg.norm(layer.w))
            if fro > 0:
                views[f"hidden{li}.w"] += layer.w * (cfg.beta / fro)
        views[f"hidden{li}.b"][...] = np.ones(len(idx)) @ d_a
        d_h = d_a @ layer.w.T
    if cfg.alpha:
        d_h = d_h + oracle_scaled_unit_rows(latent, cfg.alpha)
    if cfg.beta:
        fro = float(np.linalg.norm(latent))
        if fro > 0:
            d_h = d_h + latent * (cfg.beta / fro)
    views["latent_table"][idx] = d_h
    return grads
