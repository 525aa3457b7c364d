"""Brute-force reference implementations the metric tests compare against:
counting ranks, textbook Pearson, exact rank-sum enumeration, pair-by-pair
agreement counts and direct average linkage. Each is written for clarity on
inputs of a few dozen values, not for speed."""

import itertools
import math

import numpy as np


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


def oracle_average_linkage(x, k):
    """Direct average-linkage clustering: cluster-pair distances recomputed
    from raw point distances at every step (no recurrence); ties merge the
    smallest pair of cluster roots (a cluster's root is its minimum member).
    """
    x = np.asarray(x, dtype=float)
    clusters = [[i] for i in range(len(x))]
    while len(clusters) > k:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = np.mean(
                    [
                        np.linalg.norm(x[i] - x[j])
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
