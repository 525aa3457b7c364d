import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodavis.errors import DegenerateInputError, InvalidInputError
from neurodavis.metrics import (
    _kmeanspp_init,
    _lloyd,
    _stratified_split,
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
    rank_average,
    spearman_rho,
)
from neurodavis.datasets import gen_synthetic
from neurodavis.numerics import make_rng
from oracles import (
    oracle_ari,
    oracle_average_linkage,
    oracle_full_scan_linkage,
    oracle_fmi,
    oracle_mwu_exact,
    oracle_pearson,
    oracle_ranks,
    oracle_spearman,
)


# ---------------------------------------------------------------- oracles


def oracle_knn_scores(x, labels, k, rng):
    """Brute-force k-NN on the split ``knn_evaluate`` draws: neighbours sorted
    in Python by (squared distance, row index), exact on integer data; a vote
    tie goes to the tied class that appears first in that order."""
    train, test = _stratified_split(labels, rng)
    preds = []
    for t in test:
        order = sorted(
            train, key=lambda r: (sum((a - b) ** 2 for a, b in zip(x[t], x[r])), r)
        )
        votes = [labels[r] for r in order[:k]]
        top = max(votes.count(c) for c in votes)
        preds.append(next(c for c in votes if votes.count(c) == top))
    truth = labels[test].tolist()
    accuracy = sum(p == y for p, y in zip(preds, truth)) / len(truth)
    f1s = []
    for c in range(int(labels.max()) + 1):
        tp = sum(p == c and y == c for p, y in zip(preds, truth))
        wrong = sum((p == c) != (y == c) for p, y in zip(preds, truth))
        f1s.append(0.0 if tp == 0 else 2 * tp / (2 * tp + wrong))
    return accuracy, float(np.mean(f1s))


# ---------------------------------------------------------------- tests


class TestRanksAndCorrelation:
    def test_rank_average_matches_oracle(self):
        for seed in range(5):
            a = make_rng(seed).integers(0, 5, size=12).astype(float)
            np.testing.assert_allclose(rank_average(a), oracle_ranks(a))
        # tie-heavy: mean ordinal rank of each value under a stable sort
        a = make_rng(5).integers(0, 100, size=100_000).astype(float)
        ordinal = np.empty(len(a))
        ordinal[np.argsort(a, kind="stable")] = np.arange(1, len(a) + 1)
        _, group = np.unique(a, return_inverse=True)
        mean_rank = np.bincount(group, weights=ordinal) / np.bincount(group)
        np.testing.assert_array_equal(rank_average(a), mean_rank[group])

    def test_spearman_identity(self):
        a = [3.0, 1.0, 4.0, 1.5]
        assert spearman_rho(a, a) == pytest.approx(1.0)

    def test_spearman_reversed(self):
        a = [1.0, 2.0, 5.0, 9.0]
        assert spearman_rho(a, a[::-1]) == pytest.approx(-1.0)

    def test_spearman_matches_scipy_on_tie_heavy_draws(self):
        stats = pytest.importorskip("scipy.stats")
        for seed in range(100):
            rng = make_rng(seed)
            m = int(rng.integers(2, 60))
            a = rng.integers(0, int(rng.integers(2, 8)), m).astype(float)
            b = rng.integers(0, 4, m).astype(float)
            if np.ptp(a) == 0 or np.ptp(b) == 0:
                continue  # constant input: no correlation is defined
            ref = stats.spearmanr(a, b).statistic
            assert spearman_rho(a, b) == pytest.approx(ref, abs=1e-15), seed

    def test_spearman_ties_vs_oracle(self):
        a = (1.0, 2.0, 2.0, 4.0)
        b = (10.0, 20.0, 30.0, 40.0)
        assert spearman_rho(a, b) == pytest.approx(oracle_spearman(a, b), abs=1e-12)

    def test_spearman_random_vs_oracle(self):
        rng = make_rng(9)
        for _ in range(10):
            a = rng.integers(0, 6, size=8).astype(float)
            b = rng.integers(0, 6, size=8).astype(float)
            try:
                expected = oracle_spearman(a, b)
            except ZeroDivisionError:
                continue
            assert spearman_rho(a, b) == pytest.approx(expected, abs=1e-12)

    def test_spearman_degenerate(self):
        with pytest.raises(DegenerateInputError):
            spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=20),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_spearman_symmetric_and_bounded(self, a, seed):
        b = make_rng(seed).uniform(-10, 10, len(a)).tolist()
        if len(set(a)) < 2:
            return
        r1 = spearman_rho(a, b)
        r2 = spearman_rho(b, a)
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert -1.0 - 1e-12 <= r1 <= 1.0 + 1e-12

    def test_pearson_trivials(self):
        a = [1.0, 2.0, 4.0]
        assert pearson_r(a, a) == pytest.approx(1.0)
        assert pearson_r(a, [-v for v in a]) == pytest.approx(-1.0)

    def test_pearson_vs_oracle(self):
        a = [0.5, 2.0, -1.0, 3.5, 0.0]
        b = [1.0, 1.5, -0.5, 2.0, 0.25]
        assert pearson_r(a, b) == pytest.approx(oracle_pearson(a, b), abs=1e-14)

    def test_pearson_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson_r([2.0, 2.0], [1.0, 3.0])

    @pytest.mark.parametrize("k", [-600, 600])
    def test_pearson_bits_unchanged_by_a_power_of_two_scale(self, k):
        # unscaled, the sums of squares of a * 2**600 overflow and those of
        # a * 2**-600 underflow to zero
        rng = make_rng(3)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        assert pearson_r(a * 2.0**k, b) == pearson_r(a, b)

    def test_pearson_far_from_unit_scale(self):
        want = pearson_r([1, 2, 3], [1, 2, 4])
        assert pearson_r([1e100, 2e100, 3e100], [1e100, 2e100, 4e100]) == pytest.approx(want)
        assert pearson_r([1e-170, 2e-170, 3e-170], [1, 2, 4]) == pytest.approx(want)
        # the sum behind the mean of these overflows unless they are scaled first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pearson_r([1e308, 1.5e308, 1.7e308], [1, 2, 4])
        assert got == pytest.approx(pearson_r([1, 1.5, 1.7], [1, 2, 4]))

    @pytest.mark.parametrize("fn", [pearson_r, spearman_rho])
    @pytest.mark.parametrize(
        "a,b",
        [([1.0, 2.0, 3.0], [1.0, 2.0]), ([1.0], [2.0]), ([], [])],
        ids=["unequal", "one", "empty"],
    )
    def test_unequal_or_short_inputs_rejected(self, fn, a, b):
        with pytest.raises(InvalidInputError, match="equal length >= 2"):
            fn(a, b)

    @pytest.mark.parametrize("fn", [pearson_r, spearman_rho, mann_whitney_u])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, fn, bad):
        with pytest.raises(InvalidInputError, match="^b contains non-finite values"):
            fn([1.0, 2.0, 3.0], [1.0, bad, 3.0])


class TestMannWhitney:
    def test_identical_samples_p_one(self):
        a = [1.0, 2.0, 3.0, 4.0]
        u, p = mann_whitney_u(a, list(a))
        assert u == pytest.approx(len(a) ** 2 / 2)
        assert p == 1.0

    def test_fully_separated(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert u == 0.0
        exact = oracle_mwu_exact([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert exact == pytest.approx(0.1)  # 2 of C(6,3)=20 splits as extreme
        assert abs(p - exact) < 0.15  # holds on this untied fixture, not in general

    def test_swap_symmetry(self):
        a = [1.0, 5.0, 2.5, 7.0]
        b = [2.0, 2.5, 9.0]
        u1, p1 = mann_whitney_u(a, b)
        u2, p2 = mann_whitney_u(b, a)
        assert u1 + u2 == pytest.approx(len(a) * len(b))
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_normal_approximation_close_to_exact_small_n(self):
        rng = make_rng(17)
        for _ in range(8):
            a = rng.integers(0, 10, size=4).astype(float).tolist()
            b = rng.integers(0, 10, size=4).astype(float).tolist()
            _, p = mann_whitney_u(a, b)
            exact = oracle_mwu_exact(a, b)
            assert abs(p - exact) < 0.15

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            mann_whitney_u([], [1.0])

    def test_matches_scipy_on_tie_heavy_draws(self):
        stats = pytest.importorskip("scipy.stats")
        for seed in range(100):
            rng = make_rng(seed)
            n1, n2 = rng.integers(1, 40, size=2)
            high = int(rng.integers(1, 8))  # 1: every value tied
            a = rng.integers(0, high, n1).astype(float)
            b = rng.integers(0, high, n2).astype(float)
            u, p = mann_whitney_u(a, b)
            ref = stats.mannwhitneyu(a, b, method="asymptotic", use_continuity=True)
            assert u == ref.statistic, seed
            assert p == pytest.approx(ref.pvalue, abs=1e-15), seed


class TestDistancePreservation:
    def test_identity_embedding(self):
        x = make_rng(0).standard_normal((50, 3))
        assert distance_preservation(x, x) == pytest.approx(1.0)

    def test_uniform_scaling_invariant(self):
        x = make_rng(1).standard_normal((40, 4))
        assert distance_preservation(x, 2.0 * x) == pytest.approx(1.0)

    def test_rigid_motion_invariant(self):
        rng = make_rng(2)
        x = rng.standard_normal((30, 3))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = x @ q + np.array([5.0, -3.0, 1.0])
        assert distance_preservation(x, moved) == pytest.approx(1.0, abs=1e-12)

    def test_permuted_rows_near_zero(self):
        rng = make_rng(3)
        x = rng.standard_normal((200, 5))
        shuffled = x[rng.permutation(200)]
        assert abs(distance_preservation(x, shuffled)) < 0.2

    def test_budget_uses_same_pairs(self):
        rng = make_rng(4)
        x = rng.standard_normal((60, 3))
        rho = distance_preservation(x, x.copy(), pair_budget=100, rng=make_rng(5))
        assert rho == pytest.approx(1.0)

    def test_row_count_mismatch(self):
        with pytest.raises(InvalidInputError):
            distance_preservation(np.zeros((4, 2)), np.zeros((5, 2)))

    def test_budget_none_rejected(self):
        # a budget is an integer; all pairs is any budget >= n(n-1)/2
        x = make_rng(1).standard_normal((9, 2))
        with pytest.raises(InvalidInputError, match="^pair_budget must be an integer >= 1"):
            distance_preservation(x, x, pair_budget=None)
        assert distance_preservation(x, x, pair_budget=36) == pytest.approx(1.0)


class TestCentroidPreservation:
    def _clusters(self):
        rng = make_rng(6)
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 6.0], [7.0, 7.0]])
        x = np.vstack([c + 0.2 * rng.standard_normal((20, 2)) for c in centers])
        labels = np.repeat(np.arange(4), 20)
        return x, labels

    def test_identity_and_rotation(self):
        x, labels = self._clusters()
        assert centroid_distance_preservation(x, x, labels) == pytest.approx(1.0)
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert centroid_distance_preservation(x, x @ rot, labels) == pytest.approx(1.0)

    def test_collinear_order_swap_reduces_rho(self):
        # three collinear clusters at 0, 1, 10; swapping the far pair breaks ranks
        x = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        low = np.array([[0.0, 0.0], [10.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1, 2])
        # hand oracle over the 3 centroid pairs:
        # high distances (01,02,12) = (1, 10, 9) ranks (1, 3, 2)
        # low  distances            = (10, 1, 9) ranks (3, 1, 2)
        expected = oracle_spearman([1.0, 10.0, 9.0], [10.0, 1.0, 9.0])
        got = centroid_distance_preservation(x, low, labels)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got < 1.0

    def test_requires_three_classes(self):
        x = np.zeros((4, 2))
        with pytest.raises(InvalidInputError):
            centroid_distance_preservation(x, x, [0, 0, 1, 1])

    def test_row_count_mismatch(self):
        x = make_rng(1).standard_normal((9, 2))
        with pytest.raises(InvalidInputError, match="row counts differ: 9 vs 8"):
            centroid_distance_preservation(x, x[:8], [0, 1, 2] * 3)

    def test_missing_class_rejected(self):
        x = np.zeros((4, 2))
        with pytest.raises(InvalidInputError):
            centroid_distance_preservation(x, x, [0, 1, 3, 3])


class TestAreaPreservation:
    def test_identity_and_scaling(self):
        x, labels = TestCentroidPreservation()._clusters()
        assert cluster_area_preservation(x, x, labels) == pytest.approx(1.0)
        assert cluster_area_preservation(x, 2.0 * x, labels) == pytest.approx(1.0)

    def test_areas_far_from_unit_scale(self):
        # areas near 1e160, whose squares overflow float64
        x, labels = TestCentroidPreservation()._clusters()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cluster_area_preservation(x * 1e80, x * 1e80, labels) == 1.0

    def test_hand_built_three_clusters(self):
        # cluster extents: (1x1), (2x3), (4x2) -> areas 1, 6, 8
        def rect(cx, cy, w, h):
            return np.array(
                [
                    [cx, cy],
                    [cx + w, cy],
                    [cx, cy + h],
                    [cx + w, cy + h],
                ]
            )

        high = np.vstack([rect(0, 0, 1, 1), rect(5, 0, 2, 3), rect(10, 0, 4, 2)])
        low = np.vstack([rect(0, 0, 1, 2), rect(5, 0, 2, 2), rect(10, 0, 3, 3)])
        labels = np.repeat(np.arange(3), 4)
        expected = oracle_pearson([1.0, 6.0, 8.0], [2.0, 4.0, 9.0])
        got = cluster_area_preservation(high, low, labels)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_singleton_class_area_zero(self):
        high = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [5.0, 5.0], [9.0, 9.0], [9.5, 9.0]])
        labels = np.array([0, 0, 0, 1, 2, 2])
        assert cluster_area_preservation(high, high, labels) == pytest.approx(1.0)

    def test_row_count_mismatch(self):
        x = make_rng(1).standard_normal((9, 2))
        with pytest.raises(InvalidInputError, match="row counts differ: 9 vs 8"):
            cluster_area_preservation(x, x[:8], [0, 1, 2] * 3)

    def test_requires_2d(self):
        x = np.zeros((6, 3))
        with pytest.raises(InvalidInputError):
            cluster_area_preservation(x, x, [0, 0, 1, 1, 2, 2])


class TestKnn:
    def test_one_far_row_keeps_the_others_apart(self):
        # row 0 at 1e170 put every other row's squared distance below the
        # normal range at one table-wide scale, and k-NN read chance
        ds = gen_synthetic("spiral", make_rng(7))
        x = ds.x.copy()
        x[0] = (1e170, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acc, _ = knn_evaluate(x, ds.labels, rng=make_rng(1))
        assert round(acc, 3) == 0.873

    def test_separable_blobs_perfect(self):
        rng = make_rng(7)
        a = rng.standard_normal((40, 2)) * 0.3
        b = rng.standard_normal((40, 2)) * 0.3 + 10.0
        x = np.vstack([a, b])
        labels = np.repeat([0, 1], 40)
        acc, f1 = knn_evaluate(x, labels, k=5, rng=make_rng(8))
        assert acc == 1.0 and f1 == 1.0

    def test_k_equals_train_size_near_chance(self):
        rng = make_rng(9)
        x = rng.standard_normal((100, 2))
        labels = np.repeat([0, 1], 50)
        train_size = 80
        acc, _ = knn_evaluate(x, labels, k=train_size, rng=make_rng(10))
        assert 0.2 <= acc <= 0.8  # ~majority baseline 0.5 plus sampling noise

    def test_single_class_convention(self):
        x = make_rng(11).standard_normal((20, 2))
        acc, f1 = knn_evaluate(x, np.zeros(20, dtype=int), k=3, rng=make_rng(0))
        assert acc == 1.0 and f1 == 1.0

    def test_deterministic_given_rng(self):
        rng_data = make_rng(12)
        x = rng_data.standard_normal((60, 3))
        labels = rng_data.integers(0, 3, 60)
        labels[:3] = [0, 1, 2]
        r1 = knn_evaluate(x, labels, k=3, rng=make_rng(5))
        r2 = knn_evaluate(x, labels, k=3, rng=make_rng(5))
        assert r1 == r2

    def test_k_too_large(self):
        x = np.zeros((10, 2))
        with pytest.raises(InvalidInputError):
            knn_evaluate(x, np.repeat([0, 1], 5), k=9, rng=make_rng(0))

    def test_matches_brute_force_on_integer_grid(self):
        # a 4x4 grid of coordinates: equal distances and split votes everywhere,
        # so both the (distance, row) order and the vote tie-break decide
        for seed in range(60):
            rng = make_rng(300 + seed)
            n = int(rng.integers(15, 40))
            x = rng.integers(0, 4, (n, 2)).astype(float)
            labels = rng.integers(0, 3, n)
            labels[:6] = [0, 1, 2, 0, 1, 2]
            k = int(rng.integers(1, 7))
            assert knn_evaluate(x, labels, k=k, rng=make_rng(seed)) == oracle_knn_scores(
                x, labels, k, make_rng(seed)
            ), f"seed={seed} k={k}"


class TestKmeans:
    def test_k_equals_n_zero_inertia(self):
        x = make_rng(13).standard_normal((8, 2))
        labels = kmeans(x, 8, rng=make_rng(0))
        assert len(np.unique(labels)) == 8
        centers = np.array([x[labels == c].mean(axis=0) for c in range(8)])
        inertia = sum(
            np.linalg.norm(x[i] - centers[labels[i]]) ** 2 for i in range(8)
        )
        assert inertia == pytest.approx(0.0, abs=1e-20)

    def test_two_blobs_recovered(self):
        rng = make_rng(14)
        a = rng.standard_normal((50, 2)) + np.array([0.0, 0.0])
        b = rng.standard_normal((50, 2)) + np.array([12.0, 0.0])
        x = np.vstack([a, b])
        pred = kmeans(x, 2, rng=make_rng(15))
        truth = np.repeat([0, 1], 50)
        assert ari(truth, pred) == 1.0

    def test_duplicated_rows_same_centroids(self):
        rng = make_rng(16)
        a = rng.standard_normal((30, 2)) * 0.5
        b = rng.standard_normal((30, 2)) * 0.5 + 9.0
        x = np.vstack([a, b])
        doubled = np.vstack([x, x])

        def sorted_centroids(data, labels):
            cents = np.array(
                [data[labels == c].mean(axis=0) for c in np.unique(labels)]
            )
            return cents[np.lexsort(cents.T)]

        l1 = kmeans(x, 2, rng=make_rng(17))
        l2 = kmeans(doubled, 2, rng=make_rng(18))
        np.testing.assert_allclose(
            sorted_centroids(x, l1), sorted_centroids(doubled, l2), atol=1e-9
        )

    def test_lloyd_inertia_non_increasing(self):
        x = make_rng(19).standard_normal((80, 3))
        centers = x[:5].copy()
        _, _, history = _lloyd(x, centers)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_lloyd_reseeds_empty_clusters_at_farthest_points(self):
        # duplicated centers leave clusters 2 and 3 empty on the first pass;
        # the farthest point from its center seeds cluster 2, the next one 3
        x = make_rng(23).standard_normal((40, 2))
        duplicated = np.vstack([x[:2], x[:2]])
        nearest = ((x[:, None, :] - x[None, :2, :]) ** 2).sum(axis=-1).min(axis=1)
        far = np.argsort(nearest)[::-1]
        assert nearest[far[0]] > nearest[far[1]] > nearest[far[2]]  # no ties
        reseeded = np.vstack([x[:2], x[far[0]], x[far[1]]])
        labels, inertia, history = _lloyd(x, duplicated)
        want_labels, want_inertia, want_history = _lloyd(x, reseeded)
        np.testing.assert_array_equal(labels, want_labels)
        assert (inertia, history) == (want_inertia, want_history)
        assert len(np.unique(labels)) == 4

    def test_k_too_large(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.zeros((3, 2)), 4, make_rng(0))

    def test_fewer_distinct_rows_than_k_gives_fewer_clusters(self):
        # after two picks every point is a centre, so the third pick falls
        # back to a uniform draw and coincides with one of them
        x = np.repeat([[0.0, 0.0], [1.0, 1.0]], 5, axis=0)
        assert len(np.unique(_kmeanspp_init(x, 3, make_rng(0)), axis=0)) == 2
        assert len(np.unique(kmeans(x, 3, make_rng(0)))) == 2
        assert len(np.unique(agglomerative(x, 3))) == 3


class TestAgglomerative:
    def test_singletons_and_single_cluster(self):
        x = make_rng(20).standard_normal((6, 2))
        np.testing.assert_array_equal(agglomerative(x, 6), np.arange(6))
        np.testing.assert_array_equal(agglomerative(x, 1), np.zeros(6, dtype=int))

    def test_six_point_two_triangles(self):
        x = np.array(
            [
                [0.0, 0.0], [1.0, 0.0], [0.5, 0.8],
                [10.0, 0.0], [11.0, 0.0], [10.5, 0.8],
            ]
        )
        np.testing.assert_array_equal(
            agglomerative(x, 2), np.array([0, 0, 0, 1, 1, 1])
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_direct_oracle_all_small_sizes(self, n):
        for seed in range(4):
            x = make_rng(100 + seed + 10 * n).standard_normal((n, 2))
            for k in range(1, n + 1):
                np.testing.assert_array_equal(
                    agglomerative(x, k), oracle_average_linkage(x, k), err_msg=f"n={n} k={k} seed={seed}"
                )

    GRID_FIXTURES = {
        "square": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "line": [[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0]],
        "reversed_line": [[5, 0], [4, 0], [3, 0], [2, 0], [1, 0], [0, 0]],
        "plus": [[1, 1], [0, 1], [2, 1], [1, 0], [1, 2]],
        "grid3": [[i, j] for i in range(3) for j in range(3)],
        "two_squares": [[0, 0], [0, 1], [1, 0], [1, 1], [5, 0], [5, 1], [6, 0], [6, 1]],
        "duplicates": [[0, 0], [0, 0], [1, 0], [1, 0], [3, 0], [3, 0]],
    }

    @pytest.mark.parametrize("name", sorted(GRID_FIXTURES))
    def test_singleton_ties_match_oracle(self, name):
        # integer coordinates: tied distances between single points are exact
        x = np.array(self.GRID_FIXTURES[name], dtype=float)
        for k in range(1, len(x) + 1):
            np.testing.assert_array_equal(
                agglomerative(x, k), oracle_average_linkage(x, k), err_msg=f"k={k}"
            )

    def test_matches_scipy_average_linkage_on_tie_free_inputs(self):
        # independent oracle: scipy's average linkage cut to k clusters gives
        # the same partition (ARI 1.0) on Gaussian inputs, where no two merge
        # heights tie
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        distance = pytest.importorskip("scipy.spatial.distance")

        def first_seen(labels):
            ids = {}
            return [ids.setdefault(v, len(ids)) for v in np.ravel(labels)]

        for seed in range(60):
            rng = make_rng(300 + seed)
            n = int(rng.integers(2, 120))
            x = rng.standard_normal((n, int(rng.integers(1, 5))))
            tree = hierarchy.linkage(distance.pdist(x), "average")
            for k in sorted({1, 2, int(rng.integers(1, n + 1)), n}):
                ref = hierarchy.cut_tree(tree, n_clusters=k)
                assert first_seen(agglomerative(x, k)) == first_seen(ref), (seed, k)

    @pytest.mark.parametrize("table", ["gaussian", "grid", "line", "rounded"])
    def test_row_cache_merges_as_full_scan(self, table):
        # integer coordinates tie many distances and linkage values exactly:
        # every merge must take the first minimum of the whole matrix, as the
        # full-scan loop does, whatever the per-row cache holds
        for seed in range(6):
            rng = make_rng(400 + seed)
            n = int(rng.integers(2, 80))
            x = {
                "gaussian": lambda: rng.standard_normal((n, 2)),
                "grid": lambda: rng.integers(0, 4, (n, 2)).astype(float),
                "line": lambda: rng.integers(0, 3, (n, 1)).astype(float),
                "rounded": lambda: np.round(rng.standard_normal((n, 3)), 1),
            }[table]()
            for k in sorted({1, 2, 3, max(n // 2, 1), n} & set(range(1, n + 1))):
                got = agglomerative(x, k)
                assert got.tobytes() == oracle_full_scan_linkage(x, k).tobytes(), (seed, k)

    def test_far_apart_scales_match_oracle_on_exact_distances(self):
        # four rows near 0 at 2**-1000 and four near (2**1000, 0) spread at
        # 2**990: at one table-wide scale the small rows' distances were all
        # 0 and merged by index
        rng = make_rng(14)
        small = np.ldexp(rng.standard_normal((4, 2)), -1000)
        large = np.ldexp(rng.standard_normal((4, 2)), 990) + [2.0**1000, 0.0]
        x = np.vstack([small, large])[rng.permutation(8)]
        for k in range(1, 9):
            np.testing.assert_array_equal(
                agglomerative(x, k), oracle_average_linkage(x, k, math.dist), err_msg=f"k={k}"
            )

    def test_tie_after_merges_follows_computed_values(self):
        # In exact arithmetic the last merge ties (0, 2) with (0, 7), and the
        # smallest pair gives [0 0 0 0 0 0 0 1]. The running averages round
        # apart, as documented, so (0, 7) merges instead.
        x = np.array([[0, 1], [1, 0], [1, 2], [0, 0], [1, 2], [0, 2], [1, 1], [2, 1]])
        np.testing.assert_array_equal(agglomerative(x, 2), [0, 0, 1, 0, 1, 1, 0, 0])


@pytest.mark.parametrize("power", [531, -565, 1021])
def test_scale_free_kernels_run_at_unit_scale(power):
    # unscaled, the squared distances of spiral * 2**531 overflow to inf (k-NN
    # reads chance, agglomerative merges along the diagonal, k-means++ draws
    # from NaN probabilities) and those of spiral * 2**-565 underflow to zero;
    # at 2**1021 the largest distances and the Lance-Williams sums of
    # distances would pass float64's range
    ds = gen_synthetic("spiral", make_rng(7))
    scaled = np.ldexp(ds.x, power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert knn_evaluate(scaled, ds.labels, rng=make_rng(1)) == knn_evaluate(
            ds.x, ds.labels, rng=make_rng(1)
        )
        assert kmeans(scaled, 3, make_rng(2)).tobytes() == kmeans(ds.x, 3, make_rng(2)).tobytes()
        assert agglomerative(scaled, 3).tobytes() == agglomerative(ds.x, 3).tobytes()


@pytest.mark.parametrize("power", [1000, 1022])
def test_class_metrics_run_at_unit_scale(power):
    # unscaled, a class sum of spiral * 2**1022 overflows in the centroid
    # mean, a class area overflows at 2**1000 and a class extent at 2**1022
    ds = gen_synthetic("spiral", make_rng(0))
    scaled = ds.x * 2.0**power
    with np.errstate(all="raise"):
        assert centroid_distance_preservation(scaled, ds.x, ds.labels) == 1.0
        assert cluster_area_preservation(scaled, ds.x, ds.labels) == 1.0


class TestPairCountingIndices:
    def test_identical_labelings(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 2, 1])
        assert ari(labels, labels) == 1.0
        assert fmi(labels, labels) == 1.0

    def test_relabel_invariance(self):
        lt = np.array([0, 0, 1, 1, 2, 2])
        lp = np.array([2, 2, 0, 0, 1, 1])  # same partition, renamed ids
        assert ari(lt, lp) == 1.0
        assert fmi(lt, lp) == 1.0

    def test_eight_point_fixture_exact(self):
        lt = [0, 0, 0, 1, 1, 1, 2, 2]
        lp = [0, 0, 1, 1, 1, 2, 2, 2]
        assert ari(lt, lp) == oracle_ari(lt, lp)
        assert fmi(lt, lp) == oracle_fmi(lt, lp)

    def test_random_fixtures_exact(self):
        rng = make_rng(21)
        for _ in range(20):
            lt = rng.integers(0, 3, 8)
            lp = rng.integers(0, 3, 8)
            assert ari(lt, lp) == oracle_ari(lt.tolist(), lp.tolist())
            assert fmi(lt, lp) == oracle_fmi(lt.tolist(), lp.tolist())

    def test_ari_random_labelings_centered_at_zero(self):
        rng = make_rng(22)
        labels = rng.integers(0, 4, 100)
        values = [ari(labels, rng.integers(0, 4, 100)) for _ in range(200)]
        assert abs(float(np.mean(values))) < 0.05

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            ari([0, 1], [0, 1, 2])

    def test_fmi_zero_without_same_cluster_pairs(self):
        assert fmi([0, 1, 2, 3], [0, 0, 1, 1]) == 0.0
        assert fmi([0, 0, 1, 1], [3, 2, 1, 0]) == 0.0

    def test_ari_one_below_two_points(self):
        assert ari([3], [7]) == 1.0

    def test_ari_one_when_both_partitions_degenerate(self):
        assert ari([0] * 5, [4] * 5) == 1.0  # both one cluster
        assert ari(range(5), [4, 3, 2, 1, 0]) == 1.0  # both all singletons

    def test_integer_valued_floats_and_sparse_ids_accepted(self):
        lt = [0, 0, 0, 1, 1, 1, 2, 2]
        lp = [0, 0, 1, 1, 1, 2, 2, 2]
        sparse = [-7.0, -7.0, 40.0, 40.0, 40.0, 9.0, 9.0, 9.0]
        assert ari(lt, sparse) == ari(lt, lp)
        assert fmi(lt, sparse) == fmi(lt, lp)

    @pytest.mark.parametrize("fn", [ari, fmi])
    @pytest.mark.parametrize(
        "bad",
        [[0, 0.5, 1, 1.7], [0, 0, 1, np.nan], [0, 0, 1, np.inf], [], ["a"] * 4],
        ids=["non_integral", "nan", "inf", "empty", "strings"],
    )
    def test_malformed_labelings_rejected(self, fn, bad):
        other = [0, 0, 1, 1] if len(bad) else []
        with pytest.raises(InvalidInputError):
            fn(bad, other)
        with pytest.raises(InvalidInputError):
            fn(other, bad)
