import itertools
import math
import tracemalloc

import numpy as np
import pytest

from neurodavis import numerics
from neurodavis.datasets import gen_synthetic
from neurodavis.errors import InvalidInputError
from neurodavis.metrics import distance_preservation
from neurodavis.numerics import (
    as_labeling,
    as_matrix,
    as_vector,
    dense_ids,
    distances,
    make_rng,
    pair_distances,
    pairwise_euclidean,
    spawn_rng,
    spectral_norm,
    sq_distances,
    unit_scaled,
)


def brute_force_pairs(x):
    """Independent O(n^2) loop oracle for pairwise distances."""
    x = np.asarray(x, dtype=float)
    out = []
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            s = 0.0
            for c in range(x.shape[1]):
                s += (x[i, c] - x[j, c]) ** 2
            out.append((i, j, s**0.5))
    return out


def jacobi_svd_values(a, sweeps=60):
    """One-sided Jacobi SVD oracle: orthogonalize columns of a copy of ``a``
    by plane rotations; the column norms converge to the singular values."""
    a = np.array(a, dtype=float)
    if a.shape[0] < a.shape[1]:
        a = a.T
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[:, p] @ a[:, q])
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                off = max(off, abs(apq))
                if apq == 0.0:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                ap = a[:, p].copy()
                a[:, p] = c * ap - s * a[:, q]
                a[:, q] = s * ap + c * a[:, q]
        if off < 1e-14:
            break
    return np.sort(np.linalg.norm(a, axis=0))[::-1]


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = make_rng(42).uniform(size=10_000)
        b = make_rng(42).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            make_rng(0).uniform(size=100), make_rng(1).uniform(size=100)
        )

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, 2.0, "3", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            make_rng(seed)
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            spawn_rng(seed, 1)

    def test_numpy_integer_seed_same_stream(self):
        a = make_rng(np.uint8(5)).uniform(size=10)
        assert np.array_equal(a, make_rng(5).uniform(size=10))
        b = spawn_rng(np.int64(5), 1).uniform(size=10)
        assert np.array_equal(b, spawn_rng(5, 1).uniform(size=10))


class TestPairwiseEuclidean:
    def test_three_four_five(self):
        ii, jj, d = pairwise_euclidean([[0.0, 0.0], [3.0, 4.0]])
        assert list(zip(ii, jj, d)) == [(0, 1, 5.0)]

    def test_identical_points(self):
        ii, jj, d = pairwise_euclidean([[1.0, 1.0], [1.0, 1.0]])
        assert list(zip(ii, jj, d)) == [(0, 1, 0.0)]

    def test_matches_brute_force(self):
        x = [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
        ii, jj, d = pairwise_euclidean(x)
        expected = brute_force_pairs(x)
        assert [(i, j) for i, j in zip(ii, jj)] == [(e[0], e[1]) for e in expected]
        np.testing.assert_allclose(d, [e[2] for e in expected], atol=1e-15)
        np.testing.assert_allclose(sorted(d), [1.0, 2.0, np.sqrt(5.0)])

    def test_blocks_leave_the_bytes_unchanged(self, monkeypatch):
        x = make_rng(8).standard_normal((20, 9))
        whole = pairwise_euclidean(x)[2]
        monkeypatch.setattr(numerics, "_BLOCK_VALUES", 4 * 9)  # 190 pairs, 4 per block
        assert pairwise_euclidean(x)[2].tobytes() == whole.tobytes()

    def test_lexicographic_order(self):
        x = make_rng(3).standard_normal((7, 2))
        ii, jj, _ = pairwise_euclidean(x)
        pairs = list(zip(ii.tolist(), jj.tolist()))
        assert pairs == sorted(pairs)
        assert len(pairs) == 21

    def test_budget_sampling_subset_and_deterministic(self):
        x = make_rng(5).standard_normal((30, 3))
        full_ii, full_jj, full_d = pairwise_euclidean(x)
        lookup = {(i, j): d for i, j, d in zip(full_ii, full_jj, full_d)}
        ii, jj, d = pairwise_euclidean(x, pair_budget=50, rng=make_rng(9))
        assert len(ii) == 50
        assert len({(i, j) for i, j in zip(ii, jj)}) == 50
        for i, j, dist in zip(ii, jj, d):
            assert i < j
            assert lookup[(i, j)] == dist
        ii2, jj2, d2 = pairwise_euclidean(x, pair_budget=50, rng=make_rng(9))
        assert np.array_equal(ii, ii2) and np.array_equal(jj, jj2)
        assert np.array_equal(d, d2)

    def test_budget_equal_to_total_gives_all_pairs(self):
        x = make_rng(1).standard_normal((6, 2))
        ii, jj, _ = pairwise_euclidean(x, pair_budget=15, rng=make_rng(0))
        assert len(ii) == 15

    def test_row_permutation_preserves_distance_multiset(self):
        rng = make_rng(11)
        x = rng.standard_normal((12, 4))
        perm = rng.permutation(12)
        _, _, d1 = pairwise_euclidean(x)
        _, _, d2 = pairwise_euclidean(x[perm])
        np.testing.assert_allclose(np.sort(d1), np.sort(d2), rtol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(InvalidInputError):
            pairwise_euclidean([[1.0, 2.0]])

    def test_budget_below_total_needs_rng(self):
        x = make_rng(2).standard_normal((10, 2))
        with pytest.raises(InvalidInputError, match="requires an rng"):
            pairwise_euclidean(x, pair_budget=3)

    def test_bad_budget(self):
        # a budget above the total (3 pairs) means all pairs and needs no rng
        x = make_rng(6).standard_normal((3, 2))
        for got, want in zip(pairwise_euclidean(x, pair_budget=10), pairwise_euclidean(x)):
            assert got.tobytes() == want.tobytes()
        for budget in (0, -1, 2.5):
            with pytest.raises(InvalidInputError, match="pair_budget must be an integer >= 1"):
                pairwise_euclidean(x, pair_budget=budget, rng=make_rng(0))

    def test_pair_distances_matches(self):
        x = make_rng(2).standard_normal((9, 3))
        ii, jj, d = pairwise_euclidean(x)
        np.testing.assert_array_equal(pair_distances(x, ii, jj), d)

    @pytest.mark.parametrize("power", [530, -560])
    def test_distances_scale_exactly_with_a_power_of_two(self, power):
        # unscaled, the squared differences overflow to inf at 2**530 and
        # underflow to 0.0 at 2**-560
        from neurodavis.metrics import distance_preservation

        x = make_rng(0).standard_normal((30, 2))
        ii, jj = np.triu_indices(30, k=1)
        d = pair_distances(x, ii, jj)
        scaled = np.ldexp(x, power)
        with np.errstate(all="raise"):
            got = pair_distances(scaled, ii, jj)
        assert got.tobytes() == np.ldexp(d, power).tobytes()
        assert distance_preservation(scaled, x) == 1.0

    @pytest.mark.parametrize("n", [2, 3, 7, 312, 2000])
    def test_all_pairs_byte_equal_to_triu_reference(self, n):
        x = make_rng(n).standard_normal((n, 3))
        ref_ii, ref_jj = (a.astype(np.int64) for a in np.triu_indices(n, k=1))
        ii, jj, d = pairwise_euclidean(x)
        assert ii.dtype == jj.dtype == np.int64
        assert ii.tobytes() == ref_ii.tobytes()
        assert jj.tobytes() == ref_jj.tobytes()
        assert d.tobytes() == pair_distances(x, ref_ii, ref_jj).tobytes()

    def test_budget_sample_uniform_over_all_subsets(self):
        # 5 rows: 10 pairs, C(10, 3) = 120 possible 3-pair samples
        x = make_rng(4).standard_normal((5, 2))
        subsets = list(itertools.combinations(itertools.combinations(range(5), 2), 3))
        draws = 24_000
        rng = make_rng(8)
        counts = dict.fromkeys(subsets, 0)
        for _ in range(draws):
            ii, jj, _ = pairwise_euclidean(x, pair_budget=3, rng=rng)
            key = tuple(zip(ii.tolist(), jj.tolist()))
            assert key in counts, f"not 3 distinct pairs in rank order: {key}"
            counts[key] += 1
        expected = draws / len(subsets)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 207.2 is the upper 1e-6 quantile of chi-square with 119 degrees of freedom
        assert chi2 < 207.2

    def test_sampled_pairs_memory_independent_of_total(self):
        # 199,990,000 pairs: an array of every rank would take 1.5 GiB
        x = make_rng(6).standard_normal((20_000, 2))
        rng = make_rng(7)
        tracemalloc.start()
        try:
            ii, jj, d = pairwise_euclidean(x, pair_budget=1_000, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d) == 1_000 and np.all(ii < jj)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize(
        "ii, jj",
        [
            ([-1], [0]),  # negative indices would wrap to the last row
            ([0, 1], [2]),  # unequal lengths would broadcast
            ([0], [4]),  # index == n
            ([0.0], [1.0]),  # not integers
            ([[0]], [[1]]),  # not 1-D
        ],
        ids=["negative", "unequal_length", "index_n", "float", "not_1d"],
    )
    def test_pair_distances_rejects_bad_indices(self, ii, jj):
        with pytest.raises(InvalidInputError):
            pair_distances(np.zeros((4, 2)), ii, jj)


class TestSqDistances:
    @staticmethod
    def broadcast(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return (diff * diff).sum(axis=-1)

    def test_bitwise_equal_to_broadcast_across_blocks(self):
        rng = make_rng(3)
        a = rng.standard_normal((1000, 3))
        b = rng.standard_normal((700, 3))
        assert numerics._BLOCK_VALUES // (len(b) * 3) < len(a)  # several row blocks
        got = sq_distances(a, b)
        assert got.shape == (1000, 700)
        assert got.tobytes() == self.broadcast(a, b).tobytes()

    def test_row_wider_than_a_block(self, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_VALUES", 5)  # one row per block
        rng = make_rng(4)
        a = np.round(rng.standard_normal((11, 9)) * 3)
        b = rng.standard_normal((7, 9))
        assert sq_distances(a, b).tobytes() == self.broadcast(a, b).tobytes()

    def test_empty_sides(self):
        assert sq_distances(np.zeros((0, 2)), np.zeros((4, 2))).shape == (0, 4)
        assert sq_distances(np.zeros((3, 2)), np.zeros((0, 2))).shape == (3, 0)

    def test_agrees_with_pair_distances(self):
        # pair_distances reduces with einsum, so the last bit may differ
        x = make_rng(5).standard_normal((30, 4))
        ii, jj, d = pairwise_euclidean(x)
        np.testing.assert_allclose(np.sqrt(sq_distances(x, x)[ii, jj]), d, rtol=1e-15)


def far_apart_rows():
    """Rows at 2**-1000, 2**0 and 2**1000, mixed: one power of two for the
    whole table sends the small rows' squares below the normal range."""
    rng = make_rng(12)
    x = rng.standard_normal((9, 3))
    return np.ldexp(x, np.repeat([-1000, 0, 1000], 3)[rng.permutation(9), None])


class TestFarApartRows:
    def test_pair_distances_match_math_dist(self):
        # at one table-wide scale the 2**-1000 rows sit at 2**-2001 and
        # every distance among them came out 0
        x = far_apart_rows()
        ii, jj, d = pairwise_euclidean(x)
        for i, j, got in zip(ii, jj, d):
            want = math.dist(x[i], x[j])
            assert abs(got - want) <= 4 * math.ulp(want), (i, j)

    def test_distances_match_math_dist_and_are_symmetric(self):
        x = far_apart_rows()
        got = distances(x, x)
        assert got.tobytes() == got.T.tobytes()
        for i, j in itertools.product(range(len(x)), repeat=2):
            want = math.dist(x[i], x[j])
            assert abs(got[i, j] - want) <= 4 * math.ulp(want), (i, j)

    def test_in_range_bits_unchanged(self):
        # only sums of squares below 2**-1022 are retaken: elsewhere the
        # distances are the unit-scaled square roots, scaled back
        x = make_rng(13).standard_normal((40, 3))
        x[5] = x[4]  # a zero distance is retaken and stays 0
        scaled, e = unit_scaled(x)
        want = np.ldexp(np.sqrt(sq_distances(scaled, scaled[:30])), e)
        assert distances(x, x[:30]).tobytes() == want.tobytes()


class TestBeyondRange:
    """When the summed distances would pass float64's range, both kernels
    return every distance times one power of two."""

    def test_pairs_beyond_range_come_back_finite(self):
        # the true distances are 3e308, 1.5e308 and 1.5e308; scaled back to
        # true scale the first overflowed in ldexp
        x = [[1.5e308, 0.0], [-1.5e308, 0.0], [0.0, 1.0]]
        with np.errstate(all="raise"):
            _, _, d = pairwise_euclidean(x)
            assert np.isfinite(d.sum())
        eighth = np.ldexp(1.5e308, -3)
        assert d.tolist() == [2 * eighth, eighth, eighth] == [3.75e307, 1.875e307, 1.875e307]

    def test_pair_distances_scale_by_one_power_of_two(self):
        x = gen_synthetic("spiral", make_rng(0)).x
        far = np.ldexp(x, 1022)
        ii, jj, want = pairwise_euclidean(x)
        with np.errstate(all="raise"):
            got = pair_distances(far, ii, jj)
            assert np.isfinite(got.sum())
        power = int(np.frexp(got.max() / want.max())[1]) - 1
        assert power < 1022
        assert got.tobytes() == np.ldexp(want, power).tobytes()
        assert distance_preservation(far, x) == 1.0

    def test_distances_sum_is_finite(self):
        x = np.ldexp(gen_synthetic("spiral", make_rng(0)).x, 1021)
        with np.errstate(all="raise"):
            assert np.isfinite(distances(x, x).sum())


class TestUnitScaled:
    @pytest.mark.parametrize("power", [0, 7, 531, -565])
    def test_exact_power_of_two(self, power):
        x = make_rng(6).standard_normal((5, 3))
        big = np.abs(x).max()
        scaled, e = unit_scaled(np.ldexp(x, power))
        assert 0.5 <= np.abs(scaled).max() < 1.0
        assert e == power + np.frexp(big)[1]
        assert np.ldexp(scaled, e).tobytes() == np.ldexp(x, power).tobytes()

    @pytest.mark.parametrize(
        "x", [np.array([[0.5, -0.75], [0.0, 0.999]]), np.zeros((3, 2)), np.zeros((0, 2))],
        ids=["unit", "zero", "empty"],
    )
    def test_exponent_zero_leaves_the_table_as_is(self, x):
        scaled, e = unit_scaled(x)
        assert e == 0 and scaled.tobytes() == x.tobytes()


@pytest.mark.parametrize("kernel", ["pairwise_euclidean", "sq_distances"])
def test_kernel_memory_does_not_grow_with_row_width(kernel):
    # 1000 x 100 is 0.76 MiB of data; blocks sized by pair or row count
    # alone held 577 MiB (all pairs) and 204 MiB (against 300 rows)
    x = make_rng(6).standard_normal((1000, 100))
    run = {"pairwise_euclidean": lambda: pairwise_euclidean(x),
           "sq_distances": lambda: sq_distances(x, x[:300])}[kernel]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestInputKinds:
    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_matrix_must_be_2d(self, shape):
        with pytest.raises(InvalidInputError, match="must be 2-D"):
            as_matrix(np.zeros(shape))

    @pytest.mark.parametrize("check", [as_matrix, as_vector])
    @pytest.mark.parametrize(
        "value",
        ["abc", [[1.0, 2.0], [3.0]], np.ones((2, 2)) + 1j, [[1.0, 2j]]],
        ids=["string", "ragged", "complex", "complex_list"],
    )
    def test_arrays_must_be_real(self, check, value):
        with pytest.raises(InvalidInputError, match="^pts must be a real numeric array"):
            check(value, "pts")

    def test_dense_ids_is_the_unique_inverse(self):
        rng = make_rng(3)
        for a in (rng.integers(-5, 5, 200), rng.integers(0, 3, 50) * 0.5 - 1.0):
            np.testing.assert_array_equal(
                dense_ids(a), np.unique(a, return_inverse=True)[1]
            )

    def test_labeling_keeps_any_integer_values(self):
        ids = as_labeling(np.array([[40.0, -7.0], [9.0, -7.0]]))
        assert ids.tolist() == [2, 0, 1, 0]


class TestSpectralNorm:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError, match="nonempty"):
            spectral_norm(np.zeros((0, 3)))

    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_matches_jacobi_oracle(self):
        w = make_rng(7).standard_normal((4, 6))
        expected = jacobi_svd_values(w)[0]
        assert spectral_norm(w) == pytest.approx(expected, abs=1e-8)

    def test_start_vector_in_null_space(self):
        # the all-ones vector lies in the null space
        w = np.array([[1.0, -1.0]])
        assert spectral_norm(w) == pytest.approx(np.sqrt(2.0), abs=1e-10)

    def test_bounded_by_frobenius(self):
        rng = make_rng(13)
        for _ in range(50):
            w = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            assert spectral_norm(w) <= np.linalg.norm(w) + 1e-9
