import json
from importlib import resources

import numpy as np
import pytest

from neurodavis.datasets import (
    Dataset,
    SYNTHETIC_KINDS,
    gen_synthetic,
    lift9,
    load_csv,
    save_csv,
)
from neurodavis.errors import CsvParseError, InvalidInputError
from neurodavis.numerics import make_rng

EXPECTED_SHAPES = {
    "elliptic_ring": (1100, 3),
    "olympic": (2500, 5),
    "spiral": (312, 3),
    "shape": (2000, 5),
    "world_map": (2843, 5),
}


class TestGenerators:
    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_shapes_and_classes(self, kind):
        ds = gen_synthetic(kind, make_rng(0))
        n, n_classes = EXPECTED_SHAPES[kind]
        assert ds.x.shape == (n, 2)
        assert ds.n_classes == n_classes
        assert np.array_equal(np.unique(ds.labels), np.arange(n_classes))
        assert np.all(np.isfinite(ds.x))

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_seed_determinism(self, kind):
        a = gen_synthetic(kind, make_rng(7))
        b = gen_synthetic(kind, make_rng(7))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.labels, b.labels)
        c = gen_synthetic(kind, make_rng(8))
        assert not np.array_equal(a.x, c.x)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            gen_synthetic("torus", make_rng(0))

    def test_olympic_ring_centroids_match_template(self):
        tpl = json.loads(
            resources.files("neurodavis.templates")
            .joinpath("olympic.json")
            .read_text()
        )
        ds = gen_synthetic("olympic", make_rng(123))
        radius = tpl["radius"]
        sigma = 0.02 * 2 * radius
        # points sit on a jittered circle: per-axis std is sqrt(r^2/2 + sigma^2)
        tol = 3.0 * np.sqrt(radius**2 / 2 + sigma**2) / np.sqrt(500)
        for label, center in enumerate(tpl["centers"]):
            centroid = ds.x[ds.labels == label].mean(axis=0)
            assert np.all(np.abs(centroid - np.asarray(center)) < tol)

    def test_world_map_counts_proportional_to_area(self):
        ds = gen_synthetic("world_map", make_rng(0))
        counts = np.bincount(ds.labels)
        assert counts.sum() == 2843
        # eurasia (0) is the largest continent, australia (1) the smallest
        assert counts[0] == counts.max()
        assert counts[1] == counts.min()


class TestLift9:
    def test_zero_maps_to_zero(self):
        ds = Dataset(np.zeros((1, 2)))
        assert np.array_equal(lift9(ds).x, np.zeros((1, 9)))

    def test_published_map_values(self):
        ds = Dataset(np.array([[1.0, 2.0], [-1.0, 1.0]]))
        lifted = lift9(ds).x
        np.testing.assert_array_equal(lifted[0], [3, -1, 2, 1, 4, 2, 4, 1, 8])
        np.testing.assert_array_equal(lifted[1], [0, -2, -1, 1, 1, 1, -1, -1, 1])

    def test_labels_preserved(self):
        ds = Dataset(np.ones((3, 2)), labels=[0, 1, 1])
        assert np.array_equal(lift9(ds).labels, [0, 1, 1])

    def test_rejects_non_2d(self):
        with pytest.raises(InvalidInputError):
            lift9(Dataset(np.ones((3, 3))))

    def test_commutes_with_row_permutation(self):
        rng = make_rng(5)
        x = rng.standard_normal((20, 2))
        perm = rng.permutation(20)
        a = lift9(Dataset(x)).x[perm]
        b = lift9(Dataset(x[perm])).x
        np.testing.assert_array_equal(a, b)


class TestCsv:
    def test_header_and_feature_names(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        ds = load_csv(p)
        assert ds.x.shape == (3, 2)
        assert ds.feature_names == ["a", "b"]
        assert ds.labels is None

    def test_label_column_by_name(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1.5,0\n2.5,1\n3.5,0\n")
        ds = load_csv(p, label_column="label")
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert ds.x.shape == (3, 1)
        assert ds.feature_names == ["a"]

    def test_label_column_by_index_and_remap(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y,c\n0,0,5\n1,1,9\n2,2,5\n")
        ds = load_csv(p, label_column=2)
        assert np.array_equal(ds.labels, [0, 1, 0])  # {5, 9} -> {0, 1}

    def test_round_trip_bit_exact(self, tmp_path):
        rng = make_rng(3)
        ds = Dataset(
            rng.standard_normal((17, 4)) * 1e3,
            labels=rng.integers(0, 3, 17),
            feature_names=["a", "b", "c", "d"],
        )
        p = tmp_path / "t.csv"
        save_csv(ds, p)
        back = load_csv(p, label_column="label")
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.labels, ds.labels)
        save_csv(back, tmp_path / "t2.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_ragged_row_position(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p)
        assert err.value.row == 3

    def test_non_numeric_cell_position(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p)
        assert (err.value.row, err.value.col) == (3, 2)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            load_csv(p, label_column="label")

    def test_no_header_mode(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,4\n")
        ds = load_csv(p, has_header=False)
        assert ds.x.shape == (2, 2)
        assert ds.feature_names is None


class TestDatasetValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((3, 2)), labels=[0, 1])

    def test_labels_must_be_dense(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((3, 2)), labels=[0, 2, 2])
