import hashlib
import inspect
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import neurodavis
from neurodavis.analysis import evaluate_embedding
from neurodavis.datasets import (
    Dataset,
    SYNTHETIC_KINDS,
    gen_synthetic,
    lift9,
    load_csv,
    save_csv,
)
from neurodavis.errors import CsvParseError, InvalidInputError
from neurodavis.metrics import (
    centroid_distance_preservation,
    cluster_area_preservation,
    knn_evaluate,
)
from neurodavis.numerics import make_rng
from test_contracts import _build_mismatch, _dispatch_above_v3

EXPECTED_SHAPES = {
    "elliptic_ring": (1100, 3),
    "olympic": (2500, 5),
    "spiral": (312, 3),
    "shape": (2000, 5),
    "world_map": (2843, 5),
}

# sha256 of save_csv's bytes for gen_synthetic(kind, make_rng(3)), and for
# lift9 of the world map: each class's points in place, numbered by position
CSV_SHA256 = {
    "elliptic_ring": "a1d32ed5aacff91d417782dedb3c25a1ffa29b86beaa6d11e0e3774a74813b3c",
    "olympic": "3b9c0e0ce3552a01f60e930aab19a69a2796f9ddd20ba90cc8664f680b8d72e7",
    "spiral": "3326cdcc570863d38575e82abce62e53460eeaae1e5f5542b508ac8a30fc5c20",
    "shape": "1437f88fef574e7226d3400708c181317ff470eea4dfd2b7a94069fed26b5d98",
    "world_map": "6f7061cf74f3831db16b75c3bd38b8a9ee5aabec74651ca54b0ed6c454781f50",
    "world_map_lift9": "f19036699036b5428b0742829c2be40ccee03484b01f3157e9f4592d5ea0e715",
}


def _generated_digest() -> str:
    """sha256 of every synthetic kind's points and labels at seed 3 and of
    their lift9 features."""
    h = hashlib.sha256()
    for kind in SYNTHETIC_KINDS:
        ds = gen_synthetic(kind, make_rng(3))
        h.update(ds.x.tobytes() + ds.labels.tobytes() + lift9(ds).x.tobytes())
    return h.hexdigest()


class TestGenerators:
    @pytest.mark.parametrize("name", list(CSV_SHA256))
    def test_csv_bytes_pinned(self, tmp_path, name):
        mismatch = _build_mismatch()
        if mismatch:
            pytest.skip(mismatch)
        ds = gen_synthetic(name.removesuffix("_lift9"), make_rng(3))
        path = tmp_path / "data.csv"
        save_csv(lift9(ds) if name.endswith("_lift9") else ds, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[name]

    def test_bytes_independent_of_simd_dispatch(self):
        # the AVX-512 loops of some ufuncs (np.power among them) round
        # differently from the AVX2 ones; the generators must not use them
        off = _dispatch_above_v3()
        if not off:
            pytest.skip("this CPU runs no numpy dispatch target above X86_V3")
        code = (
            "import hashlib\n"
            "from neurodavis.datasets import SYNTHETIC_KINDS, gen_synthetic, lift9\n"
            "from neurodavis.numerics import make_rng\n"
            + inspect.getsource(_generated_digest)
            + "print(_generated_digest())\n"
        )
        src = str(Path(neurodavis.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src, NPY_DISABLE_CPU_FEATURES=" ".join(off))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert done.stdout.strip() == _generated_digest()

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

    def test_overflow_raises_one_error(self):
        # x^3 overflows above about 5.6e102: one error, no numpy warnings
        ds = Dataset(np.array([[1.0, 2.0], [-1e103, 0.5]]))
        with pytest.raises(InvalidInputError, match="^lift9 overflows float64"):
            lift9(ds)

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

    def test_label_values_remapped_to_dense_ids(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y,c\n0,0,5\n1,1,9\n2,2,5\n")
        ds = load_csv(p, label_column="c")
        assert np.array_equal(ds.labels, [0, 1, 0])  # {5, 9} -> {0, 1}

    @pytest.mark.parametrize(
        "text,label_column,message",
        [
            ("x,y,label\n1,2\n3,4\n", "label", "row 2: 2 cells, the header has 3"),
            ("x,y\n1,2,0\n3,4,1\n", None, "row 2: 3 cells, the header has 2"),
        ],
        ids=["header-wider", "header-shorter"],
    )
    def test_header_fixes_the_width(self, tmp_path, text, label_column, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(CsvParseError, match=message) as err:
            load_csv(p, label_column=label_column)
        assert err.value.row == 2

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "0.5"])
    def test_label_cell_not_a_finite_integer(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"a,label\n1,0\n2,{cell}\n3,1\n")
        with pytest.raises(CsvParseError, match="row 3, column 2") as err:
            load_csv(p, label_column="label")
        assert (err.value.row, err.value.col) == (3, 2)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_feature_cell_position(self, tmp_path, cell):
        p = tmp_path / "t.csv"
        p.write_text(f"a,b,label\n1,2,0\n3,{cell},1\n")
        with pytest.raises(CsvParseError, match="row 3, column 2") as err:
            load_csv(p, label_column="label")
        assert (err.value.row, err.value.col) == (3, 2)

    def test_label_column_named_twice_rejected(self, tmp_path):
        # the first "label" would be read as labels and the second as a feature
        p = tmp_path / "t.csv"
        p.write_text("label,y,label\n0.5,1,0\n1.5,2,1\n")
        with pytest.raises(InvalidInputError, match="more than once"):
            load_csv(p, label_column="label")

    def test_feature_named_label_not_saved_with_labels(self, tmp_path):
        # its header would name "label" twice, which load_csv refuses
        ds = Dataset(np.array([[0.5], [1.5]]), labels=[0, 1], feature_names=["label"])
        p = tmp_path / "t.csv"
        with pytest.raises(InvalidInputError, match="'label'"):
            save_csv(ds, p)
        assert not p.exists()
        save_csv(Dataset(ds.x, feature_names=["label"]), p)  # no labels, no clash

    def test_labels_past_int64_stay_distinct(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1,2e19\n2,1e19\n3,2e19\n")
        ds = load_csv(p, label_column="label")
        assert np.array_equal(ds.labels, [1, 0, 1])

    def test_labelled_paths_leave_numpy_ma_unloaded(self, tmp_path):
        # numpy.ma costs about 12 ms of import; generating and loading
        # labelled data must not pull it in
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1,5\n2,9\n3,5\n")
        code = (
            "import sys\n"
            "import neurodavis as nd\n"
            "nd.gen_synthetic('spiral', nd.make_rng(0))\n"
            f"nd.load_csv({str(p)!r}, label_column='label')\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(neurodavis.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert done.stdout.strip() == "False"

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

    def test_empty_lines_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\na,b\n1,2\n\n3,4\n\n")
        ds = load_csv(p)
        assert ds.feature_names == ["a", "b"]
        assert ds.x.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_ragged_row_after_empty_line_keeps_file_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n\n3\n")
        with pytest.raises(CsvParseError, match="ragged row 4: ") as err:
            load_csv(p)
        assert (err.value.row, err.value.col) == (4, 2)

    def test_line_of_spaces_is_a_ragged_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n   \n3,4\n")
        with pytest.raises(CsvParseError, match="ragged row 3: 1 cells") as err:
            load_csv(p)
        assert err.value.row == 3

    def test_label_error_after_empty_line_keeps_file_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,label\n1,0\n\n2,0.5\n")
        with pytest.raises(CsvParseError, match="at row 4, column 2") as err:
            load_csv(p, label_column="label")
        assert (err.value.row, err.value.col) == (4, 2)

    def test_non_numeric_cell_position(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(CsvParseError) as err:
            load_csv(p)
        assert (err.value.row, err.value.col) == (3, 2)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(CsvParseError, match="empty file") as err:
            load_csv(p)
        assert (err.value.row, err.value.col) == (1, 1)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError):
            load_csv(p, label_column="label")


# One table of broken class labels for a 15-row input whose valid labels are
# [0, 1, 2] * 5, run against Dataset and against every metric that takes
# labels; each case carries the message of the one validator they share.
BASE_LABELS = [0, 1, 2] * 5
BROKEN_LABELS = [
    pytest.param(BASE_LABELS[:-1] + [-1], "dense", id="negative"),
    pytest.param([-1] * 15, "dense", id="all-negative"),
    pytest.param([c + 1 for c in BASE_LABELS], "dense", id="no-zero"),
    pytest.param([0, 2, 3] * 5, "dense", id="gap"),
    pytest.param(BASE_LABELS[:-1] + [15], "dense", id="past-n"),
    pytest.param(BASE_LABELS[:-1] + [10**12], "dense", id="huge"),
    pytest.param(BASE_LABELS[:-1] + [1e19], "dense", id="past-int64"),
    pytest.param(BASE_LABELS[:-1] + [2.5], "finite integers", id="non-integral"),
    pytest.param(BASE_LABELS[:-1] + [np.nan], "finite integers", id="nan"),
    pytest.param(BASE_LABELS[:-1] + [np.inf], "finite integers", id="inf"),
    pytest.param(BASE_LABELS[:-1], "one id per row", id="wrong-length"),
    pytest.param([BASE_LABELS], "one id per row", id="2-d"),
    pytest.param(["a"] * 15, "numeric", id="strings"),
]

ENTRY_POINTS = {
    "Dataset": lambda x, labels: Dataset(x, labels=labels),
    "centroid": lambda x, labels: centroid_distance_preservation(x, x, labels),
    "area": lambda x, labels: cluster_area_preservation(x, x, labels),
    "knn": lambda x, labels: knn_evaluate(x, labels, k=1, rng=make_rng(0)),
    "cluster": lambda x, labels: evaluate_embedding(
        x, x, labels, metrics=("cluster",), rng=make_rng(0)
    ),
}
METRIC_ENTRY_POINTS = [name for name in ENTRY_POINTS if name != "Dataset"]


def _points(rows: int) -> np.ndarray:
    return make_rng(4).standard_normal((rows, 2))


class TestDatasetValidation:
    def test_label_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((3, 2)), labels=[0, 1])

    @pytest.mark.parametrize("names", [["x"], ["x", "y", "z"]])
    def test_feature_names_one_per_column(self, names):
        with pytest.raises(InvalidInputError, match="feature_names length"):
            Dataset(np.ones((3, 2)), feature_names=names)

    def test_labels_must_be_dense(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.ones((3, 2)), labels=[0, 2, 2])

    @pytest.mark.parametrize("labels,match", BROKEN_LABELS)
    def test_rejects_non_dense_ids(self, labels, match):
        # a huge id must be rejected by the bound, not by counting up to it
        with pytest.raises(InvalidInputError, match=match):
            Dataset(_points(15), labels=labels)

    @pytest.mark.parametrize("entry", METRIC_ENTRY_POINTS)
    @pytest.mark.parametrize("labels,match", BROKEN_LABELS)
    def test_every_metric_rejects(self, entry, labels, match):
        with pytest.raises(InvalidInputError, match=match):
            ENTRY_POINTS[entry](_points(15), labels)

    @pytest.mark.parametrize("entry", METRIC_ENTRY_POINTS)
    def test_metrics_reject_empty_input(self, entry):
        with pytest.raises(InvalidInputError):
            ENTRY_POINTS[entry](_points(0), [])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("ids", [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    def test_every_entry_point_accepts_dense_permutations(self, entry, ids):
        labels = np.array(ids * 5, dtype=float)  # integral floats are ids too
        ENTRY_POINTS[entry](_points(15), labels)

    @pytest.mark.parametrize("labels", [[0, 0, 0], [2, 0, 1], [1, 0, 1]])
    def test_accepts_dense_ids(self, labels):
        ds = Dataset(np.ones((3, 2)), labels=labels)
        assert ds.n_classes == max(labels) + 1

    def test_accepts_no_rows(self):
        ds = Dataset(np.ones((0, 2)), labels=[])
        assert ds.labels.shape == (0,)
        assert ds.n_classes == 0
