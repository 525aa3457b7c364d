import numpy as np
import pytest

from neurodavis.analysis import (
    ContractionTrace,
    check_gradients,
    check_lemma1,
    check_theorem1,
    evaluate_embedding,
    finite_difference_gradients,
    run_preservation_suite,
)
from neurodavis.datasets import Dataset, gen_synthetic
from neurodavis.errors import InvalidInputError
from neurodavis.model import ModelConfig, init_model
from neurodavis.numerics import make_rng, spectral_norm


class TestLemma1:
    def test_zero_matrix_gives_exactly_one(self):
        m = np.eye(4) - 0.5 * np.zeros((4, 4))
        assert spectral_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_boundary_case(self):
        # unit-Frobenius rank-1 W, eta = 1: spectrum of I - W W^T is {0, 1}
        u = np.array([[0.6], [0.8]])
        m = np.eye(2) - (u @ u.T)
        assert spectral_norm(m) == pytest.approx(1.0, abs=1e-10)

    def test_small_seeded_suite(self):
        report = check_lemma1(trials=100, max_dim=6, rng=make_rng(0))
        assert report.max_norm <= 1.0 + 1e-9
        assert report.passed

    def test_thousand_trials_on_twenty_seeds(self):
        for seed in range(20):
            assert check_lemma1(1000, 8, make_rng(seed)).passed, seed

    def test_invalid_args(self):
        with pytest.raises(InvalidInputError):
            check_lemma1(trials=0, max_dim=4, rng=make_rng(0))


class TestTheorem1:
    def _data_with_duplicate(self, seed=0, n=20, d=3):
        x = make_rng(seed).standard_normal((n, d)) * 2.0
        x[1] = x[0]
        return x

    def test_duplicate_pair_contracts_towards_zero(self):
        x = self._data_with_duplicate()
        trace = check_theorem1(x, (0, 1), eta=0.5, steps=200, rng=make_rng(1))
        assert trace.monotone
        assert trace.gaps[-1] < trace.gaps[0]

    def test_projection_hypothesis_recorded(self):
        x = self._data_with_duplicate(seed=3)
        trace = check_theorem1(x, (0, 1), eta=1.0, steps=50, rng=make_rng(2))
        assert np.all(trace.recon_fro <= 1.0 + 1e-12)
        assert len(trace.gaps) == 51 and len(trace.recon_fro) == 51

    def test_eta_zero_keeps_gap_constant(self):
        x = self._data_with_duplicate(seed=4)
        trace = check_theorem1(x, (0, 1), eta=0.0, steps=10, rng=make_rng(3))
        assert np.all(trace.gaps == trace.gaps[0])

    def test_far_pair_rejected_with_measured_values(self):
        x = make_rng(5).standard_normal((10, 2))
        with pytest.raises(InvalidInputError) as err:
            check_theorem1(x, (0, 1), eta=0.5, steps=5, rng=make_rng(0))
        message = str(err.value)
        assert "delta" in message and "gap" in message

    def test_eta_above_one_rejected(self):
        x = self._data_with_duplicate()
        with pytest.raises(InvalidInputError):
            check_theorem1(x, (0, 1), eta=1.5, steps=5, rng=make_rng(0))

    def test_monotone_property_flags_increase(self):
        trace = ContractionTrace(
            gaps=np.array([1.0, 0.9, 0.95]), recon_fro=np.ones(3)
        )
        assert not trace.monotone


class TestGradientCheck:
    def test_small_suite_passes(self):
        report = check_gradients(n_models=6, seed=0)
        assert report.passed
        assert report.max_rel_error < 1e-4

    def test_passes_on_twenty_seeds(self):
        # the 1e-4 bound holds at every seed, not only the documented one
        failed = {}
        for seed in range(20):
            report = check_gradients(n_models=50, seed=seed)
            if not report.passed:
                failed[seed] = report.max_rel_error
        assert failed == {}

    def test_float64_result_and_platform_warning(self, monkeypatch):
        cfg = ModelConfig(latent_dim=2, hidden_widths=(3,), seed=1)
        model = init_model(cfg, 3, 2)
        x = make_rng(0).standard_normal((3, 2))
        numeric = finite_difference_gradients(model, np.arange(3), x, cfg)
        assert numeric.dtype == np.float64 and numeric.shape == model.theta.shape
        monkeypatch.setattr("neurodavis.analysis.LONGDOUBLE_EXTENDS_FLOAT64", False)
        with pytest.warns(RuntimeWarning, match="roundoff-limited"):
            finite_difference_gradients(model, np.arange(3), x, cfg)


class TestEvaluateEmbedding:
    def test_identity_embedding_all_ones(self):
        ds = gen_synthetic("spiral", make_rng(0))
        values = evaluate_embedding(
            ds.x,
            ds.x.copy(),
            labels=ds.labels,
            metrics=("distance", "centroid", "area"),
            rng=make_rng(1),
        )
        assert values["distance_spearman"] == pytest.approx(1.0)
        assert values["centroid_spearman"] == pytest.approx(1.0)
        assert values["area_pearson"] == pytest.approx(1.0)

    def test_knn_and_cluster_selections(self):
        rng = make_rng(2)
        a = rng.standard_normal((30, 2)) * 0.2
        b = rng.standard_normal((30, 2)) * 0.2 + 6.0
        x = np.vstack([a, b])
        labels = np.repeat([0, 1], 30)
        values = evaluate_embedding(
            x, x.copy(), labels=labels, metrics=("knn", "cluster"), rng=make_rng(3)
        )
        assert values["knn_accuracy"] == 1.0
        assert values["kmeans_ari"] == 1.0
        assert values["agglomerative_ari"] == 1.0
        assert set(values) == {
            "knn_accuracy",
            "knn_f1_macro",
            "kmeans_ari",
            "kmeans_fmi",
            "agglomerative_ari",
            "agglomerative_fmi",
        }

    def test_labels_required_for_centroid(self):
        x = np.zeros((10, 2))
        with pytest.raises(InvalidInputError):
            evaluate_embedding(x, x, metrics=("centroid",))

    def test_row_mismatch_rejected_before_clustering(self):
        # labels are checked against x_high's rows; cluster and knn run on x_low
        x = make_rng(5).standard_normal((15, 2))
        with pytest.raises(InvalidInputError, match="row counts differ"):
            evaluate_embedding(x, x[:14], [0, 1, 2] * 5, metrics=("cluster",))

    def test_unknown_metric(self):
        x = np.zeros((4, 2))
        with pytest.raises(InvalidInputError):
            evaluate_embedding(x, x, metrics=("volume",))


class TestPreservationSuite:
    def test_deterministic_medians_and_fields(self):
        ds = gen_synthetic("spiral", make_rng(0))
        cfg = ModelConfig(seed=5, epochs=40, convergence=None)
        a = run_preservation_suite(ds, cfg, n_runs=3)
        b = run_preservation_suite(ds, cfg, n_runs=3)
        assert a.medians == b.medians
        assert len(a.reports) == 3
        assert [r.seed for r in a.reports] == [5, 6, 7]
        assert set(a.medians) == {
            "distance_spearman",
            "centroid_spearman",
            "area_pearson",
        }

    def test_unlabeled_data_gets_distance_only(self):
        x = make_rng(1).standard_normal((40, 3))
        ds = Dataset(x, name="blob")
        cfg = ModelConfig(seed=1, epochs=20, convergence=None)
        suite = run_preservation_suite(ds, cfg, n_runs=2)
        assert set(suite.medians) == {"distance_spearman"}
