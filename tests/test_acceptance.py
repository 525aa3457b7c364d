"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -s``).

Training runs use epochs=300 with early stopping off: the library's default
early-stop window halts at the first loss plateau, which already clears every
threshold but leaves quality margin on the table (see README for the
calibration notes). All seeds are fixed; the whole suite is deterministic.
"""

import time

import numpy as np
import pytest

import neurodavis as nd
from neurodavis.cli import main as cli_main
from neurodavis.numerics import make_rng
from oracles import (
    oracle_ari,
    oracle_average_linkage,
    oracle_fmi,
    oracle_mwu_exact,
    oracle_pearson,
    oracle_ranks,
)

SYNTH_KINDS = ("elliptic_ring", "olympic", "spiral", "shape")
SYNTH_THRESHOLD = 0.90
LIFT_THRESHOLD = 0.85
CENTROID_THRESHOLD = 0.90
AREA_THRESHOLD = 0.80
HD_RHO_THRESHOLD = 0.85
KNN_MARGIN = 0.25
N_RUNS = 10

RUN_CONFIG = dict(epochs=300, convergence=None)
WINE_CONFIG = dict(epochs=600, learning_rate=5e-2, convergence=None)


def report(ok: bool, text: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def train_suite(ds, seed, **overrides):
    config = nd.ModelConfig(seed=seed, **{**RUN_CONFIG, **overrides})
    return nd.run_preservation_suite(ds, config, n_runs=N_RUNS)


class TestCriterion1SyntheticRoundTrip:
    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_median_distance_rho(self, kind):
        ds = nd.gen_synthetic(kind, make_rng(0))
        started = time.perf_counter()
        suite = train_suite(ds, seed=1000)
        elapsed = time.perf_counter() - started
        median = suite.medians["distance_spearman"]
        ok = median >= SYNTH_THRESHOLD and elapsed < 300
        assert report(
            ok,
            f"criterion 1 [{kind}]: median distance rho {median:.4f} "
            f">= {SYNTH_THRESHOLD} over {N_RUNS} runs in {elapsed:.0f}s (< 300s)",
        )


class TestCriterion2NineDimensionalLift:
    @pytest.mark.parametrize("kind", SYNTH_KINDS)
    def test_median_distance_rho_after_lift(self, kind):
        ds = nd.lift9(nd.gen_synthetic(kind, make_rng(0)))
        suite = train_suite(ds, seed=2000)
        median = suite.medians["distance_spearman"]
        assert report(
            median >= LIFT_THRESHOLD,
            f"criterion 2 [{kind} -> 9D]: median distance rho {median:.4f} "
            f">= {LIFT_THRESHOLD} over {N_RUNS} runs",
        )


class TestCriterion3WorldMapGlobalStructure:
    def test_centroid_and_area_preservation(self):
        ds = nd.gen_synthetic("world_map", make_rng(0))
        suite = train_suite(ds, seed=3000)
        centroid = suite.medians["centroid_spearman"]
        area = suite.medians["area_pearson"]
        ok = centroid >= CENTROID_THRESHOLD and area >= AREA_THRESHOLD
        assert report(
            ok,
            f"criterion 3 [world_map]: median centroid rho {centroid:.4f} "
            f">= {CENTROID_THRESHOLD}, median area r {area:.4f} >= {AREA_THRESHOLD}",
        )


class TestCriterion4PublicHighDimensional:
    """Soft criterion: reports, does not gate, when the tables are missing."""

    @staticmethod
    def _tables():
        try:
            from sklearn.datasets import load_breast_cancer, load_wine
        except ImportError:
            return None
        wine = load_wine()
        cancer = load_breast_cancer()
        return (
            (np.asarray(wine.data, float), np.asarray(wine.target)),
            (np.asarray(cancer.data, float), np.asarray(cancer.target)),
        )

    def test_wine_and_breast_cancer(self):
        tables = self._tables()
        if tables is None:
            print("[SKIP] criterion 4: public tables unavailable (soft, reported)")
            pytest.skip("criterion 4 is soft: dataset source unavailable")
        (wine_x, wine_y), (cancer_x, _) = tables

        wine_rhos, wine_accs = [], []
        for r in range(N_RUNS):
            cfg = nd.ModelConfig(seed=4000 + r, **WINE_CONFIG)
            model, _ = nd.fit(wine_x, cfg)
            emb = nd.embed(model)
            wine_rhos.append(
                nd.distance_preservation(wine_x, emb, rng=make_rng(cfg.seed))
            )
            acc, _ = nd.knn_evaluate(emb, wine_y, k=5, rng=make_rng(cfg.seed))
            wine_accs.append(acc)
        wine_rho = float(np.median(wine_rhos))
        wine_acc = float(np.median(wine_accs))
        majority = float(np.bincount(wine_y).max() / len(wine_y))

        cancer_rhos = []
        for r in range(N_RUNS):
            cfg = nd.ModelConfig(seed=4100 + r, **RUN_CONFIG)
            model, _ = nd.fit(cancer_x, cfg)
            cancer_rhos.append(
                nd.distance_preservation(cancer_x, nd.embed(model), rng=make_rng(cfg.seed))
            )
        cancer_rho = float(np.median(cancer_rhos))

        ok = (
            wine_rho >= HD_RHO_THRESHOLD
            and cancer_rho >= HD_RHO_THRESHOLD
            and wine_acc - majority >= KNN_MARGIN
        )
        assert report(
            ok,
            f"criterion 4: wine rho {wine_rho:.3f} / cancer rho {cancer_rho:.3f} "
            f">= {HD_RHO_THRESHOLD}; wine knn acc {wine_acc:.3f} beats majority "
            f"{majority:.3f} by >= {KNN_MARGIN}",
        )


class TestCriterion5GradientOracle:
    def test_fifty_random_models(self):
        started = time.perf_counter()
        result = nd.check_gradients(n_models=50, rng=make_rng(0))
        elapsed = time.perf_counter() - started
        ok = result.max_rel_error < 1e-4 and elapsed < 30
        assert report(
            ok,
            f"criterion 5: max gradient rel error {result.max_rel_error:.2e} "
            f"< 1e-4 over {result.n_models} models in {elapsed:.1f}s (< 30s)",
        )


class TestCriterion6LemmaSuite:
    def test_thousand_trials(self):
        started = time.perf_counter()
        result = nd.check_lemma1(trials=1000, rng=make_rng(0))
        elapsed = time.perf_counter() - started
        ok = result.max_norm <= 1.0 + 1e-9 and elapsed < 10
        assert report(
            ok,
            f"criterion 6: max |I - eta*W*W^T|_2 = {result.max_norm:.12f} "
            f"<= 1 + 1e-9 over 1000 trials in {elapsed:.1f}s (< 10s)",
        )


class TestCriterion7ContractionSuite:
    def test_twenty_seeded_configurations(self):
        started = time.perf_counter()
        rng = make_rng(7)
        all_monotone = True
        for case in range(20):
            n = int(rng.integers(5, 41))
            d = int(rng.integers(1, 7))
            eta = float(1.0 - rng.uniform(0.0, 1.0))  # (0, 1]
            steps = int(rng.integers(50, 301))
            x = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 3.0))
            x[1] = x[0]  # delta-ball pair (exact duplicate)
            trace = nd.check_theorem1(x, (0, 1), eta=eta, steps=steps, rng=rng)
            all_monotone &= trace.passed
            assert np.all(trace.recon_fro <= 1.0 + 1e-12)
        elapsed = time.perf_counter() - started
        ok = all_monotone and elapsed < 60
        assert report(
            ok,
            f"criterion 7: 20 contraction traces non-increasing (1e-9 rel) "
            f"in {elapsed:.1f}s (< 60s)",
        )


class TestCriterion8Determinism:
    def test_fit_and_plot_bit_identical(self, tmp_path):
        data = tmp_path / "ring.csv"
        assert cli_main(["gen", "--kind", "elliptic_ring", "--seed", "5",
                         "--out", str(data)]) == 0
        emb_files = []
        for tag in ("a", "b"):
            emb = tmp_path / f"emb_{tag}.csv"
            code = cli_main(
                [
                    "fit",
                    "--in", str(data),
                    "--label-col", "label",
                    "--seed", "11",
                    "--epochs", "60",
                    "--out-model", str(tmp_path / f"model_{tag}.json"),
                    "--out-embedding", str(emb),
                    "--out-report", str(tmp_path / f"report_{tag}.json"),
                ]
            )
            assert code == 0
            emb_files.append(emb)
        fit_ok = emb_files[0].read_bytes() == emb_files[1].read_bytes()

        svg_files = []
        for tag in ("a", "b"):
            svg = tmp_path / f"plot_{tag}.svg"
            assert cli_main(
                ["plot", "--embedding", str(emb_files[0]), "--out", str(svg)]
            ) == 0
            svg_files.append(svg)
        plot_ok = svg_files[0].read_bytes() == svg_files[1].read_bytes()

        assert report(
            fit_ok and plot_ok,
            "criterion 8: repeated fit -> bit-identical embedding CSV; "
            "repeated plot -> identical SVG bytes",
        )


class TestCriterion9MetricOracles:
    """Committed n <= 8 fixtures vs the brute-force oracles in ``oracles``.

    Pair-counting results (ARI, FMI, merge structure) must agree exactly;
    correlation oracles reduce in a different summation order, so those
    assert at 1e-12. The rank-sum p is held within 0.15 of exact enumeration
    on these fixtures; the normal approximation has no such bound on tied
    small samples in general.
    """

    SPEARMAN_FIXTURES = [
        ((1.0, 2.0, 2.0, 4.0), (10.0, 20.0, 30.0, 40.0)),
        ((3.0, 1.0, 4.0, 1.0, 5.0), (2.0, 7.0, 1.0, 8.0, 2.0)),
        ((0.0, 0.0, 1.0, 2.0, 2.0, 3.0), (5.0, 4.0, 4.0, 2.0, 1.0, 1.0)),
    ]
    PEARSON_FIXTURES = [
        ((0.5, 2.0, -1.0, 3.5), (1.0, 1.5, -0.5, 2.0)),
        ((1.0, 2.0, 3.0, 4.0, 5.0), (2.0, 1.0, 4.0, 3.0, 6.0)),
    ]
    MWU_FIXTURES = [
        ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
        ((1.0, 1.0, 2.0, 2.0), (2.0, 3.0, 3.0)),
        ((5.0, 1.0, 4.0, 4.0), (2.0, 6.0, 3.0)),
    ]
    LABEL_FIXTURES = [
        ([0, 0, 0, 1, 1, 1, 2, 2], [0, 0, 1, 1, 1, 2, 2, 2]),
        ([0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]),
        ([0, 0, 1, 1, 2, 2, 3, 3], [0, 0, 0, 0, 1, 1, 1, 1]),
        ([0, 0, 0, 0], [0, 1, 2, 3]),
    ]

    def test_all_fixture_oracles(self):
        ok = True
        for a, b in self.SPEARMAN_FIXTURES:
            expected = oracle_pearson(oracle_ranks(a), oracle_ranks(b))
            ok &= abs(nd.spearman_rho(a, b) - expected) <= 1e-12
        for a, b in self.PEARSON_FIXTURES:
            ok &= abs(nd.pearson_r(a, b) - oracle_pearson(a, b)) <= 1e-12
        for a, b in self.MWU_FIXTURES:
            u, p = nd.mann_whitney_u(a, b)
            u_direct = sum(
                1.0 if x > y else (0.5 if x == y else 0.0) for x in a for y in b
            )
            ok &= u == u_direct
            ok &= abs(p - oracle_mwu_exact(a, b)) < 0.15
        for lt, lp in self.LABEL_FIXTURES:
            ok &= nd.ari(lt, lp) == oracle_ari(lt, lp)
            ok &= nd.fmi(lt, lp) == oracle_fmi(lt, lp)
        rng = make_rng(99)
        for n in range(2, 9):
            x = rng.standard_normal((n, 2))
            for k in range(1, n + 1):
                ok &= np.array_equal(
                    nd.agglomerative(x, k), oracle_average_linkage(x, k)
                )
        assert report(
            ok,
            "criterion 9: spearman/pearson/U-test/ARI/FMI/agglomerative match "
            "brute-force oracles on all committed n <= 8 fixtures",
        )
