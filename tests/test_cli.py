import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurodavis
from neurodavis.cli import main, render_scatter_svg
from neurodavis.datasets import load_csv


def run(argv):
    return main(argv)


@pytest.fixture
def spiral_csv(tmp_path):
    path = tmp_path / "spiral.csv"
    assert run(["gen", "--kind", "spiral", "--seed", "7", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_expected_rows(self, spiral_csv):
        ds = load_csv(spiral_csv, label_column="label")
        assert ds.x.shape == (312, 2)
        assert ds.n_classes == 3

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["gen", "--kind", "olympic", "--seed", "3", "--out", str(a)])
        run(["gen", "--kind", "olympic", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_kind_exits_2(self, tmp_path):
        code = run(["gen", "--kind", "moebius", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unwritable_path_exits_2(self, tmp_path):
        out = tmp_path / "missing_dir" / "x.csv"
        assert run(["gen", "--kind", "spiral", "--out", str(out)]) == 2

    def test_lift9_flag(self, tmp_path):
        out = tmp_path / "lifted.csv"
        run(["gen", "--kind", "spiral", "--seed", "1", "--lift9", "--out", str(out)])
        ds = load_csv(out, label_column="label")
        assert ds.x.shape == (312, 9)


class TestFit:
    def _fit(self, tmp_path, csv_path, seed="1", extra=()):
        out = [
            "fit",
            "--in", str(csv_path),
            "--label-col", "label",
            "--seed", seed,
            "--epochs", "5",
            "--no-early-stop",
            "--out-model", str(tmp_path / "m.json"),
            "--out-embedding", str(tmp_path / "e.csv"),
            "--out-report", str(tmp_path / "r.json"),
        ]
        out.extend(extra)
        return run(out)

    def test_outputs_written(self, tmp_path, spiral_csv):
        assert self._fit(tmp_path, spiral_csv) == 0
        emb = load_csv(tmp_path / "e.csv")
        assert emb.x.shape == (312, 2)
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["epochs_run"] == 5
        assert len(report["loss"]["total"]) == 5
        model = json.loads((tmp_path / "m.json").read_text())
        assert model["format"] == "neurodavis-checkpoint"

    def test_config_echoed(self, tmp_path, spiral_csv):
        self._fit(
            tmp_path,
            spiral_csv,
            extra=["--hidden", "8,8", "--alpha", "1e-6", "--beta", "1e-4"],
        )
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["hidden_widths"] == [8, 8]
        assert report["config"]["alpha"] == 1e-6
        assert report["config"]["beta"] == 1e-4

    def test_rerun_bit_identical_embedding(self, tmp_path, spiral_csv):
        self._fit(tmp_path, spiral_csv)
        first = (tmp_path / "e.csv").read_bytes()
        self._fit(tmp_path, spiral_csv)
        assert (tmp_path / "e.csv").read_bytes() == first

    def _fit_process(self, out, csv_path, threads):
        """Embedding bytes of a CLI fit in a fresh interpreter whose BLAS
        thread count is set before it starts (BLAS reads it when numpy
        loads it)."""
        src = str(Path(neurodavis.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        out.mkdir()
        argv = [
            sys.executable, "-m", "neurodavis.cli", "fit",
            "--in", str(csv_path),
            "--label-col", "label",
            "--epochs", "20",
            "--no-early-stop",
            "--out-model", str(out / "m.json"),
            "--out-embedding", str(out / "e.csv"),
            "--out-report", str(out / "r.json"),
        ]
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
        return (out / "e.csv").read_bytes()

    def test_processes_with_equal_thread_count_bit_identical(self, tmp_path, spiral_csv):
        # The contract is (seed, BLAS thread count, numpy build).
        a = self._fit_process(tmp_path / "a", spiral_csv, "1")
        b = self._fit_process(tmp_path / "b", spiral_csv, "1")
        assert a == b

    def test_one_and_two_blas_threads_bit_identical(self, tmp_path, spiral_csv):
        # At default widths ((16, 16) for 2-D data) the products are too
        # small for BLAS to split across threads.
        a = self._fit_process(tmp_path / "one", spiral_csv, "1")
        b = self._fit_process(tmp_path / "two", spiral_csv, "2")
        assert a == b


    def test_divergence_exits_3_with_report(self, tmp_path, spiral_csv):
        with np.errstate(over="ignore", invalid="ignore"):
            code = self._fit(tmp_path, spiral_csv, extra=["--lr", "1e300"])
        assert code == 3
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["diverged"] is True

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["fit", "--in", str(tmp_path / "nope.csv")]) == 2

    def test_non_integer_hidden_exits_2(self, tmp_path, spiral_csv, capsys):
        assert self._fit(tmp_path, spiral_csv, extra=["--hidden", "a,b"]) == 2
        assert "error: argument --hidden" in capsys.readouterr().err

    def test_nan_alpha_exits_2(self, tmp_path, spiral_csv, capsys):
        assert self._fit(tmp_path, spiral_csv, extra=["--alpha", "nan"]) == 2
        assert "error: alpha, beta and learning_rate must be finite" in capsys.readouterr().err

    def test_nan_rel_tol_exits_2(self, tmp_path, spiral_csv, capsys):
        argv = ["fit", "--in", str(spiral_csv), "--epochs", "5", "--rel-tol", "nan"]
        assert run(argv) == 2
        assert "error: convergence rel_tol must be finite" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spiral.csv"]

    @pytest.mark.parametrize("flag", ["--out-report", "--out-model", "--out-embedding"])
    def test_unwritable_output_exits_2(self, tmp_path, spiral_csv, capsys, flag):
        target = tmp_path / "missing_dir" / "out"
        assert self._fit(tmp_path, spiral_csv, extra=[flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        # checked before training: no output of the run was written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spiral.csv"]


    def test_non_finite_label_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("x,y,label\n0,0,0\n1,0,inf\n0,1,1\n1,1,1\n")
        assert run(["fit", "--in", str(path), "--label-col", "label", "--epochs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and "row 3, column 3" in err


class TestEval:
    @staticmethod
    def _strip_labels(tmp_path, csv_path):
        """Copy of the dataset without its label column (an 'embedding')."""
        from neurodavis.datasets import Dataset, save_csv

        ds = load_csv(csv_path, label_column="label")
        out = tmp_path / "coords.csv"
        save_csv(Dataset(ds.x, feature_names=ds.feature_names), out)
        return out

    def test_self_evaluation_rho_one(self, tmp_path, spiral_csv):
        low = self._strip_labels(tmp_path, spiral_csv)
        out = tmp_path / "report.json"
        code = run(
            [
                "eval",
                "--high", str(spiral_csv),
                "--low", str(low),
                "--label-col", "label",
                "--metrics", "distance,centroid,area",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        metrics = doc["runs"][0]["metrics"]
        assert metrics["distance_spearman"] == pytest.approx(1.0)
        assert metrics["centroid_spearman"] == pytest.approx(1.0)
        assert metrics["area_pearson"] == pytest.approx(1.0)
        assert set(doc["medians"]) == set(metrics)

    def test_compare_emits_u_and_p(self, tmp_path, spiral_csv):
        low = self._strip_labels(tmp_path, spiral_csv)
        ds = load_csv(spiral_csv, label_column="label")
        rng = np.random.default_rng(0)
        other = tmp_path / "other.csv"
        noisy = ds.x + rng.normal(0, 0.5, ds.x.shape)
        np.savetxt(other, noisy, delimiter=",", header="x,y", comments="")
        out = tmp_path / "report.json"
        code = run(
            [
                "eval",
                "--high", str(spiral_csv),
                "--low", str(low),
                "--compare", str(other),
                "--runs", "5",
                "--pair-budget", "2000",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        comparison = doc["comparison"]["distance_spearman"]
        assert 0.0 <= comparison["mw_p"] <= 1.0
        assert comparison["mw_u"] == 25.0  # identity beats noisy in all 5x5 pairs
        assert len(doc["runs"]) == 5

    def test_row_mismatch_exits_2(self, tmp_path, spiral_csv):
        short = tmp_path / "short.csv"
        short.write_text("x,y\n1,2\n3,4\n")
        assert run(["eval", "--high", str(spiral_csv), "--low", str(short)]) == 2

    def test_unwritable_out_exits_2(self, tmp_path, spiral_csv, capsys):
        low = self._strip_labels(tmp_path, spiral_csv)
        out = tmp_path / "missing_dir" / "e.json"
        argv = ["eval", "--high", str(spiral_csv), "--low", str(low), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err

    def test_non_numeric_high_cell_exits_2(self, tmp_path, spiral_csv, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n3,oops\n")
        assert run(["eval", "--high", str(bad), "--low", str(spiral_csv)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 3, column 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_exits_2(self, tmp_path, spiral_csv, capsys, runs):
        argv = ["eval", "--high", str(spiral_csv), "--low", str(spiral_csv), "--runs", runs]
        assert run(argv) == 2
        assert "error: argument --runs: must be > 0" in capsys.readouterr().err


class TestPlot:
    def _embedding(self, tmp_path, n=20, with_labels=True):
        path = tmp_path / ("emb_labeled.csv" if with_labels else "emb.csv")
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((n, 2))
        if with_labels:
            labels = rng.integers(0, 3, n)
            rows = ["x,y,label"] + [
                f"{p[0]},{p[1]},{l}" for p, l in zip(pts, labels)
            ]
        else:
            rows = ["x,y"] + [f"{p[0]},{p[1]}" for p in pts]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_circle_count(self, tmp_path):
        emb = self._embedding(tmp_path, n=23)
        out = tmp_path / "plot.svg"
        code = run(
            ["plot", "--embedding", str(emb), "--labels", str(emb), "--out", str(out)]
        )
        assert code == 0
        svg = out.read_text()
        assert svg.count("<circle") == 23
        assert svg.startswith("<svg")

    def test_identical_bytes(self, tmp_path):
        emb = self._embedding(tmp_path, with_labels=False)
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        run(["plot", "--embedding", str(emb), "--out", str(a)])
        run(["plot", "--embedding", str(emb), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_non_2d_exits_2(self, tmp_path):
        path = tmp_path / "e3.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n")
        assert run(["plot", "--embedding", str(path), "--out", str(tmp_path / "o.svg")]) == 2

    def test_empty_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        assert run(["plot", "--embedding", str(path), "--out", str(tmp_path / "o.svg")]) == 2

    def test_ragged_label_file_exits_2(self, tmp_path, capsys):
        emb = self._embedding(tmp_path, n=3, with_labels=False)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("label\n0\n1,2\n0\n")
        out = tmp_path / "o.svg"
        argv = ["plot", "--embedding", str(emb), "--labels", str(ragged), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ragged row") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--width", "-5"), ("--height", "0"), ("--point-radius", "0"), ("--point-radius", "-1")],
    )
    def test_non_positive_size_exits_2(self, tmp_path, capsys, flag, value):
        emb = self._embedding(tmp_path)
        out = tmp_path / "o.svg"
        assert run(["plot", "--embedding", str(emb), "--out", str(out), flag, value]) == 2
        assert f"error: argument {flag}: must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_label_colors_from_palette(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        svg = render_scatter_svg(pts, labels=[0, 1, 2])
        assert '#1f77b4' in svg and '#ff7f0e' in svg and '#2ca02c' in svg


class TestCheck:
    def test_lemma1(self, capsys):
        assert run(["check", "--which", "lemma1", "--seed", "0", "--trials", "50"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradients(self, capsys):
        assert run(["check", "--which", "gradients", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradients_other_seed(self, capsys):
        assert run(["check", "--which", "gradients", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_theorem1(self, capsys):
        assert run(["check", "--which", "theorem1", "--seed", "0"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run(["gen", "--kind", "spiral", "--out", "x.csv", "--bogus"]) == 2

    def test_no_command_rejected(self):
        assert run([]) == 2
