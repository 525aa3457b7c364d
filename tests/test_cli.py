import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurodavis
import neurodavis.analysis
import neurodavis.cli
from neurodavis.analysis import CHECKS, METRICS, evaluate_embedding
from neurodavis.cli import _model_config, build_parser, main, render_scatter_svg
from neurodavis.datasets import SYNTHETIC_KINDS, load_csv
from neurodavis.errors import InvalidInputError
from neurodavis.metrics import DEFAULT_PAIR_BUDGET
from neurodavis.model import Convergence, ModelConfig
from neurodavis.numerics import make_rng


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
        assert (model["format"], model["version"]) == ("neurodavis-checkpoint", 4)
        # the embedding CSV is the checkpoint's latent table, bit for bit
        table = model["params"]["latent_table"]
        latent = np.reshape(np.asarray(table["data"], dtype=np.float64), table["shape"])
        assert latent.tobytes() == emb.x.tobytes()

    def test_config_echoed(self, tmp_path, spiral_csv):
        self._fit(
            tmp_path,
            spiral_csv,
            extra=["--hidden", "8,8", "--alpha", "1e-6", "--beta", "1e-4",
                   "--k", "3", "--lr", "0.01"],
        )
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["latent_dim"] == 3
        assert report["config"]["learning_rate"] == 0.01
        assert report["config"]["hidden_widths"] == [8, 8]
        assert report["config"]["alpha"] == 1e-6
        assert report["config"]["beta"] == 1e-4

    def test_rerun_bit_identical_embedding(self, tmp_path, spiral_csv):
        self._fit(tmp_path, spiral_csv)
        first = (tmp_path / "e.csv").read_bytes()
        self._fit(tmp_path, spiral_csv)
        assert (tmp_path / "e.csv").read_bytes() == first

    def _fit_process(self, out, csv_path, threads, extra=()):
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
            *extra,
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

    def test_width_96_one_and_two_blas_threads_bit_identical(self, tmp_path, spiral_csv):
        # 96 is the widest hidden layer measured to give equal bytes under 1
        # and 2 OpenBLAS threads; from 128 on the bytes differ.
        hidden = ["--hidden", "96,96"]
        a = self._fit_process(tmp_path / "one", spiral_csv, "1", hidden)
        b = self._fit_process(tmp_path / "two", spiral_csv, "2", hidden)
        assert a == b

    def test_divergence_exits_3_with_report(self, tmp_path, spiral_csv):
        code = self._fit(tmp_path, spiral_csv, extra=["--lr", "1e300"])
        assert code == 3

        def reject(token):  # RFC 8259 has no NaN or Infinity
            raise ValueError(f"{token} in the report")

        report = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
        assert report["diverged"] is True
        assert report["loss"]["total"][-1] is None

    def test_missing_input_exits_2(self, tmp_path):
        assert run(["fit", "--in", str(tmp_path / "nope.csv")]) == 2

    def test_hidden_none_fits_a_linear_decoder(self, tmp_path, spiral_csv):
        assert self._fit(tmp_path, spiral_csv, extra=["--hidden", "none"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["config"]["hidden_widths"] == []

    @pytest.mark.parametrize("hidden", ["", " "])
    def test_blank_hidden_exits_2(self, tmp_path, spiral_csv, capsys, hidden):
        # 'none' is the one spelling of no hidden layers
        assert self._fit(tmp_path, spiral_csv, extra=["--hidden", hidden]) == 2
        assert "error: argument --hidden" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spiral.csv"]

    def test_non_integer_hidden_exits_2(self, tmp_path, spiral_csv, capsys):
        assert self._fit(tmp_path, spiral_csv, extra=["--hidden", "a,b"]) == 2
        assert "error: argument --hidden" in capsys.readouterr().err

    def test_nan_alpha_exits_2(self, tmp_path, spiral_csv, capsys):
        assert self._fit(tmp_path, spiral_csv, extra=["--alpha", "nan"]) == 2
        assert "error: alpha must be a finite real >= 0, got nan" in capsys.readouterr().err

    def test_nan_rel_tol_exits_2(self, tmp_path, spiral_csv, capsys):
        argv = ["fit", "--in", str(spiral_csv), "--epochs", "5", "--rel-tol", "nan"]
        assert run(argv) == 2
        assert "error: convergence rel_tol must be a finite real >= 0" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spiral.csv"]

    @pytest.mark.parametrize("flag", ["--out-report", "--out-model", "--out-embedding"])
    def test_unwritable_output_exits_2(self, tmp_path, spiral_csv, capsys, flag):
        target = tmp_path / "missing_dir" / "out"
        assert self._fit(tmp_path, spiral_csv, extra=[flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err
        # checked before training: no output of the run was written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spiral.csv"]

    @pytest.mark.parametrize("flag", ["--out-report", "--out-model", "--out-embedding"])
    def test_directory_output_exits_2_before_training(
        self, tmp_path, spiral_csv, capsys, monkeypatch, flag
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the output paths were checked")

        monkeypatch.setattr(neurodavis.cli, "fit", no_fit)
        target = tmp_path / "outdir"
        target.mkdir()
        assert self._fit(tmp_path, spiral_csv, extra=[flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "spiral.csv"]
        assert list(target.iterdir()) == []

    def test_non_finite_label_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.csv"
        path.write_text("x,y,label\n0,0,0\n1,0,inf\n0,1,1\n1,1,1\n")
        assert run(["fit", "--in", str(path), "--label-col", "label", "--epochs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and "row 3, column 3" in err

    def test_digit_label_col_is_a_header_name(self, tmp_path, spiral_csv, capsys):
        argv = ["fit", "--in", str(spiral_csv), "--label-col", "2", "--epochs", "2"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not found in header" in err


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

    def test_knn_and_cluster_far_from_unit_scale(self, tmp_path, spiral_csv, capsys):
        # an embedding at 2**531 scores as the same embedding at unit scale;
        # unscaled, its squared distances overflow and k-means++ seeding stops
        # on NaN probabilities
        from neurodavis.datasets import Dataset, save_csv

        ds = load_csv(spiral_csv, label_column="label")
        reports = []
        for power in (0, 531):
            low = tmp_path / f"low{power}.csv"
            save_csv(Dataset(np.ldexp(ds.x, power), feature_names=ds.feature_names), low)
            argv = ["eval", "--high", str(spiral_csv), "--low", str(low),
                    "--label-col", "label", "--metrics", "knn,cluster"]
            assert run(argv) == 0
            reports.append(json.loads(capsys.readouterr().out)["runs"])
        assert reports[1] == reports[0]

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

    def test_report_is_built_from_seeded_runs(self, tmp_path, spiral_csv, capsys):
        low = self._strip_labels(tmp_path, spiral_csv)
        high = load_csv(spiral_csv, label_column="label")
        other = tmp_path / "other.csv"
        noisy = high.x + np.random.default_rng(0).normal(0, 0.5, high.x.shape)
        np.savetxt(other, noisy, delimiter=",", header="x,y", comments="")
        argv = ["eval", "--high", str(spiral_csv), "--low", str(low), "--label-col", "label",
                "--metrics", ",".join(METRICS), "--runs", "3", "--seed", "4",
                "--pair-budget", "5000"]
        assert run([*argv, "--compare", str(other)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["schema", "high", "low", "seed", "metrics_requested",
                             "runs", "medians", "compare", "comparison"]
        for r, entry in enumerate(doc["runs"]):
            assert list(entry) == ["seed", "metrics", "compare_metrics"]
            assert entry["seed"] == 4 + r
            for key, emb in (("metrics", low), ("compare_metrics", other)):
                assert entry[key] == evaluate_embedding(
                    high.x, load_csv(emb).x, labels=high.labels, metrics=METRICS,
                    pair_budget=5000, rng=make_rng(4 + r),
                )
        assert doc["medians"] == {
            key: float(np.median([entry["metrics"][key] for entry in doc["runs"]]))
            for key in doc["runs"][0]["metrics"]
        }
        assert list(doc["comparison"]) == list(doc["medians"])
        assert run(argv) == 0
        alone = json.loads(capsys.readouterr().out)
        assert alone["runs"] == [
            {"seed": entry["seed"], "metrics": entry["metrics"]} for entry in doc["runs"]
        ]
        assert list(alone) == list(doc)[:-2]

    def test_without_out_prints_the_report(self, tmp_path, spiral_csv, capsys):
        low = self._strip_labels(tmp_path, spiral_csv)
        argv = ["eval", "--high", str(spiral_csv), "--low", str(low), "--label-col", "label"]
        assert run(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "neurodavis-eval-report/1"
        assert doc["medians"]["distance_spearman"] == pytest.approx(1.0)

    def test_unknown_metric_exits_2_before_drawing(
        self, tmp_path, spiral_csv, capsys, monkeypatch
    ):
        made = []

        def recording_make_rng(seed):
            made.append((seed, make_rng(seed)))
            return made[-1][1]

        monkeypatch.setattr(neurodavis.cli, "make_rng", recording_make_rng)
        low = self._strip_labels(tmp_path, spiral_csv)
        argv = ["eval", "--high", str(spiral_csv), "--low", str(low),
                "--metrics", "distance,bogus", "--pair-budget", "3"]
        assert run(argv) == 2
        assert "error: unknown metric 'bogus'" in capsys.readouterr().err
        # a budget of 3 pairs samples, so distance would have advanced the rng
        assert made
        for seed, rng in made:
            fresh = make_rng(seed).bit_generator.state
            assert repr(rng.bit_generator.state) == repr(fresh)

    def test_empty_metric_list_exits_2(self, tmp_path, spiral_csv, capsys):
        out = tmp_path / "e.json"
        argv = ["eval", "--high", str(spiral_csv), "--low", str(spiral_csv),
                "--metrics", ",", "--out", str(out)]
        assert run(argv) == 2
        assert "error: metrics must name each selection once" in capsys.readouterr().err
        assert not out.exists()

    def test_row_mismatch_exits_2(self, tmp_path, spiral_csv, capsys):
        short = tmp_path / "short.csv"
        short.write_text("x,y\n1,2\n3,4\n")
        assert run(["eval", "--high", str(spiral_csv), "--low", str(short)]) == 2
        assert "error: row counts differ: 312 vs 2" in capsys.readouterr().err

    def test_compare_row_mismatch_writes_no_report(self, tmp_path, spiral_csv, capsys):
        short = tmp_path / "short.csv"
        short.write_text("x,y\n1,2\n3,4\n")
        out = tmp_path / "e.json"
        argv = ["eval", "--high", str(spiral_csv), "--low", str(spiral_csv),
                "--compare", str(short), "--out", str(out)]
        assert run(argv) == 2
        assert "error: row counts differ: 312 vs 2" in capsys.readouterr().err
        assert not out.exists()

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
        assert f"error: runs must be an integer >= 1, got {runs}" in capsys.readouterr().err

    def test_runs_checked_before_reading_files(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert run(["eval", "--high", missing, "--low", missing, "--runs", "0"]) == 2
        assert "error: runs must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_closed_stdout_exits_1_silently(self, tmp_path):
        # a report larger than the pipe's buffer, so eval is still writing
        # when the reader closes its end
        data = tmp_path / "tiny.csv"
        pts = make_rng(3).standard_normal((12, 2))
        data.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in pts))
        src = str(Path(neurodavis.__file__).resolve().parent.parent)
        argv = [sys.executable, "-m", "neurodavis.cli", "eval",
                "--high", str(data), "--low", str(data), "--runs", "2000"]
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
        assert err == b""


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

    def test_same_file_however_spelled(self, tmp_path, monkeypatch):
        # the embedding file doubles as the labels file under any spelling of
        # its path; read as a separate labels file its label column would
        # count as a third coordinate
        emb = self._embedding(tmp_path, n=9)
        monkeypatch.chdir(tmp_path)
        svgs = []
        for i, spelling in enumerate([emb.name, f"./{emb.name}", str(emb)]):
            out = tmp_path / f"o{i}.svg"
            argv = ["plot", "--embedding", emb.name, "--labels", spelling, "--out", str(out)]
            assert run(argv) == 0, spelling
            svgs.append(out.read_bytes())
        assert svgs[1] == svgs[0] and svgs[2] == svgs[0]
        ds = load_csv(emb, label_column="label")
        assert svgs[0].decode() == render_scatter_svg(ds.x, ds.labels)

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

    def test_label_file_row_count_mismatch_exits_2(self, tmp_path, capsys):
        emb = self._embedding(tmp_path, n=5, with_labels=False)
        labels = self._embedding(tmp_path, n=4)
        out = tmp_path / "o.svg"
        argv = ["plot", "--embedding", str(emb), "--labels", str(labels), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "error: labels must be one id per row: got shape (4,) for 5 rows" in err
        assert not out.exists()

    def test_separate_label_file_colors_points(self, tmp_path):
        emb = self._embedding(tmp_path, n=6, with_labels=False)
        labels = self._embedding(tmp_path, n=6)
        out = tmp_path / "o.svg"
        argv = ["plot", "--embedding", str(emb), "--labels", str(labels), "--out", str(out)]
        assert run(argv) == 0
        ids = load_csv(labels, label_column="label").labels
        assert out.read_text() == render_scatter_svg(load_csv(emb).x, ids)

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

    def test_default_svg_bytes_pinned(self):
        pts = make_rng(11).standard_normal((40, 2))
        labels = np.arange(40) % 4
        svg = render_scatter_svg(pts, labels).encode()
        digest = "e809768bd3131f8d7f2ca7d5d9c8773272f70eaae631da991c88f6ce9515d20b"
        assert hashlib.sha256(svg).hexdigest() == digest

    @pytest.mark.parametrize(
        "points, labels, message",
        [
            (np.zeros((3, 3)), None, "plot needs a 2-D embedding, got d=3"),
            (np.zeros(3), None, "points must be 2-D"),
            (np.zeros((3, 2)), [0, 1], "labels must be one id per row"),
            (np.zeros((3, 2)), [0, 2, 2], "class ids must be dense from 0"),
            (np.empty((0, 2)), None, "plot needs at least one point"),
        ],
        ids=["three_columns", "1-d", "label_count", "sparse_ids", "no_rows"],
    )
    def test_renderer_checks_its_inputs(self, points, labels, message):
        with pytest.raises(InvalidInputError, match=message):
            render_scatter_svg(points, labels)

    def test_far_apart_points_draw_as_at_unit_scale(self):
        # unscaled, the x extent of these points overflows to inf and the
        # first circle reads cx="nan"
        pts = np.array([[1.5e308, 0.0], [-1.5e308, 1.0], [0.0, 0.5]])
        with np.errstate(all="raise"):
            svg = render_scatter_svg(pts)
        assert "nan" not in svg
        assert svg == render_scatter_svg(pts * 2.0**-1000)

    def test_label_colors_from_palette(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        svg = render_scatter_svg(pts, labels=[0, 1, 2])
        assert '#1f77b4' in svg and '#ff7f0e' in svg and '#2ca02c' in svg


# stdout of `check --which W --seed S` under one BLAS thread (lemma1 at seed 0
# with --trials 50, as TestCheck.test_lemma1 runs it)
CHECK_LINES = {
    ("lemma1", 0): "lemma1: max |I - eta*W*W^T|_2 over 50 trials = 1.000000000000 "
    "(bound 1 + 1e-09): PASS",
    ("lemma1", 1): "lemma1: max |I - eta*W*W^T|_2 over 1000 trials = 1.000000000000 "
    "(bound 1 + 1e-09): PASS",
    ("theorem1", 0): "theorem1: gap 0.008936 -> 0.000049 over 200 steps, "
    "monotone non-increasing: PASS",
    ("theorem1", 1): "theorem1: gap 0.003065 -> 0.000042 over 200 steps, "
    "monotone non-increasing: PASS",
    ("gradients", 0): "gradients: max relative error over 20 models = 3.53e-08 "
    "(tolerance 0.0001): PASS",
    ("gradients", 1): "gradients: max relative error over 20 models = 3.62e-07 "
    "(tolerance 0.0001): PASS",
}

# Each check's result made to fail: Lemma 1's bound broken, the contraction
# trace run backwards (so it grows), the oracle's error above its tolerance.
SPOIL = {
    "lemma1": lambda r: dataclasses.replace(r, max_norm=2.0),
    "theorem1": lambda r: dataclasses.replace(r, gaps=r.gaps[::-1]),
    "gradients": lambda r: dataclasses.replace(r, max_rel_error=1.0),
}


class TestCheck:
    def _prints(self, capsys, argv, which, seed):
        assert run(["check", "--which", which, "--seed", str(seed), *argv]) == 0
        assert capsys.readouterr().out == CHECK_LINES[which, seed] + "\n"

    def test_lemma1(self, capsys):
        self._prints(capsys, ["--trials", "50"], "lemma1", 0)

    def test_lemma1_other_seed(self, capsys):
        self._prints(capsys, [], "lemma1", 1)

    def test_gradients(self, capsys):
        self._prints(capsys, [], "gradients", 0)

    def test_gradients_other_seed(self, capsys):
        self._prints(capsys, [], "gradients", 1)

    def test_theorem1(self, capsys):
        self._prints(capsys, [], "theorem1", 0)

    def test_theorem1_other_seed(self, capsys):
        self._prints(capsys, [], "theorem1", 1)

    @pytest.mark.parametrize("which", list(SPOIL))
    def test_failed_check_exits_3(self, monkeypatch, capsys, which):
        real = getattr(neurodavis.analysis, f"check_{which}")
        monkeypatch.setattr(
            neurodavis.analysis, f"check_{which}", lambda *a, **k: SPOIL[which](real(*a, **k))
        )
        trials = ["--trials", "5"] if which == "lemma1" else []
        assert run(["check", "--which", which, *trials]) == 3
        out = capsys.readouterr().out
        assert out.startswith(f"{which}: ") and out.endswith(": FAIL\n")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("trials", ["0", "5"])
    @pytest.mark.parametrize("which", ["theorem1", "gradients"])
    def test_trials_is_lemma1_only(self, capsys, which, trials):
        assert run(["check", "--which", which, "--trials", trials]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --trials applies to --which lemma1 only, not {which}\n"


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run(["gen", "--kind", "spiral", "--out", "x.csv", "--bogus"]) == 2

    def test_no_command_rejected(self):
        assert run([]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--kind", "spiral", "--out", "{dir}/x.csv"],
            ["fit", "--in", "{csv}", "--epochs", "2"],
            ["eval", "--high", "{csv}", "--low", "{csv}"],
            ["check", "--which", "lemma1"],
            ["check", "--which", "theorem1"],
            ["check", "--which", "gradients"],
        ],
        ids=["gen", "fit", "eval", "lemma1", "theorem1", "gradients"],
    )
    def test_negative_seed_exits_2(self, tmp_path, spiral_csv, capsys, argv):
        argv = [a.format(dir=tmp_path, csv=spiral_csv) for a in argv]
        assert run([*argv, "--seed", "-1"]) == 2
        assert "error: seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--in", "{csv}", "--epochs", "2"], ["eval", "--high", "{csv}", "--low", "{csv}"]],
        ids=["fit", "eval"],
    )
    def test_header_wider_than_rows_exits_2(self, tmp_path, capsys, argv):
        # the header fixes the width, so a named label column is never past a row
        path = tmp_path / "short.csv"
        path.write_text("x,y,label\n1,2\n3,4\n")
        assert run([a.format(csv=path) for a in argv] + ["--label-col", "label"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ragged row 2" in err
        assert "Traceback" not in err

    def test_fit_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["fit", "--in", "x.csv"])
        assert _model_config(args) == ModelConfig()

    def test_every_config_field_has_a_fit_flag(self):
        # convergence is built from its own fields' flags
        args = vars(build_parser().parse_args(["fit", "--in", "x.csv"]))
        fields = {f.name for cls in (ModelConfig, Convergence) for f in dataclasses.fields(cls)}
        assert sorted(fields - {"convergence"} - set(args)) == []

    def test_gen_kinds_are_the_library_kinds(self, capsys):
        assert run(["gen", "--help"]) == 0
        assert "--kind {" + ",".join(SYNTHETIC_KINDS) + "}" in capsys.readouterr().out

    def test_eval_metrics_help_lists_the_library_metrics(self, capsys):
        assert run(["eval", "--help"]) == 0
        assert f"comma list from: {','.join(METRICS)}" in capsys.readouterr().out

    def test_every_option_list_comes_from_the_library(self):
        def options(parser):
            return {opt: a for a in parser._actions for opt in a.option_strings}

        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert tuple(options(commands["gen"])["--kind"].choices) == SYNTHETIC_KINDS
        assert tuple(options(commands["check"])["--which"].choices) == tuple(CHECKS)
        metrics_help = options(commands["eval"])["--metrics"].help
        assert all(name in metrics_help for name in METRICS)

    def test_eval_pair_budget_default_is_the_library_default(self):
        args = build_parser().parse_args(["eval", "--high", "a.csv", "--low", "b.csv"])
        assert args.pair_budget == DEFAULT_PAIR_BUDGET
