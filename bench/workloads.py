"""The benchmark's three workloads: inputs from the seed, one operation, and
the checks on its outputs.

A workload's operation is the unit the run repeats and times (``wall_s``).
Library calls go through module attributes (``neurodavis.analysis.fit``
rather than a name imported into this file), so the probes reach them.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import neurodavis
import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 170

# The acceptance configuration the ROADMAP names for timing fit.
ACCEPTANCE = dict(epochs=300, convergence=None)


@dataclass
class Context:
    seed: int
    smoke: bool
    env: dict
    traced: bool = False
    configs: list = field(default_factory=list)  # provenance: configs run


@dataclass
class Workload:
    name: str
    why: str
    setup_code: str  # what a fresh interpreter runs after importing neurodavis
    prepare: callable  # (ctx) -> state, in-process inputs
    op: callable  # (ctx, rec, state) -> {metric: value} measured by the op


def measure_setup(wl: Workload, ctx: Context, repeats: int) -> list[float]:
    """Seconds to import the package and make the inputs, each sample in a
    fresh interpreter."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "import neurodavis as nd\n"
        f"{wl.setup_code.format(seed=ctx.seed)}\n"
        "print(time.perf_counter() - t0)\n"
    )
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=ctx.env, cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _config(ctx: Context, **overrides):
    config = neurodavis.ModelConfig(seed=ctx.seed, **overrides)
    ctx.configs.append({"config": config.to_dict(), "config_hash": config.config_hash()})
    return config


# ---------------------------------------------------------------- suite-spiral

def _suite_prepare(ctx: Context):
    ds = neurodavis.datasets.gen_synthetic("spiral", neurodavis.make_rng(ctx.seed))
    acceptance = dict(ACCEPTANCE, epochs=2) if ctx.smoke else ACCEPTANCE
    return ds, _config(ctx, **acceptance), 2 if ctx.smoke else 10


def _suite_op(ctx: Context, rec: probe.Recorder, state) -> dict:
    ds, config, runs = state
    result = neurodavis.analysis.run_preservation_suite(ds, config, n_runs=runs)
    seeds = [rep.seed for rep in result.reports]
    problems = []
    if seeds != list(range(config.seed, config.seed + runs)):
        problems.append(f"run seeds {seeds}")
    if set(result.medians) != {"distance_spearman", "centroid_spearman", "area_pearson"}:
        problems.append(f"suite metrics {sorted(result.medians)}")
    rec.check("run_preservation_suite", problems)
    return {}


# ---------------------------------------------------- pipeline-world_map-lift9

def _pipeline_prepare(ctx: Context):
    ds = neurodavis.datasets.gen_synthetic("world_map", neurodavis.make_rng(ctx.seed))
    ds = neurodavis.datasets.lift9(ds)
    acceptance = ACCEPTANCE
    if ctx.smoke:  # every 10th row keeps all five continents
        ds = neurodavis.Dataset(ds.x[::10], labels=ds.labels[::10], name=ds.name)
        acceptance = dict(ACCEPTANCE, epochs=2)
    return ds, _config(ctx, **acceptance)


def _pipeline_op(ctx: Context, rec: probe.Recorder, state) -> dict:
    ds, config = state
    model, _ = neurodavis.model.fit(ds.x, config)
    neurodavis.analysis.evaluate_embedding(
        ds.x,
        neurodavis.model.embed(model),
        labels=ds.labels,
        metrics=("distance", "centroid", "knn", "cluster"),
        rng=neurodavis.make_rng(config.seed),
    )
    return {}


# ---------------------------------------------------------------- cli-olympic

def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Independent re-parse of a CSV the CLI wrote: header and float matrix."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(c) for c in row] for row in rows[1:]], dtype=np.float64)
    return rows[0], data


def _cli(ctx: Context, rec: probe.Recorder, name: str, argv: list[str]):
    """One CLI subprocess under the launcher. Returns (seconds, stdout,
    problems, record); the child's spans hang under a ``process.<name>`` span."""
    record_path = OUT / "cli" / f"{name}.record.json"
    cmd = [sys.executable, str(BENCH / "launch.py"), str(record_path),
           "1" if ctx.traced else "0", "--", *argv]
    index = len(rec.spans)
    with rec.span(f"process.{name}") as span:
        try:
            done = subprocess.run(cmd, env=ctx.env, cwd=OUT / "cli", capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            done = None
    seconds = (span[2] - span[1]) / 1e9
    if done is None:
        return seconds, "", [f"timed out after {CHILD_TIMEOUT_S} s"], {}
    problems = []
    if done.returncode != 0:
        problems.append(f"exit code {done.returncode}: {done.stderr.strip()[-300:]}")
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        return seconds, done.stdout, problems + [f"no launcher record: {exc}"], {}
    rec.merge_child(record, index, f"cli.{name}")
    return seconds, done.stdout, problems, record


def _cli_prepare(ctx: Context):
    kind, n = ("spiral", 312) if ctx.smoke else ("olympic", 2500)
    fit_flags = ["--epochs", "2"] if ctx.smoke else []  # CLI defaults: early stop on
    lemma_flags = ["--trials", "20"] if ctx.smoke else []
    return kind, n, fit_flags, lemma_flags


def _cli_op(ctx: Context, rec: probe.Recorder, state) -> dict:
    kind, n, fit_flags, lemma_flags = state
    work = OUT / "cli"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seed = str(ctx.seed)
    times, peak_kb = {}, 0

    def step(name, argv, check_outputs):
        nonlocal peak_kb
        seconds, stdout, problems, record = _cli(ctx, rec, name, argv)
        times[name] = seconds
        peak_kb = max(peak_kb, record.get("maxrss_kb", 0))
        if not problems:
            try:
                problems += check_outputs(stdout)
            except (OSError, ValueError, KeyError, TypeError, ET.ParseError) as exc:
                problems.append(f"output does not re-parse: {exc!r}")
        rec.check(f"cli {name}", problems)
        return not problems

    def gen_ok(_):
        header, data = _read_csv(work / "data.csv")
        problems = [] if data.shape == (n, 3) and header == ["x", "y", "label"] else [
            f"data.csv has header {header} and shape {data.shape}"]
        return problems + rec.digest("cli.gen/data.csv", probe.sha256((work / "data.csv").read_bytes()))

    def fit_ok(_):
        problems = []
        with open(work / "data.model.json", encoding="utf-8") as fh:
            ckpt = json.load(fh)
        table = ckpt["params"]["latent_table"]
        latent = np.asarray(table["data"], dtype=np.float64).reshape(table["shape"])
        _, emb = _read_csv(work / "data.embedding.csv")
        if emb.shape != (n, 2) or not np.all(np.isfinite(emb)):
            problems.append(f"embedding shape {emb.shape} or non-finite entries")
        elif not np.array_equal(emb, latent):
            problems.append("embedding CSV differs from the checkpoint's latent table")
        with open(work / "data.train.json", encoding="utf-8") as fh:
            report = json.load(fh)
        if report["diverged"] or len(report["loss"]["total"]) != report["epochs_run"]:
            problems.append("training report is inconsistent")
        ctx.configs[:] = [{"config": report["config"], "config_hash": report["config_hash"]}]
        return problems

    def eval_ok(_):
        with open(work / "eval.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        values = doc["runs"][0]["metrics"]
        want = {"distance_spearman", "centroid_spearman", "area_pearson",
                "knn_accuracy", "knn_f1_macro"}
        return [] if set(values) == want else [f"eval metrics {sorted(values)}"]

    def plot_ok(_):
        first, second = (work / "plot.svg").read_bytes(), (work / "plot2.svg").read_bytes()
        circles = ET.fromstring(first).findall("{http://www.w3.org/2000/svg}circle")
        problems = [] if first == second else ["two renders of the same inputs differ"]
        if len(circles) != n:
            problems.append(f"{len(circles)} circles for {n} points")
        return problems + rec.digest("cli.plot/plot.svg", probe.sha256(first))

    def passed(stdout):
        return [] if "PASS" in stdout else [f"self-check did not pass: {stdout.strip()}"]

    plot_argv = ["plot", "--embedding", "data.embedding.csv", "--labels", "data.csv",
                 "--label-col", "label", "--out"]
    steps = [
        ("gen", ["gen", "--kind", kind, "--seed", seed, "--out", "data.csv"], gen_ok),
        ("fit", ["fit", "--in", "data.csv", "--label-col", "label", "--seed", seed, *fit_flags], fit_ok),
        ("eval", ["eval", "--high", "data.csv", "--low", "data.embedding.csv", "--label-col", "label",
                  "--metrics", "distance,centroid,area,knn", "--seed", seed, "--out", "eval.json"], eval_ok),
        ("plot", plot_argv + ["plot.svg"], lambda _: []),
        ("plot2", plot_argv + ["plot2.svg"], plot_ok),
    ]
    for name, argv, check_outputs in steps:
        if not step(name, argv, check_outputs):
            break  # later steps read this step's outputs
    # The self-checks run as documented, at their default seed.
    for which, flags in (("lemma1", lemma_flags), ("theorem1", []), ("gradients", [])):
        step(f"check_{which}", ["check", "--which", which, *flags], passed)
    return {
        "cli_s": sum(times.get(k, 0.0) for k in ("gen", "fit", "eval", "plot")),
        "check_s": sum(times.get(f"check_{w}", 0.0) for w in ("lemma1", "theorem1", "gradients")),
        "peak_rss_mb": peak_kb / 1024,
    }


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "suite-spiral",
            "run_preservation_suite, 10 runs at n=312: per-step fixed cost dominates fit; "
            "all-pairs evaluation, no clustering",
            'nd.gen_synthetic("spiral", nd.make_rng({seed}))',
            _suite_prepare,
            _suite_op,
        ),
        Workload(
            "pipeline-world_map-lift9",
            "fit then distance,centroid,knn,cluster at n=2843, d=9: O(n) work per step, "
            "sampled pairs, O(n^3) agglomerative",
            'nd.lift9(nd.gen_synthetic("world_map", nd.make_rng({seed})))',
            _pipeline_prepare,
            _pipeline_op,
        ),
        Workload(
            "cli-olympic",
            "CLI gen, fit (early stop), eval, plot and three self-checks at n=2500: "
            "process start, CSV I/O, 64% pair budget, tiny-model calls",
            "",
            _cli_prepare,
            _cli_op,
        ),
    )
}
