"""Command-line interface: dataset generation, training, evaluation, SVG
scatter plots, and the numerical self-checks.

Exit codes: 0 success, 1 output pipe closed by the reader, 2 usage/input
error (including flag values out of range and unwritable output paths), 3
numeric failure (diverged training or a failed check). Every subcommand's
output is bit-identical given its flags, the BLAS thread count, the numpy
build and the OpenBLAS core type the CPU selects (``SkylakeX`` and the
AVX2-only ``Haswell`` kernels round differently), with or without numpy's
AVX-512 SIMD dispatch (``test_bytes_independent_of_simd_dispatch``); the one
exception is the training report's ``wall_time_s``. All randomness derives
from ``--seed``. To pin the BLAS thread count, set ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` before Python starts: BLAS reads
them once, when numpy loads it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .analysis import CHECKS, METRICS, EvalReport, SuiteResult, evaluate_embedding
from .datasets import (
    SYNTHETIC_KINDS,
    Dataset,
    gen_synthetic,
    lift9,
    load_csv,
    save_csv,
)
from .errors import InvalidInputError, NeurodavisError, TrainingDivergedError
from .metrics import DEFAULT_PAIR_BUDGET
from .model import Convergence, ModelConfig, embed, fit, save_checkpoint
from .numerics import as_class_ids, as_count, as_matrix, make_rng, unit_scaled

USAGE_ERROR = 2
NUMERIC_ERROR = 3

# matplotlib tab10
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)
PLOT_WIDTH = 640
PLOT_HEIGHT = 480
PLOT_POINT_RADIUS = 2.5


def _fail(message: str, code: int = USAGE_ERROR) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text == "none":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers or 'none', got {text!r}"
        ) from None


def _model_config(args) -> ModelConfig:
    """``ModelConfig`` from the fit flags, each stored under its field's name.
    The early-stop rule is the one field without a flag of its own: it is
    built the same way from its flags, unless ``--no-early-stop``."""
    flags = vars(args)

    def flagged(cls) -> dict:
        return {f.name: flags[f.name] for f in dataclasses.fields(cls) if f.name in flags}

    early_stop = None if args.no_early_stop else Convergence(**flagged(Convergence))
    return ModelConfig(**flagged(ModelConfig), convergence=early_stop)


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """The training flags, each stored under the name of its ``ModelConfig``
    or ``Convergence`` field and defaulting to that field."""
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--k", dest="latent_dim", metavar="K", type=int,
                   default=ModelConfig.latent_dim, help="embedding dimension")
    p.add_argument(
        "--hidden",
        dest="hidden_widths",
        metavar="HIDDEN",
        type=_parse_hidden,
        default=ModelConfig.hidden_widths,
        help="comma-separated hidden widths, 'none' for a linear decoder "
        "(default: two auto-sized layers)",
    )
    p.add_argument(
        "--alpha", type=float, default=ModelConfig.alpha, help="activity penalty"
    )
    p.add_argument("--beta", type=float, default=ModelConfig.beta, help="weight penalty")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                   default=ModelConfig.learning_rate, help="Adam learning rate")
    p.add_argument("--epochs", type=int, default=ModelConfig.epochs)
    p.add_argument("--batch-size", type=int, default=ModelConfig.batch_size)
    p.add_argument(
        "--window", type=int, default=Convergence.window, help="early-stop window"
    )
    p.add_argument(
        "--rel-tol",
        type=float,
        default=Convergence.rel_tol,
        help="early-stop threshold",
    )
    p.add_argument("--no-early-stop", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurodavis",
        description="Structure-preserving embeddings: generate benchmarks, "
        "train, evaluate, plot, and self-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic benchmark as CSV")
    p_gen.add_argument("--kind", required=True, choices=SYNTHETIC_KINDS)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--lift9", action="store_true", help="apply the 9-D lift")
    p_gen.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="train and write embedding/checkpoint")
    p_fit.add_argument("--in", dest="in_path", required=True)
    p_fit.add_argument(
        "--label-col", default=None, help="header name of the label column"
    )
    _add_fit_flags(p_fit)
    p_fit.add_argument("--out-model", default=None, help="checkpoint JSON path")
    p_fit.add_argument("--out-embedding", default=None, help="embedding CSV path")
    p_fit.add_argument("--out-report", default=None, help="training report JSON path")

    p_eval = sub.add_parser("eval", help="score an embedding against its source")
    p_eval.add_argument("--high", required=True, help="original-space CSV")
    p_eval.add_argument("--low", required=True, help="embedding CSV")
    p_eval.add_argument(
        "--label-col", default=None, help="header name of the label column in --high"
    )
    p_eval.add_argument(
        "--metrics", default="distance", help=f"comma list from: {','.join(METRICS)}"
    )
    p_eval.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET)
    p_eval.add_argument("--runs", type=int, default=1, help="pair-sample repeats")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument(
        "--compare",
        default=None,
        help="second embedding CSV scored on the same pair samples; adds a "
        "rank-sum U/p comparison of the two run sets",
    )
    p_eval.add_argument("--out", default=None, help="report JSON path (default stdout)")

    p_plot = sub.add_parser("plot", help="render a 2-D embedding as SVG")
    p_plot.add_argument("--embedding", required=True, help="embedding CSV")
    p_plot.add_argument(
        "--labels", default=None, help="CSV holding the --label-col column"
    )
    p_plot.add_argument(
        "--label-col", default="label", help="header name of the label column"
    )
    p_plot.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="run the numerical self-checks")
    p_check.add_argument("--which", required=True, choices=CHECKS)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, help="trial count, --which lemma1 only")

    return parser


def cmd_gen(args) -> int:
    ds = gen_synthetic(args.kind, make_rng(args.seed))
    if args.lift9:
        ds = lift9(ds)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} x {ds.d} dataset '{ds.name}' to {args.out}")
    return 0


def cmd_fit(args) -> int:
    try:
        ds = load_csv(args.in_path, label_column=args.label_col)
    except (OSError, NeurodavisError) as exc:
        return _fail(f"cannot read {args.in_path}: {exc}")
    config = _model_config(args)
    stem = os.path.splitext(args.in_path)[0]
    model_path = args.out_model or f"{stem}.model.json"
    emb_path = args.out_embedding or f"{stem}.embedding.csv"
    report_path = args.out_report or f"{stem}.train.json"
    for path in (model_path, emb_path, report_path):  # fail before training
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            return _fail(f"cannot write {path}: not a file in a writable directory")

    def write_report(report) -> None:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, allow_nan=False)

    try:
        model, report = fit(ds.x, config)
    except TrainingDivergedError as exc:
        write_report(exc.report)
        print(f"error: {exc}; report written to {report_path}", file=sys.stderr)
        return NUMERIC_ERROR
    write_report(report)
    save_checkpoint(model, config, model_path)
    emb = embed(model)
    save_csv(
        Dataset(emb, feature_names=[f"z{i}" for i in range(emb.shape[1])]),
        emb_path,
    )
    print(
        f"trained {len(report.losses)} epochs "
        f"(converged={report.converged}, final loss={report.losses[-1].total:.6g}); "
        f"wrote {model_path}, {emb_path}, {report_path}"
    )
    return 0


def cmd_eval(args) -> int:
    n_runs = as_count(args.runs, "runs", 1)
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    high = load_csv(args.high, label_column=args.label_col)
    embeddings = [load_csv(p) for p in (args.low, args.compare) if p is not None]
    # a fresh generator per run and embedding: identical pair samples
    suites = [
        SuiteResult([
            EvalReport(seed, evaluate_embedding(
                high.x, emb.x, labels=high.labels, metrics=metrics,
                pair_budget=args.pair_budget, rng=make_rng(seed),
            ))
            for seed in range(args.seed, args.seed + n_runs)
        ])
        for emb in embeddings
    ]
    doc = {"schema": "neurodavis-eval-report/1", "high": args.high, "low": args.low,
           "seed": args.seed, "metrics_requested": list(metrics),
           **suites[0].to_dict(*suites[1:])}
    if args.compare is not None:  # its path goes before the comparison
        doc["compare"] = args.compare
        doc["comparison"] = doc.pop("comparison")
    text = json.dumps(doc, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def render_scatter_svg(points, labels=None) -> str:
    """Deterministic SVG scatter of 2-D ``points``, ``PLOT_WIDTH`` by
    ``PLOT_HEIGHT``: one circle per row, colors from a fixed 10-color palette
    by class id (``labels``, one per row), axes auto-scaled with a 5% margin.

    Drawn at unit scale (``numerics.unit_scaled``), which places every point
    as at any power of two, so rows near 1e308 draw without overflow; a
    coordinate over 2**1022 below the largest loses precision there."""
    pts = as_matrix(points, "points")
    if pts.shape[1] != 2:
        raise InvalidInputError(f"plot needs a 2-D embedding, got d={pts.shape[1]}")
    if len(pts) == 0:
        raise InvalidInputError("plot needs at least one point")
    if labels is not None:
        labels, _ = as_class_ids(labels, len(pts))
    pts = unit_scaled(pts)[0]
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    margin = 0.05
    scale = np.array([width, height]) * (1.0 - 2.0 * margin) / span
    offset = np.array([width, height]) * margin

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for row in range(len(pts)):
        px = offset[0] + (pts[row, 0] - lo[0]) * scale[0]
        py = height - (offset[1] + (pts[row, 1] - lo[1]) * scale[1])  # y up
        color = PALETTE[0] if labels is None else PALETTE[int(labels[row]) % 10]
        lines.append(
            f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{PLOT_POINT_RADIUS:.3f}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args) -> int:
    # labels in the embedding file itself (under any spelling of its path) come from one load
    real = os.path.realpath
    same_file = args.labels is not None and real(args.labels) == real(args.embedding)
    emb = load_csv(args.embedding, label_column=args.label_col if same_file else None)
    labels = emb.labels
    if args.labels is not None and not same_file:
        labels = load_csv(args.labels, label_column=args.label_col).labels
    svg = render_scatter_svg(emb.x, labels)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {emb.n} points to {args.out}")
    return 0


def cmd_check(args) -> int:
    if args.trials is not None and args.which != "lemma1":
        return _fail(f"--trials applies to --which lemma1 only, not {args.which}")
    sized = {} if args.trials is None else {"trials": args.trials}
    report = CHECKS[args.which](make_rng(args.seed), **sized)
    print(f"{args.which}: {report.detail}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else NUMERIC_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # looked up per call, so a cmd_* name rebound after import (by a probe)
    # is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # point stdout at devnull so the flush at exit cannot fail again
        # (the SIGPIPE note in the docs of Python's signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NeurodavisError, OSError) as exc:  # bad input, unwritable output
        return _fail(str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
