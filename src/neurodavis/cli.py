"""Command-line interface: dataset generation, training, evaluation, SVG
scatter plots, and the numerical self-checks.

Exit codes: 0 success, 2 usage/input error (including flag values out of
range and unwritable output paths), 3 numeric failure (diverged training
or a failed check). Every subcommand's output is bit-identical
given its flags, the BLAS thread count and the numpy build; all randomness
derives from ``--seed``. To pin the BLAS thread count, set
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` before
Python starts: BLAS reads them once, when numpy loads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

USAGE_ERROR = 2
NUMERIC_ERROR = 3

# matplotlib tab10
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fail(message: str, code: int = USAGE_ERROR) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_hidden(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "none":
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers or 'none', got {text!r}"
        ) from None


def _positive(kind):
    """Argument type: ``kind`` (int or float) that must be > 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _model_config(args):
    from .model import Convergence, ModelConfig

    convergence = None
    if not args.no_early_stop:
        convergence = Convergence(window=args.window, rel_tol=args.rel_tol)
    return ModelConfig(
        latent_dim=args.k,
        hidden_widths=args.hidden,
        alpha=args.alpha,
        beta=args.beta,
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        convergence=convergence,
    )


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=2, help="embedding dimension")
    p.add_argument(
        "--hidden",
        type=_parse_hidden,
        default=None,
        help="comma-separated hidden widths, 'none' for a linear decoder "
        "(default: two auto-sized layers)",
    )
    p.add_argument("--alpha", type=float, default=1e-6, help="activity penalty")
    p.add_argument("--beta", type=float, default=1e-4, help="weight penalty")
    p.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--window", type=int, default=20, help="early-stop window")
    p.add_argument("--rel-tol", type=float, default=1e-5, help="early-stop threshold")
    p.add_argument("--no-early-stop", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neurodavis",
        description="Structure-preserving embeddings: generate benchmarks, "
        "train, evaluate, plot, and self-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic benchmark as CSV")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=["elliptic_ring", "olympic", "spiral", "shape", "world_map"],
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--lift9", action="store_true", help="apply the 9-D lift")
    p_gen.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="train and write embedding/checkpoint")
    p_fit.add_argument("--in", dest="in_path", required=True)
    p_fit.add_argument("--label-col", default=None, help="label column to strip")
    p_fit.add_argument("--seed", type=int, default=0)
    _add_fit_flags(p_fit)
    p_fit.add_argument("--out-model", default=None, help="checkpoint JSON path")
    p_fit.add_argument("--out-embedding", default=None, help="embedding CSV path")
    p_fit.add_argument("--out-report", default=None, help="training report JSON path")

    p_eval = sub.add_parser("eval", help="score an embedding against its source")
    p_eval.add_argument("--high", required=True, help="original-space CSV")
    p_eval.add_argument("--low", required=True, help="embedding CSV")
    p_eval.add_argument("--label-col", default=None, help="label column in --high")
    p_eval.add_argument(
        "--metrics",
        default="distance",
        help="comma list from: distance,centroid,area,knn,cluster",
    )
    p_eval.add_argument("--pair-budget", type=int, default=2_000_000)
    p_eval.add_argument(
        "--runs", type=_positive(int), default=1, help="pair-sample repeats"
    )
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
    p_plot.add_argument("--labels", default=None, help="CSV with a 'label' column")
    p_plot.add_argument("--label-col", default="label")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--width", type=_positive(int), default=640)
    p_plot.add_argument("--height", type=_positive(int), default=480)
    p_plot.add_argument("--point-radius", type=_positive(float), default=2.5)

    p_check = sub.add_parser("check", help="run the numerical self-checks")
    p_check.add_argument(
        "--which", required=True, choices=["lemma1", "theorem1", "gradients"]
    )
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=1000, help="lemma1 trials")

    return parser


def cmd_gen(args) -> int:
    from .datasets import gen_synthetic, lift9, save_csv
    from .numerics import make_rng

    ds = gen_synthetic(args.kind, make_rng(args.seed))
    if args.lift9:
        ds = lift9(ds)
    save_csv(ds, args.out)
    print(f"wrote {ds.n} x {ds.d} dataset '{ds.name}' to {args.out}")
    return 0


def _load_for_cli(path, label_col):
    from .datasets import load_csv

    column: str | int | None = label_col
    if isinstance(column, str) and column.isdigit():
        column = int(column)
    return load_csv(path, label_column=column, has_header=True)


def cmd_fit(args) -> int:
    from .datasets import Dataset, save_csv
    from .errors import NeurodavisError, TrainingDivergedError
    from .model import embed, fit, save_checkpoint

    try:
        ds = _load_for_cli(args.in_path, args.label_col)
    except (OSError, NeurodavisError) as exc:
        return _fail(f"cannot read {args.in_path}: {exc}")
    config = _model_config(args)
    stem = os.path.splitext(args.in_path)[0]
    model_path = args.out_model or f"{stem}.model.json"
    emb_path = args.out_embedding or f"{stem}.embedding.csv"
    report_path = args.out_report or f"{stem}.train.json"
    for path in (model_path, emb_path, report_path):  # fail before training
        folder = os.path.dirname(path) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            return _fail(f"cannot write {path}: {folder} is not a writable directory")

    def write_report(report, diverged: bool) -> None:
        doc = {
            "schema": "neurodavis-train-report/1",
            "config": config.to_dict(),
            "config_hash": config.config_hash(),
            "diverged": diverged,
        }
        doc.update(report.to_dict())
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)

    try:
        model, report = fit(ds.x, config)
    except TrainingDivergedError as exc:
        write_report(exc.report, diverged=True)
        print(f"error: {exc}; report written to {report_path}", file=sys.stderr)
        return NUMERIC_ERROR
    write_report(report, diverged=False)
    save_checkpoint(model, config, model_path)
    emb = embed(model)
    save_csv(
        Dataset(emb, feature_names=[f"z{i}" for i in range(emb.shape[1])]),
        emb_path,
    )
    print(
        f"trained {report.epochs_run} epochs "
        f"(converged={report.converged}, final loss={report.total[-1]:.6g}); "
        f"wrote {model_path}, {emb_path}, {report_path}"
    )
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from .analysis import evaluate_embedding
    from .metrics import mann_whitney_u
    from .numerics import make_rng

    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    high = _load_for_cli(args.high, args.label_col)
    low = _load_for_cli(args.low, None)
    compare = None if args.compare is None else _load_for_cli(args.compare, None)
    if low.n != high.n or (compare is not None and compare.n != high.n):
        return _fail(
            f"row counts differ: high={high.n}, low={low.n}"
            + ("" if compare is None else f", compare={compare.n}")
        )
    doc: dict = {
        "schema": "neurodavis-eval-report/1",
        "high": args.high,
        "low": args.low,
        "seed": args.seed,
        "metrics_requested": list(metrics),
    }
    runs = []
    for r in range(args.runs):
        rng = make_rng(args.seed + r)
        values = evaluate_embedding(
            high.x,
            low.x,
            labels=high.labels,
            metrics=metrics,
            pair_budget=args.pair_budget,
            rng=rng,
        )
        entry = {"seed": args.seed + r, "metrics": values}
        if compare is not None:
            rng_cmp = make_rng(args.seed + r)  # identical pair samples
            entry["compare_metrics"] = evaluate_embedding(
                high.x,
                compare.x,
                labels=high.labels,
                metrics=metrics,
                pair_budget=args.pair_budget,
                rng=rng_cmp,
            )
        runs.append(entry)
    doc["runs"] = runs
    doc["medians"] = {
        key: float(np.median([r["metrics"][key] for r in runs]))
        for key in runs[0]["metrics"]
    }
    if compare is not None:
        doc["compare"] = args.compare
        doc["comparison"] = {}
        for key in runs[0]["metrics"]:
            u, p = mann_whitney_u(
                [r["metrics"][key] for r in runs],
                [r["compare_metrics"][key] for r in runs],
            )
            doc["comparison"][key] = {"mw_u": u, "mw_p": p}
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def render_scatter_svg(
    points,
    labels=None,
    width: int = 640,
    height: int = 480,
    point_radius: float = 2.5,
) -> str:
    """Deterministic SVG scatter: one circle per row, colors from a fixed
    10-color palette by class id, axes auto-scaled with a 5% margin."""
    import numpy as np

    pts = np.asarray(points, dtype=np.float64)
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
            f'<circle cx="{px:.3f}" cy="{py:.3f}" r="{point_radius:.3f}" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args) -> int:
    labels = None
    if args.labels is not None and args.labels == args.embedding:
        # labels stored alongside the coordinates in one file
        emb = _load_for_cli(args.embedding, args.label_col)
        labels = emb.labels
    else:
        emb = _load_for_cli(args.embedding, None)
        if args.labels is not None:
            labelled = _load_for_cli(args.labels, args.label_col)
            if labelled.labels is None or labelled.n != emb.n:
                return _fail("label file must carry one label per embedding row")
            labels = labelled.labels
    if emb.n == 0:
        return _fail("embedding is empty")
    if emb.d != 2:
        return _fail(f"plot needs a 2-D embedding, got d={emb.d}")
    svg = render_scatter_svg(
        emb.x,
        labels,
        width=args.width,
        height=args.height,
        point_radius=args.point_radius,
    )
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    print(f"wrote {emb.n} points to {args.out}")
    return 0


def cmd_check(args) -> int:
    from .analysis import (
        LEMMA1_TOLERANCE,
        check_gradients,
        check_lemma1,
        check_theorem1,
    )
    from .numerics import make_rng

    if args.which == "lemma1":
        report = check_lemma1(args.trials, max_dim=8, rng=make_rng(args.seed))
        print(
            f"lemma1: max |I - eta*W*W^T|_2 over {report.trials} trials = "
            f"{report.max_norm:.12f} (bound 1 + {LEMMA1_TOLERANCE:g}): "
            f"{'PASS' if report.passed else 'FAIL'}"
        )
        return 0 if report.passed else NUMERIC_ERROR
    if args.which == "gradients":
        report = check_gradients(n_models=20, seed=args.seed)
        print(
            f"gradients: max relative error over {report.n_models} models = "
            f"{report.max_rel_error:.3g} (tolerance {report.tolerance:g}): "
            f"{'PASS' if report.passed else 'FAIL'}"
        )
        return 0 if report.passed else NUMERIC_ERROR
    # theorem1: duplicate one row so the pair sits inside the delta-ball
    import numpy as np

    rng = make_rng(args.seed)
    x = rng.standard_normal((20, 3))
    x[1] = x[0]
    trace = check_theorem1(x, (0, 1), eta=0.5, steps=200, rng=rng)
    print(
        f"theorem1: gap {trace.gaps[0]:.6f} -> {trace.gaps[-1]:.6f} over "
        f"{len(trace.gaps) - 1} steps, monotone non-increasing: "
        f"{'PASS' if trace.monotone else 'FAIL'}"
    )
    return 0 if trace.monotone else NUMERIC_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    from .errors import NeurodavisError

    handlers = {
        "gen": cmd_gen,
        "fit": cmd_fit,
        "eval": cmd_eval,
        "plot": cmd_plot,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except (NeurodavisError, OSError) as exc:  # bad input, unwritable output
        return _fail(str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
