"""Spans, counts and output checks recorded from outside the neurodavis package.

A probe rebinds a public function's name in every ``neurodavis`` module
namespace that holds it, so every caller that looks the name up at call time
(module globals, or ``from .x import f`` inside a function body) reaches the
wrapper. No program source changes. Each call records one span
``[name, start_ns, end_ns, parent, group]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``group`` numbers the workload operation
(0 is the in-process set-up). After the clock stops, the function's hook
adds counts and runs the correctness checks on its result. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# The layers are the package's modules; a span name is "<module>.<function>".
LAYERS = ("model", "numerics", "metrics", "analysis", "datasets", "cli")

# Span name -> attribute name in the module (CLI subcommands are cmd_*).
TARGETS = {
    "model.fit": "fit",
    "model.gradients": "gradients",
    "model.adam_step": "adam_step",
    "model.forward": "forward",
    "model.loss": "loss",
    "model.save_checkpoint": "save_checkpoint",
    "numerics.pairwise_euclidean": "pairwise_euclidean",
    "numerics.pair_distances": "pair_distances",
    "numerics.spectral_norm": "spectral_norm",
    "metrics.rank_average": "rank_average",
    "metrics.distance_preservation": "distance_preservation",
    "metrics.centroid_distance_preservation": "centroid_distance_preservation",
    "metrics.cluster_area_preservation": "cluster_area_preservation",
    "metrics.knn_evaluate": "knn_evaluate",
    "metrics.kmeans": "kmeans",
    "metrics.agglomerative": "agglomerative",
    "analysis.evaluate_embedding": "evaluate_embedding",
    "analysis.run_preservation_suite": "run_preservation_suite",
    "analysis.check_lemma1": "check_lemma1",
    "analysis.check_theorem1": "check_theorem1",
    "analysis.check_gradients": "check_gradients",
    "analysis.finite_difference_gradients": "finite_difference_gradients",
    "datasets.gen_synthetic": "gen_synthetic",
    "datasets.lift9": "lift9",
    "datasets.load_csv": "load_csv",
    "datasets.save_csv": "save_csv",
    "cli.gen": "cmd_gen",
    "cli.fit": "cmd_fit",
    "cli.eval": "cmd_eval",
    "cli.plot": "cmd_plot",
    "cli.check": "cmd_check",
    "cli.render_scatter_svg": "render_scatter_svg",
}

# Probed in every run, traced or not: their spans give fit_s, eval_s and the
# training steps, and their hooks hold the correctness checks. Two spans per
# training step, about 1% of its time.
OUTER = ("model.fit", "model.gradients", "model.adam_step",
         "analysis.evaluate_embedding", "metrics.kmeans", "metrics.agglomerative")

# Closed ranges of every metric evaluate_embedding can return.
METRIC_RANGES = {
    "distance_spearman": (-1.0, 1.0),
    "centroid_spearman": (-1.0, 1.0),
    "area_pearson": (-1.0, 1.0),
    "knn_accuracy": (0.0, 1.0),
    "knn_f1_macro": (0.0, 1.0),
    "kmeans_ari": (-1.0, 1.0),
    "kmeans_fmi": (0.0, 1.0),
    "agglomerative_ari": (-1.0, 1.0),
    "agglomerative_fmi": (0.0, 1.0),
}
METRIC_KEYS = {
    "distance": ("distance_spearman",),
    "centroid": ("centroid_spearman",),
    "area": ("area_pearson",),
    "knn": ("knn_accuracy", "knn_f1_macro"),
    "cluster": ("kmeans_ari", "kmeans_fmi", "agglomerative_ari", "agglomerative_fmi"),
}
# Correlations computed in floating point may overshoot +-1 by rounding.
RANGE_SLACK = 1e-12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def metrics_digest(values: dict) -> str:
    """Digest of a metric dict; json writes floats as their shortest repr."""
    return sha256(json.dumps(values, sort_keys=True).encode())


class Recorder:
    """Spans, counts, digests and the operation ledger of one process."""

    def __init__(self, expected: dict[str, str] | None = None):
        self.spans: list[list] = []
        self.group = 0
        self._stack: list[int] = []
        self._calls: Counter = Counter()
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.values: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.errors: Counter = Counter()
        self.attempted = 0
        self.failures: list[str] = []
        # label -> (sha256, where it was first seen); preloaded from earlier
        # runs with the same seed and thread count.
        self.expected = {k: (v, "an earlier run") for k, v in (expected or {}).items()}
        self.digests: dict[str, str] = {}

    def begin_group(self) -> None:
        self.group += 1
        self._calls.clear()

    def call_label(self, name: str) -> str:
        """``name#i``: the i-th call of ``name`` within the current operation,
        stable across operations that repeat the same work."""
        label = f"{name}#{self._calls[name]}"
        self._calls[name] += 1
        return label

    def check(self, what: str, problems: list[str]) -> bool:
        """Count one checked operation; it fails if any problem was found."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    def digest(self, label: str, value: str) -> list[str]:
        """Compare a digest with the one recorded for the same label."""
        self.digests[label] = value
        seen = self.expected.get(label)
        if seen is None:
            self.expected[label] = (value, f"operation {self.group} of this run")
            return []
        if seen[0] == value:
            return []
        return [
            f"nondeterminism: {label} digest {value[:12]} differs from "
            f"{seen[0][:12]} recorded by {seen[1]} with the same seed and "
            f"BLAS thread count"
        ]

    def count(self, key: str, amount: float) -> None:
        self.counts[self.group][key] += amount

    def value(self, key: str, amount: float) -> None:
        self.values[self.group][key].append(float(amount))

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.group]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def merge_child(self, doc: dict, parent: int, prefix: str) -> None:
        """Fold a child interpreter's record (see ``to_child_doc``) into the
        current operation, hanging its root spans under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, par, _ in doc["spans"]:
            self.spans.append(
                [name, start, end, parent if par < 0 else par + offset, self.group]
            )
        self.counts[self.group].update(doc["counts"])
        for key, vals in doc["values"].items():
            self.values[self.group][key].extend(vals)
        self.errors.update(doc["errors"])
        self.attempted += doc["attempted"]
        self.failures.extend(f"{prefix}: {f}" for f in doc["failures"])
        for label, value in doc["digests"].items():
            problems = self.digest(f"{prefix}/{label}", value)
            self.check(f"{prefix} determinism", problems)

    def to_child_doc(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts[self.group]),
            "values": dict(self.values[self.group]),
            "errors": dict(self.errors),
            "attempted": self.attempted,
            "failures": self.failures,
            "digests": self.digests,
        }

    def write_spans(self, path, run_id: str) -> None:
        doc = {
            "run_id": run_id,
            "fields": ["name", "start_ns", "end_ns", "parent", "group"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _fit_hook(rec, span, args, kwargs, result):
    x, config = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "config")
    emb = result[0].latent_table
    n = np.shape(x)[0]
    problems = []
    if emb.shape != (n, 2):
        problems.append(f"embedding shape {emb.shape}, expected ({n}, 2)")
    elif not np.all(np.isfinite(emb)):
        problems.append("embedding has non-finite entries")
    problems += rec.digest(rec.call_label("model.fit"), sha256(np.ascontiguousarray(emb).tobytes()))
    rec.check(f"fit(seed={config.seed})", problems)
    rec.value("fit_s", (span[2] - span[1]) / 1e9)


def _eval_hook(rec, span, args, kwargs, result):
    requested = _arg(args, kwargs, 3, "metrics", ("distance",))
    want = {key for m in requested for key in METRIC_KEYS[m]}
    problems = []
    if set(result) != want:
        problems.append(f"metric keys {sorted(result)}, expected {sorted(want)}")
    for key, v in result.items():
        lo, hi = METRIC_RANGES.get(key, (-math.inf, math.inf))
        if not (math.isfinite(v) and lo - RANGE_SLACK <= v <= hi + RANGE_SLACK):
            problems.append(f"{key}={v!r} outside [{lo}, {hi}]")
        else:
            rec.value(key, v)
    problems += rec.digest(rec.call_label("analysis.evaluate_embedding"), metrics_digest(result))
    rec.check("evaluate_embedding", problems)
    rec.value("eval_s", (span[2] - span[1]) / 1e9)


def _cluster_hook(rec, span, args, kwargs, result):
    x, k = _arg(args, kwargs, 0, "x"), int(_arg(args, kwargs, 1, "k"))
    labels = np.asarray(result)
    problems = []
    if labels.shape != (np.shape(x)[0],):
        problems.append(f"labels shape {labels.shape}, expected ({np.shape(x)[0]},)")
    elif set(np.unique(labels).tolist()) != set(range(k)):
        problems.append(f"{len(np.unique(labels))} distinct labels, expected exactly {k}")
    rec.check(f"{span[0]}(k={k})", problems)


def _agglomerative_hook(rec, span, args, kwargs, result):
    _cluster_hook(rec, span, args, kwargs, result)
    n, d = np.shape(_arg(args, kwargs, 0, "x"))
    # the n x n x d difference tensor plus the n x n distance matrix
    rec.count("metrics.agglomerative.bytes_computed", 8 * n * n * d + 8 * n * n)


def _knn_hook(rec, span, args, kwargs, result):
    emb = _arg(args, kwargs, 0, "embedding")
    labels = np.asarray(_arg(args, kwargs, 1, "labels"))
    split = _arg(args, kwargs, 3, "split", 0.8)
    d = np.shape(emb)[1]
    _, sizes = np.unique(labels, return_counts=True)
    # the stratified split's own per-class rounding
    train = sum(min(max(int(round(split * int(c))), 1), int(c)) for c in sizes)
    test = len(labels) - train
    # the test x train x d difference tensor plus the test x train distances
    rec.count("metrics.knn_evaluate.bytes_computed", 8 * test * train * d + 8 * test * train)


def _pair_distances_hook(rec, span, args, kwargs, result):
    rec.count("numerics.pair_distances.pairs", len(result))


def _load_csv_hook(rec, span, args, kwargs, result):
    cells = result.n * (result.d + (result.labels is not None))
    rec.count("datasets.load_csv.cells", cells)


def _save_csv_hook(rec, span, args, kwargs, result):
    rec.count("datasets.save_csv.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


HOOKS = {
    "model.fit": _fit_hook,
    "analysis.evaluate_embedding": _eval_hook,
    "metrics.kmeans": _cluster_hook,
    "metrics.agglomerative": _agglomerative_hook,
    "metrics.knn_evaluate": _knn_hook,
    "numerics.pair_distances": _pair_distances_hook,
    "datasets.load_csv": _load_csv_hook,
    "datasets.save_csv": _save_csv_hook,
}


def _wrap(rec: Recorder, name: str, fn, hook):
    spans, stack, clock = rec.spans, rec._stack, time.perf_counter_ns

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        span = [name, 0, 0, stack[-1] if stack else -1, rec.group]
        stack.append(len(spans))
        spans.append(span)
        span[1] = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.errors[name] += 1
            raise
        finally:
            span[2] = clock()
            stack.pop()
        if hook is not None:
            hook(rec, span, args, kwargs, result)
        return result

    return probe


def install(rec: Recorder, names):
    """Probe each named function in every loaded neurodavis namespace that
    binds it; returns a callable that restores the original bindings.
    Targets in modules not yet imported (``cli`` in a library run) are
    skipped."""
    modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "neurodavis"]
    restore = []
    for name in names:
        module = sys.modules.get(f"neurodavis.{name.split('.')[0]}")
        if module is None:
            continue
        original = getattr(module, TARGETS[name])
        probe = _wrap(rec, name, original, HOOKS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    restore.append((mod, attr, original))
                    setattr(mod, attr, probe)

    def uninstall():
        for mod, attr, original in reversed(restore):
            setattr(mod, attr, original)

    return uninstall


# ---------------------------------------------------------------- derivation

# Inclusive seconds per operation (summed over the function's calls).
SECONDS = (
    "model.fit", "model.save_checkpoint",
    "numerics.pair_distances", "numerics.spectral_norm",
    "metrics.rank_average", "metrics.distance_preservation",
    "metrics.centroid_distance_preservation", "metrics.cluster_area_preservation",
    "metrics.knn_evaluate", "metrics.kmeans", "metrics.agglomerative",
    "analysis.evaluate_embedding", "analysis.run_preservation_suite",
    "analysis.check_lemma1", "analysis.check_theorem1", "analysis.check_gradients",
    "datasets.gen_synthetic", "datasets.lift9", "datasets.load_csv", "datasets.save_csv",
    "cli.gen", "cli.fit", "cli.eval", "cli.plot", "cli.check", "cli.render_scatter_svg",
)
CALLS = ("model.forward", "model.loss", "numerics.spectral_norm",
         "analysis.finite_difference_gradients")
COUNTS = (
    ("numerics.pair_distances.pairs", "pairs"),
    ("metrics.agglomerative.bytes_computed", "bytes"),
    ("metrics.knn_evaluate.bytes_computed", "bytes"),
    ("datasets.load_csv.cells", "cells"),
    ("datasets.save_csv.bytes", "bytes"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "model.gradients.us": "us",
        "model.adam_step.us": "us",
        "model.step.us": "us",
        "model.steps": "count",
        "model.epoch_loss.ms": "ms",
        "model.epoch_loss.share": "share",
        "numerics.pair_sampling.s": "s",
        "cli.import.s": "s",
    }
    units.update({f"{n}.s": "s" for n in SECONDS})
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update(dict(COUNTS))
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{n}.errors": "count" for n in TARGETS})
    units["trace.overhead_s"] = "s"
    return units


def fit_steps(rec: Recorder, groups: set[int]) -> list[float]:
    """Wall time of each training step (``gradients`` plus the ``adam_step``
    after it, in µs) of every ``fit`` in ``groups``."""
    spans = rec.spans
    steps, pending = [], {}
    for name, start, end, parent, group in spans:
        if group not in groups or parent < 0 or spans[parent][0] != "model.fit":
            continue
        if name == "model.gradients":
            pending[parent] = end - start
        elif name == "model.adam_step" and parent in pending:
            steps.append((pending.pop(parent) + end - start) / 1e3)
    return steps


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(rec: Recorder, groups: set[int]) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer values from the spans of ``groups`` and their sample counts.

    A per-operation total is the median over the groups in which the
    function ran (the in-process set-up is group 0, so set-up functions of
    the library workloads report per set-up). Per-call figures are medians
    over all calls. Absent functions report 0 with 0 samples.
    """
    spans = rec.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_ns[s[3]] += s[2] - s[1]
    total: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    self_s: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    sampling: dict[int, float] = defaultdict(float)
    children: dict[int, list[int]] = defaultdict(list)
    for i, (name, start, end, parent, group) in enumerate(spans):
        if group not in groups:
            continue
        dur = (end - start) / 1e9
        total[name][group] += dur
        calls[name][group] += 1
        own = dur - child_ns[i] / 1e9
        layer = name.split(".")[0]
        if layer in LAYERS:
            self_s[layer][group] += own
        if name == "numerics.pairwise_euclidean":
            sampling[group] += own
        if parent >= 0:
            children[parent].append(i)

    def dur(i):
        return (spans[i][2] - spans[i][1]) / 1e3  # microseconds

    steps = fit_steps(rec, groups)
    gradients, adam, epoch_loss = [], [], []
    fit_us = loss_us = 0.0
    for i, s in enumerate(spans):
        if s[0] != "model.fit" or s[4] not in groups:
            continue
        fit_us += dur(i)
        kids = children[i]
        names = [spans[k][0] for k in kids]
        for a, b in zip(kids, kids[1:]):
            if spans[a][0] == "model.forward" and spans[b][0] == "model.loss":
                epoch_loss.append(dur(a) + dur(b))
                loss_us += dur(a) + dur(b)
        gradients += [dur(k) for k, nm in zip(kids, names) if nm == "model.gradients"]
        adam += [dur(k) for k, nm in zip(kids, names) if nm == "model.adam_step"]

    values = {
        "model.gradients.us": (_median(gradients), len(gradients)),
        "model.adam_step.us": (_median(adam), len(adam)),
        "model.step.us": (_median(steps), len(steps)),
        "model.steps": (_median(list(calls["model.adam_step"].values())), len(calls["model.adam_step"])),
        "model.epoch_loss.ms": (_median(epoch_loss) / 1e3, len(epoch_loss)),
        "model.epoch_loss.share": (loss_us / fit_us if fit_us else 0.0, len(epoch_loss)),
        "numerics.pair_sampling.s": (_median(list(sampling.values())), len(sampling)),
    }
    imports = [(e - s) / 1e9 for name, s, e, _, g in spans if name == "cli.import" and g in groups]
    values["cli.import.s"] = (_median(imports), len(imports))
    for name in SECONDS:
        per_group = list(total[name].values())
        values[f"{name}.s"] = (_median(per_group), len(per_group))
    for name in CALLS:
        per_group = list(calls[name].values())
        values[f"{name}.calls"] = (_median(per_group), len(per_group))
    for key, _ in COUNTS:
        per_group = [rec.counts[g][key] for g in groups if key in rec.counts[g]]
        values[key] = (_median(per_group), len(per_group))
    for layer in LAYERS:
        per_group = list(self_s[layer].values())
        values[f"{layer}.self_s"] = (_median(per_group), len(per_group))
    for name in TARGETS:
        values[f"{name}.errors"] = (float(rec.errors[name]), 1)
    return {k: v for k, (v, _) in values.items()}, {k: n for k, (_, n) in values.items()}
