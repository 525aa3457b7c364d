"""The embedding network: a trainable per-sample latent table decoded through
ReLU hidden layers to reconstruct the input.

Feeding column i of an n x n identity matrix through a first dense layer is
the same as reading row i of a trainable (n, k) table (the basis vector
selects one column of the weight matrix, and the first-layer bias folds into
every row), so the network is stored that way: ``latent_table`` holds the
embedding directly, followed by ordinary dense ReLU hidden layers and a
linear reconstruction layer of width d.

Training minimizes, over each batch B of size m:

    (1/m) * sum_i ||x_i - recon_i||^2
    + alpha * sum over latent and hidden activations of per-sample L2 norms
    + beta  * (||latent_table[B]||_F + sum of hidden-layer ||W||_F)

The norms are unsquared, and the reconstruction layer's weights are excluded
from the beta term. Restricting the latent-table Frobenius norm to the rows
of the current batch makes the per-batch objective touch exactly the
parameters that batch can update (rows outside the batch get exactly zero
gradient); with the whole dataset as a single batch the objective is the
plain full-data one.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidConfigError,
    InvalidInputError,
    TrainingDivergedError,
)
from .numerics import Rng, as_matrix, make_rng, spawn_rng

__all__ = [
    "Convergence",
    "ModelConfig",
    "Model",
    "ForwardTrace",
    "LossTerms",
    "TrainReport",
    "init_model",
    "forward",
    "loss",
    "gradients",
    "adam_step",
    "fit",
    "embed",
    "reconstruct",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "neurodavis-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Convergence:
    """Early stopping: halt when the relative loss improvement over the last
    ``window`` epochs falls below ``rel_tol``."""

    window: int = 20
    rel_tol: float = 1e-5


@dataclass(frozen=True)
class ModelConfig:
    """All hyperparameters of a training run.

    ``hidden_widths=None`` resolves to two hidden layers of width
    clamp(ceil(d/2), 16, 256) once the data dimension is known; an empty
    tuple means no hidden layers (a single linear map from latent to data
    space). ``batch_size=None`` resolves to min(n, 64).
    """

    latent_dim: int = 2
    hidden_widths: tuple[int, ...] | None = None
    alpha: float = 1e-6
    beta: float = 1e-4
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 1000
    batch_size: int | None = None
    seed: int = 0
    convergence: Convergence | None = field(default_factory=Convergence)

    def __post_init__(self):
        if self.latent_dim < 1:
            raise InvalidConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.hidden_widths is not None:
            object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
            if any(w < 1 for w in self.hidden_widths):
                raise InvalidConfigError(
                    f"hidden widths must be >= 1, got {self.hidden_widths}"
                )
        if self.alpha < 0 or self.beta < 0:
            raise InvalidConfigError("alpha and beta must be >= 0")
        if self.learning_rate <= 0:
            raise InvalidConfigError("learning_rate must be > 0")
        if self.epochs < 1:
            raise InvalidConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.convergence is not None and self.convergence.window < 2:
            raise InvalidConfigError("convergence window must be >= 2")

    def resolved_hidden(self, d: int) -> tuple[int, ...]:
        if self.hidden_widths is not None:
            return self.hidden_widths
        width = min(max(math.ceil(d / 2), 16), 256)
        return (width, width)

    def resolved_batch_size(self, n: int) -> int:
        return min(n, 64) if self.batch_size is None else min(self.batch_size, n)

    def to_dict(self) -> dict:
        return {
            "latent_dim": self.latent_dim,
            "hidden_widths": None
            if self.hidden_widths is None
            else list(self.hidden_widths),
            "alpha": self.alpha,
            "beta": self.beta,
            "learning_rate": self.learning_rate,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_eps": self.adam_eps,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "convergence": None
            if self.convergence is None
            else {
                "window": self.convergence.window,
                "rel_tol": self.convergence.rel_tol,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        doc = dict(doc)
        conv = doc.get("convergence")
        doc["convergence"] = None if conv is None else Convergence(**conv)
        hw = doc.get("hidden_widths")
        doc["hidden_widths"] = None if hw is None else tuple(hw)
        return cls(**doc)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Layer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)


@dataclass
class AdamState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


@dataclass
class Model:
    """Trainable state; shapes chain latent_dim -> hidden widths -> d."""

    latent_table: np.ndarray  # (n, k)
    hidden: list[Layer]
    recon: Layer
    adam: AdamState

    @property
    def n(self) -> int:
        return self.latent_table.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.latent_table.shape[1]

    @property
    def d(self) -> int:
        return self.recon.w.shape[1]

    def parameters(self):
        """Yield (name, array) for every trainable parameter, fixed order."""
        yield "latent_table", self.latent_table
        for i, layer in enumerate(self.hidden):
            yield f"hidden{i}.w", layer.w
            yield f"hidden{i}.b", layer.b
        yield "recon.w", self.recon.w
        yield "recon.b", self.recon.b

    def astype(self, dtype) -> "Model":
        """Copy with every parameter and Adam moment cast to ``dtype``."""

        def cast(layer: Layer) -> Layer:
            return Layer(w=layer.w.astype(dtype), b=layer.b.astype(dtype))

        return Model(
            latent_table=self.latent_table.astype(dtype),
            hidden=[cast(layer) for layer in self.hidden],
            recon=cast(self.recon),
            adam=AdamState(
                t=self.adam.t,
                m={k: v.astype(dtype) for k, v in self.adam.m.items()},
                v={k: v.astype(dtype) for k, v in self.adam.v.items()},
            ),
        )


@dataclass
class ForwardTrace:
    """Per-layer pre-activations and activations for one batch."""

    batch_indices: np.ndarray
    latent: np.ndarray  # (m, k); latent layer is linear, h = a
    hidden_pre: list[np.ndarray]
    hidden_act: list[np.ndarray]
    recon: np.ndarray  # (m, d); reconstruction layer is linear


class LossTerms(NamedTuple):
    """Objective terms; ``total`` is the exact sum of the other three."""

    total: float
    recon_term: float
    activity_term: float
    weight_term: float


@dataclass
class TrainReport:
    total: list[float]
    recon: list[float]
    activity: list[float]
    weights: list[float]
    epochs_run: int = 0
    converged: bool = False
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "loss": {
                "total": self.total,
                "reconstruction": self.recon,
                "activity": self.activity,
                "weights": self.weights,
            },
            "epochs_run": self.epochs_run,
            "converged": self.converged,
            "wall_time_s": self.wall_time_s,
        }


def init_model(config: ModelConfig, n: int, d: int) -> Model:
    """Freshly initialized model: latent entries ~ U(-0.01, 0.01), dense
    weights Glorot-uniform, biases zero, Adam moments zero. Deterministic
    given ``config.seed`` (latent drawn first, then layers input-to-output).
    """
    if n < 1 or d < 1:
        raise InvalidInputError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    widths = config.resolved_hidden(d)
    rng = make_rng(config.seed)
    latent = rng.uniform(-0.01, 0.01, (n, config.latent_dim))
    dims = [config.latent_dim, *widths, d]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        layers.append(
            Layer(
                w=rng.uniform(-limit, limit, (fan_in, fan_out)),
                b=np.zeros(fan_out),
            )
        )
    model = Model(
        latent_table=latent,
        hidden=layers[:-1],
        recon=layers[-1],
        adam=AdamState(t=0, m={}, v={}),
    )
    for name, p in model.parameters():
        model.adam.m[name] = np.zeros_like(p)
        model.adam.v[name] = np.zeros_like(p)
    return model


def _check_indices(model: Model, batch_indices) -> np.ndarray:
    idx = np.asarray(batch_indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise InvalidInputError("batch_indices must be a nonempty 1-D sequence")
    if idx.min() < 0 or idx.max() >= model.n:
        raise InvalidInputError(
            f"batch indices must lie in [0, {model.n}), got "
            f"[{idx.min()}, {idx.max()}]"
        )
    return idx


def forward(model: Model, batch_indices: Sequence[int]) -> ForwardTrace:
    """Forward pass for the given sample indices: table lookup at the latent
    layer, affine + ReLU through hidden layers, affine (linear) output."""
    idx = _check_indices(model, batch_indices)
    latent = model.latent_table[idx]
    h = latent
    hidden_pre, hidden_act = [], []
    for layer in model.hidden:
        a = h @ layer.w + layer.b
        h = np.maximum(a, 0.0)
        hidden_pre.append(a)
        hidden_act.append(h)
    recon = h @ model.recon.w + model.recon.b
    return ForwardTrace(
        batch_indices=idx,
        latent=latent,
        hidden_pre=hidden_pre,
        hidden_act=hidden_act,
        recon=recon,
    )


def loss(
    trace: ForwardTrace,
    x_batch: np.ndarray,
    model: Model,
    config: ModelConfig,
) -> LossTerms:
    """Objective terms for one batch; see the module docstring for the exact
    formula. ``total`` is the exact sum of the three components.

    The terms are computed in the parameters' dtype and never rounded below
    it: a float64 model gets Python floats, a ``np.longdouble`` model gets
    ``np.longdouble`` scalars (which the finite-difference gradient oracle
    relies on)."""
    x_batch = as_matrix(x_batch, "x_batch")
    if x_batch.shape != trace.recon.shape:
        raise InvalidInputError(
            f"x_batch shape {x_batch.shape} does not match "
            f"reconstruction {trace.recon.shape}"
        )
    m = len(trace.batch_indices)
    resid = x_batch - trace.recon
    recon_term = ((resid * resid).sum() / m).item()
    activity = 0.0
    for h in (trace.latent, *trace.hidden_act):
        activity += np.sqrt((h * h).sum(axis=1)).sum().item()
    activity_term = config.alpha * activity
    wsum = np.linalg.norm(model.latent_table[trace.batch_indices]).item()
    for layer in model.hidden:
        wsum += np.linalg.norm(layer.w).item()
    weight_term = config.beta * wsum
    total = recon_term + activity_term + weight_term
    return LossTerms(total, recon_term, activity_term, weight_term)


def _unit_rows(h: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero rows stay zero (subgradient choice)."""
    norms = np.sqrt((h * h).sum(axis=1, keepdims=True))
    out = np.zeros_like(h)
    np.divide(h, norms, out=out, where=norms > 0)
    return out


def gradients(
    model: Model,
    batch_indices: Sequence[int],
    x_batch: np.ndarray,
    config: ModelConfig,
) -> dict[str, np.ndarray]:
    """Analytic gradients of :func:`loss` for the batch, keyed like
    ``Model.parameters()``. Latent rows outside the batch get exactly zero.
    ReLU and L2-norm subgradients at zero are zero."""
    trace = forward(model, batch_indices)
    x_batch = as_matrix(x_batch, "x_batch")
    if x_batch.shape != trace.recon.shape:
        raise InvalidInputError("x_batch shape does not match batch")
    idx = trace.batch_indices
    m = len(idx)
    grads = {name: np.zeros_like(p) for name, p in model.parameters()}

    d_out = (2.0 / m) * (trace.recon - x_batch)  # d recon_term / d recon
    below = trace.hidden_act[-1] if model.hidden else trace.latent
    grads["recon.w"] = below.T @ d_out
    grads["recon.b"] = d_out.sum(axis=0)
    d_h = d_out @ model.recon.w.T

    for li in reversed(range(len(model.hidden))):
        layer = model.hidden[li]
        if config.alpha:
            d_h = d_h + config.alpha * _unit_rows(trace.hidden_act[li])
        d_a = d_h * (trace.hidden_pre[li] > 0.0)
        below = trace.hidden_act[li - 1] if li > 0 else trace.latent
        grads[f"hidden{li}.w"] = below.T @ d_a
        if config.beta:
            fro = float(np.linalg.norm(layer.w))
            if fro > 0:
                grads[f"hidden{li}.w"] += config.beta * layer.w / fro
        grads[f"hidden{li}.b"] = d_a.sum(axis=0)
        d_h = d_a @ layer.w.T

    if config.alpha:
        d_h = d_h + config.alpha * _unit_rows(trace.latent)
    if config.beta:
        sub = model.latent_table[idx]
        fro = float(np.linalg.norm(sub))
        if fro > 0:
            d_h = d_h + config.beta * sub / fro
    np.add.at(grads["latent_table"], idx, d_h)
    return grads


def adam_step(
    model: Model,
    grads: dict[str, np.ndarray],
    config: ModelConfig,
) -> Model:
    """One Adam update with bias correction, in place; returns the model.
    Parameters with exactly zero gradient and zero moments are unchanged."""
    st = model.adam
    st.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**st.t
    c2 = 1.0 - b2**st.t
    lr, eps = config.learning_rate, config.adam_eps
    for name, p in model.parameters():
        g = grads[name]
        m, v = st.m[name], st.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return model


def fit(x: np.ndarray, config: ModelConfig) -> tuple[Model, TrainReport]:
    """Train on ``x``: seeded-shuffle mini-batch epochs of Adam updates, full
    data loss recorded per epoch, optional early stop on stalled improvement.

    Deterministic given ``config.seed``. Raises
    :class:`TrainingDivergedError` (carrying the partial report) if the loss
    goes non-finite.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    model = init_model(config, n, d)
    batch = config.resolved_batch_size(n)
    shuffle_rng = spawn_rng(config.seed, 1)  # distinct stream from init
    report = TrainReport(total=[], recon=[], activity=[], weights=[])
    all_idx = np.arange(n)
    started = time.perf_counter()
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        for s in range(0, n, batch):
            idx = perm[s : s + batch]
            grads = gradients(model, idx, x[idx], config)
            adam_step(model, grads, config)
        terms = loss(forward(model, all_idx), x, model, config)
        report.total.append(terms.total)
        report.recon.append(terms.recon_term)
        report.activity.append(terms.activity_term)
        report.weights.append(terms.weight_term)
        report.epochs_run = epoch + 1
        if not math.isfinite(terms.total):
            report.wall_time_s = time.perf_counter() - started
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch + 1}", report=report
            )
        conv = config.convergence
        if conv is not None and epoch + 1 > conv.window:
            ref = report.total[-(conv.window + 1)]
            scale = max(abs(ref), np.finfo(np.float64).tiny)
            if (ref - report.total[-1]) / scale < conv.rel_tol:
                report.converged = True
                break
    report.wall_time_s = time.perf_counter() - started
    return model, report


def embed(model: Model) -> np.ndarray:
    """The n x k embedding (latent-layer outputs), row-aligned with the data."""
    return model.latent_table.copy()


def reconstruct(model: Model) -> np.ndarray:
    """Full forward pass over all samples; returns the n x d reconstruction."""
    return forward(model, np.arange(model.n)).recon


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": a.ravel(order="C").tolist()}


def _decode_array(doc: dict) -> np.ndarray:
    return np.asarray(doc["data"], dtype=np.float64).reshape(doc["shape"])


def save_checkpoint(model: Model, config: ModelConfig, path) -> None:
    """Write a versioned JSON checkpoint (config incl. seed, all parameter
    matrices row-major, Adam state). JSON floats round-trip bit-exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "params": {
            "latent_table": _encode_array(model.latent_table),
            "hidden": [
                {"w": _encode_array(l.w), "b": _encode_array(l.b)}
                for l in model.hidden
            ],
            "recon": {
                "w": _encode_array(model.recon.w),
                "b": _encode_array(model.recon.b),
            },
        },
        "adam": {
            "t": model.adam.t,
            "m": {k: _encode_array(v) for k, v in model.adam.m.items()},
            "v": {k: _encode_array(v) for k, v in model.adam.v.items()},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _check_loaded(model: Model, config: ModelConfig) -> None:
    """Raise unless the parameters and both Adam moments have exactly the
    names and shapes that the config gives for the checkpoint's n and d."""
    d = model.recon.b.size
    dims = (config.latent_dim, *config.resolved_hidden(d), d)
    names = [f"hidden{i}" for i in range(len(dims) - 2)] + ["recon"]
    expected = {"latent_table": (*model.latent_table.shape[:1], config.latent_dim)}
    for name, fan_in, fan_out in zip(names, dims, dims[1:]):
        expected.update({f"{name}.w": (fan_in, fan_out), f"{name}.b": (fan_out,)})
    for arrays in (dict(model.parameters()), model.adam.m, model.adam.v):
        shapes = {name: a.shape for name, a in arrays.items()}
        if shapes != expected:
            raise InvalidInputError(
                f"checkpoint arrays {shapes} do not chain as its config "
                f"requires: {expected}"
            )


def load_checkpoint(path) -> tuple[Model, ModelConfig]:
    """Read a checkpoint written by ``save_checkpoint``; anything but a
    complete, self-consistent v1 document raises ``InvalidInputError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"checkpoint {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise InvalidInputError(f"not a checkpoint file: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise InvalidInputError(f"unsupported checkpoint version {doc.get('version')}")
    try:
        config = ModelConfig.from_dict(doc["config"])
        params = doc["params"]
        model = Model(
            latent_table=_decode_array(params["latent_table"]),
            hidden=[
                Layer(w=_decode_array(l["w"]), b=_decode_array(l["b"]))
                for l in params["hidden"]
            ],
            recon=Layer(
                w=_decode_array(params["recon"]["w"]),
                b=_decode_array(params["recon"]["b"]),
            ),
            adam=AdamState(
                t=int(doc["adam"]["t"]),
                m={k: _decode_array(v) for k, v in doc["adam"]["m"].items()},
                v={k: _decode_array(v) for k, v in doc["adam"]["v"].items()},
            ),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed checkpoint {path}: {exc!r}") from exc
    _check_loaded(model, config)
    return model, config
