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
    "save_checkpoint",
]

CHECKPOINT_FORMAT = "neurodavis-checkpoint"
CHECKPOINT_VERSION = 2


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
        if not all(map(math.isfinite, (self.alpha, self.beta, self.learning_rate))):
            raise InvalidConfigError("alpha, beta and learning_rate must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise InvalidConfigError("alpha and beta must be >= 0")
        if self.learning_rate <= 0:
            raise InvalidConfigError("learning_rate must be > 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise InvalidConfigError("adam_beta1 and adam_beta2 must be in [0, 1)")
        if not (0 < self.adam_eps < math.inf):
            raise InvalidConfigError("adam_eps must be finite and > 0")
        if self.epochs < 1:
            raise InvalidConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise InvalidConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        conv = self.convergence
        if conv is not None and conv.window < 2:
            raise InvalidConfigError("convergence window must be >= 2")
        if conv is not None and not 0 <= conv.rel_tol < math.inf:
            raise InvalidConfigError("convergence rel_tol must be finite and >= 0")

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

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Layer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)


def _shapes(dims: tuple[int, ...]):
    """(name, shape) of every parameter, in storage order, for a model with
    ``dims`` = (n, latent_dim, *hidden widths, d)."""
    n, *chain = dims
    yield "latent_table", (n, chain[0])
    names = [f"hidden{i}" for i in range(len(chain) - 2)] + ["recon"]
    for name, fan_in, fan_out in zip(names, chain, chain[1:]):
        yield f"{name}.w", (fan_in, fan_out)
        yield f"{name}.b", (fan_out,)


@dataclass
class Model:
    """Trainable state. All parameters live in one flat vector ``theta``;
    Adam's moments ``m`` and ``v`` share its layout and ``t`` counts steps.
    ``latent_table``, ``hidden`` and ``recon`` are reshaped views into
    ``theta``, so writing through them updates it."""

    dims: tuple[int, ...]  # (n, latent_dim, *hidden widths, d)
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    latent_table: np.ndarray = field(init=False, repr=False)  # (n, k)
    hidden: list[Layer] = field(init=False, repr=False)
    recon: Layer = field(init=False, repr=False)

    def __post_init__(self):
        self.latent_table, self.hidden, self.recon = _split_layers(self, self.theta)

    @property
    def n(self) -> int:
        return self.dims[0]

    @property
    def d(self) -> int:
        return self.dims[-1]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``flat`` (a vector laid out like ``theta``):
        ``latent_table``, ``hidden{i}.w``, ``hidden{i}.b``, ``recon.w``,
        ``recon.b``, each row-major, in this order."""
        out, start = {}, 0
        for name, shape in _shapes(self.dims):
            stop = start + math.prod(shape)
            out[name] = flat[start:stop].reshape(shape)
            start = stop
        return out

    def astype(self, dtype) -> "Model":
        """Copy with the parameters and Adam moments cast to ``dtype``."""
        cast = [a.astype(dtype) for a in (self.theta, self.m, self.v)]
        return Model(self.dims, *cast, t=self.t)


def _split_layers(model: Model, flat: np.ndarray):
    """(latent table, hidden layers, reconstruction layer) as views into
    ``flat``, a vector laid out like ``model.theta``."""
    table, *arrays = model.views(flat).values()
    layers = [Layer(w=w, b=b) for w, b in zip(arrays[::2], arrays[1::2])]
    return table, layers[:-1], layers[-1]


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
    dims = (n, config.latent_dim, *config.resolved_hidden(d), d)
    size = sum(math.prod(shape) for _, shape in _shapes(dims))
    model = Model(dims, np.zeros(size), np.zeros(size), np.zeros(size))
    rng = make_rng(config.seed)
    model.latent_table[...] = rng.uniform(-0.01, 0.01, model.latent_table.shape)
    for layer in (*model.hidden, model.recon):
        fan_in, fan_out = layer.w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        layer.w[...] = rng.uniform(-limit, limit, (fan_in, fan_out))
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


def _forward(model: Model, idx: np.ndarray):
    """(latent, hidden pre-activations, hidden activations, recon) for
    already-validated indices."""
    latent = model.latent_table.take(idx, axis=0)
    h = latent
    hidden_pre, hidden_act = [], []
    for layer in model.hidden:
        a = h @ layer.w
        a += layer.b
        h = np.maximum(a, 0.0)
        hidden_pre.append(a)
        hidden_act.append(h)
    recon = h @ model.recon.w
    recon += model.recon.b
    return latent, hidden_pre, hidden_act, recon


def forward(model: Model, batch_indices: Sequence[int]) -> ForwardTrace:
    """Forward pass for the given sample indices: table lookup at the latent
    layer, affine + ReLU through hidden layers, affine (linear) output."""
    idx = _check_indices(model, batch_indices)
    return ForwardTrace(idx, *_forward(model, idx))


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
    wsum = _frobenius(trace.latent).item()  # the batch's latent rows
    for layer in model.hidden:
        wsum += _frobenius(layer.w).item()
    weight_term = config.beta * wsum
    total = recon_term + activity_term + weight_term
    return LossTerms(total, recon_term, activity_term, weight_term)


def _frobenius(a: np.ndarray):
    """Frobenius norm in ``a``'s dtype: the ``sqrt(f.dot(f))`` that
    ``np.linalg.norm`` runs, without its argument handling."""
    f = a.ravel()
    return np.sqrt(f.dot(f))


def _unit_rows(h: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm, in a fresh array; rows whose norm is zero,
    underflows to zero or is NaN come out zero (subgradient choice)."""
    sq = h * h
    norms = np.add.reduce(sq, 1, keepdims=True)
    np.sqrt(norms, out=norms)
    if norms.min() > 0:  # False for any NaN norm
        return np.divide(h, norms, out=sq)
    sq.fill(0.0)
    return np.divide(h, norms, out=sq, where=norms > 0)


class _Workspace:
    """Buffers reused by the training steps of one :func:`fit`: the flat
    gradient vector with its per-layer views, two theta-sized scratch vectors
    for Adam, and the latent rows the last :func:`gradients` call wrote."""

    def __init__(self, model: Model):
        self.grad = np.zeros_like(model.theta)
        self.latent, self.hidden, self.recon = _split_layers(model, self.grad)
        self.scratch = (np.empty_like(model.theta), np.empty_like(model.theta))
        self.rows: np.ndarray | None = None


def gradients(
    model: Model,
    batch_indices: Sequence[int],
    x_batch: np.ndarray,
    config: ModelConfig,
    _ws: _Workspace | None = None,
) -> np.ndarray:
    """Analytic gradients of :func:`loss` for the batch, as one vector laid
    out like ``model.theta`` (``model.views`` names its parts). Latent rows
    outside the batch get exactly zero. ReLU and L2-norm subgradients at
    zero are zero. A repeated index sums the gradients of its copies.

    ``_ws`` is private to :func:`fit`, which passes validated, distinct
    indices and a float64 batch. Then the returned vector is the workspace's
    reused buffer, valid only until the next step; without it the inputs are
    validated and the vector is freshly allocated."""
    fresh = _ws is None
    if fresh:
        idx = _check_indices(model, batch_indices)
        x_batch = as_matrix(x_batch, "x_batch")
        if x_batch.shape != (idx.size, model.d):
            raise InvalidInputError("x_batch shape does not match batch")
        _ws = _Workspace(model)
    else:
        idx = batch_indices
    latent, hidden_pre, hidden_act, recon = _forward(model, idx)
    alpha, beta = config.alpha, config.beta
    # Every other entry is overwritten below; only the latent rows of the
    # previous batch can be nonzero.
    if _ws.rows is not None:
        _ws.latent[_ws.rows] = 0.0
    _ws.rows = idx

    # d recon_term / d recon = (2/m) * (recon - x), built in recon's buffer
    d_out = np.subtract(recon, x_batch, out=recon)
    d_out *= 2.0 / len(idx)
    below = hidden_act[-1] if model.hidden else latent
    np.matmul(below.T, d_out, out=_ws.recon.w)
    np.add.reduce(d_out, 0, out=_ws.recon.b)
    d_h = d_out @ model.recon.w.T

    for li in reversed(range(len(model.hidden))):
        layer = model.hidden[li]
        if alpha:
            u = _unit_rows(hidden_act[li])
            u *= alpha
            d_h += u
        np.multiply(d_h, hidden_pre[li] > 0.0, out=d_h)  # ReLU: d_h is d_a
        below = hidden_act[li - 1] if li > 0 else latent
        grad = _ws.hidden[li]
        np.matmul(below.T, d_h, out=grad.w)
        if beta:
            fro = float(_frobenius(layer.w))
            if fro > 0:
                u = beta * layer.w
                u /= fro
                grad.w += u
        np.add.reduce(d_h, 0, out=grad.b)
        d_h = d_h @ layer.w.T

    if alpha:
        u = _unit_rows(latent)
        u *= alpha
        d_h += u
    if beta:
        fro = float(_frobenius(latent))
        if fro > 0:
            latent *= beta  # last use of the gathered rows
            latent /= fro
            d_h += latent
    if fresh:
        np.add.at(_ws.latent, idx, d_h)
    else:  # one permutation's slice: distinct rows, plain assignment
        _ws.latent[idx] = d_h
    return _ws.grad


def adam_step(
    model: Model,
    grads: np.ndarray,
    config: ModelConfig,
    _ws: _Workspace | None = None,
) -> Model:
    """One Adam update with bias correction over the whole parameter vector,
    in place; returns the model. Parameters with exactly zero gradient and
    zero moments are unchanged. ``_ws`` is private to :func:`fit` and lends
    its scratch vectors; without it two are allocated."""
    if _ws is None:
        a, b = np.empty_like(model.theta), np.empty_like(model.theta)
    else:
        a, b = _ws.scratch
    model.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**model.t
    c2 = 1.0 - b2**model.t
    lr, eps = config.learning_rate, config.adam_eps
    m, v = model.m, model.v
    # theta -= lr * (m / c1) / (sqrt(v / c2) + eps), operation for operation
    m *= b1
    np.multiply(grads, 1.0 - b1, out=a)
    m += a
    v *= b2
    np.multiply(grads, grads, out=a)
    a *= 1.0 - b2
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    model.theta -= a
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
    ws = _Workspace(model)
    batch = config.resolved_batch_size(n)
    shuffle_rng = spawn_rng(config.seed, 1)  # distinct stream from init
    report = TrainReport(total=[], recon=[], activity=[], weights=[])
    all_idx = np.arange(n)
    started = time.perf_counter()
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        for s in range(0, n, batch):
            idx = perm[s : s + batch]
            grads = gradients(model, idx, x[idx], config, ws)
            adam_step(model, grads, config, ws)
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


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": a.ravel(order="C").tolist()}


def save_checkpoint(model: Model, config: ModelConfig, path) -> None:
    """Write a versioned JSON checkpoint (config incl. seed, all parameter
    matrices row-major). JSON floats round-trip bit-exactly."""
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
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
