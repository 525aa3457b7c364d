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

Layout. ``theta`` stores each dense layer's w (fan_in, fan_out) directly
before its b (fan_out,), so the slice from w's start to b's end, reshaped
to (fan_in + 1, fan_out), is the stacked weight ``[w; b]``. The forward and
backward passes work feature-major: one column per sample, in one block per
batch size that holds the batch's latent rows, then each hidden layer's
output, each part followed by a row of ones. A layer's input with its ones
row below it, times ``[w; b]``, is ``h w + b`` in one product with no bias
add; the same rows times the output gradient's transpose are ``[grad w;
grad b]`` in one product, the bias sum included, written straight into the
gradient vector. One square over the block, then one ones-vector product
per part, give every layer's per-sample activity norms.

Adam state. ``model.m`` and ``model.v`` hold Adam's moments divided by
beta1^tau and beta2^tau, tau = ((t - 1) mod ``ADAM_RESCALE``) + 1, so the
true first moment is beta1^tau * ``model.m``. A step adds the new gradient's
share, scaled by 1 / beta^tau, and leaves the decay in the scalars; an entry
with zero gradient is not touched. Once every ``ADAM_RESCALE`` steps one
dense fold multiplies the moments by beta1^R and beta2^R (the scaled-vector
trick of Bottou, "Stochastic Gradient Descent Tricks", 2012, sec. 5.1).
Inside :func:`fit` the latent rows of ``theta``, the moments and a cache of
sqrt(``model.v``) sit in the current epoch's shuffle order, so each batch
is one row slice; ``fit`` returns them in sample order.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, TrainingDivergedError
from .numerics import as_count, as_indices, as_matrix, as_real, as_vector, make_rng, spawn_rng

CHECKPOINT_FORMAT = "neurodavis-checkpoint"
CHECKPOINT_VERSION = 4

# Adam's decay rates and denominator offset: the values Kingma & Ba
# recommend (arXiv:1412.6980, sec. 2).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Steps between the dense folds of the moments' decay (see adam_step);
# 0.9^64 is about 1e-3, far from float64's range.
ADAM_RESCALE = 64
# (1 - beta1) / beta1^tau and (1 - beta2) / beta2^tau for tau = 1 .. R, as
# 0-d arrays: numpy multiplies an array by one faster than by a float
_ADAM_GAINS = [
    (np.array((1.0 - ADAM_BETA1) / ADAM_BETA1**tau), np.array((1.0 - ADAM_BETA2) / ADAM_BETA2**tau))
    for tau in range(1, ADAM_RESCALE + 1)
]


@dataclass(frozen=True)
class Convergence:
    """Early stopping: halt when the relative loss improvement over the last
    ``window`` epochs falls below ``rel_tol``."""

    window: int = 20
    rel_tol: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "window", as_count(self.window, "convergence window", 2))
        object.__setattr__(self, "rel_tol", as_real(self.rel_tol, "convergence rel_tol", 0))


@dataclass(frozen=True)
class ModelConfig:
    """The settable hyperparameters of a training run; Adam's beta1, beta2
    and eps are the fixed ``ADAM_*`` constants.

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
    epochs: int = 1000
    batch_size: int | None = None
    seed: int = 0
    convergence: Convergence | None = field(default_factory=Convergence)

    def __post_init__(self):
        for name, low in (("latent_dim", 1), ("epochs", 1), ("seed", 0)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, low))
        if self.batch_size is not None:
            object.__setattr__(self, "batch_size", as_count(self.batch_size, "batch_size", 1))
        if self.hidden_widths is not None:
            try:
                widths = tuple(as_count(w, "hidden width", 1) for w in self.hidden_widths)
            except TypeError:  # not iterable
                raise InvalidInputError(
                    f"hidden_widths must be a sequence of integers or None, "
                    f"got {self.hidden_widths!r}"
                ) from None
            object.__setattr__(self, "hidden_widths", widths)
        if not isinstance(self.convergence, (Convergence, type(None))):
            raise InvalidInputError(
                f"convergence must be a Convergence or None, got {self.convergence!r}"
            )
        for name in ("alpha", "beta", "learning_rate"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, 0))
        if self.learning_rate == 0:
            raise InvalidInputError("learning_rate must be > 0")

    def resolved_hidden(self, d: int) -> tuple[int, ...]:
        if self.hidden_widths is not None:
            return self.hidden_widths
        width = min(max(math.ceil(d / 2), 16), 256)
        return (width, width)

    def resolved_batch_size(self, n: int) -> int:
        return min(n, 64) if self.batch_size is None else min(self.batch_size, n)

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.hidden_widths is not None:
            out["hidden_widths"] = list(self.hidden_widths)
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Layer(NamedTuple):
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)


@dataclass
class Model:
    """Trainable state. All parameters live in one flat vector ``theta``;
    Adam's moments ``m`` and ``v`` share its layout and ``t`` counts steps.
    ``m`` and ``v`` hold the moments divided by beta1^tau and beta2^tau,
    tau = ((t - 1) mod ``ADAM_RESCALE``) + 1, and a dense fold every
    ``ADAM_RESCALE`` steps moves the decay back into them (see
    :func:`adam_step`). ``latent_table`` and ``layers`` (the hidden layers in
    order, then the reconstruction layer) are reshaped views into ``theta``,
    so writing through them updates it. Row i of ``latent_table`` (and of
    the latent block of ``m`` and ``v``) belongs to sample i, except inside
    :func:`fit`, which keeps the rows in each epoch's shuffle order and
    returns them in sample order."""

    dims: tuple[int, ...]  # (n, latent_dim, *hidden widths, d)
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    latent_table: np.ndarray = field(init=False, repr=False)  # (n, k)
    layers: list[Layer] = field(init=False, repr=False)

    def __post_init__(self):
        self.latent_table, self.layers = _split_layers(self, self.theta)

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
        table, layers = _split_layers(self, flat)
        out = {"latent_table": table}
        for i, (w, b) in enumerate(layers):
            name = "recon" if i == len(layers) - 1 else f"hidden{i}"
            out[f"{name}.w"], out[f"{name}.b"] = w, b
        return out

    def astype(self, dtype) -> "Model":
        """Copy with the parameters and Adam moments cast to ``dtype``."""
        cast = [a.astype(dtype) for a in (self.theta, self.m, self.v)]
        return Model(self.dims, *cast, t=self.t)


def _stacked(model: Model, flat: np.ndarray) -> list[np.ndarray]:
    """Each layer's ``[w; b]`` as one (fan_in + 1, fan_out) view into
    ``flat``, a vector laid out like ``model.theta``: w is its first fan_in
    rows, b its last row."""
    out, stop = [], model.n * model.dims[1]
    for fan_in, fan_out in zip(model.dims[1:], model.dims[2:]):
        start, stop = stop, stop + (fan_in + 1) * fan_out
        out.append(flat[start:stop].reshape(fan_in + 1, fan_out))
    return out


def _split_layers(model: Model, flat: np.ndarray):
    """(latent table, layers) as views into ``flat``, a vector laid out like
    ``model.theta``; the reconstruction layer is the last layer."""
    table = flat[: model.n * model.dims[1]].reshape(model.n, model.dims[1])
    return table, [Layer(wb[:-1], wb[-1]) for wb in _stacked(model, flat)]


@dataclass
class ForwardTrace:
    """Per-layer activations for one batch."""

    latent: np.ndarray  # (m, k); latent layer is linear, h = a
    hidden_act: list[np.ndarray]  # ReLU(a); > 0 exactly where a > 0
    recon: np.ndarray  # (m, d); reconstruction layer is linear


class LossTerms(NamedTuple):
    """Objective terms; ``total`` is the exact sum of the other three."""

    total: float
    recon_term: float
    activity_term: float
    weight_term: float


@dataclass
class TrainReport:
    """The record of one :func:`fit` run: its config and one
    :class:`LossTerms` per epoch, the full-data loss after that epoch."""

    config: ModelConfig
    losses: list[LossTerms] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        """The ``neurodavis-train-report/2`` document. A non-finite loss
        value is written as None (JSON ``null``)."""
        json_keys = {"total": "total", "recon_term": "reconstruction",
                     "activity_term": "activity", "weight_term": "weights"}
        columns = {key: [getattr(t, f) for t in self.losses] for f, key in json_keys.items()}
        return {
            "schema": "neurodavis-train-report/2",
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash(),
            "diverged": self.diverged,
            "loss": {
                key: [v if math.isfinite(v) else None for v in column]
                for key, column in columns.items()
            },
            "epochs_run": len(self.losses),
            "converged": self.converged,
            "wall_time_s": self.wall_time_s,
        }


def init_model(config: ModelConfig, n: int, d: int) -> Model:
    """Freshly initialized model: latent entries ~ U(-0.01, 0.01), dense
    weights Glorot-uniform, biases zero, Adam moments zero. Deterministic
    given ``config.seed`` (latent drawn first, then layers input-to-output).
    """
    n, d = as_count(n, "n", 1), as_count(d, "d", 1)
    dims = (n, config.latent_dim, *config.resolved_hidden(d), d)
    size = n * dims[1] + sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[1:], dims[2:]))
    model = Model(dims, np.zeros(size), np.zeros(size), np.zeros(size))
    rng = make_rng(config.seed)
    model.latent_table[...] = rng.uniform(-0.01, 0.01, model.latent_table.shape)
    for w, _ in model.layers:
        fan_in, fan_out = w.shape
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, (fan_in, fan_out))
    return model


class _Block:
    """Feature-major activations of one batch of ``m`` samples, one column
    per sample, in one array ``a``: the batch's latent rows (k x m), then
    each hidden layer's output, each part followed by a row of ones.
    ``parts[p]`` views part p without its ones row, and ``inputs[li]``, part
    li with it, is layer li's input for the stacked ``[w; b]``.

    It also holds one step's scratch: ``sq`` (block-shaped: the squares,
    then each entry's activity scale, then the activity subgradient, viewed
    per part by ``units``), ``norms`` (one row per part; ``sums`` pairs each
    row with a ones vector and the part's squares), ``part_of_row`` (the
    part of every block row, ones rows included) and ``mask`` (the sign of
    every hidden output, viewed per hidden layer by ``masks``).
    ``flat_norms`` and ``flat_latent`` are 1-D views of ``norms`` and of the
    latent part."""

    def __init__(self, fan_ins: Sequence[int], m: int, dtype):
        # fan_ins: (latent_dim, *hidden widths), each layer's input width
        ends = np.cumsum([f + 1 for f in fan_ins])  # one past each ones row
        starts = [int(e) - f - 1 for e, f in zip(ends, fan_ins)]
        self.a = np.empty((ends[-1], m), dtype)
        self.a[ends - 1] = 1.0
        self.parts = [self.a[s : s + f] for s, f in zip(starts, fan_ins)]
        self.inputs = [self.a[s : s + f + 1] for s, f in zip(starts, fan_ins)]
        self.sq = np.empty_like(self.a)
        self.units = [self.sq[s : s + f] for s, f in zip(starts, fan_ins)]
        self.norms = np.empty((len(fan_ins), m), dtype)
        ones = np.ones(max(fan_ins), dtype)
        # (ones, squares, norms) per part: one gemv sums the part's squares
        self.sums = [(ones[:f], sq, n) for f, sq, n in zip(fan_ins, self.units, self.norms)]
        self.part_of_row = np.repeat(np.arange(len(fan_ins)), [f + 1 for f in fan_ins])
        self.flat_norms, self.flat_latent = self.norms.ravel(), self.parts[0].ravel()
        self.latent_rows = self.parts[0].T  # (m, k): the batch's latent rows
        self.hidden = self.a[fan_ins[0] + 1 :]
        self.mask = np.empty_like(self.hidden)
        self.masks = [self.mask[s - fan_ins[0] - 1 :][:f] for s, f in zip(starts[1:], fan_ins[1:])]


def _forward(blk: _Block, rows: np.ndarray, stacked_t) -> np.ndarray:
    """Fill ``blk`` with the latent rows ``rows`` (m, k) and every hidden
    layer's ReLU output, and return the reconstruction, feature-major (d x
    m). ``stacked_t`` holds each layer's ``[w; b].T``.

    Here and in :func:`gradients` every product is ``a.dot(b)``, the method
    form of ``np.dot``. It gives the bits of ``a @ b``: the same cblas
    routine on float64, the same plain loop on long double. It skips
    matmul's gufunc set-up, which costs more than the arithmetic at a batch
    of 64."""
    blk.latent_rows[...] = rows
    for wb_t, inp, out in zip(stacked_t, blk.inputs, blk.parts[1:]):
        wb_t.dot(inp, out)
        np.maximum(out, 0.0, out=out)
    return stacked_t[-1].dot(blk.inputs[-1])


def forward(model: Model, batch_indices: Sequence[int]) -> ForwardTrace:
    """Forward pass for the given sample indices: table lookup at the latent
    layer, affine + ReLU through hidden layers, affine (linear) output. The
    trace's arrays are (m, width) views of one feature-major block."""
    idx = as_indices(batch_indices, model.n, "batch_indices")
    blk = _Block(model.dims[1:-1], len(idx), model.theta.dtype)
    stacked_t = [wb.T for wb in _stacked(model, model.theta)]
    recon = _forward(blk, model.latent_table.take(idx, axis=0), stacked_t)
    return ForwardTrace(blk.parts[0].T, [p.T for p in blk.parts[1:]], recon.T)


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
    m = len(trace.recon)
    resid = x_batch - trace.recon
    recon_term = ((resid * resid).sum() / m).item()
    activity = 0.0
    for h in (trace.latent, *trace.hidden_act):
        activity += _row_norms(h).sum().item()
    activity_term = config.alpha * activity
    wsum = _frobenius(trace.latent).item()  # the batch's latent rows
    for w, _ in model.layers[:-1]:
        wsum += _frobenius(w).item()
    weight_term = config.beta * wsum
    total = recon_term + activity_term + weight_term
    return LossTerms(total, recon_term, activity_term, weight_term)


def _frobenius(a: np.ndarray):
    """Frobenius norm in ``a``'s dtype: the ``sqrt(f.dot(f))`` that
    ``np.linalg.norm`` runs, without its argument handling."""
    f = a.ravel()
    return np.sqrt(f.dot(f))


def _row_norms(h: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``h``, in ``h``'s dtype."""
    norms = np.vecdot(h, h)
    return np.sqrt(norms, out=norms)


def _activity_units(blk: _Block, c: float) -> list[np.ndarray]:
    """``c * h / ||h||`` for every sample (column) of every part ``h`` of
    the block, the latent rows and each hidden output, as views of
    ``blk.sq`` (``blk.units``).

    One square over the whole block, then one gemv of a ones vector with
    each part's squares, give every part's squared norms (a ``reduceat``
    over the block's segments costs more than all the gemvs at a batch of
    64); then one sqrt, one test, one divide, one scale gather and one
    multiply serve all the parts. Each part sums only its own rows, so a
    NaN in one layer reaches no other layer's scale. A norm that is zero,
    underflows to zero or is NaN gives +0.0 throughout its part's column
    (subgradient choice)."""
    sq = np.multiply(blk.a, blk.a, out=blk.sq)
    for ones, part, norms in blk.sums:
        ones.dot(part, norms)
    norms = np.sqrt(blk.norms, out=blk.norms)
    flat = blk.flat_norms
    # argmin returns the first NaN if there is one, so a NaN norm fails the
    # test as it fails min() > 0, at a quarter of min()'s cost
    if flat[flat.argmin()] > 0:
        dead = None
        np.divide(c, norms, out=norms)
    else:
        live = norms > 0
        np.divide(c, norms, out=norms, where=live)
        dead = ~live.take(blk.part_of_row, axis=0)
    norms.take(blk.part_of_row, axis=0, out=sq, mode="clip")  # each entry's scale
    np.multiply(blk.a, sq, out=sq)
    if dead is not None:
        sq[dead] = 0.0  # NaN and -0.0 alike become +0.0
    return blk.units


class _Workspace:
    """Buffers and views reused by the training steps of one :func:`fit`:
    the flat gradient vector, the per-layer views a backward step uses, one
    :class:`_Block` per batch size (a fit sees at most two), two theta-sized
    scratch vectors for Adam, ``root``, the cache of sqrt(``model.v``), and
    ``rows``, the slice of latent rows the last :func:`gradients` call
    wrote, at first the whole table.

    ``stacked_t`` holds each layer's ``[w; b].T`` and ``layers``, for each
    of ``model.layers``, (grad ``[w; b]``, grad w, w, w raveled): views into
    the gradient and into ``model.theta``, made once so that no step
    rebuilds them. ``tables`` views the latent rows of ``theta``, ``m``,
    ``v`` and ``root``, which :meth:`reorder` permutes together. ``adam``
    holds the vectors an Adam step updates by span (a scratch vector, ``m``,
    ``v`` and ``root``) and ``decoder`` their views from ``theta[tail]``, the
    decoder's first parameter, on."""

    def __init__(self, model: Model):
        n, k = model.n, model.dims[1]
        self.grad = np.zeros_like(model.theta)
        self.latent, _ = _split_layers(model, self.grad)
        self.stacked_t = [wb.T for wb in _stacked(model, model.theta)]
        grads = _stacked(model, self.grad)
        self.layers = [(g, g[:-1], w, w.ravel()) for g, (w, _) in zip(grads, model.layers)]
        self.scratch = (np.empty_like(model.theta), np.empty_like(model.theta))
        self.root = np.sqrt(model.v)
        self.tables = [a[: n * k].reshape(n, k) for a in (model.theta, model.m, model.v, self.root)]
        self.k, self.tail = k, n * k  # the decoder starts at theta[tail]
        self.adam = (self.scratch[0], model.m, model.v, self.root)
        self.decoder = (slice(self.tail, None), *(a[self.tail :] for a in self.adam))
        self.fan_ins = model.dims[1:-1]
        self.blocks: dict[int, _Block] = {}
        self.rows = slice(0, n)

    def block(self, m: int) -> _Block:
        blk = self.blocks.get(m)
        if blk is None:
            blk = self.blocks[m] = _Block(self.fan_ins, m, self.grad.dtype)
        return blk

    def spans(self) -> tuple:
        """(slice, scratch, m, v, root) over the latent rows of the last
        batch and over the decoder, as views; one span if they adjoin."""
        a, m, v, root = self.adam
        start, stop = self.rows.start * self.k, self.rows.stop * self.k
        if stop == self.tail:
            s = slice(start, None)
            return ((s, a[s], m[s], v[s], root[s]),)
        s = slice(start, stop)
        return (s, a[s], m[s], v[s], root[s]), self.decoder

    def reorder(self, rel: np.ndarray) -> None:
        """Move row ``rel[i]`` of every latent table to row i."""
        for table in self.tables:
            table.take(rel, axis=0, out=table)  # take's default mode buffers out


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

    ``_ws`` is private to :func:`fit`, which passes a slice of the latent
    table's rows (in the table's current order) as ``batch_indices`` and a
    float64 batch. Then the returned vector is the workspace's reused
    buffer, valid only until the next step; without it the inputs are
    validated and the vector is freshly allocated."""
    fresh = _ws is None
    idx = batch_indices
    if fresh:
        idx = as_indices(batch_indices, model.n, "batch_indices")
        x_batch = as_matrix(x_batch, "x_batch")
        if x_batch.shape != (idx.size, model.d):
            raise InvalidInputError("x_batch shape does not match batch")
        _ws = _Workspace(model)
    m = len(x_batch)
    blk = _ws.block(m)
    recon = _forward(blk, model.latent_table[idx], _ws.stacked_t)
    alpha, beta = config.alpha, config.beta
    if alpha:  # every layer's activity subgradient, from one pass
        units = _activity_units(blk, alpha)
    if blk.masks:
        # ReLU, d_h -> d_a: sign(act) is (act > 0) for all but a NaN act, whose d_h column is NaN
        np.sign(blk.hidden, out=blk.mask)

    # d recon_term / d recon = (2/m) * (recon - x), built in recon's buffer
    d_h = np.subtract(recon, x_batch.T, out=recon)
    d_h *= 2.0 / m
    for li in reversed(range(len(model.layers))):
        grad_wb, grad_w, w, f = _ws.layers[li]
        hidden = li < len(blk.masks)
        if hidden:
            if alpha:
                d_h += units[li + 1]
            d_h *= blk.masks[li]
        blk.inputs[li].dot(d_h.T, grad_wb)  # [grad w; grad b], the bias sum included
        if beta and hidden:
            fro = math.sqrt(f.dot(f))  # correctly rounded, as np.sqrt is
            if fro > 0:
                grad_w += w * (beta / fro)
        d_h = w.dot(d_h)

    if alpha:
        d_h += units[0]
    if beta:
        f = blk.flat_latent
        fro = math.sqrt(f.dot(f))
        if fro > 0:
            latent = blk.parts[0]
            latent *= beta / fro  # last use of the gathered rows
            d_h += latent
    if fresh:
        np.add.at(_ws.latent, idx, d_h.T)
    else:
        # every other entry was overwritten above; only the previous
        # batch's latent rows can be nonzero
        _ws.latent[_ws.rows] = 0.0
        _ws.latent[idx] = d_h.T
        _ws.rows = idx
    return _ws.grad


def adam_step(
    model: Model,
    grads: np.ndarray,
    config: ModelConfig,
    _ws: _Workspace | None = None,
) -> Model:
    """One Adam update with bias correction over the whole parameter vector,
    in place; returns the model. Parameters with exactly zero gradient and
    zero moments are unchanged. ``_ws`` is private to :func:`fit`. Without
    it ``grads`` must be a finite real vector of ``theta``'s length, else
    :class:`InvalidInputError` is raised before the model changes, and the
    step runs in a fresh workspace whose batch is the whole table. The step
    updates the moments and their root cache only on the batch's latent
    rows and the decoder (``_Workspace.spans``).

    With beta1, beta2, eps = ``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``,
    ``model.m`` and ``model.v`` hold Adam's moments m and v divided by
    beta1^tau and beta2^tau, tau = ((t - 1) mod R) + 1 and R =
    ``ADAM_RESCALE``. A step adds ``(1 - beta1) / beta1^tau * g`` to
    ``model.m`` and ``(1 - beta2) / beta2^tau * g^2`` to ``model.v``, so an
    entry with g = 0 keeps both bit for bit. Before the first step of each
    window after the first, one dense fold multiplies them by beta1^R and
    beta2^R. The bias corrections c1 = 1 - beta1^t, c2 = 1 - beta2^t and the
    scales go into two scalars (Kingma & Ba, arXiv:1412.6980, sec. 2):
    ``theta -= (lr * sqrt(c2) * beta1^tau / (c1 * sqrt(beta2^tau))) *
    model.m / (sqrt(model.v) + eps * sqrt(c2 / beta2^tau))``, which equals
    ``lr * m_hat / (sqrt(v_hat) + eps)`` in exact arithmetic. Its four dense
    passes (add, scale, divide, subtract) take no square root."""
    if _ws is None:
        grads = as_vector(grads, "grads")
        if grads.size != model.theta.size:
            raise InvalidInputError(f"grads must have {model.theta.size} entries, got {grads.size}")
        _ws = _Workspace(model)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = model.m, model.v
    a, b = _ws.scratch
    root = _ws.root
    model.t += 1
    tau = (model.t - 1) % ADAM_RESCALE + 1
    if tau == 1 and model.t > 1:  # fold the last window's decay
        m *= b1**ADAM_RESCALE
        v *= b2**ADAM_RESCALE
        np.sqrt(v, out=root)
    b1_tau, b2_tau = b1**tau, b2**tau
    gain1, gain2 = _ADAM_GAINS[tau - 1]
    for s, a_s, m_s, v_s, root_s in _ws.spans():
        g = grads[s]
        np.multiply(g, gain1, out=a_s)
        m_s += a_s
        np.multiply(g, g, out=a_s)
        a_s *= gain2
        v_s += a_s
        np.sqrt(v_s, out=root_s)
    c1, c2 = 1.0 - b1**model.t, 1.0 - b2**model.t
    step = config.learning_rate * math.sqrt(c2) * b1_tau / (c1 * math.sqrt(b2_tau))
    np.add(root, ADAM_EPS * math.sqrt(c2 / b2_tau), out=b)
    np.multiply(m, step, out=a)
    a /= b
    model.theta -= a
    return model


# a diverging run overflows; TrainingDivergedError alone reports it
@np.errstate(over="ignore", invalid="ignore")
def fit(x: np.ndarray, config: ModelConfig) -> tuple[Model, TrainReport]:
    """Train on ``x``: seeded-shuffle mini-batch epochs of Adam updates, full
    data loss recorded per epoch, optional early stop on stalled improvement.

    Deterministic given ``config.seed``. Raises
    :class:`TrainingDivergedError` (carrying the partial report) if the loss
    goes non-finite.

    Each epoch first moves the latent rows of ``theta``, ``m``, ``v`` and
    the root cache into that epoch's shuffle order (one ``take`` each), so
    batch j is the row slice [j*b, (j+1)*b); the epoch loss reads them back
    in sample order, and the returned model holds them in sample order.
    """
    x = as_matrix(x, "x")
    n, d = x.shape
    model = init_model(config, n, d)
    ws = _Workspace(model)
    batch = config.resolved_batch_size(n)
    shuffle_rng = spawn_rng(config.seed, 1)  # distinct stream from init
    report = TrainReport(config)
    all_idx = np.arange(n)
    where = all_idx.copy()  # where[i]: the latent row that holds sample i
    started = time.perf_counter()
    for epoch in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        # row s of the tables holds sample perm[s], so a batch is a row slice
        ws.reorder(where[perm])
        where[perm] = all_idx
        x_perm = x.take(perm, axis=0)
        for s in range(0, n, batch):
            rows = slice(s, min(s + batch, n))
            grads = gradients(model, rows, x_perm[rows], config, ws)
            adam_step(model, grads, config, ws)
        terms = loss(forward(model, where), x, model, config)
        report.losses.append(terms)
        if not math.isfinite(terms.total):
            report.diverged = True
            report.wall_time_s = time.perf_counter() - started
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch + 1}", report=report
            )
        conv = config.convergence
        if conv is not None and epoch + 1 > conv.window:
            ref = report.losses[-(conv.window + 1)].total
            scale = max(abs(ref), np.finfo(np.float64).tiny)
            if (ref - terms.total) / scale < conv.rel_tol:
                report.converged = True
                break
    ws.reorder(where)  # back to sample order
    report.wall_time_s = time.perf_counter() - started
    return model, report


def embed(model: Model) -> np.ndarray:
    """The n x k embedding (latent-layer outputs), row-aligned with the data."""
    return model.latent_table.copy()


def save_checkpoint(model: Model, config: ModelConfig, path) -> None:
    """Write a versioned JSON checkpoint: the config (seed included) and
    ``params``, one ``{"shape", "data"}`` entry (data row-major) per
    ``model.views`` name, in that order. JSON floats round-trip bit-exactly.

    JSON has no token for NaN or infinity, so a model with a non-finite
    parameter raises :class:`InvalidInputError`, naming the first such view,
    before ``path`` is opened."""
    views = model.views(model.theta)
    for name, p in views.items():
        if not np.isfinite(p).all():
            raise InvalidInputError(
                f"cannot checkpoint a model with a non-finite parameter in {name}"
            )
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "params": {
            name: {"shape": list(p.shape), "data": p.ravel().tolist()}
            for name, p in views.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
