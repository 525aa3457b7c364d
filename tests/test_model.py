import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from neurodavis.errors import InvalidInputError, TrainingDivergedError
from neurodavis.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_RESCALE,
    Convergence,
    Model,
    ModelConfig,
    _Block,
    _Workspace,
    _activity_units,
    adam_step,
    embed,
    fit,
    forward,
    gradients,
    init_model,
    loss,
    save_checkpoint,
)
from neurodavis.numerics import make_rng, spawn_rng
from oracles import oracle_row_major_gradients, oracle_scaled_unit_rows


def straight_line_forward(model, idx):
    """Scalar-loop reimplementation of the forward pass (oracle)."""
    out = np.zeros((len(idx), model.d))
    for r, i in enumerate(idx):
        h = [float(v) for v in model.latent_table[i]]
        for li, (w, b) in enumerate(model.layers):
            nxt = []
            for o in range(w.shape[1]):
                acc = float(b[o])
                for c in range(len(h)):
                    acc += h[c] * float(w[c, o])
                nxt.append(acc)
            # ReLU on the hidden layers; the last (reconstruction) layer is linear
            h = [max(0.0, a) for a in nxt] if li < len(model.layers) - 1 else nxt
        out[r] = h
    return out


def finite_difference(model, idx, x_batch, config, step=1e-6):
    """Independent central-difference gradients via forward + loss only."""
    theta = model.theta
    grads = np.zeros_like(theta)
    for k in range(theta.size):
        orig = theta[k]
        theta[k] = orig + step
        hi = loss(forward(model, idx), x_batch, model, config).total
        theta[k] = orig - step
        lo = loss(forward(model, idx), x_batch, model, config).total
        theta[k] = orig
        grads[k] = (hi - lo) / (2 * step)
    return grads


def zero_model(model):
    model.theta[...] = 0.0
    return model


def reference_scaled_unit_columns(h_t, c):
    """c * h / ||h|| per column of feature-major ``h_t``, +0.0 where the
    norm is not positive; the squares are summed by a ones vector's
    product, as the training block sums each of its (C-ordered) parts."""
    h_t = np.ascontiguousarray(h_t)
    norms = np.sqrt(np.ones(len(h_t)) @ (h_t * h_t))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norms > 0, h_t * (c / norms), 0.0)


def reference_gradients(model, idx, x_batch, cfg):
    """The training step's gradient formulas written plainly, feature-major
    (one column per sample) with each bias folded into its layer's stacked
    ``[w; b]`` against a row of ones, one fresh array per operation, for a
    batch of distinct indices."""
    ones = np.ones((1, len(idx)))
    last = len(model.layers) - 1
    act = [model.latent_table[idx].T.copy()]  # (k, m)
    inputs = []
    for li, (w, b) in enumerate(model.layers):
        inputs.append(np.vstack((act[li], ones)))
        out = np.vstack((w, b)).T @ inputs[li]
        act.append(np.maximum(out, 0.0) if li < last else out)
    grads = np.zeros_like(model.theta)
    views = model.views(grads)
    names = [f"hidden{i}" for i in range(last)] + ["recon"]
    d_h = (2.0 / len(idx)) * (act[-1] - x_batch.T)
    for li in reversed(range(last + 1)):
        w = model.layers[li].w
        if li < last:  # a hidden layer
            if cfg.alpha:
                d_h = d_h + reference_scaled_unit_columns(act[li + 1], cfg.alpha)
            d_h = d_h * (act[li + 1] > 0.0)
        grad_wb = inputs[li] @ d_h.T
        if cfg.beta and li < last:
            fro = float(np.linalg.norm(w))
            if fro > 0:
                grad_wb[:-1] = grad_wb[:-1] + w * (cfg.beta / fro)
        views[f"{names[li]}.w"][...] = grad_wb[:-1]
        views[f"{names[li]}.b"][...] = grad_wb[-1]
        d_h = w @ d_h
    if cfg.alpha:
        d_h = d_h + reference_scaled_unit_columns(act[0], cfg.alpha)
    if cfg.beta:
        fro = float(np.linalg.norm(act[0]))
        if fro > 0:
            d_h = d_h + act[0] * (cfg.beta / fro)
    views["latent_table"][idx] = d_h.T
    return grads


def reference_adam(model, grads, cfg):
    """The scaled-moment Adam update written plainly, dense, one fresh array
    per operation: ``model.m`` and ``model.v`` hold the moments divided by
    beta^tau, folded back every ``ADAM_RESCALE`` steps."""
    model.t += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, model.t
    tau = (t - 1) % ADAM_RESCALE + 1
    if tau == 1 and t > 1:
        model.m[...] = model.m * b1**ADAM_RESCALE
        model.v[...] = model.v * b2**ADAM_RESCALE
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    m = model.m + ((1.0 - b1) / b1**tau) * grads
    v = model.v + ((1.0 - b2) / b2**tau) * (grads * grads)
    model.m[...] = m
    model.v[...] = v
    step = cfg.learning_rate * math.sqrt(c2) * b1**tau / (c1 * math.sqrt(b2**tau))
    model.theta -= step * m / (np.sqrt(v) + ADAM_EPS * math.sqrt(c2 / b2**tau))


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(InvalidInputError):
            ModelConfig(latent_dim=0)
        with pytest.raises(InvalidInputError):
            ModelConfig(hidden_widths=(4, 0))
        with pytest.raises(InvalidInputError):
            ModelConfig(learning_rate=0.0)
        with pytest.raises(InvalidInputError):
            ModelConfig(batch_size=0)
        with pytest.raises(InvalidInputError):
            ModelConfig(convergence=Convergence(window=1))
        nan, inf = float("nan"), float("inf")
        for field in ("alpha", "beta", "learning_rate"):
            for value in (nan, inf):
                with pytest.raises(InvalidInputError):
                    ModelConfig(**{field: value})
        for value in (nan, inf, -inf, -1e-5):
            with pytest.raises(InvalidInputError):
                ModelConfig(convergence=Convergence(window=5, rel_tol=value))
        ModelConfig(convergence=Convergence(rel_tol=0.0))  # zero is valid

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: ModelConfig(**ModelConfig().to_dict()), "convergence"),
            (lambda: ModelConfig(convergence=5), "convergence"),
            (lambda: ModelConfig(hidden_widths=5), "hidden_widths"),
        ],
        ids=["convergence-dict", "convergence-int", "hidden_widths-int"],
    )
    def test_wrong_form_rejected_at_construction(self, make, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be a"):
            make()

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_negative_penalty_rejected(self, field):
        with pytest.raises(InvalidInputError, match=f"^{field} must be a finite real >= 0"):
            ModelConfig(**{field: -1e-6})

    @pytest.mark.parametrize(
        "make, name",
        [
            (lambda: ModelConfig(epochs=2.5), "epochs"),
            (lambda: ModelConfig(latent_dim=1.5), "latent_dim"),
            (lambda: ModelConfig(batch_size=2.5), "batch_size"),
            (lambda: ModelConfig(hidden_widths=(2.5,)), "hidden width"),
            (lambda: ModelConfig(seed=1.5), "seed"),
            (lambda: ModelConfig(seed=-1), "seed"),
            (lambda: Convergence(window=2.5), "convergence window"),
        ],
        ids=["epochs", "latent_dim", "batch_size", "hidden_widths", "seed", "negative-seed",
             "window"],
    )
    def test_non_integer_or_out_of_range_counts_rejected(self, make, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= "):
            make()

    def test_numpy_integer_counts_stored_as_int(self):
        i = np.int64
        cfg = ModelConfig(
            latent_dim=i(3), hidden_widths=(i(4),), epochs=i(5), batch_size=i(6),
            seed=i(7), convergence=Convergence(window=i(8)),
        )
        counts = (cfg.latent_dim, *cfg.hidden_widths, cfg.epochs, cfg.batch_size,
                  cfg.seed, cfg.convergence.window)
        assert counts == (3, 4, 5, 6, 7, 8)
        assert all(type(c) is int for c in counts)
        cfg.config_hash()  # json cannot encode numpy integers

    def test_auto_hidden_widths(self):
        assert ModelConfig().resolved_hidden(2) == (16, 16)
        assert ModelConfig().resolved_hidden(700) == (256, 256)
        assert ModelConfig(hidden_widths=(5,)).resolved_hidden(700) == (5,)

    def test_hash_stable_and_sensitive(self):
        a = ModelConfig(seed=1)
        assert a.config_hash() == ModelConfig(seed=1).config_hash()
        assert a.config_hash() != ModelConfig(seed=2).config_hash()


class TestInitModel:
    @pytest.mark.parametrize("n, d, name", [(0, 2, "n"), (3, 0, "d"), (2.5, 2, "n")])
    def test_rows_and_columns_are_counts(self, n, d, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= 1"):
            init_model(ModelConfig(), n, d)

    def test_shape_chain(self):
        cfg = ModelConfig(latent_dim=2, hidden_widths=(4, 4))
        model = init_model(cfg, n=10, d=3)
        assert model.latent_table.shape == (10, 2)
        assert [w.shape for w, _ in model.layers] == [(2, 4), (4, 4), (4, 3)]
        assert [b.shape for _, b in model.layers] == [(4,), (4,), (3,)]

    def test_layout_views_share_theta(self):
        model = init_model(ModelConfig(latent_dim=2, hidden_widths=(4,)), n=5, d=3)
        views = model.views(model.theta)
        assert list(views) == [
            "latent_table", "hidden0.w", "hidden0.b", "recon.w", "recon.b"
        ]
        assert model.theta.size == 5 * 2 + (2 * 4 + 4) + (4 * 3 + 3)
        assert model.m.shape == model.v.shape == model.theta.shape
        for a in (model.latent_table, model.layers[0].w, model.layers[-1].b):
            assert np.shares_memory(a, model.theta)
        model.layers[-1].b[1] = 7.0
        assert model.theta[-2] == 7.0
        assert views["recon.b"][1] == 7.0
        assert np.array_equal(views["hidden0.w"], model.layers[0].w)

    def test_each_layer_slice_stacks_w_over_b(self):
        # theta stores every w directly before its b, so the slice from w's
        # start to b's end is the stacked weight the training block multiplies
        model = init_model(ModelConfig(latent_dim=3, hidden_widths=(4, 2)), n=5, d=6)
        start = model.latent_table.size
        for w, b in model.layers:
            stop = start + w.size + b.size
            wb = model.theta[start:stop].reshape(w.shape[0] + 1, w.shape[1])
            assert wb.tobytes() == np.vstack((w, b)).tobytes()
            assert np.shares_memory(wb, w) and np.shares_memory(wb, b)
            start = stop
        assert start == model.theta.size

    def test_deterministic(self):
        cfg = ModelConfig(seed=5, hidden_widths=(3,))
        a = init_model(cfg, 6, 2)
        b = init_model(cfg, 6, 2)
        assert np.array_equal(a.theta, b.theta)

    def test_no_hidden_single_linear_map(self):
        model = init_model(ModelConfig(latent_dim=2, hidden_widths=()), 4, 3)
        assert len(model.layers) == 1
        assert model.layers[0].w.shape == (2, 3)

    def test_latent_init_bounds(self):
        model = init_model(ModelConfig(seed=3), 50, 4)
        emb = embed(model)
        assert np.all(emb > -0.01) and np.all(emb < 0.01)

    def test_biases_zero_moments_zero(self):
        model = init_model(ModelConfig(seed=1, hidden_widths=(4,)), 5, 3)
        assert all(np.all(b == 0) for _, b in model.layers)
        assert model.t == 0
        assert np.all(model.m == 0) and np.all(model.v == 0)


class TestForward:
    def test_zero_network_reconstructs_zero(self):
        model = zero_model(init_model(ModelConfig(hidden_widths=(4,)), 5, 3))
        trace = forward(model, [0, 2, 4])
        assert np.array_equal(trace.recon, np.zeros((3, 3)))

    def test_linear_hand_case(self):
        model = init_model(ModelConfig(latent_dim=1, hidden_widths=()), 1, 1)
        model.latent_table[0, 0] = 2.0
        model.layers[-1].w[0, 0] = 3.0
        model.layers[-1].b[0] = 1.0
        assert forward(model, [0]).recon[0, 0] == 7.0

    def test_matches_straight_line_oracle(self):
        rng = make_rng(11)
        model = init_model(ModelConfig(seed=2, latent_dim=3, hidden_widths=(5, 4)), 8, 4)
        model.latent_table[...] = rng.standard_normal((8, 3))
        for w, b in model.layers:
            w[...] = rng.standard_normal(w.shape)
            b[...] = rng.standard_normal(b.shape)
        idx = [1, 3, 7, 0]
        np.testing.assert_allclose(
            forward(model, idx).recon, straight_line_forward(model, idx), atol=1e-12
        )

    def test_relu_applied_to_hidden_only(self):
        model = init_model(ModelConfig(seed=0, hidden_widths=(4,)), 5, 2)
        trace = forward(model, [0, 1])
        w, b = model.layers[0]
        pre = trace.latent @ w + b
        assert np.all(trace.hidden_act[0] >= 0)
        np.testing.assert_array_equal(trace.hidden_act[0], np.maximum(pre, 0.0))

    def test_index_out_of_range(self):
        model = init_model(ModelConfig(), 4, 2)
        with pytest.raises(InvalidInputError):
            forward(model, [0, 4])
        with pytest.raises(InvalidInputError):
            forward(model, [-1])

    @pytest.mark.parametrize("idx", [[], [[0, 1]]], ids=["empty", "2-d"])
    def test_indices_must_be_nonempty_1d(self, idx):
        model = init_model(ModelConfig(), 4, 2)
        with pytest.raises(InvalidInputError, match="nonempty 1-D"):
            forward(model, idx)


class TestLoss:
    def test_perfect_reconstruction_zero(self):
        cfg = ModelConfig(latent_dim=1, hidden_widths=(), alpha=0.0, beta=0.0)
        model = init_model(cfg, 2, 2)
        x = forward(model, [0, 1]).recon.copy()
        terms = loss(forward(model, [0, 1]), x, model, cfg)
        assert terms.total == 0.0

    def test_single_sample_squared_error(self):
        cfg = ModelConfig(latent_dim=1, hidden_widths=(), alpha=0.0, beta=0.0)
        model = zero_model(init_model(cfg, 1, 1))
        model.layers[-1].b[0] = 1.0  # reconstruction is 1, target 3
        terms = loss(forward(model, [0]), np.array([[3.0]]), model, cfg)
        assert terms.total == 4.0
        assert terms.recon_term == 4.0

    def test_alpha_beta_zero_reduces_to_mse(self):
        cfg = ModelConfig(seed=4, alpha=0.0, beta=0.0, hidden_widths=(6,))
        model = init_model(cfg, 6, 3)
        x = make_rng(0).standard_normal((6, 3))
        trace = forward(model, np.arange(6))
        terms = loss(trace, x, model, cfg)
        assert terms.activity_term == 0.0 and terms.weight_term == 0.0
        mse = ((x - trace.recon) ** 2).sum() / 6
        assert terms.recon_term == pytest.approx(mse, rel=1e-15)

    def test_decomposition_exact(self):
        cfg = ModelConfig(seed=4, alpha=1e-3, beta=1e-2, hidden_widths=(6,))
        model = init_model(cfg, 6, 3)
        x = make_rng(0).standard_normal((6, 3))
        terms = loss(forward(model, np.arange(6)), x, model, cfg)
        assert terms.total == terms.recon_term + terms.activity_term + terms.weight_term
        assert terms.recon_term >= 0 and terms.activity_term >= 0
        assert terms.weight_term >= 0

    def test_activity_and_weight_terms_explicit(self):
        # one sample, identity-ish tiny net: hand-computable norms
        cfg = ModelConfig(latent_dim=2, hidden_widths=(), alpha=0.5, beta=2.0)
        model = zero_model(init_model(cfg, 1, 2))
        model.latent_table[0] = [3.0, 4.0]
        x = np.zeros((1, 2))
        terms = loss(forward(model, [0]), x, model, cfg)
        assert terms.activity_term == pytest.approx(0.5 * 5.0)  # alpha*|h1|
        assert terms.weight_term == pytest.approx(2.0 * 5.0)  # beta*|W1|_F
        assert terms.recon_term == 0.0

    def test_shape_mismatch(self):
        cfg = ModelConfig()
        model = init_model(cfg, 3, 2)
        with pytest.raises(InvalidInputError):
            loss(forward(model, [0, 1]), np.zeros((3, 2)), model, cfg)

    def test_terms_keep_parameter_dtype(self):
        # float64 parameters give Python floats; long-double parameters give
        # long-double terms, not terms rounded to float
        cfg = ModelConfig(seed=4, alpha=1e-3, beta=1e-2, hidden_widths=(6,))
        model = init_model(cfg, 6, 3)
        x = make_rng(0).standard_normal((6, 3))
        terms = loss(forward(model, np.arange(6)), x, model, cfg)
        assert all(type(t) is float for t in terms)
        wide = model.astype(np.longdouble)
        wide_terms = loss(forward(wide, np.arange(6)), x, wide, cfg)
        for w, t in zip(wide_terms, terms):
            assert type(w) is np.longdouble
            assert abs(w - t) <= 1e-13 * abs(t)


class TestGradients:
    def test_batch_shape_mismatch(self):
        cfg = ModelConfig()
        model = init_model(cfg, 4, 2)
        with pytest.raises(InvalidInputError, match="x_batch shape does not match"):
            gradients(model, [0, 1], np.zeros((3, 2)), cfg)

    def test_zero_at_perfect_fit(self):
        cfg = ModelConfig(latent_dim=2, hidden_widths=(), alpha=0.0, beta=0.0)
        model = init_model(cfg, 3, 2)
        x = forward(model, np.arange(3)).recon.copy()
        grads = gradients(model, np.arange(3), x, cfg)
        np.testing.assert_allclose(grads, 0.0, atol=1e-15)

    def test_linear_latent_row_closed_form(self):
        cfg = ModelConfig(latent_dim=2, hidden_widths=(), alpha=0.0, beta=0.0, seed=8)
        model = init_model(cfg, 4, 3)
        x = make_rng(1).standard_normal((4, 3))
        grads = gradients(model, np.arange(4), x, cfg)
        trace = forward(model, np.arange(4))
        expected = -(2.0 / 4) * (x - trace.recon) @ model.layers[-1].w.T
        np.testing.assert_allclose(
            model.views(grads)["latent_table"], expected, atol=1e-12
        )

    def test_rows_outside_batch_get_zero(self):
        cfg = ModelConfig(seed=2, alpha=1e-3, beta=1e-3, hidden_widths=(4,))
        model = init_model(cfg, 10, 3)
        x = make_rng(2).standard_normal((10, 3))
        batch = np.array([1, 4, 6])
        grads = model.views(gradients(model, batch, x[batch], cfg))
        outside = np.setdiff1d(np.arange(10), batch)
        assert np.all(grads["latent_table"][outside] == 0.0)
        assert np.any(grads["latent_table"][batch] != 0.0)

    def test_dead_unit_and_nan_row_match_reference_mask(self):
        # the ReLU mask is sign(act), not the bool act > 0: equal at a unit
        # dead on every row (act +0.0) and NaN only where d_h is NaN already
        cfg = ModelConfig(seed=3, alpha=1e-3, beta=1e-3, hidden_widths=(4, 3))
        model = init_model(cfg, 10, 3)
        model.layers[0].w[:, 1] = 0.0
        model.layers[0].b[1] = -1.0
        model.latent_table[6] = np.nan
        x = make_rng(2).standard_normal((10, 3))
        batch = np.array([1, 4, 6, 8])
        dead = forward(model, batch).hidden_act[0][:, 1]
        assert np.array_equal(dead, [0.0, 0.0, np.nan, 0.0], equal_nan=True)
        got = gradients(model, batch, x[batch], cfg)
        want = reference_gradients(model, batch, x[batch], cfg)
        assert np.array_equal(got, want, equal_nan=True)
        latent = model.views(got)["latent_table"]
        assert np.isnan(latent[6]).all() and np.isfinite(latent[[1, 4, 8]]).all()

    def test_workspace_zeroes_stale_latent_rows(self):
        # fit reuses one gradient buffer; the row slice the previous batch
        # wrote must read zero in the next step's vector
        cfg = ModelConfig(seed=2, alpha=1e-3, beta=1e-3, hidden_widths=(4,))
        model = init_model(cfg, 10, 3)
        x = make_rng(2).standard_normal((10, 3))
        ws = _Workspace(model)
        first, second = slice(1, 4), slice(6, 10)
        grads = gradients(model, first, x[first], cfg, ws)
        assert np.all(model.views(grads)["latent_table"][first] != 0.0)
        adam_step(model, grads, cfg, ws)
        expected = gradients(model, np.arange(6, 10), x[second], cfg)
        grads = gradients(model, second, x[second], cfg, ws)
        assert np.all(model.views(grads)["latent_table"][:6] == 0.0)
        assert grads.tobytes() == expected.tobytes()

    def test_repeated_indices_sum_their_copies(self):
        # the loss counts each copy of a repeated row, so its gradient sums
        cfg = ModelConfig(seed=2, alpha=1e-3, beta=1e-3, hidden_widths=(4,))
        model = init_model(cfg, 5, 3)
        model.latent_table[...] = make_rng(4).standard_normal((5, 2))
        x = make_rng(2).standard_normal((5, 3))
        batch = np.array([1, 3, 1])
        analytic = gradients(model, batch, x[batch], cfg)
        numeric = finite_difference(model, batch, x[batch], cfg)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1e-3, 0.0), (1e-3, 1e-3)])
    @pytest.mark.parametrize("widths", [(), (5,), (4, 3)])
    def test_matches_finite_differences(self, alpha, beta, widths):
        cfg = ModelConfig(
            latent_dim=3, hidden_widths=widths, alpha=alpha, beta=beta, seed=6
        )
        model = init_model(cfg, 5, 4)
        x = make_rng(3).standard_normal((5, 4))
        batch = np.array([0, 2, 3])
        analytic = model.views(gradients(model, batch, x[batch], cfg))
        numeric = model.views(finite_difference(model, batch, x[batch], cfg))
        for name in analytic:
            a, f = analytic[name].ravel(), numeric[name].ravel()
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-8)
            assert (np.abs(a - f) / denom).max() < 1e-4, name


def block_units(hs, c):
    """``_activity_units`` on a training block whose parts hold the (m, f)
    arrays ``hs``, feature-major; each part's result back as (m, f)."""
    blk = _Block([h.shape[1] for h in hs], len(hs[0]), np.float64)
    for part, h in zip(blk.parts, hs):
        part[...] = h.T
    units = _activity_units(blk, c)
    assert not any(np.shares_memory(u, blk.a) for u in units)  # the block stays as it was
    return [u.T for u in units]


class TestUnitRows:
    @pytest.mark.parametrize(
        "edge",
        [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [np.nan, 1.0, 2.0],
         [1e-200, -1e-200, 0.0], [-1e-200, 0.0, -1e-200]],
        ids=["zero", "negative-zero", "nan", "underflow", "negative-underflow"],
    )
    def test_edge_rows_stay_zero(self, edge):
        # masked branch: one degenerate sample among ordinary ones, no warning
        h = make_rng(0).standard_normal((4, 3))
        h[2] = edge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (out,) = block_units((h,), 0.7)
        assert out[2].tobytes() == np.zeros(3).tobytes()  # +0.0, not -0.0
        assert out.tobytes() == reference_scaled_unit_columns(h.T, 0.7).T.tobytes()

    def test_positive_rows_divide_plainly(self):
        # fast branch: every norm positive, including tiny samples that square
        # to a normal number; one divide per norm, one multiply for the block
        h = make_rng(1).standard_normal((6, 3))
        h[1] *= 1e-150
        h[4] = [0.0, -2.0, 0.0]
        g = np.abs(make_rng(2).standard_normal((6, 5)))
        outs = block_units((h, g), 0.7)
        for a, out in zip((h, g), outs):
            assert out.tobytes() == reference_scaled_unit_columns(a.T, 0.7).T.tobytes()
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 0.7)
        np.testing.assert_allclose(outs[0], oracle_scaled_unit_rows(h, 0.7), rtol=1e-15)

    def test_dead_row_in_one_layer_leaves_the_others_plain(self):
        # one ReLU-dead sample in the middle layer sends the whole block down
        # the masked branch; every layer still rounds as it alone would
        rng = make_rng(3)
        hs = (rng.standard_normal((5, 2)), np.abs(rng.standard_normal((5, 4))),
              np.abs(rng.standard_normal((5, 3))))
        hs[1][3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = block_units(hs, 0.7)
        assert outs[1][3].tobytes() == np.zeros(4).tobytes()
        for h, out in zip(hs, outs):
            assert out.tobytes() == reference_scaled_unit_columns(h.T, 0.7).T.tobytes()
        assert np.all(np.vecdot(outs[0], outs[0]) > 0)
        assert np.all(np.vecdot(outs[2], outs[2]) > 0)

    def test_nan_in_one_layer_reaches_no_other(self):
        # each part sums only its own rows: a NaN output in the last hidden
        # layer zeroes that sample there and leaves its latent and first
        # hidden columns scaled
        rng = make_rng(5)
        hs = (rng.standard_normal((5, 2)), np.abs(rng.standard_normal((5, 4))),
              np.abs(rng.standard_normal((5, 3))))
        hs[2][1, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = block_units(hs, 0.7)
        assert outs[2][1].tobytes() == np.zeros(3).tobytes()
        for out in outs[:2]:
            np.testing.assert_allclose(np.linalg.norm(out, axis=1), 0.7)

    @pytest.mark.parametrize(
        "edge", [[np.nan, 1.0, 2.0], [0.0, 0.0, 0.0]], ids=["nan", "zero"]
    )
    def test_last_norm_alone_dead(self, edge):
        # the one non-positive norm is the last part's last sample: a
        # positivity test that reads the first norm only, or uses .all()
        # (true for a NaN), takes the plain branch and divides by it
        rng = make_rng(4)
        hs = (rng.standard_normal((5, 2)), np.abs(rng.standard_normal((5, 4))),
              np.abs(rng.standard_normal((5, 3))))
        hs[2][-1] = edge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = block_units(hs, 0.7)
        assert outs[2][-1].tobytes() == np.zeros(3).tobytes()
        for h, out in zip(hs, outs):
            assert out.tobytes() == reference_scaled_unit_columns(h.T, 0.7).T.tobytes()


class TestAdam:
    def test_zero_grads_zero_moments_no_change(self):
        cfg = ModelConfig(seed=1, hidden_widths=(3,))
        model = init_model(cfg, 4, 2)
        before = model.theta.copy()
        adam_step(model, np.zeros_like(model.theta), cfg)
        assert model.t == 1
        assert np.array_equal(model.theta, before)

    def test_scalar_hand_recurrence(self):
        cfg = ModelConfig(
            latent_dim=1, hidden_widths=(), learning_rate=0.1, seed=0
        )
        model = zero_model(init_model(cfg, 1, 1))
        grads = np.zeros_like(model.theta)
        model.views(grads)["recon.w"][0, 0] = 1.0
        adam_step(model, grads, cfg)
        # first step: m_hat = v_hat = 1 -> delta = -lr / (1 + eps)
        expected = -0.1 / (1.0 + ADAM_EPS)
        assert model.layers[-1].w[0, 0] == pytest.approx(expected, abs=1e-12)
        # second identical step, recurrence evaluated by hand
        adam_step(model, grads, cfg)
        m = 0.9 * 0.1 + 0.1 * 1.0
        v = 0.999 * 0.001 + 0.001 * 1.0
        mh = m / (1 - 0.9**2)
        vh = v / (1 - 0.999**2)
        expected += -0.1 * mh / (np.sqrt(vh) + ADAM_EPS)
        assert model.layers[-1].w[0, 0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("b1,b2", [(ADAM_BETA1, ADAM_BETA2)])
    def test_matches_textbook_recurrence(self, b1, b2):
        # the scaled moments, their folds and the folded bias correction
        # equal lr * m_hat / (sqrt(v_hat) + eps) up to rounding, over four
        # rescale windows of gradients spanning ten decades and exact zeros,
        # and beta^tau times the stored moments are the textbook moments;
        # both on the dense public step and on fit's workspace step. The
        # recurrence runs in long double: moments of mixed-sign gradients
        # cancel, and then float64's own rounding of it can move the
        # reference by 1.8e-10 (one of six seeds tried), while the step stays
        # within 1e-12 of the exact one on this seed
        for workspace in (False, True):
            self.check_textbook_recurrence(b1, b2, workspace)

    @staticmethod
    def check_textbook_recurrence(b1, b2, workspace):
        wide = np.longdouble
        b1, b2 = wide(b1), wide(b2)
        cfg = ModelConfig(hidden_widths=(3,), learning_rate=0.01)
        model = init_model(cfg, 20, 4)
        ws = _Workspace(model) if workspace else None  # its batch: the whole table
        rng = make_rng(9)
        m = np.zeros(model.theta.size, wide)
        v = np.zeros(model.theta.size, wide)
        for t in range(1, 4 * ADAM_RESCALE + 1):
            grads = rng.standard_normal(model.theta.size)
            grads *= 10.0 ** rng.uniform(-8, 2, grads.size)
            grads[rng.random(grads.size) < 0.2] = 0.0
            g = grads.astype(wide)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            expected = wide(cfg.learning_rate) * m_hat / (np.sqrt(v_hat) + wide(ADAM_EPS))
            model.theta[...] = 0.0
            adam_step(model, grads, cfg, ws)
            np.testing.assert_allclose(-model.theta, expected, rtol=1e-12, atol=0)
            tau = (t - 1) % ADAM_RESCALE + 1
            np.testing.assert_allclose(b1**tau * model.m, m, rtol=1e-12, atol=0)
            np.testing.assert_allclose(b2**tau * model.v, v, rtol=1e-12, atol=0)
        assert model.t > 3 * ADAM_RESCALE

    @pytest.mark.parametrize(
        "make_bad",
        [lambda size: np.zeros(size - 1),
         lambda size: np.r_[np.zeros(size - 1), np.nan],
         lambda size: np.zeros(size, complex)],
        ids=["wrong-length", "non-finite", "complex"],
    )
    def test_public_step_checks_grads_before_touching_model(self, make_bad):
        cfg = ModelConfig(hidden_widths=(3,))
        model = init_model(cfg, 20, 3)
        adam_step(model, make_rng(0).standard_normal(model.theta.size), cfg)
        before = [model.t] + [a.tobytes() for a in (model.theta, model.m, model.v)]
        with pytest.raises(InvalidInputError, match="grads"):
            adam_step(model, make_bad(model.theta.size), cfg)
        assert [model.t] + [a.tobytes() for a in (model.theta, model.m, model.v)] == before

    def test_deterministic_across_models(self):
        cfg = ModelConfig(seed=7, hidden_widths=(4,))
        a = init_model(cfg, 5, 3)
        b = init_model(cfg, 5, 3)
        x = make_rng(4).standard_normal((5, 3))
        ga = gradients(a, np.arange(5), x, cfg)
        gb = gradients(b, np.arange(5), x, cfg)
        adam_step(a, ga, cfg)
        adam_step(b, gb, cfg)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v)

    def test_batch_isolation(self):
        cfg = ModelConfig(seed=3, alpha=1e-3, beta=1e-3, hidden_widths=(4,))
        model = init_model(cfg, 12, 3)
        x = make_rng(6).standard_normal((12, 3))
        batch = np.array([0, 5, 9])
        before = model.latent_table.copy()
        grads = gradients(model, batch, x[batch], cfg)
        adam_step(model, grads, cfg)
        outside = np.setdiff1d(np.arange(12), batch)
        assert np.array_equal(model.latent_table[outside], before[outside])
        assert not np.array_equal(model.latent_table[batch], before[batch])


# latent_dim 1, 2 and 3 give latent rows of 8, 16 and 24 bytes; at batch 1
# through one width-1 layer every product has a 1 x 1, single-row or
# single-column operand, where numpy leaves gemm for its scalar, dot and gemv
# paths; at batch 7 through a width-1 layer that layer's bias gradient, a
# one-column batch sum, takes numpy's vector path; with three hidden layers
# the middle one reads and writes hidden activations; at batch 5 the last
# row slice of each epoch holds 3 rows, and at batch 128 or more one slice is
# the whole table
REPLAY_CASES = pytest.mark.parametrize(
    "latent_dim,widths,alpha,beta,batch_size",
    [(2, None, 1e-6, 1e-4, None), (2, (), 1e-6, 1e-4, None),
     (2, None, 0.0, 0.0, None), (2, (5, 4), 1e-3, 1e-3, 7),
     (1, (6,), 1e-3, 1e-3, None), (3, (), 1e-3, 1e-3, 7),
     (1, (1,), 1e-3, 1e-3, 1), (2, (1,), 1e-3, 1e-3, 7),
     (2, (5, 4, 3), 1e-3, 1e-3, 7), (2, (4,), 1e-3, 1e-3, 5),
     (2, (4,), 1e-3, 1e-3, 128), (3, None, 1e-6, 1e-4, 500)],
    ids=["default", "no-hidden", "no-regularizers", "partial-batch",
         "latent1", "latent3-no-hidden", "batch1-width1", "width1-batch7",
         "three-hidden", "last-slice-of-3", "whole-table", "batch-above-n"],
)


def assert_fit_replays(step, latent_dim, widths, alpha, beta, batch_size, **settings):
    """Train with fit, replay its batches over its shuffles with
    ``step(model, idx, x_batch, cfg)`` for as many epochs as fit ran, and
    check that theta, m and v come out byte-equal to fit's. By default fit
    runs at least four epochs and enough to cross three moment folds;
    ``settings`` override config fields. Returns fit's report."""
    x = make_rng(5).standard_normal((128, 3))  # batch 64 divides, 7 does not
    steps = -(-len(x) // min(batch_size or 64, len(x)))  # per epoch
    settings = {"epochs": max(4, -(-(3 * ADAM_RESCALE + 1) // steps)),
                "convergence": None, **settings}
    cfg = ModelConfig(
        latent_dim=latent_dim, hidden_widths=widths, alpha=alpha, beta=beta,
        batch_size=batch_size, seed=11, **settings,
    )
    model, report = fit(x, cfg)
    replay = init_model(cfg, *x.shape)
    batch = cfg.resolved_batch_size(len(x))
    shuffle_rng = spawn_rng(cfg.seed, 1)
    for _ in range(len(report.losses)):
        perm = shuffle_rng.permutation(len(x))
        for s in range(0, len(x), batch):
            idx = perm[s : s + batch]
            step(replay, idx, x[idx], cfg)
    assert replay.t == model.t
    for name in ("theta", "m", "v"):
        assert getattr(replay, name).tobytes() == getattr(model, name).tobytes(), name
    return report


class TestFit:
    @REPLAY_CASES
    def test_matches_public_step_loop(
        self, latent_dim, widths, alpha, beta, batch_size
    ):
        # fit's reused workspace must train exactly as the public gradients
        # and adam_step do with fresh buffers
        def step(model, idx, x_batch, cfg):
            adam_step(model, gradients(model, idx, x_batch, cfg), cfg)

        assert_fit_replays(step, latent_dim, widths, alpha, beta, batch_size)

    def test_early_stop_returns_rows_in_sample_order(self):
        # the default early stop leaves the epoch loop by its break; theta,
        # m and v still come back in sample order, as a replay shows
        def step(model, idx, x_batch, cfg):
            adam_step(model, gradients(model, idx, x_batch, cfg), cfg)

        report = assert_fit_replays(
            step, 2, None, 1e-6, 1e-4, None,
            learning_rate=0.01, epochs=1000, convergence=Convergence(),
        )
        assert report.converged and len(report.losses) < 1000

    @REPLAY_CASES
    def test_bit_identical_to_reference_formulas(
        self, latent_dim, widths, alpha, beta, batch_size
    ):
        # fit's in-place step must round exactly as the plain formulas do;
        # the public step loop runs the same in-place code and cannot tell
        def step(model, idx, x_batch, cfg):
            reference_adam(model, reference_gradients(model, idx, x_batch, cfg), cfg)

        assert_fit_replays(step, latent_dim, widths, alpha, beta, batch_size)

    @REPLAY_CASES
    def test_step_matches_row_major_formulas(
        self, latent_dim, widths, alpha, beta, batch_size
    ):
        # the feature-major step with folded biases rounds differently from
        # the row-major formulas, but only in the last bits, at every step
        # of a fit's batches: within 1e-12 of each parameter block's largest
        # entry (an entry summed with cancellation keeps that absolute error)
        x = make_rng(5).standard_normal((128, 3))
        cfg = ModelConfig(
            latent_dim=latent_dim, hidden_widths=widths, alpha=alpha, beta=beta,
            batch_size=batch_size, epochs=2, seed=11, convergence=None,
        )
        model = init_model(cfg, *x.shape)
        ws = _Workspace(model)
        batch = cfg.resolved_batch_size(len(x))
        shuffle_rng = spawn_rng(cfg.seed, 1)
        rows = np.arange(len(x))
        where = rows.copy()
        for _ in range(cfg.epochs):
            # as fit does: the latent rows in shuffle order, a batch a slice
            perm = shuffle_rng.permutation(len(x))
            ws.reorder(where[perm])
            where[perm] = rows
            x_perm = x[perm]
            for s in range(0, len(x), batch):
                sl = slice(s, min(s + batch, len(x)))
                want = oracle_row_major_gradients(model, rows[sl], x_perm[sl], cfg)
                got = gradients(model, sl, x_perm[sl], cfg, ws)
                for name, w in model.views(want).items():
                    g = model.views(got)[name]
                    np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())
                adam_step(model, got, cfg, ws)

    def test_step_allocation_does_not_grow_with_n(self):
        # one workspace step allocates batch-sized temporaries only
        cfg = ModelConfig(seed=0)
        peaks = {}
        for n in (400, 40000):
            model = init_model(cfg, n, 9)
            ws = _Workspace(model)
            x = make_rng(1).standard_normal((n, 9))
            # every step is traced and the last one counts: the first steps
            # of a model fill numpy's small-block caches (tracemalloc counts
            # a block taken from malloc for them as live), and each later
            # step re-zeroes the latent rows of the one before
            batches = [slice(0, 64), slice(64, 128), slice(128, 192)]
            for idx in batches:
                xb = x[idx]
                tracemalloc.start()
                try:
                    adam_step(model, gradients(model, idx, xb, cfg, ws), cfg, ws)
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[400] == peaks[40000]
        assert peaks[40000] < model.theta.nbytes

    def test_single_sample_fits_exactly(self):
        cfg = ModelConfig(
            latent_dim=1,
            hidden_widths=(),
            alpha=0.0,
            beta=0.0,
            learning_rate=0.05,
            epochs=3000,
            convergence=None,
            seed=0,
        )
        x = np.array([[1.5, -2.0]])
        model, report = fit(x, cfg)
        assert report.losses[-1].recon_term < 1e-4
        np.testing.assert_allclose(forward(model, [0]).recon, x, atol=1e-2)

    def test_loss_decreases_on_synthetic_data(self):
        from neurodavis.datasets import gen_synthetic

        ds = gen_synthetic("elliptic_ring", make_rng(0))
        model, report = fit(ds.x, ModelConfig(seed=1, epochs=30, convergence=None))
        assert report.losses[-1].total < report.losses[0].total
        assert len(report.losses) == 30

    def test_deterministic(self):
        x = make_rng(5).standard_normal((40, 3))
        cfg = ModelConfig(seed=9, epochs=20, convergence=None)
        a, _ = fit(x, cfg)
        b, _ = fit(x, cfg)
        assert np.array_equal(a.latent_table, b.latent_table)

    def test_report_decomposition(self):
        x = make_rng(5).standard_normal((20, 3))
        _, report = fit(x, ModelConfig(seed=2, epochs=10, convergence=None))
        assert len(report.losses) == 10
        for t in report.losses:
            assert t.total == t.recon_term + t.activity_term + t.weight_term

    def test_early_stop(self):
        x = make_rng(5).standard_normal((30, 2))
        cfg = ModelConfig(seed=2, epochs=1000, convergence=Convergence(5, 0.5))
        _, report = fit(x, cfg)
        assert report.converged
        assert len(report.losses) < 1000

    def test_divergence_raises_with_report(self):
        x = make_rng(5).standard_normal((10, 2)) * 10
        cfg = ModelConfig(seed=0, learning_rate=1e300, epochs=50, convergence=None)
        with pytest.raises(TrainingDivergedError) as err:
            fit(x, cfg)
        report = err.value.report
        assert report.diverged and not report.converged
        assert len(report.losses) >= 1 and not np.isfinite(report.losses[-1].total)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            fit(np.array([[np.nan, 1.0]]), ModelConfig())

    def test_rejects_complex_data(self):
        x = make_rng(5).standard_normal((10, 2))
        with pytest.raises(InvalidInputError, match="^x must be a real numeric array"):
            fit(x + 1j, ModelConfig(epochs=1, convergence=None))

    def test_residual_matches_final_recon_term(self):
        x = make_rng(8).standard_normal((25, 4))
        cfg = ModelConfig(seed=1, alpha=0.0, beta=0.0, epochs=40, convergence=None)
        model, report = fit(x, cfg)
        resid = np.linalg.norm(x - forward(model, np.arange(25)).recon)
        assert resid == pytest.approx(np.sqrt(25 * report.losses[-1].recon_term), abs=1e-9)


class TestEmbedReconstruct:
    def test_embed_returns_copy(self):
        model = init_model(ModelConfig(seed=0), 5, 2)
        emb = embed(model)
        emb[0, 0] = 99.0
        assert model.latent_table[0, 0] != 99.0

    def test_zero_network_reconstruct(self):
        model = zero_model(init_model(ModelConfig(hidden_widths=(3,)), 4, 2))
        assert np.array_equal(forward(model, np.arange(4)).recon, np.zeros((4, 2)))

    def test_separated_blobs_stay_separated(self):
        rng = make_rng(12)
        a = rng.standard_normal((30, 4)) * 0.1
        b = rng.standard_normal((30, 4)) * 0.1 + 8.0
        x = np.vstack([a, b])
        cfg = ModelConfig(seed=3, epochs=300, convergence=None)
        model, _ = fit(x, cfg)
        emb = embed(model)
        gap = np.linalg.norm(emb[:30].mean(0) - emb[30:].mean(0))
        within = max(
            np.linalg.norm(emb[:30] - emb[:30].mean(0), axis=1).mean(),
            np.linalg.norm(emb[30:] - emb[30:].mean(0), axis=1).mean(),
        )
        assert gap > 0 and gap > within


class TestCheckpoint:
    @pytest.fixture
    def saved(self, tmp_path):
        x = make_rng(9).standard_normal((15, 3))
        model, _ = fit(x, ModelConfig(seed=4, hidden_widths=(6, 5), epochs=5, convergence=None))
        cfg = ModelConfig(seed=4, hidden_widths=(6, 5), alpha=1e-5)
        path = tmp_path / "model.json"
        save_checkpoint(model, cfg, path)
        return model, cfg, json.loads(path.read_text())

    @pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_non_finite_parameter_refused_before_writing(self, tmp_path, value):
        # json.dump would write bare NaN / -Infinity tokens, which are not JSON
        cfg = ModelConfig(seed=4, hidden_widths=(6, 5))
        model = init_model(cfg, 15, 3)
        model.layers[1].b[2] = value
        model.layers[-1].w[0, 0] = value
        path = tmp_path / "model.json"
        with pytest.raises(InvalidInputError, match="non-finite parameter in hidden1.b$"):
            save_checkpoint(model, cfg, path)
        assert not path.exists()

    def test_round_trip_bit_exact(self, saved):
        model, cfg, doc = saved
        assert (doc["format"], doc["version"]) == ("neurodavis-checkpoint", 4)
        assert set(doc) == {"format", "version", "config", "params"}
        assert doc["config"] == cfg.to_dict()
        views = model.views(model.theta)
        assert list(doc["params"]) == list(views)
        for name, p in views.items():
            entry = doc["params"][name]
            loaded = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            assert loaded.shape == p.shape
            assert loaded.tobytes() == p.tobytes()

    def test_rebuilt_model_forwards_bit_identically(self, saved):
        """A reader rebuilds the model from the file alone: ``init_model``
        at the stored config and shapes, then each entry written into the
        ``views`` part of the same name."""
        model, cfg, doc = saved
        params = doc["params"]
        n, _ = params["latent_table"]["shape"]
        d = params["recon.b"]["shape"][0]
        stored = doc["config"]["convergence"]
        early_stop = None if stored is None else Convergence(**stored)
        config = ModelConfig(**{**doc["config"], "convergence": early_stop})
        assert config == cfg
        rebuilt = init_model(config, n, d)
        views = rebuilt.views(rebuilt.theta)
        for name, entry in params.items():
            views[name][...] = np.reshape(entry["data"], entry["shape"])
        idx = np.arange(n)
        want, got = forward(model, idx), forward(rebuilt, idx)
        assert got.recon.tobytes() == want.recon.tobytes()
        assert got.latent.tobytes() == want.latent.tobytes()
