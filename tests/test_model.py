import json
import tracemalloc

import numpy as np
import pytest

from neurodavis.errors import (
    InvalidConfigError,
    InvalidInputError,
    TrainingDivergedError,
)
from neurodavis.model import (
    Convergence,
    Model,
    ModelConfig,
    _Workspace,
    _unit_rows,
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


def straight_line_forward(model, idx):
    """Scalar-loop reimplementation of the forward pass (oracle)."""
    out = np.zeros((len(idx), model.d))
    for r, i in enumerate(idx):
        h = [float(v) for v in model.latent_table[i]]
        for layer in model.hidden:
            nxt = []
            for o in range(layer.w.shape[1]):
                acc = float(layer.b[o])
                for c in range(len(h)):
                    acc += h[c] * float(layer.w[c, o])
                nxt.append(max(0.0, acc))
            h = nxt
        for o in range(model.recon.w.shape[1]):
            acc = float(model.recon.b[o])
            for c in range(len(h)):
                acc += h[c] * float(model.recon.w[c, o])
            out[r, o] = acc
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


def reference_unit_rows(h):
    norms = np.sqrt((h * h).sum(axis=1, keepdims=True))
    out = np.zeros_like(h)
    np.divide(h, norms, out=out, where=norms > 0)
    return out


def reference_gradients(model, idx, x_batch, cfg):
    """The training step's gradient formulas written plainly, one fresh array
    per operation, for a batch of distinct indices."""
    latent = model.latent_table[idx]
    pre, act = [], [latent]
    for layer in model.hidden:
        pre.append(act[-1] @ layer.w + layer.b)
        act.append(np.maximum(pre[-1], 0.0))
    recon = act[-1] @ model.recon.w + model.recon.b
    grads = np.zeros_like(model.theta)
    views = model.views(grads)
    d_out = (2.0 / len(idx)) * (recon - x_batch)
    views["recon.w"][...] = act[-1].T @ d_out
    views["recon.b"][...] = d_out.sum(axis=0)
    d_h = d_out @ model.recon.w.T
    for li in reversed(range(len(model.hidden))):
        layer = model.hidden[li]
        if cfg.alpha:
            d_h = d_h + cfg.alpha * reference_unit_rows(act[li + 1])
        d_a = d_h * (pre[li] > 0.0)
        views[f"hidden{li}.w"][...] = act[li].T @ d_a
        if cfg.beta:
            fro = float(np.linalg.norm(layer.w))
            if fro > 0:
                views[f"hidden{li}.w"] += cfg.beta * layer.w / fro
        views[f"hidden{li}.b"][...] = d_a.sum(axis=0)
        d_h = d_a @ layer.w.T
    if cfg.alpha:
        d_h = d_h + cfg.alpha * reference_unit_rows(latent)
    if cfg.beta:
        fro = float(np.linalg.norm(latent))
        if fro > 0:
            d_h = d_h + cfg.beta * latent / fro
    views["latent_table"][idx] = d_h
    return grads


def reference_adam(model, grads, cfg):
    model.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1**model.t
    c2 = 1.0 - b2**model.t
    m = b1 * model.m + (1.0 - b1) * grads
    v = b2 * model.v + (1.0 - b2) * (grads * grads)
    model.m[...] = m
    model.v[...] = v
    m_hat = m / c1
    v_hat = v / c2
    model.theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


class TestConfig:
    def test_invalid_values(self):
        with pytest.raises(InvalidConfigError):
            ModelConfig(latent_dim=0)
        with pytest.raises(InvalidConfigError):
            ModelConfig(hidden_widths=(4, 0))
        with pytest.raises(InvalidConfigError):
            ModelConfig(learning_rate=0.0)
        with pytest.raises(InvalidConfigError):
            ModelConfig(batch_size=0)
        with pytest.raises(InvalidConfigError):
            ModelConfig(convergence=Convergence(window=1))
        nan, inf = float("nan"), float("inf")
        for field in ("alpha", "beta", "learning_rate"):
            for value in (nan, inf):
                with pytest.raises(InvalidConfigError):
                    ModelConfig(**{field: value})
        for field in ("adam_beta1", "adam_beta2"):
            for value in (nan, -0.1, 1.0):
                with pytest.raises(InvalidConfigError):
                    ModelConfig(**{field: value})
        for value in (nan, inf, 0.0, -1e-8):
            with pytest.raises(InvalidConfigError):
                ModelConfig(adam_eps=value)
        for value in (nan, inf, -inf, -1e-5):
            with pytest.raises(InvalidConfigError):
                ModelConfig(convergence=Convergence(window=5, rel_tol=value))
        ModelConfig(convergence=Convergence(rel_tol=0.0))  # zero is valid
        ModelConfig(adam_beta1=0.0, adam_beta2=0.0)  # the closed ends are valid

    def test_auto_hidden_widths(self):
        assert ModelConfig().resolved_hidden(2) == (16, 16)
        assert ModelConfig().resolved_hidden(700) == (256, 256)
        assert ModelConfig(hidden_widths=(5,)).resolved_hidden(700) == (5,)

    def test_hash_stable_and_sensitive(self):
        a = ModelConfig(seed=1)
        assert a.config_hash() == ModelConfig(seed=1).config_hash()
        assert a.config_hash() != ModelConfig(seed=2).config_hash()


class TestInitModel:
    def test_shape_chain(self):
        cfg = ModelConfig(latent_dim=2, hidden_widths=(4, 4))
        model = init_model(cfg, n=10, d=3)
        assert model.latent_table.shape == (10, 2)
        assert model.hidden[0].w.shape == (2, 4)
        assert model.hidden[1].w.shape == (4, 4)
        assert model.recon.w.shape == (4, 3)
        assert model.recon.b.shape == (3,)

    def test_layout_views_share_theta(self):
        model = init_model(ModelConfig(latent_dim=2, hidden_widths=(4,)), n=5, d=3)
        views = model.views(model.theta)
        assert list(views) == [
            "latent_table", "hidden0.w", "hidden0.b", "recon.w", "recon.b"
        ]
        assert model.theta.size == 5 * 2 + (2 * 4 + 4) + (4 * 3 + 3)
        assert model.m.shape == model.v.shape == model.theta.shape
        for a in (model.latent_table, model.hidden[0].w, model.recon.b):
            assert np.shares_memory(a, model.theta)
        model.recon.b[1] = 7.0
        assert model.theta[-2] == 7.0
        assert np.array_equal(views["hidden0.w"], model.hidden[0].w)

    def test_deterministic(self):
        cfg = ModelConfig(seed=5, hidden_widths=(3,))
        a = init_model(cfg, 6, 2)
        b = init_model(cfg, 6, 2)
        assert np.array_equal(a.theta, b.theta)

    def test_no_hidden_single_linear_map(self):
        model = init_model(ModelConfig(latent_dim=2, hidden_widths=()), 4, 3)
        assert model.hidden == []
        assert model.recon.w.shape == (2, 3)

    def test_latent_init_bounds(self):
        model = init_model(ModelConfig(seed=3), 50, 4)
        emb = embed(model)
        assert np.all(emb > -0.01) and np.all(emb < 0.01)

    def test_biases_zero_moments_zero(self):
        model = init_model(ModelConfig(seed=1, hidden_widths=(4,)), 5, 3)
        assert np.all(model.hidden[0].b == 0)
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
        model.recon.w[0, 0] = 3.0
        model.recon.b[0] = 1.0
        assert forward(model, [0]).recon[0, 0] == 7.0

    def test_matches_straight_line_oracle(self):
        rng = make_rng(11)
        model = init_model(ModelConfig(seed=2, latent_dim=3, hidden_widths=(5, 4)), 8, 4)
        model.latent_table[...] = rng.standard_normal((8, 3))
        for layer in (*model.hidden, model.recon):
            layer.w[...] = rng.standard_normal(layer.w.shape)
            layer.b[...] = rng.standard_normal(layer.b.shape)
        idx = [1, 3, 7, 0]
        np.testing.assert_allclose(
            forward(model, idx).recon, straight_line_forward(model, idx), atol=1e-12
        )

    def test_relu_applied_to_hidden_only(self):
        model = init_model(ModelConfig(seed=0, hidden_widths=(4,)), 5, 2)
        trace = forward(model, [0, 1])
        assert np.all(trace.hidden_act[0] >= 0)
        np.testing.assert_array_equal(
            trace.hidden_act[0], np.maximum(trace.hidden_pre[0], 0.0)
        )

    def test_index_out_of_range(self):
        model = init_model(ModelConfig(), 4, 2)
        with pytest.raises(InvalidInputError):
            forward(model, [0, 4])
        with pytest.raises(InvalidInputError):
            forward(model, [-1])


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
        model.recon.b[0] = 1.0  # reconstruction is 1, target 3
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
        expected = -(2.0 / 4) * (x - trace.recon) @ model.recon.w.T
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

    def test_workspace_zeroes_stale_latent_rows(self):
        # fit reuses one gradient buffer; the rows the previous batch wrote
        # must read zero in the next step's vector
        cfg = ModelConfig(seed=2, alpha=1e-3, beta=1e-3, hidden_widths=(4,))
        model = init_model(cfg, 10, 3)
        x = make_rng(2).standard_normal((10, 3))
        ws = _Workspace(model)
        first, second = np.array([1, 4, 6]), np.array([0, 7, 8, 9])
        grads = gradients(model, first, x[first], cfg, ws)
        assert np.all(model.views(grads)["latent_table"][first] != 0.0)
        adam_step(model, grads, cfg, ws)
        expected = gradients(model, second, x[second], cfg)
        grads = gradients(model, second, x[second], cfg, ws)
        outside = np.setdiff1d(np.arange(10), second)
        assert np.all(model.views(grads)["latent_table"][outside] == 0.0)
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


class TestUnitRows:
    @pytest.mark.parametrize(
        "edge",
        [[0.0, 0.0, 0.0], [np.nan, 1.0, 2.0], [1e-200, -1e-200, 0.0]],
        ids=["zero", "nan", "underflow"],
    )
    def test_edge_rows_stay_zero(self, edge):
        # masked branch: one degenerate row among ordinary ones
        h = make_rng(0).standard_normal((4, 3))
        h[2] = edge
        out = _unit_rows(h)
        assert out[2].tobytes() == np.zeros(3).tobytes()  # +0.0, not -0.0
        assert out.tobytes() == reference_unit_rows(h).tobytes()

    def test_positive_rows_divide_plainly(self):
        # fast branch: every norm positive, including tiny rows that square
        # to a normal number
        h = make_rng(1).standard_normal((6, 3))
        h[1] *= 1e-150
        h[4] = [0.0, -2.0, 0.0]
        out = _unit_rows(h)
        assert out.tobytes() == reference_unit_rows(h).tobytes()
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)
        assert not np.shares_memory(out, h)


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
        expected = -0.1 / (1.0 + cfg.adam_eps)
        assert model.recon.w[0, 0] == pytest.approx(expected, abs=1e-12)
        # second identical step, recurrence evaluated by hand
        adam_step(model, grads, cfg)
        m = 0.9 * 0.1 + 0.1 * 1.0
        v = 0.999 * 0.001 + 0.001 * 1.0
        mh = m / (1 - 0.9**2)
        vh = v / (1 - 0.999**2)
        expected += -0.1 * mh / (np.sqrt(vh) + cfg.adam_eps)
        assert model.recon.w[0, 0] == pytest.approx(expected, abs=1e-12)

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


REPLAY_CASES = pytest.mark.parametrize(
    "widths,alpha,beta,batch_size",
    [(None, 1e-6, 1e-4, None), ((), 1e-6, 1e-4, None), (None, 0.0, 0.0, None),
     ((5, 4), 1e-3, 1e-3, 7)],
    ids=["default", "no-hidden", "no-regularizers", "partial-batch"],
)


def assert_fit_replays(step, widths, alpha, beta, batch_size):
    """Train with fit, replay its batches over its shuffles with
    ``step(model, idx, x_batch, cfg)``, and check that theta, m and v come
    out byte-equal to fit's."""
    x = make_rng(5).standard_normal((128, 3))  # batch 64 divides, 7 does not
    cfg = ModelConfig(
        hidden_widths=widths, alpha=alpha, beta=beta, batch_size=batch_size,
        epochs=4, seed=11, convergence=None,
    )
    model, _ = fit(x, cfg)
    replay = init_model(cfg, *x.shape)
    batch = cfg.resolved_batch_size(len(x))
    shuffle_rng = spawn_rng(cfg.seed, 1)
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(len(x))
        for s in range(0, len(x), batch):
            idx = perm[s : s + batch]
            step(replay, idx, x[idx], cfg)
    assert replay.t == model.t
    for name in ("theta", "m", "v"):
        assert getattr(replay, name).tobytes() == getattr(model, name).tobytes(), name


class TestFit:
    @REPLAY_CASES
    def test_matches_public_step_loop(self, widths, alpha, beta, batch_size):
        # fit's reused workspace must train exactly as the public gradients
        # and adam_step do with fresh buffers
        def step(model, idx, x_batch, cfg):
            adam_step(model, gradients(model, idx, x_batch, cfg), cfg)

        assert_fit_replays(step, widths, alpha, beta, batch_size)

    @REPLAY_CASES
    def test_bit_identical_to_reference_formulas(
        self, widths, alpha, beta, batch_size
    ):
        # fit's in-place step must round exactly as the plain formulas do;
        # the public step loop runs the same in-place code and cannot tell
        def step(model, idx, x_batch, cfg):
            reference_adam(model, reference_gradients(model, idx, x_batch, cfg), cfg)

        assert_fit_replays(step, widths, alpha, beta, batch_size)

    def test_step_allocation_does_not_grow_with_n(self):
        # one workspace step allocates batch-sized temporaries only
        cfg = ModelConfig(seed=0)
        peaks = {}
        for n in (400, 40000):
            model = init_model(cfg, n, 9)
            ws = _Workspace(model)
            x = make_rng(1).standard_normal((n, 9))
            batches = np.arange(128).reshape(2, 64)
            for idx in batches:  # the second step re-zeroes the first's rows
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
        assert report.recon[-1] < 1e-4
        np.testing.assert_allclose(forward(model, [0]).recon, x, atol=1e-2)

    def test_loss_decreases_on_synthetic_data(self):
        from neurodavis.datasets import gen_synthetic

        ds = gen_synthetic("elliptic_ring", make_rng(0))
        model, report = fit(ds.x, ModelConfig(seed=1, epochs=30, convergence=None))
        assert report.total[-1] < report.total[0]
        assert report.epochs_run == 30

    def test_deterministic(self):
        x = make_rng(5).standard_normal((40, 3))
        cfg = ModelConfig(seed=9, epochs=20, convergence=None)
        a, _ = fit(x, cfg)
        b, _ = fit(x, cfg)
        assert np.array_equal(a.latent_table, b.latent_table)

    def test_report_decomposition(self):
        x = make_rng(5).standard_normal((20, 3))
        _, report = fit(x, ModelConfig(seed=2, epochs=10, convergence=None))
        for e in range(report.epochs_run):
            total = report.recon[e] + report.activity[e] + report.weights[e]
            assert report.total[e] == pytest.approx(total, abs=1e-9)

    def test_early_stop(self):
        x = make_rng(5).standard_normal((30, 2))
        cfg = ModelConfig(seed=2, epochs=1000, convergence=Convergence(5, 0.5))
        _, report = fit(x, cfg)
        assert report.converged
        assert report.epochs_run < 1000

    def test_divergence_raises_with_report(self):
        x = make_rng(5).standard_normal((10, 2)) * 10
        cfg = ModelConfig(seed=0, learning_rate=1e300, epochs=50, convergence=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                fit(x, cfg)
        assert err.value.report is not None
        assert err.value.report.epochs_run >= 1

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            fit(np.array([[np.nan, 1.0]]), ModelConfig())

    def test_residual_matches_final_recon_term(self):
        x = make_rng(8).standard_normal((25, 4))
        cfg = ModelConfig(seed=1, alpha=0.0, beta=0.0, epochs=40, convergence=None)
        model, report = fit(x, cfg)
        resid = np.linalg.norm(x - forward(model, np.arange(25)).recon)
        assert resid == pytest.approx(np.sqrt(25 * report.recon[-1]), abs=1e-9)


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
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ModelConfig(seed=4, hidden_widths=(6, 5), alpha=1e-5)
        x = make_rng(9).standard_normal((15, 3))
        model, _ = fit(x, ModelConfig(seed=4, hidden_widths=(6, 5), epochs=5, convergence=None))
        path = tmp_path / "model.json"
        save_checkpoint(model, cfg, path)
        doc = json.loads(path.read_text())
        assert (doc["format"], doc["version"]) == ("neurodavis-checkpoint", 2)
        assert set(doc) == {"format", "version", "config", "params"}
        assert doc["config"] == cfg.to_dict()
        params = doc["params"]
        stored = [params["latent_table"]]
        for layer in (*params["hidden"], params["recon"]):
            stored += [layer["w"], layer["b"]]
        views = model.views(model.theta).values()
        assert len(stored) == len(views)
        for entry, p in zip(stored, views):
            loaded = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            assert loaded.shape == p.shape
            assert loaded.tobytes() == p.tobytes()
