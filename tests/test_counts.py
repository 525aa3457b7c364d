"""Every count argument goes through ``numerics.as_count``: any integer type
passes, and a float or bool raises ``InvalidInputError`` naming the argument.
Every real setting goes through ``numerics.as_real``: any real type passes and
is kept as a Python float, and bool, str, None or complex raise naming the
argument. Seeds are covered in ``test_numerics`` and the other config counts
in ``test_model``."""

import numpy as np
import pytest

from neurodavis.analysis import (
    check_gradients,
    check_lemma1,
    check_theorem1,
    run_preservation_suite,
)
from neurodavis.datasets import Dataset
from neurodavis.errors import InvalidInputError
from neurodavis.metrics import (
    agglomerative,
    distance_preservation,
    kmeans,
    knn_evaluate,
)
from neurodavis.model import Convergence, ModelConfig
from neurodavis.numerics import make_rng, pairwise_euclidean, spawn_rng

X = make_rng(8).standard_normal((12, 2))
LABELS = [0, 1, 2] * 4
# rows 0 and 1 are a close pair, as check_theorem1 requires
CLOSE = np.vstack([X[:1], X[:1] + 1e-6, X[2:]])
TINY = ModelConfig(epochs=1, convergence=None)

# (argument name as the error names it, call taking the count, a valid count)
COUNTS = {
    "kmeans-k": ("k", lambda c: kmeans(X, c, make_rng(0)), 2),
    "agglomerative-k": ("k", lambda c: agglomerative(X, c), 2),
    "knn-k": ("k", lambda c: knn_evaluate(X, LABELS, c, rng=make_rng(0)), 1),
    "distance-budget": (
        "pair_budget", lambda c: distance_preservation(X, X, c, make_rng(0)), 5
    ),
    "pairwise-budget": (
        "pair_budget", lambda c: pairwise_euclidean(X, c, make_rng(0)), 5
    ),
    "lemma1-trials": ("trials", lambda c: check_lemma1(c, make_rng(0)), 1),
    "theorem1-steps": (
        "steps", lambda c: check_theorem1(CLOSE, (0, 1), 0.5, c, make_rng(0)), 1
    ),
    "theorem1-pair": (
        "pair index", lambda c: check_theorem1(CLOSE, (c, 1), 0.5, 1, make_rng(0)), 0
    ),
    "suite-n_runs": (
        "n_runs", lambda c: run_preservation_suite(Dataset(X, name="x"), TINY, c), 1
    ),
    "gradients-n_models": ("n_models", lambda c: check_gradients(c, make_rng(0)), 1),
    "spawn_rng-stream": ("stream", lambda c: spawn_rng(3, c), 1),
    "config-epochs": ("epochs", lambda c: ModelConfig(epochs=c), 1),
}

# (argument name as the error names it, call taking the value, a valid value)
REALS = {
    "config-alpha": ("alpha", lambda v: ModelConfig(alpha=v), 1e-6),
    "config-beta": ("beta", lambda v: ModelConfig(beta=v), 1e-4),
    "config-learning_rate": (
        "learning_rate", lambda v: ModelConfig(learning_rate=v), 1e-3
    ),
    "convergence-rel_tol": (
        "convergence rel_tol", lambda v: Convergence(rel_tol=v), 1e-5
    ),
    "theorem1-eta": (
        "eta", lambda v: check_theorem1(CLOSE, (0, 1), v, 1, make_rng(0)), 0.5
    ),
}


@pytest.mark.parametrize("case", list(COUNTS))
def test_float_count_rejected_and_numpy_integer_accepted(case):
    name, call, valid = COUNTS[case]
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer "):
        call(2.5)
    call(np.int64(valid))


@pytest.mark.parametrize("case", list(COUNTS))
def test_bool_count_rejected(case):
    name, call, _ = COUNTS[case]
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer "):
        call(True)


@pytest.mark.parametrize(
    "value", [True, "0.5", None, 0.5 + 0j], ids=["bool", "str", "None", "complex"]
)
@pytest.mark.parametrize("case", list(REALS))
def test_non_real_setting_rejected(case, value):
    name, call, _ = REALS[case]
    with pytest.raises(InvalidInputError, match=f"^{name} must be a finite real "):
        call(value)


@pytest.mark.parametrize("case", list(REALS))
def test_numpy_float_setting_accepted(case):
    _, call, valid = REALS[case]
    call(np.float32(valid))


def test_real_settings_stored_as_python_floats():
    cfg = ModelConfig(
        alpha=np.float32(1e-6),
        beta=np.float64(1e-4),
        learning_rate=np.float32(1e-3),
        convergence=Convergence(rel_tol=np.float32(1e-5)),
    )
    stored = (cfg.alpha, cfg.beta, cfg.learning_rate, cfg.convergence.rel_tol)
    assert all(type(v) is float for v in stored)
    assert cfg.learning_rate == float(np.float32(1e-3))
    cfg.config_hash()  # JSON-serializable
    # an integer-valued setting is the float of the same value, hash included
    assert type(ModelConfig(learning_rate=1).learning_rate) is float
    assert ModelConfig(learning_rate=1).config_hash() == "f9560ed9dbec878a"
    assert ModelConfig(learning_rate=1.0).config_hash() == "f9560ed9dbec878a"
