"""Every count argument goes through ``numerics.as_count``: any integer type
passes, and a float raises ``InvalidInputError`` naming the argument. Seeds
are covered in ``test_numerics`` and config counts in ``test_model``."""

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
from neurodavis.model import ModelConfig
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
    "lemma1-trials": ("trials", lambda c: check_lemma1(c, 2, make_rng(0)), 1),
    "lemma1-max_dim": ("max_dim", lambda c: check_lemma1(1, c, make_rng(0)), 2),
    "theorem1-steps": (
        "steps", lambda c: check_theorem1(CLOSE, (0, 1), 0.5, c, make_rng(0)), 1
    ),
    "theorem1-pair": (
        "pair index", lambda c: check_theorem1(CLOSE, (c, 1), 0.5, 1, make_rng(0)), 0
    ),
    "suite-n_runs": (
        "n_runs", lambda c: run_preservation_suite(Dataset(X, name="x"), TINY, c), 1
    ),
    "gradients-n_models": ("n_models", lambda c: check_gradients(c, 0), 1),
    "spawn_rng-stream": ("stream", lambda c: spawn_rng(3, c), 1),
}


@pytest.mark.parametrize("case", list(COUNTS))
def test_float_count_rejected_and_numpy_integer_accepted(case):
    name, call, valid = COUNTS[case]
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer "):
        call(2.5)
    call(np.int64(valid))
