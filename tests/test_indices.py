"""Every row-index argument goes through ``numerics.as_indices``: a float,
a bool, an entry outside [0, n), a 2-D array or an empty one raises
``InvalidInputError`` naming the argument, and any integer dtype passes.
``fit``'s own training step passes indices it made itself and is not
checked here."""

import numpy as np
import pytest

from neurodavis.analysis import finite_difference_gradients
from neurodavis.errors import InvalidInputError
from neurodavis.model import ModelConfig, forward, gradients, init_model
from neurodavis.numerics import make_rng, pair_distances

N, D = 4, 2
X = make_rng(9).standard_normal((N, D))
CONFIG = ModelConfig(hidden_widths=(3,), epochs=1, convergence=None)
MODEL = init_model(CONFIG, N, D)


def _rows(idx):
    """A data batch with one row per index, whatever shape ``idx`` has."""
    return np.zeros((np.size(idx), D))


def _partner(idx):
    """Valid indices of ``idx``'s length (at least one), for the other
    argument of ``pair_distances``."""
    return np.zeros(max(np.size(idx), 1), dtype=np.int64)


# (argument name as the error names it, call taking the indices)
INDEX_ARGS = {
    "forward": ("batch_indices", lambda idx: forward(MODEL, idx)),
    "gradients": ("batch_indices", lambda idx: gradients(MODEL, idx, _rows(idx), CONFIG)),
    "finite_difference_gradients": (
        "batch_indices",
        lambda idx: finite_difference_gradients(MODEL, idx, _rows(idx), CONFIG),
    ),
    "pair_distances-ii": ("ii", lambda idx: pair_distances(X, idx, _partner(idx))),
    "pair_distances-jj": ("jj", lambda idx: pair_distances(X, _partner(idx), idx)),
}

REJECTED = {
    "float": [0.7, 1.2],  # would otherwise truncate to rows 0 and 1
    "bool": [True, False],  # would otherwise read as rows 1 and 0
    "negative": [-1, 0],  # would otherwise wrap to the last row
    "index_n": [0, N],
    "2-d": [[0, 1]],
    "empty": [],
}


@pytest.mark.parametrize("bad", list(REJECTED))
@pytest.mark.parametrize("arg", list(INDEX_ARGS))
def test_bad_indices_rejected_naming_the_argument(arg, bad):
    name, call = INDEX_ARGS[arg]
    with pytest.raises(InvalidInputError, match=f"^{name} must "):
        call(REJECTED[bad])


@pytest.mark.parametrize("dtype", [np.int32, np.uint64])
@pytest.mark.parametrize("arg", list(INDEX_ARGS))
def test_any_integer_dtype_accepted(arg, dtype):
    _, call = INDEX_ARGS[arg]
    call(np.array([0, N - 1], dtype=dtype))


def test_every_integer_dtype_reads_the_same_rows():
    idx = np.array([3, 0, 2])
    want = forward(MODEL, idx).recon
    for dtype in (np.int8, np.int32, np.uint16, np.uint64):
        assert forward(MODEL, idx.astype(dtype)).recon.tobytes() == want.tobytes()
