"""The standing numeric contracts: the four training-gate embedding hashes,
the gradient oracle's worst relative error, the default config hash and the
three ``evaluate_embedding`` digests.

The values are bit-exact, so they hold only on the numpy and OpenBLAS build
they were recorded on, with the OpenBLAS kernels of the same CPU core type
(the AVX2-only ``Haswell`` kernels round differently from ``SkylakeX``), and
only under one BLAS thread. One child interpreter computes all nine, with
``OPENBLAS_NUM_THREADS=1`` set before numpy loads.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_VERSION = "2.4.6"
OPENBLAS_VERSION = "0.3.31.188.0"
OPENBLAS_CORE = "SkylakeX"

# embedding hash per gate: sha256 prefix of embed(model).tobytes()
GATE_HASHES = {
    "spiral": "d59a78ef6c62454f",
    "world_map_lift9": "7167dc20c7486eda",
    "olympic": "89d4d0e7072c5f31",
    "elliptic_ring_lift9": "ad738e33ce4765d9",
}
GRADIENT_ORACLE = 2.4567802438287037e-07
DEFAULT_CONFIG_HASH = "6d5cc7a6575e9653"
# sha256 prefix of the sorted-key JSON of evaluate_embedding's values for
# distance, centroid, knn and cluster on lift9(world_map), per training seed
EVAL_DIGESTS = {
    "eval21": "a73cfa980159adad",
    "eval22": "34ea6637774b715c",
    "eval23": "9f5ec9a9a81d561f",
}

CHILD = """
import hashlib, json
import neurodavis as nd
from neurodavis.numerics import make_rng

def digest(data, seed, **settings):
    model, _ = nd.fit(data.x, nd.ModelConfig(seed=seed, **settings))
    return hashlib.sha256(nd.embed(model).tobytes()).hexdigest()[:16]

def eval_digest(data, seed):
    model, _ = nd.fit(data.x, nd.ModelConfig(seed=seed, epochs=30, convergence=None))
    values = nd.evaluate_embedding(
        data.x, nd.embed(model), data.labels,
        metrics=("distance", "centroid", "knn", "cluster"), rng=make_rng(seed),
    )
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]

gen = lambda kind, seed: nd.gen_synthetic(kind, make_rng(seed))
world = nd.lift9(gen("world_map", 4))
print(json.dumps({
    "spiral": digest(gen("spiral", 0), 1, epochs=60, convergence=None),
    "world_map_lift9": digest(world, 3, epochs=15, convergence=None),
    "olympic": digest(gen("olympic", 4), 2),
    "elliptic_ring_lift9": digest(
        nd.lift9(gen("elliptic_ring", 4)), 5, epochs=5, convergence=None,
        hidden_widths=(256, 256),
    ),
    "oracle": nd.check_gradients(50, make_rng(0)).max_rel_error,
    "config_hash": nd.ModelConfig().config_hash(),
    **{f"eval{s}": eval_digest(world, s) for s in (21, 22, 23)},
}))
"""


def _openblas_core() -> str | None:
    """The core type whose kernels the OpenBLAS that numpy loaded runs on
    this CPU. ``np.show_config`` names only the build's target, not this."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*"))
    if not found:
        return None
    corename = ctypes.CDLL(str(found[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _build_mismatch() -> str | None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = (
        f"numpy {np.__version__} with {blas.get('name')} {blas.get('version')} "
        f"({_openblas_core()} kernels) on {platform.machine()}"
    )
    want = (
        f"numpy {NUMPY_VERSION} with scipy-openblas {OPENBLAS_VERSION} "
        f"({OPENBLAS_CORE} kernels) on x86_64"
    )
    return None if found == want else f"values recorded on {want}, this is {found}"


def test_gate_hashes_gradient_oracle_and_config_hash():
    mismatch = _build_mismatch()
    if mismatch:
        pytest.skip(mismatch)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert {k: got[k] for k in GATE_HASHES} == GATE_HASHES
    assert got["oracle"] == GRADIENT_ORACLE
    assert got["config_hash"] == DEFAULT_CONFIG_HASH
    assert {k: got[k] for k in EVAL_DIGESTS} == EVAL_DIGESTS
