"""The standing numeric contracts: the four training-gate embedding hashes,
the gradient oracle's worst relative error and the default config hash.

The values are bit-exact, so they hold only on the numpy and OpenBLAS build
they were recorded on, and only under one BLAS thread. One child interpreter
computes all six, with ``OPENBLAS_NUM_THREADS=1`` set before numpy loads.
"""

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

# embedding hash per gate: sha256 prefix of embed(model).tobytes()
GATE_HASHES = {
    "spiral": "fd3e4101e23702b7",
    "world_map_lift9": "77e003a62399ba66",
    "olympic": "6dd66827a2acb842",
    "elliptic_ring_lift9": "109eff9c07c05579",
}
GRADIENT_ORACLE = 2.4567802438287037e-07
DEFAULT_CONFIG_HASH = "6d5cc7a6575e9653"

CHILD = """
import hashlib, json
import neurodavis as nd
from neurodavis.numerics import make_rng

def digest(data, seed, **settings):
    model, _ = nd.fit(data.x, nd.ModelConfig(seed=seed, **settings))
    return hashlib.sha256(nd.embed(model).tobytes()).hexdigest()[:16]

gen = lambda kind, seed: nd.gen_synthetic(kind, make_rng(seed))
print(json.dumps({
    "spiral": digest(gen("spiral", 0), 1, epochs=60, convergence=None),
    "world_map_lift9": digest(
        nd.lift9(gen("world_map", 4)), 3, epochs=15, convergence=None
    ),
    "olympic": digest(gen("olympic", 4), 2),
    "elliptic_ring_lift9": digest(
        nd.lift9(gen("elliptic_ring", 4)), 5, epochs=5, convergence=None,
        hidden_widths=(256, 256),
    ),
    "oracle": nd.check_gradients(50, 0).max_rel_error,
    "config_hash": nd.ModelConfig().config_hash(),
}))
"""


def _build_mismatch() -> str | None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = (
        f"numpy {np.__version__} with {blas.get('name')} {blas.get('version')} "
        f"on {platform.machine()}"
    )
    want = f"numpy {NUMPY_VERSION} with scipy-openblas {OPENBLAS_VERSION} on x86_64"
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
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert {k: got[k] for k in GATE_HASHES} == GATE_HASHES
    assert got["oracle"] == GRADIENT_ORACLE
    assert got["config_hash"] == DEFAULT_CONFIG_HASH
