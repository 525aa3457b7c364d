"""The standing numeric contracts: the four training-gate embedding hashes,
the gradient oracle's worst relative error, the default config hash and the
three ``evaluate_embedding`` digests.

The values are bit-exact, so they hold only on the numpy and OpenBLAS build
they were recorded on, with the OpenBLAS kernels of one CPU core type, and
only under one BLAS thread. The AVX2 ``Haswell`` kernels round differently
from the AVX-512 ``SkylakeX`` ones, so the tables hold one set of values per
core type. One child interpreter computes all nine, with
``OPENBLAS_NUM_THREADS=1`` set before numpy loads: once with the kernels
OpenBLAS picks for this CPU, if their core type is in the tables, and once
more with ``OPENBLAS_CORETYPE=Haswell`` where the CPU runs AVX2 and FMA but
OpenBLAS picks another core type (an AVX-512 or an AMD CPU). That Haswell run
also turns off numpy's SIMD dispatch targets above ``X86_V3`` with
``NPY_DISABLE_CPU_FEATURES``, as an AVX2-only CPU would run it; the child
reports the targets it runs, and the test checks them like the core type.
"""

import ctypes
import inspect
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_VERSION = "2.4.6"
OPENBLAS_VERSION = "0.3.31.188.0"

# embedding hash per gate and core type: sha256 prefix of embed(model).tobytes()
GATE_HASHES = {
    "SkylakeX": {
        "spiral": "4a7a425240f16717",
        "world_map_lift9": "30652ef6ea929954",
        "olympic": "f16bd96a97d2fa34",
        "elliptic_ring_lift9": "8c970a243aa43348",
    },
    "Haswell": {
        "spiral": "fc7f709cb2f9cace",
        "world_map_lift9": "9d5c8bb8bbfce8fc",
        "olympic": "0f6775ec6666d75a",
        "elliptic_ring_lift9": "64312464a9294d12",
    },
}
GRADIENT_ORACLE = {"SkylakeX": 2.4567802438287037e-07, "Haswell": 2.4567802438287037e-07}
DEFAULT_CONFIG_HASH = "6d5cc7a6575e9653"
# sha256 prefix of the sorted-key JSON of evaluate_embedding's values for
# distance, centroid, knn and cluster on lift9(world_map), per training seed
EVAL_DIGESTS = {
    "SkylakeX": {
        "eval21": "a73cfa980159adad",
        "eval22": "34ea6637774b715c",
        "eval23": "9f5ec9a9a81d561f",
    },
    "Haswell": {
        "eval21": "4bce09a94673d1d4",
        "eval22": "9a590bab0f5bcea6",
        "eval23": "b6e2fbb04367450c",
    },
}


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


def _dispatch_targets() -> list[str]:
    """numpy's SIMD dispatch targets that this process runs, ascending."""
    return [t for t in __cpu_dispatch__ if __cpu_features__[t]]


def _dispatch_above_v3() -> list[str]:
    """The dispatch targets above ``X86_V3`` (the AVX-512 ones) that this
    CPU enables: none on an AVX2-only CPU."""
    targets = _dispatch_targets()
    return targets[targets.index("X86_V3") + 1 :] if "X86_V3" in targets else []


CHILD = """
import ctypes, hashlib, json
from pathlib import Path
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
import neurodavis as nd
from neurodavis.numerics import make_rng
""" + inspect.getsource(_openblas_core) + inspect.getsource(_dispatch_targets) + """

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
    "core": _openblas_core(),
    "dispatch": _dispatch_targets(),
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



def _build_mismatch() -> str | None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    found = (
        f"numpy {np.__version__} with {blas.get('name')} {blas.get('version')} "
        f"on {platform.machine()}"
    )
    want = f"numpy {NUMPY_VERSION} with scipy-openblas {OPENBLAS_VERSION} on x86_64"
    return None if found == want else f"values recorded on {want}, this is {found}"


def _runs_avx2_and_fma() -> bool:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    flags = next((line for line in cpuinfo.splitlines() if line.startswith("flags")), "")
    return {"avx2", "fma"} <= set(flags.partition(":")[2].split())


def _core_runs(native: str | None) -> list[tuple[str, dict]]:
    """(core type, extra environment) for each kernel family to check: the
    one OpenBLAS picks for this CPU, if the tables hold it, and the Haswell
    kernels forced, where the CPU runs them but OpenBLAS picks another, with
    numpy's dispatch targets above X86_V3 off."""
    runs = [(native, {})] if native in GATE_HASHES else []
    if native != "Haswell" and _runs_avx2_and_fma():
        off = " ".join(_dispatch_above_v3())
        runs.append(
            ("Haswell", {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": off})
        )
    return runs


def test_gate_hashes_gradient_oracle_and_config_hash():
    mismatch = _build_mismatch()
    if mismatch:
        pytest.skip(mismatch)
    native = _openblas_core()
    runs = _core_runs(native)
    if not runs:
        pytest.skip(f"values recorded for {sorted(GATE_HASHES)} kernels, this CPU runs {native}")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for core, extra in runs:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path, **extra)
        done = subprocess.run(
            [sys.executable, "-c", CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout)
        assert got["core"] == core
        off = extra.get("NPY_DISABLE_CPU_FEATURES", "").split()
        assert got["dispatch"] == [t for t in _dispatch_targets() if t not in off]
        assert {k: got[k] for k in GATE_HASHES[core]} == GATE_HASHES[core], core
        assert got["oracle"] == GRADIENT_ORACLE[core], core
        assert got["config_hash"] == DEFAULT_CONFIG_HASH
        assert {k: got[k] for k in EVAL_DIGESTS[core]} == EVAL_DIGESTS[core], core
