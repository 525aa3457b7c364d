"""Dense numerical substrate: seeded RNG, distances, spectral norm.

One distance kernel per job, each working in blocks sized by ``_PAIR_CHUNK``:
``pair_distances`` for listed row pairs, ``sq_distances`` for every row of
one set against every row of another.

Everything operates on 2-D float64 arrays (row-major). Public operations
validate that inputs are finite and reject degenerate shapes, so the rest of
the package can assume well-formed matrices.

Random number generation uses the Philox 4x64 counter-based bit generator
(via numpy), so a given seed produces the same draw sequence on every
platform and numpy build.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

Rng = np.random.Generator

# Distance kernels process index blocks of this many pairs to bound memory.
_PAIR_CHUNK = 1 << 18


def make_rng(seed: int) -> Rng:
    """Seeded Philox generator; equal seeds give equal streams everywhere."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def spawn_rng(seed: int, stream: int) -> Rng:
    """Independent child generator ``stream`` derived from ``seed``."""
    children = np.random.SeedSequence(int(seed)).spawn(stream + 1)
    return np.random.Generator(np.random.Philox(children[stream]))


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Coerce to a finite 2-D float64 C-contiguous array or raise."""
    a = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def _sample_pair_indices(total: int, count: int, rng: Rng) -> np.ndarray:
    """Uniform sample of ``count`` distinct integers from [0, total), sorted.

    Batched rejection: repeatedly draw i.i.d. integers and keep new distinct
    values until ``count`` are collected. Accepting only unseen values is
    exactly sampling without replacement, and it needs O(count) memory even
    when ``total`` is huge.
    """
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < count:
        need = count - chosen.size
        draw = rng.integers(0, total, size=int(need * 1.1) + 16, dtype=np.int64)
        _, first = np.unique(draw, return_index=True)
        fresh = draw[np.sort(first)]  # distinct values, in draw order
        fresh = fresh[~np.isin(fresh, chosen)]
        chosen = np.concatenate([chosen, fresh[:need]])
    return np.sort(chosen)


def _decode_pairs(linear: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map lexicographic pair ranks to (i, j) with i < j."""
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # rank of pair (i, i+1)
    ii = np.searchsorted(starts, linear, side="right") - 1
    jj = linear - starts[ii] + ii + 1
    return ii, jj


def pair_distances(x: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows ``x[ii]`` and ``x[jj]``, chunked."""
    x = as_matrix(x, "x")
    out = np.empty(len(ii), dtype=np.float64)
    for s in range(0, len(ii), _PAIR_CHUNK):
        e = min(s + _PAIR_CHUNK, len(ii))
        diff = x[ii[s:e]] - x[jj[s:e]]
        out[s:e] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return out


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of ``a`` by rows of ``b``, chunked."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    out = np.empty((len(a), len(b)))
    step = max(1, _PAIR_CHUNK // max(len(b), 1))
    for s in range(0, len(a), step):
        diff = a[s : s + step, None, :] - b[None, :, :]
        out[s : s + step] = (diff * diff).sum(axis=-1)
    return out


def pairwise_euclidean(
    x,
    pair_budget: int | None = None,
    rng: Rng | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean distances over unordered row pairs of ``x``.

    Returns parallel arrays ``(ii, jj, d)`` with ``ii < jj``; zipping them
    yields ``(i, j, distance)`` triples. Without a budget all n(n-1)/2 pairs
    are produced in lexicographic order. With ``pair_budget`` below the total,
    a seeded uniform sample without replacement of that many pairs is taken
    (ascending pair rank), which requires ``rng``.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n < 2:
        raise InvalidInputError(f"need at least 2 rows, got {n}")
    total = n * (n - 1) // 2
    if pair_budget is not None:
        if not 1 <= pair_budget <= total:
            raise InvalidInputError(
                f"pair_budget must be in [1, {total}], got {pair_budget}"
            )
        if pair_budget < total:
            if rng is None:
                raise InvalidInputError("pair sampling requires an rng")
            linear = _sample_pair_indices(total, pair_budget, rng)
            ii, jj = _decode_pairs(linear, n)
            return ii, jj, pair_distances(x, ii, jj)
    ii, jj = np.triu_indices(n, k=1)
    ii = ii.astype(np.int64)
    jj = jj.astype(np.int64)
    return ii, jj, pair_distances(x, ii, jj)


def spectral_norm(w) -> float:
    """Largest singular value of ``w``, read exactly from a LAPACK SVD."""
    w = as_matrix(w, "w")
    if w.size == 0:
        raise InvalidInputError("w must be nonempty")
    return float(np.linalg.norm(w, 2))
