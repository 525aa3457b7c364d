"""Dense numerical substrate: seeded RNG, distances, spectral norm.

One distance kernel per job, each working in blocks sized by ``_PAIR_CHUNK``:
``pair_distances`` for listed row pairs, ``sq_distances`` for every row of
one set against every row of another.

Everything operates on 2-D float64 arrays (row-major). Public operations
validate that inputs are finite and reject degenerate shapes, so the rest of
the package can assume well-formed matrices; ``as_class_ids`` is the one
check of class labels.

Random number generation uses the Philox 4x64 counter-based bit generator
(via numpy), so a given seed produces the same draw sequence on every
platform and numpy build. Budgeted pair sets are numpy's
``Generator.choice`` without replacement over pair ranks, decoded in
ascending rank order like the all-pairs set.
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


def as_class_ids(labels, n: int) -> tuple[np.ndarray, int]:
    """Validate class labels for ``n`` rows; return ``(ids, n_classes)``.

    Labels are one finite integer id per row, dense from 0: every id in
    0..n_classes-1 names at least one row. The bounds are checked before
    ``bincount`` allocates max + 1 counters, so a huge id costs nothing.
    """
    a = np.asarray(labels)
    if a.shape != (n,):
        raise InvalidInputError(
            f"labels must be one id per row: got shape {a.shape} for {n} rows"
        )
    if a.dtype.kind not in "biuf":
        raise InvalidInputError(f"labels must be numeric, got dtype {a.dtype}")
    if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.floor(a))):
        raise InvalidInputError("labels must be finite integers")
    if n and (a.min() < 0 or a.max() >= n):
        raise InvalidInputError(f"class ids must be dense from 0, within [0, {n})")
    ids = a.astype(np.int64, copy=False)
    counts = np.bincount(ids)
    if not counts.all():
        raise InvalidInputError("class ids must be dense from 0: an id is unused")
    return ids, len(counts)


def _decode_pairs(linear: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map lexicographic pair ranks to (i, j) with i < j."""
    rows = np.arange(n - 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # rank of pair (i, i+1)
    ii = np.searchsorted(starts, linear, side="right") - 1
    jj = linear - starts[ii] + ii + 1
    return ii, jj


def pair_distances(x: np.ndarray, ii, jj) -> np.ndarray:
    """Euclidean distances between rows ``x[ii]`` and ``x[jj]``, chunked;
    ``ii`` and ``jj`` are equal-length 1-D integer arrays of rows in [0, n)."""
    x = as_matrix(x, "x")
    ii, jj = np.asarray(ii), np.asarray(jj)
    kinds = {ii.dtype.kind, jj.dtype.kind}
    if ii.ndim != 1 or ii.shape != jj.shape or not kinds <= {"i", "u"}:
        raise InvalidInputError("ii and jj must be 1-D integer arrays of equal length")
    n = x.shape[0]
    if ii.size and (min(ii.min(), jj.min()) < 0 or max(ii.max(), jj.max()) >= n):
        raise InvalidInputError(f"row indices must be in [0, {n})")
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
    # one block buffer for the whole call, squared in place
    buf = np.empty((min(step, len(a)), len(b), a.shape[1]))
    for s in range(0, len(a), step):
        e = min(s + step, len(a))
        diff = np.subtract(a[s:e, None, :], b[None, :, :], out=buf[: e - s])
        np.multiply(diff, diff, out=diff)
        out[s:e] = diff.sum(axis=-1)
    return out


def pairwise_euclidean(
    x,
    pair_budget: int | None = None,
    rng: Rng | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euclidean distances over unordered row pairs of ``x``.

    Returns parallel arrays ``(ii, jj, d)`` with ``ii < jj``, in ascending
    lexicographic pair rank; zipping them yields ``(i, j, distance)``
    triples. Without a budget (or with one equal to the total) all
    n(n-1)/2 pairs are produced. With ``pair_budget`` below the total, that
    many ranks are drawn uniformly without replacement by
    ``rng.choice(total, pair_budget, replace=False)``, which requires
    ``rng``. numpy draws a budget up to total/50 by Floyd's algorithm in
    O(budget) memory; a larger one by a partial shuffle that holds all
    ``total`` ranks (8 bytes each), no more than the all-pairs call needs.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n < 2:
        raise InvalidInputError(f"need at least 2 rows, got {n}")
    total = n * (n - 1) // 2
    budget = total if pair_budget is None else pair_budget
    if not 1 <= budget <= total:
        raise InvalidInputError(f"pair_budget must be in [1, {total}], got {budget}")
    if budget < total:
        if rng is None:
            raise InvalidInputError("pair sampling requires an rng")
        ranks = rng.choice(total, budget, replace=False)
        ranks.sort()
    else:
        ranks = np.arange(total, dtype=np.int64)
    ii, jj = _decode_pairs(ranks, n)
    return ii, jj, pair_distances(x, ii, jj)


def spectral_norm(w) -> float:
    """Largest singular value of ``w``, read exactly from a LAPACK SVD."""
    w = as_matrix(w, "w")
    if w.size == 0:
        raise InvalidInputError("w must be nonempty")
    return float(np.linalg.norm(w, 2))
