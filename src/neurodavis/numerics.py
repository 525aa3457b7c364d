"""Dense numerical substrate: seeded RNG, distances, spectral norm.

One distance kernel per job, each working in blocks of at most
``_BLOCK_VALUES`` difference values, whatever the row width:
``pair_distances`` for listed row pairs, ``distances`` for every row of one
set against every row of another, and ``sq_distances`` for the squares
k-means compares. The first two take their sums of squares at unit scale
(``unit_scaled``) and end in ``_rooted``, which retakes each pair whose sum
fell below the normal range from the unscaled rows. When the summed
distances would pass float64's range, a call's distances come back times
one power of two: exact for callers that compare, sum or average them. No
other module picks a power of two; ``sq_distances`` does not scale.

Everything operates on 2-D float64 arrays (row-major). Public operations
validate that inputs are finite and reject degenerate shapes, so the rest of
the package can assume well-formed matrices. Each kind of input has one
check here: ``as_matrix`` for a matrix, ``as_paired`` for two row-aligned
spaces, ``as_vector`` for a vector of values, ``as_class_ids`` for class
labels, ``as_labeling`` for a clustering's labels, ``as_count`` for a
count, ``as_real`` for a real setting and ``as_indices`` for row indices.
``non_integers`` is the one finite-integer test and ``dense_ids`` the one
ascending-value remap behind the two label checks and ``load_csv``.

Random number generation uses the Philox 4x64 counter-based bit generator
(via numpy), so a given seed produces the same draw sequence on every
platform and numpy build. Budgeted pair sets are numpy's
``Generator.choice`` without replacement over pair ranks, decoded in
ascending rank order like the all-pairs set.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .errors import InvalidInputError

Rng = np.random.Generator

# Float64 values per block of a distance kernel's difference tensor (8 MiB),
# so its memory does not grow with the row width.
_BLOCK_VALUES = 1 << 20


def make_rng(seed: int) -> Rng:
    """Seeded Philox generator; equal seeds give equal streams everywhere."""
    seq = np.random.SeedSequence(as_count(seed, "seed", 0))
    return np.random.Generator(np.random.Philox(seq))


def spawn_rng(seed: int, stream: int) -> Rng:
    """Independent child generator ``stream`` derived from ``seed``."""
    seq = np.random.SeedSequence(as_count(seed, "seed", 0))
    stream = as_count(stream, "stream", 0)
    return np.random.Generator(np.random.Philox(seq.spawn(stream + 1)[stream]))


def as_count(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as a Python int in [``low``, ``high``] (no upper bound when
    ``high`` is None); any integer type passes, a float or bool does not."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < low or (high is not None and count > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInputError(f"{name} must be an integer {bound}, got {value!r}")
    return count


def as_real(value, name: str, low: float, high: float | None = None) -> float:
    """``value`` as a finite Python float in [``low``, ``high``] (no upper
    bound when ``high`` is None); any real type but bool passes."""
    is_real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    real = float(value) if is_real else np.nan
    if not (np.isfinite(real) and low <= real and (high is None or real <= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInputError(f"{name} must be a finite real {bound}, got {value!r}")
    return real


def as_indices(idx, n: int, name: str) -> np.ndarray:
    """Row indices into ``n`` rows: a nonempty 1-D array of an integer
    dtype (float and bool refused), every entry in [0, ``n``)."""
    a = np.asarray(idx)
    if a.ndim != 1 or a.size == 0 or a.dtype.kind not in "iu":
        raise InvalidInputError(
            f"{name} must be a nonempty 1-D integer array, "
            f"got dtype {a.dtype} and shape {a.shape}"
        )
    low, high = a.min(), a.max()
    if low < 0 or high >= n:
        raise InvalidInputError(f"{name} must lie in [0, {n}), got [{low}, {high}]")
    return a


def _finite_reals(x, name: str) -> np.ndarray:
    """``x`` as a float64 array of finite values. Only a real numeric dtype
    casts: complex, string or object input raises, as does a ragged list."""
    try:
        a = np.asarray(x).astype(np.float64, copy=False, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be a real numeric array: {exc}") from None
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return a


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Coerce to a finite 2-D float64 C-contiguous array or raise."""
    a = np.ascontiguousarray(_finite_reals(x, name))
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def as_paired(x_high, x_low) -> tuple[np.ndarray, np.ndarray]:
    """Two row-aligned spaces, each through ``as_matrix``; their row counts
    must agree."""
    x_high = as_matrix(x_high, "x_high")
    x_low = as_matrix(x_low, "x_low")
    if x_high.shape[0] != x_low.shape[0]:
        raise InvalidInputError(
            f"row counts differ: {x_high.shape[0]} vs {x_low.shape[0]}"
        )
    return x_high, x_low


def as_vector(a, name: str) -> np.ndarray:
    """Flatten to a float64 vector of finite values or raise."""
    return _finite_reals(a, name).ravel()


def non_integers(a: np.ndarray) -> np.ndarray:
    """Flat indices of the entries of numeric ``a`` that are not finite
    integers; an integer or boolean array has none."""
    if a.dtype.kind != "f":
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(~(np.isfinite(a) & (a == np.floor(a))))


def dense_ids(a: np.ndarray) -> np.ndarray:
    """Index of each entry of 1-D ``a`` among its distinct values, ascending
    (``np.unique``'s inverse, without loading ``numpy.ma``)."""
    values = np.sort(a)
    values = values[np.r_[True, values[1:] != values[:-1]]]
    return np.searchsorted(values, a)


def _as_integers(labels, what: str) -> np.ndarray:
    a = np.asarray(labels)
    if a.dtype.kind not in "biuf":
        raise InvalidInputError(f"{what} must be numeric, got dtype {a.dtype}")
    if non_integers(a).size:
        raise InvalidInputError(f"{what} must be finite integers")
    return a


def as_labeling(labels) -> np.ndarray:
    """A clustering's labels: a nonempty sequence of finite integers, any
    values; returns the dense 0-based index of each (``dense_ids``)."""
    a = _as_integers(labels, "labelings").ravel()
    if a.size == 0:
        raise InvalidInputError("labelings must be nonempty")
    return dense_ids(a)


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
    _as_integers(a, "labels")
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


def _exponent(*tables) -> int:
    """``e`` with max |value| of ``tables`` in [2**(e-1), 2**e); 0 if all 0."""
    return int(np.frexp(max(np.abs(t).max(initial=0.0) for t in tables))[1])


def unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``(x * 2**-e, e)`` for the integer ``e`` that brings max |x| into
    [0.5, 1) (0 for an all-zero ``x``), so squares can neither overflow nor
    underflow. Exact while no value leaves the normal range."""
    e = _exponent(x)
    return np.ldexp(x, -e), e


def _own_scale_distances(a: np.ndarray, b: np.ndarray, ii, jj) -> np.ndarray:
    """``|a[ii[p]] - b[jj[p]]|`` for each p, from the unscaled rows, each pair
    at the power of two of its own largest difference, so no pair's
    difference underflows because another row is large; in blocks of
    ``_BLOCK_VALUES`` values. Negating the difference changes no bit."""
    out = np.empty(len(ii))
    step = max(1, _BLOCK_VALUES // max(a.shape[1], 1))
    for s in range(0, len(ii), step):
        diff = a.take(ii[s : s + step], axis=0) - b.take(jj[s : s + step], axis=0)
        e = np.frexp(np.abs(diff).max(axis=1, initial=0.0))[1]
        np.ldexp(diff, -e[:, None], out=diff)
        out[s : s + step] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", diff, diff)), e)
    return out


def _rooted(sums: np.ndarray, scale: int, retake) -> np.ndarray:
    """Distances from their unit-scale sums of squares ``sums`` (written
    over): the roots times 2**(``scale`` - s), s >= 0 the least that keeps
    their count times their largest, each taken up to the next power of two
    above it, at most 2**1024, so their sum is finite. A sum below 2**-1022
    lost precision; its flat index ``p`` is retaken by
    ``_own_scale_distances(*retake(p))``."""
    small = np.flatnonzero(sums < np.finfo(np.float64).tiny)
    out = np.sqrt(sums, out=sums)
    shift = max(0, scale + _exponent(out.max(initial=0.0)) + out.size.bit_length() - 1024)
    np.ldexp(out, scale - shift, out=out)
    out.flat[small] = np.ldexp(_own_scale_distances(*retake(small)), -shift)
    return out


def pair_distances(x: np.ndarray, ii, jj) -> np.ndarray:
    """Euclidean distances between rows ``x[ii]`` and ``x[jj]``, chunked;
    ``ii`` and ``jj`` are equal-length row indices (``as_indices``).

    Taken at unit scale (``unit_scaled``), so squares cannot overflow; a
    pair whose sum of squares is below the normal range there is retaken at
    its own scale, so a table spanning 2**+-1000 keeps its small distances.
    When their sum would pass float64's range (rows near 1e308), the
    distances come back times one power of two: exact for callers that
    compare, sum or average them."""
    raw = as_matrix(x, "x")
    n = raw.shape[0]
    ii, jj = as_indices(ii, n, "ii"), as_indices(jj, n, "jj")
    if ii.shape != jj.shape:
        raise InvalidInputError(f"ii and jj differ in length: {ii.size} vs {jj.size}")
    x, scale = unit_scaled(raw)
    sums = np.empty(len(ii), dtype=np.float64)
    step = max(1, _BLOCK_VALUES // max(x.shape[1], 1))
    for s in range(0, len(ii), step):
        e = min(s + step, len(ii))
        # a row take gathers the rows several times faster than x[ii[s:e]]
        diff = x.take(ii[s:e], axis=0) - x.take(jj[s:e], axis=0)
        sums[s:e] = np.einsum("ij,ij->i", diff, diff)
    return _rooted(sums, scale, lambda p: (raw, raw, ii[p], jj[p]))


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances, rows of ``a`` by rows of ``b``: ``sq_distances``
    at the unit scale of both tables together, finished as in
    ``pair_distances``, with its beyond-range rule: when their sum would
    pass float64's range, the distances come back times one power of two,
    exact for callers that compare, sum or average them. Every step is
    symmetric in ``a`` and ``b``, so ``distances(x, x)`` is exactly
    symmetric."""
    a, b = as_matrix(a, "a"), as_matrix(b, "b")
    scale = _exponent(a, b)
    sums = sq_distances(np.ldexp(a, -scale), np.ldexp(b, -scale))
    return _rooted(sums, scale, lambda p: (a, b, *np.divmod(p, len(b))))


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, rows of ``a`` by rows of ``b``, chunked.
    Not scaled: a square beyond float64's range overflows to inf or
    underflows to zero, so callers pass tables near unit scale."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    out = np.empty((len(a), len(b)))
    step = max(1, _BLOCK_VALUES // max(len(b) * a.shape[1], 1))
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
    triples. Without a budget (or with one at or above the total) all
    n(n-1)/2 pairs are produced. With ``pair_budget`` below the total, that
    many ranks are drawn uniformly without replacement by
    ``rng.choice(total, pair_budget, replace=False)``, which requires
    ``rng``. numpy draws a budget up to total/50 by Floyd's algorithm in
    O(budget) memory; a larger one by a partial shuffle that holds all
    ``total`` ranks (8 bytes each), no more than the all-pairs call needs.
    When their sum would pass float64's range, the distances come back times
    one power of two (``pair_distances``): exact for callers that compare,
    sum or average them.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    if n < 2:
        raise InvalidInputError(f"need at least 2 rows, got {n}")
    total = n * (n - 1) // 2
    budget = total
    if pair_budget is not None:
        budget = min(as_count(pair_budget, "pair_budget", 1), total)
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
