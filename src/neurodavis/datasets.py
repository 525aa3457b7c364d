"""Synthetic benchmark generators, the 9-D polynomial lift, CSV I/O and scaling.

The five 2-D generators reproduce fixed sample and class counts
(elliptic_ring 1100/3, olympic 2500/5, spiral 312/3, shape 2000/5,
world_map 2843/5). Their geometry comes from templates committed under
``neurodavis/templates``. Noise per kind: olympic's rings, spiral's arms,
shape's letters and elliptic_ring's ring get Gaussian jitter with sigma equal
to 2% of the component's diameter (ring, outer spiral or 1 x 2 letter cell);
elliptic_ring's two balls are Gaussian with sigma 0.2; world_map samples
uniformly inside its polygons with no jitter. All generators are
deterministic per seed.
Each generator returns one point array per class; ``gen_synthetic`` stacks
them, and a row's class id is the position of its part.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import CsvParseError, InvalidInputError
from .numerics import Rng, as_class_ids, as_matrix, dense_ids, non_integers

LIFT9_FEATURES = ("x+y", "x-y", "xy", "x^2", "y^2", "x^2y", "xy^2", "x^3", "y^3")


@dataclass
class Dataset:
    """An n x d matrix with optional dense integer class labels."""

    x: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None
    name: str = ""
    n_classes: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = as_matrix(self.x, "x")
        if self.labels is not None:
            self.labels, self.n_classes = as_class_ids(self.labels, self.x.shape[0])
        if self.feature_names is not None and len(self.feature_names) != self.x.shape[1]:
            raise InvalidInputError("feature_names length must match columns")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _load_template(filename: str) -> dict:
    text = resources.files("neurodavis.templates").joinpath(filename).read_text()
    return json.loads(text)


def _polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd ray casting (horizontal ray towards +x)."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    px, py = poly[:, 0], poly[:, 1]
    for k in range(len(poly)):
        x1, y1 = px[k - 1], py[k - 1]
        x2, y2 = px[k], py[k]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xin, np.inf))
    return inside


def _sample_in_polygon(poly: np.ndarray, count: int, rng: Rng) -> np.ndarray:
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    out = np.empty((0, 2))
    while len(out) < count:
        cand = rng.uniform(lo, hi, size=(2 * (count - len(out)) + 16, 2))
        out = np.vstack([out, cand[_points_in_polygon(cand, poly)]])
    return out[:count]


def _apportion(total: int, weights: np.ndarray) -> np.ndarray:
    """Largest-remainder split of ``total`` proportional to ``weights``."""
    quota = total * weights / weights.sum()
    counts = np.floor(quota).astype(np.int64)
    remainder = total - counts.sum()
    order = np.argsort(quota - counts)[::-1]
    counts[order[:remainder]] += 1
    return counts


def _gen_elliptic_ring(rng: Rng) -> list[np.ndarray]:
    a, b = 3.0, 1.8
    sigma_ring = 0.02 * 2 * a
    theta = rng.uniform(0.0, 2.0 * math.pi, 700)
    ring = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    ring += rng.normal(0.0, sigma_ring, (700, 2))
    balls = [np.array([cx, 0.0]) + rng.normal(0.0, 0.2, (200, 2)) for cx in (-1.2, 1.2)]
    return [ring, *balls]


def _gen_olympic(rng: Rng) -> list[np.ndarray]:
    tpl = _load_template("olympic.json")
    radius = float(tpl["radius"])
    sigma = 0.02 * 2 * radius
    parts = []
    for center in tpl["centers"]:
        theta = rng.uniform(0.0, 2.0 * math.pi, 500)
        pts = np.asarray(center) + radius * np.column_stack(
            [np.cos(theta), np.sin(theta)]
        )
        parts.append(pts + rng.normal(0.0, sigma, (500, 2)))
    return parts


def _gen_spiral(rng: Rng) -> list[np.ndarray]:
    r0, growth, turns = 0.25, 0.3, 3.0 * math.pi
    sigma = 0.02 * 2 * (r0 + growth * turns)
    parts = []
    for arm in range(3):
        theta = np.sort(rng.uniform(0.0, turns, 104))
        r = r0 + growth * theta
        phi = theta + arm * 2.0 * math.pi / 3.0
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
        parts.append(pts + rng.normal(0.0, sigma, (104, 2)))
    return parts


def _gen_shape(rng: Rng) -> list[np.ndarray]:
    tpl = _load_template("shape_letters.json")
    spacing = float(tpl["spacing"])
    n_letters = len(tpl["letters"])
    width = (n_letters - 1) * spacing + 1.0
    offset = np.array([-width / 2.0, -1.0])
    parts = []
    for idx, letter in enumerate(tpl["letters"]):
        strokes = [np.asarray(s, dtype=float) for s in letter["strokes"]]
        starts = np.array([s[0] for s in strokes])
        ends = np.array([s[1] for s in strokes])
        lengths = np.linalg.norm(ends - starts, axis=1)
        diam = math.hypot(1.0, 2.0)  # letter grid is 1 wide, 2 tall
        seg = rng.choice(len(strokes), size=400, p=lengths / lengths.sum())
        t = rng.uniform(0.0, 1.0, (400, 1))
        pts = starts[seg] + t * (ends[seg] - starts[seg])
        pts += rng.normal(0.0, 0.02 * diam, (400, 2))
        pts[:, 0] += idx * spacing
        parts.append(pts + offset)
    return parts


def _gen_world_map(rng: Rng) -> list[np.ndarray]:
    tpl = _load_template("world_map.json")
    polys = [np.asarray(c["polygon"], dtype=float) for c in tpl["continents"]]
    counts = _apportion(2843, np.array([_polygon_area(p) for p in polys]))
    return [_sample_in_polygon(p, int(c), rng) for p, c in zip(polys, counts)]


_GENERATORS = {
    "elliptic_ring": _gen_elliptic_ring,
    "olympic": _gen_olympic,
    "spiral": _gen_spiral,
    "shape": _gen_shape,
    "world_map": _gen_world_map,
}
SYNTHETIC_KINDS = tuple(_GENERATORS)


def gen_synthetic(kind: str, rng: Rng) -> Dataset:
    """Generate one of the committed 2-D benchmarks; see module docstring."""
    if kind not in _GENERATORS:
        raise InvalidInputError(
            f"unknown kind {kind!r}; expected one of {SYNTHETIC_KINDS}"
        )
    parts = _GENERATORS[kind](rng)
    labels = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    return Dataset(np.vstack(parts), labels=labels, feature_names=["x", "y"], name=kind)


def lift9(ds: Dataset) -> Dataset:
    """Map 2-D samples (x, y) to the 9-D polynomial feature vector
    (x+y, x-y, xy, x^2, y^2, x^2*y, x*y^2, x^3, y^3), keeping labels.
    Raises :class:`InvalidInputError` if a feature overflows float64 (a
    coordinate above about 5.6e102 in magnitude)."""
    if ds.d != 2:
        raise InvalidInputError(f"lift9 requires 2-D data, got d={ds.d}")
    x, y = ds.x[:, 0], ds.x[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, once
        lifted = np.column_stack(
            [x + y, x - y, x * y, x**2, y**2, x**2 * y, x * y**2, x * x * x, y * y * y]
        )
    if not np.isfinite(lifted).all():
        raise InvalidInputError(
            f"lift9 overflows float64: coordinates up to {np.abs(ds.x).max():.3g} "
            f"in magnitude give non-finite features"
        )
    return Dataset(
        lifted,
        labels=None if ds.labels is None else ds.labels.copy(),
        feature_names=list(LIFT9_FEATURES),
        name=f"{ds.name}_lift9" if ds.name else "lift9",
    )


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        kind = "non-numeric" if value is None else "non-finite"
        raise CsvParseError(
            f"{kind} cell {cell!r} at row {row}, column {col}", row=row, col=col
        )
    return value


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a numeric CSV ('.' decimal, ',' separator, UTF-8, header row) as
    a Dataset whose feature names are the header's.

    The header fixes the width: every data row must have as many cells.
    ``label_column`` names a class-id column by its header, which must hold
    that name once; label values must be finite integers and are remapped to
    dense ids starting at 0 (ascending original value). Empty lines are
    skipped. Ragged rows and non-numeric or non-finite cells raise
    :class:`CsvParseError` with the 1-based row and column position in the
    file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        # csv.reader yields [] for an empty line; each kept row keeps its
        # 1-based row number in the file
        rows = [(r, row) for r, row in enumerate(csv.reader(fh), 1) if row]
    if not rows:
        raise CsvParseError("empty file", row=1, col=1)
    (header_row, header), *rows = rows
    header = [h.strip() for h in header]
    if not rows:
        raise CsvParseError("no data rows after header", row=header_row + 1, col=1)
    width = len(header)
    label_idx: int | None = None
    if label_column is not None:
        if label_column not in header:
            raise InvalidInputError(
                f"label column {label_column!r} not found in header"
            )
        if header.count(label_column) > 1:
            raise InvalidInputError(
                f"label column {label_column!r} appears more than once in header"
            )
        label_idx = header.index(label_column)
    data = np.empty((len(rows), width), dtype=np.float64)
    for r, (file_row, row) in enumerate(rows):
        if len(row) != width:
            raise CsvParseError(
                f"ragged row {file_row}: {len(row)} cells, the header has {width}",
                row=file_row,
                col=len(row) + 1,
            )
        for c, cell in enumerate(row):
            data[r, c] = _parse_cell(cell.strip(), file_row, c + 1)
    labels = None
    if label_idx is not None:
        raw = data[:, label_idx]
        bad = non_integers(raw)
        if bad.size:
            r = int(bad[0])
            file_row = rows[r][0]
            raise CsvParseError(
                f"label {float(raw[r])!r} at row {file_row}, column {label_idx + 1} "
                "is not a finite integer",
                row=file_row,
                col=label_idx + 1,
            )
        labels = dense_ids(raw)
        data = np.delete(data, label_idx, axis=1)
        header = header[:label_idx] + header[label_idx + 1 :]
    return Dataset(data, labels=labels, feature_names=header, name="")


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset as CSV with a header; floats use 17 significant digits
    so a save/load round trip reproduces values bit-exactly. A ``label``
    column is appended when labels are present, so no feature may then be
    named ``label``."""
    names = ds.feature_names or [f"x{i}" for i in range(ds.d)]
    if ds.labels is not None and "label" in names:
        raise InvalidInputError("a feature named 'label' would clash with the label column")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + (["label"] if ds.labels is not None else []))
        for i in range(ds.n):
            row = [format(v, ".17g") for v in ds.x[i]]
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)
