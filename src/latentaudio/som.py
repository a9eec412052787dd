"""Self-organizing map over thumbnails, plus cluster assembly.

Training is the classical sequential Kohonen procedure: present one
standardized thumbnail at a time, find its best-matching unit by
Euclidean distance, and pull every prototype toward the sample with a
Gaussian neighborhood weight. Learning rate and neighborhood radius
decay exponentially across epochs, from (lr0, radius0) down to
(0.01 * lr0, 1.0). The Gaussian width is half the radius, which keeps
cross-unit coupling weak enough at the end of training for prototypes
to settle onto distinct data modes. Every unit's pull is read from one
pull table of (2H - 1)(2W - 1) cells, filled once per epoch: the H x W
window centred on the best-matching unit holds each unit's pull toward
it. So training holds O(H*W) memory beyond the data, never (H*W)**2.

Features are standardized to zero mean and unit variance before
training; the transform is stored on the map so later queries see the
same space. A map may also carry the thumbnails it was trained on,
keyed by the content of their source files, so that later queries over
the same corpus need not extract them again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer, resample
from .container import (
    TEXT_FORMS, read_container, read_record, read_value, record_header, write_container,
)
from .exceptions import (
    ConfigMismatchError,
    CorruptFileError,
    EmptyInputError,
    ShapeMismatchError,
)
from .features import FeatureConfig, Thumbnail

SOM_MAGIC = b"RASOM\x00\x02"
# the map's settings in header order, each written and read in its type's TEXT_FORMS
_SETTINGS = {"width": int, "height": int, "epochs": int, "lr0": float, "radius0": float,
             "seed": int}

_LR_FLOOR_FACTOR = 0.01
_RADIUS_FLOOR = 1.0


class DurationBandWarning(UserWarning):
    """Concatenated cluster audio falls outside the 10-30 s working band."""


@dataclass
class SomMap:
    """Trained grid of prototypes in standardized feature space.

    prototypes is indexed [y][x], so flattening scans row-major in (y, x)
    order; feature_mean/feature_std hold the standardization applied to
    the training data. qe_history records the mean sample-to-BMU distance
    after each epoch. thumbnail_rows maps a source file's content key,
    (byte size, zlib CRC32 of its bytes), to the thumbnail features
    extracted from it; train_som leaves it empty, and the CLI fills it.
    """

    width: int
    height: int
    prototypes: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray
    feature_config: FeatureConfig
    epochs: int
    lr0: float
    radius0: float
    seed: int
    qe_history: np.ndarray
    thumbnail_rows: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.prototypes.shape[2]

    def standardize(self, features) -> np.ndarray:
        return (np.asarray(features, dtype=self.prototypes.dtype) - self.feature_mean) / self.feature_std


@dataclass(frozen=True)
class Cluster:
    """One occupied map unit and the file refs assigned to it."""

    unit: tuple
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "unit", tuple(self.unit))
        object.__setattr__(self, "members", tuple(self.members))


def _stack_thumbnails(thumbnails) -> np.ndarray:
    rows = [np.asarray(t.features, dtype=np.float64) for t in thumbnails]
    if not rows:
        raise EmptyInputError("need at least one thumbnail")
    dims = {len(r) for r in rows}
    if len(dims) > 1:
        raise ShapeMismatchError(f"mixed thumbnail dimensions: {sorted(dims)}")
    return np.vstack(rows)


def train_som(
    thumbnails,
    width: int | None = None,
    height: int | None = None,
    epochs: int = 100,
    lr0: float = 0.5,
    radius0: float | None = None,
    seed: int = 0,
    feature_config: FeatureConfig | None = None,
) -> SomMap:
    """Fit a width x height map to the thumbnails.

    width and height default to default_grid_side(len(thumbnails)), and
    radius0 to half the longer grid side (at least 1). Every setting is
    checked before the first thumbnail is read, so thumbnails may be a
    lazy stream. The seeded generator drives prototype initialization
    (random training samples) and the per-epoch presentation order, so
    equal inputs give equal maps.
    """
    if any(side is not None and side < 1 for side in (width, height)):
        raise ValueError("grid sides must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    lr0 = float(lr0)
    for name, rate in (("lr0", lr0), ("radius0", radius0)):
        if rate is not None and not (math.isfinite(rate) and rate > 0):
            raise ValueError(f"{name} must be finite and > 0")

    data = _stack_thumbnails(thumbnails)
    side = default_grid_side(len(data))
    width, height = (side if s is None else s for s in (width, height))
    radius0 = float(max(max(width, height) / 2.0, _RADIUS_FLOOR) if radius0 is None else radius0)
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    std[std == 0] = 1.0  # constant feature: leave it centered, unscaled
    standardized = (data - mean) / std

    rng = np.random.default_rng(seed)
    n, dim = standardized.shape
    prototypes = standardized[rng.integers(0, n, size=width * height)].reshape(height, width, dim)
    # pull table (module docstring): squared grid distance from the centre cell
    offset_d2 = (np.arange(1 - height, height)[:, None] ** 2
                 + np.arange(1 - width, width) ** 2)[:, :, None]
    table = np.empty(offset_d2.shape)
    pulls = [table[height - 1 - by : 2 * height - 1 - by, width - 1 - bx : 2 * width - 1 - bx]
             for by in range(height) for bx in range(width)]
    grid_d2 = np.arange((height - 1) ** 2 + (width - 1) ** 2 + 1)
    diff = np.empty_like(prototypes)
    squares = np.empty_like(prototypes)
    sample_d2 = np.empty((height, width))

    denominator = max(epochs - 1, 1)
    qe_history = np.zeros(epochs)
    for epoch in range(epochs):
        fraction = epoch / denominator
        lr = lr0 * _LR_FLOOR_FACTOR**fraction
        radius = radius0 * (_RADIUS_FLOOR / radius0) ** fraction
        sigma = radius / 2.0
        gauss_denom = 2.0 * sigma * sigma
        (lr * np.exp(-grid_d2 / gauss_denom)).take(offset_d2, out=table)
        for sample in standardized[rng.permutation(n)]:
            np.subtract(sample, prototypes, out=diff)
            np.add.reduce(np.square(diff, out=squares), axis=2, out=sample_d2)
            diff *= pulls[sample_d2.argmin()]  # row-major: smallest (y, x) wins ties
            prototypes += diff
        qe_history[epoch] = _quantization_error(prototypes, standardized)

    return SomMap(
        width=width,
        height=height,
        prototypes=prototypes,
        feature_mean=mean,
        feature_std=std,
        feature_config=feature_config or FeatureConfig(),
        epochs=epochs,
        lr0=lr0,
        radius0=radius0,
        seed=seed,
        qe_history=qe_history,
    )


def _quantization_error(prototypes: np.ndarray, standardized: np.ndarray) -> float:
    flat = prototypes.reshape(-1, prototypes.shape[2])
    d2 = (
        np.sum(standardized**2, axis=1)[:, None]
        - 2.0 * standardized @ flat.T
        + np.sum(flat**2, axis=1)
    )
    return float(np.mean(np.sqrt(np.maximum(d2.min(axis=1), 0.0))))


def _nearest_units(som: SomMap, rows) -> list:
    """Grid coordinate (x, y) of each raw feature row's nearest prototype, searched
    unit by unit so that a row gets the same unit alone or in a batch."""
    queries = som.standardize(np.reshape(rows, (-1, som.dimension)))
    d2 = [np.sum((queries - p) ** 2, axis=1) for p in som.prototypes.reshape(-1, som.dimension)]
    return [divmod(flat, som.width)[::-1] for flat in np.argmin(d2, axis=0).tolist()]


def assign_clusters(som: SomMap, thumbnails) -> list:
    """Partition thumbnails by BMU; nonempty units, largest first.

    A thumbnail's BMU is the unit (x, y) of its nearest prototype in
    standardized space; exact ties go to the smallest (y, x). Equal-sized
    clusters are ordered by unit (y, x). Thumbnails without a file_ref
    are labeled by their position in the input.
    """
    thumbnails = list(thumbnails)
    for i, thumb in enumerate(thumbnails):
        if len(thumb.features) != som.dimension:
            raise ConfigMismatchError(
                f"thumbnail {i} is {len(thumb.features)}-dim, map wants {som.dimension}"
            )
    members: dict = {}
    units = _nearest_units(som, [t.features for t in thumbnails])
    for i, (thumb, unit) in enumerate(zip(thumbnails, units)):
        members.setdefault(unit, []).append(thumb.file_ref or str(i))
    ordered = sorted(members.items(), key=lambda kv: (-len(kv[1]), kv[0][1], kv[0][0]))
    return [Cluster(unit, refs) for unit, refs in ordered]


def concatenate_cluster(cluster: Cluster, loader) -> AudioBuffer:
    """Join a cluster's members end-to-end in lexicographic ref order.

    loader maps a file ref to an AudioBuffer; members are resampled to
    the first (lexicographically) member's rate. Results outside the
    10-30 s band raise a DurationBandWarning, not an error.
    """
    if not cluster.members:
        raise ValueError("cluster has no members to concatenate")
    refs = sorted(cluster.members)
    buffers = [loader(ref) for ref in refs]
    rate = buffers[0].sample_rate
    buffers = [resample(b, rate) for b in buffers]
    joined = AudioBuffer(np.concatenate([b.samples for b in buffers]), rate)
    if not 10.0 <= joined.duration <= 30.0:
        warnings.warn(
            f"cluster audio is {joined.duration:.2f} s, outside the 10-30 s band",
            DurationBandWarning,
            stacklevel=2,
        )
    return joined


def default_grid_side(n_items: int) -> int:
    """Heuristic side length for a square map over n_items files."""
    return max(2, round((5.0 * np.sqrt(max(n_items, 1))) ** 0.5))


def save_som(som: SomMap, path) -> None:
    """Persist the map (float32 tensors); reload gives bit-identical files.

    The content keys go on one header line as size,crc pairs, flattened,
    and their rows follow qe_history as one (keys, D) tensor.
    """
    header = {
        **{name: TEXT_FORMS[kind][0](getattr(som, name)) for name, kind in _SETTINGS.items()},
        **record_header(som.feature_config, "feat_"),
        "thumbnail_keys": TEXT_FORMS[tuple][0](n for key in som.thumbnail_rows for n in key),
    }
    rows = np.reshape(list(som.thumbnail_rows.values()), (len(som.thumbnail_rows), som.dimension))
    tensors = [som.prototypes, som.feature_mean, som.feature_std, som.qe_history, rows]
    write_container(path, SOM_MAGIC, header, tensors)


def load_som(path) -> SomMap:
    header, tensors = read_container(path, SOM_MAGIC)
    if len(tensors) != 5:
        raise CorruptFileError(f"{path}: expected 5 tensors, found {len(tensors)}")
    prototypes, mean, std, qe_history, rows = tensors
    settings = {name: read_value(path, header, name, kind) for name, kind in _SETTINGS.items()}
    flat_keys = read_value(path, header, "thumbnail_keys", tuple)
    if len(flat_keys) % 2:
        raise CorruptFileError(f"{path}: thumbnail_keys holds an odd count of numbers")
    keys = list(zip(flat_keys[::2], flat_keys[1::2]))
    dim = prototypes.shape[-1:]  # (D,)
    wanted = (("prototypes", prototypes, (settings["height"], settings["width"], *dim)),
              ("feature mean", mean, dim), ("feature std", std, dim),
              ("qe_history", qe_history, qe_history.shape),  # any length
              ("thumbnail rows", rows, (len(keys), *dim)))
    for name, t, shape in wanted:
        if t.shape != shape:
            raise CorruptFileError(f"{path}: {name} shape {t.shape}, expected {shape}")
        # the checksum proves the bytes are as written, not that a map can use them
        if not np.isfinite(t).all():
            raise CorruptFileError(f"{path}: non-finite values in {name}")
    if not (std > 0).all():
        raise CorruptFileError(f"{path}: values <= 0 in feature std, which no trained map has")
    return SomMap(
        **settings,
        prototypes=prototypes,
        feature_mean=mean,
        feature_std=std,
        feature_config=read_record(path, header, FeatureConfig, "feat_"),
        qe_history=qe_history,
        thumbnail_rows=dict(zip(keys, rows)),
    )
