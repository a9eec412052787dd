"""Self-organizing map over thumbnails, plus cluster assembly.

Training is the classical sequential Kohonen procedure: present one
standardized thumbnail at a time, find its best-matching unit by
Euclidean distance, and pull every prototype toward the sample with a
Gaussian neighborhood weight. Learning rate and neighborhood radius
decay exponentially across epochs, from (lr0, radius0) down to
(0.01 * lr0, 1.0). The Gaussian width is half the radius, which keeps
cross-unit coupling weak enough at the end of training for prototypes
to settle onto distinct data modes.

Features are standardized to zero mean and unit variance before
training; the transform is stored on the map so later queries see the
same space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, resample
from .container import read_container, write_container
from .exceptions import (
    ConfigMismatchError,
    CorruptFileError,
    EmptyInputError,
    ShapeMismatchError,
)
from .features import FeatureConfig, Thumbnail

SOM_MAGIC = b"RASOM\x00\x01"

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
    after each epoch.
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
    width: int,
    height: int,
    epochs: int = 100,
    lr0: float = 0.5,
    radius0: float | None = None,
    seed: int = 0,
    feature_config: FeatureConfig | None = None,
) -> SomMap:
    """Fit a width x height map to the thumbnails.

    radius0 defaults to half the longer grid side (at least 1). The
    seeded generator drives prototype initialization (random training
    samples) and the per-epoch presentation order, so equal inputs give
    equal maps.
    """
    if width < 1 or height < 1:
        raise ValueError("grid sides must be >= 1")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if lr0 <= 0:
        raise ValueError("lr0 must be > 0")
    if radius0 is None:
        radius0 = max(max(width, height) / 2.0, _RADIUS_FLOOR)
    if radius0 <= 0:
        raise ValueError("radius0 must be > 0")

    data = _stack_thumbnails(thumbnails)
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    std[std == 0] = 1.0  # constant feature: leave it centered, unscaled
    standardized = (data - mean) / std

    rng = np.random.default_rng(seed)
    n, dim = standardized.shape
    prototypes = standardized[rng.integers(0, n, size=width * height)].reshape(
        height, width, dim
    ).copy()
    # squared grid offsets, dy2[by] = (y - by)**2 as a column and
    # dx2[bx] = (x - bx)**2 as a row: their sum is each unit's squared grid
    # distance to the BMU, which indexes a per-epoch table of pulls
    rows, cols = np.arange(height), np.arange(width)
    dy2 = ((rows[:, None] - rows) ** 2)[:, :, None]
    dx2 = (cols[:, None] - cols) ** 2
    grid_d2 = np.arange((height - 1) ** 2 + (width - 1) ** 2 + 1)
    diff = np.empty_like(prototypes)
    squares = np.empty_like(prototypes)
    sample_d2 = np.empty((height, width))
    unit_d2 = np.empty((height, width), dtype=grid_d2.dtype)
    pull = np.empty((height, width))
    pull_per_feature = pull[:, :, None]

    denominator = max(epochs - 1, 1)
    qe_history = np.zeros(epochs)
    for epoch in range(epochs):
        fraction = epoch / denominator
        lr = lr0 * _LR_FLOOR_FACTOR**fraction
        radius = radius0 * (_RADIUS_FLOOR / radius0) ** fraction
        sigma = radius / 2.0
        gauss_denom = 2.0 * sigma * sigma
        pull_by_d2 = lr * np.exp(-grid_d2 / gauss_denom)
        for idx in rng.permutation(n):
            np.subtract(standardized[idx], prototypes, out=diff)
            np.add.reduce(np.square(diff, out=squares), axis=2, out=sample_d2)
            flat = int(sample_d2.argmin())  # row-major: smallest (y, x) wins ties
            by, bx = divmod(flat, width)
            np.add(dy2[by], dx2[bx], out=unit_d2)
            pull_by_d2.take(unit_d2, out=pull)
            diff *= pull_per_feature
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


def quantization_error(som: SomMap, thumbnails) -> float:
    """Mean Euclidean distance of each thumbnail to its BMU prototype."""
    data = _stack_thumbnails(thumbnails)
    if data.shape[1] != som.dimension:
        raise ShapeMismatchError(
            f"thumbnails are {data.shape[1]}-dim, map is {som.dimension}-dim"
        )
    return _quantization_error(
        np.asarray(som.prototypes, dtype=np.float64),
        (data - som.feature_mean) / som.feature_std,
    )


def best_matching_unit(som: SomMap, features) -> tuple:
    """Grid coordinate (x, y) of the nearest prototype in standardized space.

    Exact ties go to the smallest (y, x) lexicographically.
    """
    features = np.asarray(features, dtype=np.float64).reshape(-1)
    if features.shape[0] != som.dimension:
        raise ShapeMismatchError(
            f"feature vector is {features.shape[0]}-dim, map is {som.dimension}-dim"
        )
    query = som.standardize(features)
    d2 = np.sum((som.prototypes - query) ** 2, axis=2)
    flat = int(np.argmin(d2))
    y, x = divmod(flat, som.width)
    return (x, y)


def assign_clusters(som: SomMap, thumbnails) -> list:
    """Partition thumbnails by BMU; nonempty units, largest first.

    Equal-sized clusters are ordered by unit (y, x). Thumbnails without a
    file_ref are labeled by their position in the input.
    """
    members: dict = {}
    for i, thumb in enumerate(thumbnails):
        if len(thumb.features) != som.dimension:
            raise ConfigMismatchError(
                f"thumbnail {i} is {len(thumb.features)}-dim, map wants {som.dimension}"
            )
        unit = best_matching_unit(som, thumb.features)
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
    joined = AudioBuffer(
        np.concatenate([b.samples for b in buffers]),
        rate,
        source_label=f"cluster{cluster.unit}",
    )
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


def _config_to_header(config: FeatureConfig) -> dict:
    return {
        "feat_sample_rate": config.sample_rate,
        "feat_frame_size": config.frame_size,
        "feat_hop": config.hop,
        "feat_n_mfcc": config.n_mfcc,
        "feat_n_mels": config.n_mels,
        "feat_centroid": int(config.include_centroid),
        "feat_rms": int(config.include_rms),
    }


def _config_from_header(header: dict) -> FeatureConfig:
    return FeatureConfig(
        sample_rate=int(header["feat_sample_rate"]),
        frame_size=int(header["feat_frame_size"]),
        hop=int(header["feat_hop"]),
        n_mfcc=int(header["feat_n_mfcc"]),
        n_mels=int(header["feat_n_mels"]),
        include_centroid=bool(int(header["feat_centroid"])),
        include_rms=bool(int(header["feat_rms"])),
    )


def save_som(som: SomMap, path) -> None:
    """Persist the map (float32 tensors); reload gives bit-identical files."""
    header = {
        "width": som.width,
        "height": som.height,
        "epochs": som.epochs,
        "lr0": repr(som.lr0),
        "radius0": repr(som.radius0),
        "seed": som.seed,
        **_config_to_header(som.feature_config),
    }
    tensors = [som.prototypes, som.feature_mean, som.feature_std, som.qe_history]
    write_container(path, SOM_MAGIC, header, tensors)


def load_som(path) -> SomMap:
    header, tensors = read_container(path, SOM_MAGIC)
    if len(tensors) != 4:
        raise CorruptFileError(f"{path}: expected 4 tensors, found {len(tensors)}")
    prototypes, mean, std, qe_history = tensors
    width, height = int(header["width"]), int(header["height"])
    dim = prototypes.shape[-1:]  # (D,)
    wanted = (("prototypes", prototypes, (height, width, *dim)),
              ("feature mean", mean, dim), ("feature std", std, dim))
    for name, t, shape in wanted:
        if t.shape != shape:
            raise CorruptFileError(f"{path}: {name} shape {t.shape}, expected {shape}")
    return SomMap(
        width=width,
        height=height,
        prototypes=prototypes,
        feature_mean=mean,
        feature_std=std,
        feature_config=_config_from_header(header),
        epochs=int(header["epochs"]),
        lr0=float(header["lr0"]),
        radius0=float(header["radius0"]),
        seed=int(header["seed"]),
        qe_history=qe_history,
    )
