"""Latent-map training, clustering and persistence tests.

The numeric oracles here were computed independently before freezing:
the 1x1 map must converge to the standardized data mean (a fixed point
of the update rule), and well-separated blobs must claim one prototype
each.
"""

import re

import numpy as np
import pytest

from helpers import make_sine
from latentaudio import (
    Cluster,
    ConfigMismatchError,
    DurationBandWarning,
    EmptyInputError,
    FeatureConfig,
    ShapeMismatchError,
    Thumbnail,
    assign_clusters,
    concatenate_cluster,
    default_grid_side,
    load_som,
    load_wav,
    save_som,
    train_som,
)


def _thumbs(matrix, prefix="t"):
    return [Thumbnail(row, file_ref=f"{prefix}{i}.wav") for i, row in enumerate(matrix)]


def _two_blobs(seed=42, dim=30, separation=5.0, spread=0.1, n=50):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(dim)
    direction *= separation / np.linalg.norm(direction)
    c1, c2 = -direction / 2, direction / 2
    blob1 = c1 + spread * rng.standard_normal((n, dim))
    blob2 = c2 + spread * rng.standard_normal((n, dim))
    return blob1, blob2


class TestTrainSom:
    def test_single_unit_converges_to_standardized_mean(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((40, 6)) * 2.0 + 1.0
        som = train_som(_thumbs(data), width=1, height=1, epochs=100, lr0=0.02, seed=3)
        standardized_mean = som.standardize(data).mean(axis=0)
        err = np.max(np.abs(som.prototypes[0, 0] - standardized_mean))
        assert err < 1e-3

    def test_two_blobs_get_one_prototype_each(self):
        blob1, blob2 = _two_blobs()
        data = np.vstack([blob1, blob2])
        som = train_som(_thumbs(data), width=2, height=1, epochs=60, lr0=0.5, seed=1)
        z = som.standardize(data)
        m1, m2 = z[:50].mean(axis=0), z[50:].mean(axis=0)
        s1 = np.linalg.norm(z[:50] - m1, axis=1).std() + np.linalg.norm(z[:50] - m1, axis=1).mean()
        protos = som.prototypes.reshape(2, -1)
        d = np.array([[np.linalg.norm(p - m) for m in (m1, m2)] for p in protos])
        picks = d.argmin(axis=1)
        assert set(picks) == {0, 1}, "both centroids must be claimed"
        assert d[0, picks[0]] < 3 * s1
        assert d[1, picks[1]] < 3 * s1

    def test_quantization_error_decreases(self):
        blob1, blob2 = _two_blobs(seed=8)
        thumbs = _thumbs(np.vstack([blob1, blob2]))
        som = train_som(thumbs, width=2, height=2, epochs=40, lr0=0.5, seed=0)
        assert som.qe_history[-1] < som.qe_history[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        thumbs = _thumbs(rng.standard_normal((30, 8)))
        a = train_som(thumbs, width=2, height=2, epochs=5, lr0=0.3, seed=4)
        b = train_som(thumbs, width=2, height=2, epochs=5, lr0=0.3, seed=4)
        assert np.array_equal(a.prototypes, b.prototypes)
        assert np.array_equal(a.qe_history, b.qe_history)

    def test_seed_changes_result(self):
        rng = np.random.default_rng(10)
        thumbs = _thumbs(rng.standard_normal((30, 8)))
        a = train_som(thumbs, width=2, height=2, epochs=5, lr0=0.3, seed=4)
        b = train_som(thumbs, width=2, height=2, epochs=5, lr0=0.3, seed=5)
        assert not np.array_equal(a.prototypes, b.prototypes)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            train_som([], width=2, height=2)

    def test_mixed_dimensions(self):
        thumbs = [Thumbnail(np.zeros(4), "a"), Thumbnail(np.zeros(5), "b")]
        with pytest.raises(ShapeMismatchError):
            train_som(thumbs, width=1, height=1)

    def test_negative_seed_rejected(self):
        thumbs = _thumbs(np.zeros((3, 4)))
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            train_som(thumbs, width=1, height=1, seed=-1)

    def test_grid_sized_from_the_thumbnail_count_when_omitted(self):
        rng = np.random.default_rng(0)
        thumbs = _thumbs(rng.standard_normal((10, 4)))
        som = train_som(thumbs, epochs=1)
        assert som.width == som.height == default_grid_side(10) == 4
        assert som.radius0 == 2.0
        assert (train_som(thumbs, width=2, epochs=1).height, som.seed) == (4, 0)

    def test_lazy_stream_gives_the_same_map(self):
        rng = np.random.default_rng(1)
        thumbs = _thumbs(rng.standard_normal((12, 4)))
        a = train_som(thumbs, epochs=3, seed=2)
        b = train_som((t for t in thumbs), epochs=3, seed=2)
        assert np.array_equal(a.prototypes, b.prototypes)

    @pytest.mark.parametrize("settings, message", [
        ({"width": 0}, "grid sides"), ({"height": -1}, "grid sides"),
        ({"epochs": 0}, "epochs"), ({"seed": -1}, "seed"), ({"lr0": 0.0}, "lr0"),
        ({"lr0": float("inf")}, "lr0"), ({"radius0": float("nan")}, "radius0"),
        ({"radius0": 0.0}, "radius0"),
    ])
    def test_settings_checked_before_the_first_thumbnail(self, settings, message):
        def stream():
            raise AssertionError("a thumbnail was read")
            yield

        with pytest.raises(ValueError, match=message):
            train_som(stream(), **settings)

    def test_default_radius_covers_half_the_longer_side(self):
        rng = np.random.default_rng(0)
        thumbs = _thumbs(rng.standard_normal((10, 4)))
        som = train_som(thumbs, width=6, height=2, epochs=1, seed=0)
        assert som.radius0 == 3.0

    def test_constant_feature_column_survives_std_floor(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((20, 5))
        data[:, 3] = 7.0  # zero variance column
        som = train_som(_thumbs(data), width=2, height=1, epochs=5, seed=0)
        assert np.all(np.isfinite(som.prototypes))
        assert som.feature_std[3] == 1.0


def _unit(som, features) -> tuple:
    """The unit assign_clusters gives one thumbnail on its own."""
    return assign_clusters(som, [Thumbnail(features, "q")])[0].unit


class TestBmuAndClusters:
    def test_bmu_hits_exact_prototype(self):
        rng = np.random.default_rng(10)
        thumbs = _thumbs(rng.standard_normal((30, 8)))
        som = train_som(thumbs, width=3, height=2, epochs=10, lr0=0.4, seed=4)
        for y in range(2):
            for x in range(3):
                raw = som.prototypes[y, x] * som.feature_std + som.feature_mean
                assert _unit(som, raw) == (x, y)

    def test_tie_breaks_to_smallest_row_then_column(self):
        rng = np.random.default_rng(10)
        thumbs = _thumbs(rng.standard_normal((30, 8)))
        som = train_som(thumbs, width=3, height=2, epochs=2, lr0=0.4, seed=4)
        som.prototypes[:] = 0.0  # every unit equally bad
        assert _unit(som, np.ones(8)) == (0, 0)

    def test_bmu_rejects_wrong_dimension(self):
        rng = np.random.default_rng(0)
        som = train_som(_thumbs(rng.standard_normal((10, 4))), width=2, height=1, epochs=2)
        thumbs = [Thumbnail(np.zeros(4), "fits"), Thumbnail(np.zeros(9), "q")]
        with pytest.raises(ConfigMismatchError, match="thumbnail 1 is 9-dim, map wants 4"):
            assign_clusters(som, thumbs)

    def test_clusters_partition_the_corpus(self):
        blob1, blob2 = _two_blobs(seed=5)
        thumbs = _thumbs(np.vstack([blob1, blob2]))
        som = train_som(thumbs, width=2, height=2, epochs=30, lr0=0.5, seed=1)
        clusters = assign_clusters(som, thumbs)
        members = [ref for c in clusters for ref in c.members]
        assert sorted(members) == sorted(t.file_ref for t in thumbs)
        assert len(set(members)) == len(members)

    def test_identical_thumbnails_share_a_cluster(self):
        data = np.tile(np.linspace(0.0, 1.0, 6), (8, 1))
        thumbs = _thumbs(data)
        som = train_som(thumbs, width=2, height=2, epochs=10, seed=0)
        clusters = assign_clusters(som, thumbs)
        assert len(clusters) == 1
        assert len(clusters[0].members) == 8

    def test_cluster_ordering_by_size_then_unit(self):
        blob1, blob2 = _two_blobs(seed=5)
        data = np.vstack([blob1, blob2[:10]])  # 50 vs 10 members
        thumbs = _thumbs(data)
        som = train_som(thumbs, width=2, height=1, epochs=40, lr0=0.5, seed=1)
        clusters = assign_clusters(som, thumbs)
        sizes = [len(c.members) for c in clusters]
        assert sizes == sorted(sizes, reverse=True)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        thumbs = _thumbs(rng.standard_normal((10, 4)))
        som = train_som(thumbs, width=1, height=1, epochs=2, seed=0)
        with pytest.raises(ConfigMismatchError):
            assign_clusters(som, [Thumbnail(np.zeros(7), "bad")])


class TestConcatenate:
    def _loader(self, directory):
        def load(ref):
            return load_wav(directory / ref)

        return load

    def test_members_joined_in_sorted_order(self, tmp_path):
        from latentaudio import save_wav

        for name, freq in (("c.wav", 300.0), ("a.wav", 200.0), ("b.wav", 250.0)):
            save_wav(make_sine(freq=freq, seconds=1.0, rate=8000), tmp_path / name)
        cluster = Cluster(unit=(0, 0), members=("c.wav", "a.wav", "b.wav"))
        with pytest.warns(DurationBandWarning):
            out = concatenate_cluster(cluster, self._loader(tmp_path))
        parts = [load_wav(tmp_path / r) for r in ("a.wav", "b.wav", "c.wav")]
        expected = np.concatenate([p.samples for p in parts])
        assert np.array_equal(out.samples, expected)
        assert out.sample_rate == 8000

    def test_duration_inside_band_is_quiet(self, tmp_path):
        import warnings

        from latentaudio import save_wav

        for name in ("a.wav", "b.wav"):
            save_wav(make_sine(seconds=6.0, rate=8000), tmp_path / name)
        cluster = Cluster(unit=(1, 0), members=("a.wav", "b.wav"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DurationBandWarning)
            out = concatenate_cluster(cluster, self._loader(tmp_path))
        assert out.duration == pytest.approx(12.0)

    def test_mixed_rates_resampled_to_first(self, tmp_path):
        from latentaudio import save_wav

        save_wav(make_sine(seconds=1.0, rate=8000), tmp_path / "a.wav")
        save_wav(make_sine(seconds=1.0, rate=16000), tmp_path / "b.wav")
        cluster = Cluster(unit=(0, 0), members=("a.wav", "b.wav"))
        with pytest.warns(DurationBandWarning):
            out = concatenate_cluster(cluster, self._loader(tmp_path))
        assert out.sample_rate == 8000
        assert len(out) == 16000  # second file shrinks to 8k samples

    def test_single_member_is_identity(self, tmp_path):
        from latentaudio import save_wav

        buf = make_sine(seconds=1.0, rate=8000)
        save_wav(buf, tmp_path / "only.wav")
        cluster = Cluster(unit=(0, 0), members=("only.wav",))
        with pytest.warns(DurationBandWarning):
            out = concatenate_cluster(cluster, self._loader(tmp_path))
        assert np.array_equal(out.samples, buf.samples)

    def test_empty_cluster(self):
        with pytest.raises(ValueError):
            concatenate_cluster(Cluster(unit=(0, 0), members=()), lambda r: None)


class TestGridSizing:
    @pytest.mark.parametrize(
        "n,side",
        [(1, 2), (4, 3), (100, 7), (1000, 13)],
    )
    def test_default_side(self, n, side):
        assert default_grid_side(n) == side


class TestSomPersistence:
    @pytest.fixture()
    def trained(self):
        rng = np.random.default_rng(10)
        thumbs = _thumbs(rng.standard_normal((30, 8)))
        return train_som(thumbs, width=3, height=2, epochs=5, lr0=0.3, seed=4)

    def test_round_trip_bit_exact(self, trained, tmp_path):
        path = tmp_path / "map.som"
        save_som(trained, path)
        loaded = load_som(path)
        assert loaded.width == trained.width and loaded.height == trained.height
        assert np.array_equal(loaded.prototypes, trained.prototypes.astype(np.float32))
        assert np.array_equal(loaded.feature_mean, trained.feature_mean.astype(np.float32))
        assert np.array_equal(loaded.feature_std, trained.feature_std.astype(np.float32))
        assert np.array_equal(loaded.qe_history, trained.qe_history.astype(np.float32))
        assert loaded.epochs == trained.epochs
        assert loaded.lr0 == pytest.approx(trained.lr0)
        assert loaded.seed == trained.seed
        assert loaded.feature_config == trained.feature_config

    def test_numpy_scalar_rates_round_trip(self, tmp_path):
        # a numpy float's repr ("np.float64(0.3)" under numpy 2) does not parse back
        rng = np.random.default_rng(10)
        som = train_som(_thumbs(rng.standard_normal((30, 8))), width=3, height=2, epochs=5,
                        lr0=np.float64(0.3), radius0=np.float32(1.5), seed=4)
        path = tmp_path / "map.som"
        save_som(som, path)
        loaded = load_som(path)
        assert (loaded.lr0, loaded.radius0) == (0.3, 1.5)

    def test_save_load_save_is_byte_identical(self, trained, tmp_path):
        p1, p2 = tmp_path / "one.som", tmp_path / "two.som"
        save_som(trained, p1)
        save_som(load_som(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_library_map_saves_an_empty_key_list(self, trained, tmp_path):
        from latentaudio.container import read_container
        from latentaudio.som import SOM_MAGIC

        path = tmp_path / "map.som"
        save_som(trained, path)
        header, tensors = read_container(path, SOM_MAGIC)
        assert header["thumbnail_keys"] == "" and tensors[4].shape == (0, 8)
        assert load_som(path).thumbnail_rows == {}

    def test_thumbnail_rows_round_trip(self, trained, tmp_path):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((3, 8))
        trained.thumbnail_rows = {(100, 0): rows[0], (7, 2**32 - 1): rows[1], (100, 5): rows[2]}
        p1, p2 = tmp_path / "one.som", tmp_path / "two.som"
        save_som(trained, p1)
        loaded = load_som(p1)
        assert list(loaded.thumbnail_rows) == list(trained.thumbnail_rows)
        assert np.array_equal(np.stack(list(loaded.thumbnail_rows.values())),
                              rows.astype(np.float32))
        save_som(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bmu_agrees_after_round_trip(self, trained, tmp_path):
        path = tmp_path / "map.som"
        save_som(trained, path)
        loaded = load_som(path)
        rng = np.random.default_rng(99)
        for _ in range(10):
            probe = rng.standard_normal(8)
            assert _unit(loaded, probe) == _unit(trained, probe)

    def test_feature_config_survives(self, tmp_path):
        cfg = FeatureConfig(sample_rate=22050, frame_size=1024, hop=512, n_mfcc=10, n_mels=20)
        rng = np.random.default_rng(1)
        thumbs = _thumbs(rng.standard_normal((12, 2 * (10 + 2))))  # 10 MFCCs, centroid, RMS
        som = train_som(thumbs, width=2, height=2, epochs=3, seed=0, feature_config=cfg)
        path = tmp_path / "m.som"
        save_som(som, path)
        assert load_som(path).feature_config == cfg

    @pytest.mark.parametrize("index, bad", [
        (0, lambda t: t[:, :-1]),  # one column short of the header's width
        (0, lambda t: t[0]),  # rank 2
        (1, lambda t: t[:-1]),  # mean shorter than the prototypes' D
        (2, lambda t: np.ones((1, len(t)))),  # std of rank 2
    ], ids=["narrow-grid", "rank-2-prototypes", "short-mean", "rank-2-std"])
    def test_tensor_disagreeing_with_header_detected(self, trained, tmp_path, index, bad):
        from latentaudio import CorruptFileError
        from latentaudio.container import read_container, write_container
        from latentaudio.som import SOM_MAGIC

        path = tmp_path / "map.som"
        save_som(trained, path)
        header, tensors = read_container(path, SOM_MAGIC)
        tensors[index] = np.ascontiguousarray(bad(tensors[index]))
        write_container(path, SOM_MAGIC, header, tensors)
        with pytest.raises(CorruptFileError, match="shape"):
            load_som(path)

    @pytest.mark.parametrize("field, value, message", [
        ("prototypes", np.nan, "non-finite values in prototypes"),
        ("feature_mean", np.inf, "non-finite values in feature mean"),
        ("feature_std", np.inf, "non-finite values in feature std"),
        ("feature_std", 0.0, "values <= 0 in feature std"),
        ("feature_std", -1.0, "values <= 0 in feature std"),
        ("qe_history", np.nan, "non-finite values in qe_history"),
        ("thumbnail_rows", -np.inf, "non-finite values in thumbnail rows"),
    ], ids=["nan-prototype", "inf-mean", "inf-std", "zero-std", "negative-std", "nan-qe",
            "inf-thumbnail"])
    def test_unusable_tensor_detected(self, trained, tmp_path, field, value, message):
        # save_som writes the damage with a valid checksum
        from latentaudio import CorruptFileError

        trained.thumbnail_rows = {(40, 7): np.zeros(8), (41, 9): np.ones(8)}
        tensors = {**vars(trained), "thumbnail_rows": trained.thumbnail_rows[(41, 9)]}
        tensors[field].flat[-1] = value
        path = tmp_path / "map.som"
        save_som(trained, path)
        with pytest.raises(CorruptFileError, match=re.escape(f"{path}: {message}")):
            load_som(path)

    def test_wrong_tensor_count_detected(self, trained, tmp_path):
        from latentaudio import CorruptFileError
        from latentaudio.container import read_container, write_container
        from latentaudio.som import SOM_MAGIC

        path = tmp_path / "map.som"
        save_som(trained, path)
        header, tensors = read_container(path, SOM_MAGIC)
        write_container(path, SOM_MAGIC, header, tensors[:-1])
        with pytest.raises(CorruptFileError, match="expected 5 tensors, found 4"):
            load_som(path)

    def test_corrupt_byte_detected(self, trained, tmp_path):
        from latentaudio import CorruptFileError

        path = tmp_path / "map.som"
        save_som(trained, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFileError):
            load_som(path)
