import os
import stat
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentaudio import (
    CorruptFileError,
    FeatureConfig,
    FormatVersionMismatchError,
    VaeHyperParams,
)
from latentaudio.container import (
    MAGIC_LEN,
    atomic_write,
    read_container,
    read_record,
    record_header,
    write_container,
)

MAGIC = b"RTEST\x00\x01"


def _sample_tensors():
    rng = np.random.default_rng(3)
    return [
        rng.standard_normal((3, 4)).astype(np.float32),
        rng.standard_normal(7).astype(np.float32),
        np.zeros((2, 2, 2), dtype=np.float32),
    ]


def test_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    header = {"alpha": "0.0001", "note": "k=v with equals"}
    tensors = _sample_tensors()
    write_container(path, MAGIC, header, tensors)
    back_header, back_tensors = read_container(path, MAGIC)
    assert back_header == header
    assert len(back_tensors) == len(tensors)
    for a, b in zip(tensors, back_tensors):
        assert a.shape == b.shape
        assert b.dtype == np.float32
        assert np.array_equal(a, b)


def test_no_tensors(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"k": "v"}, [])
    header, tensors = read_container(path, MAGIC)
    assert header == {"k": "v"}
    assert tensors == []


def test_float64_input_stored_as_float32(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {}, [np.array([0.1, 0.2], dtype=np.float64)])
    _, tensors = read_container(path, MAGIC)
    assert tensors[0].dtype == np.float32
    assert np.array_equal(tensors[0], np.array([0.1, 0.2], dtype=np.float32))


def test_wrong_magic(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {}, [])
    with pytest.raises(CorruptFileError):
        read_container(path, b"ROTHR\x00\x01")


def test_version_mismatch(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, b"RTEST\x00\x02", {}, [])
    with pytest.raises(FormatVersionMismatchError):
        read_container(path, MAGIC)


def test_flipped_byte_fails_checksum(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"k": "v"}, _sample_tensors())
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError):
        read_container(path, MAGIC)


def test_truncated_file(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"k": "v"}, _sample_tensors())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(CorruptFileError):
        read_container(path, MAGIC)


def test_bad_magic_wins_over_bad_checksum(tmp_path):
    # magic is checked before the checksum, so a foreign file reports as such
    path = tmp_path / "c.bin"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(CorruptFileError, match="magic"):
        read_container(path, MAGIC)


def _valid_container(tmp_path, header_text="k=v"):
    path = tmp_path / "valid.bin"
    write_container(path, MAGIC, {"h": header_text}, _sample_tensors())
    return path.read_bytes()


# hypothesis reuses tmp_path across examples; each example overwrites one file
_FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FUZZ
@given(data=st.data())
def test_any_truncation_is_a_container_error(tmp_path, data):
    raw = _valid_container(tmp_path)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = tmp_path / "cut.bin"
    path.write_bytes(raw[:cut])
    with pytest.raises((CorruptFileError, FormatVersionMismatchError)):
        read_container(path, MAGIC)


@_FUZZ
@given(data=st.data(), header_text=st.text(max_size=9))
def test_any_byte_flip_is_a_container_error(tmp_path, data, header_text):
    raw = bytearray(_valid_container(tmp_path, header_text))
    pos = data.draw(st.integers(0, len(raw) - 1))
    raw[pos] ^= data.draw(st.integers(1, 255))
    path = tmp_path / "flipped.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises((CorruptFileError, FormatVersionMismatchError)):
        read_container(path, MAGIC)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


@pytest.mark.parametrize(
    "body",
    [
        MAGIC + struct.pack("<I", 2) + b"\xff\xfe",  # header not UTF-8
        MAGIC + struct.pack("<I", 0xFFFFFFFF),  # header longer than the file
        MAGIC + struct.pack("<I", 0) + struct.pack("<4I", 3, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
        MAGIC + struct.pack("<I", 0) + struct.pack("<I", 0xFFFFFFFF),  # rank overruns
        MAGIC + struct.pack("<I", 0) + b"\x01\x00",  # dangling bytes
        # zero elements, so no payload, in shapes numpy cannot hold: too big, rank 65
        MAGIC + struct.pack("<I", 0) + struct.pack("<4I", 3, 0, 0xFFFFFFFF, 0xFFFFFFFF),
        MAGIC + struct.pack("<I", 0) + struct.pack("<66I", 65, 0, *[1] * 64),
    ],
)
def test_checksummed_nonsense_is_a_corrupt_file(tmp_path, body):
    path = tmp_path / "c.bin"
    path.write_bytes(_with_crc(body))
    with pytest.raises(CorruptFileError):
        read_container(path, MAGIC)


@pytest.mark.parametrize("header_len", [4, 5, 6, 7])
def test_tensors_are_aligned_writable_views(tmp_path, header_len):
    path = tmp_path / "c.bin"
    # header text "k=" + value + newline, header_len bytes in all
    write_container(path, MAGIC, {"k": "x" * (header_len - 3)}, _sample_tensors())
    (stored_len,) = struct.unpack_from("<I", path.read_bytes(), 7)
    assert stored_len == header_len
    _, tensors = read_container(path, MAGIC)
    for got, want in zip(tensors, _sample_tensors()):
        assert got.flags.writeable and got.flags.c_contiguous and got.flags.aligned
        assert got.ctypes.data % 4 == 0
        assert np.array_equal(got, want)
    tensors[0][0, 0] = 42.0  # each tensor is its own array, writable
    assert tensors[0][0, 0] == 42.0


def _first_tensor_offset(raw: bytes) -> int:
    (header_len,) = struct.unpack_from("<I", raw, MAGIC_LEN)
    return MAGIC_LEN + 4 + header_len


# offsets from the first tensor's rank field; a flip there breaks the structure
# (rank and shape overrun, payloads shift) as well as the checksum
@pytest.mark.parametrize("offset, value", [
    (0, 0xFF), (0, 0x01), (3, 0x80), (4, 0xFF), (7, 0x40), (8, 0x05),
], ids=["rank-low", "rank-bit", "rank-high", "dim0-low", "dim0-high", "dim1"])
def test_flipped_rank_or_shape_byte_is_a_checksum_mismatch(tmp_path, offset, value):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"k": "v"}, _sample_tensors())
    raw = bytearray(path.read_bytes())
    raw[_first_tensor_offset(raw) + offset] ^= value
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptFileError, match="checksum mismatch"):
        read_container(path, MAGIC)


def test_forged_shape_allocates_nothing_the_file_does_not_hold(tmp_path):
    # checksummed, so the reader gets past the checksum to the structure: a
    # 2**30-element (4 GiB) tensor claimed by a 1 MiB file
    payload = np.random.default_rng(0).bytes(1 << 20)
    path = tmp_path / "c.bin"
    path.write_bytes(_with_crc(MAGIC + struct.pack("<I", 0) + struct.pack("<2I", 1, 1 << 30)
                               + payload))
    size = os.path.getsize(path)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFileError, match="tensor payload overruns file"):
            read_container(path, MAGIC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size, (peak, size)


def test_structural_fault_behind_a_bad_checksum_reports_the_checksum(tmp_path):
    path = tmp_path / "c.bin"
    body = MAGIC + struct.pack("<I", 0) + struct.pack("<I", 0xFFFFFFFF)  # rank overruns
    path.write_bytes(body + struct.pack("<I", (zlib.crc32(body) ^ 1) & 0xFFFFFFFF))
    with pytest.raises(CorruptFileError, match="checksum mismatch"):
        read_container(path, MAGIC)


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_path_that_is_not_a_regular_file_is_a_corrupt_file(tmp_path, kind):
    path = tmp_path / "m.ckpt"
    if kind == "fifo":
        os.mkfifo(path)
    else:
        path.mkdir()
    got = []

    def read():  # a FIFO with no writer would block an open()
        try:
            read_container(path, MAGIC)
        except CorruptFileError as exc:
            got.append(str(exc))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive(), "read_container blocked"
    assert got == [f"{path}: not a regular file"]


class _Boom(Exception):
    pass


def test_atomic_write_keeps_old_file_on_error(tmp_path):
    path = tmp_path / "artifact.txt"
    path.write_text("old")
    with pytest.raises(_Boom):
        with atomic_write(path, "w") as fh:
            fh.write("new, half written")
            raise _Boom
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["artifact.txt"]


def test_atomic_write_replaces_on_success(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")
    with atomic_write(path) as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_atomic_write_uses_the_umask_mode(tmp_path):
    plain, atomic = tmp_path / "plain", tmp_path / "atomic"
    plain.write_bytes(b"x")
    with atomic_write(atomic) as fh:
        fh.write(b"x")
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o604], ids=oct)
def test_atomic_rewrite_keeps_the_targets_mode(tmp_path, mode):
    path = tmp_path / "private.bin"
    path.write_bytes(b"old")
    os.chmod(path, mode)
    with atomic_write(path) as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    write_container(path, MAGIC, {"k": "v"}, _sample_tensors())
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert os.listdir(tmp_path) == ["private.bin"]


def test_atomic_write_writes_through_a_pipe(tmp_path):
    # renaming over a pipe (or /dev/null) would replace it with a plain file
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    with atomic_write(fifo) as fh:
        fh.write(b"through")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"through"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_atomic_write_into_a_missing_directory_names_the_target(tmp_path):
    # the temp file cannot be made: the error names the path asked for, not the temp file
    path = tmp_path / "missing" / "artifact.bin"
    with pytest.raises(FileNotFoundError) as info:
        with atomic_write(path) as fh:
            fh.write(b"never")
    assert info.value.filename == str(path)
    assert os.listdir(tmp_path) == []


def test_failed_container_write_keeps_previous_container(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, MAGIC, {"k": "v"}, _sample_tensors())
    before = path.read_bytes()
    # the second tensor cannot be converted, after the first is written
    with pytest.raises(ValueError):
        write_container(path, MAGIC, {"k": "w"}, [np.ones(3), "not a tensor"])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["c.bin"]


def _header_text(path) -> str:
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, MAGIC_LEN)
    return raw[MAGIC_LEN + 4 : MAGIC_LEN + 4 + length].decode("utf-8")


@pytest.mark.parametrize("record, prefix, text", [
    (VaeHyperParams(), "",
     "window_size=1024\nlatent_dim=256\nhidden_sizes=512\nalpha=0.0001\n"
     "learning_rate=0.0001\nepochs=500\nbatch_size=128\nsample_rate=44100\nseed=0\n"),
    (VaeHyperParams(hidden_sizes=(64, 32, 16), alpha=1e-05, learning_rate=0.1 + 0.2), "",
     "window_size=1024\nlatent_dim=256\nhidden_sizes=64,32,16\nalpha=1e-05\n"
     "learning_rate=0.30000000000000004\nepochs=500\nbatch_size=128\nsample_rate=44100\n"
     "seed=0\n"),
    (VaeHyperParams(hidden_sizes=()), "", "window_size=1024\nlatent_dim=256\nhidden_sizes=\n"
     "alpha=0.0001\nlearning_rate=0.0001\nepochs=500\nbatch_size=128\nsample_rate=44100\n"
     "seed=0\n"),
    (FeatureConfig(), "feat_",
     "feat_sample_rate=44100\nfeat_frame_size=2048\nfeat_hop=1024\nfeat_n_mfcc=13\n"
     "feat_n_mels=26\nfeat_centroid=1\nfeat_rms=1\n"),
    (FeatureConfig(centroid=False), "feat_",
     "feat_sample_rate=44100\nfeat_frame_size=2048\nfeat_hop=1024\nfeat_n_mfcc=13\n"
     "feat_n_mels=26\nfeat_centroid=0\nfeat_rms=1\n"),
], ids=["vae-default", "vae-three-hidden", "vae-no-hidden", "features-default", "no-centroid"])
def test_record_header_text_is_pinned_and_reads_back(tmp_path, record, prefix, text):
    path = tmp_path / "r.bin"
    write_container(path, MAGIC, record_header(record, prefix), [])
    assert _header_text(path) == text
    header, _ = read_container(path, MAGIC)
    assert read_record(path, header, type(record), prefix) == record


def _feature_header(**changes) -> dict:
    header = record_header(FeatureConfig(sample_rate=8000, frame_size=512, hop=256), "feat_")
    header.update(changes)
    return header


@pytest.mark.parametrize("changes, message", [
    ({"feat_hop": "abc"}, "r.bin: header feat_hop='abc': invalid literal"),
    ({"feat_hop": ""}, "r.bin: header feat_hop='': invalid literal"),
    ({"feat_rms": "yes"}, "r.bin: header feat_rms='yes'"),
    ({"feat_hop": "0"}, "r.bin: header feat_hop: frame_size must be >= 2 and hop >= 1"),
    ({"feat_frame_size": "1", "feat_hop": "0"},
     "r.bin: header feat_frame_size, feat_hop: frame_size must be"),
    # each value passes on its own, only the pair is rejected: every key is named
    ({"feat_n_mfcc": "20", "feat_n_mels": "15"},
     "r.bin: header feat_sample_rate, feat_frame_size, feat_hop, feat_n_mfcc, feat_n_mels, "
     "feat_centroid, feat_rms: need 0 < n_mfcc <= n_mels"),
], ids=["unparsable", "empty", "bool-word", "rejected", "two-rejected", "rejected-pair"])
def test_bad_record_value_is_a_corrupt_file(tmp_path, changes, message):
    with pytest.raises(CorruptFileError) as info:
        read_record(tmp_path / "r.bin", _feature_header(**changes), FeatureConfig, "feat_")
    assert message in str(info.value)


def test_missing_record_key_is_a_corrupt_file(tmp_path):
    header = _feature_header()
    del header["feat_n_mels"]
    with pytest.raises(CorruptFileError, match="r.bin: header has no 'feat_n_mels'"):
        read_record(tmp_path / "r.bin", header, FeatureConfig, "feat_")
