"""Shared on-disk tensor container.

Layout, all little-endian:

    magic     7 bytes, last byte is the format version
    u32       header byte length
    header    UTF-8 "key=value" lines
    tensor*   u32 rank, u32 dims[rank], float32 payload (row-major)
    u32       CRC32 of every preceding byte

Tensors are parsed until exactly four bytes (the checksum) remain, so the
tensor count is implicit. Readers check, in order: magic prefix, version
byte, checksum. Payloads are always float32 regardless of in-memory dtype.

Config records (the VAE hyperparameters, the feature recipe) are stored
as one header field per dataclass field, keyed prefix + field name, in
field order. The field's default picks the text: an int as written, a
float by repr, a bool as 0 or 1, a tuple of ints comma-joined.
record_header writes them and read_record reads them back; a missing
key, an unparsable value or a value the record rejects is a
CorruptFileError naming the file and the key. TEXT_FORMS holds these
spellings, and the CLI's config files and sidecars use them too.

atomic_write, which write_container uses, is also how every other
artifact of the package (WAVs, sidecars, logs, listings, CSVs) is written.
"""

from __future__ import annotations

import dataclasses
import math
import os
import stat
import struct
import zlib
from contextlib import contextmanager

import numpy as np

from .exceptions import CorruptFileError, FormatVersionMismatchError

MAGIC_LEN = 7
_PREFIX_LEN = MAGIC_LEN + 4  # magic, then the u32 header length


@contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temp file beside path; on a clean exit it replaces path.

    If the body raises, the temp file is removed and whatever was at path
    before stays as it was. A new file gets the mode open() would give it
    (0o666 less the umask); a rewritten one keeps its permission bits, but
    not its owner, group or hard links. Nothing is fsynced. A path that
    exists but is no regular file (/dev/null, a pipe) is written in place:
    renaming over it would replace the device or pipe with a file.
    """
    try:
        old_mode = os.stat(path).st_mode
    except OSError:
        old_mode = None
    if old_mode is not None and not stat.S_ISREG(old_mode):
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if old_mode is not None:
            os.chmod(tmp, stat.S_IMODE(old_mode))
        with open(fd, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def write_container(path, magic: bytes, header: dict, tensors) -> None:
    """Serialize header fields and float32 tensors under the given magic.

    The file is written atomically, streaming each tensor's bytes into the
    file and the running checksum without joining them into one body.
    """
    if len(magic) != MAGIC_LEN:
        raise ValueError(f"magic must be {MAGIC_LEN} bytes, got {len(magic)}")
    header_text = "".join(f"{k}={v}\n" for k, v in header.items())
    header_bytes = header_text.encode("utf-8")
    with atomic_write(path) as fh:
        crc = 0
        for part in _container_parts(magic, header_bytes, tensors):
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def _container_parts(magic: bytes, header_bytes: bytes, tensors):
    yield magic + struct.pack("<I", len(header_bytes)) + header_bytes
    for tensor in tensors:
        arr = np.ascontiguousarray(tensor, dtype="<f4")
        yield struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
        yield arr.reshape(-1).view(np.uint8)


def read_container(path, magic: bytes) -> tuple[dict, list]:
    """Read back (header dict, tensor list); tensors come out float32.

    The file is read once into one byte buffer, placed so that every
    payload starts on a 4-byte boundary; the tensors are writable,
    C-contiguous views of that buffer, which they keep alive.

    Raises:
        CorruptFileError: wrong magic prefix, bad checksum, or truncation.
        FormatVersionMismatchError: right family, unknown version byte.
    """
    raw = _read_aligned(path)
    if len(raw) < MAGIC_LEN or raw[: MAGIC_LEN - 1].tobytes() != magic[: MAGIC_LEN - 1]:
        raise CorruptFileError(f"{path}: magic bytes do not match")
    if raw[MAGIC_LEN - 1] != magic[MAGIC_LEN - 1]:
        raise FormatVersionMismatchError(
            f"{path}: format version {raw[MAGIC_LEN - 1]}, "
            f"expected {magic[MAGIC_LEN - 1]}"
        )
    if len(raw) < MAGIC_LEN + 8:
        raise CorruptFileError(f"{path}: file truncated")
    end = len(raw) - 4
    (stored_crc,) = struct.unpack_from("<I", raw, end)
    if zlib.crc32(raw[:end]) & 0xFFFFFFFF != stored_crc:
        raise CorruptFileError(f"{path}: checksum mismatch")

    (header_len,) = struct.unpack_from("<I", raw, MAGIC_LEN)
    pos = _PREFIX_LEN
    if pos + header_len > end:
        raise CorruptFileError(f"{path}: header overruns file")
    try:
        header_text = raw[pos : pos + header_len].tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"{path}: header is not UTF-8") from exc
    header = {}
    for line in header_text.splitlines():
        if line:
            key, _, value = line.partition("=")
            header[key] = value
    pos += header_len

    tensors = []
    while pos < end:
        if pos + 4 > end:
            raise CorruptFileError(f"{path}: dangling bytes after last tensor")
        (rank,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if pos + 4 * rank > end:
            raise CorruptFileError(f"{path}: tensor shape overruns file")
        shape = struct.unpack_from(f"<{rank}I", raw, pos)
        pos += 4 * rank
        nbytes = 4 * math.prod(shape)
        if pos + nbytes > end:
            raise CorruptFileError(f"{path}: tensor payload overruns file")
        tensors.append(raw[pos : pos + nbytes].view("<f4").reshape(shape))
        pos += nbytes
    return header, tensors


def _read_aligned(path) -> np.ndarray:
    """The file's bytes in a uint8 array placed so payloads are 4-aligned.

    Payloads start at _PREFIX_LEN + header_len + 4k, so the array starts
    -(_PREFIX_LEN + header_len) % 4 bytes into a fresh (16-aligned)
    allocation. The header length comes from the file itself; a file too
    short to hold one keeps offset 0 and fails the caller's size checks.
    """
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX_LEN)
        shift = 0
        if len(prefix) == _PREFIX_LEN:
            (header_len,) = struct.unpack_from("<I", prefix, MAGIC_LEN)
            shift = -(_PREFIX_LEN + header_len) % 4
        raw = np.empty(shift + os.fstat(fh.fileno()).st_size, dtype=np.uint8)[shift:]
        fh.seek(0)
        filled = fh.readinto(raw)
    return raw[:filled]


# the type of a field's default -> (value to text, text to value)
TEXT_FORMS = {
    bool: (lambda v: str(int(v)), lambda t: bool(int(t))),
    int: (str, int),
    float: (lambda v: repr(float(v)), float),
    tuple: (lambda v: ",".join(map(str, v)),
            lambda t: tuple(map(int, t.split(","))) if t.strip() else ()),
}


def record_header(record, prefix: str = "") -> dict:
    """Header fields for a dataclass whose fields all have defaults."""
    return {prefix + f.name: TEXT_FORMS[type(f.default)][0](getattr(record, f.name))
            for f in dataclasses.fields(record)}


def read_value(path, header: dict, key: str, kind: type):
    """header[key] in the text form of kind, one of TEXT_FORMS' types;
    CorruptFileError if it is missing or does not parse."""
    parse = TEXT_FORMS[kind][1]
    if key not in header:
        raise CorruptFileError(f"{path}: header has no {key!r}")
    try:
        return parse(header[key])
    except ValueError as exc:
        raise CorruptFileError(f"{path}: header {key}={header[key]!r}: {exc}") from None


def read_record(path, header: dict, cls, prefix: str = ""):
    """The cls instance record_header(instance, prefix) wrote, every field
    through read_value. A value cls rejects is a CorruptFileError naming the
    keys cls rejects on top of its defaults, or all its keys if none alone."""
    values = {f.name: read_value(path, header, prefix + f.name, type(f.default))
              for f in dataclasses.fields(cls)}
    try:
        return cls(**values)
    except ValueError as exc:
        keys = [k for k, v in values.items() if _rejects(cls, k, v)] or list(values)
        raise CorruptFileError(
            f"{path}: header {', '.join(prefix + k for k in keys)}: {exc}"
        ) from None


def _rejects(cls, name: str, value) -> bool:
    try:
        cls(**{name: value})
    except ValueError:
        return True
    return False
