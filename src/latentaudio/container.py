"""Shared on-disk tensor container.

Layout, all little-endian:

    magic     7 bytes, last byte is the format version
    u32       header byte length
    header    UTF-8 "key=value" lines
    tensor*   u32 rank, u32 dims[rank], float32 payload (row-major)
    u32       CRC32 of every preceding byte

Tensors are parsed until exactly four bytes (the checksum) remain, so the
tensor count is implicit. Payloads are always float32 regardless of
in-memory dtype. The reader makes one pass over the file and reads each
payload into its own array, so a caller that keeps some tensors keeps
only their bytes. It checks, in order: magic prefix, version byte,
checksum, structure.

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
    renaming over it would replace the device or pipe with a file. If the
    temp file cannot be made, the OSError (same errno, so same subclass)
    names path.
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
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the caller's path, not the temp file's
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
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

    One pass over the open file: each payload is read straight into its
    own writable, C-contiguous float32 array, and every byte is folded into
    a running CRC32. Each size check runs against the file's size before
    the array it guards is allocated, so a forged shape allocates nothing
    the file does not hold. A structural fault found part way is raised
    only after the rest of the body has been read and its checksum
    checked, so the checks keep their order: magic prefix, version byte,
    checksum, structure.

    Raises:
        CorruptFileError: not a regular file, wrong magic prefix, bad
            checksum, truncation, or a tensor shape numpy cannot hold.
        FormatVersionMismatchError: right family, unknown version byte.
    """
    # before the open, which would block on a FIFO with no writer
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise CorruptFileError(f"{path}: not a regular file")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(_PREFIX_LEN)
        if len(prefix) < MAGIC_LEN or prefix[: MAGIC_LEN - 1] != magic[: MAGIC_LEN - 1]:
            raise CorruptFileError(f"{path}: magic bytes do not match")
        if prefix[MAGIC_LEN - 1] != magic[MAGIC_LEN - 1]:
            raise FormatVersionMismatchError(
                f"{path}: format version {prefix[MAGIC_LEN - 1]}, "
                f"expected {magic[MAGIC_LEN - 1]}"
            )
        if size < MAGIC_LEN + 8:
            raise CorruptFileError(f"{path}: file truncated")
        body = _Body(fh, path, prefix, end=size - 4)
        fault = None
        try:
            header, tensors = _parse_body(body, struct.unpack_from("<I", prefix, MAGIC_LEN)[0])
        except _Malformed as exc:
            fault = exc
            body.skip_rest()
        stored_crc = fh.read(4)
        if len(stored_crc) < 4:
            raise CorruptFileError(f"{path}: file truncated")
    if body.crc != struct.unpack("<I", stored_crc)[0]:
        raise CorruptFileError(f"{path}: checksum mismatch")
    if fault is not None:
        raise CorruptFileError(f"{path}: {fault}")
    return header, tensors


class _Malformed(Exception):
    """A structural fault; read_container raises it once the checksum holds."""


class _Body:
    """A container's bytes up to its checksum at offset end, read in order
    and folded into a running CRC32."""

    _SKIP = 1 << 16  # bytes per read when skipping the rest

    def __init__(self, fh, path, prefix: bytes, end: int):
        self.fh, self.path, self.end = fh, path, end
        self.pos = len(prefix)
        self.crc = zlib.crc32(prefix)

    def need(self, n: int, what: str) -> None:
        """_Malformed(what) unless n more bytes lie before the checksum."""
        if self.pos + n > self.end:
            raise _Malformed(what)

    def read(self, n: int, what: str) -> bytes:
        self.need(n, what)
        data = self.fh.read(n)
        self._fold(data, n)
        return data

    def read_into(self, out: np.ndarray) -> None:
        """Fill out's bytes; the caller has checked that they fit with need."""
        view = out.reshape(-1).view(np.uint8)
        self._fold(view[: self.fh.readinto(view)], len(view))

    def skip_rest(self) -> None:
        while self.pos < self.end:
            self.read(min(self._SKIP, self.end - self.pos), "")

    def _fold(self, data, n: int) -> None:
        if len(data) < n:  # the file shrank since its size was taken
            raise CorruptFileError(f"{self.path}: file truncated")
        self.crc = zlib.crc32(data, self.crc)
        self.pos += n


def _parse_body(body: _Body, header_len: int) -> tuple[dict, list]:
    try:
        header_text = body.read(header_len, "header overruns file").decode("utf-8")
    except UnicodeDecodeError:
        raise _Malformed("header is not UTF-8") from None
    header = {}
    for line in header_text.splitlines():
        if line:
            key, _, value = line.partition("=")
            header[key] = value

    tensors = []
    while body.pos < body.end:
        (rank,) = struct.unpack("<I", body.read(4, "dangling bytes after last tensor"))
        shape = struct.unpack(f"<{rank}I", body.read(4 * rank, "tensor shape overruns file"))
        body.need(4 * math.prod(shape), "tensor payload overruns file")
        try:  # a zero dim fits any other dims in the file, but numpy may not hold them
            tensor = np.empty(shape, dtype="<f4")
        except ValueError as exc:
            raise _Malformed(f"tensor shape {shape}: {exc}") from None
        body.read_into(tensor)
        tensors.append(tensor)
    return header, tensors


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
