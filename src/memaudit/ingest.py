"""Readers and writers for the toolkit's bit-exact on-disk formats.

Four formats, all little-endian:

  PGM   binary "P5" grayscale, maxval <= 255; one single-channel image.
  IVC1  multi-entry image/volume container:
          magic "IVC1" | u32 entry count | entries...
        entry: u16 id length | id bytes (UTF-8) | u8 ndims (3 or 4) |
               ndims x u32 dims (C,[D,]H,W) | u8 dtype (0=u8, 1=f32) |
               payload (channel-major) | u32 CRC-32 of payload
        (CRC-32: reflected polynomial 0xEDB88320, i.e. zlib's crc32.)
        write_ivc stores an entry as u8 when every value is an exact
        integer in [0, 255], else as f32.
  EMB1  embedding / probability matrix:
          magic "EMB1" | u32 N | u32 dim | N*dim f32 row-major
        optional sidecar "<stem>.ids" with one id per line.
  Manifest  UTF-8 text: "name = ..." / "role = ..." header lines, then one
        path per line relative to the manifest; '#' starts a comment.

Readers reject rather than repair: wrong magic, truncated payloads,
checksum mismatches, PGM bytes above maxval and oversized files all raise
FormatError naming the byte offset. Each image format has one header scan
(`_scan_pgm`, `_scan_ivc`) that turns a file into entries (id, dims,
dtype, payload offset; a PGM file is one u8 entry with its maxval and no
checksum) without reading a payload byte, and all formats share one
payload reader: `_payload_chunk` reads and checks a run of payload
bytes and `_check_crc` the checksum, whole entries at once in
`_entry_values` or a panel of channels at a time, with a running CRC-32,
in `DatasetFile.read_panels`. A manifest's set has one reader, the
`read_rows` of its `open_dataset` / `open_embedding_set` handle (for
images, the one-panel case of `read_panels`);
`load_dataset` / `load_embedding_set` are that plus a read of every row,
and `read_embeddings` is `load_embedding_set` of a one-file manifest.
Every set, in memory or file-backed, has a `shape`, (C, H, W) for images
or (1, dim) for embeddings, and `read_rows(i0, i1, out, channels)`, which
fills out (i1 - i0, len(channels), H*W or dim) with rows i0..i1-1.
Every writer goes through `atomic_write`, so an output file is either its
previous version or the complete new one, never a prefix. An `OutputSet`
reserves a temp file for each of a command's outputs before its work;
the writers fill them, and all are renamed together, or none.
"""

from __future__ import annotations

import errno
import os
import struct
import threading
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import ROLES, Dataset, ImageRecord, VolumeRecord, copy_channels, exhaust
from .errors import (
    EmptyInputError,
    FormatError,
    InvalidArgumentError,
    ManifestError,
    UnsupportedVersionError,
)

MAX_DIM_PRODUCT = 1 << 40  # refuse absurd headers before allocating

IVC_DTYPE_U8 = 0
IVC_DTYPE_F32 = 1
_DTYPES = {IVC_DTYPE_U8: np.uint8, IVC_DTYPE_F32: np.dtype("<f4")}


@contextmanager
def _naming(name: str, tmp: Path):
    """An OS error of tmp, or of no file (say, a full disk), names name,
    the path asked for; one of another file keeps its own name."""
    try:
        yield
    except OSError as exc:
        if exc.errno is None or exc.filename not in (None, str(tmp)):
            raise
        raise type(exc)(exc.errno, exc.strerror, name) from exc


_OPEN_SET: ContextVar[Optional["OutputSet"]] = ContextVar("output_set", default=None)


class OutputSet:
    """A command's outputs, committed together: ``with OutputSet((what,
    path), ...)`` (a None path is no output). Entering reserves a temp file
    next to each before any work; an empty path (named by what, say its
    flag), two outputs at one file, a directory at the path or a temp file
    that cannot be made (say, in a missing directory) raise, naming the
    path as given. In the block, atomic_write of a reserved path fills its
    temp file; leaving it renames each written temp file onto its path in
    order, or on an error removes them all, so every output is as it was."""

    def __init__(self, *outputs):
        self._outputs = [(what, os.fspath(path)) for what, path in outputs if path is not None]
        self._temps: dict[str, tuple[str, str, Path]] = {}  # realpath: (what, path, temp)
        self._written: set[str] = set()

    def __enter__(self) -> "OutputSet":
        self._token = _OPEN_SET.set(self)
        try:
            for what, name in self._outputs:
                if not name:  # Path("") is the current directory
                    raise InvalidArgumentError(f"{what}: the path is empty")
                key = os.path.realpath(name)
                if key in self._temps:
                    first, given, _ = self._temps[key]
                    raise InvalidArgumentError(f"{first} {given!r} and {what} {name!r} name one file")
                if os.path.isdir(name):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), name)
                tmp = Path(name).with_name(f".{Path(name).name}.{os.urandom(4).hex()}.tmp")
                with _naming(name, tmp):
                    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                self._temps[key] = (what, name, tmp)
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _OPEN_SET.reset(self._token)
        try:
            for key, (_, name, tmp) in self._temps.items():
                if exc_type is None and key in self._written:
                    with _naming(name, tmp):
                        os.replace(tmp, name)
        finally:
            for _, _, tmp in self._temps.values():
                tmp.unlink(missing_ok=True)  # gone once renamed

    def _fill(self, key: str, chunks: Iterable[bytes]) -> None:
        _, name, tmp = self._temps[key]
        self._written.discard(key)  # until the whole of data is in
        with _naming(name, tmp), os.fdopen(os.open(tmp, os.O_WRONLY | os.O_TRUNC), "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        self._written.add(key)


def atomic_write(path, data: Union[bytes, Iterable[bytes]]) -> None:
    """Write ``data`` (bytes-like, or an iterable of bytes-like chunks
    written in order) to ``path`` as a one-output OutputSet; or, when the
    innermost open set reserved ``path``, to its temp file, committed with
    that set. A failure, including one raised while the chunks are made,
    leaves no temp file; an OS error in writing or renaming names
    ``path``, one of another file (say, a chunk producer's read) its own."""
    chunks = [data] if isinstance(data, (bytes, bytearray, memoryview)) else data
    key, outputs = os.path.realpath(path), _OPEN_SET.get()
    if outputs is not None and key in outputs._temps:
        outputs._fill(key, chunks)
        return
    with OutputSet(("output path", path)) as outputs:
        outputs._fill(key, chunks)


# ---------------------------------------------------------------------------
# Entries: one header scan per format, one payload reader
# ---------------------------------------------------------------------------


class _Cursor:
    """Bounds-checked reads from a binary stream of known size; reading
    or skipping past the end raises FormatError naming the offset."""

    def __init__(self, stream, size: int, path: Path):
        self.stream = stream
        self.size = size
        self.pos = 0
        self.path = path

    def _need(self, n: int, what: str, found: int) -> None:
        if found < n:
            raise FormatError(
                f"{self.path}: truncated {what} at offset {self.pos}: "
                f"need {n} bytes, found {found}"
            )

    def take(self, n: int, what: str) -> bytes:
        self._need(n, what, self.size - self.pos)
        out = self.stream.read(n)
        self._need(n, what, len(out))  # the file shrank since it was sized
        self.pos += n
        return out

    def take_into(self, out: bytearray, n: int, what: str) -> memoryview:
        """The next n bytes, read into the front of out (no allocation)."""
        self._need(n, what, self.size - self.pos)
        view = memoryview(out)[:n]
        self._need(n, what, self.stream.readinto(view))  # the file shrank since it was sized
        self.pos += n
        return view

    def skip(self, n: int, what: str) -> None:
        self._need(n, what, self.size - self.pos)
        self.pos += n
        self.stream.seek(self.pos)

    def seek(self, pos: int) -> None:
        self.pos = pos
        self.stream.seek(pos)

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


@contextmanager
def _file_cursor(file: Path):
    """A cursor over an open file, closed on exit."""
    with open(file, "rb") as handle:
        yield _Cursor(handle, os.fstat(handle.fileno()).st_size, file)


@dataclass(frozen=True)
class _Entry:
    """Header of one image or volume in a file (an IVC1 entry or a whole
    PGM file) and where its payload sits."""

    index: int
    id: str
    dims: tuple[int, ...]
    dtype: int
    offset: int  # first payload byte
    size: int  # payload bytes
    maxval: Optional[int] = None  # a PGM file's; None: a CRC-32 follows the payload


def _payload_chunk(
    cur: _Cursor, entry: _Entry, into: bytearray, start: int, stop: int
) -> tuple[memoryview, Optional[FormatError]]:
    """Payload bytes start..stop-1 of entry, read into the front of into,
    and the error their values raise (non-finite f32 values, a PGM byte
    above maxval), or None. A short read raises; from start 0, with the
    message of a whole-payload read."""
    what = f"entry {entry.index}"
    cur.seek(entry.offset + start)
    if start == 0:  # the whole payload must be there
        cur._need(entry.size, f"{what} payload", cur.size - cur.pos)
    chunk = cur.take_into(into, stop - start, f"{what} payload")
    if entry.dtype == IVC_DTYPE_U8:
        if entry.maxval is not None:
            values = np.frombuffer(chunk, dtype=np.uint8)
            if values.max() > entry.maxval:
                at = int(np.argmax(values > entry.maxval))
                return chunk, FormatError(
                    f"{cur.path}: byte {values[at]} at offset {entry.offset + start + at} "
                    f"exceeds maxval {entry.maxval}"
                )
    elif not np.isfinite(np.frombuffer(chunk, dtype="<f4")).all():
        return chunk, FormatError(
            f"{cur.path}: {what} ({entry.id!r}): non-finite payload values"
        )
    return chunk, None


def _check_crc(cur: _Cursor, entry: _Entry, crc: int) -> None:
    """Read entry's stored CRC-32 (IVC1; a PGM entry has none) and raise
    unless it is crc, the running CRC-32 of its whole payload."""
    if entry.maxval is not None:
        return
    what = f"entry {entry.index}"
    cur.seek(entry.offset + entry.size)
    stored_crc = cur.u32(f"{what} checksum")
    if stored_crc != crc & 0xFFFFFFFF:
        raise FormatError(
            f"{cur.path}: {what} ({entry.id!r}): checksum mismatch: "
            f"stored {stored_crc:#010x}, computed {crc & 0xFFFFFFFF:#010x}"
        )


def _entry_values(cur: _Cursor, entry: _Entry, into: bytearray) -> np.ndarray:
    """One entry's payload (u8 or f32, flat), after its CRC-32 (IVC1),
    maxval (PGM) and finiteness checks: a view of into (at least
    entry.size bytes): the whole-entry read whose faults
    DatasetFile.read_panels raises in the same order."""
    payload, fault = _payload_chunk(cur, entry, into, 0, entry.size)
    _check_crc(cur, entry, zlib.crc32(payload))
    if fault is not None:
        raise fault
    return np.frombuffer(payload, dtype=_DTYPES[entry.dtype])


def _read_records(fmt: str, path: Path) -> list[Union[ImageRecord, VolumeRecord]]:
    """Every record of one PGM or IVC1 file, in file order: the header
    scan, then each payload read and checked."""
    records: list[Union[ImageRecord, VolumeRecord]] = []
    with _file_cursor(path) as cur:
        for entry in _SCANNERS[fmt](cur):
            values = _entry_values(cur, entry, bytearray(entry.size))
            values = values.astype(np.float32, copy=False)
            kind = ImageRecord if len(entry.dims) == 3 else VolumeRecord
            records.append(kind(entry.id, *entry.dims, values))
    return records


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------


def read_pgm(path) -> ImageRecord:
    """Read a binary PGM ("P5") file as a single-channel image.

    Pixel values come back as reals 0-255; the record id is the file stem.
    """
    return _read_records("pgm", Path(path))[0]


def _scan_pgm(cur: _Cursor) -> list[_Entry]:
    """A PGM file's one image, from its header: dims (1, H, W), a u8
    payload of bytes at most maxval, without checksum. Reads the header
    bytes only; truncation and trailing bytes are found from the file
    size."""
    path, read = cur.path, cur.stream.read
    pos, byte = 0, read(1)  # byte is the one at pos, b"" past the end

    def token(what: str) -> bytes:
        """The next token, after whitespace and '#' comments; stops at
        the whitespace byte that ends it."""
        nonlocal pos, byte
        text, comment = bytearray(), False
        while byte and not (text and byte.isspace()):
            comment = (byte == b"#" and not text) or (comment and byte != b"\n")
            if not (comment or byte.isspace()):
                text += byte
            pos, byte = pos + 1, read(1)
        if not text:
            raise FormatError(f"{path}: missing {what} at offset {pos}")
        return bytes(text)

    magic = token("magic")
    if magic != b"P5":
        detail = " (ASCII PGM unsupported)" if magic in (b"P2", b"P1") else ""
        raise FormatError(
            f"{path}: expected magic 'P5' at offset 0, got {magic!r}{detail}"
        )

    dims = {}
    for name in ("width", "height", "maxval"):
        text = token(name)
        offset = pos - len(text)
        try:
            dims[name] = int(text)
        except ValueError:
            raise FormatError(
                f"{path}: non-numeric {name} {text!r} at offset {offset}"
            ) from None
        if dims[name] <= 0:
            raise FormatError(f"{path}: {name} must be positive at offset {offset}")
    if dims["maxval"] > 255:
        raise FormatError(
            f"{path}: maxval {dims['maxval']} at offset {offset} "
            "exceeds 255 (16-bit PGM unsupported)"
        )

    # Exactly one whitespace byte separates the header from the payload.
    if not byte.isspace():
        raise FormatError(f"{path}: missing header terminator at offset {pos}")
    pos += 1

    expected = dims["width"] * dims["height"]
    got = cur.size - pos
    if got < expected:
        raise FormatError(
            f"{path}: truncated payload at offset {pos}: "
            f"need {expected} bytes, found {got}"
        )
    if got > expected:
        raise FormatError(
            f"{path}: {got - expected} trailing bytes after offset {pos + expected}"
        )
    shape = (1, dims["height"], dims["width"])
    return [_Entry(0, path.stem, shape, IVC_DTYPE_U8, pos, expected, dims["maxval"])]


def write_pgm(img: ImageRecord, path) -> None:
    """Write a single-channel image whose pixels are exact integers 0-255 by
    _entry_payload's one 8-bit test; a near-integer is refused, not rounded."""
    if img.channels != 1:
        raise InvalidArgumentError(
            f"PGM holds one channel; image {img.id!r} has {img.channels}"
        )
    code, payload = _entry_payload(img.pixels)
    if code != IVC_DTYPE_U8:
        raise InvalidArgumentError(
            f"image {img.id!r}: PGM requires integer pixels in [0, 255]"
        )
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    atomic_write(path, (header, payload))


# ---------------------------------------------------------------------------
# IVC1 container
# ---------------------------------------------------------------------------


def _scan_ivc(cur: _Cursor) -> list[_Entry]:
    """Parse every entry header, skipping payloads and checksums; rejects
    bad magic and version, bad headers, truncation and trailing bytes."""
    path = cur.path
    magic = cur.take(4, "magic")
    if magic != b"IVC1":
        if magic[:3] == b"IVC":
            raise UnsupportedVersionError(
                f"{path}: unsupported container version {magic!r}"
            )
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")

    count = cur.u32("entry count")
    entries: list[_Entry] = []
    for i in range(count):
        what = f"entry {i}"
        id_len = cur.u16(f"{what} id length")
        entry_id = cur.take(id_len, f"{what} id").decode("utf-8")
        ndims = cur.u8(f"{what} ndims")
        if ndims not in (3, 4):
            raise FormatError(
                f"{path}: {what}: ndims must be 3 or 4, got {ndims} "
                f"at offset {cur.pos - 1}"
            )
        dims = [cur.u32(f"{what} dim {d}") for d in range(ndims)]
        n_values = 1
        for d in dims:
            if d == 0:
                raise FormatError(f"{path}: {what}: zero dimension {dims}")
            n_values *= d
        if n_values > MAX_DIM_PRODUCT:
            raise FormatError(
                f"{path}: {what}: dimension overflow, product {n_values} > 2^40"
            )
        dtype = cur.u8(f"{what} dtype")
        if dtype not in (IVC_DTYPE_U8, IVC_DTYPE_F32):
            raise FormatError(
                f"{path}: {what}: unknown dtype code {dtype} at offset {cur.pos - 1}"
            )
        size = n_values if dtype == IVC_DTYPE_U8 else 4 * n_values
        entries.append(_Entry(i, entry_id, tuple(dims), dtype, cur.pos, size))
        cur.skip(size, f"{what} payload")
        cur.skip(4, f"{what} checksum")
    if cur.pos != cur.size:
        raise FormatError(
            f"{path}: {cur.size - cur.pos} trailing bytes after offset {cur.pos}"
        )
    return entries


def read_ivc(path) -> list[Union[ImageRecord, VolumeRecord]]:
    """Decode an IVC1 container into image and volume records (file order)."""
    return _read_records("ivc", Path(path))


_SCANNERS = {"pgm": _scan_pgm, "ivc": _scan_ivc}


def _raw_bytes(values: np.ndarray, dtype) -> memoryview:
    """The bytes of values as a C-contiguous array of dtype: a view of
    values themselves when they already are one, so nothing is copied."""
    return memoryview(np.ascontiguousarray(values, dtype=dtype)).cast("B")


def _entry_payload(values: np.ndarray) -> tuple[int, memoryview]:
    """(dtype code, payload): u8 when every value is an exact integer in
    [0, 255], else f32, a view of values itself when they are <f4."""
    if np.array_equal(np.rint(values), values) and values.min() >= 0 and values.max() <= 255:
        return IVC_DTYPE_U8, _raw_bytes(values, np.uint8)
    return IVC_DTYPE_F32, _raw_bytes(values, "<f4")


def _ivc_chunks(records: Sequence[Union[ImageRecord, VolumeRecord]]):
    """An IVC1 container's bytes in order: the file header, then each
    entry's header, payload and CRC-32."""
    yield b"IVC1" + struct.pack("<I", len(records))
    for rec in records:
        values = rec.voxels if isinstance(rec, VolumeRecord) else rec.pixels
        id_bytes = rec.id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise InvalidArgumentError(f"record id too long: {rec.id[:40]!r}...")
        code, payload = _entry_payload(values)
        ndims = len(rec.shape)
        yield (
            struct.pack("<H", len(id_bytes)) + id_bytes
            + struct.pack(f"<B{ndims}IB", ndims, *rec.shape, code)
        )
        yield payload
        yield struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def write_ivc(records: Sequence[Union[ImageRecord, VolumeRecord]], path) -> None:
    """Write records to an IVC1 container readable by read_ivc.

    An entry is stored as u8 when every value is an exact integer in
    [0, 255], else as f32; round-trips are bit-exact either way because
    records hold float32 internally. Entries are streamed to the file
    one at a time, f32 payloads straight from the records' arrays.
    """
    if not records:
        raise InvalidArgumentError("write_ivc: no records to write")
    atomic_write(path, _ivc_chunks(records))


# ---------------------------------------------------------------------------
# EMB1 embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingSet:
    """Externally produced feature vectors (or class-probability rows),
    each a one-channel row: shape is (1, dim)."""

    ids: tuple[str, ...]
    dim: int
    rows: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidArgumentError("embedding dim must be positive")
        object.__setattr__(self, "ids", tuple(self.ids))
        rows, n = np.asarray(self.rows, dtype=np.float32), len(self.ids)
        if rows.size != n * self.dim:
            raise InvalidArgumentError(
                f"rows hold {rows.size} values; {n} ids of dim {self.dim} need {n * self.dim}"
            )
        rows = rows.reshape(n, self.dim)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if n == 0:
            raise EmptyInputError("embedding set must be non-empty")
        if not np.isfinite(rows).all():
            raise InvalidArgumentError("embedding rows must be finite")
        if len(set(self.ids)) != n:
            raise InvalidArgumentError("duplicate embedding ids")

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (1, self.dim)

    def read_rows(self, i0: int, i1: int, out: np.ndarray, channels: Sequence[int]) -> None:
        """Rows i0..i1-1 into out, shape (i1 - i0, len(channels) = 1, dim)."""
        out[:] = self.rows[i0:i1, None]


def _emb_header(cur: _Cursor) -> tuple[int, int]:
    """(N, dim) of an EMB1 file; its payload size must match exactly."""
    path = cur.path
    magic = cur.take(4, "magic")
    if magic != b"EMB1":
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    n = cur.u32("row count")
    dim = cur.u32("dim")
    if n == 0:
        raise EmptyInputError(f"{path}: embedding set is empty (N=0)")
    if dim == 0:
        raise FormatError(f"{path}: dim must be positive at offset 8")
    if n * dim > MAX_DIM_PRODUCT:
        raise FormatError(f"{path}: dimension overflow, {n} x {dim}")
    remaining = cur.size - cur.pos
    expected = 4 * n * dim
    if remaining != expected:
        raise FormatError(
            f"{path}: payload is {remaining} bytes at offset {cur.pos}, "
            f"expected {expected} (= 4 * {n} * {dim})"
        )
    return n, dim


def _emb_ids(path: Path, n: int) -> tuple[str, ...]:
    """Ids from the sidecar, or row indices as text without one."""
    sidecar = path.with_suffix(".ids")
    if not sidecar.exists():
        return tuple(str(i) for i in range(n))
    ids = [ln for ln in sidecar.read_text("utf-8").splitlines() if ln.strip()]
    if len(ids) != n:
        raise FormatError(f"{sidecar}: {len(ids)} ids for {n} rows in {path.name}")
    return tuple(ids)


def read_embeddings(path) -> EmbeddingSet:
    """Read an EMB1 matrix: load_embedding_set of a one-file manifest, so
    ids come from the sidecar or fall back to row indices as text."""
    path = Path(path)
    return load_embedding_set(Manifest(str(path), "", (("emb", path),)))


def write_embeddings(emb: EmbeddingSet, path) -> None:
    """Write an EMB1 matrix and its `.ids` sidecar, committed together;
    ids the sidecar cannot hold (blank, or split by a line break) are
    refused before anything is written."""
    if not os.fspath(path):  # Path("") is the current directory, which has no sidecar name
        raise InvalidArgumentError("output path: the path is empty")
    path = Path(path)
    for i in emb.ids:
        if not i.strip() or i.splitlines() != [i]:
            raise InvalidArgumentError(f"id {i!r} cannot be one line of an .ids sidecar")
    header = b"EMB1" + struct.pack("<II", len(emb), emb.dim)
    with OutputSet(("output path", path), ("output path", path.with_suffix(".ids"))):
        atomic_write(path, (header, _raw_bytes(emb.rows, "<f4")))
        atomic_write(path.with_suffix(".ids"), ("\n".join(emb.ids) + "\n").encode("utf-8"))


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

_FORMATS = {".pgm": "pgm", ".ivc": "ivc", ".emb": "emb"}


@dataclass(frozen=True)
class Manifest:
    """Resolved dataset description: role plus existing files in order."""

    name: str
    role: str
    entries: tuple[tuple[str, Path], ...]  # (format, absolute path)


def _header_field(line: str) -> Optional[tuple[str, str]]:
    """(key, value) of a manifest header line, "name = ..." or "role: ...",
    after its comment is cut and it is stripped; None for a file line."""
    for key in ("name", "role"):
        rest = line[len(key) :].lstrip()
        if line.lower().startswith(key) and rest[:1] in ("=", ":"):
            return key, rest[1:].strip()
    return None


def load_manifest(path) -> Manifest:
    """Parse a manifest and verify every referenced file exists."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    header = {"name": path.stem}
    entries: list[tuple[str, Path]] = []
    problems: list[str] = []
    in_header = True
    for lineno, raw in enumerate(path.read_text("utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        field = _header_field(line) if in_header else None
        if field:
            header[field[0]] = field[1]
            continue
        in_header = False
        file = (path.parent / line).resolve()
        fmt = _FORMATS.get(file.suffix.lower())
        if fmt is None:
            problems.append(
                f"line {lineno}: unknown file type {file.suffix!r} ({line})"
            )
            continue
        if not file.is_file():
            problems.append(f"line {lineno}: missing file {line}")
            continue
        entries.append((fmt, file))
    role = header.get("role")
    if role not in ROLES:
        problems.insert(0, f"role must be one of {', '.join(ROLES)}, got {role!r}")
    if not entries and not problems:
        problems.append("manifest lists no files")
    if problems:
        raise ManifestError(
            f"{path}: " + "; ".join(problems)
        )
    return Manifest(header["name"], role, tuple(entries))


def _as_manifest(manifest: Union[Manifest, str, Path]) -> Manifest:
    return manifest if isinstance(manifest, Manifest) else load_manifest(manifest)


def _image_files(manifest: Manifest):
    for fmt, file in manifest.entries:
        if fmt == "emb":
            raise ManifestError(
                f"{manifest.name}: {file} is an embedding file; "
                "load it with load_embedding_set"
            )
        yield fmt, file


def _embedding_files(manifest: Manifest) -> list[Path]:
    non_emb = [str(f) for fmt, f in manifest.entries if fmt != "emb"]
    if non_emb:
        raise ManifestError(
            f"{manifest.name}: embedding manifest contains non-EMB1 files: "
            + ", ".join(non_emb)
        )
    return [f for _, f in manifest.entries]


_MAX_LISTED = 10  # duplicate ids named in one error message


def _check_members(
    name: str, members: Iterable[tuple[Path, str, tuple[int, ...]]], kind: str
) -> None:
    """The one validator of a manifest's members, shared by the loaders
    and the file-backed sets. members are (file, id, shape) in manifest
    order; kind is "image" (shape C,H,W or C,D,H,W) or "embedding"
    (shape (dim,)). Volumes, duplicate ids (naming both files), mixed
    shapes and empty image sets raise one ManifestError naming every
    offender."""
    problems: list[str] = []
    duplicates: list[str] = []
    first_file: dict[str, Path] = {}
    by_shape: dict[tuple[int, ...], list[str]] = {}
    for file, member_id, shape in members:
        if kind == "image" and len(shape) == 4:
            problems.append(
                f"{file.name}: entry {member_id!r} is a 3-D volume; "
                "run preprocess to slice it first"
            )
            continue
        if member_id in first_file:
            duplicates.append(
                f"duplicate id {member_id!r} in {file.name} (first seen in "
                f"{first_file[member_id].name})"
            )
            continue
        first_file[member_id] = file
        by_shape.setdefault(shape, []).append(member_id)
    problems.extend(duplicates[:_MAX_LISTED])
    if len(duplicates) > _MAX_LISTED:
        problems.append(f"{len(duplicates) - _MAX_LISTED} more duplicate ids")
    if len(by_shape) > 1 and kind == "embedding":
        problems.append(f"mixed embedding dims {sorted(s[0] for s in by_shape)}")
    elif len(by_shape) > 1:
        detail = "; ".join(
            f"{s}: {ids[0]} (+{len(ids) - 1} more)" if len(ids) > 1 else f"{s}: {ids[0]}"
            for s, ids in sorted(by_shape.items())
        )
        problems.append(f"mixed dimensions: {detail}")
    if problems:
        raise ManifestError(f"{name}: " + "; ".join(problems))
    if not first_file:
        raise ManifestError(f"{name}: no 2-D images")


def load_records(manifest: Union[Manifest, str, Path]) -> list[Union[ImageRecord, VolumeRecord]]:
    """All image/volume records referenced by a manifest, in manifest order."""
    records: list[Union[ImageRecord, VolumeRecord]] = []
    for fmt, file in _image_files(_as_manifest(manifest)):
        records.extend(_read_records(fmt, file))
    return records


def load_dataset(manifest: Union[Manifest, str, Path]) -> Dataset:
    """Load a manifest of 2-D images as a Dataset (open_dataset + read all).

    Volumes are rejected (slice them with preprocess first); duplicate ids
    and mixed dimensions raise a ManifestError naming every offender.
    """
    images = open_dataset(manifest)
    c, h, w = images.shape
    pixels = np.empty((len(images), c, h * w), dtype=np.float32)  # no record shares a row
    images.read_rows(0, len(images), pixels, range(c))
    return Dataset(images.name, images.role, tuple(
        ImageRecord(i, c, h, w, row) for i, row in zip(images.ids, pixels)
    ))


def load_embedding_set(manifest: Union[Manifest, str, Path]) -> EmbeddingSet:
    """Load a manifest of EMB1 files as one EmbeddingSet (open + read all)."""
    emb = open_embedding_set(manifest)
    rows = np.empty((len(emb), 1, emb.dim), dtype=np.float32)
    emb.read_rows(0, len(emb), rows, (0,))
    return EmbeddingSet(emb.ids, emb.dim, rows)


# ---------------------------------------------------------------------------
# File-backed sets: headers scanned once, rows read on demand
# ---------------------------------------------------------------------------

# Raw bytes read at once from an EMB1 file (bounds the read temporary).
_READ_CHUNK_BYTES = 1 << 20


class _ThreadBuffer(threading.local):
    """A scratch bytearray of a fixed size for each thread that reads
    through it, made on the thread's first use, so threads reading
    disjoint ranges of one set never share one."""

    def __init__(self, size: int):
        self.bytes = bytearray(size)


class DatasetFile:
    """A manifest of 2-D images whose pixels stay in their files.

    Opening scans every header, so name, role, ids, shape and len come
    without reading payloads; it rejects volumes, duplicate ids, mixed
    shapes and bad headers. read_panels then reads a contiguous range in
    file order one panel (a run of channels) at a time, each payload byte
    once, with a running CRC-32 per entry (PGM files have none) and a
    finiteness check as it is read; read_rows is its one-panel case.
    Payloads are read through one buffer per reading thread, so reading
    allocates nothing per entry, and threads may read disjoint ranges at
    once.
    """

    def __init__(self, manifest: Manifest):
        self.name, self.role = manifest.name, manifest.role
        self._locations: list[tuple[Path, _Entry]] = []
        for fmt, file in _image_files(manifest):
            with _file_cursor(file) as cur:
                self._locations.extend((file, entry) for entry in _SCANNERS[fmt](cur))
        _check_members(
            manifest.name, ((f, e.id, e.dims) for f, e in self._locations), "image"
        )
        self.ids = tuple(e.id for _, e in self._locations)
        self.shape: tuple[int, int, int] = self._locations[0][1].dims
        self._payload = _ThreadBuffer(max(e.size for _, e in self._locations))  # a payload per thread

    def __len__(self) -> int:
        return len(self.ids)

    def read_panels(
        self, i0: int, i1: int, out: np.ndarray, panels: Sequence[Sequence[int]]
    ) -> Iterator[None]:
        """Images i0..i1-1 into out one panel at a time: panels are
        sequences of channels, each past every channel of the one before;
        for each, out (i1 - i0, len(panel), H*W) is filled with those
        channels of each image, in order, and the generator yields.

        Each payload is read once, in file order, as far as a panel needs
        (the channels between panels too), with a running CRC-32 of every
        byte read; the last panel reads the rest of it and its checksum.
        When the generator is resumed after the last panel, the
        lowest-index entry at fault raises what a whole-entry read
        (_entry_values) raises: of a short read, a CRC-32 mismatch, or
        non-finite values (a byte above maxval in PGM), the first. An
        entry at fault reads as zeros.
        """
        c = self.shape[0]
        locations = self._locations[i0:i1]
        done = [0] * len(locations)  # channels read
        crcs = [0] * len(locations)
        faults: list[Optional[FormatError]] = [None] * len(locations)
        broken = [False] * len(locations)  # a short read or a bad checksum: read no more
        for i, panel in enumerate(panels):
            stop = c if i == len(panels) - 1 else max(panel) + 1
            todo = [j for j in range(len(locations)) if not broken[j]]
            for file, group in groupby(todo, key=lambda j: locations[j][0]):
                with _file_cursor(file) as cur:
                    for j in group:
                        entry = locations[j][1]
                        start, end = entry.size * done[j] // c, entry.size * stop // c
                        try:
                            chunk, fault = _payload_chunk(cur, entry, self._payload.bytes, start, end)
                            crcs[j] = zlib.crc32(chunk, crcs[j])
                            faults[j] = faults[j] or fault
                            if stop == c:
                                _check_crc(cur, entry, crcs[j])
                        except FormatError as exc:  # it comes before any value fault
                            faults[j], broken[j] = exc, True
                        if faults[j] is None:
                            values = np.frombuffer(chunk, dtype=_DTYPES[entry.dtype])
                            copy_channels([values], out[j : j + 1], [ch - done[j] for ch in panel])
                        done[j] = stop
            for j in range(len(locations)):
                if faults[j] is not None:
                    out[j] = 0.0
            yield
        for fault in faults:
            if fault is not None:
                raise fault

    def read_rows(self, i0: int, i1: int, out: np.ndarray, channels: Sequence[int]) -> None:
        """Images i0..i1-1 into out, shape (i1 - i0, len(channels), H*W):
        the given channels of each image, in order (one panel)."""
        exhaust(self.read_panels(i0, i1, out, [channels]))


class EmbeddingSetFile:
    """A manifest of EMB1 files whose rows stay in their files.

    Opening reads every header and `.ids` sidecar and rejects bad
    headers, wrong `.ids` counts, duplicate ids and mixed dims; read_rows
    reads contiguous row ranges, in chunks through one buffer per reading
    thread, and checks their finiteness as they are read.
    """

    def __init__(self, manifest: Manifest):
        self.name, self.role = manifest.name, manifest.role
        members: list[tuple[Path, str, tuple[int, ...]]] = []
        self._files: list[tuple[Path, int, int]] = []  # (path, first row, rows)
        for file in _embedding_files(manifest):
            with _file_cursor(file) as cur:
                n, dim = _emb_header(cur)
            self._files.append((file, len(members), n))
            members.extend((file, i, (dim,)) for i in _emb_ids(file, n))
        _check_members(manifest.name, members, "embedding")
        self.ids = tuple(m[1] for m in members)
        self.dim: int = members[0][2][0]
        self.shape = (1, self.dim)
        self._step = max(1, _READ_CHUNK_BYTES // (4 * self.dim))  # rows per chunk
        self._chunk = _ThreadBuffer(4 * self.dim * min(self._step, len(self.ids)))

    def __len__(self) -> int:
        return len(self.ids)

    def read_rows(self, i0: int, i1: int, out: np.ndarray, channels: Sequence[int]) -> None:
        """Rows i0..i1-1 into out, shape (i1 - i0, len(channels) = 1, dim)."""
        dim, step = self.dim, self._step
        for file, first, n in self._files:
            lo, hi = max(i0, first), min(i1, first + n)
            if lo >= hi:
                continue
            with _file_cursor(file) as cur:
                for r0 in range(lo, hi, step):
                    r1 = min(r0 + step, hi)
                    cur.seek(12 + 4 * dim * (r0 - first))
                    payload = cur.take_into(self._chunk.bytes, 4 * dim * (r1 - r0), "payload")
                    values = np.frombuffer(payload, dtype="<f4")
                    if not np.isfinite(values).all():
                        raise FormatError(f"{file}: non-finite embedding values")
                    out[r0 - i0 : r1 - i0] = values.reshape(r1 - r0, 1, dim)


def open_dataset(manifest: Union[Manifest, str, Path]) -> DatasetFile:
    """A manifest of 2-D images as a file-backed set (see DatasetFile)."""
    return DatasetFile(_as_manifest(manifest))


def open_embedding_set(manifest: Union[Manifest, str, Path]) -> EmbeddingSetFile:
    """A manifest of EMB1 files as a file-backed set (see EmbeddingSetFile)."""
    return EmbeddingSetFile(_as_manifest(manifest))


def render_manifest(name: str, role: str, files: Iterable[str]) -> bytes:
    """The bytes write_manifest writes for a manifest referencing ``files``
    (paths relative to it). A role outside ROLES, and a name or path that
    load_manifest would read back as another value, are refused."""
    if role not in ROLES:
        raise InvalidArgumentError(f"role must be one of {', '.join(ROLES)}, got {role!r}")
    files = [str(f) for f in files]
    for what, value in [("name", name), *(("path", f) for f in files)]:
        # load_manifest cuts a line at '#', strips it, and skips it when blank
        if "#" in value or value != value.strip() or value.splitlines() != [value]:
            raise InvalidArgumentError(f"manifest {what} {value!r} cannot be one manifest line")
    if files and _header_field(files[0]):
        raise InvalidArgumentError(f"manifest path {files[0]!r} reads as a header line")
    lines = [f"name = {name}", f"role = {role}", *files]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_manifest(path, name: str, role: str, files: Iterable[str]) -> None:
    """Write render_manifest's bytes to path; a refused manifest writes nothing."""
    atomic_write(path, render_manifest(name, role, files))
