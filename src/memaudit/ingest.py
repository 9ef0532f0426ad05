"""Readers and writers for the toolkit's bit-exact on-disk formats.

Four formats, all little-endian:

  PGM   binary "P5" grayscale, maxval <= 255; one single-channel image.
  IVC1  multi-entry image/volume container:
          magic "IVC1" | u32 entry count | entries...
        entry: u16 id length | id bytes (UTF-8) | u8 ndims (3 or 4) |
               ndims x u32 dims (C,[D,]H,W) | u8 dtype (0=u8, 1=f32) |
               payload (channel-major) | u32 CRC-32 of payload
        (CRC-32: reflected polynomial 0xEDB88320, i.e. zlib's crc32.)
  EMB1  embedding / probability matrix:
          magic "EMB1" | u32 N | u32 dim | N*dim f32 row-major
        optional sidecar "<stem>.ids" with one id per line.
  Manifest  UTF-8 text: "name = ..." / "role = ..." header lines, then one
        path per line relative to the manifest; '#' starts a comment.

Readers reject rather than repair: wrong magic, truncated payloads,
checksum mismatches and oversized files all raise FormatError naming the
byte offset. Every writer goes through `atomic_write`, so an output file
is either its previous version or the complete new one, never a prefix.
"""

from __future__ import annotations

import os
import secrets
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import Dataset, ImageRecord, VolumeRecord
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


def atomic_write(path, data: bytes) -> None:
    """Write via a temp file in the same directory + rename, so no partial
    file can exist under ``path``; the temp file is removed on failure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# PGM
# ---------------------------------------------------------------------------


def read_pgm(path) -> ImageRecord:
    """Read a binary PGM ("P5") file as a single-channel image.

    Pixel values come back as reals 0-255; the record id is the file stem.
    """
    path = Path(path)
    data = path.read_bytes()

    pos = 0

    def skip_space():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                return

    def token(what: str) -> bytes:
        nonlocal pos
        skip_space()
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise FormatError(f"{path}: missing {what} at offset {start}")
        return data[start:pos]

    magic = token("magic")
    if magic != b"P5":
        detail = " (ASCII PGM unsupported)" if magic in (b"P2", b"P1") else ""
        raise FormatError(
            f"{path}: expected magic 'P5' at offset 0, got {magic!r}{detail}"
        )

    dims, offsets = {}, {}
    for name in ("width", "height", "maxval"):
        skip_space()
        offsets[name] = pos
        text = token(name)
        try:
            dims[name] = int(text)
        except ValueError:
            raise FormatError(
                f"{path}: non-numeric {name} {text!r} at offset {offsets[name]}"
            ) from None
        if dims[name] <= 0:
            raise FormatError(
                f"{path}: {name} must be positive at offset {offsets[name]}"
            )
    if dims["maxval"] > 255:
        raise FormatError(
            f"{path}: maxval {dims['maxval']} at offset {offsets['maxval']} "
            "exceeds 255 (16-bit PGM unsupported)"
        )

    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise FormatError(f"{path}: missing header terminator at offset {pos}")
    pos += 1

    expected = dims["width"] * dims["height"]
    got = len(data) - pos
    if got < expected:
        raise FormatError(
            f"{path}: truncated payload at offset {pos}: "
            f"need {expected} bytes, found {got}"
        )
    if got > expected:
        raise FormatError(
            f"{path}: {got - expected} trailing bytes after offset {pos + expected}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    return ImageRecord(
        id=path.stem,
        channels=1,
        height=dims["height"],
        width=dims["width"],
        pixels=pixels.astype(np.float32),
        source=str(path),
    )


def write_pgm(img: ImageRecord, path) -> None:
    """Write a single-channel image whose pixels are exact integers 0-255."""
    if img.channels != 1:
        raise InvalidArgumentError(
            f"PGM holds one channel; image {img.id!r} has {img.channels}"
        )
    rounded = np.rint(img.pixels)
    if not (
        np.all(np.abs(img.pixels - rounded) < 1e-6)
        and rounded.min() >= 0
        and rounded.max() <= 255
    ):
        raise InvalidArgumentError(
            f"image {img.id!r}: PGM requires integer pixels in [0, 255]"
        )
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    atomic_write(path, header + rounded.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# IVC1 container
# ---------------------------------------------------------------------------


class _Cursor:
    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"{self.path}: truncated {what} at offset {self.pos}: "
                f"need {n} bytes, found {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def read_ivc(path) -> list[Union[ImageRecord, VolumeRecord]]:
    """Decode an IVC1 container into image and volume records (file order)."""
    path = Path(path)
    cur = _Cursor(path.read_bytes(), path)

    magic = cur.take(4, "magic")
    if magic != b"IVC1":
        if magic[:3] == b"IVC":
            raise UnsupportedVersionError(
                f"{path}: unsupported container version {magic!r}"
            )
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")

    count = cur.u32("entry count")
    records: list[Union[ImageRecord, VolumeRecord]] = []
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
        if dtype == IVC_DTYPE_U8:
            payload = cur.take(n_values, f"{what} payload")
            values = np.frombuffer(payload, dtype=np.uint8).astype(np.float32)
        elif dtype == IVC_DTYPE_F32:
            payload = cur.take(4 * n_values, f"{what} payload")
            values = np.frombuffer(payload, dtype="<f4").astype(np.float32)
        else:
            raise FormatError(
                f"{path}: {what}: unknown dtype code {dtype} at offset {cur.pos - 1}"
            )
        stored_crc = cur.u32(f"{what} checksum")
        actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
        if stored_crc != actual_crc:
            raise FormatError(
                f"{path}: {what} ({entry_id!r}): checksum mismatch: "
                f"stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )
        if not np.isfinite(values).all():
            raise FormatError(
                f"{path}: {what} ({entry_id!r}): non-finite payload values"
            )
        if ndims == 3:
            c, h, w = dims
            records.append(
                ImageRecord(entry_id, c, h, w, values, source=str(path))
            )
        else:
            c, d, h, w = dims
            records.append(
                VolumeRecord(entry_id, c, d, h, w, values, source=str(path))
            )
    if cur.pos != len(cur.data):
        raise FormatError(
            f"{path}: {len(cur.data) - cur.pos} trailing bytes after offset {cur.pos}"
        )
    return records


def _entry_payload(values: np.ndarray, dtype: str, rec_id: str) -> tuple[int, bytes]:
    if dtype == "auto":
        rounded = np.rint(values)
        is_u8 = (
            np.array_equal(rounded, values)
            and values.size > 0
            and values.min() >= 0
            and values.max() <= 255
        )
        dtype = "u8" if is_u8 else "f32"
    if dtype == "u8":
        rounded = np.rint(values)
        if not (
            np.array_equal(rounded, values)
            and values.min() >= 0
            and values.max() <= 255
        ):
            raise InvalidArgumentError(
                f"record {rec_id!r}: u8 payload requires exact integers in [0, 255]"
            )
        return IVC_DTYPE_U8, rounded.astype(np.uint8).tobytes()
    if dtype == "f32":
        return IVC_DTYPE_F32, values.astype("<f4").tobytes()
    raise InvalidArgumentError(f"unknown IVC dtype {dtype!r}")


def write_ivc(
    records: Sequence[Union[ImageRecord, VolumeRecord]],
    path,
    dtype: str = "auto",
) -> None:
    """Write records to an IVC1 container readable by read_ivc.

    dtype "auto" stores an entry as u8 when every value is an exact
    integer in [0, 255], else as f32; round-trips are bit-exact either
    way because records hold float32 internally.
    """
    if not records:
        raise InvalidArgumentError("write_ivc: no records to write")
    chunks = [b"IVC1", struct.pack("<I", len(records))]
    for rec in records:
        if isinstance(rec, VolumeRecord):
            dims, values = rec.shape, rec.voxels
        else:
            dims, values = rec.shape, rec.pixels
        id_bytes = rec.id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise InvalidArgumentError(f"record id too long: {rec.id[:40]!r}...")
        code, payload = _entry_payload(values, dtype, rec.id)
        chunks.append(struct.pack("<H", len(id_bytes)))
        chunks.append(id_bytes)
        chunks.append(struct.pack("<B", len(dims)))
        chunks.append(struct.pack(f"<{len(dims)}I", *dims))
        chunks.append(struct.pack("<B", code))
        chunks.append(payload)
        chunks.append(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    atomic_write(path, b"".join(chunks))


# ---------------------------------------------------------------------------
# EMB1 embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingSet:
    """Externally produced feature vectors (or class-probability rows)."""

    ids: tuple[str, ...]
    dim: int
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        rows = np.asarray(self.rows, dtype=np.float32).reshape(-1, self.dim)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if self.dim < 1:
            raise InvalidArgumentError("embedding dim must be positive")
        if rows.shape[0] != len(self.ids):
            raise InvalidArgumentError(
                f"{rows.shape[0]} rows but {len(self.ids)} ids"
            )
        if rows.shape[0] == 0:
            raise EmptyInputError("embedding set must be non-empty")
        if not np.isfinite(rows).all():
            raise InvalidArgumentError("embedding rows must be finite")
        if len(set(self.ids)) != len(self.ids):
            raise InvalidArgumentError("duplicate embedding ids")

    def __len__(self) -> int:
        return self.rows.shape[0]


def _ids_sidecar(path: Path) -> Path:
    return path.with_suffix(".ids")


def read_embeddings(path) -> EmbeddingSet:
    """Read an EMB1 matrix; ids come from the sidecar or fall back to row
    indices as text."""
    path = Path(path)
    cur = _Cursor(path.read_bytes(), path)
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
    remaining = len(cur.data) - cur.pos
    expected = 4 * n * dim
    if remaining != expected:
        raise FormatError(
            f"{path}: payload is {remaining} bytes at offset {cur.pos}, "
            f"expected {expected} (= 4 * {n} * {dim})"
        )
    rows = np.frombuffer(cur.take(expected, "payload"), dtype="<f4").reshape(n, dim)
    if not np.isfinite(rows).all():
        raise FormatError(f"{path}: non-finite embedding values")

    sidecar = _ids_sidecar(path)
    if sidecar.exists():
        ids = [ln for ln in sidecar.read_text("utf-8").splitlines() if ln.strip()]
        if len(ids) != n:
            raise FormatError(
                f"{sidecar}: {len(ids)} ids for {n} rows in {path.name}"
            )
    else:
        ids = [str(i) for i in range(n)]
    return EmbeddingSet(tuple(ids), dim, rows)


def write_embeddings(emb: EmbeddingSet, path, write_ids: bool = True) -> None:
    path = Path(path)
    header = b"EMB1" + struct.pack("<II", len(emb), emb.dim)
    atomic_write(path, header + emb.rows.astype("<f4").tobytes())
    if write_ids:
        atomic_write(_ids_sidecar(path), ("\n".join(emb.ids) + "\n").encode("utf-8"))


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
        if in_header:
            for key in ("name", "role"):
                if line.lower().startswith(key):
                    rest = line[len(key) :].lstrip()
                    if rest[:1] in ("=", ":"):
                        header[key] = rest[1:].strip()
                        break
            else:
                in_header = False
        if not in_header:
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
    if role not in ("train", "test", "synthetic"):
        problems.insert(
            0, f"role must be train, test or synthetic, got {role!r}"
        )
    if not entries and not problems:
        problems.append("manifest lists no files")
    if problems:
        raise ManifestError(
            f"{path}: " + "; ".join(problems)
        )
    return Manifest(header["name"], role, tuple(entries))


def _read_entry_records(manifest: Manifest):
    for fmt, file in manifest.entries:
        if fmt == "pgm":
            yield file, read_pgm(file)
        elif fmt == "ivc":
            for rec in read_ivc(file):
                yield file, rec
        else:
            raise ManifestError(
                f"{manifest.name}: {file} is an embedding file; "
                "load it with load_embedding_set"
            )


def load_records(manifest: Union[Manifest, str, Path]):
    """All image/volume records referenced by a manifest, in manifest order."""
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    return manifest, [rec for _, rec in _read_entry_records(manifest)]


def load_dataset(manifest: Union[Manifest, str, Path]) -> Dataset:
    """Load a manifest of 2-D images as a Dataset.

    Volumes are rejected (slice them with preprocess first); duplicate ids
    and mixed dimensions raise a ManifestError naming every offender.
    """
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    images: list[ImageRecord] = []
    problems: list[str] = []
    seen: dict[str, Path] = {}
    for file, rec in _read_entry_records(manifest):
        if isinstance(rec, VolumeRecord):
            problems.append(
                f"{file.name}: entry {rec.id!r} is a 3-D volume; "
                "run preprocess to slice it first"
            )
            continue
        if rec.id in seen:
            problems.append(
                f"duplicate id {rec.id!r} in {file.name} (first seen in "
                f"{seen[rec.id].name})"
            )
            continue
        seen[rec.id] = file
        images.append(rec)
    shapes = {img.shape for img in images}
    if len(shapes) > 1:
        by_shape = {}
        for img in images:
            by_shape.setdefault(img.shape, []).append(img.id)
        detail = "; ".join(
            f"{s}: {ids[0]} (+{len(ids) - 1} more)" if len(ids) > 1 else f"{s}: {ids[0]}"
            for s, ids in sorted(by_shape.items())
        )
        problems.append(f"mixed dimensions: {detail}")
    if problems:
        raise ManifestError(f"{manifest.name}: " + "; ".join(problems))
    if not images:
        raise ManifestError(f"{manifest.name}: no 2-D images")
    return Dataset(manifest.name, manifest.role, tuple(images))


def load_embedding_set(manifest: Union[Manifest, str, Path]) -> EmbeddingSet:
    """Load a manifest whose entries are all EMB1 files as one EmbeddingSet."""
    if not isinstance(manifest, Manifest):
        manifest = load_manifest(manifest)
    non_emb = [str(f) for fmt, f in manifest.entries if fmt != "emb"]
    if non_emb:
        raise ManifestError(
            f"{manifest.name}: embedding manifest contains non-EMB1 files: "
            + ", ".join(non_emb)
        )
    parts = [read_embeddings(f) for _, f in manifest.entries]
    dims = {p.dim for p in parts}
    if len(dims) > 1:
        raise ManifestError(f"{manifest.name}: mixed embedding dims {sorted(dims)}")
    ids: list[str] = []
    for p in parts:
        ids.extend(p.ids)
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ManifestError(f"{manifest.name}: duplicate embedding ids {dupes[:10]}")
    rows = np.concatenate([p.rows for p in parts], axis=0)
    return EmbeddingSet(tuple(ids), parts[0].dim, rows)


def write_manifest(path, name: str, role: str, files: Iterable[str]) -> None:
    """Write a manifest referencing ``files`` (paths relative to it)."""
    lines = [f"name = {name}", f"role = {role}"]
    lines.extend(str(f) for f in files)
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
