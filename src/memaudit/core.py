"""Domain types and the scalar reference correlation.

Images are stored as flat float32 arrays in channel-major order (channel,
then row, then column); all correlation arithmetic accumulates in float64.
`pearson` here is the plain two-pass covariance formula and serves as the
oracle against which the blocked engine in `correlate` is verified. The
identity it must satisfy, for every non-constant pair within 1e-9:

    pearson(a, b) == dot(u, v)

where u and v are the rows `standardize_rows` makes of the selected
channels of a and b (the engine's standardization).
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError, UndefinedCorrelationError

# Selected pixels with population variance below this are treated as
# constant: their correlation is undefined, never zero.
VARIANCE_FLOOR = 1e-12

CHANNEL_MODES = ("concat", "mean")


def worker_count() -> int:
    """CPUs this process may run on: the worker threads of every pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def pool_map(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items], in order, run by this thread and
    min(worker_count(), len(items)) - 1 helper threads, each taking the
    next untaken item until none is left; on one CPU no thread starts.
    Each result depends on its item alone, so the list is the same at any
    CPU count. Every call runs, and every helper has ended, before this
    returns or raises: if calls fail, the failure raised is that of the
    lowest-index failing item, but an interrupt (a BaseException that is
    not an Exception, say KeyboardInterrupt) wins, and once one is raised
    no thread takes another item. fn must not call BLAS on products big
    enough to start the library's own threads (see
    metrics.BAND_PRODUCT_MACS), so the pool never runs beside them."""
    items = list(items)
    results, failures = [None] * len(items), {}
    untaken, lock = iter(range(len(items))), threading.Lock()

    def drain() -> None:
        try:
            while True:
                with lock:
                    i = next(untaken, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except Exception as exc:
                    failures[i] = exc
        except BaseException as exc:  # raised below, once every helper has ended
            with lock:
                failures[-1] = exc  # the lowest key: it wins
                deque(untaken, maxlen=0)

    helpers = [threading.Thread(target=drain) for _ in range(min(worker_count(), len(items)) - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _check_record(record, kind: str, field: str) -> None:
    """The checks of every record ("image" or "volume" kind): a non-empty
    id, positive dims, and prod(dims) finite values in record.<field>,
    which is set to them as a read-only flat float32 array."""
    if not record.id:
        raise InvalidArgumentError(f"{kind} id must be non-empty")
    what, dims = f"{kind} {record.id!r}", record.shape
    if min(dims) < 1:
        raise InvalidArgumentError(f"{what}: dimensions must be positive")
    arr = np.asarray(getattr(record, field), dtype=np.float32).reshape(-1)
    expected = math.prod(dims)  # not np.prod: records are built by the thousand
    if arr.size != expected:
        raise InvalidArgumentError(f"{what}: expected {expected} values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{what}: pixel values must be finite")
    arr.setflags(write=False)
    object.__setattr__(record, field, arr)


@dataclass(frozen=True)
class ImageRecord:
    """One multi-channel 2-D image; the unit of comparison.

    pixels holds channels * height * width float32 values, channel-major.
    Immutable after construction (the array is marked read-only).
    """

    id: str
    channels: int
    height: int
    width: int
    pixels: np.ndarray

    def __post_init__(self):
        _check_record(self, "image", "pixels")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    def chw(self) -> np.ndarray:
        """Read-only (C, H, W) view of the pixel data."""
        return self.pixels.reshape(self.channels, self.height, self.width)


@dataclass(frozen=True)
class VolumeRecord:
    """One multi-channel 3-D volume, split into slices by `preprocess`.

    voxels holds channels * depth * height * width float32 values,
    channel-major then slice-major.
    """

    id: str
    channels: int
    depth: int
    height: int
    width: int
    voxels: np.ndarray

    def __post_init__(self):
        _check_record(self, "volume", "voxels")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.channels, self.depth, self.height, self.width)

    def cdhw(self) -> np.ndarray:
        return self.voxels.reshape(
            self.channels, self.depth, self.height, self.width
        )


ROLES = ("train", "test", "synthetic")


@dataclass(frozen=True)
class Dataset:
    """Ordered image collection with a declared audit role."""

    name: str
    role: str
    images: tuple[ImageRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if self.role not in ROLES:
            raise InvalidArgumentError(
                f"dataset {self.name!r}: role must be one of {ROLES}, got {self.role!r}"
            )
        shapes = {img.shape for img in self.images}
        if len(shapes) > 1:
            raise InvalidArgumentError(
                f"dataset {self.name!r}: mixed image shapes {sorted(shapes)}"
            )
        seen, dupes = set(), []
        for img in self.images:
            if img.id in seen:
                dupes.append(img.id)
            seen.add(img.id)
        if dupes:
            raise InvalidArgumentError(
                f"dataset {self.name!r}: duplicate ids {sorted(set(dupes))}"
            )

    def __len__(self) -> int:
        return len(self.images)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(img.id for img in self.images)

    @property
    def shape(self) -> tuple[int, int, int]:
        if not self.images:
            raise InvalidArgumentError(f"dataset {self.name!r} is empty")
        return self.images[0].shape

    def read_panels(
        self, i0: int, i1: int, out: np.ndarray, panels: Sequence[Sequence[int]]
    ) -> Iterator[None]:
        """Images i0..i1-1 into out one panel (a sequence of channels) at a
        time: for each panel, out (i1 - i0, len(panel), H*W) is filled with
        those channels of each image, in order, and the generator yields.
        The in-memory case of ingest.DatasetFile.read_panels."""
        for panel in panels:
            copy_channels((img.pixels for img in self.images[i0:i1]), out, panel)
            yield

    def read_rows(self, i0: int, i1: int, out: np.ndarray, channels: Sequence[int]) -> None:
        """Images i0..i1-1 into out, shape (i1 - i0, len(channels), H*W):
        the given channels of each image, in order (one panel)."""
        next(self.read_panels(i0, i1, out, [channels]))


def copy_channels(
    images: Iterable[np.ndarray], out: np.ndarray, channels: Sequence[int]
) -> None:
    """The given channels of each flat channel-major image into a row of out."""
    for flat, row in zip(images, out):
        planes = flat.reshape(-1, row.shape[-1])
        for dst, src in enumerate(channels):  # no fancy-index temporary
            row[dst] = planes[src]


def default_channel_mask(channels: int) -> tuple[int, ...]:
    """Channels entering correlation when the caller does not choose.

    Five-channel data is assumed to carry an annotation plane in the last
    channel, which is excluded; every other channel count uses all
    channels.
    """
    if channels == 5:
        return tuple(range(4))
    return tuple(range(channels))


def resolve_channel_mask(mask, channels: int) -> tuple[int, ...]:
    """Normalize a channel mask (None means the default for this C)."""
    if mask is None:
        return default_channel_mask(channels)
    idx = sorted(set(int(c) for c in mask))
    if not idx:
        raise InvalidArgumentError("channel mask must be non-empty")
    if idx[0] < 0 or idx[-1] >= channels:
        raise InvalidArgumentError(
            f"channel mask {idx} out of range for {channels} channels"
        )
    return tuple(idx)


def _selected(img: ImageRecord, mask: tuple[int, ...]) -> np.ndarray:
    """Selected channels as float64, shape (len(mask), H*W)."""
    chw = img.chw()
    return np.stack([chw[c] for c in mask]).reshape(len(mask), -1).astype(np.float64)


def center_rows(parts: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center every segment of a float64 block parts (n, segments, L) in
    place by its own mean ("cosine" rows are not centered): the one
    centering kernel of the engine's reads, whole rows and panels alike.
    Returns (means, squares, ok), each (n, segments): the means taken
    (zeros under "cosine"), the sums of squares once centered, and
    whether a segment is valid: its population variance reaches
    VARIANCE_FLOOR or, under "cosine", its squared norm 1e-24. Squares
    are summed by einsum, which sums a lone segment another way (other
    bits), so a lone segment is summed beside a view of itself, not a
    copy: a row's bits never depend on the rows beside it."""
    if mode == "cosine":
        means = np.zeros(parts.shape[:2])
    else:
        means = parts.mean(axis=2)
        parts -= means[:, :, None]
    n, segments, length = parts.shape
    pair = parts if n * segments > 1 else np.broadcast_to(parts, (2, 1, length))
    squares = np.einsum("nsl,nsl->ns", pair, pair)[:n]
    ok = squares >= 1e-24 if mode == "cosine" else squares / length >= VARIANCE_FLOOR
    return means, squares, ok


def standardize_rows(
    rows: np.ndarray, mode: str = "concat"
) -> tuple[np.ndarray, np.ndarray]:
    """Standardize a float64 block of whole rows for dot-product
    correlation, in place: the contents of rows are overwritten.

    rows has shape (n, segments, L): an image's selected channels are its
    segments, an embedding row is a single segment. "concat" and
    "pearson" center and L2-normalize each row as one vector; "mean"
    centers and normalizes every segment, then scales by
    1/sqrt(segments), so dot products average per-segment correlations;
    "cosine" only normalizes. Centering and validity are center_rows'.
    Returns (values, valid): values is the block viewed as (n, segments *
    L) with invalid rows zeroed. A row is invalid when a centered vector
    has population variance below VARIANCE_FLOOR (for "mean", any
    constant segment) or, for "cosine", when its squared norm is below
    1e-24.
    """
    n, segments, length = rows.shape
    if mode == "mean":
        parts = rows
    elif mode in ("concat", "pearson", "cosine"):
        parts = rows.reshape(n, 1, segments * length)
    else:
        raise InvalidArgumentError(f"unknown standardization mode {mode!r}")
    _, sq, ok = center_rows(parts, mode)
    parts /= np.sqrt(np.where(ok, sq, 1.0))[:, :, None]
    if mode == "mean":
        parts *= 1.0 / np.sqrt(segments)
    valid = ok.all(axis=1)
    values = parts.reshape(n, segments * length)
    values[~valid] = 0.0
    return values, valid


def check_same_shape(a: ImageRecord, b: ImageRecord) -> None:
    """InvalidArgumentError naming both images unless they have one shape."""
    if a.shape != b.shape:
        raise InvalidArgumentError(f"shape mismatch: {a.id!r} {a.shape} vs {b.id!r} {b.shape}")


def _pearson_flat(a: np.ndarray, b: np.ndarray) -> float:
    ca = a - a.mean()
    cb = b - b.mean()
    va = float(ca.dot(ca))
    vb = float(cb.dot(cb))
    if va / a.size < VARIANCE_FLOOR or vb / b.size < VARIANCE_FLOOR:
        raise UndefinedCorrelationError(
            "correlation undefined for constant input"
        )
    return float(ca.dot(cb) / np.sqrt(va * vb))


def pearson(
    a: ImageRecord,
    b: ImageRecord,
    channel_mask: Optional[Iterable[int]] = None,
    mode: str = "concat",
) -> float:
    """Pearson correlation of two images over the selected channels.

    Reference scalar path: two-pass covariance formula in float64, no
    standardized-vector shortcut. Symmetric in its arguments. Raises
    UndefinedCorrelationError when either input is constant on the mask
    and InvalidArgumentError on shape mismatch.
    """
    check_same_shape(a, b)
    mask = resolve_channel_mask(channel_mask, a.channels)
    sa = _selected(a, mask)
    sb = _selected(b, mask)
    if mode == "concat":
        return _pearson_flat(sa.reshape(-1), sb.reshape(-1))
    if mode == "mean":
        return float(
            np.mean([_pearson_flat(ra, rb) for ra, rb in zip(sa, sb)])
        )
    raise InvalidArgumentError(f"unknown channel mode {mode!r}")
