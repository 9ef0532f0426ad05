"""Dataset preparation: slicing, content filter, padding, rescaling,
label remapping, resizing.

The canonical pipeline order is filter -> pad -> rescale -> remap ->
resize; the CLI applies whichever steps are requested in that order. The
content filter is inclusive on the fraction ("at least") and strict on
the intensity ("more than"). rescale/remap take an optional channel
subset so an annotation plane can keep its remapped label values instead
of being min-max stretched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from .core import ImageRecord, VolumeRecord, resolve_channel_mask
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class SliceFilterRule:
    """Keep a slice iff >= min_fraction of its pixels on one channel
    exceed intensity_threshold (strictly)."""

    min_fraction: float = 0.15
    intensity_threshold: float = 50.0
    channel: int = 0

    def __post_init__(self):
        if not 0.0 < self.min_fraction <= 1.0:
            raise InvalidArgumentError(
                f"min_fraction must be in (0, 1], got {self.min_fraction}"
            )
        if self.channel < 0:
            raise InvalidArgumentError("filter channel must be >= 0")


def slice_volume(
    vol: VolumeRecord, rule: Optional[SliceFilterRule] = None
) -> list[ImageRecord]:
    """Split a volume into axial slices, keeping those that pass the rule.

    Slice d becomes "<vol.id>_s<d>" (zero-padded to 3 digits), carrying
    all channels; output order is ascending d.
    """
    rule = rule or SliceFilterRule()
    if rule.channel >= vol.channels:
        raise InvalidArgumentError(
            f"filter channel {rule.channel} out of range for "
            f"{vol.channels}-channel volume {vol.id!r}"
        )
    cdhw = vol.cdhw()
    need = rule.min_fraction * vol.height * vol.width
    out = []
    for d in range(vol.depth):
        qualifying = int(np.count_nonzero(cdhw[rule.channel, d] > rule.intensity_threshold))
        if qualifying >= need:
            out.append(
                ImageRecord(
                    id=f"{vol.id}_s{d:03d}",
                    channels=vol.channels,
                    height=vol.height,
                    width=vol.width,
                    pixels=cdhw[:, d].reshape(-1),
                )
            )
    return out


def zero_pad(img: ImageRecord, target_h: int, target_w: int) -> ImageRecord:
    """Pad with zeros to (target_h, target_w), centered.

    The split is floor on top/left and ceil on bottom/right, so padding
    240x240 to 256x256 moves input pixel (0, 0) to (8, 8).
    """
    if target_h < img.height or target_w < img.width:
        raise InvalidArgumentError(
            f"pad target {target_h}x{target_w} smaller than "
            f"{img.height}x{img.width}"
        )
    if (target_h, target_w) == (img.height, img.width):
        return img
    top = (target_h - img.height) // 2
    left = (target_w - img.width) // 2
    out = np.zeros((img.channels, target_h, target_w), dtype=np.float32)
    out[:, top : top + img.height, left : left + img.width] = img.chw()
    return ImageRecord(img.id, img.channels, target_h, target_w, out.reshape(-1))


def rescale_intensity(
    rec: Union[ImageRecord, VolumeRecord],
    channels: Optional[Iterable[int]] = None,
):
    """Per-channel linear map of [min, max] to [0, 255], kept as reals.

    Constant channels map to all zeros. ``channels`` limits the rescale
    to a subset (default: every channel), leaving the rest untouched.
    """
    subset = resolve_channel_mask(
        range(rec.channels) if channels is None else channels, rec.channels
    )
    is_volume = isinstance(rec, VolumeRecord)
    data = (rec.cdhw() if is_volume else rec.chw()).astype(np.float32)
    for c in subset:
        lo = float(data[c].min())
        hi = float(data[c].max())
        if hi > lo:
            data[c] = (data[c].astype(np.float64) - lo) * (255.0 / (hi - lo))
        else:
            data[c] = 0.0
    if is_volume:
        return VolumeRecord(
            rec.id, rec.channels, rec.depth, rec.height, rec.width, data.reshape(-1)
        )
    return ImageRecord(rec.id, rec.channels, rec.height, rec.width, data.reshape(-1))


def remap_labels(
    img: ImageRecord,
    mapping: Mapping[float, float],
    channels: Optional[Iterable[int]] = None,
) -> ImageRecord:
    """Replace pixels equal (within 1e-6) to a mapping key by its value.

    All other pixels pass through. ``channels`` limits the remap to a
    subset (default: every channel). Matching is done against the input,
    so chained keys/values do not cascade.
    """
    subset = resolve_channel_mask(
        range(img.channels) if channels is None else channels, img.channels
    )
    data = img.chw().astype(np.float32)
    original = img.chw()
    for c in subset:
        for key, value in mapping.items():
            data[c][np.abs(original[c] - float(key)) <= 1e-6] = float(value)
    return ImageRecord(img.id, img.channels, img.height, img.width, data.reshape(-1))


def resize_bilinear(img: ImageRecord, target_h: int, target_w: int) -> ImageRecord:
    """Per-channel bilinear resize with half-pixel-center coordinates.

    Output pixel (i, j) samples the input at
    ((i + 0.5) * H/target_h - 0.5, (j + 0.5) * W/target_w - 0.5), with
    sample coordinates clamped to the image; same-size resize is the
    identity. No aspect-ratio preservation.
    """
    if target_h < 1 or target_w < 1:
        raise InvalidArgumentError("resize target must be at least 1x1")
    if (target_h, target_w) == (img.height, img.width):
        return img
    src_y = np.clip(
        (np.arange(target_h, dtype=np.float64) + 0.5) * (img.height / target_h) - 0.5,
        0.0, img.height - 1.0,
    )
    src_x = np.clip(
        (np.arange(target_w, dtype=np.float64) + 0.5) * (img.width / target_w) - 0.5,
        0.0, img.width - 1.0,
    )
    y0 = np.floor(src_y).astype(np.intp)
    x0 = np.floor(src_x).astype(np.intp)
    y1 = np.minimum(y0 + 1, img.height - 1)
    x1 = np.minimum(x0 + 1, img.width - 1)
    fy = (src_y - y0)[:, None]
    fx = (src_x - x0)[None, :]
    out = np.empty((img.channels, target_h, target_w), dtype=np.float32)
    for c, plane in enumerate(img.chw().astype(np.float64)):
        top = plane[np.ix_(y0, x0)] * (1 - fx) + plane[np.ix_(y0, x1)] * fx
        bot = plane[np.ix_(y1, x0)] * (1 - fx) + plane[np.ix_(y1, x1)] * fx
        out[c] = top * (1 - fy) + bot * fy
    return ImageRecord(img.id, img.channels, target_h, target_w, out.reshape(-1))
