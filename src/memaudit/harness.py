"""Planted-memorization validation.

Trained generative models are not reproducible desk-side, so detector
quality is validated the other way around: build a "synthetic" set with
known copies, noisy copies, shifted copies and fresh images, audit it,
and score precision/recall against the planted ground truth.

All randomness comes from the documented splitmix64 stream in `_rng`;
image i uses the derived stream seed mix64(run seed) XOR i, so outputs
are bit-identical for a given config regardless of generation order.
So the images of `generate_train_set` and the outputs of `plant` are
made by the calling thread and a helper thread per further CPU this
process may run on (`core.pool_map`; on one CPU, no thread starts) and
collected in order: every set and ground truth is the same at any CPU
count. Each worker holds one image in flight.
The ground truth (ids, kinds, sources) comes from integer draws only and
is the same on any host; the pixels of noisy and fresh images come from
normals, whose last bits depend on numpy's SIMD dispatch and libm.
The run seed goes through the mix64 finalizer first because raw nearby
seeds (7 and 8, say) would otherwise share per-image streams across runs
and silently plant duplicates. Fresh images are
zero-padded separable Gaussian blurs (sigma 8 px, radius 24) of white
noise, moment-matched per channel to the training set: unsmoothed noise
would be trivially uncorrelated with everything and make baselines
uninformative. The blur is `metrics.gaussian_filter`, products with a
49-tap band matrix along each axis, applied to all channels of an image
in one call. Each product is small enough that the BLAS library runs it
on the calling worker (metrics.BAND_PRODUCT_MACS), so the pool never
runs beside the library's own threads.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._rng import SplitMix64, mix64
from .core import Dataset, ImageRecord, pool_map
from .errors import FormatError, InvalidArgumentError
from .ingest import atomic_write
from .metrics import gaussian_filter, gaussian_kernel
from .report import FlaggedPair

FRESH_FIELD_SIGMA = 8.0
# Per-channel intensity mean and std of generate_train_set's images.
TRAIN_MEAN = 127.0
TRAIN_STD = 40.0

KINDS = ("copy", "noisy", "shift", "fresh")


@dataclass(frozen=True)
class PlantConfig:
    """How to compose a planted synthetic set.

    Kind counts come from largest-remainder rounding of the fractions
    over n_output; whatever p_copy + p_noisy + p_shift leaves over
    becomes fresh images. noise_sigma is on the 0-255 intensity scale.
    """

    n_output: int
    p_copy: float = 0.0
    p_noisy: float = 0.0
    p_shift: float = 0.0
    noise_sigma: float = 5.0
    shift_pixels: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.n_output < 1:
            raise InvalidArgumentError("n_output must be positive")
        probs = (self.p_copy, self.p_noisy, self.p_shift)
        if any(p < 0 or p > 1 for p in probs) or sum(probs) > 1.0 + 1e-12:
            raise InvalidArgumentError(
                "p_copy, p_noisy, p_shift must lie in [0, 1] and sum to <= 1"
            )
        if self.noise_sigma < 0:
            raise InvalidArgumentError("noise_sigma must be >= 0")
        if self.shift_pixels < 0:
            raise InvalidArgumentError("shift_pixels must be >= 0")

    def kind_counts(self) -> dict[str, int]:
        """Largest-remainder rounding; ties resolved in KINDS order."""
        fracs = {
            "copy": self.p_copy,
            "noisy": self.p_noisy,
            "shift": self.p_shift,
        }
        fracs["fresh"] = 1.0 - sum(fracs.values())
        quotas = {k: fracs[k] * self.n_output for k in KINDS}
        counts = {k: int(np.floor(quotas[k] + 1e-9)) for k in KINDS}
        leftover = self.n_output - sum(counts.values())
        order = sorted(
            KINDS, key=lambda k: (-(quotas[k] - counts[k]), KINDS.index(k))
        )
        for k in order[:leftover]:
            counts[k] += 1
        return counts


@dataclass(frozen=True)
class GroundTruthEntry:
    output_id: str
    kind: str
    source_id: str  # empty for fresh images


@dataclass(frozen=True)
class GroundTruth:
    entries: tuple[GroundTruthEntry, ...]

    def by_id(self) -> dict[str, GroundTruthEntry]:
        return {e.output_id: e for e in self.entries}

    def kind_counts(self) -> dict[str, int]:
        counts = {k: 0 for k in KINDS}
        for e in self.entries:
            counts[e.kind] += 1
        return counts


def _smooth_fields(rng: SplitMix64, channels: int, height: int, width: int) -> np.ndarray:
    """Zero-padded separable Gaussian blurs of splitmix white noise, one
    field per channel, filtered together by one `gaussian_filter` call."""
    radius = int(np.ceil(3.0 * FRESH_FIELD_SIGMA))
    kernel = gaussian_kernel(2 * radius + 1, FRESH_FIELD_SIGMA)
    noise = np.empty((channels, height, width))
    for plane in noise:
        plane.reshape(-1)[:] = rng.gaussian(height * width)
    return gaussian_filter(noise, kernel)


def _channel_moments(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std over the whole training set, one pass: each
    image's sums on the pool, added up in image order."""
    c, h, w = train.shape

    def sums(img: ImageRecord) -> tuple[np.ndarray, np.ndarray]:
        chw = img.chw().astype(np.float64)
        return chw.sum(axis=(1, 2)), (chw * chw).sum(axis=(1, 2))

    total = np.zeros(c)
    total_sq = np.zeros(c)
    for image_sum, image_sq in pool_map(sums, train.images):
        total += image_sum
        total_sq += image_sq
    count = len(train) * h * w
    means = total / count
    variances = np.maximum(total_sq / count - means * means, 0.0)
    return means, np.sqrt(variances)


def _fresh_image(
    rng: SplitMix64, shape, means: np.ndarray, stds: np.ndarray
) -> np.ndarray:
    """Smooth fields moment-matched per channel to means/stds and clipped
    to [0, 255], all in place on the filtered stack."""
    fields = _smooth_fields(rng, *shape)
    for field, mean, std in zip(fields, means, stds):
        field_std = field.std()
        if field_std > 0:
            field -= field.mean()
            field /= field_std
            field *= std
            field += mean
        else:
            field[...] = mean
    return np.clip(fields, 0.0, 255.0, out=fields)


_SHIFT_DIRECTIONS = ((0, 1), (0, -1), (1, 0), (-1, 0))


def _shifted(pixels: np.ndarray, shape, dy: int, dx: int) -> np.ndarray:
    c, h, w = shape
    src = pixels.reshape(c, h, w)
    out = np.zeros_like(src)
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[:, ys, xs] = src[:, ys_src, xs_src]
    return out


def plant(train: Dataset, cfg: PlantConfig) -> tuple[Dataset, GroundTruth]:
    """Build a synthetic dataset with known planted memorization.

    Output order is copies, then noisy copies, then shifted copies, then
    fresh images; sources are drawn per output from its own derived
    stream. Copies are bit-identical; noisy adds clamped Gaussian noise;
    shift translates by shift_pixels in a random cardinal direction with
    zero fill; fresh is a moment-matched smooth field.
    """
    if len(train) == 0:
        raise InvalidArgumentError("train dataset is empty")
    counts = cfg.kind_counts()
    kinds = [k for k in KINDS for _ in range(counts[k])]
    shape = train.shape
    means = stds = None
    if counts["fresh"]:
        means, stds = _channel_moments(train)

    width = max(4, len(str(cfg.n_output - 1)))
    run_seed = mix64(cfg.seed)

    def output(i: int) -> tuple[ImageRecord, GroundTruthEntry]:
        kind, rng = kinds[i], SplitMix64(run_seed ^ i)
        out_id = f"synth_{i:0{width}d}"
        source_id = ""
        if kind == "fresh":
            pixels = _fresh_image(rng, shape, means, stds).reshape(-1)
        else:
            src = train.images[rng.below(len(train))]
            source_id = src.id
            if kind == "copy":
                pixels = src.pixels
            elif kind == "noisy":
                pixels = rng.gaussian(src.pixels.size)
                pixels *= cfg.noise_sigma
                pixels += src.pixels
                np.clip(pixels, 0.0, 255.0, out=pixels)
            else:  # shift
                dy, dx = _SHIFT_DIRECTIONS[rng.below(4)]
                pixels = _shifted(
                    src.pixels, shape, dy * cfg.shift_pixels, dx * cfg.shift_pixels
                ).reshape(-1)
        image = ImageRecord(out_id, *shape, np.asarray(pixels, dtype=np.float32))
        return image, GroundTruthEntry(out_id, kind, source_id)

    images, entries = zip(*pool_map(output, range(len(kinds))))
    dataset = Dataset(f"planted-{cfg.seed}", "synthetic", images)
    return dataset, GroundTruth(entries)


def generate_train_set(
    n: int,
    channels: int,
    height: int,
    width: int,
    seed: int,
    name: str = "generated-train",
    role: str = "train",
) -> Dataset:
    """Training-like dataset of smooth fields (the harness's null model),
    of per-channel mean TRAIN_MEAN and std TRAIN_STD.

    Use a seed different from any PlantConfig seed so planted fresh
    images are not replicas of the training images.
    """
    if n < 1:
        raise InvalidArgumentError("n must be positive")
    means = np.full(channels, TRAIN_MEAN)
    stds = np.full(channels, TRAIN_STD)
    run_seed = mix64(seed)

    def image(i: int) -> ImageRecord:
        rng = SplitMix64(run_seed ^ i)
        pixels = _fresh_image(rng, (channels, height, width), means, stds)
        return ImageRecord(
            f"train_{i:05d}", channels, height, width,
            pixels.reshape(-1).astype(np.float32),
        )

    return Dataset(name, role, pool_map(image, range(n)))


# ---------------------------------------------------------------------------
# Detector scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorScore:
    """Precision/recall of a flagging run against planted ground truth.

    precision is None when nothing was flagged; recall is None when no
    positives were planted. source_attribution is the fraction of
    flagged positives whose flagged reference is the true source.
    """

    n_flagged: int
    n_positive: int
    true_positives: int
    precision: Optional[float]
    recall: Optional[float]
    per_kind_recall: dict[str, float]
    source_attribution: Optional[float]


def evaluate_detector(
    flags: Sequence[FlaggedPair],
    truth: GroundTruth,
    positive_kinds: Sequence[str] = ("copy", "noisy"),
) -> DetectorScore:
    """Score flagged pairs against ground truth.

    Positives are outputs whose kind is in positive_kinds. A flagged
    positive counts toward recall regardless of which reference it
    matched; source attribution is reported separately.
    """
    by_id = truth.by_id()
    positive_kinds = set(positive_kinds)
    unknown = [f.query_id for f in flags if f.query_id not in by_id]
    if unknown:
        raise InvalidArgumentError(f"flags reference unknown ids: {unknown[:5]}")

    flagged = {}
    for f in flags:
        flagged.setdefault(f.query_id, f)
    positives = {e.output_id for e in truth.entries if e.kind in positive_kinds}
    tp_ids = positives & flagged.keys()

    kind_totals = truth.kind_counts()
    per_kind: dict[str, float] = {}
    for kind in KINDS:
        if kind_totals[kind]:
            hit = sum(
                1 for e in truth.entries if e.kind == kind and e.output_id in flagged
            )
            per_kind[kind] = hit / kind_totals[kind]

    attributed = None
    sourced = [qid for qid in tp_ids if by_id[qid].source_id]
    if sourced:
        correct = sum(
            1 for qid in sourced if flagged[qid].reference_id == by_id[qid].source_id
        )
        attributed = correct / len(sourced)

    return DetectorScore(
        n_flagged=len(flagged),
        n_positive=len(positives),
        true_positives=len(tp_ids),
        precision=len(tp_ids) / len(flagged) if flagged else None,
        recall=len(tp_ids) / len(positives) if positives else None,
        per_kind_recall=per_kind,
        source_attribution=attributed,
    )


# ---------------------------------------------------------------------------
# Ground-truth files
# ---------------------------------------------------------------------------


def save_ground_truth(truth: GroundTruth, path) -> None:
    data = [asdict(e) for e in truth.entries]
    atomic_write(path, (json.dumps(data, indent=2) + "\n").encode("utf-8"))


def load_ground_truth(path) -> GroundTruth:
    """The ground truth of a file save_ground_truth wrote. Anything else
    (bad UTF-8 or JSON, not a list, an entry that is not an object of the
    three string fields, a kind not in KINDS) raises FormatError naming
    the file."""
    try:
        data = json.loads(Path(path).read_text("utf-8"))
        if not isinstance(data, list):
            raise ValueError(f"a {type(data).__name__}, not a list of entries")
        entries = tuple(GroundTruthEntry(**e) for e in data)
        for e in entries:
            if not all(isinstance(v, str) for v in asdict(e).values()) or e.kind not in KINDS:
                raise ValueError(f"entry {asdict(e)!r}: fields must be strings, kind one of {KINDS}")
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: not a ground truth: {type(exc).__name__}: {exc}") from None
    return GroundTruth(entries)
