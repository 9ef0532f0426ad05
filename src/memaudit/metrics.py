"""Secondary similarity metrics and distribution metrics.

SSIM and mutual information compare image pairs (slower than correlation
by an order of magnitude or two, which is why they are not the primary
audit signal); FID and Inception Score summarize whole sets from
externally produced embedding / class-probability files. No neural
network lives here: the statistics are the implementable content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ImageRecord, check_same_shape
from .errors import InvalidArgumentError
from .ingest import EmbeddingSet


# SSIM's stabilizers C1 = (0.01 L)^2 and C2 = (0.03 L)^2 of the luminance
# and contrast terms, for pixel values of dynamic range L = 255.
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2

DEFAULT_MI_BINS = 64
DEFAULT_IS_SPLITS = 10


@dataclass(frozen=True)
class SsimParams:
    """The Gaussian window of mean SSIM: odd size and sigma in pixels."""

    window: int = 11
    sigma: float = 1.5

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise InvalidArgumentError("window must be an odd positive integer")
        if self.sigma <= 0:
            raise InvalidArgumentError("sigma must be positive")


def gaussian_kernel(window: int, sigma: float) -> np.ndarray:
    """Normalized Gaussian of ``window`` taps, centred, of std ``sigma``."""
    half = (window - 1) / 2.0
    x = np.arange(window, dtype=np.float64) - half
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


# Outputs per band product. A band spans FILTER_STEP + taps - 1 inputs, so
# it costs (FILTER_STEP + taps - 1) / taps times the multiply-adds of a
# direct correlation, at GEMM speed. A product takes at most
# BAND_PRODUCT_MACS // (FILTER_STEP * span) input rows, so it makes at most
# BAND_PRODUCT_MACS multiply-adds, which OpenBLAS runs on the calling thread
# (its default GEMM_MULTITHREAD_THRESHOLD, 4 x 65,536): the filter never
# wakes the library's threads, so pools of filtering threads
# (core.pool_map) never run beside them. With two OpenBLAS 0.3.31 threads
# on a 2-core x86-64, a 16 x 64 by 64 x 256 product (2.6e5) ran at CPU/wall
# 1.1 and a 32 x 80 by 80 x 256 one (6.6e5) at 2.0. Within the bound, 16
# was as fast as 12, 24 or 32 on 5 x 256 x 256 planes at 49 taps, and 8
# almost twice as slow. FILTER_GROUP (512 KiB of float64) caps the planes
# filtered together, and so each group's intermediate: with 8 MiB groups a
# 5 x 256 x 256 call freed 5 MB of temporaries, which the C allocator gave
# back and page-faulted in again on the next call (7.4-7.9 ms a call
# against 4.0-4.4 ms).
FILTER_STEP = 16
BAND_PRODUCT_MACS = 65_536 * 4
FILTER_GROUP = 1 << 16


def _band(kernel: np.ndarray, n_out: int) -> np.ndarray:
    """(n_out, n_out + taps - 1) Toeplitz band: row q holds the kernel at
    columns q .. q + taps - 1, so ``x @ band.T`` correlates x's rows."""
    taps = kernel.size
    n_in = n_out + taps - 1
    rows = np.zeros((n_out, n_in + 1))
    rows[:, :taps] = kernel
    return rows.reshape(-1)[: n_out * n_in].reshape(n_out, n_in)


def _correlate_rows(x: np.ndarray, band: np.ndarray, valid: bool, out: np.ndarray) -> np.ndarray:
    """Correlate the rows of every plane of the stack x, (planes, rows,
    inputs), with the kernel in ``band``, into out, (planes, outputs per
    row, rows): each plane's result transposed. Inputs outside a row are
    zeros. Every product with the band makes up to band.shape[0] outputs
    of at most BAND_PRODUCT_MACS // band.size rows of each plane. The
    band positions whose inputs all lie inside the rows take one product
    call for every plane; each edge position takes its own, with the band
    cut to the inputs inside, so no product sums a term for an outside
    input."""
    step, span = band.shape
    taps, (planes, n_rows, n_in), n_out = span - step + 1, x.shape, out.shape[1]
    offset = 0 if valid else taps // 2
    first = -(-offset // step) * step  # the first inner position
    inner = max(0, min((n_in - span + offset - first) // step + 1, (n_out - first) // step))
    if inner:
        windows = sliding_window_view(x, span, axis=2)[:, :, first - offset :: step][:, :, :inner]
        windows = windows.transpose(0, 2, 3, 1)  # (planes, inner, span, rows)
        dest = out[:, first : first + inner * step].reshape(planes, inner, step, n_rows)
    edges = [o for o in range(0, n_out, step) if not first <= o < first + inner * step]
    chunk = max(1, BAND_PRODUCT_MACS // band.size)
    for r in range(0, n_rows, chunk):
        rows = slice(r, r + chunk)
        if inner:
            np.matmul(band, windows[..., rows], out=dest[..., rows])
        for o in edges:
            m = min(step, n_out - o)
            lo = o - offset  # input column under the band's first column
            a, b = max(lo, 0), min(lo + m + taps - 1, n_in)
            np.matmul(
                band[:m, a - lo : b - lo], x[:, rows, a:b].transpose(0, 2, 1),
                out=out[:, o : o + m, rows],
            )
    return out


def gaussian_filter(planes, kernel: np.ndarray, valid: bool = False) -> np.ndarray:
    """Separable correlation of the last two axes of ``planes`` with
    ``kernel``, as BLAS products with band matrices: B_h @ P @ B_w.T.

    Outside the image the input is zero, and the kernel's centre is tap
    ``taps // 2``. With ``valid`` only the outputs whose window lies
    inside the image are kept, (H - taps + 1) x (W - taps + 1) of them.
    Leading axes are any stack of planes.

    One band of FILTER_STEP rows, built once per call, is slid along each
    axis of groups of planes of at most FILTER_GROUP values (one plane at
    least). Each product with it covers that many outputs and at most
    BAND_PRODUCT_MACS multiply-adds, so that the BLAS library runs it on
    the calling thread (for kernels of at most 16,369 taps, whose band
    fits the bound on one input row).
    """
    planes = np.asarray(planes, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64).reshape(-1)
    if planes.ndim < 2 or kernel.size < 1:
        raise InvalidArgumentError("need planes of at least 2 axes and a kernel")
    *lead, height, width = planes.shape
    shrink = kernel.size - 1 if valid else 0
    out = np.empty((*lead, max(height - shrink, 0), max(width - shrink, 0)))
    if out.size == 0:
        return out
    stack = planes.reshape(-1, height, width)
    flat_out = out.reshape(-1, *out.shape[-2:])
    band = _band(kernel, FILTER_STEP)
    group = max(1, FILTER_GROUP // (height * width))
    for g in range(0, len(stack), group):
        part = stack[g : g + group]
        by_col = np.empty((len(part), out.shape[-1], height))
        _correlate_rows(part, band, valid, by_col)
        _correlate_rows(by_col, band, valid, flat_out[g : g + group])
    return out


def ssim(a: ImageRecord, b: ImageRecord, params: Optional[SsimParams] = None) -> float:
    """Mean SSIM over all valid window positions (no padding).

    The Gaussian-windowed means of x, y, x², y² and xy of every channel
    come from one `gaussian_filter` call in valid mode over the stack of
    5 x C planes: B_h @ P @ B_w.T, with the window's band matrices built
    once. Multi-channel images are scored per channel and averaged.
    Images smaller than the window are rejected.
    """
    params = params or SsimParams()
    check_same_shape(a, b)
    if a.height < params.window or a.width < params.window:
        raise InvalidArgumentError(
            f"image {a.height}x{a.width} smaller than {params.window}-pixel window"
        )
    x = a.chw().astype(np.float64)
    y = b.chw().astype(np.float64)
    kernel = gaussian_kernel(params.window, params.sigma)
    mu_x, mu_y, xx, yy, xy = gaussian_filter(
        np.stack([x, y, x * x, y * y, x * y]), kernel, valid=True
    )
    xx -= mu_x * mu_x
    yy -= mu_y * mu_y
    xy -= mu_x * mu_y
    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * xy + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (xx + yy + SSIM_C2)
    return float(np.mean((num / den).reshape(a.channels, -1).mean(axis=1)))


def _bin_indices(values: np.ndarray, bins: int) -> Optional[np.ndarray]:
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return None  # constant image: a single occupied bin
    idx = np.floor((values - lo) * (bins / (hi - lo))).astype(np.intp)
    return np.minimum(idx, bins - 1)


def mutual_information(a: ImageRecord, b: ImageRecord, bins: int = DEFAULT_MI_BINS) -> float:
    """Mutual information in bits from a joint intensity histogram.

    Each image is binned over its own [min, max] range with ``bins``
    equal-width bins (maxima land in the last bin); a constant image has
    a single occupied bin, so its MI is 0 by convention.
    """
    check_same_shape(a, b)
    if bins < 2:
        raise InvalidArgumentError("bins must be at least 2")
    ia = _bin_indices(a.pixels.astype(np.float64), bins)
    ib = _bin_indices(b.pixels.astype(np.float64), bins)
    if ia is None or ib is None:
        return 0.0
    joint = np.bincount(ia * bins + ib, minlength=bins * bins).astype(np.float64)
    joint = joint.reshape(bins, bins) / joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    outer = np.outer(pa, pb)
    return float(np.sum(joint[nz] * np.log2(joint[nz] / outer[nz])))


@dataclass(frozen=True)
class GaussianStats:
    """Mean vector and unbiased covariance of an embedding set."""

    mu: np.ndarray
    sigma: np.ndarray
    n: int

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=np.float64).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.shape != (mu.size, mu.size):
            raise InvalidArgumentError(
                f"sigma shape {sigma.shape} does not match mu dim {mu.size}"
            )
        if self.n < 2:
            raise InvalidArgumentError("need at least 2 samples")
        if np.abs(sigma - sigma.T).max() > 1e-9:
            raise InvalidArgumentError("sigma must be symmetric within 1e-9")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return self.mu.size


def gaussian_stats(emb: EmbeddingSet) -> GaussianStats:
    """Column means plus unbiased (N-1) sample covariance."""
    n = len(emb)
    if n < 2:
        raise InvalidArgumentError(f"need at least 2 rows, got {n}")
    rows = emb.rows.astype(np.float64)
    mu = rows.mean(axis=0)
    centered = rows - mu
    sigma = centered.T @ centered / (n - 1)
    sigma = (sigma + sigma.T) / 2.0
    return GaussianStats(mu, sigma, n)


def matrix_sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Negative eigenvalues from round-off are clamped at zero, so the
    result R satisfies ||R @ R - S||_F <= 1e-6 * (1 + ||S||_F) for any
    matrix that is PSD up to noise. Asymmetry beyond 1e-8 is rejected.
    """
    s = np.asarray(matrix, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got {s.shape}")
    if np.abs(s - s.T).max() > 1e-8 * max(1.0, float(np.abs(s).max())):
        raise InvalidArgumentError("matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh((s + s.T) / 2.0)
    eigvals = np.maximum(eigvals, 0.0)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def fid(g1: GaussianStats, g2: GaussianStats) -> float:
    """Frechet distance between two Gaussians.

    ||mu1 - mu2||^2 + tr(sigma1 + sigma2 - 2 * sqrt(sigma1^1/2 sigma2
    sigma1^1/2)), using the symmetrized product inside the square root
    for numerical stability. Tiny negative round-off (> -1e-6) clamps
    to 0.
    """
    if g1.dim != g2.dim:
        raise InvalidArgumentError(f"dim mismatch: {g1.dim} vs {g2.dim}")
    root1 = matrix_sqrt_psd(g1.sigma)
    inner = root1 @ g2.sigma @ root1
    cross = matrix_sqrt_psd((inner + inner.T) / 2.0)
    delta = g1.mu - g2.mu
    value = float(
        delta @ delta + np.trace(g1.sigma) + np.trace(g2.sigma) - 2.0 * np.trace(cross)
    )
    if value < 0.0:
        if value < -1e-6:
            raise InvalidArgumentError(
                f"FID came out {value}; inputs are not valid covariances"
            )
        value = 0.0
    return value


def inception_score(probs: EmbeddingSet, splits: int = DEFAULT_IS_SPLITS) -> tuple[float, float]:
    """Inception Score from per-sample class-probability rows.

    Per split (contiguous, near-equal): IS = exp(mean KL(p(y|x) || mean
    p(y|x))), natural log. Returns the mean and population standard
    deviation over splits; fewer than 2*splits rows fall back to one
    split. Rows must be non-negative and sum to 1 within 1e-5.
    """
    if splits < 1:
        raise InvalidArgumentError("splits must be at least 1")
    rows = probs.rows.astype(np.float64)
    sums = rows.sum(axis=1)
    bad = np.flatnonzero((np.abs(sums - 1.0) > 1e-5) | (rows < 0).any(axis=1))
    if bad.size:
        raise InvalidArgumentError(
            f"row {probs.ids[bad[0]]!r} is not a probability vector "
            f"(sum {sums[bad[0]]:.6f})"
        )
    n = rows.shape[0]
    if n < 2 * splits:
        splits = 1
    scores = []
    for chunk in np.array_split(rows, splits):
        marginal = chunk.mean(axis=0)
        nz = chunk > 0
        logs = np.zeros_like(chunk)
        logs[nz] = np.log(chunk[nz]) - np.log(marginal[np.nonzero(nz)[1]])
        kl = (chunk * logs).sum(axis=1)
        scores.append(float(np.exp(kl.mean())))
    return float(np.mean(scores)), float(np.std(scores))
