import numpy as np
import pytest

from memaudit.core import ImageRecord
from memaudit.errors import InvalidArgumentError
from memaudit.ingest import EmbeddingSet
from memaudit import metrics
from memaudit.metrics import (
    GaussianStats,
    SsimParams,
    fid,
    gaussian_filter,
    gaussian_kernel,
    gaussian_stats,
    inception_score,
    matrix_sqrt_psd,
    mutual_information,
    ssim,
)

from conftest import image


def noise_image(seed, shape=(16, 16), id="n", lo=0, hi=256):
    rng = np.random.default_rng(seed)
    return image(rng.integers(lo, hi, shape).astype(np.float32), id=id)


class TestSsim:
    def test_self_similarity(self):
        img = noise_image(0)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_constant_images_analytic(self):
        a = image(np.zeros((16, 16), np.float32), id="black")
        b = image(np.full((16, 16), 255.0, np.float32), id="white")
        # (2*0*255 + C1) / (0 + 255^2 + C1) with C1 = (0.01*255)^2
        expected = 6.5025 / (255.0**2 + 6.5025)
        got = ssim(a, b)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.0000e-4, abs=1e-8)

    def test_symmetry(self):
        for seed in range(5):
            a, b = noise_image(seed, id="a"), noise_image(seed + 50, id="b")
            assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_bounded(self):
        for seed in range(5):
            value = ssim(noise_image(seed, id="a"), noise_image(seed + 9, id="b"))
            assert -1.0 <= value <= 1.0

    def test_multichannel_averages(self):
        rng = np.random.default_rng(3)
        da = rng.integers(0, 256, (2, 16, 16)).astype(np.float32)
        db = rng.integers(0, 256, (2, 16, 16)).astype(np.float32)
        per_channel = np.mean([
            ssim(image(da[c], id="a"), image(db[c], id="b")) for c in range(2)
        ])
        assert ssim(image(da, id="a"), image(db, id="b")) == pytest.approx(per_channel, abs=1e-12)

    def test_smaller_than_window_rejected(self):
        a = image(np.zeros((8, 8), np.float32), id="s")
        with pytest.raises(InvalidArgumentError, match="window"):
            ssim(a, a)

    def test_even_window_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SsimParams(window=10)


def scipy_filter(planes, kernel):
    """Zero-padded separable correlation of the last two axes by scipy."""
    ndimage = pytest.importorskip("scipy.ndimage")
    out = ndimage.correlate1d(planes, kernel, axis=-2, mode="constant")
    return ndimage.correlate1d(out, kernel, axis=-1, mode="constant")


def assert_close(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


class TestGaussianFilter:
    SHAPES = {
        "square": (64, 64),
        "wide": (13, 70),
        "tall": (70, 13),
        "2-lead": (2, 3, 40, 50),
        "3-lead": (2, 2, 3, 9, 130),
        "4-lead": (1, 2, 2, 2, 17, 11),
        "several-groups": (100, 20, 20),
    }

    @pytest.mark.parametrize("taps", [1, 2, 3, 4, 11, 30, 33, 49])
    @pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
    def test_matches_scipy(self, taps, shape):
        rng = np.random.default_rng(taps)
        planes = rng.standard_normal(shape)
        kernel = rng.random(taps) + 0.1
        want = scipy_filter(planes, kernel)
        assert_close(gaussian_filter(planes, kernel), want)
        # valid: the outputs whose window lies inside the image
        lo, (h, w) = taps // 2, shape[-2:]
        valid = gaussian_filter(planes, kernel, valid=True)
        if h < taps or w < taps:
            assert valid.shape == (*shape[:-2], max(h - taps + 1, 0), max(w - taps + 1, 0))
        else:
            assert_close(valid, want[..., lo : lo + h - taps + 1, lo : lo + w - taps + 1])

    def test_kernel_wider_than_image(self):
        planes = np.random.default_rng(4).standard_normal((8, 8))
        kernel = gaussian_kernel(49, 8.0)
        assert_close(gaussian_filter(planes, kernel), scipy_filter(planes, kernel))
        assert gaussian_filter(planes, kernel, valid=True).shape == (0, 0)

    def test_integer_input_is_filtered_in_float64(self):
        planes = np.arange(12 * 9).reshape(12, 9)
        kernel = gaussian_kernel(5, 1.0)
        assert_close(gaussian_filter(planes, kernel), scipy_filter(planes * 1.0, kernel))

    def test_band_steps_and_groups_give_the_same_values(self, monkeypatch):
        planes = np.random.default_rng(6).standard_normal((3, 2, 45, 37))
        kernel = gaussian_kernel(11, 1.5)
        want = gaussian_filter(planes, kernel)
        monkeypatch.setattr(metrics, "FILTER_STEP", 7)
        monkeypatch.setattr(metrics, "FILTER_GROUP", 1)
        assert_close(gaussian_filter(planes, kernel), want)

    @pytest.mark.parametrize("shape, taps, valid", [
        ((5, 256, 256), 49, False),  # the harness's fresh images
        ((5, 5, 64, 64), 11, True),  # SSIM's stack for a pair of 5x64x64 images
        ((1, 1024, 1024), 49, False),
    ], ids=["harness", "ssim", "wide-plane"])
    def test_band_products_within_bound(self, monkeypatch, shape, taps, valid):
        """Every band product makes at most BAND_PRODUCT_MACS multiply-adds,
        OpenBLAS's bound for running a GEMM on the calling thread."""
        planes = np.random.default_rng(taps).standard_normal(shape)
        kernel = gaussian_kernel(taps, taps / 6.0)
        want = gaussian_filter(planes, kernel, valid=valid)
        sizes, matmul = [], np.matmul

        def counted(a, b, out):
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(metrics.np, "matmul", counted)
        got = gaussian_filter(planes, kernel, valid=valid)
        assert metrics.BAND_PRODUCT_MACS <= 65_536 * 4
        assert sizes and max(sizes) <= metrics.BAND_PRODUCT_MACS
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("planes, kernel", [
        (np.zeros(5), np.ones(3)),
        (np.zeros((5, 5)), np.ones(0)),
    ], ids=["one-axis", "no-taps"])
    def test_bad_arguments_rejected(self, planes, kernel):
        with pytest.raises(InvalidArgumentError):
            gaussian_filter(planes, kernel)


def per_channel_ssim(x, y, params=SsimParams()):
    """SSIM as each channel's own five zero-padded scipy filters, cropped
    to the valid region, then averaged over channels."""
    kernel = gaussian_kernel(params.window, params.sigma)
    r = params.window // 2
    values = []
    for xc, yc in zip(x.astype(np.float64), y.astype(np.float64)):
        def mean(plane):
            return scipy_filter(plane, kernel)[r : plane.shape[0] - r, r : plane.shape[1] - r]
        mu_x, mu_y = mean(xc), mean(yc)
        xx = mean(xc * xc) - mu_x * mu_x
        yy = mean(yc * yc) - mu_y * mu_y
        xy = mean(xc * yc) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + metrics.SSIM_C1) * (2.0 * xy + metrics.SSIM_C2)
        den = (mu_x * mu_x + mu_y * mu_y + metrics.SSIM_C1) * (xx + yy + metrics.SSIM_C2)
        values.append(float(np.mean(num / den)))
    return float(np.mean(values))


class TestSsimAgainstPerChannelFilters:
    @pytest.mark.parametrize("shape, params", [
        ((1, 16, 16), SsimParams()),
        ((5, 60, 60), SsimParams()),
        ((3, 40, 23), SsimParams(window=7, sigma=2.0)),
        ((2, 11, 11), SsimParams()),
    ], ids=["gray", "five-channel", "non-square", "window-sized"])
    def test_matches(self, shape, params):
        rng = np.random.default_rng(shape[1])
        x = rng.integers(0, 256, shape).astype(np.float32)
        y = np.clip(x + rng.normal(0, 30, shape), 0, 255).astype(np.float32)
        want = per_channel_ssim(x, y, params)
        assert ssim(image(x, id="x"), image(y, id="y"), params) == pytest.approx(want, abs=1e-12)


class TestMutualInformation:
    def test_two_value_self_is_one_bit(self):
        img = image([0.0, 255.0] * 8, id="bi")
        assert mutual_information(img, img) == pytest.approx(1.0, abs=1e-9)

    def test_constant_partner_is_zero(self):
        a = noise_image(1, id="a")
        c = image(np.full((16, 16), 7.0, np.float32), id="c")
        assert mutual_information(a, c) == 0.0
        assert mutual_information(c, c) == 0.0

    def test_symmetry(self):
        for seed in range(5):
            a, b = noise_image(seed, id="a"), noise_image(seed + 20, id="b")
            assert mutual_information(a, b) == pytest.approx(
                mutual_information(b, a), abs=1e-12
            )

    def test_self_mi_equals_marginal_entropy(self):
        for seed in range(3):
            img = noise_image(seed, id="h")
            bins = 32
            vals = img.pixels.astype(np.float64)
            idx = np.floor(
                (vals - vals.min()) * (bins / (vals.max() - vals.min()))
            ).astype(int)
            idx = np.minimum(idx, bins - 1)
            p = np.bincount(idx, minlength=bins) / vals.size
            entropy = -np.sum(p[p > 0] * np.log2(p[p > 0]))
            assert mutual_information(img, img, bins=bins) == pytest.approx(
                entropy, abs=1e-9
            )

    def test_non_negative(self):
        for seed in range(5):
            assert mutual_information(
                noise_image(seed, id="a"), noise_image(seed + 31, id="b")
            ) >= 0.0

    def test_bins_validated(self):
        a = noise_image(2)
        with pytest.raises(InvalidArgumentError):
            mutual_information(a, a, bins=1)


class TestGaussianStats:
    def test_hand_example(self):
        emb = EmbeddingSet(("a", "b"), 2, np.array([[0, 0], [2, 2]], np.float32))
        stats = gaussian_stats(emb)
        np.testing.assert_allclose(stats.mu, [1.0, 1.0])
        np.testing.assert_allclose(stats.sigma, [[2.0, 2.0], [2.0, 2.0]])

    def test_identical_rows_zero_sigma(self):
        emb = EmbeddingSet(("a", "b", "c"), 2, np.ones((3, 2), np.float32))
        np.testing.assert_allclose(gaussian_stats(emb).sigma, np.zeros((2, 2)))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(0, 1, (10, 3)).astype(np.float32)
        ids = tuple(f"r{i}" for i in range(10))
        perm = rng.permutation(10)
        s1 = gaussian_stats(EmbeddingSet(ids, 3, rows))
        s2 = gaussian_stats(EmbeddingSet(tuple(ids[p] for p in perm), 3, rows[perm]))
        np.testing.assert_allclose(s1.mu, s2.mu, atol=1e-12)
        np.testing.assert_allclose(s1.sigma, s2.sigma, atol=1e-12)

    def test_single_row_rejected(self):
        emb = EmbeddingSet(("a",), 2, np.ones((1, 2), np.float32))
        with pytest.raises(InvalidArgumentError):
            gaussian_stats(emb)


class TestMatrixSqrt:
    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(0, 1, (5, 5))
            s = a.T @ a
            r = matrix_sqrt_psd(s)
            err = np.linalg.norm(r @ r - s)
            assert err <= 1e-6 * (1 + np.linalg.norm(s))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidArgumentError, match="symmetric"):
            matrix_sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def gauss_1d(mu, var):
    return GaussianStats(np.array([mu]), np.array([[var]]), n=2)


class TestFid:
    def test_identical_distributions(self):
        rng = np.random.default_rng(6)
        emb = EmbeddingSet(
            tuple(f"r{i}" for i in range(20)), 4,
            rng.normal(0, 1, (20, 4)).astype(np.float32),
        )
        g = gaussian_stats(emb)
        assert fid(g, g) == pytest.approx(0.0, abs=1e-6)

    def test_mean_shift_1d(self):
        assert fid(gauss_1d(0, 1), gauss_1d(1, 1)) == pytest.approx(1.0, abs=1e-9)

    def test_variance_change_1d(self):
        assert fid(gauss_1d(0, 1), gauss_1d(0, 4)) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_and_non_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            e1 = EmbeddingSet(
                tuple(f"a{i}" for i in range(12)), 3,
                rng.normal(0, 1, (12, 3)).astype(np.float32),
            )
            e2 = EmbeddingSet(
                tuple(f"b{i}" for i in range(15)), 3,
                rng.normal(1, 2, (15, 3)).astype(np.float32),
            )
            g1, g2 = gaussian_stats(e1), gaussian_stats(e2)
            assert fid(g1, g2) == pytest.approx(fid(g2, g1), abs=1e-6)
            assert fid(g1, g2) >= 0.0

    def test_dim_mismatch(self):
        g1 = gauss_1d(0, 1)
        g2 = GaussianStats(np.zeros(2), np.eye(2), n=2)
        with pytest.raises(InvalidArgumentError):
            fid(g1, g2)


class TestInceptionScore:
    def test_uniform_rows(self):
        rows = np.full((30, 10), 0.1, np.float32)
        emb = EmbeddingSet(tuple(f"r{i}" for i in range(30)), 10, rows)
        mean, std = inception_score(emb)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_two_one_hot_rows(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
        emb = EmbeddingSet(("a", "b"), 2, rows)
        mean, _ = inception_score(emb, splits=1)
        assert mean == pytest.approx(2.0, abs=1e-9)

    def test_identical_one_hot_rows(self):
        rows = np.zeros((8, 5), np.float32)
        rows[:, 2] = 1.0
        emb = EmbeddingSet(tuple(f"r{i}" for i in range(8)), 5, rows)
        mean, _ = inception_score(emb, splits=1)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(8)
        raw = rng.random((40, 7))
        rows = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
        # float32 rounding moves row sums slightly off 1; renormalize in f64.
        rows64 = rows.astype(np.float64)
        rows = (rows64 / rows64.sum(axis=1, keepdims=True)).astype(np.float32)
        emb = EmbeddingSet(tuple(f"r{i}" for i in range(40)), 7, rows)
        mean, _ = inception_score(emb, splits=4)
        assert 1.0 - 1e-9 <= mean <= 7.0 + 1e-9

    def test_small_n_falls_back_to_one_split(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], np.float32)
        emb = EmbeddingSet(("a", "b", "c"), 2, rows)
        mean, std = inception_score(emb, splits=10)
        assert std == 0.0  # one split only

    def test_bad_row_named(self):
        rows = np.array([[0.9, 0.3], [0.5, 0.5]], np.float32)
        emb = EmbeddingSet(("weird", "fine"), 2, rows)
        with pytest.raises(InvalidArgumentError, match="weird"):
            inception_score(emb)
