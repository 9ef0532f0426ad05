import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from memaudit import core
from memaudit.core import (
    Dataset,
    ImageRecord,
    VolumeRecord,
    copy_channels,
    default_channel_mask,
    pearson,
    resolve_channel_mask,
    standardize_rows,
)
from memaudit.errors import InvalidArgumentError, UndefinedCorrelationError

from conftest import child, image


def standardized(img, channel_mask=None, mode="concat"):
    """standardize_rows on one image's selected channels, read as the
    engine reads them: (values, valid)."""
    mask = resolve_channel_mask(channel_mask, img.channels)
    rows = np.empty((1, len(mask), img.height * img.width))
    Dataset("one", "train", (img,)).read_rows(0, 1, rows, mask)
    values, valid = standardize_rows(rows, mode)
    return values[0], bool(valid[0])


class TestImageRecord:
    def test_basic_construction(self):
        img = image([[0, 1], [2, 3]], id="a")
        assert img.shape == (1, 2, 2)
        assert img.pixels.dtype == np.float32
        assert not img.pixels.flags.writeable

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ImageRecord("a", 1, 2, 2, np.zeros(3, np.float32))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ImageRecord("a", 1, 1, 2, np.array([1.0, np.nan], np.float32))

    def test_empty_id_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ImageRecord("", 1, 1, 1, np.zeros(1, np.float32))


class TestRecordChecks:
    """Images and volumes take the same four checks, with one message each."""

    FAULTS = {
        "empty-id": ("", 2, 4, "{kind} id must be non-empty"),
        "dimension": ("r", -1, 4, "{kind} 'r': dimensions must be positive"),
        "value-count": ("r", 2, 3, "{kind} 'r': expected 4 values, got 3"),
        "non-finite": ("r", 2, 4, "{kind} 'r': pixel values must be finite"),
    }

    @pytest.mark.parametrize("kind", ["image", "volume"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_refused_with_message(self, kind, fault):
        record_id, width, n_values, message = self.FAULTS[fault]
        values = np.arange(n_values, dtype=np.float32)
        if fault == "non-finite":
            values[2] = np.inf
        dims = (1, 2, width) if kind == "image" else (1, 1, 2, width)
        record = ImageRecord if kind == "image" else VolumeRecord
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message.format(kind=kind))}$"):
            record(record_id, *dims, values)


class TestDataset:
    def test_duplicate_ids_rejected(self):
        imgs = (image([1, 2], id="x"), image([3, 4], id="x"))
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            Dataset("d", "train", imgs)

    def test_mixed_shapes_rejected(self):
        imgs = (image([1, 2], id="a"), image([1, 2, 3], id="b"))
        with pytest.raises(InvalidArgumentError, match="mixed"):
            Dataset("d", "train", imgs)

    def test_bad_role_rejected(self):
        with pytest.raises(InvalidArgumentError, match="role"):
            Dataset("d", "validation", (image([1, 2], id="a"),))


class TestChannelMask:
    def test_five_channel_default_drops_last(self):
        assert default_channel_mask(5) == (0, 1, 2, 3)

    def test_other_counts_keep_all(self):
        assert default_channel_mask(1) == (0,)
        assert default_channel_mask(4) == (0, 1, 2, 3)

    def test_empty_mask_rejected(self):
        with pytest.raises(InvalidArgumentError):
            resolve_channel_mask([], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            resolve_channel_mask([0, 3], 3)


class TestCopyChannels:
    @pytest.mark.parametrize("channels", [
        (0, 1, 2, 3), (1, 2), (4,), (0, 1, 2, 3, 4), (0, 2), (1, 3, 4), (3, 1),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_rows_equal_the_per_channel_copy(self, channels, dtype):
        rng = np.random.default_rng(7)
        flats = [
            (rng.normal(size=5 * 6 * 7) * 100).astype(dtype) if dtype == np.float32
            else rng.integers(0, 256, 5 * 6 * 7).astype(dtype)
            for _ in range(3)
        ]
        out = np.full((3, len(channels), 42), np.nan)
        copy_channels(flats, out, channels)
        want = np.stack([flat.reshape(5, 42)[list(channels)].astype(np.float64) for flat in flats])
        assert out.tobytes() == want.tobytes()


class TestStandardize:
    def test_three_pixel_example(self):
        values, valid = standardized(image([1, 2, 3]))
        assert valid
        expected = np.array([-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)])
        np.testing.assert_allclose(values, expected, atol=1e-7)

    def test_constant_image_invalid(self):
        values, valid = standardized(image([7.0] * 6))
        assert not valid
        assert np.all(values == 0.0)

    def test_five_channel_mask_length(self):
        img = image(np.zeros((5, 16, 16)), id="b")
        img = image(np.arange(5 * 16 * 16).reshape(5, 16, 16), id="b")
        values, _ = standardized(img, {0, 1, 2, 3})
        assert values.size == 4 * 16 * 16

    def test_centering_and_norm_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 400))
            img = image(rng.normal(0, 100, n).astype(np.float32), id="r")
            values, valid = standardized(img)
            if not valid:
                continue
            assert abs(values.sum()) <= 1e-5 * n
            assert abs(np.linalg.norm(values) - 1.0) <= 1e-6

    def test_mean_mode_invalid_if_any_channel_constant(self):
        data = np.stack([np.arange(4.0).reshape(2, 2), np.full((2, 2), 3.0)])
        _, valid = standardized(image(data, id="m"), mode="mean")
        assert not valid

    def test_bad_mode_rejected(self, tiny_image):
        with pytest.raises(InvalidArgumentError):
            standardized(tiny_image, mode="median")

    @pytest.mark.parametrize("segments", [1, 4])
    @pytest.mark.parametrize("mode", ["concat", "mean", "pearson", "cosine"])
    def test_row_alone_equals_row_in_block(self, mode, segments):
        # Rows longer than 8,192 values: a lone row once summed its
        # squares in another order than the same row inside a block.
        x = np.random.default_rng(12).normal(3, 2, (5, segments, 65536 // segments))
        whole, valid = standardize_rows(x.copy(), mode)
        for i in range(len(x)):
            one, ok = standardize_rows(x[i : i + 1].copy(), mode)
            assert ok[0] == valid[i]
            assert np.array_equal(one[0], whole[i])

    def test_lone_row_standardized_without_a_copy(self):
        # A lone row is summed beside a view of itself, not a 4 MiB copy,
        # and keeps the bits it has inside a block.
        x = np.random.default_rng(14).normal(3, 2, (3, 4, 65536))
        for mode in ("concat", "mean", "pearson", "cosine"):
            whole, valid = standardize_rows(x.copy(), mode)
            row = x[1:2].copy()
            tracemalloc.start()
            try:
                one, ok = standardize_rows(row, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (mode, peak)
            assert ok[0] == valid[1]
            assert one[0].tobytes() == whole[1].tobytes(), mode

    def test_same_bits_at_one_and_two_blas_threads(self):
        probe = (
            "import hashlib, numpy as np; from memaudit.core import standardize_rows; "
            "x = np.random.default_rng(13).normal(3, 2, (3, 4, 65536)); "
            "print(*(hashlib.sha256(standardize_rows(x[:n].copy(), m)[0].tobytes()).hexdigest() "
            "for n in (1, 3) for m in ('concat', 'mean', 'pearson', 'cosine')))"
        )
        runs = [child("-c", probe, env={"OPENBLAS_NUM_THREADS": threads}) for threads in "12"]
        assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
        assert runs[0].stdout == runs[1].stdout != ""


class TestPearson:
    def test_exact_linear_relation(self):
        assert pearson(image([1, 2, 3], id="a"), image([2, 4, 6], id="b")) == pytest.approx(1.0)

    def test_negated_relation(self):
        assert pearson(image([1, 2, 3], id="a"), image([-1, -2, -3], id="b")) == pytest.approx(-1.0)

    def test_half_correlation(self):
        assert pearson(image([1, 2, 3], id="a"), image([1, 3, 2], id="b")) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            pearson(image([1, 2], id="a"), image([1, 2, 3], id="b"))

    def test_constant_input_has_distinct_error(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(image([1, 2, 3], id="a"), image([5, 5, 5], id="b"))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = image(rng.normal(0, 50, 64).astype(np.float32), id="a")
            b = image(rng.normal(0, 50, 64).astype(np.float32), id="b")
            assert pearson(a, b) == pytest.approx(pearson(b, a), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            base = rng.normal(0, 40, 128).astype(np.float32)
            alpha = float(rng.uniform(0.1, 5.0))
            beta = float(rng.uniform(-50, 50))
            a = image(base, id="a")
            up = image(alpha * base + beta, id="b")
            down = image(-alpha * base + beta, id="c")
            assert pearson(a, up) == pytest.approx(1.0, abs=1e-9)
            assert pearson(a, down) == pytest.approx(-1.0, abs=1e-9)

    def test_matches_standardized_dot_product(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(4, 300))
            a = image(rng.normal(0, 30, n).astype(np.float32), id="a")
            b = image(rng.normal(0, 30, n).astype(np.float32), id="b")
            direct = pearson(a, b)
            via_dot = float(standardized(a)[0] @ standardized(b)[0])
            assert direct == pytest.approx(via_dot, abs=1e-9)

    def test_mean_mode_averages_channels(self):
        rng = np.random.default_rng(6)
        data_a = rng.normal(0, 20, (3, 4, 4)).astype(np.float32)
        data_b = rng.normal(0, 20, (3, 4, 4)).astype(np.float32)
        a, b = image(data_a, id="a"), image(data_b, id="b")
        per_channel = [
            pearson(image(data_a[c], id="ac"), image(data_b[c], id="bc"))
            for c in range(3)
        ]
        assert pearson(a, b, mode="mean") == pytest.approx(np.mean(per_channel), abs=1e-12)


class TestPoolMap:
    """core.pool_map, the package's one worker pool (the count forced
    through core.worker_count): the calling thread and worker_count() - 1
    helper threads run the items, results come in item order, and a
    failure is raised only once every call has run and every helper has
    ended."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_in_order(self, monkeypatch, workers):
        threads = set()

        def square(i):
            time.sleep(0.001 * (5 - i))  # later items finish first
            threads.add(threading.get_ident())
            return i * i

        monkeypatch.setattr(core, "worker_count", lambda: workers)
        assert core.pool_map(square, range(6)) == [i * i for i in range(6)]
        assert threading.get_ident() in threads and len(threads) <= workers

    @pytest.mark.parametrize(
        "workers, items, helpers", [(1, 8, 0), (3, 8, 2), (3, 2, 1), (3, 0, 0)]
    )
    def test_helper_threads(self, monkeypatch, workers, items, helpers):
        """min(worker_count(), items) - 1 helper threads start, all ended
        on return: none on one CPU (each call sleeps, so a pool that
        starts a thread per busy worker would start one more)."""
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        def call(i):
            time.sleep(0.005)
            return i

        monkeypatch.setattr(threading, "Thread", Counted)
        monkeypatch.setattr(core, "worker_count", lambda: workers)
        assert core.pool_map(call, range(items)) == list(range(items))
        assert len(started) == helpers
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_lowest_failure_raised_after_every_call(self, monkeypatch, workers):
        """Items 0 and 1 return at once, item 2 fails after 0.01 s and
        item 5 at once, the others take 0.05 s: item 2's error is raised,
        and only when all 8 calls have run, on one worker as on three
        (item 7 is still untaken when item 2 fails)."""
        lock, started, finished = threading.Lock(), set(), set()

        def call(i):
            with lock:
                started.add(i)
            try:
                if i in (2, 5):
                    time.sleep(0.01 * (i == 2))
                    raise ValueError(f"item {i}")
                time.sleep(0.05 * (i > 1))
            finally:
                with lock:
                    finished.add(i)

        monkeypatch.setattr(core, "worker_count", lambda: workers)
        with pytest.raises(ValueError, match="^item 2$"):
            core.pool_map(call, range(8))
        assert started == finished == set(range(8))

    @pytest.mark.parametrize(
        "workers, where", [(1, "caller"), (3, "caller"), (3, "helper")]
    )
    def test_interrupt_raised_once_every_helper_ended(self, monkeypatch, workers, where):
        """A KeyboardInterrupt that fn raises, on the calling thread or on
        a helper, propagates from the calling thread once every helper has
        ended, and no thread takes another item after it: at most one
        item per thread runs, where the others take 0.05 s each."""
        main, lock, started = threading.get_ident(), threading.Lock(), []

        def call(i):
            with lock:
                started.append(i)
            if (threading.get_ident() == main) == (where == "caller"):
                raise KeyboardInterrupt
            time.sleep(0.05)

        monkeypatch.setattr(core, "worker_count", lambda: workers)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            core.pool_map(call, range(8))
        assert threading.active_count() == before
        assert len(started) <= workers

    def test_each_item_taken_once_under_contention(self, monkeypatch):
        """8 workers on this machine's CPUs, switching threads every
        microsecond: each of 3,000 items runs exactly once."""
        calls, lock = [], threading.Lock()

        def call(i):
            with lock:
                calls.append(i)
            return -i

        monkeypatch.setattr(core, "worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert core.pool_map(call, range(3000)) == [-i for i in range(3000)]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(3000))
