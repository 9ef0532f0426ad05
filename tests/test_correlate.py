import hashlib
import math
import struct
import threading
import time
import tracemalloc
import warnings
import zlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memaudit import core, correlate
from memaudit.core import CHANNEL_MODES, Dataset, ImageRecord, pearson
from memaudit.core import standardize_rows
from memaudit.correlate import (
    GEMM_KNEE_COLUMNS,
    SCREEN_MAX_LENGTH,
    _blocking,
    _merge_block,
    _screen_floor,
    brute_force_correlations,
    max_correlations,
    plan_audit,
)
from memaudit.errors import FormatError, InvalidArgumentError
from memaudit.ingest import (
    DatasetFile,
    EmbeddingSet,
    open_dataset,
    open_embedding_set,
    write_embeddings,
    write_ivc,
    write_manifest,
)

from conftest import image, ivc_payload_span, random_dataset


class TestPlanAudit:
    def test_brats_counts(self):
        assert plan_audit(1000, 23478, 262144).total_comparisons == 23_478_000
        assert plan_audit(1000, 91271, 262144).total_comparisons == 91_271_000
        assert 23_478_000 + 91_271_000 == 114_749_000

    def test_cxr_counts(self):
        a = plan_audit(1000, 5216, 65536).total_comparisons
        b = plan_audit(1000, 1300, 65536).total_comparisons
        assert a + b == 6_516_000

    def test_multiply_add_estimate(self):
        plan = plan_audit(10, 20, 1024)
        assert plan.estimated_multiply_adds == 10 * 20 * 1024

    def test_blocks_fit_budget(self):
        # All queries stay resident; a reference block plus its tile,
        # partition chunks and pass mask (_row_bytes per row) fits the
        # budget, and one more row would not. Rows of 4 channels go in
        # one-channel panels where those hold the wider block, below
        # GEMM_KNEE_COLUMNS rows of whole rows.
        budget = 32 * (1 << 20)
        for nq in (1, 64, 2000, 100_000):
            for n in (64, SCREEN_MAX_LENGTH, SCREEN_MAX_LENGTH + 1, SCREEN_MAX_LENGTH + 4,
                      4096, 65536, 262144):
                for channels in (1, 4):
                    if n % channels:
                        continue
                    plan = plan_audit(nq, 1_000_000, n, block_budget_mib=32.0, channels=channels)
                    assert plan.block_query == nq
                    b = plan.block_reference
                    row_bytes = _row_bytes(nq, n, channels, budget)
                    ones = 0 if row_bytes == _row_bytes(nq, n) else _ones_bytes(nq, n, channels)
                    assert b == 1 or ones + b * row_bytes <= budget
                    assert ones + (b + 1) * row_bytes > budget
        assert plan_audit(5, 3, 64).block_reference == 3  # never past the set

    def test_panels_at_paper_geometry(self):
        """4 masked 256x256 channels against 64 resident rows: 15 whole
        rows fit 32 MiB, 62 one-channel rows and the row of ones do (one
        channel of that length is never split); a set of 10 rows has its
        whole-row block."""
        assert plan_audit(32, 64, 4 * 65536, 32.0, 32).block_reference == 15
        assert plan_audit(32, 64, 4 * 65536, 32.0, 32, channels=4).block_reference == 62
        assert plan_audit(32, 10, 4 * 65536, 32.0, 32, channels=4).block_reference == 10

    def test_zero_sizes_allowed(self):
        assert plan_audit(0, 5, 10).total_comparisons == 0

    def test_test_rows_size_the_blocks_only(self):
        # counts of the queries alone, blocks of queries and test rows as
        # one resident matrix: the plan an audit with a test set reports
        for q in (0, 1, 8, 1000):
            for t in (0, 1, 5, 1000):
                for r, length in ((3, 1), (24, 144), (23_478, 262_144)):
                    for budget in (0.005, 1.0, 32.0):
                        blocks = plan_audit(q + t, r, length, budget)
                        assert plan_audit(q, r, length, budget, t) == replace(
                            plan_audit(q, r, length, budget),
                            block_query=blocks.block_query,
                            block_reference=blocks.block_reference,
                        )

    def test_negative_test_count_refused(self):
        with pytest.raises(InvalidArgumentError, match="^counts must be non-negative$"):
            plan_audit(3, 5, 10, 32.0, -1)

    @pytest.mark.parametrize("call, message", [
        (lambda: plan_audit(3, 5, 0), "^vector_length must be positive$"),
        (lambda: plan_audit(3, 5, 10, 0.0), "^block budget must be positive and finite$"),
        (lambda: plan_audit(3, 5, 10, -1.0), "^block budget must be positive and finite$"),
        (lambda: plan_audit(2, 2, 4, math.inf), "^block budget must be positive and finite$"),
        (lambda: plan_audit(2, 2, 4, math.nan), "^block budget must be positive and finite$"),
        (
            lambda: replace(plan_audit(3, 5, 10), estimated_multiply_adds=149),
            r"^estimated_multiply_adds must be total_comparisons \* vector_length$",
        ),
    ], ids=["vector-length", "zero-budget", "negative-budget", "infinite-budget", "nan-budget",
            "multiply-adds"])
    def test_refused(self, call, message):
        with pytest.raises(InvalidArgumentError, match=message):
            call()


def _row_bytes(resident, length, channels=1, budget=None):
    """plan_audit's bytes per reference row: rows of at most
    SCREEN_MAX_LENGTH values (the float32 screen) hold a float64 row and
    its float32 copy, and per resident row a float32 tile entry, a pass
    mask byte and 8 bytes of chunks; longer rows hold the float64 row,
    and a float64 tile entry, the mask and the chunks. In panels (given
    channels and budget), a row holds one float64 channel and its
    channel moments (16 bytes a channel), and per resident row the tile
    entry, one panel's product entry, the mask and the chunks; a block
    also holds a channel row of ones and its two entries (_ones_bytes)."""
    if length <= SCREEN_MAX_LENGTH:
        return 12 * length + 13 * resident
    whole = 8 * length + 17 * resident
    panel = 8 * length // channels + 16 * channels + 25 * resident
    ones = _ones_bytes(resident, length, channels)
    if channels > 1 and budget // whole < GEMM_KNEE_COLUMNS and (budget - ones) // panel > budget // whole:
        return panel
    return whole


def _ones_bytes(resident, length, channels):
    return 8 * length // channels + 16 * resident


def dataset_of(arrays, name="ds", role="train", prefix="r"):
    images = tuple(
        image(np.asarray(a, dtype=np.float32), id=f"{prefix}{i:03d}")
        for i, a in enumerate(arrays)
    )
    return Dataset(name, role, images)


class TestBruteForce:
    def test_identical_pair(self):
        q = dataset_of([[1.0, 2.0, 5.0]], role="synthetic")
        r = dataset_of([[1.0, 2.0, 5.0]])
        np.testing.assert_allclose(brute_force_correlations(q, r), [[1.0]])

    def test_hand_matrix(self):
        q = dataset_of([[1, 2, 3]], role="synthetic")
        r = dataset_of([[2, 4, 6], [1, 3, 2]])
        np.testing.assert_allclose(
            brute_force_correlations(q, r), [[1.0, 0.5]], atol=1e-12
        )

    def test_constant_reference_is_nan(self):
        q = dataset_of([[1, 2, 3]], role="synthetic")
        r = dataset_of([[5, 5, 5], [1, 2, 3]])
        out = brute_force_correlations(q, r)
        assert np.isnan(out[0, 0]) and out[0, 1] == pytest.approx(1.0)

    def test_dimension_mismatch_rejected(self):
        q = dataset_of([[1, 2, 3]], role="synthetic")
        with pytest.raises(InvalidArgumentError,
                           match=r"^dimension mismatch: query \(1, 1, 3\) vs reference \(1, 1, 2\)$"):
            brute_force_correlations(q, dataset_of([[1, 2]]))

    def test_size_guard(self):
        q = random_dataset(4000, (1, 2, 2), 0, role="synthetic")
        r = random_dataset(4000, (1, 2, 2), 1)
        with pytest.raises(InvalidArgumentError, match="max_correlations"):
            brute_force_correlations(q, r)


class TestMaxCorrelations:
    def test_self_copy_is_top1(self):
        r = random_dataset(30, (1, 8, 8), 5)
        target = r.images[17]
        q = Dataset("q", "synthetic", (ImageRecord("copy", *target.shape, target.pixels),))
        (match,) = max_correlations(q, r, k=1)
        assert match.top1[0] == target.id
        assert match.top1[1] == pytest.approx(1.0, abs=1e-6)

    def test_negated_query(self):
        r = random_dataset(10, (1, 6, 6), 6)
        neg = -r.images[3].pixels
        q = Dataset("q", "synthetic", (ImageRecord("neg", 1, 6, 6, neg),))
        matrix = brute_force_correlations(q, r)
        (match,) = max_correlations(q, r, k=len(r))
        by_id = dict(match.matches)
        assert by_id[r.images[3].id] == pytest.approx(-1.0, abs=1e-6)
        assert match.top1[1] == pytest.approx(np.nanmax(matrix), abs=1e-6)

    @pytest.mark.parametrize("budget_mib", [0.05, 32.0])
    def test_oracle_equivalence_random(self, budget_mib):
        q = random_dataset(20, (1, 16, 16), 21, role="synthetic", name="q")
        r = random_dataset(50, (1, 16, 16), 22, name="r")
        oracle = brute_force_correlations(q, r)
        got = max_correlations(q, r, k=len(r), block_budget_mib=budget_mib)
        for i, match in enumerate(got):
            by_id = dict(match.matches)
            for j, img in enumerate(r.images):
                assert by_id[img.id] == pytest.approx(oracle[i, j], abs=1e-6)
            # And the top-k order matches the oracle's ranking.
            oracle_top = sorted(
                ((oracle[i, j], r.images[j].id) for j in range(len(r))),
                key=lambda t: (-t[0], t[1]),
            )
            assert [m[0] for m in match.matches[:5]] == [t[1] for t in oracle_top[:5]]

    def test_multichannel_mask_and_modes(self):
        q = random_dataset(6, (5, 6, 6), 31, role="synthetic", name="q")
        r = random_dataset(9, (5, 6, 6), 32, name="r")
        for mode in ("concat", "mean"):
            oracle = brute_force_correlations(q, r, mode=mode)
            got = max_correlations(q, r, k=3, mode=mode)
            for i, match in enumerate(got):
                best = np.nanmax(oracle[i])
                assert match.top1[1] == pytest.approx(best, abs=1e-6)

    def test_invalid_query_flagged(self):
        r = random_dataset(5, (1, 4, 4), 41)
        q = Dataset(
            "q", "synthetic",
            (ImageRecord("flat", 1, 4, 4, np.full(16, 9.0, np.float32)),),
        )
        (match,) = max_correlations(q, r, k=2)
        assert not match.query_valid and match.matches == ()

    def test_invalid_references_skipped(self):
        r_imgs = (
            ImageRecord("const", 1, 4, 4, np.full(16, 3.0, np.float32)),
            *random_dataset(4, (1, 4, 4), 42).images,
        )
        r = Dataset("r", "train", r_imgs)
        q = random_dataset(2, (1, 4, 4), 43, role="synthetic", name="q")
        for match in max_correlations(q, r, k=10):
            assert match.skipped_invalid == 1
            assert "const" not in dict(match.matches)
            assert len(match.matches) == 4

    def test_deterministic_across_runs_and_budgets(self):
        """Screened rows (images and embeddings) are valued exactly, so
        every block budget gives the same matches bit for bit."""
        q = random_dataset(17, (1, 12, 12), 51, role="synthetic", name="q")
        r = random_dataset(33, (1, 12, 12), 52, name="r")
        rng = np.random.default_rng(53)
        q_emb, r_emb = (
            EmbeddingSet(tuple(f"{name}{i}" for i in range(n)), 48,
                         rng.normal(0, 1, (n, 48)).astype(np.float32))
            for name, n in (("q", 17), ("r", 200))
        )
        for query, reference in ((q, r), (q_emb, r_emb)):
            length = math.prod(reference.shape)
            assert length <= SCREEN_MAX_LENGTH
            plan = plan_audit(len(query), len(reference), length, 0.02)
            assert plan.block_reference < len(reference) / 3  # several blocks
            first, again = (
                max_correlations(query, reference, k=4, block_budget_mib=0.02) for _ in range(2)
            )
            assert first == again
            for budget in (0.25, 32.0):
                assert max_correlations(query, reference, k=4, block_budget_mib=budget) == first

    def test_mean_mode_constant_channel_is_invalid(self):
        r = random_dataset(4, (3, 4, 4), 44)
        flat = r.images[0].chw().copy()
        flat[1] = 7.0  # one constant selected channel
        q = Dataset("q", "synthetic", (ImageRecord("flat", 3, 4, 4, flat),))
        (match,) = max_correlations(q, r, k=2, mode="mean")
        assert not match.query_valid and match.matches == ()
        ref = Dataset("r2", "train", (ImageRecord("flat", 3, 4, 4, flat), *r.images))
        (match,) = max_correlations(r, ref, k=5, mode="mean")[:1]
        assert match.skipped_invalid == 1 and "flat" not in dict(match.matches)
        (match,) = max_correlations(r, ref, k=5, mode="concat")[:1]
        assert match.skipped_invalid == 0 and "flat" in dict(match.matches)

    def test_chunked_standardization_keeps_row_order(self):
        imgs = list(random_dataset(9, (1, 5, 5), 45).images)
        for i in (0, 4, 8):  # constant rows at both ends and mid-chunk
            imgs[i] = ImageRecord(f"const{i}", 1, 5, 5, np.full(25, float(i)))
        r = Dataset("r", "train", tuple(imgs))
        q = random_dataset(3, (1, 5, 5), 46, role="synthetic", name="q")
        whole = max_correlations(q, r, k=9)
        two_rows = 2 * _row_bytes(3, 25) / (1 << 20)  # budget of 2-row blocks
        blocked = max_correlations(q, r, k=9, block_budget_mib=two_rows)
        for a, b in zip(whole, blocked):
            assert a.skipped_invalid == b.skipped_invalid == 3
            assert [m[0] for m in a.matches] == [m[0] for m in b.matches]
            for (_, x), (_, y) in zip(a.matches, b.matches):
                assert abs(x - y) <= 1e-12
        self_match = max_correlations(r, r, k=1, block_budget_mib=two_rows)
        assert [m.query_valid for m in self_match] == [i % 4 != 0 for i in range(9)]
        assert all(m.top1[0] == m.query_id for m in self_match if m.query_valid)

    def test_monotone_completeness(self):
        q = random_dataset(8, (1, 8, 8), 61, role="synthetic", name="q")
        r = random_dataset(25, (1, 8, 8), 62, name="r")
        top1 = max_correlations(q, r, k=1)
        for k in (2, 5, 25):
            topk = max_correlations(q, r, k=k)
            for a, b in zip(top1, topk):
                assert a.matches[0] == b.matches[0]

    def test_growing_reference_never_lowers_top1(self):
        q = random_dataset(6, (1, 8, 8), 71, role="synthetic", name="q")
        base = random_dataset(20, (1, 8, 8), 72, name="r")
        extra = random_dataset(5, (1, 8, 8), 73, name="x").images
        grown = Dataset("r2", "train", base.images + extra)
        before = max_correlations(q, base, k=1)
        after = max_correlations(q, grown, k=1)
        for a, b in zip(before, after):
            assert b.top1[1] >= a.top1[1] - 1e-12

    def test_tie_break_ascending_reference_id(self):
        source = image(np.arange(16, dtype=np.float32), id="src")
        # Two bit-identical references: both correlate equally with any query.
        r = Dataset(
            "r", "train",
            (
                ImageRecord("zz_dup", 1, 1, 16, source.pixels),
                ImageRecord("aa_dup", 1, 1, 16, source.pixels),
            ),
        )
        q = Dataset("q", "synthetic", (ImageRecord("probe", 1, 1, 16, source.pixels),))
        (match,) = max_correlations(q, r, k=2)
        assert [m[0] for m in match.matches] == ["aa_dup", "zz_dup"]

    def test_correlations_clamped(self):
        q = random_dataset(5, (1, 10, 10), 81, role="synthetic", name="q")
        out = max_correlations(q, random_dataset(9, (1, 10, 10), 82), k=9)
        for match in out:
            for _, c in match.matches:
                assert -1.0 <= c <= 1.0

    def test_dimension_mismatch_rejected(self):
        q = random_dataset(2, (1, 4, 4), 91, role="synthetic")
        r = random_dataset(2, (1, 5, 5), 92)
        with pytest.raises(InvalidArgumentError, match="mismatch"):
            max_correlations(q, r)
        with pytest.raises(InvalidArgumentError, match="mismatch: test"):
            max_correlations(r, r, test=q)

    def test_k_below_one_rejected(self):
        q = random_dataset(2, (1, 4, 4), 93, role="synthetic")
        with pytest.raises(InvalidArgumentError, match="^k must be at least 1$"):
            max_correlations(q, q, k=0)

    def test_progress_of_constant_queries_is_zero_of_zero(self):
        """Every query constant: no comparison to make, and progress still
        reports the search done, once per reference block."""
        q = dataset_of([[1, 1, 1], [4, 4, 4]], role="synthetic", prefix="q")
        r = random_dataset(5, (1, 1, 3), 96)
        seen = []
        found = max_correlations(q, r, block_budget_mib=1e-4,
                                 progress=lambda done, total: seen.append((done, total)))
        assert [m.query_valid for m in found] == [False, False]
        assert seen == [(0, 0)] * 5

    def test_empty_reference_rejected(self):
        q = random_dataset(2, (1, 4, 4), 93, role="synthetic")
        with pytest.raises(InvalidArgumentError, match="empty"):
            max_correlations(q, Dataset("r", "train", ()))

    def test_empty_query_has_no_matches(self):
        """An empty query, allowed by Dataset, finds nothing; with a test
        set, the test rows are still searched."""
        q = Dataset("e", "synthetic", ())
        r = random_dataset(4, (1, 2, 2), 97)
        t = random_dataset(3, (1, 2, 2), 98, role="test", name="t")
        assert max_correlations(q, r) == []
        query_vs_r, test_vs_r, query_vs_t = max_correlations(q, r, k=2, test=t)
        assert query_vs_r == [] and query_vs_t == []
        assert test_vs_r == max_correlations(t, r, k=2)

    @pytest.mark.parametrize("budget", [math.inf, math.nan, -math.inf])
    def test_non_finite_budget_refused(self, budget):
        q = random_dataset(2, (1, 2, 2), 99, role="synthetic")
        with pytest.raises(InvalidArgumentError, match="^block budget must be positive and finite$"):
            max_correlations(q, q, block_budget_mib=budget)

    def test_progress_reports_monotone_and_complete(self):
        q = random_dataset(7, (1, 6, 6), 94, role="synthetic", name="q")
        r = random_dataset(13, (1, 6, 6), 95, name="r")
        seen = []
        max_correlations(q, r, k=2, block_budget_mib=0.01,
                         progress=lambda done, total: seen.append((done, total)))
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)
        assert seen[-1] == (7 * 13, 7 * 13)


class TestEmbeddingCorrelations:
    def test_identical_rows_match_self(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(0, 1, (12, 16)).astype(np.float32)
        emb = EmbeddingSet(tuple(f"e{i}" for i in range(12)), 16, rows)
        matches = max_correlations(emb, emb, k=1)
        for i, match in enumerate(matches):
            assert match.top1[0] == f"e{i}"
            assert match.top1[1] == pytest.approx(1.0, abs=1e-6)

    def test_axis_rows_fully_anticorrelated(self):
        q = EmbeddingSet(("q0",), 2, np.array([[1.0, 0.0]], np.float32))
        r = EmbeddingSet(("r0",), 2, np.array([[0.0, 1.0]], np.float32))
        (match,) = max_correlations(q, r, k=1)
        assert match.top1[1] == pytest.approx(-1.0, abs=1e-6)

    def test_random_agrees_with_image_bruteforce(self):
        # Embedding rows of length d behave exactly like 1 x 1 x d images.
        rng = np.random.default_rng(8)
        qr = rng.normal(0, 2, (10, 64)).astype(np.float32)
        rr = rng.normal(0, 2, (100, 64)).astype(np.float32)
        q_emb = EmbeddingSet(tuple(f"q{i}" for i in range(10)), 64, qr)
        r_emb = EmbeddingSet(tuple(f"r{i}" for i in range(100)), 64, rr)
        q_ds = Dataset("q", "synthetic",
                       tuple(ImageRecord(f"q{i}", 1, 1, 64, qr[i]) for i in range(10)))
        r_ds = Dataset("r", "train",
                       tuple(ImageRecord(f"r{i}", 1, 1, 64, rr[i]) for i in range(100)))
        oracle = brute_force_correlations(q_ds, r_ds)
        got = max_correlations(q_emb, r_emb, k=100, block_budget_mib=0.01)
        for i, match in enumerate(got):
            by_id = dict(match.matches)
            for j in range(100):
                assert by_id[f"r{j}"] == pytest.approx(oracle[i, j], abs=1e-6)

    def test_cosine_mode(self):
        q = EmbeddingSet(("a",), 3, np.array([[2.0, 0.0, 0.0]], np.float32))
        r = EmbeddingSet(
            ("x", "y"), 3,
            np.array([[1.0, 1.0, 0.0], [0.0, 5.0, 0.0]], np.float32),
        )
        (match,) = max_correlations(q, r, k=2, mode="cosine")
        by_id = dict(match.matches)
        assert by_id["x"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
        assert by_id["y"] == pytest.approx(0.0, abs=1e-6)

    def test_dim_mismatch_rejected(self):
        a = EmbeddingSet(("a",), 2, np.ones((1, 2), np.float32))
        b = EmbeddingSet(("b",), 3, np.ones((1, 3), np.float32))
        with pytest.raises(InvalidArgumentError):
            max_correlations(a, b)
        with pytest.raises(InvalidArgumentError, match="mismatch: test"):
            max_correlations(a, a, test=b)

    def test_unknown_metric_rejected(self):
        a = EmbeddingSet(("a",), 2, np.array([[1.0, 2.0]], np.float32))
        with pytest.raises(InvalidArgumentError, match="metric"):
            max_correlations(a, a, mode="euclid")

    def test_mixed_kinds_rejected(self):
        emb = EmbeddingSet(("a", "b"), 16, np.arange(32, dtype=np.float32).reshape(2, 16) % 5)
        img = random_dataset(2, (1, 4, 4), 96)
        for query, reference, test in (
            (emb, img, None), (img, emb, None), (img, img, emb), (emb, emb, img),
        ):
            with pytest.raises(InvalidArgumentError, match="kind mismatch") as info:
                max_correlations(query, reference, test=test)
            assert "images" in str(info.value) and "embeddings" in str(info.value)

    def test_options_of_the_other_kind_rejected(self):
        emb = EmbeddingSet(("a",), 4, np.array([[1.0, 2.0, 4.0, 3.0]], np.float32))
        img = random_dataset(2, (2, 4, 4), 97)
        for mode in ("concat", "mean"):
            with pytest.raises(InvalidArgumentError, match="unknown embedding metric"):
                max_correlations(emb, emb, mode=mode)
        for mode in ("pearson", "cosine"):
            with pytest.raises(InvalidArgumentError, match="unknown channel mode"):
                max_correlations(img, img, mode=mode)
        with pytest.raises(InvalidArgumentError, match="channel_mask"):
            max_correlations(emb, emb, channel_mask=[0])

    @pytest.mark.parametrize("metric, dead", [
        ("pearson", [3.0, 3.0, 3.0, 3.0]),  # constant row: no variance
        ("cosine", [0.0, 0.0, 0.0, 0.0]),   # zero row: no direction
    ])
    def test_degenerate_rows_invalid(self, metric, dead):
        rows = np.array([[1.0, 2.0, 4.0, 3.0], dead, [0.5, -1.0, 2.0, 1.0]], np.float32)
        emb = EmbeddingSet(("a", "dead", "b"), 4, rows)
        matches = max_correlations(emb, emb, k=3, mode=metric)
        assert [m.query_valid for m in matches] == [True, False, True]
        assert matches[1].matches == ()
        for m in (matches[0], matches[2]):
            assert m.skipped_invalid == 1
            assert [r for r, _ in m.matches] == sorted(
                ("a", "b"), key=lambda r: r != m.query_id
            )


def _ids_and_values(matches):
    return [[(r, v) for r, v in m.matches] for m in matches]


def _budgets(n_query, dim, k):
    """Block budgets whose reference blocks are narrower than k, wider
    than k, and the whole reference."""
    row_bytes = _row_bytes(n_query, dim)
    budgets = [(rows + 0.5) * row_bytes / (1 << 20) for rows in (max(1, k // 2), 3 * k)]
    assert [plan_audit(n_query, 10**6, dim, b).block_reference for b in budgets] == [
        max(1, k // 2), 3 * k,
    ]
    return [*budgets, 32.0]


def _assert_full_sort_prefix(query, ref, k, budgets):
    """Each query's top-k is the prefix of all its matches sorted by value
    descending, then id ascending, at every budget."""
    for budget in budgets:
        everything = max_correlations(query, ref, k=len(ref), block_budget_mib=budget)
        got = max_correlations(query, ref, k=k, block_budget_mib=budget)
        for full, top in zip(everything, got):
            assert top.skipped_invalid == full.skipped_invalid
            assert len(full.matches) == len(ref) - full.skipped_invalid
            assert all(-1.0 <= v <= 1.0 for _, v in full.matches)
            ranked = sorted(full.matches, key=lambda m: (-m[1], m[0]))
            assert list(top.matches) == ranked[:k]


def _audit_sets(kind, mode):
    """Synthetic (7 rows), test (6) and reference (40) sets of one kind,
    rows of 72 values (2x6x6 images), and the engine for it. Synthetic s2
    and test t0 are all zero (invalid for every mode and metric); test t3,
    t1 and t4 (in that row order) duplicate synthetic s4."""
    rng, dim = np.random.default_rng(115), 72
    synth = rng.normal(0, 1, (7, dim)).astype(np.float32)
    synth[2] = 0.0
    test = rng.normal(0, 1, (6, dim)).astype(np.float32)
    test[[0, 1, 4]] = synth[4]
    test[3] = 0.0
    ref = rng.normal(0, 1, (40, dim)).astype(np.float32)
    sets = [
        ("s", "synthetic", [f"s{i}" for i in range(7)], synth),
        ("t", "test", ["t3", "t1", "t5", "t0", "t4", "t2"], test),
        ("r", "train", [f"r{i:02d}" for i in range(40)], ref),
    ]
    if kind == "images":
        engine = partial(max_correlations, mode=mode)
        return (*(
            Dataset(name, role, tuple(ImageRecord(i, 2, 6, 6, row) for i, row in zip(ids, rows)))
            for name, role, ids, rows in sets
        ), engine)
    engine = partial(max_correlations, mode=mode)
    return (*(EmbeddingSet(tuple(ids), dim, rows) for _, _, ids, rows in sets), engine)


def _assert_same_matches(got, want):
    assert [m.query_id for m in got] == [m.query_id for m in want]
    for x, y in zip(got, want):
        assert (x.query_valid, x.skipped_invalid) == (y.query_valid, y.skipped_invalid)
        assert [i for i, _ in x.matches] == [i for i, _ in y.matches]
        for (_, u), (_, v) in zip(x.matches, y.matches):
            assert abs(u - v) <= 1e-12


class TestStreamingEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pool=st.integers(1, 4),
        n_ref=st.integers(1, 60),
        n_query=st.integers(1, 5),
        k=st.integers(1, 8),
        budget=st.sampled_from([0.01, 0.05, 32.0]),
        data=st.data(),
    )
    def test_exact_topk_under_ties(self, seed, pool, n_ref, n_query, k, budget, data):
        # Reference rows repeat a few base rows (one may be constant), so
        # many correlations tie exactly; ids are shuffled against row order.
        rng = np.random.default_rng(seed)
        base = rng.integers(-1, 3, (pool, 128)).astype(np.float32)
        if data.draw(st.booleans()):
            base[0] = 1.0
        picks = data.draw(st.lists(st.integers(0, pool - 1), min_size=n_ref, max_size=n_ref))
        ids = data.draw(st.permutations([f"r{i:02d}" for i in range(n_ref)]))
        ref = EmbeddingSet(tuple(ids), 128, base[picks])
        query = EmbeddingSet(
            tuple(f"q{i}" for i in range(n_query)), 128,
            rng.integers(-1, 3, (n_query, 128)).astype(np.float32),
        )
        everything = max_correlations(query, ref, k=n_ref, block_budget_mib=budget)
        got = max_correlations(query, ref, k=k, block_budget_mib=budget)
        for full, top in zip(everything, got):
            assert top.query_valid == full.query_valid
            assert top.skipped_invalid == full.skipped_invalid
            ranked = sorted(full.matches, key=lambda m: (-m[1], m[0]))
            assert list(full.matches) == ranked
            assert list(top.matches) == ranked[:k]

    def test_tied_duplicates_cut_by_id_in_every_block(self):
        # 40 identical references, ids shuffled against row order: at
        # every budget the top 3 are the 3 smallest ids.
        row = np.arange(64, dtype=np.float32) % 7
        ids = tuple(f"d{i:02d}" for i in np.random.default_rng(107).permutation(40))
        ref = EmbeddingSet(ids, 64, np.tile(row, (40, 1)))
        query = EmbeddingSet(("q",), 64, row[None])
        for budget in (0.002, 0.01, 32.0):
            (match,) = max_correlations(query, ref, k=3, block_budget_mib=budget)
            assert [r for r, _ in match.matches] == ["d00", "d01", "d02"]

    def test_ascending_similarity_every_block_beats_the_carried_kth(self):
        # Reference j has correlation cos(theta_j) with q, theta falling
        # with j: each block's values all beat the carried k-th best.
        rng = np.random.default_rng(111)
        basis = np.linalg.qr(np.column_stack([np.ones(64), rng.normal(size=(64, 61))]))[0].T
        q, others = basis[1], basis[2:]  # orthonormal and centered
        theta = np.linspace(1.5, 0.01, 60)
        rows = np.cos(theta)[:, None] * q + np.sin(theta)[:, None] * others
        ids = tuple(f"a{i:02d}" for i in rng.permutation(60))
        ref = EmbeddingSet(ids, 64, rows.astype(np.float32))
        query = EmbeddingSet(("up", "down"), 64, np.stack([q, -q]).astype(np.float32))
        _assert_full_sort_prefix(query, ref, 5, _budgets(2, 64, 5))
        (up, down) = max_correlations(query, ref, k=5, block_budget_mib=0.002)
        assert [r for r, _ in up.matches] == [ids[j] for j in range(59, 54, -1)]
        assert [r for r, _ in down.matches] == [ids[j] for j in range(5)]

    def test_fewer_valid_references_than_k_over_many_blocks(self):
        rng = np.random.default_rng(112)
        rows = np.full((40, 32), 2.0, np.float32)  # constant: invalid
        rows[[3, 17, 38]] = rng.normal(size=(3, 32))
        ref = EmbeddingSet(tuple(f"v{i:02d}" for i in range(40)), 32, rows)
        query = EmbeddingSet(("a", "b"), 32, rng.normal(size=(2, 32)).astype(np.float32))
        budgets = _budgets(2, 32, 5)
        _assert_full_sort_prefix(query, ref, 5, budgets)
        for budget in budgets:
            for match in max_correlations(query, ref, k=5, block_budget_mib=budget):
                assert sorted(r for r, _ in match.matches) == ["v03", "v17", "v38"]
                assert match.skipped_invalid == 37

    def test_near_duplicates_clip_to_one_and_tie_by_id(self):
        # Power-of-two multiples of one row standardize to the same vector,
        # whose raw product with itself (with its negation) may round past
        # 1 (past -1), and differently in blocks of different widths.
        rng = np.random.default_rng(0)
        base = rng.normal(size=64).astype(np.float32)
        rows = base * np.float32(2.0) ** rng.integers(-3, 4, 40)[:, None].astype(np.float32)
        ids = tuple(f"d{i:02d}" for i in rng.permutation(40))
        ref = EmbeddingSet(ids, 64, rows.astype(np.float32))
        query = EmbeddingSet(("p", "n"), 64, np.stack([base, -base]))
        _assert_full_sort_prefix(query, ref, 5, _budgets(2, 64, 5))

    def test_merge_clips_raw_values_before_ties(self):
        # Raw values just beyond +-1 tie with exact +-1 after clipping, so
        # the lower rank wins, whichever block either value comes in.
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(113)
        near = np.array([1 + 2 * eps, 1 + eps, 1.0, 1 - eps, 0.5])
        tile = np.stack([
            rng.choice(near, 30), -rng.choice(near, 30),
            rng.choice(near[:3], 30), -rng.choice(near[:3], 30),
        ])
        ranks = rng.permutation(30)
        clipped = np.clip(tile, -1.0, 1.0)
        for k in (1, 4, 9):
            order = np.lexsort((np.broadcast_to(ranks, tile.shape), -clipped), axis=1)[:, :k]
            for width in (1, k // 2 + 1, k + 2, 30):
                best_v = np.empty((4, 0))
                best_r = np.empty((4, 0), dtype=np.int64)
                for c0 in range(0, 30, width):
                    best_v, best_r = _merge_block(
                        best_v, best_r, ranks[c0 : c0 + width], k, tile[:, c0 : c0 + width].copy()
                    )
                assert np.array_equal(best_r, ranks[order])
                assert np.array_equal(best_v, np.take_along_axis(clipped, order, axis=1))

    def test_every_value_tied(self):
        # Identical references of 32 ones and 32 minus ones: standardized
        # and multiplied exactly, so every value of a query's row ties.
        rng = np.random.default_rng(114)
        pm = np.stack([rng.permutation(np.repeat([1.0, -1.0], 32)) for _ in range(3)])
        ids = tuple(f"t{i:02d}" for i in rng.permutation(50))
        ref = EmbeddingSet(ids, 64, np.tile(pm[0], (50, 1)).astype(np.float32))
        query = EmbeddingSet(("q0", "q1", "q2"), 64, pm.astype(np.float32))
        budgets = _budgets(3, 64, 5)
        _assert_full_sort_prefix(query, ref, 5, budgets)
        for budget in budgets:
            for match in max_correlations(query, ref, k=5, block_budget_mib=budget):
                assert [r for r, _ in match.matches] == [f"t{i:02d}" for i in range(5)]

    @pytest.mark.parametrize(
        "kind, mode",
        [("images", "concat"), ("images", "mean"), ("embeddings", "pearson"),
         ("embeddings", "cosine")],
    )
    def test_test_keyword_equals_separate_calls(self, kind, mode):
        synth, test, ref, engine = _audit_sets(kind, mode)
        k, n_resident = 4, len(synth) + len(test)
        row_bytes = _row_bytes(n_resident, 72)
        narrow = [(rows + 0.5) * row_bytes / (1 << 20) for rows in (1, 3)]
        assert [plan_audit(n_resident, len(ref), 72, b).block_reference for b in narrow] == [1, 3]
        # test blocks of 1 and 3 columns (narrower than k: 13 bytes for each
        # of the 6 valid synthetic rows per column), and wider than the test set
        thin = [(columns + 0.5) * 13 * 6 / (1 << 20) for columns in (1, 3)]
        for budget in (*narrow, *thin, 32.0):
            got = engine(synth, ref, k=k, block_budget_mib=budget, test=test)
            apart = [
                engine(synth, ref, k=k, block_budget_mib=budget),
                engine(test, ref, k=k, block_budget_mib=budget),
                engine(synth, test, k=k, block_budget_mib=budget),
            ]
            assert len(got) == 3
            for x, y in zip(got, apart):
                _assert_same_matches(x, y)
            synth_vs_test = got[2]
            assert not synth_vs_test[2].query_valid and not got[0][2].query_valid
            assert synth_vs_test[0].skipped_invalid == 1 and not got[1][3].query_valid
            # the duplicates t3, t1, t4 tie at 1 and go to the lowest id first
            assert synth_vs_test[4].matches[0] == ("t1", pytest.approx(1.0, abs=1e-12))
            for m in synth_vs_test:
                dupes = [r for r, _ in m.matches if r in ("t1", "t3", "t4")]
                assert dupes == sorted(dupes)

    def test_test_blocks_sized_by_their_tile(self, monkeypatch):
        """The test rows are slices of the resident matrix, so a block of
        them costs its tile alone (13 bytes an entry when screened): the
        budget of 2-row train blocks holds every test column at once, and
        one of 2.5 test columns makes 1-row train blocks and 2-column test
        blocks."""
        synth, test, ref, engine = _audit_sets("embeddings", "pearson")
        row_bytes = _row_bytes(len(synth) + len(test), 72)
        widths = []

        def merge(best_v, best_r, ranks, k, tile, band, exact):
            widths.append(tile.shape)
            return _merge_block(best_v, best_r, ranks, k, tile, band, exact)

        monkeypatch.setattr(correlate, "_merge_block", merge)
        # 6 valid synthetic rows x 5 valid test rows after 40 train rows
        cases = ((2.5 * row_bytes, 2, [5]), (2.5 * 13 * 6, 1, [2, 2, 1]))
        for budget_bytes, train_rows, test_widths in cases:
            budget = budget_bytes / (1 << 20)
            block = plan_audit(len(synth) + len(test), len(ref), 72, budget).block_reference
            assert block == train_rows
            widths.clear()
            engine(synth, ref, k=3, block_budget_mib=budget, test=test)
            assert widths == [(11, block)] * (40 // block) + [(6, w) for w in test_widths]

    def test_file_backed_reference_equals_in_memory(self, tmp_path):
        q = random_dataset(6, (5, 6, 6), 104, role="synthetic", name="q")
        r = random_dataset(23, (5, 6, 6), 105, name="r")
        write_ivc(list(r.images[:10]), tmp_path / "a.ivc")
        write_ivc(list(r.images[10:]), tmp_path / "b.ivc")
        write_manifest(tmp_path / "r.mf", "r", "train", ["a.ivc", "b.ivc"])
        handle = open_dataset(tmp_path / "r.mf")
        for budget in (0.005, 32.0):
            for mode in ("concat", "mean"):
                got = max_correlations(q, handle, k=5, mode=mode, block_budget_mib=budget)
                want = max_correlations(q, r, k=5, mode=mode, block_budget_mib=budget)
                assert got == want

    def test_file_backed_queries_equal_in_memory(self, tmp_path):
        q = random_dataset(9, (5, 6, 6), 107, role="synthetic", name="q")
        t = random_dataset(4, (5, 6, 6), 108, role="test", name="t")
        r = random_dataset(23, (5, 6, 6), 109, name="r")
        for name, ds in (("q", q), ("t", t)):
            write_ivc(list(ds.images), tmp_path / f"{name}.ivc")
            write_manifest(tmp_path / f"{name}.mf", name, ds.role, [f"{name}.ivc"])
        handles = (open_dataset(tmp_path / "q.mf"), open_dataset(tmp_path / "t.mf"))
        for budget in (0.005, 32.0):
            got = max_correlations(handles[0], r, k=4, block_budget_mib=budget, test=handles[1])
            assert got == max_correlations(q, r, k=4, block_budget_mib=budget, test=t)
            got = max_correlations(handles[0], handles[1], k=1, block_budget_mib=budget)
            assert got == max_correlations(q, t, k=1, block_budget_mib=budget)

    def test_file_backed_embeddings_equal_in_memory(self, tmp_path):
        rng = np.random.default_rng(106)
        rows = rng.normal(0, 1, (300, 16)).astype(np.float32)
        ids = tuple(f"e{i}" for i in range(300))
        write_embeddings(EmbeddingSet(ids[:120], 16, rows[:120]), tmp_path / "a.emb")
        write_embeddings(EmbeddingSet(ids[120:], 16, rows[120:]), tmp_path / "b.emb")
        write_manifest(tmp_path / "e.mf", "e", "train", ["a.emb", "b.emb"])
        q = EmbeddingSet(("x", "y"), 16, rng.normal(0, 1, (2, 16)).astype(np.float32))
        ref = EmbeddingSet(ids, 16, rows)
        for budget in (0.01, 32.0):
            got = max_correlations(
                q, open_embedding_set(tmp_path / "e.mf"), k=6, block_budget_mib=budget
            )
            assert got == max_correlations(q, ref, k=6, block_budget_mib=budget)
            got = max_correlations(
                open_embedding_set(tmp_path / "e.mf"), q, k=2, block_budget_mib=budget
            )
            assert got == max_correlations(ref, q, k=2, block_budget_mib=budget)


def _exact_dots(queries, refs, mode):
    """Every (query, reference) value of float32 rows as the screened
    engine reports it: the pairwise sum of the products of the rows
    standardize_rows makes, clipped to [-1, 1]."""
    q, r = (standardize_rows(np.asarray(x, np.float64)[:, None], mode)[0] for x in (queries, refs))
    return np.clip([[np.multiply(a, b).sum() for b in r] for a in q], -1.0, 1.0)


class TestFloat32Screen:
    """Rows of at most SCREEN_MAX_LENGTH values are screened by an sgemm
    and the entries that can still enter a top-k are valued exactly."""

    def test_near_ties_the_sgemm_misorders(self):
        # 20 near-copies of each of 3 queries (correlations within 1.1e-9 of
        # each other, near 1 - 5e-9) at the longest screened length:
        # float32 products rank them wrongly, the engine must not
        k, length = 5, SCREEN_MAX_LENGTH
        side = math.isqrt(length)
        assert side * side == length
        rng = np.random.default_rng(116)
        base = rng.normal(size=(3, length))
        queries = base.astype(np.float32)
        refs = np.concatenate([b + 1e-4 * rng.normal(size=(20, length)) for b in base])
        refs = refs.astype(np.float32)
        ids = [f"n{i:02d}" for i in rng.permutation(len(refs))]
        q = Dataset("q", "synthetic", tuple(
            ImageRecord(f"q{i}", 1, side, side, row) for i, row in enumerate(queries)
        ))
        r = Dataset("r", "train", tuple(
            ImageRecord(i, 1, side, side, row) for i, row in zip(ids, refs)
        ))
        exact = _exact_dots(queries, refs, "concat")
        oracle = brute_force_correlations(q, r)
        std = [standardize_rows(x.astype(np.float64)[:, None], "concat")[0] for x in (queries, refs)]
        sgemm = std[0].astype(np.float32) @ std[1].astype(np.float32).T

        def top(values, i):
            return sorted(range(len(ids)), key=lambda j: (-values[i, j], ids[j]))[:k]

        for i in range(3):
            assert top(oracle, i) == top(exact, i)
            assert set(top(sgemm, i)) != set(top(exact, i))  # a true top-k member drops out
        for budget in (0.05, 0.5, 32.0):
            got = max_correlations(q, r, k=k, block_budget_mib=budget)
            for i, match in enumerate(got):
                assert list(match.matches) == [(ids[j], exact[i, j]) for j in top(exact, i)]

    def test_screened_up_to_the_length_limit(self, monkeypatch):
        merges = []

        def merge(best_v, best_r, ranks, k, tile, band=0.0, exact=None):
            merges.append((tile.dtype, band, exact is None))
            return _merge_block(best_v, best_r, ranks, k, tile, band, exact)

        monkeypatch.setattr(correlate, "_merge_block", merge)
        rng = np.random.default_rng(117)
        for dim in (SCREEN_MAX_LENGTH, SCREEN_MAX_LENGTH + 1):
            merges.clear()
            ref = EmbeddingSet(tuple(f"r{i}" for i in range(6)), dim,
                               rng.normal(size=(6, dim)).astype(np.float32))
            query = EmbeddingSet(("a", "b"), dim, rng.normal(size=(2, dim)).astype(np.float32))
            got = max_correlations(query, ref, k=3)
            want = _exact_dots(query.rows, ref.rows, "pearson")
            for i, match in enumerate(got):
                values = sorted(want[i], reverse=True)[:3]
                assert [v for _, v in match.matches] == pytest.approx(values, abs=1e-12)
            if dim == SCREEN_MAX_LENGTH:
                units = (dim + 3) * 2.0**-24
                assert merges == [(np.float32, units / (1 - units), False)]
            else:
                assert merges == [(np.float64, 0.0, True)]

    def test_identical_rows_put_k_values_per_row_in_the_final_sort(self, monkeypatch):
        # 25,000 identical rows, ids shuffled against row order: every
        # float32 entry ties, so every entry is valued, and the tie cut
        # after valuing leaves k per row for the final sort in every block
        k, dim, n = 5, 16, 25_000
        row = np.arange(dim, dtype=np.float32) % 5
        ids = tuple(f"d{i:05d}" for i in np.random.default_rng(118).permutation(n))
        ref = EmbeddingSet(ids, dim, np.tile(row, (n, 1)))
        query = EmbeddingSet(("p", "q"), dim, np.stack([row, row[::-1]]))
        lexsort, widths = np.lexsort, []

        def final_sort(keys, axis=-1):
            if axis == 1:
                widths.append(keys[0].shape)
            return lexsort(keys, axis=axis)

        monkeypatch.setattr(np, "lexsort", final_sort)
        values = _exact_dots(query.rows, row[None], "pearson")[:, 0]
        for budget in (0.5, 32.0):
            widths.clear()
            got = max_correlations(query, ref, k=k, block_budget_mib=budget)
            for match, value in zip(got, values):
                assert list(match.matches) == [(f"d{i:05d}", value) for i in range(k)]
            blocks = -(-n // plan_audit(2, n, dim, budget).block_reference)
            assert widths == [(2, k)] + [(2, 2 * k)] * (blocks - 1)

    def test_threshold_rounds_down_to_float32(self):
        rng = np.random.default_rng(119)
        t = np.concatenate([rng.uniform(-1, 1, 10_000), [-1.0, -0.5, 0.75, 1.0, 1.5]])
        band = 3e-6
        floor = _screen_floor(t, band, np.dtype(np.float32))
        lo = np.minimum(t, 1.0) - band
        live = t > -1.0
        assert floor.dtype == np.float32
        assert np.all(floor[live] <= lo[live])  # never above the float64 threshold
        assert np.all(np.nextafter(floor[live], np.float32(np.inf)) > lo[live])  # the largest such
        assert np.all(floor[~live] == -np.inf)
        assert np.array_equal(_screen_floor(t, 0.0, np.dtype(np.float64))[live], np.minimum(t, 1.0)[live])


class TestReadWorkers:
    """Every range the engine reads is split into contiguous ranges, one
    per worker (the count forced through core.worker_count): the calling
    thread and its pool_map helpers; the valid-row packing, GEMMs and
    merges run on the calling thread once every range has been read."""

    def test_ranges_split_and_searched_after_reads(self, monkeypatch):
        q = random_dataset(7, (2, 6, 6), 121, role="synthetic", name="q")
        t = random_dataset(5, (2, 6, 6), 122, role="test", name="t")
        r = random_dataset(10, (2, 6, 6), 123, name="r")
        budget = 4.5 * _row_bytes(12, 72) / (1 << 20)  # train blocks of 4, 4 and 2 rows
        main, lock = threading.get_ident(), threading.Lock()
        read_rows, valid_rows, merge = Dataset.read_rows, correlate._valid_rows, _merge_block
        reads, active, peak = [], [0], [0]

        def counted(self, i0, i1, out, channels):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                time.sleep(0.002)  # ranges overlap
                read_rows(self, i0, i1, out, channels)
            finally:
                with lock:
                    active[0] -= 1
                    reads.append((self.role, i0, i1, threading.get_ident()))

        def after_reads(fn):
            def checked(*args):
                assert active[0] == 0 and threading.get_ident() == main
                return fn(*args)
            return checked

        monkeypatch.setattr(Dataset, "read_rows", counted)
        monkeypatch.setattr(correlate, "_valid_rows", after_reads(valid_rows))
        monkeypatch.setattr(correlate, "_merge_block", after_reads(merge))
        results = {}
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(core, "worker_count", lambda: workers)
            reads.clear()
            peak[0] = 0
            results[workers] = max_correlations(q, r, k=3, block_budget_mib=budget, test=t)
            train = sorted((i0, i1) for role, i0, i1, _ in reads if role == "train")
            expected = []
            for r0, n in ((0, 4), (4, 4), (8, 2)):
                w = min(workers, n)
                expected += [(r0 + n * j // w, r0 + n * (j + 1) // w) for j in range(w)]
            assert train == expected
            threads = {ident for *_, ident in reads}
            # this thread reads ranges too, beside workers - 1 helpers
            assert main in threads and peak[0] <= workers
            if workers == 1:
                assert threads == {main}
        assert results[1] == results[2] == results[3] == results[5]

    def test_failure_raised_after_every_range_is_done(self, tmp_path, monkeypatch):
        """A bad entry in the first range fails at once, but the engine
        raises only when the slower ranges have finished writing."""
        r = random_dataset(12, (1, 8, 8), 124)
        write_ivc(list(r.images), tmp_path / "r.ivc")
        write_manifest(tmp_path / "r.mf", "r", "train", ["r.ivc"])
        blob = bytearray((tmp_path / "r.ivc").read_bytes())
        offset, _ = ivc_payload_span(tmp_path / "r.ivc", 1)
        blob[offset] ^= 0x01
        (tmp_path / "r.ivc").write_bytes(bytes(blob))
        handle = open_dataset(tmp_path / "r.mf")
        read_rows, lock, active = DatasetFile.read_rows, threading.Lock(), [0]

        def slow_after_first(self, i0, i1, out, channels):
            with lock:
                active[0] += 1
            try:
                if i0 >= 4:  # rows 4-7 and 8-11: the other workers' ranges
                    time.sleep(0.2)
                read_rows(self, i0, i1, out, channels)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(core, "worker_count", lambda: 3)
        monkeypatch.setattr(DatasetFile, "read_rows", slow_after_first)
        q = random_dataset(2, (1, 8, 8), 125, role="synthetic", name="q")
        with pytest.raises(FormatError, match=r"r.ivc: entry 1 \('ds_0001'\): checksum"):
            max_correlations(q, handle, k=2)
        assert active[0] == 0

    def test_panel_failure_raised_after_every_range_is_done(self, tmp_path, monkeypatch):
        """The same in panels, whose reader raises its faults with its last
        panel: a bad CRC-32 of entry 1 (first block 0-10 read as 0-2, 3-6
        and 7-10) fails the first range, but the engine raises only once
        the slower ranges have read their last panel."""
        q, _, handle = _panel_sets(tmp_path)
        _flip_entry_byte(tmp_path / "r.ivc", 1, at_crc=True)
        read_panels, lock, done = DatasetFile.read_panels, threading.Lock(), []

        def slow_last_panel(self, i0, i1, out, panels):
            reader = read_panels(self, i0, i1, out, panels)
            for _ in panels[:-1]:
                yield next(reader)
            try:
                next(reader)  # the last panel: the range's faults raise here
            finally:
                if i0 >= 3:  # the other workers' ranges
                    time.sleep(0.2)
                with lock:
                    done.append(i0)
            yield

        monkeypatch.setattr(core, "worker_count", lambda: 3)
        monkeypatch.setattr(DatasetFile, "read_panels", slow_last_panel)
        with pytest.raises(FormatError, match=r"r.ivc: entry 1 \('r001'\): checksum"):
            max_correlations(q, handle, block_budget_mib=PANEL_BUDGET)
        assert sorted(done) == [0, 3, 7]

    def test_range_across_two_sets_names_the_lower_fault(self, tmp_path, monkeypatch):
        """The resident rows, 7 synthetic then 5 test, are read as 0-3,
        4-7 and 8-11 by 3 workers: the middle range ends the synthetic
        rows and starts the test rows. With a bad entry in each set inside
        it, the synthetic one, the lower resident row, is named."""
        handles = {}
        for name, role, n, bad in (("q", "synthetic", 7, 5), ("t", "test", 5, 0)):
            images = random_dataset(n, (1, 8, 8), 126 + n, role=role, name=name).images
            write_ivc(list(images), tmp_path / f"{name}.ivc")
            write_manifest(tmp_path / f"{name}.mf", name, role, [f"{name}.ivc"])
            _flip_entry_byte(tmp_path / f"{name}.ivc", bad)
            handles[name] = open_dataset(tmp_path / f"{name}.mf")
        monkeypatch.setattr(core, "worker_count", lambda: 3)
        r = random_dataset(4, (1, 8, 8), 129)
        with pytest.raises(FormatError, match=r"q.ivc: entry 5 \('q_0005'\): checksum"):
            max_correlations(handles["q"], r, k=2, test=handles["t"])

    def test_one_pool_pass_per_chunk(self, tmp_path, monkeypatch):
        """_read_chunks reads a chunk in one core.pool_map pass: a panel
        block of C channels in C passes, whole rows (from two sets) in one."""
        q, _, handle = _panel_sets(tmp_path)
        passes, pool_map = [], core.pool_map

        def counted(fn, ranges):
            passes.append(len(ranges))
            return pool_map(fn, ranges)

        monkeypatch.setattr(core, "pool_map", counted)
        monkeypatch.setattr(core, "worker_count", lambda: 3)
        whole, panels = [(0, 1, 2, 3)], [(0,), (1,), (2,), (3,)]
        for parts, chunks in (([(q, 0, 6), (handle, 0, 5)], whole), ([(handle, 4, 15)], panels)):
            passes.clear()
            out = np.empty((11, len(chunks[0]), 1024))
            correlate._read_chunks(parts, out, chunks, "concat")
            assert passes == [3] * len(chunks)

    def test_one_row_range_read_in_panels_without_a_copy(self):
        """A panel pass over a one-row range centers its 1 MiB panel
        without a copy, and the row keeps the bits it has in a 3-row
        range: every panel, mean, sum of squares and validity."""
        images = random_dataset(3, (4, 512, 256), 133)
        chunks = [(0,), (1,), (2,), (3,)]
        for mode in CHANNEL_MODES:
            found = []
            for i0, i1 in ((0, 3), (1, 2)):
                out, digests = np.empty((i1 - i0, 1, 512 * 256)), []
                tracemalloc.start()
                try:
                    stats = correlate._read_chunks(
                        [(images, i0, i1)], out, chunks, mode,
                        lambda p: digests.append(hashlib.sha256(out[1 - i0]).digest()),
                    )
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                found.append((digests, [s[:, 1 - i0].tobytes() for s in stats], peak))
            (block, block_stats, _), (lone, lone_stats, peak) = found
            assert peak < 1 << 20, (mode, peak)
            assert lone == block and len(lone) == 4, mode
            assert lone_stats == block_stats, mode

    @pytest.mark.parametrize("panels", [False, True], ids=["whole", "panels"])
    @pytest.mark.parametrize("bad", [False, True], ids=["ok", "bad"])
    def test_no_thread_outlives_the_audit(self, tmp_path, monkeypatch, panels, bad):
        """Every pass's threads have ended when max_correlations returns,
        or raises on a bad entry, in whole rows and in panels."""
        q, _, handle = _panel_sets(tmp_path)
        if bad:
            _flip_entry_byte(tmp_path / "r.ivc", 20)
        monkeypatch.setattr(core, "worker_count", lambda: 3)
        budget = PANEL_BUDGET if panels else correlate.DEFAULT_BLOCK_BUDGET_MIB
        before = threading.active_count()
        if bad:
            with pytest.raises(FormatError, match=r"r.ivc: entry 20 \('r020'\): checksum"):
                max_correlations(q, handle, block_budget_mib=budget)
        else:
            max_correlations(q, handle, block_budget_mib=budget)
        assert threading.active_count() == before


def _flip_entry_byte(path, index, at_crc=False):
    """Flip a bit of entry index's first payload byte of an IVC1 file, or
    of its stored CRC-32."""
    offset, size = ivc_payload_span(path, index)
    blob = bytearray(path.read_bytes())
    blob[offset + size * at_crc] ^= 0x01
    path.write_bytes(bytes(blob))


PANEL_BUDGET = 0.1  # MiB: 11 one-channel rows a block of 5x32x32 images, 3 whole rows


def _panel_sets(tmp_path=None):
    """5x32x32 images (channels 0-3 masked): 6 queries and 30 references
    of noise around 100. Query q000 is 2 * r003 + 1; reference r005's
    channel means step by 1 against a within-channel spread of 1e-4, and
    r007's masked channel 2 is constant (invalid under "mean" only).
    Given tmp_path, the references are also written to an IVC1 file, and
    (queries, in-memory references, file-backed references) come back."""
    rng = np.random.default_rng(131)
    ref = rng.normal(100, 10, (30, 5, 1024)).astype(np.float32)
    ref[5] = np.arange(5, dtype=np.float32)[:, None] + rng.normal(0, 1e-4, (5, 1024))
    ref[7, 2] = 7.0
    query = rng.normal(100, 10, (6, 5, 1024)).astype(np.float32)
    query[0] = 2 * ref[3] + 1
    q, r = (
        Dataset(name, role, tuple(
            ImageRecord(f"{name}{i:03d}", 5, 32, 32, row.reshape(-1)) for i, row in enumerate(rows)
        ))
        for name, role, rows in (("q", "synthetic", query), ("r", "train", ref))
    )
    if tmp_path is None:
        return q, r
    write_ivc(list(r.images), tmp_path / "r.ivc")
    write_manifest(tmp_path / "r.mf", "r", "train", ["r.ivc"])
    return q, r, open_dataset(tmp_path / "r.mf")


class TestPanels:
    """Reference blocks read one masked channel at a time agree with
    whole rows and the oracle, and fail as a whole-entry read does."""

    def test_budget_forces_panels(self):
        q, r = _panel_sets()
        assert _blocking(len(q), len(r), 4 * 1024, 4, PANEL_BUDGET) == (11, True)
        assert _blocking(len(q), len(r), 4 * 1024, 4, 32.0) == (1020, False)

    @pytest.mark.parametrize("mode", ["concat", "mean"])
    @pytest.mark.parametrize("backed", ["memory", "file"])
    def test_equal_to_whole_rows_and_oracle(self, tmp_path, mode, backed):
        q, r, handle = _panel_sets(tmp_path)
        ref = handle if backed == "file" else r
        whole = max_correlations(q, r, k=len(r), mode=mode)
        panels = max_correlations(q, ref, k=len(r), mode=mode, block_budget_mib=PANEL_BUDGET)
        oracle = brute_force_correlations(q, r, mode=mode)
        for i, (a, b) in enumerate(zip(whole, panels)):
            assert [rid for rid, _ in a.matches] == [rid for rid, _ in b.matches]
            assert (a.skipped_invalid, a.query_valid) == (b.skipped_invalid, b.query_valid)
            for rid, value in b.matches:
                assert value == pytest.approx(oracle[i, int(rid[1:])], abs=1e-6)
        ids = {rid for rid, _ in panels[1].matches}
        assert "r005" in ids and ("r007" in ids) == (mode == "concat")
        assert panels[1].skipped_invalid == (mode == "mean")
        assert panels[0].top1 == ("r003", pytest.approx(1.0, abs=1e-12))

    def test_infinite_value_with_valid_crc(self, tmp_path):
        """A non-finite value under a recomputed, valid CRC-32 fails with
        the non-finite message, and no arithmetic warning comes first."""
        q, _, _ = _panel_sets(tmp_path)
        offset, size = ivc_payload_span(tmp_path / "r.ivc", 4)
        blob = bytearray((tmp_path / "r.ivc").read_bytes())
        struct.pack_into("<f", blob, offset + size // 5 + 8, float("inf"))  # channel 1
        struct.pack_into("<I", blob, offset + size, zlib.crc32(blob[offset : offset + size]))
        (tmp_path / "r.ivc").write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=r"entry 4 \('r004'\): non-finite payload values"):
                max_correlations(q, open_dataset(tmp_path / "r.mf"), block_budget_mib=PANEL_BUDGET)

    def test_bad_crc_below_truncated_row(self, tmp_path):
        """A CRC-32 mismatch, known only once the whole entry is read, is
        raised for its entry before a short read of a higher one in the
        same block (the file shrank after it was opened)."""
        q, _, _ = _panel_sets(tmp_path)
        path = tmp_path / "r.ivc"
        offset, size = ivc_payload_span(path, 2)
        blob = bytearray(path.read_bytes())
        blob[offset + 4 * size // 5 + 1] ^= 0x10  # unmasked channel 4
        path.write_bytes(bytes(blob))
        cut, _ = ivc_payload_span(path, 9)
        for flipped, message in ((True, r"entry 2 \('r002'\): checksum mismatch"),
                                 (False, "truncated entry 9 payload")):
            if not flipped:
                blob[offset + 4 * size // 5 + 1] ^= 0x10
                path.write_bytes(bytes(blob))
            handle = open_dataset(tmp_path / "r.mf")
            path.write_bytes(bytes(blob[: cut + 100]))
            with pytest.raises(FormatError, match=message):
                max_correlations(q, handle, block_budget_mib=PANEL_BUDGET)
