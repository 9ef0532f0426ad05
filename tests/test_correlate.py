import numpy as np
import pytest

import memaudit.correlate as correlate
from memaudit.core import Dataset, ImageRecord, pearson
from memaudit.correlate import (
    brute_force_correlations,
    max_correlations,
    max_correlations_embeddings,
    plan_audit,
)
from memaudit.errors import InvalidArgumentError
from memaudit.ingest import EmbeddingSet

from conftest import image, random_dataset


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
        for n in (64, 1024, 65536, 262144):
            plan = plan_audit(10_000, 10_000, n, block_budget_mib=32.0)
            b = max(plan.block_query, plan.block_reference)
            working_set = 8 * (2 * b * n + b * b)
            assert working_set <= 32 * (1 << 20)
            assert plan.block_query >= 1

    def test_zero_sizes_allowed(self):
        assert plan_audit(0, 5, 10).total_comparisons == 0


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
        q = random_dataset(17, (1, 12, 12), 51, role="synthetic", name="q")
        r = random_dataset(33, (1, 12, 12), 52, name="r")
        first, again = (
            max_correlations(q, r, k=4, block_budget_mib=0.02) for _ in range(2)
        )
        assert first == again  # same budget: bit-identical, not merely close
        for budget in (0.25, 32.0):
            other = max_correlations(q, r, k=4, block_budget_mib=budget)
            for a, b in zip(first, other):
                assert [m[0] for m in a.matches] == [m[0] for m in b.matches]
                for (_, x), (_, y) in zip(a.matches, b.matches):
                    assert abs(x - y) <= 1e-6

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

    def test_chunked_standardization_keeps_row_order(self, monkeypatch):
        imgs = list(random_dataset(9, (1, 5, 5), 45).images)
        for i in (0, 4, 8):  # constant rows at both ends and mid-chunk
            imgs[i] = ImageRecord(f"const{i}", 1, 5, 5, np.full(25, float(i)))
        r = Dataset("r", "train", tuple(imgs))
        q = random_dataset(3, (1, 5, 5), 46, role="synthetic", name="q")
        whole = max_correlations(q, r, k=9)
        monkeypatch.setattr(correlate, "_CHUNK_BYTES", 2 * 8 * 25)  # 2 rows
        assert max_correlations(q, r, k=9) == whole
        assert max_correlations(r, r, k=1)[4].query_valid is False

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

    def test_empty_reference_rejected(self):
        q = random_dataset(2, (1, 4, 4), 93, role="synthetic")
        with pytest.raises(InvalidArgumentError, match="empty"):
            max_correlations(q, Dataset("r", "train", ()))

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
        matches = max_correlations_embeddings(emb, emb, k=1)
        for i, match in enumerate(matches):
            assert match.top1[0] == f"e{i}"
            assert match.top1[1] == pytest.approx(1.0, abs=1e-6)

    def test_axis_rows_fully_anticorrelated(self):
        q = EmbeddingSet(("q0",), 2, np.array([[1.0, 0.0]], np.float32))
        r = EmbeddingSet(("r0",), 2, np.array([[0.0, 1.0]], np.float32))
        (match,) = max_correlations_embeddings(q, r, k=1)
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
        got = max_correlations_embeddings(q_emb, r_emb, k=100, block_budget_mib=0.01)
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
        (match,) = max_correlations_embeddings(q, r, k=2, metric="cosine")
        by_id = dict(match.matches)
        assert by_id["x"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)
        assert by_id["y"] == pytest.approx(0.0, abs=1e-6)

    def test_dim_mismatch_rejected(self):
        a = EmbeddingSet(("a",), 2, np.ones((1, 2), np.float32))
        b = EmbeddingSet(("b",), 3, np.ones((1, 3), np.float32))
        with pytest.raises(InvalidArgumentError):
            max_correlations_embeddings(a, b)

    def test_unknown_metric_rejected(self):
        a = EmbeddingSet(("a",), 2, np.array([[1.0, 2.0]], np.float32))
        with pytest.raises(InvalidArgumentError, match="metric"):
            max_correlations_embeddings(a, a, metric="euclid")

    @pytest.mark.parametrize("metric, dead", [
        ("pearson", [3.0, 3.0, 3.0, 3.0]),  # constant row: no variance
        ("cosine", [0.0, 0.0, 0.0, 0.0]),   # zero row: no direction
    ])
    def test_degenerate_rows_invalid(self, metric, dead):
        rows = np.array([[1.0, 2.0, 4.0, 3.0], dead, [0.5, -1.0, 2.0, 1.0]], np.float32)
        emb = EmbeddingSet(("a", "dead", "b"), 4, rows)
        matches = max_correlations_embeddings(emb, emb, k=3, metric=metric)
        assert [m.query_valid for m in matches] == [True, False, True]
        assert matches[1].matches == ()
        for m in (matches[0], matches[2]):
            assert m.skipped_invalid == 1
            assert [r for r, _ in m.matches] == sorted(
                ("a", "b"), key=lambda r: r != m.query_id
            )
