import re
import threading
import time

import numpy as np
import pytest

import memaudit.harness as harness
from memaudit import core
from memaudit.correlate import max_correlations
from memaudit.errors import FormatError, InvalidArgumentError
from memaudit.harness import (
    GroundTruth,
    GroundTruthEntry,
    PlantConfig,
    evaluate_detector,
    generate_train_set,
    load_ground_truth,
    plant,
    save_ground_truth,
)
from memaudit.ingest import write_ivc, write_manifest
from memaudit.report import FlaggedPair, derive_threshold, flag_memorized, summarize

from conftest import child


@pytest.fixture(scope="module")
def train():
    return generate_train_set(40, 1, 24, 24, seed=1000)


class TestPlantConfig:
    def test_largest_remainder_exact_tenth(self):
        counts = PlantConfig(n_output=100, p_copy=0.1, seed=1).kind_counts()
        assert counts == {"copy": 10, "noisy": 0, "shift": 0, "fresh": 90}

    def test_counts_sum_to_n(self):
        cfg = PlantConfig(
            n_output=7, p_copy=0.33, p_noisy=0.33, p_shift=0.2, seed=2
        )
        counts = cfg.kind_counts()
        assert sum(counts.values()) == 7
        assert min(counts.values()) >= 0

    def test_fraction_rounding_follows_remainders(self):
        counts = PlantConfig(
            n_output=10, p_copy=0.25, p_noisy=0.25, p_shift=0.25, seed=3
        ).kind_counts()
        # quotas 2.5/2.5/2.5/2.5: two leftover slots go to copy then noisy.
        assert counts == {"copy": 3, "noisy": 3, "shift": 2, "fresh": 2}

    def test_bad_probabilities_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PlantConfig(n_output=10, p_copy=0.7, p_noisy=0.5, seed=0)


class TestPlant:
    def test_determinism_bit_identical(self, train):
        cfg = PlantConfig(n_output=12, p_copy=0.25, p_noisy=0.25, p_shift=0.25, seed=7)
        ds1, truth1 = plant(train, cfg)
        ds2, truth2 = plant(train, cfg)
        assert truth1 == truth2
        for a, b in zip(ds1.images, ds2.images):
            assert a.id == b.id
            np.testing.assert_array_equal(a.pixels, b.pixels)

    def test_copies_are_bit_identical(self, train):
        cfg = PlantConfig(n_output=10, p_copy=0.5, seed=11)
        ds, truth = plant(train, cfg)
        sources = {img.id: img for img in train.images}
        for img, entry in zip(ds.images, truth.entries):
            if entry.kind == "copy":
                np.testing.assert_array_equal(
                    img.pixels, sources[entry.source_id].pixels
                )

    def test_copy_audits_at_one(self, train):
        cfg = PlantConfig(n_output=5, p_copy=1.0, seed=13)
        ds, truth = plant(train, cfg)
        matches = max_correlations(ds, train, k=1)
        for match, entry in zip(matches, truth.entries):
            assert match.top1[0] == entry.source_id
            assert match.top1[1] == pytest.approx(1.0, abs=1e-6)

    def test_noisy_copies_clamped_and_close(self, train):
        cfg = PlantConfig(n_output=6, p_noisy=1.0, noise_sigma=5.0, seed=17)
        ds, truth = plant(train, cfg)
        sources = {img.id: img for img in train.images}
        for img, entry in zip(ds.images, truth.entries):
            assert img.pixels.min() >= 0.0 and img.pixels.max() <= 255.0
            src = sources[entry.source_id]
            diff = img.pixels.astype(np.float64) - src.pixels.astype(np.float64)
            assert 1.0 < diff.std() < 10.0

    def test_shift_moves_content(self, train):
        cfg = PlantConfig(n_output=4, p_shift=1.0, shift_pixels=4, seed=19)
        ds, truth = plant(train, cfg)
        sources = {img.id: img for img in train.images}
        for img, entry in zip(ds.images, truth.entries):
            src = sources[entry.source_id].chw()[0]
            plane = img.chw()[0]
            candidates = [
                src[:, :-4], src[:, 4:], src[:-4, :], src[4:, :]
            ]
            views = [
                plane[:, 4:], plane[:, :-4], plane[4:, :], plane[:-4, :]
            ]
            assert any(
                np.array_equal(v, c) for v, c in zip(views, candidates)
            )

    def test_fresh_have_no_source_and_plausible_moments(self, train):
        cfg = PlantConfig(n_output=30, seed=23)
        ds, truth = plant(train, cfg)
        assert all(e.kind == "fresh" and e.source_id == "" for e in truth.entries)
        pixels = np.concatenate([img.pixels for img in ds.images]).astype(np.float64)
        assert abs(pixels.mean() - 127.0) < 15.0
        assert 20.0 < pixels.std() < 70.0

    def test_noise_monotonically_hurts_correlation(self, train):
        means = []
        for sigma in (1.0, 5.0, 20.0, 60.0):
            tops = []
            for seed in range(20):
                cfg = PlantConfig(
                    n_output=2, p_noisy=1.0, noise_sigma=sigma, seed=3000 + seed
                )
                ds, _ = plant(train, cfg)
                tops.extend(m.top1[1] for m in max_correlations(ds, train, k=1))
            means.append(np.mean(tops))
        assert means == sorted(means, reverse=True)

    def test_fresh_statistically_match_heldout_baseline(self, train):
        fresh_cfg = PlantConfig(n_output=40, seed=501)
        heldout_cfg = PlantConfig(n_output=40, seed=502)
        fresh, _ = plant(train, fresh_cfg)
        heldout, _ = plant(train, heldout_cfg)
        s_fresh = summarize(max_correlations(fresh, train, k=1), "fresh")
        s_base = summarize(max_correlations(heldout, train, k=1), "baseline")
        # Interquartile ranges must overlap.
        assert s_fresh.percentiles["25.0"] <= s_base.percentiles["75.0"]
        assert s_base.percentiles["25.0"] <= s_fresh.percentiles["75.0"]

    def test_empty_train_rejected(self):
        from memaudit.core import Dataset

        with pytest.raises(InvalidArgumentError):
            plant(Dataset("e", "train", ()), PlantConfig(n_output=1, seed=0))

    def test_exact_copy_recall_is_total(self, train):
        # Any threshold <= 0.999 must catch every exact copy with the
        # right source.
        cfg = PlantConfig(n_output=8, p_copy=0.5, seed=31)
        ds, truth = plant(train, cfg)
        matches = max_correlations(ds, train, k=1)
        flags = flag_memorized(matches, 0.999)
        score = evaluate_detector(flags, truth, positive_kinds=("copy",))
        assert score.per_kind_recall["copy"] == 1.0
        assert score.source_attribution == 1.0


class TestGroundTruthFiles:
    def test_round_trip(self, tmp_path, train):
        _, truth = plant(train, PlantConfig(n_output=9, p_copy=0.3, seed=37))
        save_ground_truth(truth, tmp_path / "t.json")
        assert load_ground_truth(tmp_path / "t.json") == truth

    @pytest.mark.parametrize("blob", [
        b"\xff", b'[{"x": 1}]', b'["a"]', b"[", b"{}",
        b'[{"output_id": "s0", "kind": "zzz", "source_id": ""}]',
        b'[{"output_id": 7, "kind": "fresh", "source_id": ""}]',
    ], ids=["not-utf8", "unknown-field", "not-an-object", "bad-json", "not-a-list",
            "unknown-kind", "mistyped-id"])
    def test_bad_file_refused(self, tmp_path, blob):
        path = tmp_path / "t.json"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not a ground truth: "):
            load_ground_truth(path)


def truth_of(kinds_sources):
    return GroundTruth(
        tuple(
            GroundTruthEntry(f"s{i}", kind, src)
            for i, (kind, src) in enumerate(kinds_sources)
        )
    )


class TestEvaluateDetector:
    def test_perfect_detection(self):
        truth = truth_of([("copy", f"t{i}") for i in range(10)])
        flags = [FlaggedPair(f"s{i}", f"t{i}", 1.0) for i in range(10)]
        score = evaluate_detector(flags, truth)
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.source_attribution == 1.0

    def test_no_flags_recall_zero_precision_null(self):
        truth = truth_of([("copy", "t0"), ("fresh", "")])
        score = evaluate_detector([], truth)
        assert score.recall == 0.0
        assert score.precision is None

    def test_half_detection_with_false_alarms(self):
        entries = [("copy", f"t{i}") for i in range(10)]
        entries += [("fresh", "")] * 10
        truth = truth_of(entries)
        flags = [FlaggedPair(f"s{i}", f"t{i}", 0.99) for i in range(5)]
        flags += [FlaggedPair(f"s{i}", "t9", 0.99) for i in range(10, 15)]
        score = evaluate_detector(flags, truth)
        assert score.precision == 0.5
        assert score.recall == 0.5
        assert score.per_kind_recall["copy"] == 0.5
        assert score.per_kind_recall["fresh"] == 0.5

    def test_wrong_source_still_counts_for_recall(self):
        truth = truth_of([("copy", "t0"), ("copy", "t1")])
        flags = [FlaggedPair("s0", "t1", 0.99), FlaggedPair("s1", "t1", 0.99)]
        score = evaluate_detector(flags, truth)
        assert score.recall == 1.0
        assert score.source_attribution == 0.5

    def test_unknown_id_rejected(self):
        truth = truth_of([("copy", "t0")])
        with pytest.raises(InvalidArgumentError, match="unknown"):
            evaluate_detector([FlaggedPair("mystery", "t0", 1.0)], truth)

    def test_shift_excluded_from_default_positives(self):
        truth = truth_of([("shift", "t0"), ("copy", "t1")])
        flags = [FlaggedPair("s0", "t0", 0.99), FlaggedPair("s1", "t1", 0.99)]
        score = evaluate_detector(flags, truth)
        assert score.n_positive == 1
        assert score.precision == 0.5


class TestThresholdPipeline:
    def test_fresh_baseline_gives_usable_threshold(self, train):
        baseline_ds, _ = plant(train, PlantConfig(n_output=30, seed=601))
        baseline = summarize(max_correlations(baseline_ds, train, k=1), "fresh-vs-train")
        decision = derive_threshold(baseline, "percentile:99.5")
        planted, truth = plant(
            train, PlantConfig(n_output=20, p_copy=0.25, seed=602)
        )
        matches = max_correlations(planted, train, k=1)
        flags = flag_memorized(matches, decision.value)
        score = evaluate_detector(flags, truth, positive_kinds=("copy",))
        assert score.per_kind_recall["copy"] == 1.0


class TestWorkerPool:
    """generate_train_set and plant make their images on the calling
    thread and core.worker_count() - 1 helpers and collect them in order:
    the records and the truth are the same at any count."""

    def test_records_identical_at_one_and_three_workers(self, monkeypatch):
        threads, fresh_image = {}, harness._fresh_image

        def counted(*args):
            threads.setdefault(core.worker_count(), set()).add(threading.get_ident())
            time.sleep(0.002)  # lets the calling thread take an image beside the helpers
            return fresh_image(*args)

        monkeypatch.setattr(harness, "_fresh_image", counted)
        runs = []
        for workers in (1, 3):
            monkeypatch.setattr(core, "worker_count", lambda: workers)
            train = generate_train_set(6, 2, 40, 40, seed=1200)
            synth, truth = plant(train, PlantConfig(
                n_output=12, p_copy=0.25, p_noisy=0.25, p_shift=0.25, seed=1201,
            ))
            images = train.images + synth.images
            runs.append(([(i.id, i.shape, i.pixels.tobytes()) for i in images], truth))
        assert runs[0] == runs[1]
        assert runs[0][1].kind_counts() == {"copy": 3, "noisy": 3, "shift": 3, "fresh": 3}
        main = threading.get_ident()
        assert threads[1] == {main}  # one worker: on the calling thread
        assert main in threads[3]  # three: on the calling thread and two helpers


# numpy's AVX-512 log loop gives other last bits than its AVX2 loop, so
# normals drawn with and without this setting differ.
LOWER_SIMD = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def test_truth_identical_across_simd_dispatch(tmp_path, train):
    """Ids, kinds and sources come from integer draws only, so `plant`'s
    truth.json has the same bytes whatever numpy's SIMD dispatch."""
    write_ivc(list(train.images), tmp_path / "train.ivc")
    write_manifest(tmp_path / "train.mf", "train", "train", ["train.ivc"])
    truths = []
    for name, env in (("default", {"NPY_DISABLE_CPU_FEATURES": None}), ("lower", LOWER_SIMD)):
        truth = tmp_path / f"{name}.json"
        planted = child(
            "-m", "memaudit.cli", "plant", "--train", str(tmp_path / "train.mf"),
            "--n", "20", "--p-copy", "0.2", "--p-noisy", "0.2", "--p-shift", "0.2",
            "--seed", "5", "--out", str(tmp_path / f"{name}.ivc"), "--truth", str(truth),
            "--quiet", env=env,
        )
        assert planted.returncode == 0, planted.stderr
        truths.append(truth.read_bytes())
    assert truths[0] == truths[1]
    assert {e.kind for e in load_ground_truth(tmp_path / "default.json").entries} == {
        "copy", "noisy", "shift", "fresh",
    }
