"""Acceptance gate: one test per release criterion, one printed verdict line
each (run with `pytest tests/test_acceptance.py -v -s` to see the lines).

Criterion 7 (throughput) is a soft gate: it records measured numbers and
never fails on speed. perfbench/ is the timed benchmark.
"""

import json
import time

import numpy as np
import pytest

from memaudit.core import Dataset, ImageRecord, pearson
from memaudit.correlate import (
    brute_force_correlations,
    max_correlations,
    plan_audit,
)
from memaudit.cli import run
from memaudit.harness import (
    PlantConfig,
    evaluate_detector,
    generate_train_set,
    plant,
)
from memaudit.ingest import (
    EmbeddingSet,
    read_embeddings,
    read_ivc,
    write_embeddings,
    write_ivc,
    write_manifest,
)
from memaudit.errors import FormatError
from memaudit.metrics import (
    GaussianStats,
    fid,
    gaussian_stats,
    inception_score,
    mutual_information,
    ssim,
)
from memaudit.preprocess import (
    SliceFilterRule,
    remap_labels,
    rescale_intensity,
    slice_volume,
    zero_pad,
)
from memaudit.report import derive_threshold, flag_memorized, summarize
from memaudit.core import VolumeRecord

from conftest import image, random_dataset


def verdict(number, text):
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_comparison_count_fidelity():
    assert plan_audit(1000, 23478, 262144).total_comparisons == 23_478_000
    assert plan_audit(1000, 91271, 262144).total_comparisons == 91_271_000
    assert 23_478_000 + 91_271_000 == 114_749_000
    cxr = (
        plan_audit(1000, 5216, 65536).total_comparisons
        + plan_audit(1000, 1300, 65536).total_comparisons
    )
    assert cxr == 6_516_000

    timings = []
    for _ in range(50):
        t0 = time.perf_counter()
        plan_audit(1000, 23478, 262144)
        plan_audit(1000, 91271, 262144)
        plan_audit(1000, 5216, 65536)
        plan_audit(1000, 1300, 65536)
        timings.append(time.perf_counter() - t0)
    median = sorted(timings)[len(timings) // 2]
    assert median < 1e-3, f"plan_audit took {median * 1e3:.3f} ms"
    verdict(1, f"counts exact, median plan time {median * 1e6:.0f} us")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    query = random_dataset(50, (4, 16, 16), seed=8821, role="synthetic", name="q")
    reference = random_dataset(200, (4, 16, 16), seed=8822, name="r")
    oracle = brute_force_correlations(query, reference)
    ref_ids = [img.id for img in reference.images]

    worst = 0.0
    for budget in (0.05, 0.25, 32.0):
        got = max_correlations(query, reference, k=200, block_budget_mib=budget)
        for i, match in enumerate(got):
            by_id = dict(match.matches)
            for j, rid in enumerate(ref_ids):
                worst = max(worst, abs(by_id[rid] - oracle[i, j]))
            assert worst <= 1e-6
            oracle_top5 = [
                rid
                for _, rid in sorted(
                    ((-oracle[i, j], rid) for j, rid in enumerate(ref_ids))
                )[:5]
            ]
            assert [m[0] for m in match.matches[:5]] == oracle_top5
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    verdict(
        2,
        f"blocked vs brute force max |delta| {worst:.2e} over 10,000 pairs x "
        f"block budgets 0.05/0.25/32 MiB, top-5 ids exact, {elapsed:.1f}s",
    )


def test_criterion_3_planted_memorization_recall():
    t0 = time.perf_counter()
    train = generate_train_set(500, 1, 64, 64, seed=424242)
    planted, truth = plant(
        train,
        PlantConfig(n_output=200, p_copy=0.1, p_noisy=0.1, noise_sigma=5.0, seed=7),
    )
    baseline_set, _ = plant(train, PlantConfig(n_output=200, seed=990001))

    baseline_matches = max_correlations(baseline_set, train, k=1)
    baseline = summarize(baseline_matches, "fresh-vs-train")
    decision = derive_threshold(baseline, "percentile:99.5")

    matches = max_correlations(planted, train, k=1)
    flags = flag_memorized(matches, decision.value)
    score = evaluate_detector(flags, truth, positive_kinds=("copy", "noisy"))

    assert truth.kind_counts()["copy"] == 20
    assert truth.kind_counts()["noisy"] == 20
    assert score.per_kind_recall["copy"] == 1.0, score
    assert score.source_attribution == 1.0, score
    assert score.per_kind_recall["noisy"] >= 0.9, score
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    verdict(
        3,
        f"copy recall 1.0, source attribution 100%, noisy recall "
        f"{score.per_kind_recall['noisy']:.2f} at threshold "
        f"{decision.value:.4f} ({decision.provenance}), {elapsed:.1f}s",
    )


def test_criterion_4_preprocessing_rules():
    # 15% of 240x240 = 8640 pixels above 50 keeps the slice; 8639 drops it.
    def slab(n_bright):
        plane = np.zeros((1, 240, 240), dtype=np.float32)
        plane.reshape(-1)[:n_bright] = 51.0
        return VolumeRecord("v", 1, 1, 240, 240, plane.reshape(-1))

    rule = SliceFilterRule()
    assert len(slice_volume(slab(8640), rule)) == 1
    assert len(slice_volume(slab(8639), rule)) == 0

    padded = zero_pad(image(np.arange(240 * 240, dtype=np.float32).reshape(240, 240),
                            id="p"), 256, 256)
    assert padded.chw()[0, 8, 8] == 0.0  # input (0,0) value
    assert padded.chw()[0, 7, 8] == 0.0 and padded.chw()[0, 8, 7] == 0.0
    assert padded.chw()[0, 8, 9] == 1.0  # input (0,1) landed at (8,9)

    remapped = remap_labels(image([0.0, 1.0, 2.0, 4.0], id="l"),
                            {1: 51, 2: 102, 4: 204})
    np.testing.assert_array_equal(remapped.pixels, [0.0, 51.0, 102.0, 204.0])

    rescaled = rescale_intensity(image([12.0, 300.0, 77.0], id="r"))
    assert rescaled.pixels.min() == 0.0 and rescaled.pixels.max() == 255.0
    verdict(4, "slice filter boundary, pad centering, label map, rescale endpoints")


def test_criterion_5_metric_identities():
    rng = np.random.default_rng(5150)
    emb = EmbeddingSet(
        tuple(f"e{i}" for i in range(30)), 6,
        rng.normal(0, 1, (30, 6)).astype(np.float32),
    )
    g = gaussian_stats(emb)
    assert fid(g, g) <= 1e-6

    def g1d(mu, var):
        return GaussianStats(np.array([mu]), np.array([[var]]), n=2)

    assert abs(fid(g1d(0, 1), g1d(1, 1)) - 1.0) <= 1e-9
    assert abs(fid(g1d(0, 1), g1d(0, 4)) - 1.0) <= 1e-9

    uniform = EmbeddingSet(
        tuple(f"u{i}" for i in range(20)), 10, np.full((20, 10), 0.1, np.float32)
    )
    is_mean, _ = inception_score(uniform)
    assert abs(is_mean - 1.0) <= 1e-9
    onehot = EmbeddingSet(("a", "b"), 2,
                          np.array([[1.0, 0.0], [0.0, 1.0]], np.float32))
    is2, _ = inception_score(onehot, splits=1)
    assert abs(is2 - 2.0) <= 1e-9

    x = image(rng.integers(0, 256, (32, 32)).astype(np.float32), id="x")
    assert abs(ssim(x, x) - 1.0) <= 1e-9
    black = image(np.zeros((16, 16), np.float32), id="b")
    white = image(np.full((16, 16), 255.0, np.float32), id="w")
    assert abs(ssim(black, white) - 1.0000e-4) <= 1e-8

    two_tone = image([0.0, 200.0] * 32, id="t")
    assert abs(mutual_information(two_tone, two_tone) - 1.0) <= 1e-9
    verdict(5, "FID, IS, SSIM and MI identities at stated tolerances")


@pytest.fixture()
def cli_workspace(tmp_path):
    train = generate_train_set(60, 1, 24, 24, seed=777000)
    write_ivc(list(train.images), tmp_path / "train.ivc")
    write_manifest(tmp_path / "train.mf", "train", "train", ["train.ivc"])
    code = run([
        "plant", "--train", str(tmp_path / "train.mf"), "--n", "30",
        "--p-copy", "0.2", "--seed", "31337",
        "--out", str(tmp_path / "synth.ivc"),
        "--truth", str(tmp_path / "truth.json"), "--quiet",
    ])
    assert code == 0
    return tmp_path


def test_criterion_6_determinism(cli_workspace):
    tmp = cli_workspace
    blobs = []
    for name in ("one.json", "two.json"):
        code = run([
            "audit", "--train", str(tmp / "train.mf"),
            "--synthetic", str(tmp / "synth.mf"),
            "--rule", "fixed:0.999", "--sample", "20", "--seed", "99",
            "--out", str(tmp / name), "--quiet",
        ])
        assert code == 1
        blobs.append((tmp / name).read_bytes())
    assert blobs[0] == blobs[1], "identical runs must write identical bytes"

    values = {}
    for budget in ("0.05", "32"):
        out = tmp / f"b{budget}.json"
        run([
            "audit", "--train", str(tmp / "train.mf"),
            "--synthetic", str(tmp / "synth.mf"),
            "--rule", "fixed:0.999", "--block-budget-mib", budget,
            "--out", str(out), "--quiet",
        ])
        report = json.loads(out.read_text("utf-8"))
        values[budget] = np.array(report["summaries"][0]["values"])
    delta = float(np.abs(values["0.05"] - values["32"]).max())
    assert delta <= 1e-6
    verdict(6, f"byte-identical reports; block-budget correlation delta {delta:.1e}")


def test_criterion_7_throughput_recorded():
    n_query, n_reference = 128, 2048
    shape = (1, 256, 256)
    rng = np.random.default_rng(314159)

    def make(n, prefix):
        return Dataset(
            prefix, "train" if prefix == "r" else "synthetic",
            tuple(
                ImageRecord(
                    f"{prefix}{i:05d}", *shape,
                    rng.integers(0, 256, 256 * 256, dtype=np.uint8).astype(np.float32),
                )
                for i in range(n)
            ),
        )

    reference = make(n_reference, "r")
    query = make(n_query, "q")
    plan = plan_audit(n_query, n_reference, 256 * 256, block_budget_mib=512.0)

    t0 = time.perf_counter()
    results = max_correlations(query, reference, k=5, block_budget_mib=512.0)
    elapsed = time.perf_counter() - t0
    assert len(results) == n_query
    rate = plan.estimated_multiply_adds / elapsed

    # Per-pair cost of the secondary metrics at the audit geometry,
    # recorded (not asserted: hardware-dependent).
    a, b = query.images[0], query.images[1]
    t = time.perf_counter(); pearson(a, b); t_corr = time.perf_counter() - t
    t = time.perf_counter(); ssim(a, b); t_ssim = time.perf_counter() - t
    t = time.perf_counter(); mutual_information(a, b); t_mi = time.perf_counter() - t

    verdict(
        7,
        f"reduced scale {n_query}x{n_reference} @1x256x256: "
        f"{elapsed:.1f}s, {rate / 1e9:.2f}G multiply-adds/s "
        f"(plan estimate {plan.estimated_multiply_adds / 1e9:.1f}G); "
        f"per-pair cost ssim/corr {t_ssim / t_corr:.1f}x, mi/corr {t_mi / t_corr:.1f}x "
        f"[recorded, not asserted]",
    )


def test_criterion_8_format_round_trips(tmp_path):
    rng = np.random.default_rng(616)
    for case in range(100):
        n_entries = int(rng.integers(1, 4))
        records = []
        for j in range(n_entries):
            if rng.random() < 0.5:
                c, h, w = (int(x) for x in rng.integers(1, 8, 3))
                values = (
                    rng.integers(0, 256, c * h * w).astype(np.float32)
                    if rng.random() < 0.5
                    else rng.normal(0, 50, c * h * w).astype(np.float32)
                )
                records.append(ImageRecord(f"img{case}_{j}", c, h, w, values))
            else:
                c, d, h, w = (int(x) for x in rng.integers(1, 5, 4))
                records.append(VolumeRecord(
                    f"vol{case}_{j}", c, d, h, w,
                    rng.normal(0, 5, c * d * h * w).astype(np.float32),
                ))
        path = tmp_path / f"rt{case}.ivc"
        write_ivc(records, path)
        back = read_ivc(path)
        for orig, rec in zip(records, back):
            assert orig.id == rec.id and orig.shape == rec.shape
            a = orig.voxels if isinstance(orig, VolumeRecord) else orig.pixels
            b = rec.voxels if isinstance(rec, VolumeRecord) else rec.pixels
            np.testing.assert_array_equal(a, b)

        n, dim = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        emb = EmbeddingSet(
            tuple(f"row{case}_{i}" for i in range(n)), dim,
            rng.normal(0, 2, (n, dim)).astype(np.float32),
        )
        epath = tmp_path / f"rt{case}.emb"
        write_embeddings(emb, epath)
        back_emb = read_embeddings(epath)
        assert back_emb.ids == emb.ids
        np.testing.assert_array_equal(back_emb.rows, emb.rows)

    corrupt = tmp_path / "corrupt.ivc"
    write_ivc([ImageRecord("c", 1, 4, 4, np.arange(16, dtype=np.float32))], corrupt)
    blob = bytearray(corrupt.read_bytes())
    blob[-8] ^= 0x01  # payload bit flip; stored CRC now disagrees
    corrupt.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="checksum"):
        read_ivc(corrupt)
    verdict(8, "100 randomized IVC1+EMB1 round-trips bit-exact; corrupt CRC rejected")
