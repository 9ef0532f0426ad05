"""The benchmark's three workloads: inputs made from a seed, the memaudit
subcommands one iteration runs, and the output checks.

Sizes are fixed constants, never adapted to the machine. They keep the
geometry each workload is about (paper-mri: 5x256x256 images, N = 262,144
correlated values; embed-wide: 1,000 dim-512 queries ranked against 25,000
rows; slices-pipeline: about a thousand 5x64x64 slices) at counts that let
one run, with its repeated set-up, finish in well under a minute on a
2-core machine. ``need_mib`` is the measured peak RSS of the benchmark
process plus that of its largest child, with about 25% margin; below that
much free memory a run refuses to start.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from memaudit.core import Dataset, ImageRecord, VolumeRecord
from memaudit.correlate import brute_force_correlations
from memaudit.harness import (
    GroundTruth,
    GroundTruthEntry,
    PlantConfig,
    evaluate_detector,
    load_ground_truth,
)
from memaudit.ingest import (
    EmbeddingSet,
    load_dataset,
    read_embeddings,
    read_ivc,
    write_ivc,
    write_manifest,
)
from memaudit.report import FlaggedPair

ORACLE_TOLERANCE = 1e-6
PLANT_FRACTIONS = dict(p_copy=0.1, p_noisy=0.1, p_shift=0.05)


def _seeds(seed: int) -> tuple[int, int, int]:
    """Distinct train / test / plant seeds derived from the run seed."""
    return 3 * seed + 1, 3 * seed + 2, 3 * seed + 3


def _write_images(api, out: Path, name: str, role: str, images) -> Path:
    api.write_ivc(list(images), out / f"{name}.ivc")
    api.write_manifest(out / f"{name}.mf", name, role, [f"{name}.ivc"])
    return out / f"{name}.mf"


def _audit_argv(inputs: dict, it: Path, *extra: str) -> list[str]:
    return [
        "audit", "--train", str(inputs["train"]), "--synthetic", str(inputs["synth"]),
        "--test", str(inputs["test"]), *extra,
        "--out", str(it / "report.json"), "--matches-out", str(it / "matches.json"),
    ]


def _top1(matches_path: Path) -> dict[str, tuple[str, float]]:
    data = json.loads(matches_path.read_text("utf-8"))
    return {m["query_id"]: tuple(m["matches"][0]) for m in data["matches"] if m["matches"]}


def detector_check(checks, report_path: Path, truth_path: Path) -> dict[str, int]:
    """Every planted copy is flagged with its true source; returns the
    flagged count per planted kind (recorded, not gated)."""
    report = json.loads(report_path.read_text("utf-8"))
    flags = [FlaggedPair(**f) for f in report["flagged"]]
    truth = load_ground_truth(truth_path)
    copies = evaluate_detector(flags, truth, positive_kinds=("copy",))
    checks.add(
        "planted-copies-flagged",
        copies.recall == 1.0 and copies.source_attribution == 1.0,
        f"recall {copies.recall}, source attribution {copies.source_attribution}",
    )
    totals = truth.kind_counts()
    return {
        kind: round(copies.per_kind_recall.get(kind, 0.0) * totals[kind])
        for kind in totals
    }


def _compare_top1(checks, qid, got, ref_id, ref_value, value_of) -> None:
    got_id, got_value = got
    same_id = got_id == ref_id or abs(value_of(got_id) - ref_value) <= ORACLE_TOLERANCE
    checks.add(
        f"oracle:{qid}",
        same_id and abs(got_value - ref_value) <= ORACLE_TOLERANCE,
        f"engine {got_id} {got_value!r} vs oracle {ref_id} {ref_value!r}",
    )


def image_oracle_check(checks, train_mf: Path, synth_mf: Path, matches_path: Path,
                       picks) -> None:
    """Top-1 id and value of the audited synthetic images against the
    per-pair brute-force oracle, on a fixed query subsample."""
    train = load_dataset(train_mf)
    synth = load_dataset(synth_mf)
    query = Dataset("oracle", "synthetic", tuple(synth.images[i] for i in picks))
    full = brute_force_correlations(query, train)
    column = {img.id: j for j, img in enumerate(train.images)}
    top1 = _top1(matches_path)
    for row, img in zip(full, query.images):
        j = int(np.nanargmax(row))
        _compare_top1(
            checks, img.id, top1[img.id], train.images[j].id, float(row[j]),
            lambda rid: float(row[column[rid]]),
        )


def _kind_picks(truth: GroundTruth) -> list[int]:
    """First synthetic image of each planted kind, in planted order."""
    first = {}
    for i, entry in enumerate(truth.entries):
        first.setdefault(entry.kind, i)
    return sorted(first.values())


@dataclass(frozen=True)
class PaperMri:
    """The paper's geometry: 5x256x256 float images, channels 0-3 correlated."""

    name: str = "paper-mri"
    n_train: int = 64
    n_synth: int = 32
    n_test: int = 32
    need_mib: int = 1300

    def setup(self, out: Path, seed: int, api) -> dict:
        out.mkdir(parents=True)
        s_train, s_test, s_plant = _seeds(seed)
        train = api.generate_train_set(self.n_train, 5, 256, 256, seed=s_train)
        test = api.generate_train_set(
            self.n_test, 5, 256, 256, seed=s_test, name="generated-test", role="test"
        )
        synth, truth = api.plant(
            train, PlantConfig(n_output=self.n_synth, seed=s_plant, **PLANT_FRACTIONS)
        )
        api.save_ground_truth(truth, out / "truth.json")
        return {
            "train": _write_images(api, out, "train", "train", train.images),
            "test": _write_images(api, out, "test", "test", test.images),
            "synth": _write_images(api, out, "synth", "synthetic", synth.images),
            "truth": out / "truth.json",
        }

    def iterate(self, run, inputs: dict, it: Path) -> list[Path]:
        it.mkdir(parents=True)
        run("audit", _audit_argv(inputs, it), expect=1)
        return [it / "report.json", it / "matches.json"]

    def check(self, checks, inputs: dict, it: Path) -> dict[str, int]:
        flagged = detector_check(checks, it / "report.json", inputs["truth"])
        picks = _kind_picks(load_ground_truth(inputs["truth"]))
        image_oracle_check(
            checks, inputs["train"], inputs["synth"], it / "matches.json", picks
        )
        return flagged


@dataclass(frozen=True)
class EmbedWide:
    """EMB1 embeddings, dim 512: 1,000 short queries ranked against 25,000 rows."""

    name: str = "embed-wide"
    n_train: int = 25_000
    n_query: int = 1_000
    dim: int = 512
    noise: float = 0.25
    need_mib: int = 1300

    def setup(self, out: Path, seed: int, api) -> dict:
        out.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        train = rng.standard_normal((self.n_train, self.dim), dtype=np.float32)
        test = rng.standard_normal((self.n_query, self.dim), dtype=np.float32)
        synth = rng.standard_normal((self.n_query, self.dim), dtype=np.float32)
        n_copy = self.n_query // 10
        sources = rng.choice(self.n_train, 2 * n_copy, replace=False)
        synth[:n_copy] = train[sources[:n_copy]]
        synth[n_copy : 2 * n_copy] = train[sources[n_copy:]] + self.noise * rng.standard_normal(
            (n_copy, self.dim), dtype=np.float32
        )
        ids = {
            name: tuple(f"{name}_{i:06d}" for i in range(len(rows)))
            for name, rows in (("train", train), ("test", test), ("synth", synth))
        }
        entries = [
            GroundTruthEntry(
                ids["synth"][i],
                "copy" if i < n_copy else "noisy" if i < 2 * n_copy else "fresh",
                ids["train"][sources[i]] if i < 2 * n_copy else "",
            )
            for i in range(self.n_query)
        ]
        api.save_ground_truth(GroundTruth(tuple(entries)), out / "truth.json")
        inputs = {"truth": out / "truth.json"}
        for name, rows, role in (
            ("train", train, "train"), ("test", test, "test"), ("synth", synth, "synthetic")
        ):
            api.write_embeddings(EmbeddingSet(ids[name], self.dim, rows), out / f"{name}.emb")
            api.write_manifest(out / f"{name}.mf", name, role, [f"{name}.emb"])
            inputs[name] = out / f"{name}.mf"
            inputs[f"{name}_emb"] = out / f"{name}.emb"
        return inputs

    def iterate(self, run, inputs: dict, it: Path) -> list[Path]:
        it.mkdir(parents=True)
        run("audit", _audit_argv(inputs, it, "--metric", "pearson"), expect=1)
        return [it / "report.json", it / "matches.json"]

    def check(self, checks, inputs: dict, it: Path) -> dict[str, int]:
        flagged = detector_check(checks, it / "report.json", inputs["truth"])
        train = read_embeddings(inputs["train_emb"])
        synth = read_embeddings(inputs["synth_emb"])
        picks = list(range(0, self.n_query, self.n_query // 16))
        query = _pearson_rows(synth.rows[picks])
        best = np.full(len(picks), -np.inf)
        best_idx = np.zeros(len(picks), dtype=np.int64)
        index = {rid: i for i, rid in enumerate(train.ids)}
        top1 = _top1(it / "matches.json")
        got_values = np.zeros(len(picks))
        got_idx = np.array([index[top1[synth.ids[p]][0]] for p in picks])
        for r0 in range(0, self.n_train, 8192):
            block = _pearson_rows(train.rows[r0 : r0 + 8192])
            sims = query @ block.T
            arg = sims.argmax(axis=1)  # first maximum: ids ascend with index
            val = sims[np.arange(len(picks)), arg]
            better = val > best
            best[better], best_idx[better] = val[better], arg[better] + r0
            inside = (got_idx >= r0) & (got_idx < r0 + len(block))
            got_values[inside] = sims[inside, got_idx[inside] - r0]
        for k, p in enumerate(picks):
            _compare_top1(
                checks, synth.ids[p], top1[synth.ids[p]], train.ids[best_idx[k]],
                float(best[k]), lambda rid, v=float(got_values[k]): v,
            )
        return flagged


def _pearson_rows(rows: np.ndarray) -> np.ndarray:
    """Float64 reference standardization: centered, unit-norm rows."""
    centered = rows.astype(np.float64)
    centered -= centered.mean(axis=1, keepdims=True)
    return centered / np.linalg.norm(centered, axis=1, keepdims=True)


PREPROCESS_FLAGS = [
    "--pad", "64", "64", "--rescale", "--rescale-channels", "0,1,2,3",
    "--remap", "1=51,2=102,4=204", "--remap-channels", "4",
]


@dataclass(frozen=True)
class SlicesPipeline:
    """Raw 5x96x60x60 volumes through preprocess, plant, audit and metrics."""

    name: str = "slices-pipeline"
    n_train_volumes: int = 12
    n_test_volumes: int = 2
    n_plant: int = 100
    shape: tuple[int, int, int, int] = (5, 96, 60, 60)
    need_mib: int = 1300

    def _volume(self, rng, vid: str) -> VolumeRecord:
        """A brain-like ellipsoid of noisy intensities with a labelled
        tumour (0/1/2/4) on channel 4; slices near the poles are mostly
        empty, so the content filter drops some of them. The ellipsoid is
        the same in every volume and seed, so every run keeps the same
        slices and the audit does the same work; intensities, noise and the
        tumour's place change with the seed."""
        c, d, h, w = self.shape
        z = np.arange(d)[:, None, None]
        y = np.arange(h)[None, :, None]
        x = np.arange(w)[None, None, :]
        center = np.array([d / 2, h / 2, w / 2])
        radii = np.array([42.0, 24.5, 22.5])
        r2 = (
            ((z - center[0]) / radii[0]) ** 2
            + ((y - center[1]) / radii[1]) ** 2
            + ((x - center[2]) / radii[2]) ** 2
        )
        brain = r2 < 1.0
        out = np.zeros((c, d, h, w), dtype=np.float32)
        for ch in range(c - 1):
            base = rng.uniform(300, 900)
            noise = rng.standard_normal((d, h, w), dtype=np.float32)
            out[ch] = np.maximum(brain * base * (1.2 - 0.4 * r2 + 0.15 * noise), 0.0)
        tumour = center + rng.uniform([-15, -8, -8], [15, 8, 8])
        radius = rng.uniform(5, 9)
        dist = np.sqrt((z - tumour[0]) ** 2 + (y - tumour[1]) ** 2 + (x - tumour[2]) ** 2)
        labels = np.zeros((d, h, w), dtype=np.float32)
        labels[dist < radius] = 2
        labels[dist < 0.7 * radius] = 1
        labels[dist < 0.4 * radius] = 4
        out[c - 1] = labels * brain
        return VolumeRecord(vid, c, d, h, w, out.reshape(-1))

    def setup(self, out: Path, seed: int, api) -> dict:
        out.mkdir(parents=True)
        rng = np.random.default_rng(seed)
        train = [self._volume(rng, f"vol{i:03d}") for i in range(self.n_train_volumes)]
        test = [self._volume(rng, f"tvol{i:03d}") for i in range(self.n_test_volumes)]
        return {
            "raw_train": _write_images(api, out, "raw_train", "train", train),
            "raw_test": _write_images(api, out, "raw_test", "test", test),
            "plant_seed": _seeds(seed)[2],
        }

    def iterate(self, run, inputs: dict, it: Path) -> list[Path]:
        it.mkdir(parents=True)
        for split in ("train", "test"):
            run(f"preprocess-{split}", [
                "preprocess", "--manifest", str(inputs[f"raw_{split}"]),
                "--out-container", str(it / f"{split}.ivc"),
                "--out-manifest", str(it / f"{split}.mf"), *PREPROCESS_FLAGS,
            ], expect=0)
        run("plant", [
            "plant", "--train", str(it / "train.mf"), "--n", str(self.n_plant),
            "--p-copy", str(PLANT_FRACTIONS["p_copy"]),
            "--p-noisy", str(PLANT_FRACTIONS["p_noisy"]),
            "--p-shift", str(PLANT_FRACTIONS["p_shift"]),
            "--seed", str(inputs["plant_seed"]),
            "--out", str(it / "synth.ivc"), "--truth", str(it / "truth.json"),
            "--out-manifest", str(it / "synth.mf"),
        ], expect=0)
        staged = {"train": it / "train.mf", "test": it / "test.mf", "synth": it / "synth.mf"}
        run("audit", _audit_argv(staged, it), expect=1)
        self._pair_container(it)  # untimed: assembled by the benchmark, not memaudit
        pairs = [str(it / "synth.mf"), str(it / "pairs.mf")]
        run("metrics", [
            "metrics", "--ssim-pairs", *pairs, "--mi-pairs", *pairs,
            "--out", str(it / "metrics.json"),
        ], expect=0)
        return [
            it / name for name in (
                "train.ivc", "test.ivc", "synth.ivc", "truth.json", "report.json",
                "matches.json", "metrics.json",
            )
        ]

    @staticmethod
    def _pair_container(it: Path) -> None:
        """The top-1 training match of every synthetic image, in synthetic
        order, so `metrics --ssim-pairs synth pairs` scores each pair."""
        train = {rec.id: rec for rec in read_ivc(it / "train.ivc")}
        top1 = _top1(it / "matches.json")
        paired = []
        for rec in read_ivc(it / "synth.ivc"):
            match = train[top1[rec.id][0]]
            paired.append(ImageRecord(
                f"{rec.id}~{match.id}", match.channels, match.height, match.width,
                match.pixels,
            ))
        write_ivc(paired, it / "pairs.ivc")
        write_manifest(it / "pairs.mf", "top1-pairs", "test", ["pairs.ivc"])

    def check(self, checks, inputs: dict, it: Path) -> dict[str, int]:
        flagged = detector_check(checks, it / "report.json", it / "truth.json")
        picks = _kind_picks(load_ground_truth(it / "truth.json"))
        image_oracle_check(
            checks, it / "train.mf", it / "synth.mf", it / "matches.json", picks
        )
        return flagged



# paper-mri-roadmap has the ROADMAP baseline's own sizes (48 synthetic + 48
# test against 512 train). It is too slow for the runs BENCHMARK.json lists
# and is run by hand to compare with the ROADMAP table.
WORKLOADS = {
    w.name: w
    for w in (
        PaperMri(),
        EmbedWide(),
        SlicesPipeline(),
        PaperMri(name="paper-mri-roadmap", n_train=512, n_synth=48, n_test=48,
                 need_mib=5300),
    )
}
