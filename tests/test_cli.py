import errno
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import zlib
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import memaudit
import memaudit.cli as cli
import memaudit.core as core
import memaudit.correlate as correlate
import memaudit.ingest as ingest
from memaudit._rng import SplitMix64
from memaudit.cli import ProgressPrinter, run
from memaudit.core import Dataset, ImageRecord, VolumeRecord
from memaudit.correlate import TopKMatches, max_correlations, plan_audit
from memaudit.harness import PlantConfig, generate_train_set, plant
from memaudit.errors import InvalidArgumentError
from memaudit.ingest import (
    EmbeddingSet,
    OutputSet,
    atomic_write,
    load_dataset,
    load_embedding_set,
    load_manifest,
    read_ivc,
    write_embeddings,
    write_ivc,
    write_manifest,
    write_pgm,
)
from memaudit.preprocess import resize_bilinear
from memaudit.report import load_matches, matches_to_dict

from conftest import image, ivc_payload_span, set_first_ivc_id


@pytest.fixture()
def train_manifest(tmp_path):
    train = generate_train_set(30, 1, 24, 24, seed=9000)
    write_ivc(list(train.images), tmp_path / "train.ivc")
    mf = tmp_path / "train.mf"
    write_manifest(mf, "train", "train", ["train.ivc"])
    return mf


def plant_set(tmp_path, train_manifest, seed, n=20, p_copy=0.0, name="synth"):
    out = tmp_path / f"{name}.ivc"
    truth = tmp_path / f"{name}_truth.json"
    code = run([
        "plant", "--train", str(train_manifest), "--n", str(n),
        "--p-copy", str(p_copy), "--seed", str(seed),
        "--out", str(out), "--truth", str(truth), "--quiet",
    ])
    assert code == 0
    return out.with_suffix(".mf"), truth


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["audit", "--definitely-not-a-flag"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_workers_flag_is_unknown(self, capsys):
        # The read side's threads follow the CPU affinity mask; no flag sets them.
        argv = ["audit", "--train", "t.mf", "--synthetic", "s.mf", "--workers", "2"]
        assert run(argv) == 2
        assert "--workers" in capsys.readouterr().err

    def test_os_error_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert run(["report", "--matches", str(missing), "--rule", "fixed:0.9"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("memaudit report: [Errno 2] No such file or directory")
        assert str(missing) in err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = run([
            "audit", "--train", str(tmp_path / "no.mf"),
            "--synthetic", str(tmp_path / "also_no.mf"),
            "--rule", "fixed:0.9", "--quiet",
        ])
        assert code == 3
        assert "no.mf" in capsys.readouterr().err

    def test_sample_without_seed_is_usage_error(self, tmp_path, train_manifest, capsys):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=1)
        code = run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--sample", "5", "--rule", "fixed:0.9", "--quiet",
        ])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_percentile_rule_without_test_is_usage_error(self, tmp_path, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=2)
        code = run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--quiet",
        ])
        assert code == 2

    def test_flagged_memorization_exits_one(self, tmp_path, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=3, p_copy=0.5)
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.999", "--out", str(out), "--quiet",
        ])
        assert code == 1
        assert json.loads(out.read_text("utf-8"))["flagged"]

    def test_clean_audit_exits_zero(self, tmp_path, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=4, p_copy=0.0)
        code = run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.9999", "--quiet",
        ])
        assert code == 0


class TestAuditEndToEnd:
    def test_planted_copies_detected_with_baseline(self, tmp_path, train_manifest):
        synth_mf, truth_path = plant_set(
            tmp_path, train_manifest, seed=5, n=20, p_copy=0.25
        )
        test_mf, _ = plant_set(tmp_path, train_manifest, seed=6, n=20, name="heldout")
        # Re-role the held-out manifest as a test set.
        text = test_mf.read_text().replace("role = synthetic", "role = test")
        test_mf.write_text(text)
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--k", "3", "--out", str(out), "--quiet",
        ])
        assert code == 1
        report = json.loads(out.read_text("utf-8"))
        truth = json.loads(truth_path.read_text())
        copies = {e["output_id"] for e in truth if e["kind"] == "copy"}
        flagged = {f["query_id"] for f in report["flagged"]}
        assert copies <= flagged
        assert [s["label"] for s in report["summaries"]] == [
            "synth-vs-train", "test-vs-train", "synth-vs-test",
        ]

    def test_byte_identical_reports(self, tmp_path, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=7, p_copy=0.2)
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run([
                "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
                "--rule", "fixed:0.99", "--out", str(out),
                "--sample", "10", "--seed", "42", "--quiet",
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_matches_out_feeds_report_command(self, tmp_path, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=9, p_copy=0.3)
        matches = tmp_path / "matches.json"
        audit_out = tmp_path / "direct.json"
        run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.99", "--out", str(audit_out),
            "--matches-out", str(matches), "--quiet",
        ])
        rebuilt_out = tmp_path / "rebuilt.json"
        code = run([
            "report", "--matches", str(matches), "--rule", "fixed:0.99",
            "--out", str(rebuilt_out), "--quiet",
        ])
        assert code == 1
        direct = json.loads(audit_out.read_text("utf-8"))
        rebuilt = json.loads(rebuilt_out.read_text("utf-8"))
        assert direct["flagged"] == rebuilt["flagged"]
        assert direct["summaries"][0] == rebuilt["summaries"][0]

    def test_sample_ids_recorded(self, tmp_path, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=10, n=20)
        out = tmp_path / "s.json"
        run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.99", "--sample", "5", "--seed", "11",
            "--out", str(out), "--quiet",
        ])
        report = json.loads(out.read_text("utf-8"))
        assert report["sample_ids"] is not None and len(report["sample_ids"]) == 5
        assert report["plan"]["n_query"] == 5

    def test_csv_output(self, tmp_path, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=12, p_copy=0.2)
        out = tmp_path / "r.csv"
        run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.99", "--out", str(out), "--format", "csv", "--quiet",
        ])
        text = out.read_text()
        assert text.startswith("query_id,reference_id,correlation")
        assert "synth-vs-train" in text


class TestEmbeddingAudit:
    def test_embedding_manifests(self, tmp_path):
        rng = np.random.default_rng(13)
        train_rows = rng.normal(0, 1, (50, 32)).astype(np.float32)
        synth_rows = np.concatenate([train_rows[:5], rng.normal(0, 1, (15, 32)).astype(np.float32)])
        write_embeddings(
            EmbeddingSet(tuple(f"t{i}" for i in range(50)), 32, train_rows),
            tmp_path / "train.emb",
        )
        write_embeddings(
            EmbeddingSet(tuple(f"s{i}" for i in range(20)), 32, synth_rows),
            tmp_path / "synth.emb",
        )
        write_manifest(tmp_path / "train.mf", "t", "train", ["train.emb"])
        write_manifest(tmp_path / "synth.mf", "s", "synthetic", ["synth.emb"])
        out = tmp_path / "emb_report.json"
        code = run([
            "audit", "--train", str(tmp_path / "train.mf"),
            "--synthetic", str(tmp_path / "synth.mf"),
            "--rule", "fixed:0.9999", "--out", str(out), "--quiet",
        ])
        assert code == 1  # the 5 copied rows correlate at 1.0
        report = json.loads(out.read_text("utf-8"))
        assert {f["query_id"] for f in report["flagged"]} == {f"s{i}" for i in range(5)}

    def test_metric_pearson_is_the_default(self, tmp_path):
        train_mf, synth_mf, test_mf = _emb_sets(tmp_path)
        outs = [tmp_path / "default.json", tmp_path / "pearson.json"]
        for out, extra in zip(outs, ([], ["--metric", "pearson"])):
            code = run([
                "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
                "--test", str(test_mf), "--out", str(out), "--quiet", *extra,
            ])
            assert code in (0, 1)
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestManifestOfTheOtherKind:
    """A manifest of embeddings where images are read, or of images where
    an audit of embeddings reads them, is a data error that says what the
    files hold and what was expected."""

    IMAGES_READ = "e: .*e.emb is an EMB1 embedding file, not an image file \\(PGM or IVC1\\)"

    @pytest.mark.parametrize("argv, message", [
        (["preprocess", "--manifest", "{e}", "--out-container", "{out}/p.ivc",
          "--out-manifest", "{out}/p.mf"], IMAGES_READ),
        (["plant", "--train", "{e}", "--n", "2", "--seed", "1", "--out", "{out}/s.ivc",
          "--truth", "{out}/t.json"], IMAGES_READ),
        (["metrics", "--ssim-pairs", "{e}", "{e}"], IMAGES_READ),
        (["audit", "--train", "{images}", "--synthetic", "{e}"],
         "--synthetic .*e.mf holds embeddings, but --train .*train.mf holds images"),
        (["audit", "--train", "{e}", "--synthetic", "{images}"],
         "--synthetic .*train.mf holds images, but --train .*e.mf holds embeddings"),
        (["audit", "--train", "{images}", "--synthetic", "{images}", "--test", "{e}"],
         "--test .*e.mf holds embeddings, but --train .*train.mf holds images"),
    ], ids=["preprocess", "plant", "metrics", "audit-synthetic-embeddings",
            "audit-synthetic-images", "audit-test-embeddings"])
    def test_refused(self, tmp_path, capsys, argv, message):
        images, _, _ = _split_train(tmp_path)
        write_embeddings(
            EmbeddingSet(("a", "b"), 3, np.arange(6, dtype=np.float32)), tmp_path / "e.emb"
        )
        write_manifest(tmp_path / "e.mf", "e", "synthetic", ["e.emb"])
        out = tmp_path / "out"
        out.mkdir()
        names = dict(e=tmp_path / "e.mf", images=images, out=out)
        argv = [arg.format(**names) for arg in argv]
        if argv[0] == "audit":
            argv += ["--rule", "fixed:0.9", "--out", str(out / "r.json")]
        assert run([*argv, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert "load_" not in err
        assert not list(out.iterdir())


class TestPlantCommand:
    def test_outputs_and_manifest(self, tmp_path, train_manifest):
        out = tmp_path / "p.ivc"
        truth = tmp_path / "p_truth.json"
        code = run([
            "plant", "--train", str(train_manifest), "--n", "10",
            "--p-copy", "0.2", "--p-noisy", "0.2", "--seed", "77",
            "--out", str(out), "--truth", str(truth), "--quiet",
        ])
        assert code == 0
        records = read_ivc(out)
        assert len(records) == 10
        truth_data = json.loads(truth.read_text())
        kinds = [e["kind"] for e in truth_data]
        assert kinds.count("copy") == 2 and kinds.count("noisy") == 2
        assert (tmp_path / "p.mf").exists()

    def test_deterministic_containers(self, tmp_path, train_manifest):
        blobs = []
        for name in ("a.ivc", "b.ivc"):
            out = tmp_path / name
            run([
                "plant", "--train", str(train_manifest), "--n", "8",
                "--p-copy", "0.25", "--seed", "123",
                "--out", str(out), "--truth", str(tmp_path / f"{name}.json"),
                "--quiet",
            ])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestUnreadableManifestRefused:
    """preprocess and plant refuse to write a manifest that would read
    back as another one: a '#' in a path or name would start a comment.
    The manifest is checked first, so no container or truth is left."""

    def _image_set(self, tmp_path, manifest_name="in.mf"):
        write_ivc([image(np.arange(16.0).reshape(4, 4), id="a")], tmp_path / "in.ivc")
        (tmp_path / manifest_name).write_text("role = train\nin.ivc\n", "utf-8")
        return tmp_path / manifest_name

    @pytest.mark.parametrize("case", ["path", "name"])
    def test_preprocess(self, tmp_path, capsys, case):
        manifest = self._image_set(tmp_path, "set#1.mf" if case == "name" else "in.mf")
        container = tmp_path / ("run#2" if case == "path" else "run") / "out.ivc"
        container.parent.mkdir()
        code = run([
            "preprocess", "--manifest", str(manifest), "--out-container", str(container),
            "--out-manifest", str(tmp_path / "out.mf"), "--quiet",
        ])
        assert code == 3
        wrong = "'run#2/out.ivc'" if case == "path" else "'set#1-pre'"
        assert f"manifest {case} {wrong} cannot be one manifest line" in capsys.readouterr().err
        assert not (tmp_path / "out.mf").exists()
        assert list(container.parent.iterdir()) == []

    def test_plant(self, tmp_path, capsys):
        (tmp_path / "run#2").mkdir()
        code = run([
            "plant", "--train", str(self._image_set(tmp_path)), "--n", "2", "--seed", "1",
            "--out", str(tmp_path / "run#2" / "p.ivc"), "--truth", str(tmp_path / "t.json"),
            "--out-manifest", str(tmp_path / "p.mf"), "--quiet",
        ])
        assert code == 3
        assert "manifest path 'run#2/p.ivc' cannot be one" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.ivc", "in.mf", "run#2"]


class TestOutputInMissingDirectory:
    """An output path in a missing directory exits 3 with a message that
    names the path as typed, not the temp file written first, and leaves
    no file. `plant` and `preprocess` check every output path before the
    harness or the preprocessing runs."""

    def _refused(self, tmp_path, capsys, monkeypatch, command, argv, typed):
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run([command, *argv, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err == f"memaudit {command}: [Errno 2] No such file or directory: '{typed}'\n"
        assert sorted(tmp_path.rglob("*")) == before

    @staticmethod
    def _no_work(monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran before its outputs were checked")

        monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("flag", ["--out", "--truth", "--out-manifest"])
    def test_plant(self, tmp_path, capsys, monkeypatch, train_manifest, flag):
        outputs = {"--out": "p.ivc", "--truth": "t.json", "--out-manifest": "p.mf"}
        outputs[flag] = "nodir/" + outputs[flag]
        argv = ["--train", str(train_manifest), "--n", "4", "--seed", "1"]
        self._no_work(monkeypatch, "plant")
        self._refused(tmp_path, capsys, monkeypatch, "plant",
                      argv + [x for pair in outputs.items() for x in pair], outputs[flag])

    def test_plant_default_manifest(self, tmp_path, capsys, monkeypatch, train_manifest):
        """Without --out-manifest the manifest goes next to the container."""
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "p.mf").mkdir()  # a directory where the manifest would go
        argv = ["--train", str(train_manifest), "--n", "4", "--seed", "1",
                "--out", "out/p.ivc", "--truth", "t.json"]
        self._no_work(monkeypatch, "plant")
        monkeypatch.chdir(tmp_path)
        assert run(["plant", *argv, "--quiet"]) == 3
        assert capsys.readouterr().err == "memaudit plant: [Errno 21] Is a directory: 'out/p.mf'\n"
        assert sorted(p.name for p in (tmp_path / "out").rglob("*")) == ["p.mf"]

    @pytest.mark.parametrize("flag", ["--out-container", "--out-manifest"])
    def test_preprocess(self, tmp_path, capsys, monkeypatch, flag):
        write_ivc([image(np.arange(16.0).reshape(4, 4), id="a")], tmp_path / "in.ivc")
        (tmp_path / "in.mf").write_text("role = train\nin.ivc\n", "utf-8")
        outputs = {"--out-container": "q.ivc", "--out-manifest": "q.mf"}
        outputs[flag] = "nodir/" + outputs[flag]
        self._no_work(monkeypatch, "load_records")
        self._refused(tmp_path, capsys, monkeypatch, "preprocess",
                      ["--manifest", "in.mf", *[x for pair in outputs.items() for x in pair]],
                      outputs[flag])

    def test_audit_report(self, tmp_path, capsys, monkeypatch, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=18, n=4)
        argv = ["--train", str(train_manifest), "--synthetic", str(synth_mf),
                "--rule", "fixed:0.99", "--out", "nodir/r.json"]
        self._refused(tmp_path, capsys, monkeypatch, "audit", argv, "nodir/r.json")

    @pytest.mark.parametrize("flag", ["--out", "--matches-out", "--baseline-matches-out"])
    def test_audit(self, tmp_path, capsys, monkeypatch, train_manifest, flag):
        """Each output is checked before the search: no engine call, and
        no other output left."""
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=18, n=4)
        test_mf, _ = plant_set(tmp_path, train_manifest, seed=19, n=4, name="heldout")
        outputs = {"--out": "r.json", "--matches-out": "m.json", "--baseline-matches-out": "b.json"}
        outputs[flag] = "nodir/" + outputs[flag]
        argv = ["--train", str(train_manifest), "--synthetic", str(synth_mf), "--test",
                str(test_mf), "--rule", "fixed:0.99", *[x for pair in outputs.items() for x in pair]]
        self._no_work(monkeypatch, "max_correlations")
        self._refused(tmp_path, capsys, monkeypatch, "audit", argv, outputs[flag])

    def test_metrics(self, tmp_path, capsys, monkeypatch, train_manifest):
        argv = ["--ssim-pairs", str(train_manifest), str(train_manifest), "--out", "nodir/x.json"]
        self._no_work(monkeypatch, "load_dataset")
        self._refused(tmp_path, capsys, monkeypatch, "metrics", argv, "nodir/x.json")

    def test_report(self, tmp_path, capsys, monkeypatch):
        matches = tmp_path / "m.json"
        matches.write_text("{}", "utf-8")  # never read: the output is checked first
        self._no_work(monkeypatch, "load_matches")
        self._refused(tmp_path, capsys, monkeypatch, "report",
                      ["--matches", "m.json", "--rule", "fixed:0.9", "--out", "nodir/r.json"],
                      "nodir/r.json")


class TestEmptyOutputPath:
    """An empty output path exits 3 with a message naming its flag, no
    traceback and no file, before any work."""

    def _refused(self, tmp_path, capsys, monkeypatch, command, argv, flag, work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before its outputs were checked")

        monkeypatch.setattr(cli, work, refuse)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run([command, *argv, "--quiet"]) == 3
        assert capsys.readouterr().err == f"memaudit {command}: {flag}: the path is empty\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flag", ["--out", "--truth", "--out-manifest"])
    def test_plant(self, tmp_path, capsys, monkeypatch, train_manifest, flag):
        outputs = {"--out": "p.ivc", "--truth": "t.json", "--out-manifest": "p.mf", flag: ""}
        argv = ["--train", str(train_manifest), "--n", "3", "--seed", "1",
                *[x for pair in outputs.items() for x in pair]]
        self._refused(tmp_path, capsys, monkeypatch, "plant", argv, flag, "plant")

    @pytest.mark.parametrize("flag", ["--out-container", "--out-manifest"])
    def test_preprocess(self, tmp_path, capsys, monkeypatch, flag):
        write_ivc([image(np.arange(16.0).reshape(4, 4), id="a")], tmp_path / "in.ivc")
        (tmp_path / "in.mf").write_text("role = train\nin.ivc\n", "utf-8")
        outputs = {"--out-container": "q.ivc", "--out-manifest": "q.mf", flag: ""}
        argv = ["--manifest", "in.mf", *[x for pair in outputs.items() for x in pair]]
        self._refused(tmp_path, capsys, monkeypatch, "preprocess", argv, flag, "load_records")

    def test_writers_refuse_it(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for call in (lambda: atomic_write("", b"x"), OutputSet(("output path", "")).__enter__):
            with pytest.raises(InvalidArgumentError, match="^output path: the path is empty$"):
                call()
        assert list(tmp_path.iterdir()) == []


class TestOutputAtAnInput:
    """An output at one of the command's inputs (a manifest read, a file
    it lists, an EMB1 file's .ids sidecar, a match or EMB1 file) exits 2
    naming the output's flag and path, the input and its flag, and every
    file is as it was: no input written over, no output or temp file."""

    def _refused(self, tmp_path, capsys, command, argv, outputs, flag, name, source, listed):
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        outputs = {**outputs, flag: str(tmp_path / name)}
        code = run([command, *argv, *(x for pair in outputs.items() for x in pair), "--quiet"])
        shown = (tmp_path / name).resolve() if listed else tmp_path / name  # manifests resolve
        assert code == 2
        assert capsys.readouterr().err == (
            f"memaudit {command}: {flag} {tmp_path / name} names {shown}, an input of {source}\n"
        )
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

    @pytest.mark.parametrize("kind, flag, name, source, listed", [
        ("images", "--matches-out", "t1.ivc", "--train", True),
        ("images", "--out", "train.mf", "--train", False),
        ("images", "--out", "synth.ivc", "--synthetic", True),
        ("images", "--baseline-matches-out", "heldout.mf", "--test", False),
        ("embeddings", "--out", "train.ids", "--train", True),
        ("embeddings", "--matches-out", "test.emb", "--test", True),
    ])
    def test_audit(self, tmp_path, capsys, kind, flag, name, source, listed):
        sets = _split_train(tmp_path) if kind == "images" else _emb_sets(tmp_path)
        argv = [x for pair in zip(("--train", "--synthetic", "--test"), map(str, sets)) for x in pair]
        flags = ("--out", "--matches-out", "--baseline-matches-out")
        outputs = {f: str(tmp_path / f"{f[2:]}.json") for f in flags}
        self._refused(tmp_path, capsys, "audit", argv, outputs, flag, name, source, listed)

    @pytest.mark.parametrize("flag, name, listed", [
        ("--out", "train.ivc", True), ("--truth", "train.mf", False),
        ("--out-manifest", "train.mf", False),
    ])
    def test_plant(self, tmp_path, capsys, train_manifest, flag, name, listed):
        argv = ["--train", str(train_manifest), "--n", "3", "--seed", "1"]
        outputs = {f: str(tmp_path / f"p-{f[2:]}") for f in ("--out", "--truth", "--out-manifest")}
        self._refused(tmp_path, capsys, "plant", argv, outputs, flag, name, "--train", listed)

    @pytest.mark.parametrize("flag, name, listed", [
        ("--out-container", "in.ivc", True), ("--out-manifest", "in.mf", False),
    ])
    def test_preprocess(self, tmp_path, capsys, flag, name, listed):
        write_ivc([image(np.arange(16.0).reshape(4, 4), id="a")], tmp_path / "in.ivc")
        write_manifest(tmp_path / "in.mf", "in", "train", ["in.ivc"])
        argv = ["--manifest", str(tmp_path / "in.mf")]
        outputs = {f"--out-{what}": str(tmp_path / f"q-{what}") for what in ("container", "manifest")}
        self._refused(
            tmp_path, capsys, "preprocess", argv, outputs, flag, name, "--manifest", listed
        )

    @pytest.mark.parametrize("name, source, listed", [
        ("a.mf", "--ssim-pairs", False), ("b.ivc", "--ssim-pairs", True),
        ("s.emb", "--fid", False), ("p.ids", "--is", False),
    ])
    def test_metrics(self, tmp_path, capsys, name, source, listed):
        for seed, pair in ((31, "a"), (32, "b")):
            images = generate_train_set(2, 1, 8, 8, seed=seed).images
            write_ivc(list(images), tmp_path / f"{pair}.ivc")
            write_manifest(tmp_path / f"{pair}.mf", pair, "test", [f"{pair}.ivc"])
        for emb, dim in (("r", 4), ("s", 4), ("p", 3)):
            ids = tuple(f"{emb}{i}" for i in range(5))
            rows = np.full((5, dim), 1.0 / dim, np.float32)
            write_embeddings(EmbeddingSet(ids, dim, rows), tmp_path / f"{emb}.emb")
        pairs = [str(tmp_path / "a.mf"), str(tmp_path / "b.mf")]
        argv = ["--ssim-pairs", *pairs, "--mi-pairs", *pairs,
                "--fid", str(tmp_path / "r.emb"), str(tmp_path / "s.emb"),
                "--is", str(tmp_path / "p.emb")]
        outputs = {"--out": str(tmp_path / "metrics.json")}
        self._refused(tmp_path, capsys, "metrics", argv, outputs, "--out", name, source, listed)

    @pytest.mark.parametrize("name, source", [("m.json", "--matches"), ("b.json", "--baseline")])
    def test_report(self, tmp_path, capsys, name, source):
        paths = TestReportCommand._audit(tmp_path)
        argv = ["--matches", str(paths["m"]), "--baseline", str(paths["b"])]
        outputs = {"--out": str(tmp_path / "r.json")}
        self._refused(tmp_path, capsys, "report", argv, outputs, "--out", name, source, False)


class TestOutputsCommitTogether:
    """A command's outputs commit together: when a later output fails
    (its chunk producer runs out of disk after an earlier output's bytes
    were written), the command exits 3 naming the path as typed, and every
    output keeps its previous bytes, with no temp file left. Two outputs
    at one file are refused before any work."""

    def _full_disk(self, tmp_path, capsys, monkeypatch, command, argv, earlier, later, typed):
        """Run command with cli's writer of the later output (its path the
        argument at later[1]) running out of disk after its first chunk,
        once each writer named in earlier has run."""
        calls = Counter()

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call

        def write(*args, **kwargs):
            def chunks():
                yield b"partial"
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            assert calls == earlier
            atomic_write(args[later[1]], chunks())

        for name in earlier:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        monkeypatch.setattr(cli, later[0], write)
        monkeypatch.chdir(tmp_path)
        state = lambda: {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
        before = state()
        assert run([command, *argv, "--quiet"]) == 3
        assert capsys.readouterr().err == (
            f"memaudit {command}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{typed}'\n"
        )
        assert state() == before

    @staticmethod
    def _old(tmp_path, *names):
        for name in names:
            (tmp_path / name).write_bytes(f"old {name}\n".encode())

    def test_preprocess(self, tmp_path, capsys, monkeypatch):
        write_ivc([image(np.arange(16.0).reshape(4, 4), id="a")], tmp_path / "in.ivc")
        (tmp_path / "in.mf").write_text("role = train\nin.ivc\n", "utf-8")
        self._old(tmp_path, "q.ivc", "q.mf")
        argv = ["--manifest", "in.mf", "--out-container", "q.ivc", "--out-manifest", "q.mf"]
        self._full_disk(tmp_path, capsys, monkeypatch, "preprocess", argv,
                        Counter(write_ivc=1), ("write_manifest", 0), "q.mf")

    def test_plant(self, tmp_path, capsys, monkeypatch, train_manifest):
        self._old(tmp_path, "p.ivc", "t.json", "p.mf")
        argv = ["--train", str(train_manifest), "--n", "4", "--seed", "1",
                "--out", "p.ivc", "--truth", "t.json"]
        self._full_disk(tmp_path, capsys, monkeypatch, "plant", argv,
                        Counter(write_ivc=1, save_ground_truth=1), ("write_manifest", 0), "p.mf")

    def test_audit(self, tmp_path, capsys, monkeypatch, train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=18, n=4)
        test_mf, _ = plant_set(tmp_path, train_manifest, seed=19, n=4, name="heldout")
        self._old(tmp_path, "m.json", "b.json", "r.json")
        argv = ["--train", str(train_manifest), "--synthetic", str(synth_mf), "--test", str(test_mf),
                "--rule", "fixed:0.99", "--matches-out", "m.json", "--baseline-matches-out", "b.json",
                "--out", "./r.json"]
        self._full_disk(tmp_path, capsys, monkeypatch, "audit", argv,
                        Counter(save_matches=2), ("export_report", 1), "./r.json")

    def _one_file(self, tmp_path, capsys, monkeypatch, command, argv, work, message):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before its outputs were reserved")

        monkeypatch.setattr(cli, work, refuse)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run([command, *argv, "--quiet"]) == 3
        assert capsys.readouterr().err == f"memaudit {command}: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_plant_container_at_the_default_manifest(self, tmp_path, capsys, monkeypatch,
                                                     train_manifest):
        """Without --out-manifest the manifest is the container's path
        with .mf for its suffix: a container named s.mf is that file."""
        argv = ["--train", str(train_manifest), "--n", "4", "--seed", "1",
                "--out", "s.mf", "--truth", "t.json"]
        self._one_file(tmp_path, capsys, monkeypatch, "plant", argv, "plant",
                       "--out 's.mf' and --out-manifest 's.mf' name one file")

    def test_audit_report_and_matches_at_one_file(self, tmp_path, capsys, monkeypatch,
                                                  train_manifest):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=18, n=4)
        argv = ["--train", str(train_manifest), "--synthetic", str(synth_mf),
                "--rule", "fixed:0.99", "--out", "r.json", "--matches-out", "./r.json"]
        self._one_file(tmp_path, capsys, monkeypatch, "audit", argv, "max_correlations",
                       "--matches-out './r.json' and --out 'r.json' name one file")


class TestPreprocessCommand:
    def test_volume_pipeline(self, tmp_path):
        rng = np.random.default_rng(14)
        vol_data = np.zeros((2, 4, 20, 20), dtype=np.float32)
        vol_data[0, 1] = rng.integers(60, 200, (20, 20))  # only slice 1 passes
        vol_data[1] = rng.integers(0, 5, (4, 20, 20))
        vol = VolumeRecord("vol", 2, 4, 20, 20, vol_data.reshape(-1))
        write_ivc([vol], tmp_path / "v.ivc")
        write_manifest(tmp_path / "v.mf", "vols", "train", ["v.ivc"])
        code = run([
            "preprocess", "--manifest", str(tmp_path / "v.mf"),
            "--out-container", str(tmp_path / "out.ivc"),
            "--out-manifest", str(tmp_path / "out.mf"),
            "--pad", "32", "32", "--rescale", "--quiet",
        ])
        assert code == 0
        records = read_ivc(tmp_path / "out.ivc")
        assert len(records) == 1
        assert records[0].id == "vol_s001"
        assert records[0].shape == (2, 32, 32)
        assert records[0].pixels.max() == 255.0

    def test_remap_channels(self, tmp_path):
        data = np.stack([
            np.full((4, 4), 2.0, np.float32),
            np.array([[1, 2, 4, 0]] * 4, np.float32),
        ])
        img = ImageRecord("labels", 2, 4, 4, data.reshape(-1))
        write_ivc([img], tmp_path / "l.ivc")
        write_manifest(tmp_path / "l.mf", "lab", "train", ["l.ivc"])
        code = run([
            "preprocess", "--manifest", str(tmp_path / "l.mf"),
            "--out-container", str(tmp_path / "lo.ivc"),
            "--out-manifest", str(tmp_path / "lo.mf"),
            "--remap", "1=51,2=102,4=204", "--remap-channels", "1", "--quiet",
        ])
        assert code == 0
        (rec,) = read_ivc(tmp_path / "lo.ivc")
        np.testing.assert_array_equal(rec.chw()[0], np.full((4, 4), 2.0))
        np.testing.assert_array_equal(rec.chw()[1][0], [51, 102, 204, 0])

    def test_resize(self, tmp_path):
        img = ImageRecord("img", 2, 4, 6, np.arange(48, dtype=np.float32))
        write_ivc([img], tmp_path / "i.ivc")
        write_manifest(tmp_path / "i.mf", "img", "train", ["i.ivc"])
        code = run([
            "preprocess", "--manifest", str(tmp_path / "i.mf"),
            "--out-container", str(tmp_path / "io.ivc"),
            "--out-manifest", str(tmp_path / "io.mf"), "--resize", "8", "3", "--quiet",
        ])
        assert code == 0
        (rec,) = load_dataset(tmp_path / "io.mf").images
        assert (rec.id, rec.shape) == ("img", (2, 8, 3))
        np.testing.assert_array_equal(rec.pixels, resize_bilinear(img, 8, 3).pixels)

    def test_filter_drops_everything_is_data_error(self, tmp_path):
        vol = VolumeRecord("dark", 1, 2, 10, 10, np.zeros(200, np.float32))
        write_ivc([vol], tmp_path / "d.ivc")
        write_manifest(tmp_path / "d.mf", "dark", "train", ["d.ivc"])
        code = run([
            "preprocess", "--manifest", str(tmp_path / "d.mf"),
            "--out-container", str(tmp_path / "do.ivc"),
            "--out-manifest", str(tmp_path / "do.mf"), "--quiet",
        ])
        assert code == 3


class TestMetricsCommand:
    def test_fid_and_is(self, tmp_path):
        rng = np.random.default_rng(15)
        rows = rng.normal(0, 1, (20, 8)).astype(np.float32)
        write_embeddings(
            EmbeddingSet(tuple(f"a{i}" for i in range(20)), 8, rows),
            tmp_path / "a.emb",
        )
        write_embeddings(
            EmbeddingSet(tuple(f"b{i}" for i in range(20)), 8, rows),
            tmp_path / "b.emb",
        )
        probs = np.full((10, 4), 0.25, np.float32)
        write_embeddings(
            EmbeddingSet(tuple(f"p{i}" for i in range(10)), 4, probs),
            tmp_path / "p.emb",
        )
        out = tmp_path / "metrics.json"
        code = run([
            "metrics", "--fid", str(tmp_path / "a.emb"), str(tmp_path / "b.emb"),
            "--is", str(tmp_path / "p.emb"), "--out", str(out), "--quiet",
        ])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["fid"] == pytest.approx(0.0, abs=1e-6)
        assert result["inception_score"]["mean"] == pytest.approx(1.0, abs=1e-9)

    def test_fid_and_is_on_random_sets(self, tmp_path):
        """FID of two different random sets against scipy's sqrtm, and IS
        in three splits against each split's KL divergences, summed
        term by term; both within 1e-9 relative."""
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(16)
        sets = {
            "a": rng.normal(0, 1, (40, 6)),
            "b": rng.normal(0.3, 1.5, (50, 6)) @ rng.normal(0, 1, (6, 6)),
            "p": rng.dirichlet(np.full(5, 0.4), 31),
        }
        for name, rows in sets.items():
            ids = tuple(f"{name}{i}" for i in range(len(rows)))
            write_embeddings(EmbeddingSet(ids, rows.shape[1], rows), tmp_path / f"{name}.emb")
            sets[name] = rows.astype(np.float32).astype(np.float64)  # the values the files hold
        out = tmp_path / "metrics.json"
        code = run([
            "metrics", "--fid", str(tmp_path / "a.emb"), str(tmp_path / "b.emb"),
            "--is", str(tmp_path / "p.emb"), "--splits", "3", "--out", str(out), "--quiet",
        ])
        assert code == 0
        result = json.loads(out.read_text())

        (mu_a, cov_a), (mu_b, cov_b) = (
            (rows.mean(axis=0), np.cov(rows, rowvar=False)) for rows in (sets["a"], sets["b"])
        )
        cross = linalg.sqrtm(cov_a @ cov_b).real
        want_fid = (
            np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b) - 2 * np.trace(cross)
        )
        assert result["fid"] == pytest.approx(want_fid, rel=1e-9)

        scores = []
        for split in np.array_split(sets["p"], 3):
            marginal = split.mean(axis=0)
            kl = [
                sum(p * math.log(p / q) for p, q in zip(row, marginal) if p > 0) for row in split
            ]
            scores.append(math.exp(sum(kl) / len(kl)))
        assert result["inception_score"]["mean"] == pytest.approx(np.mean(scores), rel=1e-9)
        assert result["inception_score"]["std"] == pytest.approx(np.std(scores), rel=1e-9)

    def test_ssim_and_mi_pairs(self, tmp_path, train_manifest):
        code = run([
            "metrics", "--ssim-pairs", str(train_manifest), str(train_manifest),
            "--mi-pairs", str(train_manifest), str(train_manifest),
            "--out", str(tmp_path / "m.json"), "--quiet",
        ])
        assert code == 0
        result = json.loads((tmp_path / "m.json").read_text())
        assert result["ssim"]["mean"] == pytest.approx(1.0, abs=1e-9)
        assert result["mutual_information"]["mean"] > 0.0

    def test_paired_manifests_of_different_sizes(self, tmp_path, train_manifest, capsys):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=4, n=5)
        out = tmp_path / "m.json"
        code = run([
            "metrics", "--ssim-pairs", str(synth_mf), str(train_manifest),
            "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert "paired manifests differ in size: 5 vs 30" in capsys.readouterr().err
        assert not out.exists()

    def test_no_metric_selected_is_usage_error(self):
        assert run(["metrics", "--quiet"]) == 2

    def test_each_manifest_loaded_once(self, tmp_path, train_manifest, monkeypatch):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=4, n=30)
        loads = Counter()
        load = cli.load_dataset

        def counted(path):
            loads[Path(path).name] += 1
            return load(path)

        monkeypatch.setattr(cli, "load_dataset", counted)
        pairs = [str(synth_mf), str(train_manifest)]
        code = run([
            "metrics", "--ssim-pairs", *pairs, "--mi-pairs", *pairs,
            "--out", str(tmp_path / "m.json"), "--quiet",
        ])
        assert code == 0
        assert loads == {"synth.mf": 1, "train.mf": 1}
        result = json.loads((tmp_path / "m.json").read_text())
        assert len(result["ssim"]["pairs"]) == len(result["mutual_information"]["pairs"]) == 30

    def test_json_identical_at_one_and_three_workers(self, tmp_path, train_manifest, monkeypatch):
        """SSIM and MI pairs are scored on a pool of core.worker_count()
        threads and collected in order: the same bytes at any count."""
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=5, n=30, p_copy=0.2)
        pairs = [str(synth_mf), str(train_manifest)]
        outputs = []
        for workers in (1, 3):
            monkeypatch.setattr(core, "worker_count", lambda: workers)
            out = tmp_path / f"m{workers}.json"
            code = run([
                "metrics", "--ssim-pairs", *pairs, "--mi-pairs", *pairs,
                "--out", str(out), "--quiet",
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        ssim = [v["ssim"] for v in json.loads(outputs[0])["ssim"]["pairs"]]
        assert len(set(ssim)) > 1 and min(ssim) < 0.9


class TestProgressPrinter:
    def test_half_done_line(self):
        stream = io.StringIO()
        printer = ProgressPrinter("audit", interval=0.0, vector_length=512, stream=stream)
        printer(11_739_000, 23_478_000)
        assert "(50.0%)" in stream.getvalue()

    def test_zero_length_run_single_completion_line(self):
        stream = io.StringIO()
        printer = ProgressPrinter("audit", interval=10.0, vector_length=512, stream=stream)
        printer(0, 0)
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 1 and "100.0%" in lines[0]

    def test_final_line_printed_once(self):
        stream = io.StringIO()
        printer = ProgressPrinter("audit", interval=100.0, vector_length=512, stream=stream)
        printer(10, 100)   # first line always prints
        printer(50, 100)   # suppressed: interval not reached
        printer(100, 100)  # final line always prints
        printer(100, 100)  # not duplicated
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert len(lines) == 2 and "done" in lines[1]

    def test_rate_in_multiply_adds_at_paper_length(self, monkeypatch):
        # 512,000 comparisons of N = 262,144 values in 4 s: 33.55 GMAC/s,
        # where comparisons per second read 0.1M
        clock = iter([100.0, 102.0, 104.0])
        monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        stream = io.StringIO()
        printer = ProgressPrinter("audit", interval=0.0, vector_length=262_144, stream=stream)
        printer(256_000, 512_000)
        printer(512_000, 512_000)
        half, done = stream.getvalue().splitlines()
        assert half == "[audit] 256,000/512,000 (50.0%) 33.55 GMAC/s ETA 2s"
        assert done == "[audit] 512,000/512,000 (100.0%) done in 4.0s (33.55 GMAC/s)"
        assert float(re.search(r"\(([0-9.]+) GMAC/s\)$", done).group(1)) > 0

    def test_quiet_suppresses_status(self, tmp_path, train_manifest, capsys):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=16)
        run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.99", "--out", str(tmp_path / "q.json"), "--quiet",
        ])
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_progress_lines_emitted_without_quiet(self, tmp_path, train_manifest, capsys):
        synth_mf, _ = plant_set(tmp_path, train_manifest, seed=17)
        run([
            "audit", "--train", str(train_manifest), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.99", "--out", str(tmp_path / "v.json"),
            "--progress-interval", "0",
        ])
        err = capsys.readouterr().err
        assert "synth-vs-train" in err and "100.0%" in err


def _split_train(tmp_path, n=24, shape=(1, 12, 12), seed=9100):
    """A float IVC1 train set in two files, plus synthetic and test
    manifests planted from it."""
    train = generate_train_set(n, *shape, seed=seed)
    images = list(train.images)
    write_ivc(images[: n // 2], tmp_path / "t0.ivc")
    write_ivc(images[n // 2 :], tmp_path / "t1.ivc")
    write_manifest(tmp_path / "train.mf", "train", "train", ["t0.ivc", "t1.ivc"])
    synth_mf, _ = plant_set(tmp_path, tmp_path / "train.mf", seed=21, n=8, p_copy=0.25)
    test_mf, _ = plant_set(tmp_path, tmp_path / "train.mf", seed=22, n=8, name="heldout")
    test_mf.write_text(test_mf.read_text().replace("role = synthetic", "role = test"))
    return tmp_path / "train.mf", synth_mf, test_mf


def _emb_sets(tmp_path):
    rng = np.random.default_rng(23)
    for name, role, n in (("train", "train", 30), ("synth", "synthetic", 6), ("test", "test", 6)):
        ids = tuple(f"{name}{i}" for i in range(n))
        rows = rng.normal(0, 1, (n, 8)).astype(np.float32)
        write_embeddings(EmbeddingSet(ids, 8, rows), tmp_path / f"{name}.emb")
        write_manifest(tmp_path / f"{name}.mf", name, role, [f"{name}.emb"])
    return tmp_path / "train.mf", tmp_path / "synth.mf", tmp_path / "test.mf"


def _flip_last(path, index=-1):
    """Flip a payload bit of the last IVC1 entry (or entry ``index``)."""
    blob = bytearray(path.read_bytes())
    offset, _ = ivc_payload_span(path, index)
    blob[offset + 2] ^= 0x40
    path.write_bytes(bytes(blob))


def _nan_last(path):
    blob = bytearray(path.read_bytes())
    offset, size = ivc_payload_span(path)
    blob[offset : offset + 4] = struct.pack("<f", float("inf"))
    crc = zlib.crc32(bytes(blob[offset : offset + size])) & 0xFFFFFFFF
    struct.pack_into("<I", blob, offset + size, crc)
    path.write_bytes(bytes(blob))


class TestStreamedTrainRejections:
    """Faults in the train set fail the audit with exit 3 and the loader's
    message, and no report is written, though train is read block by
    block after synthetic and test are read."""

    FAULTS = {
        "flipped-byte": (_flip_last, "t1.ivc: entry 11 ('train_00023'): checksum mismatch"),
        "truncated": (
            lambda p: p.write_bytes(p.read_bytes()[:-5]), "t1.ivc: truncated entry 11 payload"
        ),
        "non-finite": (_nan_last, "t1.ivc: entry 11 ('train_00023'): non-finite payload values"),
        "volume": (
            lambda p: write_ivc([VolumeRecord("vol", 1, 2, 12, 12, np.ones(288))], p),
            "t1.ivc: entry 'vol' is a 3-D volume",
        ),
        "duplicate-id": (
            lambda p: write_ivc([read_ivc(p.with_name("t0.ivc"))[3]], p),
            "duplicate id 'train_00003' in t1.ivc (first seen in t0.ivc)",
        ),
        "id-not-utf8": (
            lambda p: set_first_ivc_id(p, b"train_\xff0012"),
            "t1.ivc: entry 0: id is not UTF-8 at offset 16",
        ),
        "empty-id": (lambda p: set_first_ivc_id(p, b""), "t1.ivc: entry 0: empty id at offset 8"),
        "manifest-not-utf8": (
            lambda p: (p.parent / "train.mf").write_bytes(b"# caf\xe9\n"),
            "train.mf: not UTF-8 text at offset 5",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_image_train_fault(self, tmp_path, capsys, fault):
        train_mf, synth_mf, test_mf = _split_train(tmp_path)
        damage, message = self.FAULTS[fault]
        damage(tmp_path / "t1.ivc")
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["synthetic", "test"])
    def test_query_set_fault(self, tmp_path, capsys, role):
        """Synthetic and test are file-backed too: a damaged entry fails
        the audit the same way."""
        train_mf, synth_mf, test_mf = _split_train(tmp_path)
        manifest = load_manifest(synth_mf if role == "synthetic" else test_mf)
        container = manifest.entries[0][1]
        _flip_last(container)
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{container.name}: entry 7 (" in err and "checksum mismatch" in err
        assert not out.exists()

    def test_embedding_ids_sidecar_count(self, tmp_path, capsys):
        train_mf, synth_mf, test_mf = _emb_sets(tmp_path)
        (tmp_path / "train.ids").write_text("only\ntwo\n")
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert "train.ids: 2 ids for 30 rows in train.emb" in capsys.readouterr().err
        assert not out.exists()

    def test_embedding_ids_sidecar_not_utf8(self, tmp_path, capsys):
        train_mf, synth_mf, test_mf = _emb_sets(tmp_path)
        (tmp_path / "train.ids").write_bytes(b"\xc3(\n" * 30)
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert "train.ids: not UTF-8 text at offset 0" in capsys.readouterr().err
        assert not out.exists()


def _count_payloads(monkeypatch) -> Counter:
    """A Counter, by (file name, entry index), of the entry payloads the
    readers read whole: each byte once, in order, then its checksum."""
    entries, spans = Counter(), Counter()
    chunk, check = ingest._payload_chunk, ingest._check_crc

    def counted_chunk(cur, entry, into, start, stop):
        assert start == spans[cur.path, entry.index]  # no byte skipped or read twice
        spans[cur.path, entry.index] = stop
        return chunk(cur, entry, into, start, stop)

    def counted_check(cur, entry, crc):
        assert spans.pop((cur.path, entry.index)) == entry.size
        entries[cur.path.name, entry.index] += 1
        return check(cur, entry, crc)

    monkeypatch.setattr(ingest, "_payload_chunk", counted_chunk)
    monkeypatch.setattr(ingest, "_check_crc", counted_check)
    return entries


class TestOnePassOverTrain:
    def test_each_train_entry_read_once(self, tmp_path, monkeypatch, capsys):
        """One engine call per audit: every train, synthetic and test row
        and IVC1 entry is read exactly once, with and without --sample."""
        train_mf, synth_mf, test_mf = _split_train(tmp_path)
        rows = Counter()
        read_rows = ingest.DatasetFile.read_rows

        def counted_rows(self, i0, i1, out, channels):
            rows.update((self.role, i) for i in range(i0, i1))
            return read_rows(self, i0, i1, out, channels)

        monkeypatch.setattr(ingest.DatasetFile, "read_rows", counted_rows)
        entries = _count_payloads(monkeypatch)
        for sample in (None, 3):
            rows.clear()
            entries.clear()
            extra = [] if sample is None else ["--sample", str(sample), "--seed", "5"]
            code = run([
                "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
                "--test", str(test_mf), "--block-budget-mib", "0.005", *extra,
                "--out", str(tmp_path / "r.json"), "--progress-interval", "0",
            ])
            assert code in (0, 1)
            picks = range(8) if sample is None else SplitMix64(5).sample_without_replacement(8, 3)
            assert rows == Counter([
                *(("train", i) for i in range(24)),
                *(("synthetic", i) for i in picks),
                *(("test", i) for i in range(8)),
            ])
            assert entries == Counter([
                *((f, i) for f in ("t0.ivc", "t1.ivc") for i in range(12)),
                *(("synth.ivc", i) for i in picks),
                *(("heldout.ivc", i) for i in range(8)),
            ])
            labels = {line.split("]")[0] for line in capsys.readouterr().err.splitlines()}
            assert labels == {"[synth+test-vs-train", "[audit"}


class _Consumed:
    """A file opened for reading whose reads record, per file name, the
    furthest byte the program has taken from it."""

    def __init__(self, file, log):
        self._handle, self._log, self._name = open(file, "rb"), log, Path(file).name

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def fileno(self):
        return self._handle.fileno()

    def seek(self, pos):
        return self._handle.seek(pos)

    def read(self, n=-1):
        return self._note(self._handle.read(n))

    def readinto(self, view):
        return self._note(self._handle.readinto(view))

    def _note(self, result):
        self._log[self._name] = max(self._log.get(self._name, 0), self._handle.tell())
        return result


class TestPgmReadOnce:
    """A PGM file is one entry like an IVC1 entry: opening reads only its
    header, and one audit reads its payload exactly once."""

    def test_open_reads_headers_and_audit_reads_each_payload_once(
        self, tmp_path, monkeypatch
    ):
        rng = np.random.default_rng(41)
        train = [image(rng.integers(0, 256, (12, 10)), id=f"tr{i}") for i in range(10)]
        sets = {
            "train": train,
            "synthetic": [image(train[i].pixels.reshape(12, 10), id=f"copy{i}") for i in range(2)]
            + [image(rng.integers(0, 256, (12, 10)), id=f"sy{i}") for i in range(3)],
            "test": [image(rng.integers(0, 256, (12, 10)), id=f"te{i}") for i in range(4)],
        }
        for role, images in sets.items():
            pgm_dir, ivc_dir = tmp_path / "pgm" / role, tmp_path / "ivc"
            pgm_dir.mkdir(parents=True)
            ivc_dir.mkdir(exist_ok=True)
            for img in images:
                write_pgm(img, pgm_dir / f"{img.id}.pgm")
            write_manifest(tmp_path / "pgm" / f"{role}.mf", role, role,
                           [f"{role}/{img.id}.pgm" for img in images])
            write_ivc(images, ivc_dir / f"{role}.ivc")
            write_manifest(ivc_dir / f"{role}.mf", role, role, [f"{role}.ivc"])
        header = len(b"P5\n10 12\n255\n")
        consumed = {}
        monkeypatch.setattr(ingest, "open", lambda f, mode: _Consumed(f, consumed), raising=False)
        entries = _count_payloads(monkeypatch)
        for role, images in sets.items():
            handle = ingest.open_dataset(tmp_path / "pgm" / f"{role}.mf")
            assert handle.ids == tuple(img.id for img in images)
        names = [f"{img.id}.pgm" for images in sets.values() for img in images]
        assert consumed == dict.fromkeys(names, header) and not entries

        consumed.clear()
        reports = {}
        for kind in ("pgm", "ivc"):
            sets_dir, out = tmp_path / kind, tmp_path / f"{kind}.json"
            code = run([
                "audit", "--train", str(sets_dir / "train.mf"),
                "--synthetic", str(sets_dir / "synthetic.mf"), "--test", str(sets_dir / "test.mf"),
                "--block-budget-mib", "0.002", "--k", "2", "--out", str(out), "--quiet",
            ])
            assert code == 1  # the two copies are flagged
            reports[kind] = out.read_bytes()
            if kind == "pgm":
                assert entries == Counter((name, 0) for name in names)
                assert consumed == dict.fromkeys(names, header + 12 * 10)
        assert reports["pgm"] == reports["ivc"]


class TestSampleReadsPicked:
    """--sample N reads only the N picked synthetic entries, and its
    matches equal the engine's on those entries loaded in memory."""

    @pytest.mark.parametrize("kind", ["ivc", "emb"])
    def test_only_picked_entries_read(self, tmp_path, monkeypatch, kind):
        if kind == "ivc":
            train_mf, synth_mf, _ = _split_train(tmp_path)
            handle, load, engine = ingest.DatasetFile, load_dataset, max_correlations
        else:
            train_mf, synth_mf, _ = _emb_sets(tmp_path)
            handle, load, engine = ingest.EmbeddingSetFile, load_embedding_set, max_correlations
        synth = load(synth_mf)
        picks = SplitMix64(4).sample_without_replacement(len(synth), 3)
        rows = Counter()
        read_rows = handle.read_rows

        def counted_rows(self, i0, i1, out, channels):
            if self.role == "synthetic":
                rows.update(range(i0, i1))
            return read_rows(self, i0, i1, out, channels)

        monkeypatch.setattr(handle, "read_rows", counted_rows)
        payloads = _count_payloads(monkeypatch)
        matches_out = tmp_path / "m.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--sample", "3", "--seed", "4", "--k", "2", "--rule", "fixed:0.99",
            "--matches-out", str(matches_out), "--quiet",
        ])
        assert code in (0, 1)
        assert rows == Counter(picks)
        entries = Counter({i: n for (name, i), n in payloads.items() if name == "synth.ivc"})
        assert entries == (Counter(picks) if kind == "ivc" else Counter())
        if kind == "ivc":
            picked = Dataset("s", "synthetic", tuple(synth.images[i] for i in picks))
        else:
            picked = EmbeddingSet(tuple(synth.ids[i] for i in picks), synth.dim, synth.rows[picks])
        expected = engine(picked, load(train_mf), k=2)
        _, _, got = load_matches(matches_out)
        assert [(m.query_id, m.matches) for m in got] == [
            (m.query_id, m.matches) for m in expected
        ]


def _set(path, value):
    """A fault that sets the key at ``path`` of a match-list dict."""
    def fault(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        data[last] = value
    return fault


class TestMalformedMatches:
    """`report` on a file that is not a match list exits 3 (a data error,
    never the "flagged" exit 1), names the file and writes no report."""

    FAULTS = {
        "no-matches-key": lambda d: d["matches"][0].pop("matches"),
        "matches-null": _set(("matches", 0, "matches"), None),
        "no-query-id": lambda d: d["matches"][0].pop("query_id"),
        "no-match-list": lambda d: d.pop("matches"),
        "match-list-not-a-list": _set(("matches",), 5),
        "match-not-a-pair": _set(("matches", 0, "matches", 0), ["t0", 0.5, 1]),
        "nan-correlation": _set(("matches", 0, "matches", 0, 1), float("nan")),
        "inf-correlation": _set(("matches", 0, "matches", 0, 1), float("inf")),
        "correlation-above-one": _set(("matches", 1, "matches", 0, 1), 1.5),
        "correlation-below-minus-one": _set(("matches", 1, "matches", 0, 1), -1.01),
        "correlation-a-string": _set(("matches", 1, "matches", 0, 1), "0.5"),
        "reference-id-a-number": _set(("matches", 1, "matches", 0, 0), 7),
        "query-valid-a-string": _set(("matches", 2, "query_valid"), "yes"),
        "plan-unknown-key": _set(("plan", "tiles"), 3),
        "plan-negative-count": _set(("plan", "n_query"), -3),
        "plan-inconsistent": _set(("plan", "total_comparisons"), 10),
        "plan-multiply-adds-inconsistent": _set(("plan", "estimated_multiply_adds"), 479),
        "plan-a-string": _set(("plan",), "3x3"),
        "plan-float-count": _set(("plan", "vector_length"), 16.0),
        "entry-a-string": _set(("matches", 1), "s1"),
    }

    @staticmethod
    def _write(path, fault=None, truncate=False):
        matches = [TopKMatches(f"s{i}", ((f"t{i}", 0.5), ("t9", 0.25))) for i in range(3)]
        data = matches_to_dict(matches, "synth-vs-train", plan_audit(3, 10, 16))
        if fault is not None:
            fault(data)
        text = json.dumps(data)  # NaN and Infinity as Python's json writes them
        path.write_text(text[: len(text) // 2] if truncate else text)
        return path

    def _report(self, tmp_path, capsys, *files, message="bad.json: not a match list"):
        out = tmp_path / "r.json"
        argv = ["report", "--matches", str(files[0]), "--rule", "fixed:0.9", "--out", str(out)]
        if len(files) > 1:
            argv += ["--baseline", str(files[1])]
        code = run(argv)
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault(self, tmp_path, capsys, fault):
        self._report(tmp_path, capsys, self._write(tmp_path / "bad.json", self.FAULTS[fault]))

    def test_truncated_json(self, tmp_path, capsys):
        self._report(tmp_path, capsys, self._write(tmp_path / "bad.json", truncate=True))

    def test_malformed_baseline(self, tmp_path, capsys):
        good = self._write(tmp_path / "good.json")
        bad = self._write(tmp_path / "bad.json", self.FAULTS["nan-correlation"])
        self._report(tmp_path, capsys, good, bad)

    def test_no_plan(self, tmp_path, capsys):
        """A match file with no plan cannot be checked against the other's
        training set, so --matches and --baseline both refuse it."""
        good = self._write(tmp_path / "good.json")
        for label, files in (("synth-vs-train", []), ("test-vs-train", [good])):
            bad = self._write(tmp_path / "bad.json", _set(("plan",), None))
            bad.write_text(bad.read_text().replace("synth-vs-train", label))
            self._report(tmp_path, capsys, *files, bad, message=f"{bad} has no comparison plan")

    def test_well_formed_file_reads(self, tmp_path):
        path = self._write(tmp_path / "good.json", _set(("matches", 0, "matches", 0, 1), 1))
        label, plan, matches = load_matches(path)
        assert (label, plan) == ("synth-vs-train", plan_audit(3, 10, 16))
        assert [m.top1 for m in matches] == [("t0", 1.0), ("t1", 0.5), ("t2", 0.5)]


class TestReportCommand:
    """`report` rebuilds an audit's decision from the match files that
    --matches-out and --baseline-matches-out saved."""

    @staticmethod
    def _audit(tmp_path):
        train_mf, synth_mf, test_mf = _split_train(tmp_path)
        paths = {name: tmp_path / f"{name}.json" for name in ("audit", "m", "b")}
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(paths["audit"]),
            "--matches-out", str(paths["m"]), "--baseline-matches-out", str(paths["b"]),
            "--quiet",
        ])
        assert code == 1
        return paths

    def test_rebuilds_the_audit_decision(self, tmp_path):
        paths = self._audit(tmp_path)
        out = tmp_path / "rebuilt.json"
        code = run([
            "report", "--matches", str(paths["m"]), "--baseline", str(paths["b"]),
            "--rule", "percentile:99.5", "--out", str(out), "--quiet",
        ])
        assert code == 1
        audit = json.loads(paths["audit"].read_text("utf-8"))
        rebuilt = json.loads(out.read_text("utf-8"))
        for key in ("plan", "threshold", "flagged", "metrics_table"):
            assert rebuilt[key] == audit[key], key
        assert [s["label"] for s in rebuilt["summaries"]] == ["synth-vs-train", "test-vs-train"]
        assert rebuilt["summaries"] == audit["summaries"][:2]
        assert rebuilt["histograms"] == audit["histograms"][:2]

    @pytest.mark.parametrize("matches, baseline, wrong, label", [
        ("b", "m", "b", "test-vs-train"),
        ("m", "m", "m", "synth-vs-train"),
    ], ids=["swapped", "synthetic-as-baseline"])
    def test_match_file_of_the_other_label(self, tmp_path, capsys, matches, baseline, wrong,
                                           label):
        paths = self._audit(tmp_path)
        out = tmp_path / "r.json"
        code = run([
            "report", "--matches", str(paths[matches]), "--baseline", str(paths[baseline]),
            "--out", str(out), "--quiet",
        ])
        assert code == 3
        assert f"{paths[wrong]} holds {label!r} matches" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _audit_against(root, n_train, shape, seed):
        """Match files of an audit against a fresh train set of n_train
        images of shape, with planted synthetic and fresh test sets."""
        root.mkdir()
        train = generate_train_set(n_train, *shape, seed=seed)
        sets = {
            "train": train.images,
            "synth": plant(train, PlantConfig(n_output=6, p_copy=0.5, seed=seed + 1))[0].images,
            "test": generate_train_set(6, *shape, seed=seed + 2, name="t", role="test").images,
        }
        for name, images in sets.items():
            write_ivc(list(images), root / f"{name}.ivc")
            role = {"synth": "synthetic"}.get(name, name)
            write_manifest(root / f"{name}.mf", name, role, [f"{name}.ivc"])
        code = run([
            "audit", "--train", str(root / "train.mf"), "--synthetic", str(root / "synth.mf"),
            "--test", str(root / "test.mf"), "--matches-out", str(root / "m.json"),
            "--baseline-matches-out", str(root / "b.json"), "--quiet",
        ])
        assert code == 1
        return root / "m.json", root / "b.json"

    def test_baseline_of_another_training_set(self, tmp_path, capsys):
        """A baseline saved by an audit against another train set is refused
        (exit 3, both files and both values named), and nothing is written."""
        a_matches, a_baseline = self._audit_against(tmp_path / "a", 30, (1, 16, 16), 9500)
        _, b_baseline = self._audit_against(tmp_path / "b", 50, (1, 20, 20), 9600)
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = run([
            "report", "--matches", str(a_matches), "--baseline", str(b_baseline),
            "--out", str(out), "--quiet",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(a_matches) in err and str(b_baseline) in err
        assert "n_reference 30 vs 50" in err and "vector_length 256 vs 400" in err
        assert not out.exists()
        # The audit's own baseline still passes the check.
        assert run([
            "report", "--matches", str(a_matches), "--baseline", str(a_baseline),
            "--out", str(out), "--quiet",
        ]) == 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_equals_out_file(self, tmp_path, capsys, fmt):
        paths = self._audit(tmp_path)
        out = tmp_path / f"r.{fmt}"
        argv = [
            "report", "--matches", str(paths["m"]), "--baseline", str(paths["b"]),
            "--format", fmt, "--quiet",
        ]
        assert run(argv + ["--out", str(out)]) == 1
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


class TestReportPlan:
    def test_plan_blocks_are_the_engine_blocks(self, tmp_path, monkeypatch):
        """With --test, the plan counts synthetic queries but records the
        blocks the engine reads train in, sized for synthetic + test."""
        train_mf, synth_mf, test_mf = _split_train(tmp_path)
        calls = []
        read = correlate._read_chunks

        def counted(parts, *rest):  # one call per engine block
            calls.extend(i1 - i0 for rows, i0, i1 in parts if rows.role == "train")
            return read(parts, *rest)

        monkeypatch.setattr(correlate, "_read_chunks", counted)
        out = tmp_path / "r.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--block-budget-mib", "0.005",
            "--out", str(out), "--quiet",
        ])
        assert code in (0, 1)
        plan = json.loads(out.read_text("utf-8"))["plan"]
        assert (plan["n_query"], plan["n_reference"], plan["block_query"]) == (8, 24, 16)
        assert len(calls) > 2 and sum(calls) == 24
        assert set(calls[:-1]) == {plan["block_reference"]}
        assert calls[-1] <= plan["block_reference"]

    @pytest.mark.parametrize("kind", ["ivc", "emb"])
    @pytest.mark.parametrize("with_test", [False, True], ids=["alone", "test"])
    @pytest.mark.parametrize("sample", [[], ["--sample", "3", "--seed", "5"]], ids=["all", "sample"])
    def test_report_plan_is_the_engine_plan(self, tmp_path, monkeypatch, kind, with_test, sample):
        train_mf, synth_mf, test_mf = (_split_train if kind == "ivc" else _emb_sets)(tmp_path)
        engine_plans = []
        plan_audit = correlate.plan_audit

        def captured(*args, **kwargs):
            engine_plans.append(plan_audit(*args, **kwargs))
            return engine_plans[-1]

        monkeypatch.setattr(correlate, "plan_audit", captured)
        out = tmp_path / "r.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            *(["--test", str(test_mf)] if with_test else []), *sample,
            "--block-budget-mib", "0.005", "--rule", "fixed:0.99", "--out", str(out), "--quiet",
        ])
        assert code in (0, 1)
        assert len(engine_plans) == 1
        assert json.loads(out.read_text("utf-8"))["plan"] == asdict(engine_plans[0])


def test_audit_calls_the_traced_names_once(tmp_path, monkeypatch):
    """perfbench's tracer wraps cli's own plan_audit and max_correlations
    names, and reads the engine's query and reference as its first two
    positional arguments and progress as a keyword: its per-layer tile
    and multiply-add counts read 0 if the CLI stops calling them so."""
    train_mf, synth_mf, test_mf = _split_train(tmp_path)
    calls = Counter()

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            if name == "max_correlations":
                assert len(args) >= 2 and "progress" in kwargs
            return f(*args, **kwargs)
        return call

    for name in ("plan_audit", "max_correlations"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    code = run([
        "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
        "--test", str(test_mf), "--out", str(tmp_path / "r.json"), "--quiet",
    ])
    assert code in (0, 1)
    assert calls == {"plan_audit": 1, "max_correlations": 1}


def test_commands_call_the_traced_writer_names_once_per_output(tmp_path, monkeypatch):
    """perfbench's tracer times cli's own writer names (write_ivc,
    write_manifest, save_ground_truth, save_matches, export_report): its
    write and export times miss any output that a command writes another
    way. Each command calls each of them once per output."""
    train_mf, synth_mf, test_mf = _split_train(tmp_path)
    calls = Counter()

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    for name in ("write_ivc", "write_manifest", "save_ground_truth", "save_matches",
                 "export_report"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    runs = {
        "audit": (["--train", str(train_mf), "--synthetic", str(synth_mf), "--test", str(test_mf),
                   "--matches-out", str(tmp_path / "m.json"),
                   "--baseline-matches-out", str(tmp_path / "b.json"),
                   "--out", str(tmp_path / "r.json")], {"save_matches": 2, "export_report": 1}),
        "plant": (["--train", str(train_mf), "--n", "4", "--seed", "5",
                   "--out", str(tmp_path / "p.ivc"), "--truth", str(tmp_path / "p.json")],
                  {"write_ivc": 1, "save_ground_truth": 1, "write_manifest": 1}),
        "preprocess": (["--manifest", str(train_mf), "--out-container", str(tmp_path / "q.ivc"),
                        "--out-manifest", str(tmp_path / "q.mf")],
                       {"write_ivc": 1, "write_manifest": 1}),
    }
    for command, (argv, expected) in runs.items():
        calls.clear()
        assert run([command, *argv, "--quiet"]) in (0, 1)
        assert calls == expected, command


def _worker_sets(tmp_path, kind):
    """Train, synthetic and test manifests: 2x32x32 ("ivc") or 5x32x32
    ("ivc5", channels 0-3 masked) float images (20 train in two files, 7
    synthetic, 5 test) or 8-dim embeddings."""
    if kind == "emb":
        return _emb_sets(tmp_path)
    train = generate_train_set(20, 5 if kind == "ivc5" else 2, 32, 32, seed=9500)
    write_ivc(list(train.images[:10]), tmp_path / "t0.ivc")
    write_ivc(list(train.images[10:]), tmp_path / "t1.ivc")
    write_manifest(tmp_path / "train.mf", "train", "train", ["t0.ivc", "t1.ivc"])
    synth_mf, _ = plant_set(tmp_path, tmp_path / "train.mf", seed=31, n=7, p_copy=0.3)
    test_mf, _ = plant_set(tmp_path, tmp_path / "train.mf", seed=32, n=5, name="heldout")
    test_mf.write_text(test_mf.read_text().replace("role = synthetic", "role = test"))
    return tmp_path / "train.mf", synth_mf, test_mf


class TestWorkerCounts:
    """The read side's worker count (forced through core.worker_count)
    changes no output byte, at every block budget: 0.05 MiB reads the
    train blocks of these images in panels, 5 one-channel rows a block
    (1- and 2-row worker ranges at 3 workers), and the embeddings' in
    1-row worker ranges."""

    @pytest.mark.parametrize("case", [
        ("ivc", ["--channel-mode", "concat"]),
        ("ivc", ["--channel-mode", "mean"]),
        ("ivc", ["--sample", "4", "--seed", "2"]),
        ("emb", ["--metric", "pearson"]),
        ("emb", ["--metric", "cosine", "--sample", "3", "--seed", "2"]),
        ("ivc5", ["--channel-mode", "concat"]),
        ("ivc5", ["--channel-mode", "mean"]),
    ], ids=["concat", "mean", "sample", "embeddings", "embeddings-sample", "panels-concat",
            "panels-mean"])
    def test_outputs_identical_across_worker_counts(self, tmp_path, monkeypatch, case):
        kind, extra = case
        train_mf, synth_mf, test_mf = _worker_sets(tmp_path, kind)
        outputs = {}
        for budget in ("0.05", "32", "512"):
            for workers in (1, 2, 3):
                monkeypatch.setattr(core, "worker_count", lambda: workers)
                root = tmp_path / f"{budget}-{workers}"
                root.mkdir()
                code = run([
                    "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
                    "--test", str(test_mf), "--block-budget-mib", budget, "--k", "3", *extra,
                    "--out", str(root / "r.json"), "--matches-out", str(root / "m.json"),
                    "--baseline-matches-out", str(root / "b.json"), "--quiet",
                ])
                assert code in (0, 1)
                outputs[budget, workers] = [
                    (root / name).read_bytes() for name in ("r.json", "m.json", "b.json")
                ]
            assert outputs[budget, 1] == outputs[budget, 2] == outputs[budget, 3], budget
        if kind != "emb":
            plan = json.loads(outputs["0.05", 1][0])["plan"]
            assert plan["block_reference"] == 5

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad", [(20,), (9, 20)], ids=["last-range", "two-ranges"])
    def test_lowest_bad_entry_fails_the_audit(self, tmp_path, capsys, monkeypatch, workers, bad):
        """A train entry that fails its CRC-32 fails the audit with the
        serial read's message, whatever range holds it; of two, the
        lower-index one is named. With 3 workers the 24 train rows are read
        as 0-7, 8-15 and 16-23 (entry 20 in the last range), with 2 as 0-11
        and 12-23."""
        monkeypatch.setattr(core, "worker_count", lambda: workers)
        train_mf, synth_mf, test_mf = _split_train(tmp_path)
        for index in bad:
            _flip_last(tmp_path / ("t0.ivc" if index < 12 else "t1.ivc"), index % 12)
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet",
        ])
        assert code == 3
        first = min(bad)
        file = "t0.ivc" if first < 12 else "t1.ivc"
        err = capsys.readouterr().err
        assert f"{file}: entry {first % 12} ('train_{first:05d}'): checksum mismatch" in err
        assert err.count("checksum mismatch") == 1
        assert not out.exists()

    def test_lowest_non_finite_embedding_fails_the_audit(self, tmp_path, capsys, monkeypatch):
        """Two non-finite train rows, 12 and 25, in the middle and last of
        the 3 workers' ranges (0-9, 10-19, 20-29): the audit exits 3 and
        names the lower row, its id and its value's byte offset."""
        monkeypatch.setattr(core, "worker_count", lambda: 3)
        train_mf, synth_mf, test_mf = _emb_sets(tmp_path)
        blob = bytearray((tmp_path / "train.emb").read_bytes())
        for row, value in ((25, 3), (12, 5)):  # dim 8, after a 12-byte header
            struct.pack_into("<f", blob, 12 + 4 * (8 * row + value), float("nan"))
        (tmp_path / "train.emb").write_bytes(bytes(blob))
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet",
        ])
        assert code == 3
        err = capsys.readouterr().err
        offset = 12 + 4 * (8 * 12 + 5)
        assert f"train.emb: non-finite embedding values in row 12 ('train12') at offset {offset}" in err
        assert err.count("non-finite") == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad", [((20, 0),), ((20, 4),), ((9, 4), (20, 0)), ((9, 0), (20, 4))],
                             ids=["masked", "unmasked", "unmasked-first", "masked-first"])
    def test_lowest_bad_entry_fails_the_audit_in_panels(
        self, tmp_path, capsys, monkeypatch, workers, bad
    ):
        """The same with 5x32x32 train images read in panels (channels 0-3,
        5 rows a block at 0.05 MiB): a flipped byte in masked channel 0 or
        in unmasked channel 4, which no panel holds, fails its entry's
        running CRC-32, and of two, the lower-index entry is named."""
        monkeypatch.setattr(core, "worker_count", lambda: workers)
        train_mf, synth_mf, test_mf = _split_train(tmp_path, shape=(5, 32, 32))
        for index, channel in bad:
            path = tmp_path / ("t0.ivc" if index < 12 else "t1.ivc")
            offset, size = ivc_payload_span(path, index % 12)
            blob = bytearray(path.read_bytes())
            blob[offset + channel * size // 5 + 2] ^= 0x40
            path.write_bytes(bytes(blob))
        out = tmp_path / "report.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--block-budget-mib", "0.05", "--out", str(out), "--quiet",
        ])
        assert code == 3
        first = min(index for index, _ in bad)
        file = "t0.ivc" if first < 12 else "t1.ivc"
        err = capsys.readouterr().err
        assert f"{file}: entry {first % 12} ('train_{first:05d}'): checksum mismatch" in err
        assert err.count("checksum mismatch") == 1
        assert not out.exists()


class TestFlagValues:
    """Bad flag values are usage errors (exit 2) named in the message,
    caught before any output is written."""

    CASES = {
        "sample-negative": (["--sample", "-3", "--seed", "1"], "--sample"),
        "sample-zero": (["--sample", "0", "--seed", "1"], "--sample"),
        "k-zero": (["--k", "0"], "--k"),
        "k-text": (["--k", "two"], "--k"),
        "budget-zero": (["--block-budget-mib", "0"], "--block-budget-mib"),
        "budget-nan": (["--block-budget-mib", "nan"], "--block-budget-mib"),
        "budget-inf": (["--block-budget-mib", "inf"], "--block-budget-mib"),
        "bins-zero": (["--histogram-bins", "0"], "--histogram-bins"),
        "rule-bogus": (["--rule", "bogus"], "--rule"),
        "rule-percentile": (["--rule", "percentile:150"], "--rule"),
        "rule-percentile-bare": (["--rule", "percentile"], "--rule"),
        "rule-fixed-nan": (["--rule", "fixed:nan"], "--rule"),
        "rule-fixed-inf": (["--rule", "fixed:inf"], "--rule"),
        "rule-fixed-minus-inf": (["--rule", "fixed:-inf"], "--rule"),
        "channels-range": (["--channels", "0,9"], "--channels"),
        "channels-empty": (["--channels", ","], "--channels"),
        "progress-nan": (["--progress-interval", "nan"], "--progress-interval"),
        "progress-inf": (["--progress-interval", "inf"], "--progress-interval"),
        "progress-negative": (["--progress-interval", "-1"], "--progress-interval"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_audit(self, tmp_path, capsys, case):
        extra, flag = self.CASES[case]
        train_mf, synth_mf, test_mf = _split_train(tmp_path)
        out = tmp_path / "r.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet", *extra,
        ])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, extra, flag", [
        ("images", ["--metric", "cosine"], "--metric"),
        ("images", ["--metric", "pearson"], "--metric"),
        ("embeddings", ["--channels", "0"], "--channels"),
        ("embeddings", ["--channel-mode", "mean"], "--channel-mode"),
        ("embeddings", ["--channel-mode", "concat"], "--channel-mode"),
    ], ids=["images-metric-cosine", "images-metric-pearson", "embeddings-channels",
            "embeddings-channel-mode-mean", "embeddings-channel-mode-concat"])
    def test_audit_flags_of_the_other_kind(self, tmp_path, capsys, kind, extra, flag):
        sets = _split_train if kind == "images" else _emb_sets
        train_mf, synth_mf, test_mf = sets(tmp_path)
        out = tmp_path / "r.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--test", str(test_mf), "--out", str(out), "--quiet", *extra,
        ])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_matches_out_without_test(self, tmp_path, capsys):
        train_mf, synth_mf, _ = _split_train(tmp_path)
        out, matches = tmp_path / "r.json", tmp_path / "m.json"
        code = run([
            "audit", "--train", str(train_mf), "--synthetic", str(synth_mf),
            "--rule", "fixed:0.9", "--matches-out", str(matches),
            "--baseline-matches-out", str(tmp_path / "b.json"), "--out", str(out), "--quiet",
        ])
        assert code == 2
        assert "--baseline-matches-out" in capsys.readouterr().err
        assert not out.exists() and not matches.exists()

    def test_rule_without_a_number(self, tmp_path, capsys):
        code = run(["report", "--matches", str(tmp_path / "m.json"), "--rule", "percentile:abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--rule: rule must be 'percentile:P' or 'fixed:V', got 'percentile:abc'" in err

    @pytest.mark.parametrize("extra, flag", [
        (["--histogram-bins", "0"], "--histogram-bins"),
        (["--rule", "percentile:0"], "--rule"),
        (["--rule", "fixed:nan"], "--rule"),
        (["--rule", "fixed:inf"], "--rule"),
        (["--rule", "fixed:-inf"], "--rule"),
        (["--rule", "percentile"], "--rule"),
        ([], "--baseline"),  # the default rule is a percentile rule
    ])
    def test_report(self, tmp_path, capsys, extra, flag):
        out = tmp_path / "r.json"
        code = run(["report", "--matches", str(tmp_path / "m.json"), "--out", str(out), *extra])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    AUDIT = ["audit", "--train", "IN", "--synthetic", "IN", "--rule", "fixed:0.9",
             "--out", "OUT"]
    METRICS = ["metrics", "--out", "OUT"]
    PLANT = ["plant", "--train", "IN", "--n", "4", "--seed", "1", "--out", "OUT",
             "--truth", "OUT"]
    PREPROCESS = ["preprocess", "--manifest", "IN", "--out-container", "OUT",
                  "--out-manifest", "OUT"]
    OTHER_CASES = {
        # FID and IS come only from `metrics`; write_ivc picks each entry's dtype.
        "audit-fid-embeddings": (AUDIT + ["--fid-embeddings", "IN", "IN"], "--fid-embeddings"),
        "audit-is-probs": (AUDIT + ["--is-probs", "IN"], "--is-probs"),
        "audit-channels-text": (AUDIT + ["--channels", "0,x"], "--channels"),
        "preprocess-dtype": (PREPROCESS + ["--dtype", "f32"], "--dtype"),
        "metrics-splits": (METRICS + ["--is", "IN", "--splits", "0"], "--splits"),
        "metrics-mi-bins": (METRICS + ["--mi-pairs", "IN", "IN", "--mi-bins", "1"], "--mi-bins"),
        "metrics-ssim-even": (
            METRICS + ["--ssim-pairs", "IN", "IN", "--ssim-window", "4"], "--ssim-window"
        ),
        "metrics-ssim-zero": (
            METRICS + ["--ssim-pairs", "IN", "IN", "--ssim-window", "0"], "--ssim-window"
        ),
        "metrics-ssim-negative": (
            METRICS + ["--ssim-pairs", "IN", "IN", "--ssim-window", "-3"], "--ssim-window"
        ),
        "metrics-ssim-sigma": (
            METRICS + ["--ssim-pairs", "IN", "IN", "--ssim-sigma", "0"], "--ssim-sigma"
        ),
        "plant-n": (PLANT + ["--n", "0"], "--n"),
        "plant-p-copy": (PLANT + ["--p-copy", "2"], "--p-copy"),
        "plant-p-noisy": (PLANT + ["--p-noisy", "-0.1"], "--p-noisy"),
        "plant-p-shift": (PLANT + ["--p-shift", "nan"], "--p-shift"),
        "plant-p-sum": (PLANT + ["--p-copy", "0.5", "--p-noisy", "0.4", "--p-shift", "0.2"],
                        "--p-copy"),
        "plant-sigma": (PLANT + ["--sigma", "-1"], "--sigma"),
        "plant-shift": (PLANT + ["--shift", "-1"], "--shift"),
        "preprocess-resize": (PREPROCESS + ["--resize", "0", "8"], "--resize"),
        "preprocess-pad": (PREPROCESS + ["--pad", "-1", "4"], "--pad"),
        "preprocess-min-fraction": (PREPROCESS + ["--min-fraction", "2"], "--min-fraction"),
        "preprocess-filter-negative": (
            PREPROCESS + ["--filter-channel", "-1"], "--filter-channel"
        ),
        "preprocess-remap-pair": (PREPROCESS + ["--remap", "1-2"], "--remap"),
        "preprocess-remap-text": (PREPROCESS + ["--remap", "1=a"], "--remap"),
        "preprocess-rescale-channels-text": (
            PREPROCESS + ["--rescale", "--rescale-channels", "0,x"], "--rescale-channels"
        ),
    }

    @pytest.mark.parametrize("case", sorted(OTHER_CASES))
    def test_other_commands(self, tmp_path, capsys, case):
        # Every input is missing, so a data error (exit 3) would show that
        # an input was read before the flag was checked.
        argv, flag = self.OTHER_CASES[case]
        paths = {"IN": str(tmp_path / "missing.mf"), "OUT": str(tmp_path / "out")}
        assert run([paths.get(a, a) for a in argv]) == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra, flag", [
        (["--rescale", "--rescale-channels", "9"], "--rescale-channels"),
        (["--remap", "1=2", "--remap-channels", "9"], "--remap-channels"),
        (["--filter-channel", "7"], "--filter-channel"),
    ], ids=["rescale-channels", "remap-channels", "filter-channel"])
    def test_preprocess_channels(self, tmp_path, capsys, extra, flag):
        # Checked against the records' channel count: 1, for these 2-D images.
        train = generate_train_set(6, 1, 16, 16, seed=9200)
        write_ivc(list(train.images), tmp_path / "in.ivc")
        write_manifest(tmp_path / "in.mf", "in", "train", ["in.ivc"])
        code = run([
            "preprocess", "--manifest", str(tmp_path / "in.mf"),
            "--out-container", str(tmp_path / "out.ivc"),
            "--out-manifest", str(tmp_path / "out.mf"), *extra,
        ])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ivc", "in.mf"]


PLANT_AND_METRICS = """
import sys
from memaudit.cli import run
train, out = sys.argv[1:]
assert run(["plant", "--train", train, "--n", "4", "--seed", "3", "--out", out + "/synth.ivc",
            "--truth", out + "/truth.json", "--quiet"]) == 0
assert run(["metrics", "--ssim-pairs", out + "/synth.mf", train, "--mi-pairs", out + "/synth.mf",
            train, "--out", out + "/metrics.json", "--quiet"]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy") or m == "secrets"))
"""


def _plant_and_metrics(tmp_path, name, **env):
    """A fresh child process plants 4 fresh 2x128x128 images from a
    4-image train set, then scores them against it with SSIM and MI."""
    train_mf = tmp_path / "train.mf"
    if not train_mf.exists():
        write_ivc(list(generate_train_set(4, 2, 128, 128, seed=9400).images), tmp_path / "train.ivc")
        write_manifest(train_mf, "train", "train", ["train.ivc"])
    out = tmp_path / name
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(Path(memaudit.__file__).parents[1]), **env)
    result = subprocess.run(
        [sys.executable, "-c", PLANT_AND_METRICS, str(train_mf), str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out, result.stdout.strip()


def test_cli_import_loads_no_scipy(tmp_path):
    """The Gaussian filter behind SSIM and the harness's fresh images is
    memaudit's own, so a process that plants fresh images and then runs
    `metrics --ssim-pairs` never loads scipy; and the atomic writer's
    temp names do not load `secrets` (nor its hmac and hashlib)."""
    _, modules = _plant_and_metrics(tmp_path, "run")
    assert modules == "[]"


def test_audit_leaves_numpy_ma_unloaded(tmp_path, train_manifest):
    """The report's median comes from its sorted values, not np.median,
    whose first call imports numpy.ma (about 10 ms of every audit)."""
    synth_mf, _ = plant_set(tmp_path, train_manifest, seed=6, n=4, p_copy=0.5)
    child = "import sys\nfrom memaudit.cli import run\nrun(sys.argv[1:])\nprint('numpy.ma' in sys.modules)"
    result = subprocess.run([
        sys.executable, "-c", child, "audit", "--train", str(train_manifest),
        "--synthetic", str(synth_mf), "--test", str(synth_mf), "--rule", "fixed:0.99",
        "--out", str(tmp_path / "r.json"), "--quiet",
    ], env=dict(os.environ, PYTHONPATH=str(Path(memaudit.__file__).parents[1])),
        capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
    assert json.loads((tmp_path / "r.json").read_text())["summaries"][0]["median"] > 0


def test_plant_and_metrics_identical_across_blas_threads(tmp_path):
    """The filter's band products give the same bytes at 1 and 2 BLAS threads."""
    one, _ = _plant_and_metrics(tmp_path, "one", OPENBLAS_NUM_THREADS="1")
    two, _ = _plant_and_metrics(tmp_path, "two", OPENBLAS_NUM_THREADS="2")
    for name in ("synth.ivc", "truth.json", "metrics.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    assert json.loads((one / "metrics.json").read_text())["ssim"]["mean"] < 0.9


def test_audit_identical_across_blas_threads(tmp_path):
    """An audit's report and match files have the same bytes at 1 and 2
    BLAS threads, with many small GEMMs (a tiny budget) or few large ones."""
    train = generate_train_set(40, 5, 64, 64, seed=9700)
    sets = {
        "train": (train.images, "train"),
        "synth": (plant(train, PlantConfig(n_output=16, p_copy=0.25, seed=9701))[0].images,
                  "synthetic"),
        "test": (generate_train_set(12, 5, 64, 64, seed=9702).images, "test"),
    }
    for name, (images, role) in sets.items():
        write_ivc(list(images), tmp_path / f"{name}.ivc")
        write_manifest(tmp_path / f"{name}.mf", name, role, [f"{name}.ivc"])
    env = dict(os.environ, PYTHONPATH=str(Path(memaudit.__file__).parents[1]))
    outputs = {}
    for budget in ("0.05", "32"):
        for threads in ("1", "2"):
            out = tmp_path / f"{budget}-{threads}"
            out.mkdir()
            audit = subprocess.run([
                sys.executable, "-m", "memaudit.cli", "audit",
                "--train", str(tmp_path / "train.mf"), "--synthetic", str(tmp_path / "synth.mf"),
                "--test", str(tmp_path / "test.mf"), "--block-budget-mib", budget,
                "--out", str(out / "report.json"), "--matches-out", str(out / "matches.json"),
                "--baseline-matches-out", str(out / "baseline.json"), "--quiet",
            ], env=dict(env, OPENBLAS_NUM_THREADS=threads), timeout=300)
            assert audit.returncode == 1  # planted copies are flagged
            outputs[budget, threads] = {
                name: (out / name).read_bytes()
                for name in ("report.json", "matches.json", "baseline.json")
            }
        assert outputs[budget, "1"] == outputs[budget, "2"], budget


def test_embedding_audit_identical_across_budgets_and_blas_threads(tmp_path):
    """A screened (float32 sgemm, then exact values) embedding audit writes
    the same bytes at every block budget and at 1 and 2 BLAS threads: a
    reported value is the float64 pairwise dot of its two rows. Only the
    plan's block_reference differs between budgets."""
    rng = np.random.default_rng(9800)
    dim = 512
    train = rng.normal(size=(400, dim)).astype(np.float32)
    train[200:240] = train[:40] * np.float32(2.0) ** rng.integers(-3, 4, (40, 1))  # exact ties
    synth = rng.normal(size=(60, dim)).astype(np.float32)
    synth[:10] = train[rng.choice(400, 10, replace=False)]
    synth[10:20] = train[rng.choice(400, 10, replace=False)] + 0.3 * rng.normal(size=(10, dim))
    test = rng.normal(size=(60, dim)).astype(np.float32)
    for name, role, rows in (("train", "train", train), ("synth", "synthetic", synth),
                             ("test", "test", test)):
        ids = tuple(f"{name}{i:03d}" for i in rng.permutation(len(rows)))
        write_embeddings(EmbeddingSet(ids, dim, rows), tmp_path / f"{name}.emb")
        write_manifest(tmp_path / f"{name}.mf", name, role, [f"{name}.emb"])
    env = dict(os.environ, PYTHONPATH=str(Path(memaudit.__file__).parents[1]))
    outputs, blocks = {}, set()
    for budget in ("0.05", "1", "32", "512"):
        for threads in ("1", "2"):
            out = tmp_path / f"{budget}-{threads}"
            out.mkdir()
            audit = subprocess.run([
                sys.executable, "-m", "memaudit.cli", "audit",
                "--train", str(tmp_path / "train.mf"), "--synthetic", str(tmp_path / "synth.mf"),
                "--test", str(tmp_path / "test.mf"), "--block-budget-mib", budget,
                "--out", str(out / "report.json"), "--matches-out", str(out / "matches.json"),
                "--quiet",
            ], env=dict(env, OPENBLAS_NUM_THREADS=threads), timeout=300)
            assert audit.returncode == 1  # the copies are flagged
            blocks.add(json.loads((out / "report.json").read_text())["plan"]["block_reference"])
            outputs[budget, threads] = [
                re.sub(rb'"block_reference": \d+', b"", (out / name).read_bytes())
                for name in ("report.json", "matches.json")
            ]
    assert len(blocks) == 3  # 6-row, 136-row and whole-set blocks
    assert len(set(map(tuple, outputs.values()))) == 1
