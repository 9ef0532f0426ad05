"""The README's `## Library` example runs as written, on manifests made
here: train, synth and test images, and s and t embeddings. So the
documented API cannot drift from the code."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np

import memaudit as ma
from memaudit.ingest import write_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    rng = np.random.default_rng(21)
    train = ma.generate_train_set(12, 2, 8, 8, seed=3).images
    fresh = [
        replace(img, id=f"fresh{i}")
        for i, img in enumerate(ma.generate_train_set(9, 2, 8, 8, seed=4).images)
    ]
    copy = replace(train[2], id="copy")
    for name, role, images in (
        ("train", "train", train),
        ("synth", "synthetic", [copy, *fresh[:4]]),
        ("test", "test", fresh[4:]),
    ):
        ma.write_ivc(images, tmp_path / f"{name}.ivc")
        write_manifest(tmp_path / f"{name}.mf", name, role, [f"{name}.ivc"])
    for name, role, n in (("s", "synthetic", 3), ("t", "train", 9)):
        ids = tuple(f"{name}{i}" for i in range(n))
        rows = rng.normal(0, 1, (n, 8))
        ma.write_embeddings(ma.EmbeddingSet(ids, 8, rows), tmp_path / f"{name}.emb")
        write_manifest(tmp_path / f"{name}.mf", name, role, [f"{name}.emb"])

    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(_library_example(), str(README), "exec"), scope)
    assert [m.query_id for m in scope["matches"]] == list(scope["synth"].ids)
    assert len(scope["test_matches"]) == 5 and len(scope["synth_vs_test"]) == 5
    assert (scope["flagged"][0].query_id, scope["flagged"][0].reference_id) == ("copy", train[2].id)
    assert [m.query_id for m in scope["emb"]] == ["s0", "s1", "s2"]
