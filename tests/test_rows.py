"""Every row source (in-memory and file-backed sets of both kinds, and the
CLI's picked rows) has one interface: `shape`, (C, H, W) for images and
(1, dim) for embeddings, and `read_rows(i0, i1, out, channels)`, which
fills out with rows i0..i1-1 of the given channels; image sets also have
`read_panels(i0, i1, out, panels)`, which fills out one panel of
channels at a time (the engine reads only its reference so; picked rows
have none). Each is checked against a plain numpy array of its rows."""

import numpy as np
import pytest

from memaudit.cli import _Picked
from memaudit.core import Dataset, ImageRecord
from memaudit.ingest import (
    EmbeddingSet,
    open_dataset,
    open_embedding_set,
    write_embeddings,
    write_ivc,
    write_manifest,
)

N = 7
IMAGE_SHAPE = (3, 4, 5)
DIM = 6
PICKS = [5, 0, 3, 6]


def _images(tmp_path, rng):
    """(in-memory set, file-backed set, rows (N, C, H*W)) of N images,
    written to two IVC1 files, one f32 and one u8."""
    c, h, w = IMAGE_SHAPE
    rows = rng.normal(0, 1, (N, c, h * w)).astype(np.float32)
    rows[4:] = rng.integers(0, 256, (N - 4, c, h * w))
    images = [ImageRecord(f"im{i}", c, h, w, row) for i, row in enumerate(rows)]
    write_ivc(images[:4], tmp_path / "a.ivc")
    write_ivc(images[4:], tmp_path / "b.ivc")
    write_manifest(tmp_path / "i.mf", "i", "train", ["a.ivc", "b.ivc"])
    return Dataset("i", "train", images), open_dataset(tmp_path / "i.mf"), rows


def _embeddings(tmp_path, rng):
    """(in-memory set, file-backed set, rows (N, 1, dim)) of N embedding
    rows, written to two EMB1 files."""
    rows = rng.normal(0, 1, (N, 1, DIM)).astype(np.float32)
    ids = tuple(f"e{i}" for i in range(N))
    for name, part in (("a", slice(0, 3)), ("b", slice(3, N))):
        write_embeddings(EmbeddingSet(ids[part], DIM, rows[part]), tmp_path / f"{name}.emb")
    write_manifest(tmp_path / "e.mf", "e", "train", ["a.emb", "b.emb"])
    return EmbeddingSet(ids, DIM, rows), open_embedding_set(tmp_path / "e.mf"), rows


# source name: (maker of one kind's sets, which of its two sets, wrapped in _Picked)
SOURCES = {
    "Dataset": (_images, 0, False),
    "DatasetFile": (_images, 1, False),
    "EmbeddingSet": (_embeddings, 0, False),
    "EmbeddingSetFile": (_embeddings, 1, False),
    "_Picked-images": (_images, 1, True),
    "_Picked-embeddings": (_embeddings, 1, True),
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_row_source(tmp_path, name):
    make, which, picked = SOURCES[name]
    sets = make(tmp_path, np.random.default_rng(11))
    source, rows = sets[which], sets[2]
    shape = IMAGE_SHAPE if make is _images else (1, DIM)
    if picked:
        source, rows = _Picked(source, PICKS), rows[PICKS]
    assert source.shape == shape and len(source) == len(rows)
    assert rows.shape[1:] == (shape[0], int(np.prod(shape[1:])))
    masks = [(0, 2), (2, 0), (1,), (0, 1, 2)] if make is _images else [(0,)]
    for channels in masks:
        for i0, i1 in ((0, len(rows)), (1, len(rows) - 1), (2, 3), (3, 3)):
            out = np.full((i1 - i0, len(channels), rows.shape[2]), np.nan)
            source.read_rows(i0, i1, out, channels)
            np.testing.assert_array_equal(out, rows[i0:i1][:, list(channels)])
    if make is _images and not picked:  # image sets also read a panel of channels at a time
        for panels in ([(0,), (1,), (2,)], [(0,), (2,)], [(1,)]):
            for i0, i1 in ((0, len(rows)), (2, 3), (3, 3)):
                out = np.full((i1 - i0, 1, rows.shape[2]), np.nan)
                reader = source.read_panels(i0, i1, out, panels)
                for panel in panels:
                    next(reader)
                    np.testing.assert_array_equal(out, rows[i0:i1][:, list(panel)])
                assert next(reader, "done") == "done"


def test_picked_rows_have_no_panel_reader(tmp_path):
    """A picked set has the shape, name and role of its set, but no
    read_panels: the set's own would read its rows i0..i1-1, not the
    picked ones."""
    _, handle, _ = _images(tmp_path, np.random.default_rng(11))
    picked = _Picked(handle, PICKS)
    assert (picked.name, picked.role, picked.shape) == (handle.name, handle.role, handle.shape)
    assert not hasattr(picked, "read_panels")
