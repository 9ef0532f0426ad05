import os
import struct
import zlib

import numpy as np
import pytest

from memaudit.core import ImageRecord, VolumeRecord
from memaudit.errors import (
    EmptyInputError,
    FormatError,
    ManifestError,
    UnsupportedVersionError,
)
from memaudit.ingest import (
    EmbeddingSet,
    load_dataset,
    load_embedding_set,
    load_manifest,
    read_embeddings,
    read_ivc,
    read_pgm,
    write_embeddings,
    write_ivc,
    write_manifest,
    write_pgm,
)

from conftest import image


def pgm_bytes(width, height, payload, maxval=255, magic=b"P5"):
    return magic + f"\n{width} {height}\n{maxval}\n".encode() + bytes(payload)


class TestPgm:
    def test_reads_2x2(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(pgm_bytes(2, 2, [0, 128, 255, 64]))
        img = read_pgm(f)
        assert (img.channels, img.height, img.width) == (1, 2, 2)
        assert img.id == "a"
        np.testing.assert_array_equal(img.pixels, [0, 128, 255, 64])

    def test_comments_in_header(self, tmp_path):
        f = tmp_path / "c.pgm"
        f.write_bytes(b"P5 # binary\n# a comment line\n2 1\n255\n\x01\x02")
        img = read_pgm(f)
        np.testing.assert_array_equal(img.pixels, [1, 2])

    def test_ascii_pgm_rejected(self, tmp_path):
        f = tmp_path / "a.pgm"
        f.write_bytes(pgm_bytes(1, 1, [65], magic=b"P2"))
        with pytest.raises(FormatError, match="ASCII"):
            read_pgm(f)

    def test_truncated_payload_names_offset(self, tmp_path):
        f = tmp_path / "t.pgm"
        f.write_bytes(b"P5\n256 256\n255\n" + b"\x00" * 100)
        with pytest.raises(FormatError, match="truncated.*offset"):
            read_pgm(f)

    def test_maxval_over_255_rejected_with_offset(self, tmp_path):
        f = tmp_path / "m.pgm"
        f.write_bytes(pgm_bytes(1, 1, [0, 0], maxval=65535))
        with pytest.raises(FormatError, match="maxval.*offset"):
            read_pgm(f)

    def test_trailing_bytes_rejected(self, tmp_path):
        f = tmp_path / "x.pgm"
        f.write_bytes(pgm_bytes(1, 1, [7, 8]))
        with pytest.raises(FormatError, match="trailing"):
            read_pgm(f)

    def test_write_read_round_trip(self, tmp_path):
        img = image([[3, 250], [0, 255]], id="rt")
        write_pgm(img, tmp_path / "rt.pgm")
        back = read_pgm(tmp_path / "rt.pgm")
        np.testing.assert_array_equal(back.pixels, img.pixels)


def make_volume(seed=0, shape=(2, 3, 4, 5), id="vol"):
    rng = np.random.default_rng(seed)
    c, d, h, w = shape
    return VolumeRecord(
        id, c, d, h, w, rng.integers(0, 256, c * d * h * w).astype(np.float32)
    )


class TestIvc:
    def test_image_round_trip_u8(self, tmp_path):
        rng = np.random.default_rng(1)
        rec = ImageRecord(
            "five", 5, 24, 24, rng.integers(0, 256, 5 * 24 * 24).astype(np.float32)
        )
        write_ivc([rec], tmp_path / "a.ivc")
        (back,) = read_ivc(tmp_path / "a.ivc")
        assert isinstance(back, ImageRecord)
        assert back.shape == (5, 24, 24)
        np.testing.assert_array_equal(back.pixels, rec.pixels)

    def test_volume_round_trip(self, tmp_path):
        vol = make_volume()
        write_ivc([vol], tmp_path / "v.ivc")
        (back,) = read_ivc(tmp_path / "v.ivc")
        assert isinstance(back, VolumeRecord)
        assert back.shape == vol.shape
        np.testing.assert_array_equal(back.voxels, vol.voxels)

    def test_float_payload_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rec = ImageRecord("f", 1, 4, 4, rng.normal(0, 1, 16).astype(np.float32))
        write_ivc([rec], tmp_path / "f.ivc")
        (back,) = read_ivc(tmp_path / "f.ivc")
        np.testing.assert_array_equal(back.pixels, rec.pixels)

    def test_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(42)
        for case in range(100):
            records = []
            for j in range(int(rng.integers(1, 4))):
                if rng.random() < 0.5:
                    c, h, w = (int(x) for x in rng.integers(1, 7, 3))
                    vals = (
                        rng.integers(0, 256, c * h * w).astype(np.float32)
                        if rng.random() < 0.5
                        else rng.normal(0, 100, c * h * w).astype(np.float32)
                    )
                    records.append(ImageRecord(f"i{case}_{j}", c, h, w, vals))
                else:
                    c, d, h, w = (int(x) for x in rng.integers(1, 5, 4))
                    records.append(
                        VolumeRecord(
                            f"v{case}_{j}", c, d, h, w,
                            rng.normal(0, 10, c * d * h * w).astype(np.float32),
                        )
                    )
            path = tmp_path / f"case{case}.ivc"
            write_ivc(records, path)
            back = read_ivc(path)
            assert len(back) == len(records)
            for orig, rec in zip(records, back):
                assert type(orig) is type(rec)
                assert orig.id == rec.id
                assert orig.shape == rec.shape
                a = orig.voxels if isinstance(orig, VolumeRecord) else orig.pixels
                b = rec.voxels if isinstance(rec, VolumeRecord) else rec.pixels
                np.testing.assert_array_equal(a, b)

    def test_unsupported_version(self, tmp_path):
        f = tmp_path / "v2.ivc"
        f.write_bytes(b"IVC2" + struct.pack("<I", 0))
        with pytest.raises(UnsupportedVersionError):
            read_ivc(f)

    def test_corrupted_crc_rejected(self, tmp_path):
        rec = image([[1, 2], [3, 4]], id="crc")
        path = tmp_path / "c.ivc"
        write_ivc([rec], path)
        blob = bytearray(path.read_bytes())
        blob[-6] ^= 0xFF  # flip a payload byte, leave the stored CRC alone
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="checksum"):
            read_ivc(path)

    def test_unknown_dtype_rejected(self, tmp_path):
        body = (
            b"IVC1" + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"x"
            + struct.pack("<B", 3) + struct.pack("<3I", 1, 1, 1)
            + struct.pack("<B", 9)  # bogus dtype code
        )
        f = tmp_path / "d.ivc"
        f.write_bytes(body)
        with pytest.raises(FormatError, match="dtype"):
            read_ivc(f)

    def test_dimension_overflow_rejected(self, tmp_path):
        body = (
            b"IVC1" + struct.pack("<I", 1)
            + struct.pack("<H", 1) + b"x"
            + struct.pack("<B", 4)
            + struct.pack("<4I", 4096, 4096, 4096, 4096)
            + struct.pack("<B", 0)
        )
        f = tmp_path / "o.ivc"
        f.write_bytes(body)
        with pytest.raises(FormatError, match="overflow"):
            read_ivc(f)

    def test_truncated_entry_names_offset(self, tmp_path):
        rec = image([[1, 2], [3, 4]], id="t")
        path = tmp_path / "t.ivc"
        write_ivc([rec], path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="offset"):
            read_ivc(path)


class TestEmbeddings:
    def test_direct_decode(self, tmp_path):
        f = tmp_path / "e.emb"
        payload = np.array([[1, 2, 3], [4, 5, 6]], dtype="<f4")
        f.write_bytes(b"EMB1" + struct.pack("<II", 2, 3) + payload.tobytes())
        emb = read_embeddings(f)
        assert emb.ids == ("0", "1")
        np.testing.assert_array_equal(emb.rows, payload)

    def test_empty_set_rejected(self, tmp_path):
        f = tmp_path / "z.emb"
        f.write_bytes(b"EMB1" + struct.pack("<II", 0, 3))
        with pytest.raises(EmptyInputError):
            read_embeddings(f)

    def test_byte_length_mismatch(self, tmp_path):
        f = tmp_path / "b.emb"
        f.write_bytes(b"EMB1" + struct.pack("<II", 2, 3) + b"\x00" * 23)
        with pytest.raises(FormatError, match="payload"):
            read_embeddings(f)

    def test_sidecar_ids(self, tmp_path):
        emb = EmbeddingSet(("alpha", "beta"), 2, np.eye(2, dtype=np.float32))
        write_embeddings(emb, tmp_path / "s.emb")
        back = read_embeddings(tmp_path / "s.emb")
        assert back.ids == ("alpha", "beta")

    def test_sidecar_count_mismatch(self, tmp_path):
        emb = EmbeddingSet(("a", "b"), 2, np.eye(2, dtype=np.float32))
        write_embeddings(emb, tmp_path / "m.emb")
        (tmp_path / "m.ids").write_text("only_one\n")
        with pytest.raises(FormatError, match="ids"):
            read_embeddings(tmp_path / "m.emb")

    def test_randomized_round_trips(self, tmp_path):
        rng = np.random.default_rng(7)
        for case in range(100):
            n = int(rng.integers(1, 20))
            dim = int(rng.integers(1, 40))
            emb = EmbeddingSet(
                tuple(f"row{case}_{i}" for i in range(n)),
                dim,
                rng.normal(0, 3, (n, dim)).astype(np.float32),
            )
            path = tmp_path / f"c{case}.emb"
            write_embeddings(emb, path)
            back = read_embeddings(path)
            assert back.ids == emb.ids
            assert back.dim == emb.dim
            np.testing.assert_array_equal(back.rows, emb.rows)


class TestManifest:
    def write_pgms(self, tmp_path, names, shape=(2, 2)):
        h, w = shape
        rng = np.random.default_rng(0)
        for name in names:
            img = ImageRecord(
                name, 1, h, w, rng.integers(0, 256, h * w).astype(np.float32)
            )
            write_pgm(img, tmp_path / f"{name}.pgm")

    def test_three_train_pgms(self, tmp_path):
        self.write_pgms(tmp_path, ["a", "b", "c"])
        mf = tmp_path / "train.mf"
        write_manifest(mf, "trainset", "train", ["a.pgm", "b.pgm", "c.pgm"])
        manifest = load_manifest(mf)
        assert manifest.role == "train"
        assert len(manifest.entries) == 3
        ds = load_dataset(manifest)
        assert [img.id for img in ds.images] == ["a", "b", "c"]

    def test_missing_file_listed(self, tmp_path):
        self.write_pgms(tmp_path, ["a"])
        mf = tmp_path / "m.mf"
        write_manifest(mf, "x", "train", ["a.pgm", "gone.pgm", "also_gone.pgm"])
        with pytest.raises(ManifestError) as exc:
            load_manifest(mf)
        assert "gone.pgm" in str(exc.value)
        assert "also_gone.pgm" in str(exc.value)

    def test_duplicate_id_across_files(self, tmp_path):
        (tmp_path / "sub").mkdir()
        self.write_pgms(tmp_path, ["a"])
        self.write_pgms(tmp_path / "sub", ["a"])
        mf = tmp_path / "d.mf"
        write_manifest(mf, "x", "train", ["a.pgm", "sub/a.pgm"])
        with pytest.raises(ManifestError, match="duplicate"):
            load_dataset(mf)

    def test_mixed_dimensions_listed(self, tmp_path):
        self.write_pgms(tmp_path, ["a"], shape=(2, 2))
        self.write_pgms(tmp_path, ["b"], shape=(3, 3))
        mf = tmp_path / "mix.mf"
        write_manifest(mf, "x", "train", ["a.pgm", "b.pgm"])
        with pytest.raises(ManifestError, match="mixed dimensions"):
            load_dataset(mf)

    def test_missing_role_rejected(self, tmp_path):
        self.write_pgms(tmp_path, ["a"])
        mf = tmp_path / "r.mf"
        mf.write_text("name = x\na.pgm\n")
        with pytest.raises(ManifestError, match="role"):
            load_manifest(mf)

    def test_volume_entries_rejected_for_datasets(self, tmp_path):
        write_ivc([make_volume()], tmp_path / "v.ivc")
        mf = tmp_path / "v.mf"
        write_manifest(mf, "x", "train", ["v.ivc"])
        with pytest.raises(ManifestError, match="preprocess"):
            load_dataset(mf)

    def test_comments_and_order(self, tmp_path):
        self.write_pgms(tmp_path, ["a", "b"])
        write_ivc([image([[9, 9], [9, 1]], id="c")], tmp_path / "c.ivc")
        mf = tmp_path / "o.mf"
        mf.write_text(
            "# audit inputs\nname = ordered\nrole = test\n"
            "b.pgm   # second file first\na.pgm\nc.ivc\n"
        )
        ds = load_dataset(mf)
        assert [img.id for img in ds.images] == ["b", "a", "c"]

    def test_embedding_manifest(self, tmp_path):
        emb = EmbeddingSet(("r0", "r1"), 3, np.arange(6, dtype=np.float32).reshape(2, 3))
        write_embeddings(emb, tmp_path / "e.emb")
        mf = tmp_path / "e.mf"
        write_manifest(mf, "emb", "train", ["e.emb"])
        merged = load_embedding_set(mf)
        assert merged.ids == ("r0", "r1")
        with pytest.raises(ManifestError):
            load_dataset(mf)


class TestAtomicWrites:
    WRITERS = {
        "ivc": lambda path, v: write_ivc([image([v, 2.0, 3.0], id="a")], path),
        "pgm": lambda path, v: write_pgm(image([v, 2.0, 3.0], id="a"), path),
        "emb": lambda path, v: write_embeddings(
            EmbeddingSet(("r0",), 2, np.array([[v, 1.0]], np.float32)), path
        ),
        "mf": lambda path, v: write_manifest(path, f"set{v}", "train", ["a.ivc"]),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, kind):
        write = self.WRITERS[kind]
        target = tmp_path / f"out.{kind}"
        write(target, 1.0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            write(target, 9.0)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before  # old bytes intact, no temp file left
