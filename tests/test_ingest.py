import errno
import hashlib
import os
import re
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest

import memaudit.ingest as ingest
from memaudit.core import ImageRecord, VolumeRecord
from memaudit.errors import (
    EmptyInputError,
    FormatError,
    InvalidArgumentError,
    ManifestError,
    UnsupportedVersionError,
)
from memaudit.ingest import (
    EmbeddingSet,
    atomic_write,
    load_dataset,
    load_embedding_set,
    load_manifest,
    load_records,
    open_dataset,
    open_embedding_set,
    read_embeddings,
    read_ivc,
    read_pgm,
    write_embeddings,
    write_ivc,
    write_manifest,
    write_pgm,
)

from conftest import image, ivc_payload_span, set_first_ivc_id


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

    def test_payload_byte_above_maxval_rejected(self, tmp_path):
        f = tmp_path / "v.pgm"
        f.write_bytes(pgm_bytes(2, 2, [0, 100, 200, 255], maxval=100))
        write_manifest(tmp_path / "v.mf", "v", "train", ["v.pgm"])
        handle = open_dataset(tmp_path / "v.mf")  # the header scan reads no payload byte
        offset = len(pgm_bytes(2, 2, [], maxval=100)) + 2
        for read in (lambda: read_pgm(f), lambda: handle.read_rows(0, 1, np.empty((1, 1, 4)), [0])):
            with pytest.raises(FormatError) as exc:
                read()
            assert str(exc.value).endswith(f"v.pgm: byte 200 at offset {offset} exceeds maxval 100")

    def test_payload_byte_equal_to_maxval_read(self, tmp_path):
        f = tmp_path / "e.pgm"
        f.write_bytes(pgm_bytes(2, 2, [0, 100, 7, 100], maxval=100))
        write_manifest(tmp_path / "e.mf", "e", "train", ["e.pgm"])
        out = np.empty((1, 1, 4))
        open_dataset(tmp_path / "e.mf").read_rows(0, 1, out, [0])
        np.testing.assert_array_equal(read_pgm(f).pixels, [0, 100, 7, 100])
        np.testing.assert_array_equal(out.reshape(-1), [0, 100, 7, 100])

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

    @pytest.mark.parametrize("value", [1.0000001, 254.9999, -1.0, 256.0, 0.5])
    def test_write_refuses_what_ivc_stores_as_f32(self, tmp_path, value):
        # one 8-bit test for both writers: a near-integer is refused, not rounded
        img = image([value, 2.0], id="q")
        with pytest.raises(InvalidArgumentError, match=r"^image 'q': PGM requires integer pixels"):
            write_pgm(img, tmp_path / "q.pgm")
        assert not (tmp_path / "q.pgm").exists()
        write_ivc([img], tmp_path / "q.ivc")
        offset, _ = ivc_payload_span(tmp_path / "q.ivc")
        assert (tmp_path / "q.ivc").read_bytes()[offset - 1] == 1  # f32

    FAULTS = {
        "empty": (b"", "missing magic at offset 0"),
        "p6": (b"P6\n1 1\n255\n\x00\x00\x00", "expected magic 'P5' at offset 0, got b'P6'"),
        "non-numeric": (b"P5\nab 1\n255\n\x00", "non-numeric width b'ab' at offset 3"),
        "zero-width": (b"P5\n0 1\n255\n", "width must be positive at offset 3"),
        "negative-width": (b"P5\n-2 1\n255\n\x00", "width must be positive at offset 3"),
        "missing-height": (b"P5\n2", "missing height at offset 4"),
        "comment-in-token": (b"P5\n2#c\n1\n255\n\x00\x00", "non-numeric width b'2#c' at offset 3"),
        "no-terminator": (b"P5\n1 1\n255", "missing header terminator at offset 10"),
        "maxval": (b"P5 1 1 256\n\x00", "maxval 256 at offset 7 exceeds 255 (16-bit PGM unsupported)"),
        "truncated": (b"P5\n2 2\n255\n\x00\x00", "truncated payload at offset 11: need 4 bytes, found 2"),
        "trailing": (b"P5\n1 1\n255\n\x00\x01\x02", "2 trailing bytes after offset 12"),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_header_faults(self, tmp_path, fault):
        """Each message in full, the same from read_pgm and open_dataset."""
        blob, message = self.FAULTS[fault]
        path = (tmp_path / "f.pgm").resolve()
        path.write_bytes(blob)
        write_manifest(tmp_path / "f.mf", "f", "train", ["f.pgm"])
        for reader in (read_pgm, open_dataset):
            with pytest.raises(FormatError) as exc:
                reader(path if reader is read_pgm else tmp_path / "f.mf")
            assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("header", [
        b"  \n\tP5\n1 2\n255\n", b"# leading comment\nP5 1 2 255\n",
        b"P5 #c\n1 #\n#\n 2 # two rows\n255\r",
    ], ids=["leading-space", "leading-comment", "comments-between-tokens"])
    def test_header_whitespace_and_comments_accepted(self, tmp_path, header):
        path = tmp_path / "ok.pgm"
        path.write_bytes(header + b"\x07\x09")
        write_manifest(tmp_path / "ok.mf", "ok", "train", ["ok.pgm"])
        img = read_pgm(path)
        assert (img.id, img.shape) == ("ok", (1, 2, 1))
        np.testing.assert_array_equal(img.pixels, [7, 9])
        handle = open_dataset(tmp_path / "ok.mf")
        assert (handle.ids, handle.shape) == (("ok",), (1, 2, 1))
        out = np.empty((1, 1, 2))
        handle.read_rows(0, 1, out, (0,))
        np.testing.assert_array_equal(out[0, 0], [7, 9])


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

    def test_each_run_of_equal_dims_read_once(self, tmp_path, monkeypatch):
        """read_ivc opens the file once for its headers and once per run of
        entries of equal dims, whatever the entry count or dtypes."""
        rng = np.random.default_rng(5)
        images = [
            ImageRecord(f"i{j}", 2, 3, 4, rng.integers(0, 256, 24).astype(np.float32)
                        if j % 2 else rng.normal(0, 1, 24).astype(np.float32))
            for j in range(9)
        ]
        opened, file_cursor = [], ingest._file_cursor

        def counted(file):
            opened.append(file)
            return file_cursor(file)

        monkeypatch.setattr(ingest, "_file_cursor", counted)
        vol = make_volume()
        for records, opens in ((images, 2), (images[:4] + [vol] + images[4:], 4)):
            write_ivc(records, tmp_path / "a.ivc")
            opened.clear()
            back = read_ivc(tmp_path / "a.ivc")
            assert len(opened) == opens
            assert [r.id for r in back] == [r.id for r in records]
            for got, rec in zip(back, records):
                assert got.shape == rec.shape
                field = "pixels" if isinstance(rec, ImageRecord) else "voxels"
                np.testing.assert_array_equal(getattr(got, field), getattr(rec, field))

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

    @pytest.mark.parametrize("dim, rows", [
        (0, np.zeros((2, 0))), (0, np.zeros(3)), (-1, np.zeros((2, 3))), (-2, np.zeros(4)),
    ], ids=["zero-empty", "zero-flat", "minus-one", "minus-two"])
    def test_non_positive_dim_rejected(self, dim, rows):
        with pytest.raises(InvalidArgumentError, match="embedding dim must be positive"):
            EmbeddingSet(("a", "b"), dim, rows)

    @pytest.mark.parametrize("bad", ["a\nb", "x\u2028y", "r\r", " ", ""],
                             ids=["newline", "line-separator", "carriage-return", "blank", "empty"])
    def test_ids_the_sidecar_cannot_hold_refused(self, tmp_path, bad):
        emb = EmbeddingSet((bad, "c"), 2, np.eye(2, dtype=np.float32))
        with pytest.raises(InvalidArgumentError) as exc:
            write_embeddings(emb, tmp_path / "w.emb")
        assert repr(bad) in str(exc.value)
        assert list(tmp_path.iterdir()) == []
        write_embeddings(EmbeddingSet(("a", "c"), 2, emb.rows), tmp_path / "w.emb")
        (tmp_path / "w.ids").unlink()  # without a sidecar, ids are row indices
        assert read_embeddings(tmp_path / "w.emb").ids == ("0", "1")

    def test_duplicate_sidecar_id_names_the_file(self, tmp_path):
        write_embeddings(EmbeddingSet(("a", "b"), 2, np.eye(2, dtype=np.float32)), tmp_path / "d.emb")
        (tmp_path / "d.ids").write_text("a\na\n")
        with pytest.raises(ManifestError) as exc:
            read_embeddings(tmp_path / "d.emb")
        assert str(exc.value) == (
            f"{tmp_path / 'd.emb'}: duplicate id 'a' in d.emb (first seen in d.emb)"
        )

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

    UNREADABLE = {  # what load_manifest would make of each value
        "hash-in-path": (("set", "train", ["run#2/a.ivc"]), "manifest path 'run#2/a.ivc'"),
        "hash-in-name": (("set#1", "train", ["a.ivc"]), "manifest name 'set#1'"),
        "padded-path": (("set", "train", [" a.ivc"]), "manifest path ' a.ivc'"),
        "blank-path": (("set", "train", ["a.ivc", ""]), "manifest path ''"),
        "two-line-name": (("a\nb", "train", ["a.ivc"]), "manifest name 'a\\nb'"),
        "header-path": (("set", "train", ["name=a.ivc"]), "manifest path 'name=a.ivc'"),
        "role": (("set", "validation", ["a.ivc"]), "role must be one of train, test, synthetic"),
    }

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_write_refuses_what_reads_back_otherwise(self, tmp_path, case):
        (name, role, files), message = self.UNREADABLE[case]
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}"):
            write_manifest(tmp_path / "m.mf", name, role, files)
        assert not (tmp_path / "m.mf").exists()

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

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_empty_path_refused(self, tmp_path, monkeypatch, kind):
        """An empty path is refused before anything is written, the .emb
        writer's before it names its .ids sidecar."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InvalidArgumentError, match="^output path: the path is empty$"):
            self.WRITERS[kind]("", 1.0)
        assert list(tmp_path.iterdir()) == []

    def test_embeddings_and_ids_commit_together(self, tmp_path, monkeypatch):
        """The .emb file and its .ids sidecar are one output set: when the
        sidecar's write runs out of disk, the previous pair is left, not a
        new matrix beside the old ids, which would read back as wrong ids
        whenever the row count is unchanged."""
        target = tmp_path / "out.emb"
        write_embeddings(EmbeddingSet(("a", "b"), 2, np.eye(2, dtype=np.float32)), target)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = ingest.atomic_write

        def full_disk(path, data):
            def chunks():
                yield b"c\n"
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            real(path, chunks() if str(path).endswith(".ids") else data)

        monkeypatch.setattr(ingest, "atomic_write", full_disk)
        new = EmbeddingSet(("c", "d"), 2, 2 * np.eye(2, dtype=np.float32))
        with pytest.raises(OSError) as raised:
            write_embeddings(new, target)
        assert (raised.value.errno, raised.value.filename) == (errno.ENOSPC, str(tmp_path / "out.ids"))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_chunks_written_in_order(self, tmp_path):
        chunks = [b"IVC", bytearray(b"1"), memoryview(np.arange(3, dtype=np.uint8))]
        atomic_write(tmp_path / "a", iter(chunks))
        assert (tmp_path / "a").read_bytes() == b"IVC1\x00\x01\x02"

    def test_failure_while_chunks_are_made_leaves_nothing(self, tmp_path):
        def chunks():
            yield b"partial"
            raise InvalidArgumentError("no more")

        with pytest.raises(InvalidArgumentError):
            atomic_write(tmp_path / "a", chunks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_ivc_failing_on_a_later_record(self, tmp_path, existing):
        """The id check of a later record fails after earlier entries were
        streamed: no file is left under the target and no temp file."""
        target = tmp_path / "out.ivc"
        if existing:
            write_ivc([image([1.0, 2.0], id="old")], target)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        records = [image(np.arange(1000.0), id="ok"), image([1.0], id="x" * 0x10000)]
        with pytest.raises(InvalidArgumentError, match="too long"):
            write_ivc(records, target)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _golden_records():
    """Fixed u8 and f32 records, built without normals, so their files
    are the same on every host."""
    return [
        ImageRecord("u8-image", 3, 4, 5, np.arange(60) * 4 % 256),
        ImageRecord("f32-image", 2, 3, 7, np.arange(42) / 7.0 - 2.5),
        VolumeRecord("vol-é", 2, 3, 4, 5, np.arange(120) * 0.5),
    ]


def _golden_embeddings(rows=None):
    rows = (np.arange(5 * 8) % 11 - 5.0) / 3.0 if rows is None else rows
    return EmbeddingSet(tuple(f"row{i}" for i in range(5)), 8, rows)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenFiles:
    """The writers' bytes are pinned: one u8 entry, two f32 entries."""

    def test_write_ivc(self, tmp_path):
        write_ivc(_golden_records(), tmp_path / "g.ivc")
        assert _sha256(tmp_path / "g.ivc") == (
            "3012ddde1b4d80985eaba22b85f5da5491a69208291385c3d56c14fcd04ac4c9"
        )
        codes = [(tmp_path / "g.ivc").read_bytes()[off - 1] for off, _ in (
            ivc_payload_span(tmp_path / "g.ivc", i) for i in range(3)
        )]
        assert codes == [0, 1, 1]

    def test_write_pgm(self, tmp_path):
        values = [0, 1, 2, 3, 64, 127, 128, 129, 200, 253, 254, 255]
        write_pgm(ImageRecord("p", 1, 3, 4, np.array(values, np.float32)), tmp_path / "p.pgm")
        assert _sha256(tmp_path / "p.pgm") == (
            "f5b2e461d24482233e3b070f0553420487ca8b3f4f5bb67e441f924404a442fe"
        )

    def test_write_embeddings(self, tmp_path):
        write_embeddings(_golden_embeddings(), tmp_path / "g.emb")
        assert _sha256(tmp_path / "g.emb") == (
            "d7a23e3ad248bdbfef00b42f44469391114ac71125f89dc64ea4e0e1b7bfa5e7"
        )
        assert _sha256(tmp_path / "g.ids") == (
            "dc1f19f0b997f5a46ad4782012787d6895dd606d99da826e2884b0c47fa61d74"
        )

    def test_write_embeddings_of_strided_rows(self, tmp_path):
        wide = np.zeros((5, 16), dtype=np.float32)
        wide[:, ::2] = _golden_embeddings().rows
        write_embeddings(_golden_embeddings(wide[:, ::2]), tmp_path / "g.emb")
        assert _sha256(tmp_path / "g.emb") == (
            "d7a23e3ad248bdbfef00b42f44469391114ac71125f89dc64ea4e0e1b7bfa5e7"
        )


def _ivc_train(tmp_path, n_files=2, per_file=4, shape=(3, 4, 5), seed=0):
    """Float IVC1 files of random images plus a train manifest over them."""
    rng = np.random.default_rng(seed)
    files = []
    for f in range(n_files):
        recs = [
            ImageRecord(f"im{f}_{i}", *shape, rng.normal(0, 5, int(np.prod(shape))))
            for i in range(per_file)
        ]
        write_ivc(recs, tmp_path / f"part{f}.ivc")
        files.append(f"part{f}.ivc")
    mf = tmp_path / "train.mf"
    write_manifest(mf, "train", "train", files)
    return mf


def _set_entry_payload(path, index, payload: bytes, fix_crc=True):
    """Overwrite entry ``index``'s payload of an IVC1 file in place."""
    offset, size = ivc_payload_span(path, index)
    blob = bytearray(path.read_bytes())
    blob[offset : offset + size] = payload
    if fix_crc:
        struct.pack_into("<I", blob, offset + size, zlib.crc32(payload) & 0xFFFFFFFF)
    path.write_bytes(bytes(blob))


class TestFileBackedSets:
    def test_rows_equal_loaded_pixels(self, tmp_path):
        mf = _ivc_train(tmp_path, n_files=3, per_file=3)
        loaded = load_dataset(mf)
        handle = open_dataset(mf)
        assert (handle.name, handle.role, len(handle)) == ("train", "train", 9)
        assert handle.ids == tuple(img.id for img in loaded.images)
        assert handle.shape == loaded.shape
        for i0, i1 in ((0, 9), (2, 7), (8, 9)):  # ranges across file boundaries
            out, in_memory = np.empty((2, i1 - i0, 2, 20))
            handle.read_rows(i0, i1, out, (0, 2))
            loaded.read_rows(i0, i1, in_memory, (0, 2))
            np.testing.assert_array_equal(in_memory, out)
            for row, img in zip(out, loaded.images[i0:i1]):
                np.testing.assert_array_equal(row, img.chw()[[0, 2]].reshape(2, 20))

    def test_pgm_entries(self, tmp_path):
        for name, values in (("a", [0, 9, 200, 3]), ("b", [5, 5, 1, 255])):
            write_pgm(image(np.reshape(values, (2, 2)), id=name), tmp_path / f"{name}.pgm")
        write_manifest(tmp_path / "p.mf", "p", "train", ["a.pgm", "b.pgm"])
        handle = open_dataset(tmp_path / "p.mf")
        assert handle.ids == ("a", "b") and handle.shape == (1, 2, 2)
        out = np.empty((2, 1, 4))
        handle.read_rows(0, 2, out, (0,))
        np.testing.assert_array_equal(out[:, 0], [[0, 9, 200, 3], [5, 5, 1, 255]])

    def test_last_panel_raises_the_read_faults(self, tmp_path):
        """A panel reader returns from next() for every panel but the last,
        which raises the read's lowest-index fault instead: next() once per
        panel is the whole protocol. Entry 1 of 3 has a NaN in channel 0
        and a stale CRC-32: it reads as zeros from the first panel on, and
        its checksum error raises with the third."""
        for name in ("clean", "bad"):
            (tmp_path / name).mkdir()
            _ivc_train(tmp_path / name, n_files=1, per_file=3)
        path = tmp_path / "bad" / "part0.ivc"
        payload = bytearray(read_ivc(path)[1].pixels.astype("<f4").tobytes())
        payload[:4] = struct.pack("<f", float("nan"))
        _set_entry_payload(path, 1, bytes(payload), fix_crc=False)
        clean, bad = (open_dataset(tmp_path / name / "train.mf") for name in ("clean", "bad"))
        panels = [(0,), (1,), (2,)]
        want, out = np.empty((2, 3, 1, 20))
        expected, reader = clean.read_panels(0, 3, want, panels), bad.read_panels(0, 3, out, panels)
        for _ in panels[:-1]:
            next(expected)
            next(reader)
            np.testing.assert_array_equal(out[[0, 2]], want[[0, 2]])
            assert not out[1].any()
        next(expected)
        with pytest.raises(FormatError, match=r"part0.ivc: entry 1 \('im0_1'\): checksum mismatch"):
            next(reader)
        with pytest.raises(StopIteration):
            next(expected)

    def test_embedding_rows_equal_loaded(self, tmp_path, monkeypatch):
        import memaudit.ingest as ingest

        rng = np.random.default_rng(3)
        rows = rng.normal(0, 1, (50, 6)).astype(np.float32)
        write_embeddings(EmbeddingSet(tuple(f"a{i}" for i in range(20)), 6, rows[:20]), tmp_path / "a.emb")
        write_embeddings(EmbeddingSet(tuple(f"b{i}" for i in range(30)), 6, rows[20:]), tmp_path / "b.emb")
        write_manifest(tmp_path / "e.mf", "e", "train", ["a.emb", "b.emb"])
        monkeypatch.setattr(ingest, "_READ_CHUNK_BYTES", 3 * 4 * 6)  # 3 rows per read
        handle = open_embedding_set(tmp_path / "e.mf")
        assert handle.ids == load_embedding_set(tmp_path / "e.mf").ids
        assert (handle.dim, handle.shape, len(handle)) == (6, (1, 6), 50)
        out, in_memory = np.empty((2, 33, 1, 6))
        handle.read_rows(5, 38, out, (0,))
        load_embedding_set(tmp_path / "e.mf").read_rows(5, 38, in_memory, (0,))
        np.testing.assert_array_equal(out[:, 0], rows[5:38])
        np.testing.assert_array_equal(in_memory[:, 0], rows[5:38])

    def test_concurrent_reads_of_disjoint_ranges(self, tmp_path, monkeypatch):
        """Threads reading disjoint ranges of one handle at once get the
        rows of one serial read, each through its own payload or chunk
        buffer."""
        import memaudit.ingest as ingest

        # entries and chunks of 48 KiB: zlib and file reads release the GIL
        images = open_dataset(_ivc_train(tmp_path, n_files=3, per_file=5, shape=(3, 64, 64)))
        rng = np.random.default_rng(5)
        for name, n in (("a", 23), ("b", 17)):
            ids = tuple(f"{name}{i}" for i in range(n))
            rows = rng.normal(0, 1, (n, 4096))
            write_embeddings(EmbeddingSet(ids, 4096, rows), tmp_path / f"{name}.emb")
        write_manifest(tmp_path / "e.mf", "e", "train", ["a.emb", "b.emb"])
        monkeypatch.setattr(ingest, "_READ_CHUNK_BYTES", 3 * 4 * 4096)  # 3 rows per read
        embeddings = open_embedding_set(tmp_path / "e.mf")
        buffers, take_into = [], ingest._Cursor.take_into

        def recorded(cur, out, n, what):  # every payload read, with its thread
            buffers.append((out, threading.get_ident()))
            return take_into(cur, out, n, what)

        monkeypatch.setattr(ingest._Cursor, "take_into", recorded)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads trade the GIL often
        try:
            self._read_at_once(buffers, images, (2, 0))
            self._read_at_once(buffers, embeddings, (0,))
        finally:
            sys.setswitchinterval(switch)

    @staticmethod
    def _read_at_once(buffers, handle, channels):
        """4 threads read a quarter of handle's rows each, at once, 20
        times over."""
        serial = np.empty((len(handle), len(channels), 4096))
        handle.read_rows(0, len(handle), serial, channels)
        bounds = np.linspace(0, len(handle), 5).astype(int)
        for _ in range(20):
            out, errors = np.full_like(serial, np.nan), []
            start = threading.Barrier(len(bounds) - 1, timeout=30)
            buffers.clear()

            def read(i0, i1):
                try:
                    start.wait()
                    handle.read_rows(i0, i1, out[i0:i1], channels)
                except Exception as exc:  # a thread's own exception is not raised here
                    errors.append(exc)

            threads = [
                threading.Thread(target=read, args=ends) for ends in zip(bounds, bounds[1:])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert errors == []
            np.testing.assert_array_equal(out, serial)
            readers = {}  # buffers stay referenced, so their ids are distinct
            for buffer, thread in buffers:
                readers.setdefault(id(buffer), set()).add(thread)
            assert len(readers) == len(threads)
            assert all(len(t) == 1 for t in readers.values())

    FAULTS = {
        "volume": (lambda p: write_ivc([make_volume()], p / "part1.ivc"), "3-D volume"),
        "duplicate": (
            lambda p: write_ivc([image([[1, 2], [3, 4]], id="im0_1")], p / "part1.ivc"),
            "duplicate id 'im0_1' in part1.ivc \\(first seen in part0.ivc\\)",
        ),
        "mixed": (
            lambda p: write_ivc([image([[1, 2], [3, 4]], id="odd")], p / "part1.ivc"),
            "mixed dimensions",
        ),
        "truncated": (
            lambda p: (p / "part1.ivc").write_bytes((p / "part1.ivc").read_bytes()[:-7]),
            "truncated entry 3 payload",
        ),
        "trailing": (
            lambda p: (p / "part1.ivc").write_bytes((p / "part1.ivc").read_bytes() + b"x"),
            "1 trailing bytes",
        ),
        "magic": (lambda p: (p / "part1.ivc").write_bytes(b"NOPE" + bytes(8)), "bad magic"),
        "id-not-utf8": (
            lambda p: set_first_ivc_id(p / "part1.ivc", b"im\xff1_0"),
            "part1.ivc: entry 0: id is not UTF-8 at offset 12$",
        ),
        "empty-id": (
            lambda p: set_first_ivc_id(p / "part1.ivc", b""),
            "part1.ivc: entry 0: empty id at offset 8$",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_open_rejects_what_load_rejects(self, tmp_path, fault):
        mf = _ivc_train(tmp_path)
        damage, message = self.FAULTS[fault]
        damage(tmp_path)
        with pytest.raises((ManifestError, FormatError), match=message) as loaded:
            load_dataset(mf)
        with pytest.raises(type(loaded.value)) as opened:
            open_dataset(mf)
        assert str(opened.value) == str(loaded.value)

    @pytest.mark.parametrize("fault, message", [
        ("flip", "checksum mismatch"), ("nan", "non-finite payload values"),
        ("maxval", "exceeds maxval 200"),
    ])
    def test_payload_faults_found_when_read(self, tmp_path, fault, message):
        """A payload fault that no header shows is found when the entry is
        read, and every entry reader raises it with the same message."""
        if fault == "maxval":
            for i in range(4):
                payload = [i] * 20 if i < 3 else [7] * 6 + [250] + [7] * 13
                (tmp_path / f"p{i}.pgm").write_bytes(pgm_bytes(5, 4, payload, maxval=200))
            mf, path, read_file = tmp_path / "train.mf", tmp_path / "p3.pgm", read_pgm
            write_manifest(mf, "train", "train", [f"p{i}.pgm" for i in range(4)])
            message = f"p3.pgm: byte 250 at offset 17 {message}"
        else:
            mf, path, read_file = _ivc_train(tmp_path), tmp_path / "part1.ivc", read_ivc
            entry = bytearray(read_ivc(path)[3].pixels.astype("<f4").tobytes())
            if fault == "flip":
                entry[5] ^= 0x10
            else:
                entry[4:8] = struct.pack("<f", float("nan"))
            _set_entry_payload(path, 3, bytes(entry), fix_crc=fault == "nan")
            message = f"part1.ivc: entry 3 \\('im1_3'\\): {message}"
        handle = open_dataset(mf)  # headers are intact
        n, (c, h, w) = len(handle), handle.shape
        out = np.empty((n, c, h * w))
        handle.read_rows(0, n - 1, out, range(c))  # the damaged entry is the last row
        panels = [(0,), (c - 1,)] if c > 1 else [(0,)]  # PGM has one channel: one panel
        readers = {
            "file": lambda: read_file(path),
            "load_records": lambda: load_records(mf),
            "load_dataset": lambda: load_dataset(mf),
            "read_rows": lambda: handle.read_rows(0, n, out, range(c)),
            "read_panels": lambda: list(handle.read_panels(0, n, out[:, :1], panels)),
        }
        messages = {}
        for name, read in readers.items():
            with pytest.raises(FormatError, match=message) as exc:
                read()
            messages[name] = str(exc.value)
        assert len(set(messages.values())) == 1, messages

    def test_handles_hold_no_scratch(self, tmp_path, monkeypatch):
        """Two reads on one thread read through two scratch buffers: each
        read owns its own, so a handle keeps none alive between reads."""
        images = open_dataset(_ivc_train(tmp_path))
        emb = EmbeddingSet(("a", "b"), 3, np.arange(6, dtype=np.float32))
        write_embeddings(emb, tmp_path / "e.emb")
        write_manifest(tmp_path / "e.mf", "e", "train", ["e.emb"])
        embeddings = open_embedding_set(tmp_path / "e.mf")
        buffers, take_into = [], ingest._Cursor.take_into

        def recorded(cur, out, n, what):
            buffers.append(out)  # kept referenced, so no id is reused
            return take_into(cur, out, n, what)

        monkeypatch.setattr(ingest._Cursor, "take_into", recorded)
        for handle in (images, embeddings):
            c, length = handle.shape[0], int(np.prod(handle.shape[1:]))
            buffers.clear()
            for _ in range(2):
                handle.read_rows(0, 1, np.empty((1, c, length)), range(c))
            assert len(buffers) == 2 and buffers[0] is not buffers[1]

    def test_wrong_ids_sidecar_count(self, tmp_path):
        emb = EmbeddingSet(("a", "b"), 2, np.eye(2, dtype=np.float32))
        write_embeddings(emb, tmp_path / "m.emb")
        (tmp_path / "m.ids").write_text("only_one\n")
        write_manifest(tmp_path / "m.mf", "m", "train", ["m.emb"])
        for reader in (load_embedding_set, open_embedding_set):
            with pytest.raises(FormatError, match="1 ids for 2 rows in m.emb"):
                reader(tmp_path / "m.mf")

    def test_many_embedding_ids_one_duplicate(self, tmp_path):
        # 2 x 20,000 ids sharing one: linear in the id count, and the error
        # names the shared id and both files.
        n = 20_000
        first = tuple(f"a{i}" for i in range(n))
        second = tuple(f"b{i}" for i in range(n - 1)) + ("a777",)
        rows = np.zeros((n, 1), np.float32)
        write_embeddings(EmbeddingSet(first, 1, rows), tmp_path / "one.emb")
        write_embeddings(EmbeddingSet(second, 1, rows), tmp_path / "two.emb")
        write_manifest(tmp_path / "d.mf", "d", "train", ["one.emb", "two.emb"])
        for reader in (load_embedding_set, open_embedding_set):
            start = time.perf_counter()
            with pytest.raises(ManifestError, match="duplicate id 'a777' in two.emb") as exc:
                reader(tmp_path / "d.mf")
            assert "first seen in one.emb" in str(exc.value)
            assert time.perf_counter() - start < 10.0


class TestOneReadPath:
    """The loaders are open_* plus a read of every row; the whole-file
    readers read through an open file and keep their checks."""

    def test_load_dataset_equals_file_readers(self, tmp_path):
        rng = np.random.default_rng(31)
        u8 = image(rng.integers(0, 256, (4, 3)), id="u8")
        f32 = image(rng.normal(0, 40, (4, 3)), id="f32")
        write_ivc([u8, f32], tmp_path / "a.ivc")
        write_pgm(image(rng.integers(0, 256, (4, 3)), id="p"), tmp_path / "p.pgm")
        write_manifest(tmp_path / "m.mf", "m", "train", ["a.ivc", "p.pgm"])
        ivc, pgm = (tmp_path / "a.ivc").resolve(), (tmp_path / "p.pgm").resolve()
        assert [ivc_payload_span(ivc, i)[1] for i in (0, 1)] == [12, 48]  # u8, f32
        expected = read_ivc(ivc) + [read_pgm(pgm)]
        loaded = load_dataset(tmp_path / "m.mf")
        assert len(loaded) == len(expected) == 3
        for got, want in zip(loaded.images, expected):
            assert (got.id, got.shape) == (want.id, want.shape)
            assert got.pixels.dtype == np.float32
            np.testing.assert_array_equal(got.pixels, want.pixels)
        pixels = [img.pixels for img in loaded.images]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.shares_memory(pixels[i], pixels[j])

    def test_load_embedding_set_equals_concatenated_reads(self, tmp_path, monkeypatch):
        import memaudit.ingest as ingest

        rng = np.random.default_rng(32)
        files = []
        for name, n in (("a", 7), ("b", 1), ("c", 12)):
            ids = tuple(f"{name}{i}" for i in range(n))
            emb = EmbeddingSet(ids, 5, rng.normal(0, 1, (n, 5)).astype(np.float32))
            write_embeddings(emb, tmp_path / f"{name}.emb")
            files.append(f"{name}.emb")
        write_manifest(tmp_path / "e.mf", "e", "train", files)
        monkeypatch.setattr(ingest, "_READ_CHUNK_BYTES", 4 * 4 * 5)  # 4 rows per read
        parts = [read_embeddings(tmp_path / f) for f in files]
        loaded = load_embedding_set(tmp_path / "e.mf")
        assert loaded.ids == tuple(i for p in parts for i in p.ids)
        assert loaded.dim == 5 and loaded.rows.dtype == np.float32
        np.testing.assert_array_equal(loaded.rows, np.concatenate([p.rows for p in parts]))

    @staticmethod
    def _ivc(tmp_path):
        path = tmp_path / "r.ivc"
        write_ivc([image([[1.5, 2], [3, 4]], id="r")], path)
        return path, bytearray(path.read_bytes())

    @staticmethod
    def _emb(tmp_path):
        path = tmp_path / "r.emb"
        write_embeddings(EmbeddingSet(("x", "y"), 3, np.ones((2, 3), np.float32)), path)
        return path, bytearray(path.read_bytes())

    FAULTS = {
        "ivc-truncated": (
            _ivc, lambda b: b[:-7], "truncated entry 0 payload at offset 25: need 16 bytes, found 13"
        ),
        "ivc-trailing": (_ivc, lambda b: b + b"xy", "2 trailing bytes after offset 45"),
        "ivc-crc": (
            _ivc, lambda b: b[:26] + bytes([b[26] ^ 1]) + b[27:],
            "entry 0 ('r'): checksum mismatch: stored 0x",
        ),
        "emb-truncated": (
            _emb, lambda b: b[:-4], "payload is 20 bytes at offset 12, expected 24 (= 4 * 2 * 3)"
        ),
        "emb-trailing": (
            _emb, lambda b: b + b"1234", "payload is 28 bytes at offset 12, expected 24 (= 4 * 2 * 3)"
        ),
        "emb-non-finite": (
            _emb, lambda b: b[:12] + struct.pack("<f", float("inf")) + b[16:],
            "non-finite embedding values",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_whole_file_readers_reject(self, tmp_path, fault):
        make, damage, message = self.FAULTS[fault]
        path, blob = make.__func__(tmp_path)
        path.write_bytes(bytes(damage(blob)))
        reader = read_ivc if path.suffix == ".ivc" else read_embeddings
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("first", ["ivc", "pgm"])
    def test_header_fault_in_any_file_found_before_any_payload(
        self, tmp_path, monkeypatch, first
    ):
        # Every header of a manifest is scanned before any payload is read,
        # so a bad header in its second file costs no read of the first.
        if first == "ivc":
            write_ivc([image([[1.5, 2], [3, 4]], id="a")], tmp_path / "a.ivc")
        else:
            write_pgm(image([[1, 2], [3, 4]], id="a"), tmp_path / "a.pgm")
        bad = tmp_path / "b.ivc"
        bad.write_bytes(b"IVC1" + struct.pack("<IH", 1, 1) + b"x" + bytes([5]))
        write_manifest(tmp_path / "m.mf", "m", "train", [f"a.{first}", "b.ivc"])
        reads = []
        read_panels = ingest._read_panels
        monkeypatch.setattr(
            ingest, "_read_panels", lambda *a: reads.append(a) or read_panels(*a)
        )
        with pytest.raises(FormatError) as exc:
            load_records(tmp_path / "m.mf")
        assert str(exc.value) == f"{bad.resolve()}: entry 0: ndims must be 3 or 4, got 5 at offset 11"
        assert reads == []



def _ivc_header(ndims, dims):
    """An IVC1 file of one entry 'x', cut after its dims."""
    return (
        b"IVC1" + struct.pack("<IH", 1, 1) + b"x"
        + struct.pack(f"<B{len(dims)}I", ndims, *dims)
    )


def _emb_header(n, dim, magic=b"EMB1"):
    return magic + struct.pack("<II", n, dim)


def _file(directory, name, blob) -> str:
    (directory / name).write_bytes(blob)
    return name


def _read_back(reader, name, blob):
    """A call that writes blob to name in a directory and reads it."""
    return lambda p: reader(p / _file(p, name, blob))


def _embeddings(directory, name, ids, dim=1) -> str:
    rows = np.zeros((len(ids), dim), np.float32)
    write_embeddings(EmbeddingSet(ids, dim, rows), directory / f"{name}.emb")
    return f"{name}.emb"


def _read_bad_sidecar(directory):
    """read_embeddings of a set whose .ids sidecar is not UTF-8 text."""
    name = _embeddings(directory, "a", ("x", "y"))
    _file(directory, "a.ids", b"x\n\xfe\n")
    return read_embeddings(directory / name)


class TestRefusals:
    """Each refusal of a file, an embedding set or a manifest raises its
    own error with its own message."""

    FILES = {
        "pgm-channels": (
            lambda p: write_pgm(image(np.zeros((2, 2, 2))), p / "a.pgm"),
            InvalidArgumentError, "^PGM holds one channel; image 'img' has 2$",
        ),
        "ivc-ndims": (
            _read_back(read_ivc, "a.ivc", _ivc_header(2, (3, 3))),
            FormatError, "entry 0: ndims must be 3 or 4, got 2 at offset 11$",
        ),
        "ivc-zero-dim": (
            _read_back(read_ivc, "a.ivc", _ivc_header(3, (1, 0, 2))),
            FormatError, r"entry 0: zero dimension \[1, 0, 2\]$",
        ),
        "ivc-no-records": (
            lambda p: write_ivc([], p / "a.ivc"),
            InvalidArgumentError, "^write_ivc: no records to write$",
        ),
        "emb-magic": (
            _read_back(read_embeddings, "a.emb", _emb_header(1, 1, b"EMB2")),
            FormatError, "bad magic b'EMB2' at offset 0$",
        ),
        "emb-dim-zero": (
            _read_back(read_embeddings, "a.emb", _emb_header(2, 0)),
            FormatError, "dim must be positive at offset 8$",
        ),
        "emb-overflow": (
            _read_back(read_embeddings, "a.emb", _emb_header(1 << 20, 1 << 21)),
            FormatError, "dimension overflow, 1048576 x 2097152$",
        ),
        "emb-ids-not-utf8": (
            _read_bad_sidecar,
            FormatError, r"a\.ids: not UTF-8 text at offset 2$",
        ),
        "manifest-not-utf8": (
            _read_back(load_manifest, "a.mf", b"name = \xe9t\xe9\nrole = train\n"),
            ManifestError, r"a\.mf: not UTF-8 text at offset 7$",
        ),
    }

    @pytest.mark.parametrize("case", sorted(FILES))
    def test_files(self, tmp_path, case):
        call, error, message = self.FILES[case]
        with pytest.raises(error, match=message):
            call(tmp_path)
        if case in ("pgm-channels", "ivc-no-records"):  # writers refuse before writing
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ids, rows, error, message", [
        (("a",), np.zeros((2, 2)), InvalidArgumentError, "^rows hold 4 values; 1 ids of dim 2 need 2$"),
        ((), np.zeros((0, 2)), EmptyInputError, "^embedding set must be non-empty$"),
        (("a", "b"), [[0.0], [np.nan]], InvalidArgumentError, "^embedding rows must be finite$"),
        (("a", "a"), np.zeros((2, 1)), InvalidArgumentError, "^duplicate embedding ids$"),
    ], ids=["more-rows-than-ids", "no-rows", "non-finite", "duplicate-ids"])
    def test_embedding_set(self, ids, rows, error, message):
        with pytest.raises(error, match=message):
            EmbeddingSet(ids, np.shape(rows)[1], rows)

    @pytest.mark.parametrize("ids, dim, rows, message", [
        (("a",), 3, np.zeros(4), "^rows hold 4 values; 1 ids of dim 3 need 3$"),
        (("a", "b"), 3, np.zeros((2, 6)), "^rows hold 12 values; 2 ids of dim 3 need 6$"),
        (("a", "b"), 3, np.zeros((2, 1, 3)), None),
        (("a", "b"), 3, np.zeros(6), None),
    ], ids=["not-a-multiple-of-dim", "rows-of-another-dim", "one-channel-rows", "flat"])
    def test_embedding_set_size(self, ids, dim, rows, message):
        """rows must hold len(ids) * dim values, in any shape."""
        if message is None:
            assert EmbeddingSet(ids, dim, rows).rows.shape == (len(ids), dim)
        else:
            with pytest.raises(InvalidArgumentError, match=message):
                EmbeddingSet(ids, dim, rows)

    # (the files of a manifest "m" of role train, the loader, its message)
    MANIFESTS = {
        "unknown-type": (
            lambda p: [_file(p, "x.txt", b"x")],
            load_manifest, r"line 3: unknown file type '\.txt' \(x\.txt\)$",
        ),
        "no-files": (lambda p: [], load_manifest, ": manifest lists no files$"),
        "non-emb-in-embeddings": (
            lambda p: [_embeddings(p, "a", ("a",)), _file(p, "b.ivc", b"")],
            load_embedding_set, "^m: embedding manifest contains non-EMB1 files: .*b.ivc$",
        ),
        "many-duplicates": (
            lambda p: [_embeddings(p, name, tuple(f"d{i}" for i in range(12))) for name in "ab"],
            load_embedding_set, "; 2 more duplicate ids$",
        ),
        "mixed-dims": (
            lambda p: [_embeddings(p, "a", ("a",), 2), _embeddings(p, "b", ("b",), 3)],
            load_embedding_set, r"^m: mixed embedding dims \[2, 3\]$",
        ),
        "no-images": (
            # an IVC1 container may hold no entries; write_ivc never writes one
            lambda p: [_file(p, "e.ivc", b"IVC1" + bytes(4))],
            load_dataset, "^m: no 2-D images$",
        ),
    }

    @pytest.mark.parametrize("case", sorted(MANIFESTS))
    def test_manifests(self, tmp_path, case):
        files, reader, message = self.MANIFESTS[case]
        lines = ["name = m", "role = train", *files(tmp_path)]
        (tmp_path / "m.mf").write_text("\n".join(lines) + "\n", "utf-8")
        with pytest.raises(ManifestError, match=message) as exc:
            reader(tmp_path / "m.mf")
        if case == "many-duplicates":
            assert str(exc.value).count("duplicate id ") == 10
