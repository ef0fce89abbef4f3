"""Dataset container, CSV parsing, and CIFAR binary parsing."""

import io
import sys
import tarfile

import numpy as np
import pytest

from separability import (
    CIFAR10_CLASS_NAMES,
    CIFAR100_COARSE_NAMES,
    Dataset,
    DegenerateDataset,
    FormatError,
    ParseError,
    load_cifar10_batch,
    load_cifar10_tar,
    load_cifar100_batch,
    load_cifar100_tar,
    load_csv,
    load_points_csv,
    partition,
    to_cifar10_bytes,
)

from conftest import rng, traced_peak


class TestDataset:
    def test_properties(self):
        ds = Dataset(points=[[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], labels=[1, 0, 1])
        assert ds.n == 3
        assert ds.dim == 2
        assert ds.n_classes == 2
        assert ds.class_labels.tolist() == [0, 1]

    def test_arrays_frozen(self):
        ds = Dataset(points=[[1.0, 2.0]], labels=[0])
        with pytest.raises(ValueError):
            ds.points[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 9

    def test_non_finite_points_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(points=[[np.inf, 0.0]], labels=[0])

    def test_misaligned_labels_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            Dataset(points=[[1.0, 2.0]], labels=[0, 1])

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Dataset(points=[[1.0, 2.0]], labels=[-1])

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(points=np.ones(4), labels=[0, 0, 1, 1])

    def test_subset(self):
        ds = Dataset(
            points=[[0.0], [1.0], [2.0], [3.0]],
            labels=[0, 1, 0, 1],
            label_names=("a", "b"),
        )
        sub = ds.subset([2, 0])
        assert sub.points[:, 0].tolist() == [2.0, 0.0]
        assert sub.labels.tolist() == [0, 0]
        assert sub.label_names == ("a", "b")

    def test_subset_copies_the_rows_once(self):
        ds = Dataset(points=rng(3).random((2500, 3072)), labels=np.arange(2500) % 10)
        sub, peak = traced_peak(lambda: ds.subset(np.arange(500, 2500)))
        assert peak < 1.5 * sub.points.nbytes  # the fancy index's copy, no second one
        assert not sub.points.flags.writeable and not sub.labels.flags.writeable
        assert np.array_equal(sub.points, ds.points[500:])

    def test_restrict_to(self):
        ds = Dataset(points=np.arange(6.0).reshape(6, 1), labels=[0, 1, 2, 0, 1, 2])
        kept = ds.restrict_to([0, 2])
        assert kept.labels.tolist() == [0, 2, 0, 2]
        assert kept.points[:, 0].tolist() == [0.0, 2.0, 3.0, 5.0]
        assert not kept.points.flags.writeable and not kept.labels.flags.writeable


class TestPartition:
    def test_groups_cover_and_are_disjoint(self):
        ds = Dataset(points=np.zeros((6, 1)), labels=[2, 0, 2, 1, 0, 2])
        part = partition(ds)
        assert part.labels == (0, 1, 2)
        assert part.sizes() == {0: 2, 1: 1, 2: 3}
        joined = np.concatenate([part.groups[c] for c in part.labels])
        assert sorted(joined.tolist()) == list(range(6))
        for c, idx in part.groups.items():
            assert np.array_equal(ds.labels[idx], np.full(idx.size, c))

    def test_single_class_rejected(self):
        ds = Dataset(points=np.zeros((3, 1)), labels=[1, 1, 1])
        with pytest.raises(DegenerateDataset):
            partition(ds)


CSV_TEXT = "x,y,label\n0.5,1.5,cat\n1.0,2.0,dog\n-3,4e2,cat\n"


class TestLoadCsv:
    def test_happy_path_with_header(self):
        ds = load_csv(CSV_TEXT)
        assert ds.n == 3 and ds.dim == 2
        assert ds.labels.tolist() == [0, 1, 0]  # first-appearance order
        assert ds.label_names == ("cat", "dog")
        assert ds.points[2].tolist() == [-3.0, 400.0]

    def test_sources(self, tmp_path):
        # the text itself, its UTF-8 bytes, a path, and a file object
        want = load_csv(CSV_TEXT)
        path = tmp_path / "d.csv"
        path.write_text(CSV_TEXT, encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            from_file = load_csv(fh)
        for ds in (load_csv(CSV_TEXT.encode()), load_csv(path), from_file):
            assert np.array_equal(ds.points, want.points)
            assert np.array_equal(ds.labels, want.labels)
            assert ds.label_names == want.label_names

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ParseError, match="not valid UTF-8"):
            load_csv(b"x,label\n\xff,a\n")

    def test_adopts_the_parsed_matrix(self, monkeypatch):
        # _float_cells checks every value finite, so the dataset keeps its
        # matrix: no second validate-and-copy
        dataset = sys.modules["separability.dataset"]
        built, float_cells = [], dataset._float_cells

        def spy(*args):
            built.append(float_cells(*args))
            return built[-1]

        monkeypatch.setattr(dataset, "_float_cells", spy)
        ds = load_csv(CSV_TEXT)
        assert ds.points is built[0]
        assert not ds.points.flags.writeable and not ds.labels.flags.writeable
        assert ds.labels.dtype == np.int64

    def test_label_column_by_name(self):
        text = "label,x,y\ncat,0.5,1.5\ndog,1.0,2.0\n"
        ds = load_csv(text, label_column="label")
        assert ds.points[0].tolist() == [0.5, 1.5]
        assert ds.label_names == ("cat", "dog")

    def test_label_column_by_positive_index(self):
        text = "a,b\n1,x\n2,y\n"
        ds = load_csv(text, label_column=1)
        assert ds.label_names == ("x", "y")

    def test_negative_index_counts_from_right(self):
        ds = load_csv(CSV_TEXT, label_column=-1)
        assert ds.label_names == ("cat", "dog")

    def test_no_header(self):
        text = "0.5,1.5,cat\n1.0,2.0,dog\n"
        ds = load_csv(text, header=False)
        assert ds.n == 2
        assert ds.label_names == ("cat", "dog")

    def test_name_without_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            load_csv("1,2,a\n3,4,b\n", label_column="label", header=False)

    def test_unknown_header_name(self):
        with pytest.raises(ParseError, match="not in header"):
            load_csv(CSV_TEXT, label_column="klass")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            load_csv(CSV_TEXT, label_column=7)

    def test_bad_cell_reports_row_and_column(self):
        text = "x,y,label\n1,2,a\n3,oops,b\n"
        with pytest.raises(ParseError) as exc:
            load_csv(text)
        assert exc.value.row == 1
        assert exc.value.col == 1
        assert "oops" in str(exc.value)

    def test_non_finite_cell_rejected(self):
        text = "x,y,label\n1,inf,a\n3,4,b\n"
        with pytest.raises(ParseError, match="not finite"):
            load_csv(text)

    def test_ragged_row_reports_row(self):
        text = "x,y,label\n1,2,a\n3,4\n"
        with pytest.raises(ParseError) as exc:
            load_csv(text)
        assert exc.value.row == 1

    @staticmethod
    def _wide_rows(n_rows=40, n_features=64):
        g = rng(30)
        cells = g.integers(-500, 500, size=(n_rows, n_features)).astype(str).tolist()
        return [row + [f"c{r % 2}"] for r, row in enumerate(cells)]

    @staticmethod
    def _text(rows):
        head = [f"x{c}" for c in range(len(rows[0]) - 1)] + ["label"]
        return "\n".join(",".join(row) for row in [head, *rows]) + "\n"

    @pytest.mark.parametrize(
        "edit, message, col",
        [
            (lambda row: row.__setitem__(37, "1e"), "not a number", 37),
            (lambda row: row.__setitem__(37, "-inf"), "not finite", 37),
            (lambda row: row.pop(37), "cells, expected", None),
        ],
        ids=["bad", "inf", "short"],
    )
    def test_wide_file_reports_first_bad_cell(self, edit, message, col):
        rows = self._wide_rows()
        edit(rows[21])
        rows[30][5] = "nan"  # a later error must not be the one reported
        with pytest.raises(ParseError, match=message) as exc:
            load_csv(self._text(rows))
        assert (exc.value.row, exc.value.col) == (21, col)

    @pytest.mark.parametrize(
        "edit",
        [lambda row: row.__setitem__(37, "oops"), lambda row: row.pop(37)],
        ids=["bad", "short"],
    )
    def test_wide_file_reports_earlier_non_finite_row(self, edit):
        rows = self._wide_rows()
        rows[10][5] = "nan"  # converts, so the fault of row 21 is found first
        edit(rows[21])
        with pytest.raises(ParseError, match="not finite") as exc:
            load_csv(self._text(rows))
        assert (exc.value.row, exc.value.col) == (10, 5)

    def test_wide_file_values_match_cells(self):
        rows = self._wide_rows()
        rows[3][7] = " 12.5 "  # whitespace around a number is ignored
        ds = load_csv(self._text(rows))
        want = [[float(cell.strip()) for cell in row[:-1]] for row in rows]
        assert ds.points.tolist() == want

    def test_empty_input(self):
        with pytest.raises(ParseError, match="no rows"):
            load_csv("")

    def test_header_only(self):
        with pytest.raises(DegenerateDataset):
            load_csv("x,y,label\n")

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateDataset, match="2 classes"):
            load_csv("x,y,label\n1,2,a\n3,4,a\n")

    def test_label_only_column_rejected(self):
        with pytest.raises(ParseError, match="feature column"):
            load_csv("label\na\nb\n")

    def test_semicolon_delimiter(self):
        ds = load_csv("x;y;label\n1;2;a\n3;4;b\n", delimiter=";")
        assert ds.points[1].tolist() == [3.0, 4.0]

    def test_cell_past_csv_field_limit(self):
        # the csv module rejects fields over its limit (128 KiB by default)
        with pytest.raises(ParseError, match="malformed CSV"):
            load_csv("x,label\n" + "1" * 200_000 + ",a\n2,b\n")

    def test_path_source(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_TEXT)
        ds = load_csv(path)
        assert ds.n == 3


class TestLoadPointsCsv:
    def test_happy_path(self):
        pts = load_points_csv("x,y\n1,2\n3,4\n")
        assert pts.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_no_header(self):
        pts = load_points_csv("1,2\n3,4\n", header=False)
        assert pts.shape == (2, 2)

    def test_bad_cell(self):
        with pytest.raises(ParseError) as exc:
            load_points_csv("x\n1\nnope\n")
        assert exc.value.row == 1 and exc.value.col == 0

    def test_header_only(self):
        with pytest.raises(ParseError, match="no data rows"):
            load_points_csv("x,y\n")


def _synthetic_cifar10(n: int, seed: int = 0) -> Dataset:
    g = rng(seed)
    points = g.integers(0, 256, size=(n, 3072)).astype(np.float64)
    labels = g.integers(0, 10, size=n).astype(np.int64)
    labels[:2] = [0, 1]  # keep at least two classes
    return Dataset(points=points, labels=labels, label_names=CIFAR10_CLASS_NAMES)


class TestCifar10:
    def test_roundtrip(self):
        ds = _synthetic_cifar10(20)
        back = load_cifar10_batch(to_cifar10_bytes(ds))
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)
        assert back.label_names == CIFAR10_CLASS_NAMES

    def test_load_converts_the_pixels_once(self):
        ds = _synthetic_cifar10(2000)
        data = to_cifar10_bytes(ds)
        back, peak = traced_peak(lambda: load_cifar10_batch(data))
        assert peak < 1.5 * back.points.nbytes  # one float64 copy, no second one
        assert not back.points.flags.writeable
        assert np.array_equal(back.points, ds.points)

    def test_sources(self, tmp_path):
        # bytes, a path as str or Path, and a binary file object, alike
        data = to_cifar10_bytes(_synthetic_cifar10(5))
        path = tmp_path / "batch.bin"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            from_file = load_cifar10_batch(fh)
        want = load_cifar10_batch(data)
        tar = _tar_bytes({"test_batch.bin": data})
        (tmp_path / "c.tar").write_bytes(tar)
        loaded = [
            load_cifar10_batch(path),
            load_cifar10_batch(str(path)),
            from_file,
            load_cifar10_tar(tmp_path / "c.tar", split="test"),
            load_cifar10_tar(io.BytesIO(tar), split="test"),
        ]
        for ds in loaded:
            assert np.array_equal(ds.points, want.points)
            assert np.array_equal(ds.labels, want.labels)
        with pytest.raises(TypeError, match="cannot read bytes from int"):
            load_cifar10_batch(3)

    def test_truncated_stream(self):
        data = to_cifar10_bytes(_synthetic_cifar10(3))
        with pytest.raises(FormatError, match="multiple of 3073"):
            load_cifar10_batch(data[:-1])

    def test_empty_stream(self):
        with pytest.raises(FormatError, match="empty"):
            load_cifar10_batch(b"")

    def test_bad_label_reports_record(self):
        data = bytearray(to_cifar10_bytes(_synthetic_cifar10(4)))
        data[2 * 3073] = 11  # corrupt record 2's label byte
        with pytest.raises(FormatError) as exc:
            load_cifar10_batch(bytes(data))
        assert exc.value.record == 2

    def test_serialize_rejects_wrong_dim(self):
        ds = Dataset(points=np.zeros((2, 4)), labels=[0, 1])
        with pytest.raises(FormatError, match="3072"):
            to_cifar10_bytes(ds)

    def test_serialize_rejects_big_label(self):
        ds = Dataset(points=np.zeros((2, 3072)), labels=[0, 12])
        with pytest.raises(FormatError, match="0..9"):
            to_cifar10_bytes(ds)

    def test_serialize_rejects_fractional_pixels(self):
        pts = np.zeros((2, 3072))
        pts[0, 0] = 0.5
        ds = Dataset(points=pts, labels=[0, 1])
        with pytest.raises(FormatError, match="integers"):
            to_cifar10_bytes(ds)


def _cifar100_bytes(coarse_labels, seed: int = 1) -> bytes:
    g = rng(seed)
    out = bytearray()
    for coarse in coarse_labels:
        out.append(coarse)
        out.append(int(g.integers(0, 100)))  # fine label, ignored
        out.extend(g.integers(0, 256, size=3072).astype(np.uint8).tobytes())
    return bytes(out)


class TestCifar100:
    def test_keeps_coarse_labels(self):
        ds = load_cifar100_batch(_cifar100_bytes([3, 19, 0]))
        assert ds.labels.tolist() == [3, 19, 0]
        assert ds.dim == 3072
        assert ds.label_names == CIFAR100_COARSE_NAMES

    def test_coarse_label_out_of_range(self):
        with pytest.raises(FormatError) as exc:
            load_cifar100_batch(_cifar100_bytes([0, 20]))
        assert exc.value.record == 1

    def test_wrong_record_size(self):
        with pytest.raises(FormatError, match="3074"):
            load_cifar100_batch(b"\x00" * 3073)


def _tar_bytes(members: dict[str, bytes], prefix: str = "cifar-10-batches-bin") -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        for name, data in members.items():
            info = tarfile.TarInfo(name=f"{prefix}/{name}")
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


class TestTarLoading:
    def test_cifar10_train_concatenates_batches(self):
        batches = {
            f"data_batch_{i}.bin": to_cifar10_bytes(_synthetic_cifar10(4, seed=i))
            for i in range(1, 6)
        }
        batches["test_batch.bin"] = to_cifar10_bytes(_synthetic_cifar10(2, seed=9))
        tar = _tar_bytes(batches)
        train = load_cifar10_tar(tar, split="train")
        test = load_cifar10_tar(tar, split="test")
        both = load_cifar10_tar(tar, split="all")
        assert train.n == 20 and test.n == 2 and both.n == 22
        # batch order is preserved
        first = load_cifar10_batch(batches["data_batch_1.bin"])
        assert np.array_equal(both.points[:4], first.points)

    def test_cifar100_train(self):
        tar = _tar_bytes(
            {"train.bin": _cifar100_bytes([0, 5]), "test.bin": _cifar100_bytes([1])},
            prefix="cifar-100-binary",
        )
        assert load_cifar100_tar(tar, split="train").labels.tolist() == [0, 5]
        assert load_cifar100_tar(tar, split="all").n == 3

    def test_missing_member(self):
        tar = _tar_bytes({"data_batch_1.bin": b""})
        with pytest.raises(FormatError, match="missing"):
            load_cifar10_tar(tar, split="train")

    def test_not_a_tar(self):
        with pytest.raises(FormatError, match="tar"):
            load_cifar10_tar(b"definitely not a tar archive")

    def test_unknown_split(self):
        with pytest.raises(ValueError, match="split"):
            load_cifar10_tar(b"", split="validation")
