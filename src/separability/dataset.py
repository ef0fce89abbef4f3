"""Labeled dataset container, class partitioning, and file ingestion.

Supported inputs:

* delimited text (CSV/TSV) with one designated label column; remaining
  columns are parsed as float features
* CIFAR-10 binary batches: records of 3073 bytes, a label byte in 0..9
  followed by 3072 pixel bytes (32x32x3, channel-planar); pixels are kept
  as raw 0..255 values
* CIFAR-100 binary batches: records of 3074 bytes, a coarse label byte in
  0..19 and a fine label byte followed by the 3072 pixel bytes; the coarse
  label is used and the fine label ignored
* the distributed .tar.gz archives wrapping those batches

Labels are stored as non-negative integers.  Text labels are mapped to
dense integers in order of first appearance, with the original tokens kept
in ``label_names``.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tarfile
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateDataset, FormatError, ParseError

__all__ = [
    "Dataset",
    "ClassPartition",
    "partition",
    "load_csv",
    "load_points_csv",
    "load_cifar10_batch",
    "load_cifar100_batch",
    "load_cifar10_tar",
    "load_cifar100_tar",
    "to_cifar10_bytes",
    "CIFAR10_CLASS_NAMES",
    "CIFAR100_COARSE_NAMES",
]

CIFAR_PIXELS = 3072
CIFAR10_RECORD_BYTES = 1 + CIFAR_PIXELS
CIFAR100_RECORD_BYTES = 2 + CIFAR_PIXELS

CIFAR10_CLASS_NAMES = (
    "airplane",
    "automobile",
    "bird",
    "cat",
    "deer",
    "dog",
    "frog",
    "horse",
    "ship",
    "truck",
)

CIFAR100_COARSE_NAMES = (
    "aquatic_mammals",
    "fish",
    "flowers",
    "food_containers",
    "fruit_and_vegetables",
    "household_electrical_devices",
    "household_furniture",
    "insects",
    "large_carnivores",
    "large_man-made_outdoor_things",
    "large_natural_outdoor_scenes",
    "large_omnivores_and_herbivores",
    "medium_mammals",
    "non-insect_invertebrates",
    "people",
    "reptiles",
    "small_mammals",
    "trees",
    "vehicles_1",
    "vehicles_2",
)


@dataclass(frozen=True)
class Dataset:
    """Feature vectors with integer class labels.

    ``points`` is (n, dim) float64 with every value finite; ``labels`` is
    (n,) non-negative int64.  ``label_names`` optionally maps a label value
    to its original token (indexed by label).
    """

    points: NDArray[np.float64]
    labels: NDArray[np.int64]
    label_names: tuple[str, ...] | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        labs = np.array(self.labels, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("points must be a 2-D array with at least one feature")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite values")
        if labs.ndim != 1 or labs.shape[0] != pts.shape[0]:
            raise ValueError("labels must be 1-D and aligned with points")
        if labs.size and labs.min() < 0:
            raise ValueError("labels must be non-negative integers")
        pts.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def class_labels(self) -> NDArray[np.int64]:
        """Distinct labels, ascending."""
        # as np.unique, whose plain call imports numpy.ma (9-17 ms in numpy 2.4)
        labels = np.sort(self.labels)
        return labels[np.diff(labels, prepend=-1) != 0]  # labels are >= 0

    @property
    def n_classes(self) -> int:
        return int(self.class_labels.size)

    @classmethod
    def _adopt(cls, points, labels, label_names=None, **fields):
        """A dataset on arrays that a valid dataset owns or has just handed
        out, made read-only in place; skips ``__post_init__``'s copy and
        checks, which outside input must go through."""
        points.setflags(write=False)
        labels.setflags(write=False)
        ds = object.__new__(cls)
        ds.__dict__.update(points=points, labels=labels, label_names=label_names, **fields)
        return ds

    def subset(self, indices) -> "Dataset":
        """New dataset from a row-index selection (names carried over)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset._adopt(self.points[idx], self.labels[idx], self.label_names)

    def restrict_to(self, labels) -> "Dataset":
        """New dataset keeping only rows whose label is in ``labels``."""
        wanted = np.asarray(labels, dtype=np.int64)
        mask = np.isin(self.labels, wanted)
        return Dataset._adopt(self.points[mask], self.labels[mask], self.label_names)


@dataclass(frozen=True)
class ClassPartition:
    """Row indices of each class, keyed by label.

    Index arrays are ascending, disjoint, and jointly cover the dataset.
    """

    groups: dict[int, NDArray[np.int64]]

    def __post_init__(self):
        object.__setattr__(self, "groups", dict(self.groups))

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self.groups.keys())

    def sizes(self) -> dict[int, int]:
        return {c: int(idx.size) for c, idx in self.groups.items()}


def partition(ds: Dataset) -> ClassPartition:
    """Group row indices by class label (labels ascending)."""
    if ds.n_classes < 2:
        raise DegenerateDataset(
            f"separability needs at least 2 classes, found {ds.n_classes}"
        )
    groups = {
        int(c): np.flatnonzero(ds.labels == c).astype(np.int64)
        for c in ds.class_labels
    }
    return ClassPartition(groups=groups)


def _read_binary(source) -> bytes:
    """bytes -> as-is; str/PathLike -> file path; file-like -> read()."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source)
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return fh.read()
    if hasattr(source, "read"):
        data = source.read()
        return data.encode() if isinstance(data, str) else bytes(data)
    raise TypeError(f"cannot read bytes from {type(source).__name__}")


def _read_text(source) -> str:
    """str -> literal content; bytes -> utf-8 decode; PathLike -> file path."""
    if isinstance(source, str):
        return source
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    if isinstance(source, (bytes, bytearray, memoryview)):
        try:
            return bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8 text: {exc}") from None
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    raise TypeError(f"cannot read text from {type(source).__name__}")


def _parse_rows(text: str, delimiter: str) -> list[list[str]]:
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ParseError(f"delimiter must be one character, got {delimiter!r}")
    try:
        return [row for row in csv.reader(io.StringIO(text), delimiter=delimiter) if row]
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None


def _float_cells(rows: list[list[str]], ncol: int, columns) -> NDArray[np.float64]:
    """The cells of ``columns`` in every row, as a (rows, columns) float matrix.

    Every row must have ``ncol`` cells and every selected cell must parse as
    a finite float; the first row or cell that does not raises
    ``ParseError`` with its 0-based data-row index (and column index).
    Rows are converted whole until one is short or fails to parse; the first
    non-finite row before it, else that row, is the first faulty one, and
    only it is read cell by cell.  ``float`` ignores the whitespace that the
    cell reader strips, so both give the same values.
    """
    points = np.empty((len(rows), len(columns)), dtype=np.float64)
    bad = 0  # ends as the index of the row that stopped the loop, else len(rows)
    try:
        for bad, row in enumerate(rows):
            if len(row) != ncol:
                break
            points[bad] = [float(row[c]) for c in columns]
        else:
            bad = len(rows)
    except ValueError:
        pass
    finite = np.isfinite(points[:bad]).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
    if bad < len(rows):
        _raise_row_fault(rows[bad], bad, ncol, columns)
    return points


def _raise_row_fault(row: list[str], r: int, ncol: int, columns) -> None:
    """Raise ``ParseError`` for the first fault of data row ``r``."""
    if len(row) != ncol:
        raise ParseError(f"row {r} has {len(row)} cells, expected {ncol}", row=r)
    for c in columns:
        cell = row[c].strip()
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"row {r}, column {c}: {cell!r} is not a number", row=r, col=c
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"row {r}, column {c}: {cell!r} is not finite", row=r, col=c)


def load_csv(
    source,
    label_column: int | str = -1,
    delimiter: str = ",",
    header: bool = True,
) -> Dataset:
    """Parse delimited text into a Dataset.

    A ``str`` ``source`` is the text itself; pass a file as a ``Path``.
    ``label_column`` selects the class column by header name or by index
    (negative indices count from the right; default: last column).  A
    ``str`` that names a header column selects that column; one that names
    none but reads as an integer (``"1"``, ``"-2"``) is an index.  With
    ``header=False`` the first row is data and the label column must be an
    index.  Feature cells must parse as finite floats; violations raise
    ``ParseError`` carrying the 0-based data-row index.
    """
    rows = _parse_rows(_read_text(source), delimiter)
    if not rows:
        raise ParseError("no rows found")

    head = rows.pop(0) if header else None
    ncol = len(head if header else rows[0])
    if head is not None and label_column in head:
        label_idx = head.index(label_column)
    else:
        try:
            label_idx = int(label_column)
        except ValueError:
            if head is None:
                raise ParseError("label column by name requires a header row") from None
            raise ParseError(f"label column {label_column!r} not in header {head}") from None

    if label_idx < 0:
        label_idx += ncol
    if not 0 <= label_idx < ncol:
        raise ParseError(f"label column index {label_column} out of range for {ncol} columns")
    if ncol < 2:
        raise ParseError("need at least one feature column besides the label")
    if not rows:
        raise DegenerateDataset("no data rows; separability needs at least 2 classes")

    points = _float_cells(rows, ncol, [c for c in range(ncol) if c != label_idx])
    tokens = [row[label_idx].strip() for row in rows]

    seen: dict[str, int] = {}
    labels = np.empty(len(tokens), dtype=np.int64)
    for r, tok in enumerate(tokens):
        labels[r] = seen.setdefault(tok, len(seen))
    if len(seen) < 2:
        raise DegenerateDataset(
            f"separability needs at least 2 classes, found {len(seen)}"
        )
    return Dataset(points=points, labels=labels, label_names=tuple(seen))


def load_points_csv(
    source, delimiter: str = ",", header: bool = True
) -> NDArray[np.float64]:
    """Parse delimited text where every column is a float feature."""
    rows = _parse_rows(_read_text(source), delimiter)
    if not rows:
        raise ParseError("no rows found")
    if header:
        rows = rows[1:]
    if not rows:
        raise ParseError("no data rows found")
    ncol = len(rows[0])
    return _float_cells(rows, ncol, range(ncol))


def _load_cifar_records(
    data: bytes, record_bytes: int, label_offset: int, max_label: int, what: str
) -> tuple[NDArray[np.uint8], NDArray[np.int64]]:
    """Pixels (a uint8 view of ``data``) and labels of each record."""
    if len(data) == 0:
        raise FormatError(f"{what} stream is empty")
    if len(data) % record_bytes != 0:
        raise FormatError(
            f"{what} stream length {len(data)} is not a multiple of {record_bytes}"
        )
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, record_bytes)
    labels = raw[:, label_offset].astype(np.int64)
    bad = np.flatnonzero(labels > max_label)
    if bad.size:
        rec = int(bad[0])
        raise FormatError(
            f"{what} record {rec} has label {labels[rec]} > {max_label}", record=rec
        )
    return raw[:, record_bytes - CIFAR_PIXELS :], labels


def load_cifar10_batch(source) -> Dataset:
    """Parse one CIFAR-10 binary batch; pixels stay raw in [0, 255]."""
    points, labels = _load_cifar_records(
        _read_binary(source), CIFAR10_RECORD_BYTES, 0, 9, "CIFAR-10"
    )
    return Dataset(points=points, labels=labels, label_names=CIFAR10_CLASS_NAMES)


def load_cifar100_batch(source) -> Dataset:
    """Parse one CIFAR-100 binary batch, keeping the 20 coarse labels."""
    points, labels = _load_cifar_records(
        _read_binary(source), CIFAR100_RECORD_BYTES, 0, 19, "CIFAR-100"
    )
    return Dataset(points=points, labels=labels, label_names=CIFAR100_COARSE_NAMES)


def _tar_members(data: bytes, names: list[str], what: str) -> bytes:
    try:
        with tarfile.open(fileobj=io.BytesIO(data), mode="r:*") as tar:
            by_base = {os.path.basename(m.name): m for m in tar.getmembers() if m.isfile()}
            chunks = []
            for name in names:
                member = by_base.get(name)
                if member is None:
                    raise FormatError(f"{what} archive is missing {name}")
                chunks.append(tar.extractfile(member).read())
    except tarfile.TarError as exc:
        raise FormatError(f"{what} archive is not a readable tar: {exc}") from None
    return b"".join(chunks)


def load_cifar10_tar(source, split: str = "train") -> Dataset:
    """Load CIFAR-10 from its distributed tar archive.

    ``split``: "train" (data_batch_1..5, 50000 records), "test"
    (test_batch, 10000), or "all" (both).
    """
    names = {
        "train": [f"data_batch_{i}.bin" for i in range(1, 6)],
        "test": ["test_batch.bin"],
        "all": [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"],
    }
    if split not in names:
        raise ValueError(f"split must be train, test, or all; got {split!r}")
    return load_cifar10_batch(_tar_members(_read_binary(source), names[split], "CIFAR-10"))


def load_cifar100_tar(source, split: str = "train") -> Dataset:
    """Load CIFAR-100 (coarse labels) from its distributed tar archive."""
    names = {"train": ["train.bin"], "test": ["test.bin"], "all": ["train.bin", "test.bin"]}
    if split not in names:
        raise ValueError(f"split must be train, test, or all; got {split!r}")
    return load_cifar100_batch(_tar_members(_read_binary(source), names[split], "CIFAR-100"))


def to_cifar10_bytes(ds: Dataset) -> bytes:
    """Serialize a dataset back to the CIFAR-10 binary record layout.

    Requires dim 3072, labels in 0..9, and integral features in [0, 255];
    exact inverse of ``load_cifar10_batch``.
    """
    if ds.dim != CIFAR_PIXELS:
        raise FormatError(f"CIFAR-10 records need {CIFAR_PIXELS} features, got {ds.dim}")
    if ds.labels.max(initial=0) > 9:
        raise FormatError("CIFAR-10 labels must be in 0..9")
    pts = ds.points
    if np.any((pts < 0) | (pts > 255)) or not np.array_equal(pts, np.round(pts)):
        raise FormatError("CIFAR-10 features must be integers in 0..255")
    rec = np.empty((ds.n, CIFAR10_RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = ds.labels.astype(np.uint8)
    rec[:, 1:] = pts.astype(np.uint8)
    return rec.tobytes()
