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

import codecs
import contextlib
import csv
import io
import itertools
import math
import os
import tarfile
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateClass, DegenerateDataset, FormatError, ParseError, SeparabilityError

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


def _pair_partition(ds: Dataset) -> ClassPartition:
    """``partition(ds)``, refusing a class below 2 points, which holds no
    pair of its own."""
    part = partition(ds)
    for label, rows in part.groups.items():
        if rows.size < 2:
            raise DegenerateClass(
                f"class {label} has {rows.size} point(s); need at least 2", label=label
            )
    return part


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


# A chunk holds at most _CHUNK_CELLS cells (label cells included; one row if
# a row alone is wider), so the Python strings of the rows being converted
# stay small beside the float matrix: about 0.1 MiB at this size.
_CHUNK_CELLS = 1 << 10
# bytes (or characters, from a text file object) read from a source at a time
_READ_SIZE = 1 << 14


@contextlib.contextmanager
def _csv_rows(source, delimiter: str, name: str = "input"):
    """The non-empty rows of delimited text, read as they are needed.

    A ``str`` is the text itself and a text file object is read as it is;
    bytes, a path and a binary file object are decoded as strict UTF-8.
    Faults rank as if the text were read whole first: an undecodable byte
    anywhere, then the first malformed row, then a fault the caller raises,
    so on a caller's fault the rest of the input is read.
    """
    if isinstance(source, os.PathLike):
        with open(source, "rb") as fh, _csv_rows(fh, delimiter, os.fspath(source)) as rows:
            yield rows
        return
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, (bytes, bytearray, memoryview)):
        source = io.BytesIO(source)
    elif not hasattr(source, "read"):
        raise TypeError(f"cannot read text from {type(source).__name__}")
    rows = _rows(_lines(source, name), delimiter)
    try:
        yield rows
    except SeparabilityError:
        for _ in rows:
            pass
        raise


def _rows(lines, delimiter: str):
    """The non-empty rows of ``lines``.  A bad delimiter or a malformed row
    raises ``ParseError`` once the rest of ``lines`` is read, so that an
    undecodable byte after it is raised instead."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        fault = ParseError(f"delimiter must be one character, got {delimiter!r}")
    else:
        try:
            for row in csv.reader(lines, delimiter=delimiter):
                if row:
                    yield row
            return
        except csv.Error as exc:
            fault = ParseError(f"malformed CSV: {exc}")
    for _ in lines:
        pass
    raise fault


def _lines(stream, name: str):
    """The lines of ``stream``, split as a file opened with ``newline=""``
    splits them, read ``_READ_SIZE`` at a time.

    An undecodable byte raises ``ParseError`` with its position counted
    from the start of the stream.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    tail, offset = "", 0
    while True:
        block = stream.read(_READ_SIZE)
        if isinstance(block, str):
            text = block
        else:
            try:
                text = decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                raise _utf8_fault(exc, offset - len(decoder.buffer), name) from None
            offset += len(block)
        lines = io.StringIO(tail + text, newline="").readlines()
        # a last line without "\n" may go on in the next block ("\r" too,
        # which may be half of "\r\n")
        tail = lines.pop() if block and lines and lines[-1][-1] != "\n" else ""
        yield from lines
        if not block:
            return


def _utf8_fault(exc: UnicodeDecodeError, base: int, name: str) -> ParseError:
    """``exc``, raised on bytes that start at offset ``base`` of the stream,
    with its positions counted from the start of the stream."""
    start, end = base + exc.start, base + exc.end
    where = (
        f"byte 0x{exc.object[exc.start]:02x} in position {start}"
        if end == start + 1
        else f"bytes in position {start}-{end - 1}"
    )
    return ParseError(
        f"{name} is not valid UTF-8 text: 'utf-8' codec can't decode {where}: {exc.reason}"
    )


def _float_rows(rows, ncol: int, label: int | None = None):
    """The cells of every data row but its ``label`` column, as a
    (rows, columns) float matrix, and each row's label code with the label
    tokens in order of first appearance (none if ``label`` is None).

    Every row must have ``ncol`` cells and every feature cell must parse as
    a finite float; the first row or cell that does not, in row-major
    order, raises ``ParseError`` with its 0-based data-row index (and
    column index).  Rows are converted in chunks of ``_CHUNK_CELLS`` cells
    and appended to one bytearray, which grows in place and which the
    matrix then views; a chunk with a fault is read again row by row to
    find it.  ``float`` ignores the whitespace that the cell reader strips,
    so both give the same values.
    """
    columns = [c for c in range(ncol) if c != label]
    step = max(1, _CHUNK_CELLS // ncol)
    values, codes, seen, done = bytearray(), [], {}, 0
    while True:
        chunk, cells = list(itertools.islice(rows, step)), []
        try:
            for row in chunk:
                if len(row) != ncol:
                    raise ValueError
                cells += row
                if label is not None:
                    codes.append(seen.setdefault(cells.pop(label - ncol).strip(), len(seen)))
            block = np.fromiter(map(float, cells), np.float64, len(cells))
            if not np.isfinite(block).all():
                raise ValueError
        except ValueError:
            for r, row in enumerate(chunk, done):
                _raise_row_fault(row, r, ncol, columns)
        values += block.data
        done += len(chunk)
        if len(chunk) < step:
            break
    points = np.frombuffer(values, dtype=np.float64).reshape(-1, len(columns))
    return points, np.array(codes, dtype=np.int64), tuple(seen)


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

    A ``str`` ``source`` is the text itself; pass a file as a ``Path``, or
    pass bytes or a file object.  Bytes, a path and a binary file are
    decoded as strict UTF-8.  File sources are read incrementally: rows are
    converted in small chunks as they are read, so a load holds the float
    matrix and one chunk of rows, not the whole text.  ``label_column``
    selects the class column by header name or by index (negative indices
    count from the right; default: last column).  A ``str`` that names a
    header column selects that column; one that names none but reads as an
    integer (``"1"``, ``"-2"``) is an index.  With ``header=False`` the
    first row is data and the label column must be an index.  Feature cells
    must parse as finite floats; violations raise ``ParseError`` carrying
    the 0-based data-row index, for the first fault in row-major order.
    """
    with _csv_rows(source, delimiter) as rows:
        first = next(rows, None)
        if first is None:
            raise ParseError("no rows found")
        head = first if header else None
        ncol = len(first)
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
        if header:
            first = next(rows, None)
            if first is None:
                raise DegenerateDataset("no data rows; separability needs at least 2 classes")
        points, labels, names = _float_rows(itertools.chain([first], rows), ncol, label_idx)

    if len(names) < 2:
        raise DegenerateDataset(
            f"separability needs at least 2 classes, found {len(names)}"
        )
    # both arrays are fresh, and _float_rows checked every value finite
    return Dataset._adopt(points, labels, names)


def load_points_csv(
    source, delimiter: str = ",", header: bool = True
) -> NDArray[np.float64]:
    """Parse delimited text where every column is a float feature.

    Sources are read as by ``load_csv``: file sources incrementally, so a
    load holds the float matrix and one chunk of rows, not the whole text.
    """
    with _csv_rows(source, delimiter) as rows:
        first = next(rows, None)
        if first is None:
            raise ParseError("no rows found")
        if header:
            first = next(rows, None)
        if first is None:
            raise ParseError("no data rows found")
        return _float_rows(itertools.chain([first], rows), len(first))[0]


def _load_cifar_records(
    data: bytes, record_bytes: int, label_offset: int, max_label: int, what: str
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """Pixels, as float64 values in 0..255, and labels of each record, in
    fresh arrays."""
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
    return raw[:, record_bytes - CIFAR_PIXELS :].astype(np.float64), labels


def load_cifar10_batch(source) -> Dataset:
    """Parse one CIFAR-10 binary batch; pixels stay raw in [0, 255]."""
    points, labels = _load_cifar_records(
        _read_binary(source), CIFAR10_RECORD_BYTES, 0, 9, "CIFAR-10"
    )
    return Dataset._adopt(points, labels, CIFAR10_CLASS_NAMES)


def load_cifar100_batch(source) -> Dataset:
    """Parse one CIFAR-100 binary batch, keeping the 20 coarse labels."""
    points, labels = _load_cifar_records(
        _read_binary(source), CIFAR100_RECORD_BYTES, 0, 19, "CIFAR-100"
    )
    return Dataset._adopt(points, labels, CIFAR100_COARSE_NAMES)


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
