"""Multivariate time series ingestion, splitting, and segmentation.

A series is a T x M float64 matrix (rows = time steps, columns = channels).
All downstream work is index-based: holdout splits are chronological,
blocks are fixed-length (possibly overlapping) windows, sample windows are
the non-overlapping selection units, and fold plans partition samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .errors import (
    BlockLongerThanRange,
    MissingFile,
    NaNEncountered,
    NonMonotonicTimestamps,
    NonNumericCell,
    NotUtf8,
    SampleLongerThanRange,
    TargetTooShort,
    TooFewSamples,
)

_TIMESTAMP_HEADERS = {"timestamp", "time", "date", "datetime"}


@dataclass(frozen=True)
class TimeSeries:
    """Immutable T x M series with channel names and a source identifier."""

    values: np.ndarray
    channel_names: tuple[str, ...]
    origin: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"series values must be T x M with T,M >= 1, got shape {values.shape}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise NaNEncountered(int(bad[0]), int(bad[1]), "0-based series index")
        if len(self.channel_names) != values.shape[1]:
            raise ValueError(
                f"{len(self.channel_names)} channel names for {values.shape[1]} channels"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Contiguous sub-series over [start, stop)."""
        if not (0 <= start < stop <= self.length):
            raise ValueError(f"invalid slice [{start}, {stop}) of series of length {self.length}")
        return TimeSeries(self.values[start:stop].copy(), self.channel_names,
                          f"{self.origin}[{start}:{stop}]")


@dataclass(frozen=True)
class SampleWindow:
    """Non-overlapping index window [start, start+length); the selection unit."""

    start: int
    length: int

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class HoldoutSplit:
    """Chronological target/test split: target = [0, target_end), test = [target_end, total)."""

    target_end: int
    total: int

    @property
    def test_range(self) -> tuple[int, int]:
        return (self.target_end, self.total)


@dataclass(frozen=True)
class FoldPlan:
    """Partition of sample indices into k folds, reproducible from seed."""

    k: int
    assignment: np.ndarray  # fold id per sample index
    seed: int


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std computed on the target split only."""

    mean: np.ndarray
    std: np.ndarray
    constant_channels: tuple[int, ...] = field(default=())


def load_csv(path: str | Path) -> TimeSeries:
    """Read a UTF-8 comma-separated file with a header row of channel names.

    Blank lines and leading ``#`` lines are skipped, and cells may be
    ``"``-quoted. A leading timestamp column (ISO-8601) is detected either
    by a conventional header name or by its first data cell not parsing as
    a number; timestamps are validated strictly increasing, then dropped.
    NaN and infinite cells are rejected. Rows and columns in errors count
    data rows from 1 and file columns from 0. A file that is not UTF-8
    raises NotUtf8, whatever else is wrong with it.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = _data_rows(reader)
            header = next(rows, None)
            skip = reader.line_num  # physical lines up to the header; np.loadtxt counts alike
            first = next(rows, None)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if first is None:
        raise NonNumericCell(0, 0, "file has no data rows")

    has_timestamps = header[0].strip().lower() in _TIMESTAMP_HEADERS
    if not has_timestamps:
        try:
            float(first[0])
        except ValueError:
            has_timestamps = True
    col_offset = int(has_timestamps)
    header = header[col_offset:]
    if not header:
        _raise_first_fault(path, 0, has_timestamps)

    # one C-speed pass checks every row's cell count and parses every cell;
    # only a failing file is read again, to name the offending cell
    fields = [("stamp", object)] if has_timestamps else []
    dtype = np.dtype(fields + [("values", np.float64, (len(header),))])
    try:
        table = np.loadtxt(path, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                           skiprows=skip, encoding="utf-8", ndmin=1)
    except UnicodeDecodeError:  # a ValueError, but no cell is at fault
        raise _not_utf8(path) from None
    except ValueError:
        _raise_first_fault(path, len(header), has_timestamps)
    if has_timestamps:
        _check_timestamps(table["stamp"].tolist())
    values = np.ascontiguousarray(table["values"])

    finite = np.isfinite(values)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NaNEncountered(int(i) + 1, int(j) + col_offset,
                             "infinite" if np.isinf(values[i, j]) else "NaN")

    return TimeSeries(values, tuple(h.strip() for h in header), origin=str(path))


def _data_rows(reader: Iterable[list[str]]) -> Iterator[list[str]]:
    """The header and data rows of a csv reader: blank rows and leading # rows dropped."""
    for row in reader:
        if row and not row[0].lstrip().startswith("#"):
            yield row
            break
    yield from (row for row in reader if row)


def _cell_value(cell: str) -> float:
    """``float(cell)`` as np.loadtxt reads it: ASCII digits with no ``_`` grouping."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(cell)
    return float(text)


def _raise_first_fault(path: Path, n_values: int, has_timestamps: bool) -> NoReturn:
    """Re-read a file the fast path rejected and raise its first fault.

    Faults rank as they always have: timestamps, then a header with no
    value columns, then rows in order, a row's cell count before its cells.
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(_data_rows(csv.reader(fh)))[1:]
    except UnicodeDecodeError:  # past the bytes the fast path read before it failed
        raise _not_utf8(path) from None
    if has_timestamps:
        _check_timestamps([row[0] for row in rows])
    if not n_values:
        raise NonNumericCell(0, 0, "no value columns after timestamp column")
    col_offset = int(has_timestamps)
    for i, row in enumerate(rows, 1):
        if len(row) != n_values + col_offset:
            raise NonNumericCell(i, len(row), "row has wrong cell count")
        for j in range(col_offset, len(row)):
            try:
                _cell_value(row[j])
            except ValueError:
                raise NonNumericCell(i, j, row[j]) from None
    raise NonNumericCell(0, 0, "rows do not parse as CSV")


def _not_utf8(path: Path) -> NotUtf8:
    """The error for a file that does not decode as UTF-8, naming its first bad byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return NotUtf8(f"{path} is not UTF-8: byte 0x{data[exc.start]:02x} "
                       f"on line {line} ({exc.reason})")
    return NotUtf8(f"{path} is not UTF-8")


def _check_timestamps(cells: list[str]) -> None:
    """Every cell ISO-8601, all naive or all with an offset, strictly increasing."""
    prev = None
    for i, cell in enumerate(cells, 1):
        try:
            stamp = datetime.fromisoformat(cell.strip().replace("Z", "+00:00"))
        except ValueError:
            raise NonMonotonicTimestamps(
                f"unparseable ISO-8601 timestamp at row {i}: {cell!r}") from None
        if prev is not None:
            if (stamp.tzinfo is None) != (prev.tzinfo is None):
                raise NonMonotonicTimestamps(
                    f"timestamp at row {i} mixes naive and UTC-offset forms: "
                    f"{cell!r} after {cells[i - 2]!r}")
            if stamp <= prev:
                raise NonMonotonicTimestamps(
                    f"timestamps not strictly increasing at row {i}: "
                    f"{cell!r} <= {cells[i - 2]!r}")
        prev = stamp


def split_holdout(series: TimeSeries, test_fraction: float,
                  min_target_length: int = 2) -> HoldoutSplit:
    """Chronological split: first ceil(T*(1-f)) steps are the target, rest is test."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    t = series.length
    target_end = math.ceil(t * (1.0 - test_fraction))
    if target_end < min_target_length:
        raise TargetTooShort(
            f"target split of {target_end} steps is shorter than required {min_target_length}"
        )
    return HoldoutSplit(target_end=target_end, total=t)


def segment_blocks(range_: tuple[int, int], length: int, stride: int = 1) -> np.ndarray:
    """Int64 starts of the `length`-step blocks that begin every `stride` steps
    while they fit in the range; block i covers [starts[i], starts[i] + length)."""
    begin, end = range_
    if begin < 0 or length < 2:
        raise ValueError(f"blocks need start >= 0 and length >= 2, got range {range_}, "
                         f"length {length}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if length > end - begin:
        raise BlockLongerThanRange(
            f"block length {length} exceeds range length {end - begin}"
        )
    return np.arange(begin, end - length + 1, stride, dtype=np.int64)


def enumerate_samples(range_: tuple[int, int], sample_length: int) -> list[SampleWindow]:
    """Non-overlapping consecutive windows; a trailing remainder is dropped."""
    begin, end = range_
    if sample_length > end - begin:
        raise SampleLongerThanRange(
            f"sample length {sample_length} exceeds range length {end - begin}"
        )
    n = (end - begin) // sample_length
    return [SampleWindow(begin + i * sample_length, sample_length) for i in range(n)]


def make_folds(n_samples: int, k: int, seed: int) -> FoldPlan:
    """Seeded random permutation, round-robin fold assignment (sizes differ by <= 1)."""
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if n_samples < k:
        raise TooFewSamples(f"{n_samples} samples cannot fill {k} folds")
    perm = np.random.default_rng(seed).permutation(n_samples)
    assignment = np.empty(n_samples, dtype=np.int64)
    assignment[perm] = np.arange(n_samples) % k
    assignment.setflags(write=False)
    return FoldPlan(k=k, assignment=assignment, seed=seed)


def compute_norm_stats(series: TimeSeries, target_end: int) -> NormStats:
    """Per-channel mean/std over [0, target_end); constant channels get std = 1 and are recorded."""
    target = series.values[:target_end]
    mean = target.mean(axis=0)
    std = target.std(axis=0)
    constant = np.flatnonzero(std == 0.0)
    std[constant] = 1.0
    mean.setflags(write=False)
    std.setflags(write=False)
    return NormStats(mean=mean, std=std, constant_channels=tuple(int(c) for c in constant))


def normalize(series: TimeSeries, stats: NormStats) -> TimeSeries:
    """Per-channel z-score transform."""
    values = (series.values - stats.mean) / stats.std
    return TimeSeries(values, series.channel_names, series.origin)
