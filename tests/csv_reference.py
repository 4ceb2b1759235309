"""Test-side reference for ``series.load_csv``: the per-cell loader it replaced.

Every row is read with ``csv``, held in memory, and every cell converted
on its own. It keeps the original loader's rules and error order, and
differs from it only where ``load_csv``'s documented dialect does: ±inf
cells are rejected with the NaN cells' row and column, naive and offset
timestamps do not mix, and a number is ASCII with no ``_`` digit grouping.
"""

import csv
from datetime import datetime
from pathlib import Path

import numpy as np

from tsvalue.errors import MissingFile, NaNEncountered, NonMonotonicTimestamps, NonNumericCell
from tsvalue.series import IngestOptions, TimeSeries, _interpolate_interior_nans

_TIMESTAMP_HEADERS = {"timestamp", "time", "date", "datetime"}


def load_csv_reference(path, options: IngestOptions = IngestOptions()) -> TimeSeries:
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]  # drop blank lines
    while rows and rows[0][0].lstrip().startswith("#"):
        rows = rows[1:]  # leading comment lines carry provenance
    if len(rows) < 2:
        raise NonNumericCell(0, 0, "file has no data rows")
    header, data_rows = rows[0], rows[1:]

    has_timestamps = header[0].strip().lower() in _TIMESTAMP_HEADERS
    if not has_timestamps:
        try:
            float(data_rows[0][0])
        except ValueError:
            has_timestamps = True

    if has_timestamps:
        _check_timestamps([r[0] for r in data_rows])
        header = header[1:]
        data_rows = [r[1:] for r in data_rows]
        col_offset = 1
    else:
        col_offset = 0
    if not header:
        raise NonNumericCell(0, 0, "no value columns after timestamp column")

    values = np.empty((len(data_rows), len(header)), dtype=np.float64)
    for i, row in enumerate(data_rows):
        if len(row) != len(header):
            raise NonNumericCell(i + 1, len(row) + col_offset, "row has wrong cell count")
        for j, cell in enumerate(row):
            text = cell.strip()
            try:
                if "_" in text or not text.isascii():
                    raise ValueError(cell)
                values[i, j] = float(text)
            except ValueError:
                raise NonNumericCell(i + 1, j + col_offset, cell) from None

    inf_mask = np.isinf(values)
    nan_mask = np.isnan(values)
    reject = inf_mask if options.interpolate_nans else inf_mask | nan_mask
    if reject.any():
        i, j = np.argwhere(reject)[0]
        raise NaNEncountered(int(i) + 1, int(j) + col_offset)
    if nan_mask.any():
        values = _interpolate_interior_nans(values, col_offset)

    return TimeSeries(values, tuple(h.strip() for h in header), origin=str(path))


def _check_timestamps(cells: list[str]) -> None:
    parsed = []
    for i, cell in enumerate(cells):
        try:
            parsed.append(datetime.fromisoformat(cell.strip().replace("Z", "+00:00")))
        except ValueError:
            raise NonMonotonicTimestamps(
                f"unparseable ISO-8601 timestamp at row {i + 1}: {cell!r}"
            ) from None
    for i in range(1, len(parsed)):
        if (parsed[i].tzinfo is None) != (parsed[i - 1].tzinfo is None):
            raise NonMonotonicTimestamps(f"naive and offset timestamps mixed at row {i + 1}")
        if parsed[i] <= parsed[i - 1]:
            raise NonMonotonicTimestamps(
                f"timestamps not strictly increasing at row {i + 1}: "
                f"{cells[i]!r} <= {cells[i - 1]!r}"
            )
