from datetime import datetime, timedelta

import numpy as np
import pytest
from csv_reference import load_csv_reference
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsvalue import errors
from tsvalue.series import (
    TimeSeries,
    compute_norm_stats,
    enumerate_samples,
    load_csv,
    make_folds,
    normalize,
    segment_blocks,
    split_holdout,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def load_outcome(loader, path):
    """The loaded values' bytes and names, or the error's class, row and column."""
    try:
        ts = loader(path)
    except errors.TsvalueError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return ts.values.tobytes(), ts.channel_names


_BAD_CELLS = ["x", "", "1_000", "nan", "NaN", "inf", "-inf", "1e400", " 2.5 ", '"3,5"']
_BAD_STAMPS = ["later", "2019-12-31T00:00:00", "same", "2020-01-01T00:00:00Z"]


@st.composite
def csv_cells(draw):
    """A number (sometimes quoted or padded), and now and then a bad or non-finite cell."""
    if draw(st.integers(0, 11)) == 0:
        return draw(st.sampled_from(_BAD_CELLS))
    value = draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.integers(-10**6, 10**6)))
    text = draw(st.sampled_from([repr(value), format(value, ".17g"), f" {value!r}"]))
    return f'"{text}"' if draw(st.integers(0, 3)) == 0 else text


@st.composite
def csv_texts(draw):
    """CSV text: leading # lines, optional timestamps, blank lines, odd rows and cells."""
    n_values = draw(st.integers(1, 3))
    timestamps = draw(st.booleans())
    header = [f"c{j}" for j in range(n_values)]
    if timestamps:
        header.insert(0, draw(st.sampled_from(["timestamp", "when"])))
    lines = [draw(st.sampled_from(["# source", "#", "  # note", ""]))
             for _ in range(draw(st.integers(0, 2)))]
    lines.append(",".join(header))
    start = datetime(2020, 1, 1)
    for i in range(draw(st.integers(1, 6))):
        cells = [draw(csv_cells()) for _ in range(n_values)]
        cells += [draw(csv_cells()) for _ in range(draw(st.sampled_from([0] * 8 + [1])))]
        del cells[len(cells) - draw(st.sampled_from([0] * 8 + [1])):]
        if timestamps:
            stamp = (start + timedelta(minutes=i)).isoformat()
            if draw(st.integers(0, 9)) == 0:
                stamp = draw(st.sampled_from(_BAD_STAMPS)).replace(
                    "same", (start + timedelta(minutes=i - 1)).isoformat())
            cells.insert(0, f'"{stamp}"' if draw(st.integers(0, 5)) == 0 else stamp)
        lines.append(",".join(cells))
        lines += [draw(st.sampled_from(["", "", "  "]))] * draw(st.sampled_from([0] * 4 + [1]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        ts = load_csv(p)
        assert ts.length == 3 and ts.n_channels == 2
        assert ts.channel_names == ("a", "b")
        np.testing.assert_array_equal(ts.values, [[1, 2], [3, 4], [5, 6]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.MissingFile):
            load_csv(tmp_path / "nope.csv")

    def test_nan_rejected_by_default(self, tmp_path):
        p = write(tmp_path, "a\n1.0\nnan\n3.0\n")
        with pytest.raises(errors.NaNEncountered) as exc:
            load_csv(p)
        assert exc.value.row == 2 and exc.value.col == 0

    def test_non_numeric_cell_position(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n1,oops\n")
        with pytest.raises(errors.NonNumericCell) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (2, 1)

    def test_timestamp_column_detected_and_dropped(self, tmp_path):
        p = write(tmp_path,
                  "timestamp,a\n2020-01-01T00:00:00,1\n2020-01-01T01:00:00,2\n")
        ts = load_csv(p)
        assert ts.n_channels == 1
        np.testing.assert_array_equal(ts.values[:, 0], [1, 2])

    def test_timestamp_detected_by_value(self, tmp_path):
        p = write(tmp_path, "when,a\n2020-01-01,1\n2020-01-02,2\n")
        ts = load_csv(p)
        assert ts.channel_names == ("a",)

    def test_non_monotonic_timestamps(self, tmp_path):
        p = write(tmp_path,
                  "timestamp,a\n2020-01-02T00:00:00,1\n2020-01-01T00:00:00,2\n")
        with pytest.raises(errors.NonMonotonicTimestamps):
            load_csv(p)


    def test_inf_cell_rejected_with_file_row_and_column(self, tmp_path):
        p = write(tmp_path, "timestamp,a,b\n2020-01-01,1,2\n2020-01-02,3,-inf\n")
        with pytest.raises(errors.NaNEncountered, match="infinite") as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (2, 2)

    def test_mixed_naive_and_offset_timestamps(self, tmp_path):
        p = write(tmp_path, "timestamp,a\n2020-01-01T00:00:00,1\n2020-01-01T00:01:00Z,2\n")
        with pytest.raises(errors.NonMonotonicTimestamps, match="row 2"):
            load_csv(p)

    def test_offset_timestamps_compare_in_utc(self, tmp_path):
        p = write(tmp_path, "timestamp,a\n2020-01-01T02:00:00+01:00,1\n2020-01-01T00:30:00Z,2\n")
        with pytest.raises(errors.NonMonotonicTimestamps, match="row 2"):
            load_csv(p)

    # float() reads the first two; np.loadtxt and the documented dialect do not
    @pytest.mark.parametrize("cell", ["1_000", "\u0661", "0x10", ""])
    def test_cell_outside_the_dialect_is_non_numeric(self, tmp_path, cell):
        p = write(tmp_path, f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(errors.NonNumericCell) as exc:
            load_csv(p)
        assert (exc.value.row, exc.value.col) == (2, 1)

    def test_quoted_cells_blank_lines_and_comments(self, tmp_path):
        p = write(tmp_path, '# provenance\n\n"a","b"\n"1", 2\r\n\n3,"4.5"\n')
        ts = load_csv(p)
        assert ts.channel_names == ("a", "b")
        np.testing.assert_array_equal(ts.values, [[1, 2], [3, 4.5]])

    @given(text=csv_texts())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_per_cell_reference(self, tmp_path, text):
        p = tmp_path / "generated.csv"
        p.write_bytes(text.encode("utf-8"))
        assert load_outcome(load_csv, p) == load_outcome(load_csv_reference, p)


class TestSplitHoldout:
    def test_seventy_thirty(self):
        ts = TimeSeries(np.zeros((100, 1)), ("a",))
        split = split_holdout(ts, 0.3)
        assert split.target_end == 70
        assert split.test_range == (70, 100)

    def test_even_split(self):
        ts = TimeSeries(np.zeros((10, 1)), ("a",))
        split = split_holdout(ts, 0.5)
        assert split.target_end == 5 and split.test_range == (5, 10)

    def test_target_too_short(self):
        ts = TimeSeries(np.zeros((3, 1)), ("a",))
        with pytest.raises(errors.TargetTooShort):
            split_holdout(ts, 0.5, min_target_length=5)


class TestSegmentBlocks:
    def test_counts(self):
        assert len(segment_blocks((0, 10), 3, 1)) == 8
        assert segment_blocks((0, 10), 3, 1).tolist() == list(range(8))

    def test_single_block_boundary(self):
        assert segment_blocks((0, 10), 10, 1).tolist() == [0]

    def test_starts_are_int64(self):
        starts = segment_blocks((3, 40), 5, 4)
        assert starts.dtype == np.int64 and starts.ndim == 1
        assert starts.tolist() == list(range(3, 36, 4))

    @pytest.mark.parametrize("length", [1, 0, -3])
    def test_length_below_two_rejected(self, length):
        with pytest.raises(ValueError, match="length >= 2"):
            segment_blocks((0, 10), length, 1)

    def test_negative_range_start_rejected(self):
        with pytest.raises(ValueError, match="start >= 0"):
            segment_blocks((-1, 10), 3, 1)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match="stride"):
            segment_blocks((0, 10), 3, stride)

    def test_default_length_on_target_700(self):
        assert len(segment_blocks((0, 700), 100, 1)) == 601

    def test_block_longer_than_range(self):
        with pytest.raises(errors.BlockLongerThanRange, match="block length 6 exceeds range "
                                                             "length 5"):
            segment_blocks((0, 5), 6, 1)
        assert segment_blocks((0, 5), 5, 7).tolist() == [0]

    def test_stride(self):
        assert segment_blocks((0, 10), 4, 3).tolist() == [0, 3, 6]

    @given(range_len=st.integers(2, 200), length=st.integers(2, 50))
    @settings(max_examples=60, deadline=None)
    def test_stride1_coverage(self, range_len, length):
        if length > range_len:
            return
        cover = np.zeros(range_len, dtype=int)
        for start in segment_blocks((0, range_len), length, 1):
            cover[start:start + length] += 1
        assert (cover >= 1).all() and (cover <= length).all()
        interior = cover[length - 1:range_len - length + 1]
        assert (interior == length).all()


class TestEnumerateSamples:
    def test_remainder_dropped(self):
        ws = enumerate_samples((0, 10), 4)
        assert [(w.start, w.stop) for w in ws] == [(0, 4), (4, 8)]

    def test_exact_fit(self):
        assert len(enumerate_samples((0, 8), 8)) == 1

    def test_count_700(self):
        assert len(enumerate_samples((0, 700), 100)) == 7

    def test_too_long(self):
        with pytest.raises(errors.SampleLongerThanRange):
            enumerate_samples((0, 5), 6)


class TestMakeFolds:
    def test_balanced(self):
        folds = make_folds(10, 5, seed=0)
        members = [np.flatnonzero(folds == f) for f in range(5)]
        assert [len(m) for m in members] == [2] * 5
        assert sorted(np.concatenate(members)) == list(range(10))

    def test_uneven(self):
        folds = make_folds(11, 5, seed=1)
        sizes = sorted(len(np.flatnonzero(folds == f)) for f in range(5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = make_folds(37, 5, seed=42)
        b = make_folds(37, 5, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_read_only_int64_array(self):
        folds = make_folds(12, 3, seed=0)
        assert folds.dtype == np.int64 and not folds.flags.writeable

    def test_too_few(self):
        with pytest.raises(errors.TooFewSamples):
            make_folds(3, 5, seed=0)

    @given(n=st.integers(2, 300), k=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, k, seed):
        if n < k:
            return
        folds = make_folds(n, k, seed)
        assert folds.shape == (n,)
        sizes = np.bincount(folds, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n


class TestNormalize:
    def test_zscore(self):
        ts = TimeSeries(np.array([[1.0], [2.0], [3.0]]), ("a",))
        stats = compute_norm_stats(ts, 3)
        out = normalize(ts, stats)
        np.testing.assert_allclose(out.values[:, 0],
                                   [-1.22474487, 0.0, 1.22474487])

    def test_no_clipping_on_test_split(self):
        values = np.concatenate([np.random.default_rng(0).normal(size=50), [100.0]])
        ts = TimeSeries(values[:, None], ("a",))
        stats = compute_norm_stats(ts, 50)
        out = normalize(ts, stats)
        assert abs(out.values[-1, 0]) > 3  # far outside, no error

    def test_constant_channel_unit_recorded(self):
        ts = TimeSeries(np.ones((5, 1)), ("a",))
        stats = compute_norm_stats(ts, 5)
        assert stats.constant_channels == (0,)
        assert stats.std[0] == 1.0

    def test_constant_channel_among_varying_ones(self):
        # only the constant channel gets std 1; it normalizes to zeros
        values = np.array([[1.0, 7.0, 0.0], [2.0, 7.0, 4.0], [3.0, 7.0, 8.0], [9.0, 0.0, 9.0]])
        ts = TimeSeries(values, ("a", "b", "c"))
        stats = compute_norm_stats(ts, 3)
        assert stats.constant_channels == (1,)
        np.testing.assert_array_equal(stats.std, [values[:3, 0].std(), 1.0, values[:3, 2].std()])
        np.testing.assert_array_equal(normalize(ts, stats).values[:3, 1], 0.0)

    def test_stats_are_read_only_and_leave_the_series_alone(self):
        values = np.array([[1.0, 5.0], [3.0, 5.0]])
        ts = TimeSeries(values, ("a", "b"))
        stats = compute_norm_stats(ts, 2)
        np.testing.assert_array_equal(ts.values, values)
        for arr in (stats.mean, stats.std):
            assert not arr.flags.writeable and not np.shares_memory(arr, ts.values)


class TestTimeSeriesType:
    def test_rejects_nonfinite(self):
        with pytest.raises(errors.NaNEncountered):
            TimeSeries(np.array([[1.0], [np.nan]]), ("a",))

    def test_immutance(self):
        ts = TimeSeries(np.zeros((3, 1)), ("a",))
        with pytest.raises(ValueError):
            ts.values[0, 0] = 1.0

    def test_slice(self):
        ts = TimeSeries(np.arange(10, dtype=float)[:, None], ("a",))
        sub = ts.slice(2, 5)
        assert sub.length == 3
        np.testing.assert_array_equal(sub.values[:, 0], [2, 3, 4])
