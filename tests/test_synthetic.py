import numpy as np
import pytest

from tsvalue.errors import InvalidSpec
from tsvalue.series import load_csv
from tsvalue.reports import write_csv
from tsvalue.synthetic import SyntheticSpec, generate


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(generator="trend_season", length=120, channels=2,
                             noise_std=0.2, seed=9)
        np.testing.assert_array_equal(generate(spec).values, generate(spec).values)

    def test_seeds_differ(self):
        a = generate(SyntheticSpec(length=50, seed=0))
        b = generate(SyntheticSpec(length=50, seed=1))
        assert not np.array_equal(a.values, b.values)

    def test_shapes(self):
        ts = generate(SyntheticSpec(generator="sine_mix", length=100, channels=2))
        assert ts.values.shape == (100, 2)
        assert ts.channel_names == ("ch0", "ch1")

    def test_ar_zero_coeffs_zero_noise_is_all_zero(self):
        spec = SyntheticSpec(generator="ar_process", length=64, channels=1,
                             noise_std=0.0, ar_coeffs=(0.0, 0.0), seed=5)
        np.testing.assert_array_equal(generate(spec).values, 0.0)

    def test_ar_default_is_stationary_scale(self):
        ts = generate(SyntheticSpec(generator="ar_process", length=2000,
                                    noise_std=1.0, seed=3))
        assert np.abs(ts.values).max() < 50

    def test_unknown_generator(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(generator="brownian")


class TestWriteCsv:
    def test_round_trips_through_ingestion(self, tmp_path):
        # the writer `tsvalue synth` uses: a provenance comment, the header, one row per step
        ts = generate(SyntheticSpec(generator="sine_mix", length=100, channels=2,
                                    noise_std=0.1, seed=4))
        path = tmp_path / "data.csv"
        write_csv(path, "0123", list(ts.channel_names), ts.values.tolist())
        lines = path.read_text().splitlines()
        assert len(lines) == 102 and lines[1] == "ch0,ch1"
        back = load_csv(path)
        np.testing.assert_array_equal(back.values, ts.values)
        assert back.channel_names == ts.channel_names
