"""CSV loading, normalization, windowing, splits, and synthetic data."""

import math

import numpy as np
import pytest

from brownian_lstm.data import (PriceSeries, SequenceDataset, TabularDataset,
                                chronological_split, denormalize, describe,
                                load_csv_prices, load_csv_tabular,
                                make_windows, minmax_normalize, synth_gbm,
                                synth_sine_trend, synth_tabular)
from brownian_lstm.numerics import RngStream

TRADING_DT = 1.0 / 252.0


def _write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsvPrices:
    def test_reads_dates_and_values(self, tmp_path):
        path = _write(tmp_path,
                      "Date,Open,Close\n"
                      "2020-01-01,9.5,10.0\n"
                      "2020-01-02,10.1,10.5\n")
        series = load_csv_prices(path)
        assert series.dates == ["2020-01-01", "2020-01-02"]
        np.testing.assert_array_equal(series.values, [10.0, 10.5])

    def test_column_selection(self, tmp_path):
        path = _write(tmp_path,
                      "Date,Open,Close\n2020-01-01,9.5,10.0\n")
        series = load_csv_prices(path, column="Open")
        assert series.values[0] == 9.5

    def test_blank_rows_are_skipped(self, tmp_path):
        path = _write(tmp_path,
                      "Date,Close\n2020-01-01,1.0\n\n,\n2020-01-02,2.0\n")
        series = load_csv_prices(path)
        assert series.values.size == 2

    def test_missing_column_cites_available(self, tmp_path):
        path = _write(tmp_path, "Date,Open\n2020-01-01,1.0\n")
        with pytest.raises(ValueError, match="no 'Close' column"):
            load_csv_prices(path)

    def test_missing_date_column(self, tmp_path):
        path = _write(tmp_path, "Day,Close\n2020-01-01,1.0\n")
        with pytest.raises(ValueError, match="no 'Date' column"):
            load_csv_prices(path)

    def test_bad_date_cites_row(self, tmp_path):
        path = _write(tmp_path,
                      "Date,Close\n2020-01-01,1.0\n01/02/2020,2.0\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv_prices(path)

    def test_non_increasing_dates_rejected(self, tmp_path):
        path = _write(tmp_path,
                      "Date,Close\n2020-01-02,1.0\n2020-01-01,2.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_csv_prices(path)

    def test_duplicate_dates_rejected(self, tmp_path):
        path = _write(tmp_path,
                      "Date,Close\n2020-01-01,1.0\n2020-01-01,2.0\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_csv_prices(path)

    def test_non_numeric_value_cites_row(self, tmp_path):
        path = _write(tmp_path, "Date,Close\n2020-01-01,abc\n")
        with pytest.raises(ValueError, match="row 2.*not a number"):
            load_csv_prices(path)

    @pytest.mark.parametrize("text,message", [
        ("Date,Open,Close\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n",
         "row 3: expected 3 cells, got 2"),
        ("Date,Close\n2020-01-01,1.0,9.0\n", "row 2: expected 2 cells, got 3"),
    ])
    def test_cell_count_mismatch_cites_row(self, tmp_path, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError, match=message):
            load_csv_prices(path)

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_csv_prices(path)

    def test_header_only(self, tmp_path):
        path = _write(tmp_path, "Date,Close\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_prices(path)

    def test_nonpositive_price_rejected(self, tmp_path):
        path = _write(tmp_path, "Date,Close\n2020-01-01,-3.0\n")
        with pytest.raises(ValueError, match="positive"):
            load_csv_prices(path)

    @pytest.mark.parametrize("value", ["-3", "0", "nan", "inf"])
    def test_bad_price_cites_row(self, tmp_path, value):
        path = _write(tmp_path,
                      f"Date,Close\n2020-01-01,2.0\n2020-01-02,{value}\n")
        with pytest.raises(ValueError, match=(
                rf"row 3: price {value} is not positive and finite")):
            load_csv_prices(path)


class TestNormalize:
    def test_unit_range(self):
        normalized, vmin, vmax = minmax_normalize([2.0, 4.0, 6.0])
        np.testing.assert_allclose(normalized, [0.0, 0.5, 1.0], rtol=1e-15)
        assert (vmin, vmax) == (2.0, 6.0)

    def test_round_trip(self):
        values = RngStream(3).normals(50) * 37.0 + 5.0
        normalized, vmin, vmax = minmax_normalize(values)
        back = denormalize(normalized, vmin, vmax)
        np.testing.assert_allclose(back, values, rtol=0, atol=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            minmax_normalize([5.0, 5.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            minmax_normalize([])


class TestMakeWindows:
    def test_window_contents(self):
        ds = make_windows([1.0, 2.0, 3.0, 4.0, 5.0], lookback=2,
                          check_unit_range=False)
        assert len(ds) == 3
        assert ds.inputs.shape == (3, 2, 1)
        np.testing.assert_array_equal(ds.inputs[:, :, 0],
                                      [[1, 2], [2, 3], [3, 4]])
        np.testing.assert_array_equal(ds.targets, [3.0, 4.0, 5.0])

    def test_sample_count(self):
        values = np.linspace(0.0, 1.0, 100)
        ds = make_windows(values, lookback=60)
        assert len(ds) == 40

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            make_windows([0.1, 0.2], lookback=2)

    def test_unit_range_check(self):
        with pytest.raises(ValueError, match="not normalized"):
            make_windows([1.0, 2.0, 3.0], lookback=1)

    def test_norm_constants_carried(self):
        ds = make_windows([0.0, 0.5, 1.0], lookback=1, norm_min=10.0,
                          norm_max=20.0)
        assert (ds.norm_min, ds.norm_max) == (10.0, 20.0)


class TestChronologicalSplit:
    def test_floor_of_ratio(self):
        values = np.linspace(0.0, 1.0, 12)
        ds = make_windows(values, lookback=2)  # 10 samples
        train, test = chronological_split(ds, 0.75)
        assert len(train) == 7 and len(test) == 3
        # Order preserved: first test sample follows the last train one.
        np.testing.assert_array_equal(train.inputs[0], ds.inputs[0])
        np.testing.assert_array_equal(test.inputs[0], ds.inputs[7])

    def test_eighty_twenty(self):
        values = np.linspace(0.0, 1.0, 102)
        ds = make_windows(values, lookback=2)  # 100 samples
        train, test = chronological_split(ds, 0.8)
        assert len(train) == 80 and len(test) == 20

    def test_bad_ratio(self):
        ds = make_windows(np.linspace(0, 1, 5), lookback=1)
        with pytest.raises(ValueError, match="ratio"):
            chronological_split(ds, 1.0)

    def test_empty_side_rejected(self):
        ds = make_windows(np.linspace(0, 1, 3), lookback=1)  # 2 samples
        with pytest.raises(ValueError, match="empty side"):
            chronological_split(ds, 0.1)


class TestDescribe:
    def test_matches_two_pass_oracle(self):
        values = (RngStream(9).normals(501) * 0.3 + 0.4).tolist()
        mean, variance = describe(values)
        n = len(values)
        oracle_mean = math.fsum(values) / n
        oracle_var = math.fsum((v - oracle_mean) ** 2
                               for v in values) / (n - 1)
        assert mean == oracle_mean
        assert variance == oracle_var

    def test_two_point_case(self):
        mean, variance = describe([0.0, 1.0])
        assert mean == 0.5
        assert variance == 0.5

    def test_requires_two_values(self):
        with pytest.raises(ValueError, match="two values"):
            describe([1.0])


class TestSynthGbm:
    def test_deterministic(self):
        a = synth_gbm(7, 100)
        b = synth_gbm(7, 100)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.values.size == 100 and len(a.dates) == 100
        assert not np.array_equal(a.values, synth_gbm(8, 100).values)

    def test_sigma_zero_is_exact_exponential(self):
        series = synth_gbm(1, 10, s0=50.0, mu=0.1, sigma=0.0)
        k = np.arange(10)
        expected = 50.0 * np.exp(0.1 * TRADING_DT * k)
        np.testing.assert_allclose(series.values, expected, rtol=1e-15)

    def test_log_return_moments(self):
        mu, sigma = 0.05, 0.2
        series = synth_gbm(21, 100_000, mu=mu, sigma=sigma)
        rets = np.diff(np.log(series.values))
        drift = (mu - 0.5 * sigma * sigma) * TRADING_DT
        scale = sigma * math.sqrt(TRADING_DT)
        # Sample mean of N(drift, scale^2) over n draws: 4 sigma band.
        assert abs(rets.mean() - drift) < 4 * scale / math.sqrt(rets.size)
        assert abs(rets.std(ddof=1) / scale - 1.0) < 0.02

    def test_dates_are_increasing_iso(self):
        series = synth_gbm(7, 5)
        assert series.dates[0] == "2015-01-01"
        assert series.dates == sorted(series.dates)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            synth_gbm(1, 0)
        with pytest.raises(ValueError, match="s0"):
            synth_gbm(1, 5, s0=0.0)
        with pytest.raises(ValueError, match="sigma"):
            synth_gbm(1, 5, sigma=-0.1)


class TestSynthSineTrend:
    def test_deterministic(self):
        a = synth_sine_trend(5, 200)
        b = synth_sine_trend(5, 200)
        assert a.values.tobytes() == b.values.tobytes()

    def test_reduces_to_gbm_without_season_or_noise(self):
        plain = synth_gbm(5, 64, s0=100.0, mu=0.08, sigma=0.08)
        seasoned = synth_sine_trend(5, 64, amplitude=0.0, noise_std=0.0)
        np.testing.assert_array_equal(seasoned.values, plain.values)

    def test_seasonal_component_present(self):
        series = synth_sine_trend(5, 400, sigma=0.0, noise_std=0.0,
                                  amplitude=5.0, period=40.0)
        trend = synth_gbm(5, 400, mu=0.08, sigma=0.0)
        season = series.values - trend.values
        k = np.arange(400)
        np.testing.assert_allclose(
            season, 5.0 * np.sin(2 * math.pi * k / 40.0), atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            synth_sine_trend(1, 50, period=0.0)
        with pytest.raises(ValueError, match="noise_std"):
            synth_sine_trend(1, 50, noise_std=-1.0)


class TestLoadCsvTabular:
    def test_basic_load_and_standardization(self, tmp_path):
        rng = RngStream(13)
        rows = rng.normals((40, 2)) * 3.0 + 1.0
        lines = ["a,b,label"]
        for i, (x, y) in enumerate(rows):
            lines.append(f"{float(x)!r},{float(y)!r},{i % 2}")
        path = _write(tmp_path, "\n".join(lines) + "\n", "tab.csv")
        ds = load_csv_tabular(path)
        assert ds.feature_names == ["a", "b"]
        assert len(ds) == 40
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(ds.features.std(axis=0, ddof=1), 1.0,
                                   rtol=1e-10)
        np.testing.assert_array_equal(ds.labels, [i % 2 for i in range(40)])

    def test_rows_with_missing_cells_are_dropped_and_counted(self, tmp_path):
        path = _write(tmp_path,
                      "a,label\n1.0,0\n,1\n2.0,1\n3.0,\n4.0,0\n",
                      "tab.csv")
        ds = load_csv_tabular(path)
        assert len(ds) == 3
        assert ds.n_dropped == 2

    def test_string_labels_map_sorted(self, tmp_path):
        path = _write(tmp_path,
                      "a,label\n1.0,up\n2.0,down\n3.0,up\n", "tab.csv")
        ds = load_csv_tabular(path)
        # sorted(('up', 'down')) puts 'down' first -> 0.
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0, 1.0])

    def test_three_labels_rejected(self, tmp_path):
        path = _write(tmp_path,
                      "a,label\n1.0,x\n2.0,y\n3.0,z\n", "tab.csv")
        with pytest.raises(ValueError, match="exactly two"):
            load_csv_tabular(path)

    def test_non_numeric_feature_cites_row_and_column(self, tmp_path):
        path = _write(tmp_path, "a,label\noops,0\n2.0,1\n", "tab.csv")
        with pytest.raises(ValueError, match="row 2.*'a'"):
            load_csv_tabular(path)

    def test_constant_feature_rejected(self, tmp_path):
        path = _write(tmp_path, "a,label\n3.0,0\n3.0,1\n", "tab.csv")
        with pytest.raises(ValueError, match="constant"):
            load_csv_tabular(path)

    def test_missing_label_column(self, tmp_path):
        path = _write(tmp_path, "a,b\n1.0,2.0\n", "tab.csv")
        with pytest.raises(ValueError, match="no 'label' column"):
            load_csv_tabular(path)


class TestSynthTabular:
    def test_imbalance_is_exact(self):
        ds = synth_tabular(99, 600, 8, positive_rate=0.25)
        assert ds.labels.sum() == 150
        assert len(ds) == 600
        assert ds.features.shape == (600, 8)

    def test_deterministic(self):
        a = synth_tabular(3, 100, 4)
        b = synth_tabular(3, 100, 4)
        assert a.features.tobytes() == b.features.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_standardized_columns(self):
        ds = synth_tabular(5, 500, 6)
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(ds.features.std(axis=0, ddof=1), 1.0,
                                   rtol=1e-10)

    def test_classes_are_separated(self):
        ds = synth_tabular(11, 2000, 4)
        pos = ds.features[ds.labels == 1.0].mean(axis=0)
        neg = ds.features[ds.labels == 0.0].mean(axis=0)
        assert np.all(pos > neg)

    def test_validation(self):
        with pytest.raises(ValueError, match="n >= 4"):
            synth_tabular(1, 2, 3)
        with pytest.raises(ValueError, match="positive_rate"):
            synth_tabular(1, 10, 2, positive_rate=1.0)


class TestDatasetValidation:
    def test_price_series_rejects_mismatch(self):
        with pytest.raises(ValueError, match="dates but"):
            PriceSeries(dates=["2020-01-01"], values=np.array([1.0, 2.0]))

    def test_sequence_dataset_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(N, T, d\)"):
            SequenceDataset(inputs=np.zeros((3, 2)), targets=np.zeros(3))
        with pytest.raises(ValueError, match="inputs but"):
            SequenceDataset(inputs=np.zeros((3, 2, 1)), targets=np.zeros(4))

    def test_tabular_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            TabularDataset(features=np.zeros((2, 1)),
                           labels=np.array([0.0, 0.5]),
                           feature_names=["a"])
