"""Experiment harnesses, report files, figures, and the CLI."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import brownian_lstm
from brownian_lstm import training
from brownian_lstm.cli import cli_main
from brownian_lstm.data import PriceSeries, TabularDataset
from brownian_lstm.experiments import (CLASSIFICATION_HEADER,
                                       REGRESSION_HEADER, ConfigError,
                                       ExperimentConfig, ExperimentReport,
                                       _regression_datasets,
                                       emit_paths_figure, load_series,
                                       parse_synth_spec, run_classification,
                                       run_comparison, run_sensitivity)
from brownian_lstm.numerics import RngStream
from brownian_lstm.training import TrainConfig, TrainingDiverged
from helpers import ReadAheadBits, child_env

FAST_TRAIN = dict(max_epochs=2, batch_size=32)


def _fast_regression_config(tmp_path, **overrides):
    kw = dict(synth="sine:3,140", lookback=8, hidden_dim=6, seeds=(1,),
              m_values=(5,), out_dir=str(tmp_path),
              train=TrainConfig(**FAST_TRAIN))
    kw.update(overrides)
    return ExperimentConfig(**kw)


def _fast_classification_config(tmp_path, **overrides):
    kw = dict(synth="tab:7,80,3", hidden_dim=6, seeds=(1,), m_values=(5,),
              out_dir=str(tmp_path), train=TrainConfig(**FAST_TRAIN))
    kw.update(overrides)
    return ExperimentConfig(**kw)


class TestParseSynthSpec:
    def test_gbm(self):
        series = parse_synth_spec("gbm:7,50")
        assert isinstance(series, PriceSeries)
        assert series.values.size == 50
        assert series.name == "gbm-7"

    def test_gbm_with_overrides(self):
        series = parse_synth_spec("gbm:1,10,50,0.1,0")
        assert series.values[0] == 50.0

    def test_sine(self):
        series = parse_synth_spec("sine:5,30")
        assert isinstance(series, PriceSeries)
        assert series.name == "sine-trend-5"

    def test_tab(self):
        ds = parse_synth_spec("tab:9,40,3")
        assert isinstance(ds, TabularDataset)
        assert ds.features.shape == (40, 3)

    def test_tab_custom_rate(self):
        ds = parse_synth_spec("tab:9,40,3,0.5")
        assert ds.labels.sum() == 20

    def test_missing_colon(self):
        with pytest.raises(ConfigError, match="scheme:arg"):
            parse_synth_spec("gbm")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown synth scheme"):
            parse_synth_spec("ou:1,2")

    def test_non_numeric_args(self):
        with pytest.raises(ConfigError, match="non-numeric"):
            parse_synth_spec("gbm:one,2")

    def test_wrong_arity(self):
        with pytest.raises(ConfigError):
            parse_synth_spec("gbm:7")
        with pytest.raises(ConfigError):
            parse_synth_spec("tab:7,50")


class TestExperimentConfig:
    def test_rejects_both_sources(self):
        with pytest.raises(ConfigError, match="not both"):
            ExperimentConfig(data_path="x.csv", synth="gbm:1,10")

    def test_rejects_bad_split(self):
        with pytest.raises(ConfigError, match="split"):
            ExperimentConfig(synth="gbm:1,10", split=1.5)

    def test_rejects_bad_alpha_string(self):
        with pytest.raises(ConfigError, match="alphas"):
            ExperimentConfig(synth="gbm:1,10", alphas="auto")

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ConfigError, match="^alphas must be finite"):
            ExperimentConfig(synth="gbm:1,10", alphas=(0.5, alpha))

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(synth="gbm:1,10", seeds=())

    def test_unknown_activation_fails_at_run(self, tmp_path):
        config = _fast_regression_config(tmp_path, activations=("swish",))
        with pytest.raises(ValueError, match="unknown activation"):
            run_comparison(config)


class TestReportFormat:
    def test_header_constants(self):
        assert REGRESSION_HEADER == (
            "Dataset", "Seed", "Activation Function", "M", "Alpha", "MSE",
            "R2(Train)", "R2(Test)", "Epoch of convergence")
        assert CLASSIFICATION_HEADER == (
            "Dataset", "Seed", "Activation Function", "Alpha", "Accuracy",
            "Precision", "Recall", "F1-score", "ROC-AUC")

    def test_csv_cell_formatting(self, tmp_path):
        report = ExperimentReport(
            kind="regression", header=("A", "B", "C", "D"),
            rows=[["name", 3, None, 0.123456789]])
        path = tmp_path / "r.csv"
        report.to_csv(str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "A,B,C,D"
        assert lines[1] == "name,3,,0.123457"

    def test_json_is_lossless(self, tmp_path):
        rows = [["name", 3, None, 0.123456789123]]
        report = ExperimentReport(kind="regression",
                                  header=("A", "B", "C", "D"), rows=rows)
        path = tmp_path / "r.json"
        report.to_json(str(path))
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["kind"] == "regression"
        assert doc["header"] == ["A", "B", "C", "D"]
        assert doc["rows"] == [["name", 3, None, 0.123456789123]]

    def test_write_emits_both_files(self, tmp_path):
        report = ExperimentReport(kind="regression", header=("A",),
                                  rows=[[1.0]])
        csv_path, json_path = report.write(str(tmp_path), "out")
        assert os.path.exists(csv_path) and csv_path.endswith("out.csv")
        assert os.path.exists(json_path) and json_path.endswith("out.json")

    def test_failed_write_keeps_old_files(self, tmp_path):
        ExperimentReport(kind="regression", header=("A",),
                         rows=[[1.0], [2.0]]).write(str(tmp_path), "r")
        names = ("r.csv", "r.json")
        before = [(tmp_path / name).read_bytes() for name in names]
        bad = ExperimentReport(kind="regression", header=("A",),
                               rows=[[3.0], [object()]])
        with pytest.raises(TypeError):
            bad.to_csv(str(tmp_path / "r.csv"))
        with pytest.raises(TypeError):
            bad.to_json(str(tmp_path / "r.json"))
        assert [(tmp_path / name).read_bytes() for name in names] == before
        assert sorted(os.listdir(tmp_path)) == list(names)

    def test_failed_rename_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "r.csv"
        ExperimentReport(kind="regression", header=("A",),
                         rows=[[1.0]]).to_csv(str(path))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            ExperimentReport(kind="regression", header=("A",),
                             rows=[[2.0]]).to_csv(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["r.csv"]

    def test_column_accessor(self):
        report = ExperimentReport(kind="x", header=("A", "B"),
                                  rows=[[1, 2], [3, 4]])
        assert report.column("B") == [2, 4]


class TestRunComparison:
    def test_rows_and_m_column(self, tmp_path):
        config = _fast_regression_config(
            tmp_path, activations=("brownian", "relu"))
        report = run_comparison(config)
        assert report.header == REGRESSION_HEADER
        assert len(report.rows) == 2
        by_name = {row[2]: row for row in report.rows}
        assert by_name["BrownianReLU"][3] == 5
        assert by_name["BrownianReLU"][4] is not None
        assert by_name["ReLU"][3] is None
        assert by_name["ReLU"][4] is None
        for row in report.rows:
            assert row[0] == "sine-trend-3"
            assert row[1] == 1
            assert isinstance(row[8], int)

    def test_byte_identical_rerun(self, tmp_path):
        config = _fast_regression_config(
            tmp_path, activations=("brownian", "tanh"))
        run_comparison(config).write(str(tmp_path), "a")
        run_comparison(config).write(str(tmp_path), "b")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_fixed_alpha_is_reported_verbatim(self, tmp_path):
        config = _fast_regression_config(
            tmp_path, activations=("brownian",), alphas=(0.37,))
        report = run_comparison(config)
        assert report.rows[0][4] == 0.37


class TestRunSensitivity:
    def test_mean_rows_per_m_group(self, tmp_path):
        config = _fast_regression_config(tmp_path, activations=("brownian",),
                                         m_values=(5, 10), seeds=(1, 2))
        report = run_sensitivity(config)
        # Two seeds + one mean row per M value.
        assert len(report.rows) == 6
        seeds = report.column("Seed")
        assert seeds == [1, 2, "mean", 1, 2, "mean"]
        ms = report.column("M")
        assert ms == [5, 5, 5, 10, 10, 10]
        # Mean row averages the numeric columns of its group.
        mse = report.column("MSE")
        assert mse[2] == pytest.approx((mse[0] + mse[1]) / 2.0, rel=1e-12)

    def test_single_seed_has_no_mean_row(self, tmp_path):
        config = _fast_regression_config(tmp_path, activations=("brownian",))
        report = run_sensitivity(config)
        assert len(report.rows) == 1
        assert report.rows[0][1] == 1


class TestNormScope:
    def test_train_scope_fits_on_the_training_span(self, tmp_path):
        # A steep trend, so the test span climbs past the training span.
        config = _fast_regression_config(
            tmp_path, synth="gbm:1,200,100,2.0,0.05", norm_scope="train",
            activations=("relu",))
        values = load_series(config).values
        span = values[:math.floor(config.split * values.size)]
        _, train_ds, val_ds, test_ds = _regression_datasets(config)
        for ds in (train_ds, val_ds, test_ds):
            assert (ds.norm_min, ds.norm_max) == (span.min(), span.max())
        assert test_ds.targets.max() > 1.0
        report = run_comparison(config)
        assert report.column("Activation Function") == ["ReLU"]
        full = _regression_datasets(replace(config, norm_scope="full"))[3]
        assert full.norm_max == values.max() > span.max()
        assert full.targets.max() <= 1.0


class TestRunClassification:
    def test_brownian_expands_per_alpha(self, tmp_path):
        config = _fast_classification_config(
            tmp_path, activations=("brownian", "relu"), alphas=(0.1, 0.9))
        report = run_classification(config)
        assert report.header == CLASSIFICATION_HEADER
        assert len(report.rows) == 3
        assert [row[2] for row in report.rows] == [
            "BrownianReLU", "BrownianReLU", "ReLU"]
        assert report.rows[0][3] == 0.1
        assert report.rows[1][3] == 0.9
        for row in report.rows:
            for value in row[4:]:
                assert 0.0 <= value <= 1.0

    def test_learned_alpha_single_row(self, tmp_path):
        config = _fast_classification_config(
            tmp_path, activations=("brownian",), alphas="learned")
        report = run_classification(config)
        assert len(report.rows) == 1
        assert isinstance(report.rows[0][3], float)

    def test_regression_dataset_rejected(self, tmp_path):
        config = _fast_classification_config(tmp_path, synth="gbm:1,50")
        with pytest.raises(ConfigError, match="tabular"):
            run_classification(config)


class TestCellFailure:
    @pytest.mark.parametrize("runner,config,label", [
        (run_sensitivity, _fast_regression_config, "M=5"),
        (run_comparison, _fast_regression_config, "BrownianReLU"),
        (run_classification,
         lambda path: _fast_classification_config(path, alphas=(0.1, 0.9)),
         "BrownianReLU alpha=0.1"),
    ])
    def test_failure_names_cell_and_seed(self, tmp_path, monkeypatch,
                                         runner, config, label):
        def failing_train(*args, **kwargs):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(brownian_lstm.experiments, "train",
                            failing_train)
        with pytest.raises(RuntimeError) as info:
            runner(config(tmp_path))
        assert str(info.value) == f"cell ({label}, seed=1) failed: overflow"


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker pool forks")


class _CountingPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that records the worker counts it is given."""

    workers: list = []

    def __init__(self, max_workers, **kwargs):
        type(self).workers.append(max_workers)
        super().__init__(max_workers, **kwargs)


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def pool_on(monkeypatch):
    """Run harness cells as if 2 CPUs were usable; yields the worker
    counts of the pools started."""
    workers = []
    monkeypatch.setattr(_CountingPool, "workers", workers)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _CountingPool)
    _usable_cpus(monkeypatch, 2)
    return workers


@needs_fork
class TestWorkerPool:
    @pytest.mark.parametrize("runner,config", [
        (run_comparison,
         lambda path: _fast_regression_config(
             path, activations=("brownian", "relu", "gelu"), seeds=(1, 2))),
        (run_classification,
         lambda path: _fast_classification_config(
             path, activations=("brownian",), alphas=(0.1, 0.9))),
    ])
    def test_pool_and_serial_reports_are_byte_identical(
            self, tmp_path, monkeypatch, pool_on, runner, config):
        for cpus in (1, 2):
            _usable_cpus(monkeypatch, cpus)
            runner(config(tmp_path)).write(str(tmp_path), f"cpus{cpus}")
        assert pool_on == [2]
        for ext in ("csv", "json"):
            assert (tmp_path / f"cpus1.{ext}").read_bytes() == \
                (tmp_path / f"cpus2.{ext}").read_bytes()
        # Brownian cells ran in this process too (cpus1); their
        # read-ahead threads are daemons, and no worker is left.
        assert [t for t in threading.enumerate()
                if not t.daemon and t is not threading.main_thread()] == []
        assert multiprocessing.active_children() == []

    def test_workers_capped_and_joined_after_return(self, tmp_path,
                                                    pool_on):
        run_comparison(_fast_regression_config(
            tmp_path, activations=("relu", "tanh", "gelu")))
        assert pool_on == [2]
        assert multiprocessing.active_children() == []

    def test_one_job_runs_in_process(self, tmp_path, pool_on):
        run_comparison(_fast_regression_config(tmp_path,
                                               activations=("relu",)))
        assert pool_on == []

    def test_first_failure_in_report_order_and_workers_joined(
            self, tmp_path, pool_on, monkeypatch):
        # Every cell diverges in its worker; the first in report order
        # is the one reported.
        config = _fast_regression_config(
            tmp_path, activations=("relu", "tanh", "gelu"), seeds=(1, 2),
            train=TrainConfig(**{**FAST_TRAIN, "optimizer": "sgd",
                                 "learning_rate": 1e200}))
        # Set before the pool forks, so every worker trains unclipped.
        monkeypatch.setattr(training, "CLIP_NORM", 0.0)
        with pytest.raises(RuntimeError) as info:
            run_comparison(config)
        assert str(info.value).startswith("cell (ReLU, seed=1) failed: ")
        assert isinstance(info.value.__cause__, TrainingDiverged)
        assert pool_on == [2]
        assert multiprocessing.active_children() == []

    def test_pool_forks_only_after_read_ahead_is_joined(self,
                                                         monkeypatch):
        # A stream's read-ahead block is held back until a timer fires;
        # the pool must not be built (and fork) while it is pending.
        release = threading.Event()
        stream = RngStream(6)
        ReadAheadBits(stream, release)
        stream.standard_normals(3)
        stream.standard_normals(3)   # a read-ahead block is now pending
        pending_at_build = []

        class RecordingPool:
            def __init__(self, *args, **kwargs):
                pending_at_build.append(stream._worker.is_alive())

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        _usable_cpus(monkeypatch, 2)
        timer = threading.Timer(0.2, release.set)
        timer.start()
        with brownian_lstm.experiments._job_map(2) as run:
            assert list(run(abs, [-1, 2])) == [1, 2]
        timer.join(10)
        assert not timer.is_alive()
        assert pending_at_build == [False]

    def test_replaced_package_function_runs_in_process(
            self, tmp_path, monkeypatch, pool_on):
        # A tracer or spy that wraps a package function must see every
        # call, so the harness keeps the jobs in this process.
        real_train = brownian_lstm.experiments.train
        kinds = []

        def spy_train(params, kind, *args, **kwargs):
            kinds.append(kind.name)
            return real_train(params, kind, *args, **kwargs)

        monkeypatch.setattr(brownian_lstm.experiments, "train", spy_train)
        run_comparison(_fast_regression_config(
            tmp_path, activations=("relu", "tanh")))
        assert kinds == ["relu", "tanh"]
        assert pool_on == []


def test_config_error_from_a_cell_passes_through_unwrapped(tmp_path,
                                                          monkeypatch):
    def train_config_error(*args, **kwargs):
        raise ConfigError("bad cell")

    monkeypatch.setattr(brownian_lstm.experiments, "train",
                        train_config_error)
    with pytest.raises(ConfigError, match="bad cell"):
        run_comparison(_fast_regression_config(
            tmp_path, activations=("relu", "tanh")))


class TestPathsFigure:
    def test_files_and_alpha_zero_matches_relu(self, tmp_path):
        csv_path, svg_path = emit_paths_figure(
            [0.0, 1.0], [50], x_min=-3.0, x_max=3.0, seed=7,
            out_dir=str(tmp_path), points=61)
        assert os.path.exists(svg_path)
        lines = open(csv_path).read().splitlines()
        assert lines[0] == "alpha,M,x,f"
        rows = [line.split(",") for line in lines[1:]]
        zero = [(float(x), float(f)) for a, m, x, f in rows
                if float(a) == 0.0]
        assert len(zero) == 61
        for x, f in zero:
            assert f == max(x, 0.0)

    def test_noise_magnitude_shrinks_with_m(self, tmp_path):
        csv_path, _ = emit_paths_figure(
            [1.0], [100, 10000], x_min=-4.0, x_max=0.0, seed=7,
            out_dir=str(tmp_path), points=200)
        rows = [line.split(",") for line in
                open(csv_path).read().splitlines()[1:]]
        rms = {}
        for a, m, x, f in rows:
            rms.setdefault(int(m), []).append(float(f) ** 2)
        small = np.sqrt(np.mean(rms[100]))
        large = np.sqrt(np.mean(rms[10000]))
        # Sample means over M draws scale like 1 / sqrt(M): factor 10.
        assert small / large == pytest.approx(10.0, rel=0.3)

    def test_svg_has_one_polyline_per_curve(self, tmp_path):
        _, svg_path = emit_paths_figure(
            [0.0, 0.5], [10, 20], x_min=-2.0, x_max=2.0, seed=7,
            out_dir=str(tmp_path), points=11)
        svg = open(svg_path).read()
        assert svg.count("<polyline") == 4

    def test_requires_negative_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="negative"):
            emit_paths_figure([1.0], [10], x_min=0.5, x_max=2.0, seed=7,
                              out_dir=str(tmp_path))


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "brownian_lstm", *args],
        capture_output=True, text=True, cwd=cwd, env=child_env())


class TestCli:
    def test_describe_prints_summary(self, tmp_path):
        proc = _run_cli(["describe", "--synth", "gbm:7,100"], str(tmp_path))
        assert proc.returncode == 0
        assert "dataset=gbm-7 n=100 scale=normalized mean=" in proc.stdout

    def test_describe_raw_flag(self, tmp_path):
        proc = _run_cli(["describe", "--synth", "gbm:7,100", "--raw"],
                        str(tmp_path))
        assert proc.returncode == 0
        assert "scale=raw" in proc.stdout

    def test_describe_writes_csv_when_out_given(self, tmp_path):
        proc = _run_cli(["describe", "--synth", "gbm:7,60", "--out", "rep"],
                        str(tmp_path))
        assert proc.returncode == 0
        lines = (tmp_path / "rep" / "describe.csv").read_text().splitlines()
        assert lines[0] == "Dataset,N,Scale,Mean,Variance"

    def test_missing_file_exits_2(self, tmp_path):
        proc = _run_cli(["describe", "--data", "missing.csv"], str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_unreadable_data_path_exits_2(self, tmp_path):
        (tmp_path / "prices").mkdir()
        proc = _run_cli(["describe", "--data", "prices"], str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

    def test_malformed_csv_row_exits_2(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "Date,Open,Close\n2020-01-01,1.0,2.0\n2020-01-02,3.0\n")
        proc = _run_cli(["describe", "--data", "p.csv"], str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == "error: p.csv row 3: expected 3 cells, got 2\n"

    def test_nonpositive_price_exits_2_citing_row(self, tmp_path):
        (tmp_path / "p.csv").write_text("Date,Close\n2020-01-01,-3\n")
        proc = _run_cli(["describe", "--data", "p.csv"], str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: p.csv row 2: price -3 is not positive and finite\n")

    def test_bad_synth_exits_2(self, tmp_path):
        proc = _run_cli(["describe", "--synth", "nope:1"], str(tmp_path))
        assert proc.returncode == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        proc = _run_cli(["describe", "--bogus"], str(tmp_path))
        assert proc.returncode == 2

    def test_no_command_exits_2(self, tmp_path):
        proc = _run_cli([], str(tmp_path))
        assert proc.returncode == 2

    def test_train_writes_history_and_model(self, tmp_path):
        proc = _run_cli(
            ["train", "--synth", "sine:3,140", "--lookback", "8",
             "--hidden", "6", "--epochs", "2", "--activations", "relu",
             "--out", "run"], str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run" / "history.csv").exists()
        assert (tmp_path / "run" / "model.json").exists()
        assert "test_mse=" in proc.stdout

    def test_compare_writes_report(self, tmp_path):
        proc = _run_cli(
            ["compare", "--synth", "sine:3,140", "--lookback", "8",
             "--hidden", "6", "--epochs", "2", "--m", "5",
             "--activations", "relu,tanh", "--out", "rep"], str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "rep" / "comparison.csv").read_text().splitlines()
        assert lines[0] == ",".join(REGRESSION_HEADER)
        assert len(lines) == 3

    def test_paths_command(self, tmp_path):
        proc = _run_cli(
            ["paths", "--alpha", "0,1", "--m", "10", "--points", "21",
             "--out", "fig"], str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "fig" / "paths.csv").exists()
        assert (tmp_path / "fig" / "paths.svg").exists()

    @pytest.mark.parametrize("spec", [
        "gbm:1,0", "gbm:1,nan", "gbm:1,inf", "gbm:1,1500,-5", "sine:1,50",
        "sine:1,61", "tab:1,3,2", "gbm:1,1500.7"])
    def test_bad_data_spec_exits_2(self, spec, tmp_path, capsys):
        code = cli_main(["compare", "--synth", spec, "--epochs", "1",
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("args,message", [
        (["--lr", "inf"], "learning_rate must be > 0 and finite"),
        (["--alpha", "nan"], "alphas must be finite"),
        (["--alpha", "0.5,inf"], "alphas must be finite"),
        (["--activations", "prelu", "--alpha", "nan"],
         "alphas must be finite"),
        # A dict is a config file's keys; a number is not truncated.
        ({"epochs": 1.5}, "--epochs: invalid literal for int()"),
        ({"lookback": 7.99}, "--lookback: invalid literal for int()"),
        ({"hidden": True}, "--hidden: invalid literal for int()"),
        ({"lr": True}, "--lr: could not convert string to float"),
        ({"epoch": 1}, "config key(s) epoch match no flag of compare"),
        ({"label_column": "y", "batch": 4},
         "config key(s) label_column match no flag of compare"),
    ])
    def test_non_finite_setting_exits_2(self, args, message, tmp_path,
                                        capsys):
        base = {"synth": "sine:1,120", "lookback": "5", "hidden": "2",
                "epochs": "1"}
        if isinstance(args, dict):
            # The base settings go in the file too: a flag would win.
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**base, **args}))
            base, args = {}, ["--config", str(path)]
        code = cli_main(["compare", *(f"--{k}={v}" for k, v in base.items()),
                         "--out", str(tmp_path), *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command,activations", [
        ("compare", "prelu"), ("compare", "relu,tanh"), ("train", "tanh")])
    def test_fixed_alpha_without_brownian_exits_2(self, command, activations,
                                                  tmp_path, capsys):
        # A fixed alpha applies only to brownian cells.
        code = cli_main([command, "--synth", "sine:1,120", "--lookback", "5",
                         "--hidden", "2", "--epochs", "1", "--activations",
                         activations, "--alpha", "0.5",
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: alphas (0.5,) apply only to the brownian "
                       "activation, which this run does not train\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["compare", "sensitivity", "train"])
    def test_several_fixed_alphas_exit_2(self, command, tmp_path, capsys):
        # Only classify trains one cell per alpha; the others would
        # keep the first alpha and drop the rest.
        code = cli_main([command, "--synth", "sine:1,120", "--lookback", "5",
                         "--hidden", "2", "--epochs", "1", "--m", "5",
                         "--activations", "brownian", "--alpha", "0.1,0.9",
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: alphas (0.1, 0.9) hold 2 values")
        assert err.count("\n") == 1 and err.count("error:") == 1
        assert list(tmp_path.iterdir()) == []

    def test_classify_presets_alphas_for_baselines_too(self, tmp_path):
        # classify's preset alpha list must not reject a run without
        # brownian.
        code = cli_main(["classify", "--synth", "tab:1,60,3", "--hidden",
                         "2", "--epochs", "1", "--activations", "relu",
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "classification.csv").exists()

    @pytest.mark.parametrize("args,message", [
        (["--m", "0"], "sample count M must be >= 1, got 0"),
        (["--seed", "7,8"], "--seed: expected one value, got 2"),
        (["--alpha", "nan"], "alphas must be finite"),
        (["--xmin=-inf"], "x range [-inf, 5.0] must be finite"),
    ])
    def test_bad_paths_setting_exits_2(self, args, message, tmp_path,
                                       capsys):
        code = cli_main(["paths", "--points", "5", "--out", str(tmp_path),
                         *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "paths.csv").exists()

    def test_describe_reads_raw_from_the_config_file(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text('{"synth": "gbm:7,100", "raw": 1}')
        assert cli_main(["describe", "--config",
                         str(tmp_path / "cfg.json")]) == 0
        assert "scale=raw" in capsys.readouterr().out

    @pytest.mark.parametrize("raw", ['"false"', '"yes"', "2"])
    def test_describe_rejects_a_non_boolean_raw(self, tmp_path, capsys, raw):
        (tmp_path / "cfg.json").write_text(
            f'{{"synth": "gbm:7,100", "raw": {raw}}}')
        assert cli_main(["describe", "--config",
                         str(tmp_path / "cfg.json")]) == 2
        assert "--raw" in capsys.readouterr().err

    def test_config_file_merge_and_flag_override(self, tmp_path):
        cfg = {"synth": "sine:3,140", "lookback": 8, "hidden": 6,
               "epochs": 2, "m": "5", "activations": "relu",
               "out": "from-config"}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        proc = _run_cli(["compare", "--config", "cfg.json"], str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "from-config" / "comparison.csv").exists()
        # A flag overrides the same key in the config file.
        proc = _run_cli(["compare", "--config", "cfg.json", "--out",
                         "from-flag"], str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "from-flag" / "comparison.csv").exists()
