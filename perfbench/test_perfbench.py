"""Tests of the benchmark itself (not part of the package's test suite).

Run with:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import types

import checks
import layers
import run
import workloads
from tracer import BOOKKEEPING, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_on_hand_built_tree():
    #   0: root   [0, 10]
    #   1:   a    [1, 4]      2: grandchild of a  [2, 3]
    #   3:   b    [3, 6]      overlaps a; the union [1, 6] is covered once
    #   4:   c    [9, 12]     runs past the root and is clipped to [9, 10]
    starts = [0.0, 1.0, 2.0, 3.0, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == [4.0, 2.0, 1.0, 3.0, 3.0]


def test_tracer_spans_nest_and_bookkeeping_is_not_self_time():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf(x):
        return x + 1

    seen = []
    inner = tracer.wrap("leaf", leaf,
                        after=lambda t, span, a, k, r: seen.append(r))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and seen == [2]
    by_name = tracer.summary()["by_name"]
    # outer [0, 5], leaf [1, 2], then leaf's bookkeeping [3, 4].
    assert by_name["leaf"]["calls"] == 1
    assert by_name["leaf"]["self_s"] == 1.0
    assert by_name[BOOKKEEPING]["self_s"] == 1.0
    assert by_name["outer"]["incl_s"] == 5.0
    assert by_name["outer"]["self_s"] == 3.0


def test_installed_patches_restore_the_originals():
    def original(x):
        return x

    module = types.SimpleNamespace(fn=original)
    tracer = Tracer()
    with tracer.installed([(module, "fn", "fn", None)]):
        assert module.fn is not original
        assert module.fn(3) == 3
    assert module.fn is original
    assert tracer.summary()["by_name"]["fn"]["calls"] == 1


def test_p90_needs_ten_samples_beyond_it():
    assert checks.tail_percentile(range(1, 100)) is None
    assert checks.tail_percentile(range(1, 101)) == 90
    assert checks.tail_percentile([5.0] * 200) is None
    assert checks.tail_percentile([]) is None


def test_determinism_check_catches_a_one_byte_change(tmp_path):
    paths = []
    for name, text in (("r.csv", "a,b\n1,2.000000\n"), ("r.json", "{}\n")):
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    first = checks.report_digest(paths)
    assert checks.report_digest(paths) == first
    data = bytearray((tmp_path / "r.csv").read_bytes())
    data[-3] ^= 1
    (tmp_path / "r.csv").write_bytes(bytes(data))
    changed = checks.report_digest(paths)
    assert changed != first

    def round_with(digest):
        return workloads.Round(ops=2, failed=0, wall_s=1.0, round_s=1.0,
                               sequences=1, op_latencies_s=[1.0],
                               digest=digest, report_bytes=1)

    attempted, failed, problems = run.tally(
        [round_with(first), round_with(first), round_with(changed)])
    assert (attempted, failed) == (6, 2)
    assert problems == ["round 2 wrote a report that differs from round 0"]


def test_nonfinite_cells():
    rows = [["x", 1, None, 0.5], ["y", 2, float("nan"), float("inf")]]
    assert checks.nonfinite_cells(rows) == [(1, 2), (1, 3)]


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_report_matches_untraced_report(tmp_path):
    bl = workloads.import_package(ROOT)
    config = bl.experiments.ExperimentConfig(
        synth="sine:5,120", activations=("brownian", "tanh"), m_values=(50,),
        lookback=8, hidden_dim=4, seeds=(5,),
        train=bl.training.TrainConfig(max_epochs=1, patience=1))
    harness = bl.experiments.run_comparison
    plain = harness(config)
    tracer = Tracer()
    with tracer.installed(layers.patches(bl)):
        traced = bl.experiments.run_comparison(config)
    assert bl.experiments.run_comparison is harness
    assert plain.rows == traced.rows
    raw = layers.raw_counts(tracer)
    assert raw["cells"] == 2 and raw["epochs"] == 2
    assert raw["normals_drawn"] > 0
    values = layers.per_layer(raw, overhead_s=0.0)
    assert set(values) == {name for name, _ in layers.PER_LAYER}
    assert values["lstm.trace_bytes"] > 0


def test_fails_without_printing_a_result_when_the_package_is_missing(
        tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-brownian",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
