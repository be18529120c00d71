"""Benchmark of the brownian_lstm package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-brownian --seed 2024 \\
        --seconds 36 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

The workloads are defined in workloads.py.  A run sets up the workload
(timed several times, in fresh processes, for setup_s), then repeats
rounds until about --seconds have passed, with at least two rounds so
that their reports can be compared byte for byte.

--trace 0 reports the end-to-end metrics of untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones (see layers.py), with the tracing overhead as the
difference of the two round times.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is a JSON
object under the key "info": library versions and BLAS threads, the git
revision, the report digest, and the end-to-end metrics under their
per-workload names (train_seq_per_s, score_batch_ms_p90, ...).
"""

import os

# Pin BLAS before anything imports numpy; child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
# Not used while the benchmark was written; check later claims on it.
HELD_OUT_SEED = 7919

END_TO_END = (
    ("setup_s", "s"),
    ("seq_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload, seed: int, workdir: str):
    """Import the package and prepare the workload; returns the state
    and the seconds it took."""
    t0 = time.perf_counter()
    bl = workloads.import_package(ROOT)
    state = workload.prepare(bl, seed, workdir)
    return state, time.perf_counter() - t0


def setup_samples(args, workdir: str) -> list[float]:
    """Set-up times of fresh processes (the import is only cold once per
    process)."""
    samples = []
    for i in range(SETUP_SAMPLES):
        sub = os.path.join(workdir, f"setup-{i}")
        os.makedirs(sub)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only", sub],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def git_revision(root: str) -> str:
    """HEAD of the checkout's git metadata, or 'unknown' without it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": git_revision(ROOT),
    }


def run_rounds(workload, state, seconds: float, tracer=None, table=None):
    """Rounds until about `seconds` have passed, at least two.

    With a tracer, rounds alternate untraced and traced, starting
    untraced.  Returns (round, traced segment totals or None) pairs; a
    round that raises is recorded as failed and ends the run."""
    out = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(out) % 2 == 1
        try:
            if traced:
                tracer.reset()
                with tracer.installed(table):
                    r = workload.run_round(state)
                out.append((r, (layers.raw_counts(tracer),
                                list(tracer.lists["epochs"]),
                                tracer.summary()["by_tag"])))
            else:
                r = workload.run_round(state)
                out.append((r, None))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            n = workload.ops_per_round()
            out.append((workloads.Round(
                ops=n, failed=n, wall_s=0.0, round_s=0.0, sequences=0,
                op_latencies_s=[], digest="", report_bytes=0,
                problems=["round raised an exception"]), None))
            break
        # Stop at the round boundary nearest to `seconds`.
        if len(out) >= 2 and (time.perf_counter() - start
                              + r.round_s / 2 > seconds):
            break
    return out


def tally(rounds) -> tuple[int, int, list[str]]:
    """Attempted and failed operations; a round whose report differs from
    the first round's counts all of its operations as failed."""
    first = rounds[0].digest
    attempted = failed = 0
    problems = []
    for i, r in enumerate(rounds):
        attempted += r.ops
        problems += r.problems
        if r.digest != first:
            problems.append(f"round {i} wrote a report that differs from "
                            f"round 0")
            failed += r.ops
        else:
            failed += r.failed
    return attempted, failed, problems


def end_to_end(rounds, setup_s: list[float]) -> dict:
    done = [r for r in rounds if r.wall_s > 0.0]
    latencies = [t for r in done for t in r.op_latencies_s]
    return {
        "setup_s": statistics.median(setup_s),
        "seq_per_s": sum(r.sequences for r in done)
                     / sum(r.wall_s for r in done),
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def named_metrics(workload, metrics: dict, rounds, setup_s, attempted,
                  failed) -> dict:
    """End-to-end metrics under their per-workload names, with units and
    sample counts."""
    n_rounds = len(rounds)
    named = {"setup_s": (metrics["setup_s"], "s", len(setup_s)),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB", 1),
             "fail_ratio": (failed / attempted, "ratio", attempted)}
    if isinstance(workload, workloads.ScoreWorkload):
        latencies = [t for r in rounds for t in r.op_latencies_s]
        p90 = checks.tail_percentile(latencies)
        named["score_seq_per_s"] = (metrics["seq_per_s"], "1/s", n_rounds)
        named["score_batch_ms_p50"] = (metrics["op_ms_p50"], "ms",
                                       len(latencies))
        named["score_batch_ms_p90"] = (
            None if p90 is None else 1000.0 * p90, "ms", len(latencies))
    else:
        named["train_seq_per_s"] = (metrics["seq_per_s"], "1/s", n_rounds)
        named["cell_ms_p50"] = (metrics["op_ms_p50"], "ms", n_rounds)
    return {k: {"value": v, "unit": u, "samples": n}
            for k, (v, u, n) in named.items()}


def per_call_breakdown(by_tag: dict) -> dict:
    """Per-call inclusive and self milliseconds of every tagged span, and
    the share of its time spent in each child span name."""
    out = {}
    for key, row in sorted(by_tag.items()):
        calls = row["calls"]
        out[key] = {
            "calls": calls,
            "incl_ms_per_call": 1000.0 * row["incl_s"] / calls,
            "self_ms_per_call": 1000.0 * row["self_s"] / calls,
            "child_share": {k: v / row["incl_s"] if row["incl_s"] else 0.0
                            for k, v in row["children_s"].items()},
        }
    return out


def trace_results(traced, untraced, setup_raw) -> tuple[dict, list[str], dict]:
    """Per-layer metrics: counts from the first traced round (they must
    repeat exactly in the others), times as medians over traced rounds."""
    overhead = (statistics.median(r.wall_s for r, _ in traced)
                - statistics.median(r.wall_s for r in untraced))
    per_round = [layers.per_layer(layers.combine(setup_raw, raw), overhead)
                 for _, (raw, _, _) in traced]
    metrics, problems = {}, []
    for name, unit in layers.PER_LAYER:
        values = [v[name] for v in per_round]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced rounds: "
                                f"{values}")
    info = {"traced_round_wall_s": [r.wall_s for r, _ in traced],
            "untraced_round_wall_s": [r.wall_s for r in untraced],
            "per_call": per_call_breakdown(traced[0][1][2])}
    return metrics, problems, info


def run(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    units = dict(END_TO_END if not args.trace else layers.PER_LAYER)
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        if args.trace:
            bl = workloads.import_package(ROOT)
            tracer = Tracer()
            table = layers.patches(bl)
            with tracer.installed(table):
                state = workload.prepare(bl, args.seed, workdir)
            setup_raw = layers.raw_counts(tracer)
            pairs = run_rounds(workload, state, args.seconds, tracer, table)
        else:
            samples = setup_samples(args, workdir)
            state, _ = setup(workload, args.seed, workdir)
            pairs = run_rounds(workload, state, args.seconds)
        rounds = [r for r, _ in pairs]
        attempted, failed, problems = tally(rounds)
        if all(r.wall_s == 0.0 for r in rounds):
            print("error: no round completed", file=sys.stderr)
            return 1
        info = {"workload": args.workload, "seed": args.seed,
                "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
                "epochs": workloads.EPOCHS, "rounds": len(rounds),
                "report_digest": rounds[0].digest,
                "environment": environment()}
        if args.trace:
            traced = [(r, seg) for r, seg in pairs if seg is not None]
            untraced = [r for r, seg in pairs if seg is None and r.wall_s > 0]
            if not traced or not untraced:
                print("error: need one untraced and one traced round",
                      file=sys.stderr)
                return 1
            for _, (_, epochs, _) in traced:
                wrong = sum(e != workloads.EPOCHS for e in epochs)
                if wrong:
                    problems.append(f"cells ran {epochs} epochs, not "
                                    f"{workloads.EPOCHS}")
                    failed += wrong
            metrics, trace_problems, trace_info = trace_results(
                traced, untraced, setup_raw)
            problems += trace_problems
            failed += len(trace_problems)
            info.update(trace_info)
        else:
            metrics = end_to_end(rounds, samples)
            info["setup_s_samples"] = samples
            info["round_wall_s"] = [r.wall_s for r in rounds]
            info["named"] = named_metrics(workload, metrics, rounds,
                                          samples, attempted, failed)
        info["problems"] = problems
    failed = min(failed, attempted)
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=600)
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        _, seconds = setup(workloads.WORKLOADS[args.workload], args.seed,
                           args.setup_only)
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
