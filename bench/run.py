"""Fixed-seed benchmark of `minhom`: one workload per run.

    python3 bench/run.py --workload solve-wide --seed 1 --seconds 10 --trace 0

Run it from the root of the repository.  It writes the workload's input
files from the seed, times fresh interpreters importing `minhom.cli`
(set-up), runs the operations in a worker process (bench/worker.py), checks
every output against bench/oracle.py, and prints the metrics, the last line
being one JSON object.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 the worker wraps each layer's public functions in spans and
the metrics are per-layer self times and counts, per round of operations.
Times are scaled to a reference speed (worker.REFERENCE_S).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from worker import (COUNTED, REFERENCE_S, SPANS, SUCCESS,  # noqa: E402
                    timed_reference)

WORK_DIR = os.path.join("bench", "_work")
OUT_DIR = os.path.join("bench", "_out")
#: Rounds of the operation list run at least --seconds, and at least this
#: many times; each operation's latency is the median of its scaled times.
MIN_ROUNDS = 3
#: Fresh interpreters timed before the worker runs, and again after it.
SETUP_SAMPLES = 8
#: Time the worker may take, so that a run ends within three minutes.
WORKER_TIMEOUT_S = 150


def import_times(count):
    """Scaled wall time of `count` fresh interpreters that import
    minhom.cli, each scaled by the reference time measured before it."""
    env = dict(os.environ, PYTHONPATH="src")
    times = []
    for _ in range(count):
        scale = REFERENCE_S / timed_reference()
        start = time.perf_counter()
        # no timeout: waiting with one polls, and rounds the time up
        subprocess.run([sys.executable, "-c", "import minhom.cli"], env=env,
                       check=True)
        times.append((time.perf_counter() - start) * scale)
    return times


def check_outputs(ops, result):
    """(failed attempts, failure notes, problems in completed outputs)."""
    success = {str(code) for code in SUCCESS}
    failed, failures, problems = 0, [], []
    for op, codes, outs, error in zip(ops, result["codes"], result["outputs"],
                                      result["errors"]):
        bad = sum(n for code, n in codes.items() if code not in success)
        if bad:
            failed += bad
            failures.append(f"{op.name} ({bad}x): {error.strip()[-200:]}")
        for out in outs:
            problems += [f"{op.name}: {p}" for p in op.check(out)]
    return failed, failures, problems


def op_times(result):
    """Each operation's latency: the median over rounds of its latency
    scaled by the reference time measured just before it."""
    scaled = [[t * REFERENCE_S / r for t, r in zip(times, refs)]
              for times, refs in zip(result["latency_s"], result["reference_s"])]
    return [statistics.median(column) for column in zip(*scaled)]


def end_to_end(op_s, ok_ops, peak_rss_kb, setup):
    """Metrics from the operations' scaled latencies, the number of
    operations that succeed per round, the worker's peak RSS and the scaled
    set-up samples."""
    op_ms = [x * 1000 for x in op_s]
    return {
        "ops_per_s": (ok_ops / sum(op_s), "1/s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(op_ms, n=10)[-1], "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(result):
    """Self time per round, scaled by the run's median reference time, and
    the first round's counts."""
    trace, rounds = result["trace"], len(result["latency_s"])
    scale = REFERENCE_S / statistics.median(
        r for refs in result["reference_s"] for r in refs) / rounds
    metrics = {}
    for layer, names in SPANS.items():
        for _, attr in names:
            name = f"{layer}.{attr}"
            metrics[f"{name}_s"] = (trace["self_s"].get(name, 0.0) * scale, "s")
            if name in COUNTED:
                metrics[f"{name}_calls"] = (trace["calls"].get(name, 0),
                                            "count")
    metrics["solver.flow_nodes"] = (trace["flow_nodes"], "count")
    metrics["solver.flow_arcs"] = (trace["flow_arcs"], "count")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "minhom", "cli.py")):
        sys.exit("bench/run.py: src/minhom/cli.py not found; "
                 "run from the root of the repository")

    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    ops = workloads.WORKLOADS[args.workload](args.seed, workloads.Files(work))
    generate_s = time.perf_counter() - start
    ops_path = os.path.join(work, "ops.json")
    result_path = os.path.join(work, "result.json")
    with open(ops_path, "w", encoding="utf-8") as handle:
        json.dump([op.argv for op in ops], handle)

    setup = import_times(SETUP_SAMPLES + 1)[1:]  # the first compiles bytecode
    try:
        subprocess.run([sys.executable, os.path.join("bench", "worker.py"),
                        ops_path, result_path, str(args.seconds), str(MIN_ROUNDS),
                        str(args.trace)], check=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"bench/run.py: worker ran past {WORKER_TIMEOUT_S} s")
    except subprocess.CalledProcessError as exc:
        sys.exit(f"bench/run.py: worker exited with code {exc.returncode}")
    setup += import_times(SETUP_SAMPLES)
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)

    rounds = len(result["latency_s"])
    attempted = rounds * len(ops)
    failed, failures, problems = check_outputs(ops, result)
    op_s = op_times(result)
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(op_s, (attempted - failed) / rounds,
                             result["peak_rss_kb"], setup)

    round_s = [sum(times) for times in result["latency_s"]]
    reference_ms = 1000 * statistics.median(
        r for refs in result["reference_s"] for r in refs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds of {len(ops)} operations, {attempted} attempted, "
          f"{failed} failed; inputs made in {generate_s:.2f} s; rounds took "
          f"{' '.join(f'{x:.2f}' for x in round_s)} s; reference "
          f"{reference_ms:.3f} ms (median); scaled operation times sum to "
          f"{sum(op_s):.2f} s")
    for note in failures:
        print(f"failed: {note}")
    for note in problems[:20]:
        print(f"WRONG: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    os.makedirs(OUT_DIR, exist_ok=True)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT_DIR, out_name), "w", encoding="utf-8") as handle:
        json.dump(dict(summary, round_s=round_s, failures=failures,
                       problems=problems), handle, indent=1)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
