"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload refute --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness 10 --seconds 20   # every workload

A run measures one workload for ``--seconds`` seconds in this fresh
process, checks every output against ``perfbench/truth.json``, prints a
human-readable report, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured by timing wrappers around the program's public layer
functions (see ``spans.py``).  ``--steadiness N`` runs each workload N
times, each in a fresh process with its own seed, and prints every
metric's median, quartiles and spread.

The program under test is the checkout's ``src/repro``; without it the
benchmark exits with status 2 before measuring anything.  Scratch
files live under ``.perfbench/`` at the checkout root and are removed
at the end of each run, except the span dumps of traced runs
(``.perfbench/traces``) and the per-run results (``.perfbench/results``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _isolate() -> None:
    """Make this process run the checkout's program with default settings."""
    from workloads import CLEARED_ENV

    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import the program from {SRC}: {error}")
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"perfbench: imported repro from {location}, not from {SRC}")


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _isolate()
    import workloads

    declared = benchmark_spec()
    if workload not in [entry["name"] for entry in declared["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    truth = workloads.load_truth()
    spec = workloads.make_spec(workload, seed, truth)
    ctx = workloads.Context(workload, seed, trace)
    os.environ["REPRO_RUNS_DIR"] = str(ctx.runs_dir)
    try:
        result = workloads.RUNNERS[workload](ctx, spec, truth, seconds)
    finally:
        ctx.close()
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    values = result.layers if trace else result.metrics
    metrics = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in wanted
    }
    failed = len(result.failures)
    environment = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "spec": spec,
    }
    record = {
        "environment": environment,
        "attempted": result.attempted,
        "failed": failed,
        "failed_frac": failed / result.attempted if result.attempted else 1.0,
        "failures": result.failures,
        "metrics": metrics,
        "report": result.report,
    }
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(
        results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8"
    ) as stream:
        json.dump(record, stream, indent=1, default=str)
    _print_report(record)
    print(
        json.dumps(
            {
                "correct": failed == 0 and result.attempted > 0,
                "attempted": max(result.attempted, 1),
                "failed": failed if result.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


def _print_report(record: dict) -> None:
    environment = record["environment"]
    print(
        f"# workload={environment['workload']} seed={environment['seed']} "
        f"seconds={environment['seconds']} trace={int(environment['trace'])} "
        f"cpu_count={environment['cpu_count']} python={environment['python']}"
    )
    print(f"# spec {json.dumps(environment['spec'], separators=(',', ':'))[:400]}")
    print(f"attempted {record['attempted']}  failed {record['failed']}")
    for failure in record["failures"][:20]:
        print(f"  FAILED: {failure}")
    print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} ratio")
    for name, value in sorted(record["report"].items()):
        unit = report_unit(name)
        if isinstance(value, (list, tuple)):  # a tail: (percentile, value, samples)
            percentile, value, samples = value
            print(f"  {name:40s} {value:.6g} {unit} (p{percentile:g} of {samples})")
        elif value is None:
            print(f"  {name:40s} None (fewer than eleven samples)")
        else:
            print(f"  {name:40s} {value:.6g} {unit}")
    for name, metric in record["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")


def report_unit(name: str) -> str:
    """The unit of a report figure, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("verdict_s."):
        return "s"
    return "count"


# -- steadiness ---------------------------------------------------------------


def steadiness(runs: int, seconds: float, names: list[str], trace: bool, first_seed: int) -> int:
    """Run each workload ``runs`` times in fresh processes; print spreads."""
    declared = benchmark_spec()
    bounds = {entry["name"]: entry.get("bound") for entry in declared["end_to_end"]}
    status = 0
    for workload in names:
        values: dict[str, list[float]] = {}
        figures: dict[str, list[float]] = {}
        failed = 0
        for offset in range(runs):
            seed = first_seed + offset
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                str(int(trace)),
            ]
            started = time.perf_counter()
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            wall = time.perf_counter() - started
            if completed.returncode != 0:
                print(f"{workload} seed {seed}: exit {completed.returncode}")
                print(completed.stderr[-2000:])
                status = 1
                continue
            line = json.loads(completed.stdout.strip().splitlines()[-1])
            failed += line["failed"]
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            results = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
            with open(results, encoding="utf-8") as stream:
                for name, value in json.load(stream)["report"].items():
                    if isinstance(value, list):  # a tail: (percentile, value, samples)
                        name, value = f"{name} (p{value[0]:g})", value[1]
                    if isinstance(value, (int, float)):
                        figures.setdefault(name, []).append(value)
            print(
                f"{workload} seed {seed}: {wall:.1f}s  failed {line['failed']}/"
                f"{line['attempted']}  "
                + "  ".join(f"{n}={m['value']:.5g}" for n, m in line["metrics"].items()),
                flush=True,
            )
        print(f"== {workload}: {runs} runs, {failed} failed operations")
        _print_spreads(values, {} if trace else bounds)
        print("   report figures (not bounded):")
        _print_spreads(figures, {})
        sys.stdout.flush()
    return status


def _print_spreads(values: dict, bounds: dict) -> None:
    """Median, quartiles and spread (IQR over median) of each metric."""
    print(f"   {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
    for name, samples in values.items():
        if len(samples) < 2:
            continue
        q1, _, q3 = statistics.quantiles(samples, n=4)
        middle = statistics.median(samples)
        spread = (q3 - q1) / middle if middle else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f"{bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"   {name:44s} {middle:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}  {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steadiness",
        type=int,
        metavar="N",
        help="run each workload (or --workload) N times with seeds --seed.. and print spreads",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file() or not SRC.is_dir():
        print(f"perfbench: {ROOT} needs BENCHMARK.json and the program's src/", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    if args.steadiness is not None:
        names = (
            [args.workload]
            if args.workload
            else [entry["name"] for entry in benchmark_spec()["workloads"]]
        )
        return steadiness(args.steadiness, seconds, names, bool(args.trace), args.seed)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
