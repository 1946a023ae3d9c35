"""Host-time benchmark of the VampOS reproduction.

One workload, the way BENCHMARK.json's command runs it::

    python3 benchmarks/perf/run.py --workload syscall_mix --seed 1 \\
        --seconds 12 --trace 0

prints each metric with its unit, median, quartiles and sample count,
then, as the last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``).

Without ``--workload`` it runs all five workloads, each in a fresh child
process, prints the table and appends one line to ``history.jsonl``.
``--out FILE`` appends every run's record to FILE; ``--compare PARENT
CHANGE`` compares two such files (see ``stats.compare``).  ``--src
PATH`` measures another source tree (a ``src`` directory) with this
harness.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
HISTORY = HERE / "history.jsonl"


def parse_args(argv: Optional[List[str]],
               workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="host-time benchmark of the VampOS reproduction")
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="run one workload in this process "
                             "(default: all five, each in a child)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run")
    parser.add_argument("--src", default=None, metavar="PATH",
                        help="source tree to measure (default: src/ of "
                             "this checkout)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append each run's record to FILE (JSON lines)")
    parser.add_argument("--compare", nargs=2, default=None,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two --out files of alternating runs")
    return parser.parse_args(argv)


# --- printing -----------------------------------------------------------------

def format_record(name: str, record: dict) -> str:
    return (f"  {name:30s} {record['value']:>14.6g} {record['unit']:<10s}"
            f" median {record['median']:.6g}  q1 {record['q1']:.6g}  "
            f"q3 {record['q3']:.6g}  n={record['n']}")


def result_line(outcome, names: List[str]) -> str:
    """The last stdout line: the run's counts and the named metrics."""
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name]["value"],
                           "unit": outcome.metrics[name]["unit"]}
                    for name in names},
    })


# --- one workload -------------------------------------------------------------

def run_one(args: argparse.Namespace, spec: dict) -> int:
    import workloads

    started = time.perf_counter()
    # CLI subprocesses run in a temporary directory inside the checkout:
    # the benchmark reads and writes nothing outside it
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                                src=args.src, workdir=workdir)
        outcome = workloads.run_workload(args.workload, ctx,
                                         trace=bool(args.trace))
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} jobs={workloads.JOBS} "
          f"({time.perf_counter() - started:.1f}s)")
    for name in names + sorted(set(outcome.metrics) - set(names)):
        print(format_record(name, outcome.metrics[name]))
    for note in outcome.notes:
        print(f"  note: {note}")
    print(f"  correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(run_record(args, outcome)) + "\n")
    print(result_line(outcome, names))
    return 0


def run_record(args: argparse.Namespace, outcome) -> dict:
    """Everything one run measured (the ``--out`` line)."""
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "correct": outcome.correct,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": outcome.metrics}


# --- all workloads ------------------------------------------------------------

def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in a fresh child process, so no workload's heap
    taxes the next; prints the table and appends a history line."""
    results: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        for name in (w["name"] for w in spec["workloads"]):
            record_path = os.path.join(workdir, f"{name}.jsonl")
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--src", args.src,
                    "--out", record_path]
            code = subprocess.run(argv, cwd=ROOT, timeout=600).returncode
            if code != 0 or not os.path.exists(record_path):
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            with open(record_path) as fh:
                results[name] = json.loads(fh.read())
    if args.out:
        with open(args.out, "a") as fh:
            for record in results.values():
                fh.write(json.dumps(record) + "\n")
    print_table(results, spec, args.trace)
    append_history(results, args)
    return 0 if all(r["correct"] for r in results.values()) else 1


def print_table(results: Dict[str, dict], spec: dict, trace: int) -> None:
    """Workload columns; each cell is the run's value of the metric."""
    names = [m["name"] for m in spec["per_layer" if trace
                                     else "end_to_end"]]
    extra = sorted({n for r in results.values() for n in r["metrics"]}
                   - set(names))
    print()
    print("metric".ljust(28) + "unit".ljust(11)
          + "".join(w[:15].rjust(16) for w in results))
    for name in names + extra:
        unit = next(r["metrics"][name]["unit"] for r in results.values()
                    if name in r["metrics"])
        cells = "".join(
            (f"{r['metrics'][name]['value']:.5g}" if name in r["metrics"]
             else "-").rjust(16) for r in results.values())
        print(name.ljust(28) + unit.ljust(11) + cells)
    print("correct".ljust(39) + "".join(
        str(r["correct"]).rjust(16) for r in results.values()))


def _git_rev() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


# time-like metrics scale with machine speed: normalise them by the
# vanilla control measured in the same run
_RATE_UNITS = {"1/s"}
_TIME_UNITS = {"s": 1.0, "us": 1e-6}


def append_history(results: Dict[str, dict], args: argparse.Namespace) -> None:
    line = {
        "rev": _git_rev(),
        "machine": {"arch": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "src": "default" if args.src == str(ROOT / "src") else args.src,
        "workloads": {},
    }
    for name, result in results.items():
        metrics = result["metrics"]
        vanilla = metrics.get("vanilla_ops_per_s", {}).get("value")
        normalised = {}
        for metric, record in metrics.items():
            if vanilla and record["unit"] in _RATE_UNITS:
                normalised[metric] = record["value"] / vanilla
            elif vanilla and record["unit"] in _TIME_UNITS:
                normalised[metric] = (record["value"]
                                      * _TIME_UNITS[record["unit"]] * vanilla)
        line["workloads"][name] = {
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics,
            "vs_vanilla": normalised,
        }
    with open(HISTORY, "a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended to {HISTORY.relative_to(ROOT)}")


# --- compare ------------------------------------------------------------------

def run_compare(paths: List[str], spec: dict) -> int:
    import stats

    def load(path: str) -> List[dict]:
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics.update(stats.EXTRA_METRICS)
    rows, unpaired = stats.compare(load(paths[0]), load(paths[1]), metrics)
    print(f"{'workload':22s} {'metric':28s} {'parent median [q1,q3]':>30s} "
          f"{'change median [q1,q3]':>30s} wins/pairs  verdict")
    for row in rows:
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        workload = row["workload"] + (" trace" if row["trace"] else "")
        wall = row["wall_verdict"]
        note = (f" (wall clock: {wall})"
                if wall is not None and wall != row["verdict"] else "")
        print(f"{workload:22s} {row['metric']:28s} "
              f"{p_med:>12.5g} [{p_q1:.4g},{p_q3:.4g}]".ljust(83)
              + f"{c_med:>12.5g} [{c_q1:.4g},{c_q3:.4g}]".ljust(32)
              + f"{row['wins']:>4d}/{row['pairs']:<5d} {row['verdict']}"
              + note)
    for line in unpaired:
        print(f"not compared: {line}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if not SPEC_PATH.is_file():
        print(f"missing {SPEC_PATH.name} at the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.compare:
        return run_compare(args.compare, spec)
    args.src = os.path.abspath(args.src or ROOT / "src")
    if not (pathlib.Path(args.src) / "repro" / "__init__.py").is_file():
        print(f"no repro package under {args.src}: the benchmark needs the "
              "program's source tree", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    sys.path.insert(0, args.src)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
