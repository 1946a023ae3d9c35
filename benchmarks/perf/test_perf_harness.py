"""Tests of the host-time benchmark harness, at tiny scale.

Run with ``python -m pytest benchmarks/perf/test_perf_harness.py``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_context(tmp_path) -> workloads.Context:
    return workloads.Context(seed=3, seconds=0.05, src=str(SRC),
                             workdir=str(tmp_path))


# --- the layer map ------------------------------------------------------------

def repro_modules():
    """Every module under ``src/repro`` as a dotted name, with a
    package's ``__init__`` named after the package."""
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        names.append(".".join(parts))
    return names


def test_every_module_maps_to_exactly_one_layer():
    keys_used = set()
    for module in repro_modules():
        key = tracer.layer_key(module)
        assert key is not None, f"{module} belongs to no layer"
        assert tracer.layer_of(module) in tracer.LAYERS
        keys_used.add(key)
    assert keys_used == set(tracer.LAYER_OF_MODULE), \
        "stale layer-map keys: " + ", ".join(
            sorted(set(tracer.LAYER_OF_MODULE) - keys_used))
    assert set(tracer.LAYER_OF_MODULE.values()) == set(tracer.LAYERS)


def test_every_wrap_target_exists_at_head():
    with tracer.LayerTracer() as layer_tracer:
        assert layer_tracer.missing == []


def test_benchmark_json_lists_every_layer_metric():
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in tracer.LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= names
    for metric in SPEC["per_layer"]:
        assert tracer.unit_of(metric["name"]) == metric["unit"]


# --- the traced run -----------------------------------------------------------

def _patched_objects():
    """Every object the tracer patches, read from where it lives."""
    layer_tracer = tracer.LayerTracer()
    layer_tracer.install()
    sites = [(owner, name) for owner, name, _ in layer_tracer._patches]
    layer_tracer.uninstall()
    return [(owner, name, owner[name] if isinstance(owner, dict)
             else owner.__dict__[name]) for owner, name in sites]


def test_traced_run_restores_every_wrapped_function():
    before = _patched_objects()
    assert len(before) > 100
    layer_tracer = tracer.LayerTracer()
    layer_tracer.install()
    try:
        changed = sum(
            1 for owner, name, original in before
            if (owner[name] if isinstance(owner, dict)
                else owner.__dict__[name]) is not original)
        assert changed == len(before)
    finally:
        layer_tracer.uninstall()
    for owner, name, original in before:
        now = owner[name] if isinstance(owner, dict) else owner.__dict__[name]
        assert now is original, f"{name} was not restored"


def _run_steps(stepper_cls, items):
    stepper = stepper_cls(workloads.make_inputs(5))
    workloads._loop(stepper, items)
    return stepper


@pytest.mark.parametrize("stepper_cls", [workloads.MixStepper,
                                         workloads.RoundStepper])
def test_traced_run_leaves_virtual_ledgers_unchanged(stepper_cls):
    plain = workloads._ledger(_run_steps(stepper_cls, 40).app)
    with tracer.LayerTracer() as layer_tracer:
        traced = workloads._ledger(_run_steps(stepper_cls, 40).app)
    assert sum(layer_tracer.calls.values()) > 0
    assert traced == plain


def test_layer_self_times_fit_in_the_traced_wall_time():
    with tracer.LayerTracer() as layer_tracer:
        stepper = workloads.RoundStepper(workloads.make_inputs(2))
        layer_tracer.reset()
        t0 = time.perf_counter_ns()
        workloads._loop(stepper, 30)
        wall_ns = time.perf_counter_ns() - t0
    attributed = sum(layer_tracer.self_ns.values())
    assert 0 < attributed <= wall_ns
    assert min(layer_tracer.self_ns.values()) >= 0


# --- reference-speed time against a known slowdown ------------------------------

def _burn(steps: int) -> int:
    acc = 0
    for i in range(steps):
        acc += i * i
    return acc


class _Junk:
    __slots__ = ("key", "refs")

    def __init__(self, key: int) -> None:
        self.key = key
        self.refs = [key]


@pytest.mark.parametrize("kind", ["cpu", "alloc"])
@pytest.mark.parametrize("stepper_cls,block,burn,junk", [
    (workloads.MixStepper, 25, 4000, 400),
    (workloads.ChurnStepper, 4, 30000, 3000),
])
def test_scaled_time_shows_an_injected_slowdown_at_its_wall_size(
        stepper_cls, block, burn, junk, kind):
    """Blocks of plain steps and of steps with a fixed extra cost (pure
    arithmetic, or objects allocated and held to the end of the block)
    alternate under one probe, so host load hits both arms alike.  Per
    pair of blocks, the slowdown in reference-speed time must match the
    slowdown in wall time within 8%: the calibration slices must not
    absorb a program slowdown as if it were host contention.  (They do
    absorb a little of an allocating one: it reads about 4% low.)"""
    stepper = stepper_cls(workloads.make_inputs(3))
    workloads._loop(stepper, block)
    plain = stepper.step
    kept = []

    def injected() -> int:
        if kind == "cpu":
            _burn(burn)
        else:
            kept.extend(_Junk(i) for i in range(junk))
        return plain()

    wall_ratios, scaled_ratios = [], []
    with SpeedProbe() as probe:
        for index in range(64):
            stepper.step = injected if index % 2 else plain
            spans, failed = workloads._loop(stepper, block)
            kept.clear()
            assert failed == 0
            wall = sum(probe.work_ns(t0, t1) for t0, t1 in spans)
            scaled = sum(probe.scaled_ns(t0, t1) for t0, t1 in spans)
            if index % 2:
                wall_ratios.append(wall / previous[0])
                scaled_ratios.append(scaled / previous[1])
            previous = (wall, scaled)
    assert statistics.median(wall_ratios) > 1.25, "the injection is too small"
    agreement = statistics.median(
        s / w for s, w in zip(scaled_ratios, wall_ratios))
    assert abs(agreement - 1.0) < 0.08, (
        f"scaled slowdown x{statistics.median(scaled_ratios):.3f} vs wall "
        f"x{statistics.median(wall_ratios):.3f}")


# --- printed metrics ----------------------------------------------------------

def _assert_printed(stdout: str, spec_key: str):
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    assert {name: record["unit"] for name, record
            in last["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1]), f"{name} not printed"


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace, capsys):
    code = run.main(["--workload", "write_churn", "--seconds", "0.05",
                     "--seed", "4", "--trace", trace])
    assert code == 0
    _assert_printed(capsys.readouterr().out,
                    "per_layer" if trace == "1" else "end_to_end")


def test_cli_workload_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "cli_commands", lambda name, seed: [
        ["chaos-soak", "--rounds", "2", "--requests", "2",
         "--seed", str(seed)]])
    outcome = workloads.run_cli("campaign_suite", tiny_context(tmp_path))
    assert outcome.correct, outcome.notes
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert names <= set(outcome.metrics)
    assert outcome.metrics["wall_s"]["value"] > 0


def test_in_process_outcomes_are_correct(tmp_path):
    for name in workloads.IN_PROCESS:
        outcome = workloads.run_in_process(name, tiny_context(tmp_path))
        assert outcome.correct, (name, outcome.notes)
        assert outcome.metrics["fail_frac"]["value"] == 0


def test_benchmark_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "syscall_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- the comparison rule ------------------------------------------------------

def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    better = [110.0 + i % 3 for i in range(10)]
    assert stats.verdict(parent, better, "higher", 0.1)[0] == "improved"
    assert stats.verdict(parent, [85.0] * 10, "higher", 0.1)[0] == \
        "regressed"
    assert stats.verdict(parent, list(parent), "higher", 0.1)[0] == \
        "unchanged"
    assert stats.verdict(parent[:9], better[:9], "higher", 0.1)[0] == \
        "unresolved"
    noisy = [100.0, 140.0] * 5
    assert stats.verdict(noisy, list(reversed(noisy)), "higher", 0.1)[0] \
        == "unresolved"
    # lower is better: a faster change of a latency metric
    assert stats.verdict(parent, [90.0] * 10, "lower", 0.1)[0] == "improved"
    # an absolute floor wider than the share: rss_growth_mb's 2 MB
    small = [1.0 + i % 2 / 100 for i in range(10)]
    assert stats.verdict(small, [2.5] * 10, "lower", 0.1, floor=2.0)[0] \
        == "unchanged"
    assert stats.verdict(small, [3.5] * 10, "lower", 0.1, floor=2.0)[0] \
        == "regressed"
    # exact metrics: one worse pair is a regression
    virt = [35.265] * 10
    assert stats.verdict(virt, list(virt), "lower", exact=True)[0] == \
        "unchanged"
    assert stats.verdict(virt, virt[:9] + [35.266], "lower",
                         exact=True)[0] == "regressed"


def _record(workload, trace, value, wall=None):
    metrics = {"ops_per_s": {"value": value, "unit": "1/s"}}
    if wall is not None:
        metrics["ops_per_s_wall"] = {"value": wall, "unit": "1/s"}
    return {"workload": workload, "trace": trace, "metrics": metrics}


def test_compare_pairs_runs_by_workload_and_trace():
    spec = {"ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.1}}
    parent, change = [], []
    for i in range(10):
        # the wall-clock twin regresses while the scaled rate holds
        parent += [_record("mix", 0, 100.0 + i % 3, wall=100.0 + i % 3),
                   _record("mix", 1, 50.0 + i % 3)]
        change += [_record("mix", 1, 50.0 + i % 3),
                   _record("mix", 0, 100.0 + i % 3, wall=80.0)]
    parent.append(_record("churn", 0, 10.0))
    rows, unpaired = stats.compare(parent, change, spec)
    assert [(r["workload"], r["trace"], r["verdict"], r["wall_verdict"])
            for r in rows] == [("mix", 0, "unchanged", "regressed"),
                               ("mix", 1, "unchanged", None)]
    assert unpaired == ["churn trace=0: 1 parent and 0 change runs"]
