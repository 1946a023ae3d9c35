"""Summaries and the parent-vs-change comparison rule.

:func:`compare` applies the rule of the choosing-metrics guide (§8): it
needs at least ten alternating parent/change pairs per workload, and it
claims a gain only when the change wins at least nine tenths of the
pairs (ties count for neither side) *and* the medians differ by more
than the interquartile range of the parent's own runs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of sorted samples."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def summary(values: Iterable[float], unit: str) -> Dict[str, float]:
    """A metric record: the samples' median as the reported ``value``,
    its unit, and the samples' quartiles and count."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "median": median, "q1": q1,
            "q3": q3, "n": len(values)}


def chunk_rates(durations_ns: Sequence[int], ops_per_item: float,
                chunk: int) -> List[float]:
    """Throughput (ops/s) of consecutive ``chunk``-item slices of a
    closed loop's per-item durations; a trailing partial slice counts
    when it is at least half a chunk."""
    rates = []
    for start in range(0, len(durations_ns), chunk):
        part = durations_ns[start:start + chunk]
        if len(part) * 2 >= chunk or not rates:
            rates.append(len(part) * ops_per_item * 1e9 / sum(part))
    return rates


def latency_metrics(durations_ns: Sequence[float]) -> Dict[str, dict]:
    """``op_p50_us`` / ``op_p95_us`` from per-item durations (ns)."""
    micros = sorted(d / 1e3 for d in durations_ns)
    q1, median, q3 = quartiles(micros)
    base = {"unit": "us", "median": median, "q1": q1, "q3": q3,
            "n": len(micros)}
    return {"op_p50_us": dict(base, value=percentile(micros, 0.50)),
            "op_p95_us": dict(base, value=percentile(micros, 0.95))}


# --- parent vs change -------------------------------------------------------

#: regression bounds of the metrics printed beside BENCHMARK.json's; the
#: file cannot hold them, because they are undefined on some workloads,
#: can be 0, or are virtual time.  ``floor`` is an absolute bound in the
#: metric's unit that applies when it is wider than the share; an
#: ``exact`` metric may not get worse in any pair.
EXTRA_METRICS: Dict[str, dict] = {
    "obs_ops_per_s": {"unit": "1/s", "better": "higher", "bound": 0.1},
    "wall_s": {"unit": "s", "better": "lower", "bound": 0.1},
    "wall_s_par": {"unit": "s", "better": "lower", "bound": 0.1},
    "rss_growth_mb": {"unit": "MB", "better": "lower", "bound": 0.1,
                      "floor": 2.0},
    "fail_frac": {"unit": "ratio", "better": "lower", "exact": True},
    "virt_us_per_op": {"unit": "virtual_us", "better": "lower",
                       "exact": True},
    "virt_mttr_us": {"unit": "virtual_us", "better": "lower",
                     "exact": True},
}

#: suffix of a metric's wall-clock twin: the same rate from wall time
#: with the calibration slices left out but not rescaled
WALL_SUFFIX = "_wall"


def _pairs(parent: List[dict], change: List[dict]
           ) -> Dict[Tuple[str, int], Tuple[List[dict], List[dict]]]:
    """Both sides' runs of each (workload, trace) key, in run order."""
    keyed: Dict[Tuple[str, int], Tuple[List[dict], List[dict]]] = {}
    for side, runs in ((0, parent), (1, change)):
        for run in runs:
            key = (run["workload"], run.get("trace", 0))
            keyed.setdefault(key, ([], []))[side].append(run)
    return keyed


def verdict(parent_values: Sequence[float], change_values: Sequence[float],
            better: str, bound: float = None, floor: float = 0.0,
            exact: bool = False) -> Tuple[str, int]:
    """(verdict, change wins) for one workload x metric over paired runs.

    ``improved``: the change wins >= 9/10 of the pairs and the medians
    differ by more than the parent's interquartile range.  ``regressed``:
    the change's median is worse than the parent's by more than
    ``bound`` (a share of the parent median) or ``floor``, whichever is
    wider; for a metric without a bound, by the mirror of the
    improvement rule.  ``unresolved``: fewer than ten pairs, or the
    parent's own spread is wider than the bound, unless every change run
    reads better than every parent run.  Otherwise ``unchanged``.  An
    ``exact`` metric is ``regressed`` when any pair got worse,
    ``unchanged`` when every pair is equal, else ``improved``.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent_values, change_values)
               if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent_values, change_values)
                 if sign * (c - p) < 0)
    pairs = len(parent_values)
    if exact:
        return ("regressed" if losses else "improved" if wins
                else "unchanged"), wins
    if pairs < MIN_PAIRS:
        return "unresolved", wins
    p_q1, p_med, p_q3 = quartiles(parent_values)
    c_med = statistics.median(change_values)
    gain = sign * (c_med - p_med)
    iqr = p_q3 - p_q1
    if wins >= WIN_SHARE * pairs and gain > iqr:
        return "improved", wins
    if bound is None:
        if losses >= WIN_SHARE * pairs and -gain > iqr:
            return "regressed", wins
        return "unchanged", wins
    allowed = max(bound * abs(p_med), floor)
    if -gain > allowed:
        return "regressed", wins
    every_run_better = (min(sign * c for c in change_values)
                        > max(sign * p for p in parent_values))
    if iqr > allowed and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def _values(pairs: List[Tuple[dict, dict]], name: str
            ) -> Tuple[List[float], List[float]]:
    return ([a["metrics"][name]["value"] for a, _ in pairs],
            [b["metrics"][name]["value"] for _, b in pairs])


def compare(parent: List[dict], change: List[dict], spec: Dict[str, dict]
            ) -> Tuple[List[dict], List[str]]:
    """(rows, unpaired): one row per workload x trace x metric present
    in both sides' runs, and a note for each workload x trace that only
    one side ran.

    ``spec`` maps metric name -> its entry (``unit``, ``better`` and,
    where it has one, ``bound``, ``floor`` or ``exact``).  A metric with
    a wall-clock twin in the runs gets the twin's verdict too
    (``wall_verdict``), so a change whose scaled and wall-clock results
    disagree shows.
    """
    rows = []
    unpaired = []
    for (workload, trace), (p_runs, c_runs) in sorted(
            _pairs(parent, change).items()):
        if not p_runs or not c_runs:
            unpaired.append(f"{workload} trace={trace}: {len(p_runs)} "
                            f"parent and {len(c_runs)} change runs")
            continue
        pairs = list(zip(p_runs, c_runs))
        present = set.intersection(
            *(set(run["metrics"]) for pair in pairs for run in pair))
        for name in sorted(present & set(spec)):
            entry = spec[name]
            judge = dict(better=entry["better"], bound=entry.get("bound"),
                         floor=entry.get("floor", 0.0),
                         exact=entry.get("exact", False))
            p_vals, c_vals = _values(pairs, name)
            result, wins = verdict(p_vals, c_vals, **judge)
            twin = name + WALL_SUFFIX
            wall_result = (verdict(*_values(pairs, twin), **judge)[0]
                           if twin in present else None)
            rows.append({
                "workload": workload, "trace": trace, "metric": name,
                "unit": entry["unit"], "pairs": len(pairs),
                "wins": wins, "verdict": result,
                "wall_verdict": wall_result,
                "parent": quartiles(p_vals),
                "change": quartiles(c_vals),
            })
    return rows, unpaired
