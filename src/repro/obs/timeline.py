"""Health timelines: compacting time-series of runtime vital signs.

The flight recorder samples a fixed set of health signals from the
heartbeat sweep (component leak bytes, root wear, message-domain
occupancy, degraded-set size — see
:meth:`repro.obs.recorder.FlightRecorder.sample_health`) into one
:class:`HealthTimeline` per collector.  Sampling is deterministic —
heartbeat-driven, no RNG, and charge-free — so a timeline is a pure function of the workload.

Compaction keeps every series bounded: once a series exceeds its cap
the points are decimated to every second sample (``points[::2]``),
repeatedly until under the cap.  The rule is applied identically when
recording (after each append) and when absorbing a shard blob (after
the concatenation), and both the serial and the parallel engine route
every cell through the same begin-cell/absorb path, so the stored
points are byte-identical at any ``--jobs`` count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: points a series may hold before decimation halves its resolution
DEFAULT_SERIES_CAP = 512


class TimeSeries:
    """One bounded series of ``(t_us, value)`` samples."""

    __slots__ = ("cap", "points")

    def __init__(self, cap: int = DEFAULT_SERIES_CAP) -> None:
        self.cap = cap
        self.points: List[Tuple[float, float]] = []

    def add(self, t_us: float, value: float) -> None:
        self.points.append((t_us, float(value)))
        self._compact()

    def _compact(self) -> None:
        while len(self.points) > self.cap:
            self.points = self.points[::2]

    def absorb(self, points: List[Any]) -> None:
        """Concatenate a shard's points (canonical order), then apply
        the same decimation rule a serial run would have applied."""
        self.points.extend((t, v) for t, v in points)
        self._compact()

    def last(self) -> Tuple[float, float]:
        return self.points[-1] if self.points else (0.0, 0.0)


class HealthTimeline:
    """A keyed bag of :class:`TimeSeries`, one per health signal."""

    def __init__(self) -> None:
        self.series: Dict[str, TimeSeries] = {}
        #: samples recorded before compaction (lifetime, mergeable)
        self.samples = 0

    # --- recording --------------------------------------------------------

    def record(self, key: str, t_us: float, value: float) -> None:
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = TimeSeries()
        series.add(t_us, value)
        self.samples += 1

    # --- shard plumbing ---------------------------------------------------

    def absorb(self, blob: Dict[str, Any]) -> None:
        """Fold a worker blob in (canonical cell order)."""
        for key, points in blob.get("series", {}).items():
            series = self.series.get(key)
            if series is None:
                series = self.series[key] = TimeSeries()
            series.absorb(points)
        self.samples += blob.get("samples", 0)

    # --- serialisation ----------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "samples": self.samples,
            "series": {key: [[t, v] for t, v in
                             self.series[key].points]
                       for key in sorted(self.series)},
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "HealthTimeline":
        out = cls()
        out.samples = int(data.get("samples", 0))
        for key, points in data.get("series", {}).items():
            series = out.series[key] = TimeSeries()
            series.points = [(float(t), float(v)) for t, v in points]
        return out

    # --- queries ----------------------------------------------------------

    def tail(self, n: int = 32) -> Dict[str, List[List[float]]]:
        """The last ``n`` points of every series (postmortem slice)."""
        return {key: [[t, v] for t, v in self.series[key].points[-n:]]
                for key in sorted(self.series)}

    def is_empty(self) -> bool:
        return not self.series

    def render(self) -> str:
        """The ``repro health`` text view: per-series summary plus a
        spark line over the retained points."""
        lines = [f"health timeline — {self.samples} samples, "
                 f"{len(self.series)} series"]
        for key in sorted(self.series):
            points = self.series[key].points
            if not points:
                continue
            values = [v for _, v in points]
            low, high = min(values), max(values)
            lines.append(
                f"  {key}: {len(points)} pts  "
                f"last={values[-1]:g}  min={low:g}  max={high:g}  "
                f"[{_spark(values)}]")
        return "\n".join(lines)


_SPARK_GLYPHS = " .:-=+*#%@"


def _spark(values: List[float], width: int = 24) -> str:
    """A fixed-width ASCII spark line (deterministic, ASCII-only so
    report bytes survive any terminal encoding)."""
    if not values:
        return ""
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    low, high = min(values), max(values)
    if high <= low:
        return "-" * len(values)
    scale = (len(_SPARK_GLYPHS) - 1) / (high - low)
    return "".join(_SPARK_GLYPHS[int((v - low) * scale)]
                   for v in values)
