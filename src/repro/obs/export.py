"""Recording (de)serialisation and Chrome trace-event export.

A *recording* is the canonical JSON document produced by
:meth:`ObsCollector.to_recording` — spans, metrics, profile — saved
with sorted keys so byte-identity claims are testable with a plain file
diff.  From a recording this module derives:

* :func:`to_chrome_trace` — the Chrome trace-event JSON that
  ``repro trace export`` writes.  Spans become ``"X"`` (complete)
  events: ``ts``/``dur`` in virtual microseconds, one ``pid`` per
  recorder track (named via ``"M"`` metadata events so Perfetto and
  ``chrome://tracing`` label the lanes), span/parent ids carried in
  ``args`` for the causal tree;
* :func:`to_folded` — the profiler's folded-stack text (see
  :mod:`repro.obs.profiler`);
* :func:`validate_chrome_trace` — the minimal schema check the CI obs
  smoke job runs on exported traces.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .profiler import folded_lines


def save_recording(recording: Dict[str, Any], path: str) -> None:
    """Write a recording with sorted keys (byte-stable across runs)."""
    with open(path, "w") as fh:
        json.dump(recording, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_recording(path: str) -> Dict[str, Any]:
    """Read a recording back, sanity-checking the document kind."""
    with open(path) as fh:
        recording = json.load(fh)
    if recording.get("kind") != "repro-flight-recording":
        raise ValueError(f"{path} is not a flight recording")
    return recording


def _frame_mentions(frame: str, component: str) -> bool:
    """Does one span-name/profile frame belong to ``component``?
    Matches the exact name, the ``COMP.func`` dispatch form and the
    ``verb:COMP`` checkpoint form."""
    return (frame == component
            or frame.startswith(component + ".")
            or frame.endswith(":" + component))


def _span_matches(item: Dict[str, Any], component: Optional[str],
                  category: Optional[str]) -> bool:
    if category is not None and item["cat"] != category:
        return False
    if component is None:
        return True
    if _frame_mentions(item["name"], component):
        return True
    return any(value == component for value in item["args"].values())


def filter_recording(recording: Dict[str, Any],
                     component: Optional[str] = None,
                     category: Optional[str] = None) -> Dict[str, Any]:
    """A filtered copy of a recording for export.

    ``component`` keeps spans that name or reference the component
    (span name, ``COMP.func`` dispatch names, ``verb:COMP`` checkpoint
    names, any ``args`` value) and profile stacks with a matching
    frame; ``category`` keeps spans of that category and profile
    stacks whose mechanism leaf matches.  Parent links onto
    filtered-out spans are cut, so kept subtrees re-root and the
    exported trace still validates.  The original is not mutated.
    """
    if component is None and category is None:
        return recording
    spans = [dict(item) for item in recording["spans"]
             if _span_matches(item, component, category)]
    kept = {item["sid"] for item in spans}
    for item in spans:
        if item["parent"] is not None and item["parent"] not in kept:
            item["parent"] = None
    profile: Dict[str, Any] = {}
    for key, value in recording["profile"].items():
        frames = key.split(";")
        if category is not None and frames[-1] != category:
            continue
        if component is not None and not any(
                _frame_mentions(frame, component) for frame in frames):
            continue
        profile[key] = value
    out = dict(recording)
    out["spans"] = spans
    out["profile"] = profile
    return out


def to_chrome_trace(recording: Dict[str, Any]) -> Dict[str, Any]:
    """Render a recording as a Chrome trace-event document."""
    events: List[Dict[str, Any]] = []
    tracks = set()
    for item in recording["spans"]:
        tracks.add(item["track"])
        args = dict(item["args"])
        args["span_id"] = item["sid"]
        if item["parent"] is not None:
            args["parent"] = item["parent"]
        end_us = item["end_us"]
        events.append({
            "name": item["name"],
            "cat": item["cat"],
            "ph": "X",
            "ts": item["start_us"],
            "dur": (0.0 if end_us is None
                    else end_us - item["start_us"]),
            "pid": item["track"],
            "tid": 0,
            "args": args,
        })
    for track in sorted(tracks):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": track,
            "tid": 0,
            "args": {"name": f"sim-{track}"},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro flight recorder",
            "clock": "virtual-us",
            "spans_dropped": recording.get("spans_dropped", 0),
        },
    }


def to_folded(recording: Dict[str, Any]) -> str:
    """Render the recording's profile as folded-stack text."""
    profile = {key: (value["us"], value["count"])
               for key, value in recording["profile"].items()}
    return "\n".join(folded_lines(profile)) + "\n"


def validate_chrome_trace(document: Dict[str, Any]) -> List[str]:
    """Check a trace document against the minimal Chrome trace-event
    schema; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    ids = set()
    for position, event in enumerate(events):
        where = f"event[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase == "X":
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    problems.append(f"{where}: {key!r} not numeric")
            if isinstance(event.get("dur"), (int, float)) \
                    and event["dur"] < 0:
                problems.append(f"{where}: negative dur")
            sid = event.get("args", {}).get("span_id")
            if sid is None:
                problems.append(f"{where}: args.span_id missing")
            elif sid in ids:
                problems.append(f"{where}: duplicate span_id {sid}")
            else:
                ids.add(sid)
        elif phase != "M":
            problems.append(f"{where}: unknown phase {phase!r}")
    for position, event in enumerate(events):
        if isinstance(event, dict) and event.get("ph") == "X":
            parent = event.get("args", {}).get("parent")
            if parent is not None and parent not in ids:
                problems.append(
                    f"event[{position}]: parent {parent} not in trace")
    return problems
