"""Execute a recovery plan as overlapping virtual-time tracks.

The scheduler is the only place in the runtime that moves the clock
non-monotonically, and it does so under one discipline, mirroring how
the parallel engine merges shard ledgers:

* Tracks run **in the exact serial sweep order** — the sequence of
  ``sim.charge(category, amount)`` calls is byte-for-byte what the
  serial sweep would issue, so ledger totals and counts stay
  bit-identical (float addition order preserved).
* Before each track the clock **seeks** to that track's ready time:
  the episode start, or the latest completion wave among its failed
  providers (a dependent's replay re-issues calls into its providers,
  so it must not come back first).
* After the last track the clock seeks to the **max-merged** track
  end.  Elapsed episode time is therefore the dependency DAG's
  critical path instead of the sum of reboot costs — that delta is the
  whole optimisation.

Every timestamp written during a track (reboot records, spans, trace
events) is ≤ the merged end, so observers downstream of the episode
still see monotonic time.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from .planner import RecoveryPlan


def execute_plan(kernel: Any, plan: RecoveryPlan,
                 reason: str = "heartbeat", replay: bool = True,
                 reboot: Optional[Callable[[str], Any]] = None
                 ) -> List[Any]:
    """Run ``plan``'s tracks against ``kernel``, overlapping where the
    plan allows.  Returns the :class:`RebootRecord` list in serial
    sweep order.

    ``reboot`` overrides the per-track action (defaults to
    ``kernel.reboot_component``); a track that raises aborts the
    episode with the clock max-merged over the tracks that completed —
    the same exception the serial sweep would propagate.  A ``reboot``
    that returns ``None`` *skips* the track (zero duration, nothing
    recorded): the heartbeat's precheck does this when an earlier
    track's replay already healed the component, exactly as the serial
    sweep would find it healthy at its turn.
    """
    sim = kernel.sim
    clock = sim.clock
    if reboot is None:
        def reboot(name: str) -> Any:
            return kernel.reboot_component(name, reason=reason,
                                           replay=replay)
    t0 = clock.now_us
    end_at = {}
    merged_end = t0
    obs = sim.obs
    pspan = None
    if obs is not None:
        obs.inc("recovery.plans")
        pspan = obs.open_span("recovery_plan", reason,
                              tracks=plan.track_count,
                              levels=len(plan.levels))
    sim.emit("supervisor", "recovery_plan",
             tracks=plan.track_count,
             levels=[list(bucket) for bucket in plan.levels],
             reason=reason)
    records: List[Any] = []
    try:
        for track in plan.tracks:
            ready = t0
            for provider in track.providers:
                provider_end = end_at.get(provider)
                if provider_end is not None and provider_end > ready:
                    ready = provider_end
            clock.seek(ready)
            track.start_us = ready
            tspan = None
            if obs is not None:
                tspan = obs.open_span("recovery_track", track.unit,
                                      level=track.level)
            try:
                record = reboot(track.component)
            finally:
                track.end_us = clock.now_us
                if track.end_us > merged_end:
                    merged_end = track.end_us
                if obs is not None:
                    obs.close_span(tspan,
                                   track_us=track.end_us - track.start_us)
            end_at[track.unit] = track.end_us
            if record is not None:
                records.append(record)
    finally:
        if clock.now_us < merged_end:
            clock.seek(merged_end)
        sup = getattr(kernel, "supervisor", None)
        if sup is not None:
            # Attribute the max-merge seek to resume; per-track time was
            # already marked inside each reboot (the phase clock ignores
            # the backwards seeks between overlapping tracks).
            sup.phase_mark("resume")
        if obs is not None:
            obs.close_span(pspan, planned_us=clock.now_us - t0)
    telemetry = getattr(getattr(kernel, "supervisor", None),
                        "telemetry", None)
    if telemetry is not None:
        telemetry.note_plan([t.duration_us for t in plan.tracks],
                            planned_us=merged_end - t0)
    if obs is not None:
        obs.observe("recovery.plan_serial_us",
                    sum(t.duration_us for t in plan.tracks))
        obs.observe("recovery.plan_planned_us", merged_end - t0)
    return records
