"""The SLO ledger: who was up, for how long, and who got served.

:class:`SloLedger` keeps two deterministic accounts in virtual time:

* **availability intervals** — per component, a list of
  ``[state, start_us, end_us]`` intervals over the states ``up``,
  ``degraded``, ``quarantined``, ``rebooting`` and ``dead``.  State
  transitions are noted by the runtime (reboots), the supervisor
  (degradation, quarantine) and the fail-stop path; only the ``up``
  state counts as available;
* **request accounting** — per target component and per caller (the
  syscall entry point), counts of requests answered successfully vs
  answered with a served :class:`SyscallError`.  Error budgets and
  burn rates derive from these counts against a configurable SLO
  target.

The ledger is purely observational: recording never touches the RNG or
the virtual clock, so a run with the ledger enabled is bit-identical to
one without.  Timestamps come from :func:`ledger_now_us` — charged
virtual time, not the raw clock — which makes every recorded boundary
invariant to the recovery scheduler's sanctioned clock overlap (fast
paths vs ``reference_mode``).  Ledgers merge in canonical shard order
(counts sum, interval lists concatenate), so chaos-soak columns and
``repro slo`` reports are byte-identical at any ``--jobs`` count.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .metrics import fold


def ledger_now_us(ledger: Any) -> float:
    """The observatory timebase: cumulative charged virtual time.

    Interval boundaries and phase marks are stamped with the running
    sum of every cost-ledger charge so far (``CostLedger.elapsed_us``)
    instead of the raw clock.  The recovery scheduler overlaps reboot
    tracks by *seeking* the clock, so mid-episode clock values legally
    differ between the fast paths and ``reference_mode`` — but the
    charge *sequence* is byte-for-byte the serial sweep's, so this sum
    is bit-identical at every call site in both modes (and at any
    ``--jobs``).  Every charge path — ``CostLedger.charge``, the
    inlined engine/runtime sites and the compiled crossing tape —
    accumulates it in charge order, one float add each, so reading a
    timestamp is a single attribute load.
    """
    return ledger.elapsed_us


#: every state an availability interval can carry, canonical order
SLO_STATES: Tuple[str, ...] = ("up", "degraded", "quarantined",
                               "rebooting", "dead")

#: the default availability objective used for error budgets
DEFAULT_SLO_TARGET = 0.999


class SloLedger:
    """Per-component availability intervals + request accounting."""

    __slots__ = ("enabled", "label", "intervals", "requests", "callers")

    def __init__(self, enabled: bool = False, label: str = "") -> None:
        self.enabled = enabled
        self.label = label
        #: component -> [[state, start_us, end_us | None], ...]
        self.intervals: Dict[str, List[List[Any]]] = {}
        #: target component -> [ok, err]
        self.requests: Dict[str, List[int]] = {}
        #: caller (syscall entry point) -> [ok, err]
        self.callers: Dict[str, List[int]] = {}

    # --- recording (runtime + supervisor call these) ----------------------

    def seed_up(self, components: List[str], now_us: float) -> None:
        """Open an ``up`` interval for every booted component (and the
        root), so availability has a denominator from boot onward."""
        for name in components:
            self.note_state(name, "up", now_us)
        self.note_state("ROOT", "up", now_us)

    def note_state(self, component: str, state: str,
                   now_us: float) -> None:
        """Close the open interval (if any) and open a new one; a
        repeated state is a no-op, so call sites stay unconditional."""
        if not self.enabled:
            return
        intervals = self.intervals.get(component)
        if intervals is None:
            intervals = self.intervals[component] = []
        if intervals:
            last = intervals[-1]
            if last[2] is None:
                if last[0] == state:
                    return
                last[2] = now_us
        intervals.append([state, now_us, None])

    def note_request(self, component: str, caller: str,
                     ok: bool) -> None:
        index = 0 if ok else 1
        slot = self.requests.get(component)
        if slot is None:
            slot = self.requests[component] = [0, 0]
        slot[index] += 1
        slot = self.callers.get(caller)
        if slot is None:
            slot = self.callers[caller] = [0, 0]
        slot[index] += 1

    def note_requests(self, component: str, caller: str,
                      ok: int = 0, err: int = 0) -> None:
        """Bulk request accounting: fold whole per-tick batches in one
        call.  The fleet balancer answers hundreds of requests per
        (instance, tenant) pair per tick — charging them one
        :meth:`note_request` at a time would dominate the serving
        loop.  Equivalent to ``ok`` + ``err`` individual calls."""
        if ok <= 0 and err <= 0:
            return
        for mapping, key in ((self.requests, component),
                             (self.callers, caller)):
            slot = mapping.get(key)
            if slot is None:
                slot = mapping[key] = [0, 0]
            if ok > 0:
                slot[0] += ok
            if err > 0:
                slot[1] += err

    def close(self, now_us: float) -> None:
        """Close every open interval (harvest time: shard merges must
        only ever see closed intervals)."""
        for intervals in self.intervals.values():
            if intervals and intervals[-1][2] is None:
                intervals[-1][2] = now_us

    # --- queries ----------------------------------------------------------

    def components(self) -> List[str]:
        return sorted(set(self.intervals) | set(self.requests))

    def state_time_us(self, component: str) -> Dict[str, float]:
        """Closed-interval time per state (open intervals excluded —
        call :meth:`close` first when harvesting)."""
        totals = {state: 0.0 for state in SLO_STATES}
        for state, start_us, end_us in self.intervals.get(component, ()):
            if end_us is not None:
                totals[state] = totals.get(state, 0.0) \
                    + (end_us - start_us)
        return totals

    def availability(self, component: str) -> Optional[float]:
        """Up-time over total closed interval time (None without any
        closed interval)."""
        totals = self.state_time_us(component)
        denom = sum(totals[state] for state in SLO_STATES)
        if denom <= 0.0:
            return None
        return totals["up"] / denom

    def request_totals(self) -> Tuple[int, int]:
        ok = sum(slot[0] for slot in self.requests.values())
        err = sum(slot[1] for slot in self.requests.values())
        return ok, err

    def burn_rate(self, target: float = DEFAULT_SLO_TARGET) \
            -> Optional[float]:
        """Served-error consumption of the error budget: 1.0 means the
        budget is exactly spent, above 1.0 the SLO is violated."""
        ok, err = self.request_totals()
        total = ok + err
        if total == 0:
            return None
        budget = (1.0 - target) * total
        if budget <= 0.0:
            return None
        return err / budget

    # --- merging (canonical shard order) ----------------------------------

    def merged_with(self, other: "SloLedger") -> "SloLedger":
        """Fold two ledgers: counts sum, per-component interval lists
        concatenate in argument order (``self`` is the earlier shard in
        canonical order)."""
        out = SloLedger(enabled=self.enabled or other.enabled,
                        label=self.label or other.label)
        for src in (self, other):
            for comp, intervals in src.intervals.items():
                out.intervals.setdefault(comp, []).extend(
                    [list(iv) for iv in intervals])
            for attr in ("requests", "callers"):
                dst_map = getattr(out, attr)
                for key, (ok, err) in getattr(src, attr).items():
                    slot = dst_map.get(key)
                    if slot is None:
                        dst_map[key] = [ok, err]
                    else:
                        slot[0] += ok
                        slot[1] += err
        return out

    # --- serialisation ----------------------------------------------------

    def to_jsonable(self, now_us: Optional[float] = None) \
            -> Dict[str, Any]:
        """A JSON-ready copy; ``now_us`` closes open intervals in the
        copy without mutating the live ledger."""
        intervals: Dict[str, List[List[Any]]] = {}
        for comp in sorted(self.intervals):
            rows = []
            for state, start_us, end_us in self.intervals[comp]:
                if end_us is None and now_us is not None:
                    end_us = now_us
                rows.append([state, start_us, end_us])
            intervals[comp] = rows
        return {
            "label": self.label,
            "intervals": intervals,
            "requests": {k: list(self.requests[k])
                         for k in sorted(self.requests)},
            "callers": {k: list(self.callers[k])
                        for k in sorted(self.callers)},
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "SloLedger":
        out = cls(enabled=True, label=data.get("label", ""))
        out.intervals = {comp: [list(iv) for iv in rows]
                         for comp, rows in
                         data.get("intervals", {}).items()}
        out.requests = {k: list(v)
                        for k, v in data.get("requests", {}).items()}
        out.callers = {k: list(v)
                       for k, v in data.get("callers", {}).items()}
        return out

    @classmethod
    def merged_from_jsonables(cls, blobs: List[Dict[str, Any]]) \
            -> "SloLedger":
        """Fold recorded ledger blobs (recording order is canonical)."""
        return fold(cls(enabled=True), map(cls.from_jsonable, blobs))

    # --- rendering --------------------------------------------------------

    def rows(self, target: float = DEFAULT_SLO_TARGET) \
            -> List[List[Any]]:
        """Per-component report rows (see :data:`SLO_ROW_HEADERS`)."""
        rows: List[List[Any]] = []
        for name in self.components():
            availability = self.availability(name)
            times = self.state_time_us(name)
            ok, err = self.requests.get(name, (0, 0))
            total = ok + err
            budget = (1.0 - target) * total
            burn = (f"{err / budget:.2f}x"
                    if total and budget > 0.0 else "-")
            rows.append([
                name,
                f"{availability * 100:.3f}%"
                if availability is not None else "-",
                f"{times['up'] / 1e3:.1f}ms",
                f"{times['degraded'] / 1e3:.1f}ms",
                f"{times['quarantined'] / 1e3:.1f}ms",
                f"{times['rebooting'] / 1e3:.1f}ms",
                f"{times['dead'] / 1e3:.1f}ms",
                f"{ok}/{err}",
                burn,
            ])
        return rows

    def render(self, target: float = DEFAULT_SLO_TARGET) -> str:
        """The ``repro slo`` text view."""
        lines = ["SLO ledger"
                 + (f" — {self.label}" if self.label else "")]
        lines.append(f"  target: {target * 100:.2f}% "
                     f"(error budget {100 - target * 100:.2f}%)")
        ok, err = self.request_totals()
        burn = self.burn_rate(target)
        lines.append(f"  requests: {ok} ok / {err} served errors"
                     + (f" — budget burn {burn:.2f}x"
                        if burn is not None else ""))
        header = ["component", "avail", "up", "degraded", "quarantined",
                  "rebooting", "dead", "ok/err", "burn"]
        table = [header] + [[str(c) for c in row]
                            for row in self.rows(target)]
        widths = [max(len(row[i]) for row in table)
                  for i in range(len(header))]
        for row in table:
            lines.append("  " + "  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)))
        per_caller = sorted(self.callers.items())
        if per_caller:
            lines.append("  per caller:")
            for caller, (c_ok, c_err) in per_caller:
                lines.append(f"    {caller}: {c_ok} ok / {c_err} err")
        return "\n".join(lines)


#: column headers matching :meth:`SloLedger.rows`
SLO_ROW_HEADERS = ["component", "availability", "up", "degraded",
                   "quarantined", "rebooting", "dead", "requests ok/err",
                   "budget burn"]
