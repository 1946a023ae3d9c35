"""Encapsulated restoration (§V-B, Fig. 3).

After a stateful component's memory is rolled back to its post-boot
checkpoint, its running state is rebuilt by replaying the selected
function calls from the log.  The restoration is *encapsulated*: while
the component replays, every call it makes to another component is
intercepted and answered from the recorded return values — the running
components never execute anything, so their state is untouched.

The replay also:

* skips in-flight (incomplete) entries — the failed call that triggered
  the reboot is retried separately, after restoration;
* applies synthetic ``__setstate__`` entries produced by forced log
  shrinking directly via :meth:`Component.apply_key_state`;
* pins descriptor ids to the logged return values so allocations land
  exactly where they originally did;
* re-raises recorded :class:`SyscallError` outcomes so the component
  takes the same internal branches as the original execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..sim.engine import Simulation
from ..unikernel.component import Component
from ..unikernel.errors import ComponentFailure, SyscallError, UnikernelError
from .calllog import CallLogEntry, ComponentCallLog, _copy_payload


class ReplayMismatch(UnikernelError):
    """The replayed call sequence diverged from the recorded one."""

    def __init__(self, component: str, expected: str, got: str) -> None:
        super().__init__(
            f"replay of {component!r} diverged: expected outbound call "
            f"{expected}, component issued {got}")
        self.component = component


@dataclass
class ReplayStats:
    entries_replayed: int = 0
    synthetic_applied: int = 0
    retvals_fed: int = 0
    skipped_incomplete: int = 0
    result_mismatches: int = 0


class ReplaySession:
    """Per-reboot state the dispatcher consults to intercept calls."""

    def __init__(self, component: str) -> None:
        self.component = component
        self._entry: Optional[CallLogEntry] = None
        self._cursor = 0
        self.retvals_fed = 0

    def begin_entry(self, entry: CallLogEntry) -> None:
        self._entry = entry
        self._cursor = 0

    def next_retval(self, target: str, func: str) -> Any:
        """Answer an outbound call from the recorded return values."""
        entry = self._entry
        if entry is None or self._cursor >= len(entry.nested):
            raise ReplayMismatch(
                self.component, "<no further recorded calls>",
                f"{target}.{func}")
        record = entry.nested[self._cursor]
        if record.target != target or record.func != func:
            raise ReplayMismatch(
                self.component, f"{record.target}.{record.func}",
                f"{target}.{func}")
        self._cursor += 1
        self.retvals_fed += 1
        if record.error is not None:
            raise SyscallError(record.error[0], record.error[1])
        # same copy fast path as recording: immutable results need no
        # defensive copy before being handed to the replaying component
        return _copy_payload(record.result)


class EncapsulatedRestorer:
    """Drives the replay of one component's log."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim

    def replay(self, comp: Component, log: ComponentCallLog,
               session: ReplaySession) -> ReplayStats:
        """Replay ``log`` into ``comp``.

        The caller must have installed ``session`` into the dispatcher
        so outbound calls are intercepted; this method only walks the
        entries.  Raises :class:`ComponentFailure` if a deterministic
        bug re-triggers (the caller converts that to fail-stop) and
        :class:`ReplayMismatch` on divergence.
        """
        stats = ReplayStats()
        interface = comp.interface()
        probes = self.sim.probes
        for entry in log.entries:
            if probes is not None:
                probes.fire("replay_step", component=comp.NAME,
                            func=entry.func,
                            synthetic=entry.is_synthetic)
            if entry.is_synthetic:
                self.sim.charge("replay_call", self.sim.costs.replay_call)
                key, patch = entry.synthetic_patch
                comp.apply_key_state(key, patch)
                stats.synthetic_applied += 1
                continue
            if not entry.completed:
                stats.skipped_incomplete += 1
                continue
            info = interface.get(entry.func)
            if info is None:
                raise ReplayMismatch(comp.NAME, entry.func,
                                     "<function no longer exported>")
            self.sim.charge("replay_call", self.sim.costs.replay_call)
            session.begin_entry(entry)
            if info.allocates_ids:
                comp.set_forced_ids(_ids_from_result(entry.result))
            try:
                result = comp.call_interface(entry.func, entry.args,
                                             entry.kwargs)
            except SyscallError:
                # The original call may have failed the same way; a
                # replayed errno is not a recovery failure.
                result = None
            finally:
                comp.set_forced_ids([])
            stats.entries_replayed += 1
            if entry.result is not None and result != entry.result:
                stats.result_mismatches += 1
                self.sim.emit("restore", "result_mismatch",
                              component=comp.NAME, func=entry.func,
                              expected=repr(entry.result)[:80],
                              got=repr(result)[:80])
        stats.retvals_fed = session.retvals_fed
        self.sim.emit("restore", "replayed", component=comp.NAME,
                      entries=stats.entries_replayed,
                      synthetic=stats.synthetic_applied,
                      retvals=stats.retvals_fed)
        return stats


def _ids_from_result(result: Any) -> List[int]:
    if isinstance(result, bool):
        return []
    if isinstance(result, int):
        return [result]
    if isinstance(result, (tuple, list)):
        return [v for v in result if isinstance(v, int)
                and not isinstance(v, bool)]
    return []
