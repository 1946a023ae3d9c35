"""Simulation context: the shared clock, cost model, RNG and trace.

A :class:`Simulation` is the root object every other subsystem hangs off
of.  It is deliberately thin — the interesting machinery lives in the
memory, unikernel and VampOS packages — but it gives every run a single
source of virtual time and determinism.
"""

from __future__ import annotations

from typing import Any, Optional

from .clock import VirtualClock
from .costs import CostLedger, CostModel, DEFAULT_COSTS
from .rng import DeterministicRNG
from .trace import Trace
from ..obs import state as obs_state


class Simulation:
    """Root container for one deterministic simulation run."""

    def __init__(self, seed: int = 0,
                 costs: Optional[CostModel] = None) -> None:
        self.clock = VirtualClock()
        self.costs = costs if costs is not None else DEFAULT_COSTS
        self.rng = DeterministicRNG(seed)
        self.trace = Trace()
        self.ledger = CostLedger()
        #: flight recorder, or None when observability is off — hot
        #: paths guard on ``sim.obs is not None`` and nothing else
        self.obs = obs_state.maybe_attach(self)
        if self.obs is not None:
            # Ring-buffer evictions count into the recording (the hook
            # fires only on the rare evicting emit).
            self.trace.on_drop = self.obs.on_trace_drop
        #: injection-site probes (see :mod:`repro.sim.probes`), or None;
        #: attached by the crucible explorer, never in production runs
        self.probes = None

    # --- cost charging ------------------------------------------------------

    def charge(self, category: str, amount_us: float) -> None:
        """Advance the clock by ``amount_us`` and record it in the ledger.

        This is the hottest function in the simulator (tens of charges
        per syscall), so the clock advance is inlined — ``now + amount``
        is the same float :meth:`VirtualClock.advance` computes.
        """
        if amount_us <= 0:
            if amount_us == 0:
                self.ledger.charge(category, 0.0)
                if self.obs is not None:
                    self.obs.on_charge(category, 0.0)
            return
        self.clock._now_us += amount_us
        # Inlined CostLedger.charge (same seeding, bit-identical totals):
        # this path runs tens of times per syscall.
        ledger = self.ledger
        ledger.elapsed_us += amount_us
        try:
            ledger.totals[category] += amount_us
        except KeyError:
            ledger.totals[category] = 0.0 + amount_us
            ledger.counts[category] = 1
        else:
            ledger.counts[category] += 1
        if self.obs is not None:
            self.obs.on_charge(category, amount_us)

    def emit(self, category: str, name: str, **detail: Any) -> None:
        """Emit a trace event stamped with the current virtual time."""
        self.trace.record(self.clock.now_us, category, name, detail)
