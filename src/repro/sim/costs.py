"""Cost model: virtual-microsecond prices for every mechanism.

The paper's evaluation ran on a 12-core Xeon Silver under QEMU; we have
no CPU to measure, so every mechanism charges a fixed (configurable)
unit cost to the virtual clock.  The defaults below are calibrated so
that the *shapes* reported in the paper hold:

* Fig. 5 — message passing + scheduling overhead grows with the number
  of component transitions per system call; dependency-aware scheduling
  removes most wasted round-robin polls; merging removes hops between
  the merged components.
* Fig. 6 — snapshot restoration dominates stateful component reboots
  (tens of ms for MB-scale snapshots) while stateless reboots are
  microsecond-scale; log replay is hundred-microsecond-scale.
* Fig. 7 — Redis with synchronous AOF pays per-fsync storage latency
  large enough that VampOS's mechanism overhead is the cheaper price.

All costs are in virtual microseconds unless the name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict


@dataclass
class CostModel:
    """Unit costs charged by the substrate and the VampOS runtime."""

    # --- baseline function execution -------------------------------------
    #: a plain intra-image function call (vanilla Unikraft dispatch)
    function_call: float = 0.05
    #: base cost of executing one component-interface function body
    function_body: float = 0.40

    # --- message passing (VampOS §V-A) -----------------------------------
    #: pushing a request or a return value into a message domain
    msg_push: float = 0.30
    #: pulling a message out of a message domain
    msg_pull: float = 0.20

    # --- thread scheduling (VampOS §V-C) ----------------------------------
    #: dispatching a component thread (context switch)
    thread_switch: float = 0.45
    #: one wasted poll when round-robin dispatches a component with no
    #: pending message before reaching the right one
    wasted_poll: float = 0.30
    #: consulting the dependency graph under dependency-aware scheduling
    dependency_lookup: float = 0.08
    #: spawning a fresh thread when the bound one is blocked (§V-A)
    thread_spawn: float = 2.5

    # --- logging for encapsulated restoration (§V-B) ----------------------
    #: appending one entry to the function-call log
    log_append: float = 0.20
    #: appending one return value to the return-value log
    retval_append: float = 0.15
    #: dropping entries during session-aware log shrinking, per entry
    log_prune: float = 0.05
    #: one forced state-extraction shrink pass (threshold exceeded,
    #: §V-F): the prototype "restores the current states of the
    #: components affected by the function invocation after calling the
    #: canceling function intentionally", which touches storage
    forced_shrink: float = 150.0

    # --- protection domains (§V-D) ----------------------------------------
    #: writing the PKRU register on a protection-domain switch
    pkru_write: float = 0.03
    #: one software MPK access check
    mpk_check: float = 0.0
    #: one heart-beat sweep over the component states (§V-A)
    heartbeat_scan: float = 0.5

    # --- reboot machinery (§V-E) ------------------------------------------
    #: fixed cost of tearing down a failed component thread
    reboot_teardown: float = 2.0
    #: restoring a snapshot, per byte of component memory image
    #: (QEMU snapshot loads: ~60 ns/KiB-equivalent, so the paper's
    #: hundreds-of-KB images land in the tens of milliseconds)
    snapshot_restore_per_byte: float = 0.00006
    #: fixed snapshot-restore setup cost (QEMU snapshot machinery)
    snapshot_restore_fixed: float = 350.0
    #: taking a post-boot checkpoint, per byte
    snapshot_take_per_byte: float = 0.000015
    #: replaying one logged call during encapsulated restoration
    replay_call: float = 0.90
    #: reinitialising a stateless component (no snapshot, no replay)
    stateless_reinit: float = 4.0
    #: reattaching a fresh thread after restoration
    thread_reattach: float = 1.5
    #: full reboot of the whole unikernel-linked application (boot path)
    full_reboot_fixed: float = 900_000.0
    #: full reboot: per byte of application state lost and re-read
    full_reboot_restore_per_byte: float = 0.05

    # --- recovery supervision (escalation ladder) --------------------------
    #: supervisor bookkeeping per handled failure (storm window scan,
    #: budget lookup)
    supervisor_scan: float = 0.30
    #: attempting the replay-retry rung (reboot + replay + one retry)
    rung_replay_retry: float = 0.50
    #: attempting the fresh-restart rung (checkpoint restore, no replay)
    rung_fresh_restart: float = 0.80
    #: attempting the variant-swap rung (§VIII multi-version)
    rung_variant_swap: float = 1.00
    #: attempting one dependency-scoped widening ring
    rung_scope_widen: float = 1.60
    #: attempting the rejuvenate-all rung (microreboot-style sweep)
    rung_rejuvenate_all: float = 2.40
    #: entering degraded mode (installing the error-return stub)
    rung_degrade: float = 0.60
    #: answering one interface call from a degraded component with an
    #: ENODEV-style error instead of dispatching it
    degraded_call: float = 0.25

    # --- root rejuvenation (ReHype-style kernel microreboot) ---------------
    #: serializing the kernel-side state (run queue, message slots,
    #: supervisor policy) into a RootCheckpoint before the teardown
    root_checkpoint: float = 40.0
    #: fixed cost of tearing the kernel internals down and bringing the
    #: fresh root up — far below ``full_reboot_fixed`` because component
    #: memory, logs and snapshots are never touched
    root_reboot_fixed: float = 1_200.0
    #: re-attaching one live component to the fresh root (registry +
    #: domain re-tag + thread rebind), per component
    root_reattach_per_component: float = 6.0
    #: attempting the rejuvenate-root rung (above rejuvenate-all)
    rung_rejuvenate_root: float = 3.20

    # --- observability ------------------------------------------------------
    #: opening or closing one flight-recorder span, charged ONLY when
    #: ``FLAGS.charge_tracing`` is set (the recorder is free by default;
    #: this prices the paper's "monitoring inside the recovery loop"
    #: variant for overhead studies)
    trace_emit: float = 0.02

    # --- devices / IO -------------------------------------------------------
    #: 9P round trip to the host share (per operation)
    ninep_rpc: float = 30.0
    #: 9P payload transfer, per byte
    ninep_per_byte: float = 0.004
    #: one synchronous storage flush (AOF fsync path)
    storage_fsync: float = 1_050.0
    #: virtio ring doorbell / kick
    virtio_kick: float = 1.2
    #: network link latency, one direction (same-host in the paper)
    net_latency: float = 40.0
    #: network payload transfer, per byte
    net_per_byte: float = 0.008

    def scaled(self, factor: float) -> "CostModel":
        """A copy with every unit cost multiplied by ``factor``."""
        updates: Dict[str, float] = {
            f.name: getattr(self, f.name) * factor for f in fields(self)
        }
        return CostModel(**updates)

    def with_overrides(self, **overrides: float) -> "CostModel":
        """A copy with individual costs replaced."""
        return replace(self, **overrides)

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: default cost model used across experiments
DEFAULT_COSTS = CostModel()


@dataclass
class CostLedger:
    """Breaks virtual time down by mechanism for reporting.

    The ledger is optional: the runtime charges the clock directly, and
    additionally records per-category totals here when attached.  The
    benchmark harness uses ledgers to show where the overhead of each
    VampOS configuration goes (scheduling vs messaging vs logging).
    """

    totals: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: running sum of every charge, in charge order — the observatory
    #: timebase (see :func:`repro.obs.slo.ledger_now_us`); kept inline
    #: so timestamping a phase mark is one attribute read
    elapsed_us: float = 0.0

    def charge(self, category: str, amount_us: float) -> None:
        # In-place increments (one dict op each on the hit path); the
        # first charge of a category seeds both maps.  ``0.0 + x`` is
        # ``x`` for every charge the engine can issue, so the totals
        # stay bit-identical to the get-then-add form.
        self.elapsed_us += amount_us
        try:
            self.totals[category] += amount_us
        except KeyError:
            self.totals[category] = 0.0 + amount_us
            self.counts[category] = 1
            return
        self.counts[category] += 1

    def total_us(self) -> float:
        return sum(self.totals.values())

    def breakdown(self) -> Dict[str, float]:
        """Per-category share of the total, sorted descending."""
        total = self.total_us()
        if total == 0:
            return {}
        items = sorted(self.totals.items(), key=lambda kv: kv[1], reverse=True)
        return {name: amount / total for name, amount in items}

    def reset(self) -> None:
        self.totals.clear()
        self.counts.clear()
        self.elapsed_us = 0.0
