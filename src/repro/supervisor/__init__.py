"""Recovery supervision: escalation, budgets, storms and degradation.

The paper's recovery primitive (reboot → restore → replay → retry,
§V-E) becomes availability only with *policy* around it — the
microreboot lineage's recursive scope-widening, retry limits and
degraded operation.  This package is that policy layer:

* :mod:`.ladder` — the escalation ladder, one strategy
  object per rung (replay-retry → fresh restart → variant swap →
  dependency-scoped widening → rejuvenate-all → degrade);
* :mod:`.budget` — per-component retry budgets with exponential
  virtual-time backoff, and the sliding-window crash-storm detector;
* :mod:`.supervisor` — :class:`RecoverySupervisor`, which the VampOS
  dispatcher delegates every in-flight failure to;
* :mod:`.telemetry` — ladder-rung counters, MTTR distributions and
  time-in-degraded accounting for the experiment reports.
"""

from .budget import CrashStormDetector, RetryBudget
from .ladder import (
    DEFAULT_LADDER,
    DegradeRung,
    FreshRestartRung,
    LadderRung,
    RejuvenateAllRung,
    RejuvenateRootRung,
    ReplayRetryRung,
    ScopeWidenRung,
    VariantSwapRung,
    dependency_rings,
)
from .supervisor import DEGRADED_ERRNO, DegradedState, RecoverySupervisor
from .telemetry import (
    PHASE_ROW_HEADERS,
    PHASES,
    ROW_HEADERS,
    PhaseClock,
    RecoveryOutcome,
    RecoveryTelemetry,
    phase_sum,
)

__all__ = [
    "CrashStormDetector",
    "RetryBudget",
    "DEFAULT_LADDER",
    "DegradeRung",
    "FreshRestartRung",
    "LadderRung",
    "RejuvenateAllRung",
    "RejuvenateRootRung",
    "ReplayRetryRung",
    "ScopeWidenRung",
    "VariantSwapRung",
    "dependency_rings",
    "DEGRADED_ERRNO",
    "DegradedState",
    "RecoverySupervisor",
    "PHASE_ROW_HEADERS",
    "PHASES",
    "PhaseClock",
    "ROW_HEADERS",
    "RecoveryOutcome",
    "RecoveryTelemetry",
    "phase_sum",
]
