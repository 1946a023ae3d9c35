"""Deterministic simulation substrate: virtual time, costs, RNG, trace."""

from .clock import ClockError, VirtualClock, us_from_s
from .costs import DEFAULT_COSTS, CostLedger, CostModel
from .engine import Simulation
from .rng import DeterministicRNG
from .trace import Trace, TraceEvent

__all__ = [
    "ClockError",
    "VirtualClock",
    "us_from_s",
    "DEFAULT_COSTS",
    "CostLedger",
    "CostModel",
    "Simulation",
    "DeterministicRNG",
    "Trace",
    "TraceEvent",
]
