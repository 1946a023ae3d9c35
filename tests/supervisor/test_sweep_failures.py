"""A heart-beat sweep reboot whose replay re-triggers the fault.

The sweep reboots components found failed outside any call path, so no
ladder walk owns a replay that dies there.  The supervisor takes it
over: a fresh restart when armed, then quarantine when armed; with
neither (the paper's VampOS-DaS) the kernel still fail-stops.
"""

from __future__ import annotations

import pytest

from repro.apps.nginx import MiniNginx
from repro.core.config import DAS, SUPERVISED
from repro.faults.injector import FaultInjector
from repro.sim.engine import Simulation
from repro.unikernel.component import ComponentState
from repro.unikernel.errors import RecoveryFailed


def _det_bug_then_corrupt(config):
    """A supervised MiniNginx holding an open file through VFS, so
    9PFS's log carries a lookup its replay must re-run, then the
    deterministic bug in that lookup and a corruption the sweep sees."""
    app = MiniNginx(Simulation(seed=1), mode=config)
    kernel = app.vampos
    app.libc.open(app.DOCROOT + "/index.html", "r")
    injector = FaultInjector(kernel)
    injector.inject_deterministic_bug("9PFS", "uk_9pfs_lookup")
    injector.inject_corruption("9PFS")
    return kernel


class TestSweepReplayFailure:
    def test_supervised_sweep_restarts_fresh_instead_of_dying(self):
        kernel = _det_bug_then_corrupt(SUPERVISED)
        records = kernel.heartbeat()
        assert [(r.component, r.reason) for r in records] == \
            [("9PFS", "heartbeat")]
        assert records[0].entries_replayed == 0  # the replay was skipped
        assert not kernel.crashed
        assert not kernel.supervisor.is_degraded("9PFS")
        assert kernel.component("9PFS").state is ComponentState.BOOTED
        assert kernel.sim.trace.count("supervisor", "fresh_restart",
                                      component="9PFS") == 1

    def test_degraded_mode_alone_quarantines(self):
        kernel = _det_bug_then_corrupt(
            SUPERVISED.with_(fresh_restart_enabled=False))
        assert kernel.heartbeat() == []
        assert not kernel.crashed
        assert kernel.supervisor.is_degraded("9PFS")
        assert kernel.sim.trace.count("supervisor", "fresh_restart") == 0
        # The next sweep leaves the quarantined component to probation.
        assert kernel.heartbeat() == []

    def test_das_arms_neither_and_still_fail_stops(self):
        kernel = _det_bug_then_corrupt(DAS)
        with pytest.raises(RecoveryFailed):
            kernel.heartbeat()
        assert kernel.crashed
