"""Fast-path regression tests (DESIGN.md, "Fast-path invariants").

The switchable hot-path optimizations — indexed call logs, copy fast
path, dirty-tracked runtime data, copy-on-write snapshots, compiled
crossing tapes, interned payloads — must be *virtual-time neutral*:
they change how fast the reproduction runs on the host CPU, never what
it computes.  These tests run paper-figure workloads twice, once with
every optimization enabled (the default) and once under
``reference_mode()`` (the original O(n)-scan / deepcopy / re-export /
``vo_push_msgs`` semantics), and assert the cost ledgers and virtual
clocks are identical.  Cached dispatch has no switch: it is on in
every mode.  The tests also pin the incremental index/accounting
against the reference recomputation, and the shrinker edge cases
against the indexed log specifically.
"""

import contextlib
import gc
import weakref

import pytest

from repro.core.calllog import ComponentCallLog, _is_immutable, _payload_bytes
from repro.core.config import DAS
from repro.core.runtime import TAPE_CACHE_SIZE, _exec_tape
from repro.core.shrink import LogShrinker
from repro.fastpath import FLAGS, reference_mode
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.engine import Simulation
from repro.unikernel.component import Component, MemoryLayout, export

from tests.core.test_shrink import SessionComponent, make_world, record

MESSAGE = b"m" * 221 + b"\n"


def _fig5_app(mode, iterations=40, costs=None):
    """A scaled-down Fig. 5 mix: file churn plus a socket echo."""
    from repro.apps.nginx import MiniNginx

    app = MiniNginx(Simulation(seed=17, costs=costs), mode=mode)
    app.share.create("/srv/neutral.dat", b"z" * 512)
    libc = app.libc
    client = app.network.connect(app.PORT)
    server_fd = app.kernel.syscall("VFS", "accept", app._listen_fd)
    for _ in range(iterations):
        libc.getpid()
        fd = libc.open("/srv/neutral.dat", "rw")
        libc.write(fd, b"x")
        libc.read(fd, 1)
        libc.close(fd)
        libc.send(server_fd, MESSAGE)
        client.recv()
        client.send(MESSAGE)
        libc.recv(server_fd, 222)
    return app


def _fig5_syscall_loop(mode, iterations=40):
    return _fig5_app(mode, iterations).sim


def _runtime_state(app):
    """Clock, ledger, scheduler, thread, domain and log state."""
    kernel = app.kernel
    sched = kernel.scheduler
    md = kernel.message_domain
    stats = sched.stats
    return {
        "clock": app.sim.clock.now_us,
        "totals": dict(app.sim.ledger.totals),
        "counts": dict(app.sim.ledger.counts),
        "sched": (stats.dispatches, stats.dependency_lookups,
                  stats.wasted_polls, stats.msg_thread_dispatches,
                  sched.fallback_dispatches, sched.current,
                  tuple(sched._active_chain)),
        "threads": {unit: (thread.state, thread.dispatches)
                    for unit, thread in sched.threads.items()},
        "domain": (md.pushes, md.pulls, md.peak_bytes,
                   md.peak_in_flight, md.used_bytes,
                   md.in_flight_count()),
        "log_space": {name: log.space_bytes()
                      for name, log in kernel.logs.items()},
    }


def _fig8_recovery_loop(reboots=6):
    """A scaled-down Fig. 8 path: repeated 9PFS panic + reboot."""
    from repro.experiments.env import make_redis
    from repro.faults.injector import FaultInjector
    from repro.workloads.redis_load import warm_up

    app = make_redis(DAS, seed=29)
    warm_up(app, keys=40, value_bytes=64)
    injector = FaultInjector(app.kernel)
    for _ in range(reboots):
        injector.inject_panic("9PFS", "neutrality fail-stop")
        app.libc.stat("/redis")
    return app.sim


def _shrink_heavy_loop(cycles=8):
    """Same-key series crossing the forced-shrink threshold."""
    from repro.apps.nginx import MiniNginx

    app = MiniNginx(Simulation(seed=5), mode=DAS.with_(shrink_threshold=30))
    app.share.create("/srv/shrink.dat", b"z" * 512)
    libc = app.libc
    for _ in range(cycles):
        fd = libc.open("/srv/shrink.dat", "rw")
        for _ in range(45):
            libc.write(fd, b"endurance payload")
        libc.close(fd)
    return app.sim


def _ledger_state(sim):
    return (dict(sim.ledger.counts), dict(sim.ledger.totals),
            sim.clock.now_us)


class TestVirtualTimeNeutrality:
    """Flags on vs. reference mode: bit-identical virtual time."""

    @pytest.mark.parametrize("workload", [
        lambda: _fig5_syscall_loop(DAS),
        lambda: _fig5_syscall_loop("unikraft"),
        _fig8_recovery_loop,
        _shrink_heavy_loop,
    ], ids=["fig5_vampos", "fig5_unikraft", "fig8_recovery",
            "shrink_heavy"])
    def test_workload_is_neutral(self, workload):
        fast = _ledger_state(workload())
        with reference_mode():
            slow = _ledger_state(workload())
        assert fast[0] == slow[0]   # per-category charge counts
        assert fast[1] == slow[1]   # per-category totals (us)
        assert fast[2] == slow[2]   # final virtual clock

    def test_reference_mode_restores_flags(self):
        assert FLAGS.indexed_log
        with reference_mode():
            assert not FLAGS.indexed_log
            assert not FLAGS.copy_fast_path
            assert not FLAGS.dirty_runtime_data
            assert not FLAGS.batched_crossings
            assert not FLAGS.interned_payloads
        assert FLAGS.indexed_log
        assert FLAGS.batched_crossings and FLAGS.interned_payloads


class TestBatchedCrossingParity:
    """The compiled crossing tapes (the dispatch fast lane) must leave
    *every* piece of runtime state — not just the ledger — exactly
    where the reference push → dispatch → pull triple leaves it."""

    def test_fastlane_matches_reference_everywhere(self):
        fast = _runtime_state(_fig5_app(DAS, iterations=50))
        with reference_mode():
            slow = _runtime_state(_fig5_app(DAS, iterations=50))
        assert fast == slow

    def test_crossing_plans_compile_and_shape(self):
        """The dispatcher builds compiled plans for the hot crossings,
        and every tape is push-first, pull-last, non-negative."""
        from repro.apps.nginx import MiniNginx

        app = MiniNginx(Simulation(seed=17), mode=DAS)
        app.share.create("/srv/neutral.dat", b"z" * 512)
        fd = app.libc.open("/srv/neutral.dat", "rw")
        app.libc.write(fd, b"x")
        app.libc.close(fd)
        plans = [p for p in app.kernel._vamp._plans.values() if p]
        assert plans, "no crossing compiled on the syscall path"
        for plan in plans:
            for tape in (plan.req_tape, plan.rep_tape):
                assert tape[0][0] == "msg_push"
                assert tape[-1][0] == "msg_pull"
                assert all(amount >= 0 for _, amount in tape)
            assert callable(plan.req_run) and callable(plan.rep_run)

    def test_fastlane_declines_round_robin(self):
        """Plan compilation must refuse schedulers whose dispatch
        protocol the tape cannot replicate (only the plain
        dependency-aware scheduler compiles)."""
        from repro.apps.nginx import MiniNginx
        from repro.core.config import NOOP

        app = MiniNginx(Simulation(seed=17), mode=NOOP)
        app.share.create("/srv/neutral.dat", b"z" * 512)
        fd = app.libc.open("/srv/neutral.dat", "rw")
        app.libc.write(fd, b"x")
        app.libc.close(fd)
        plans = app.kernel._vamp._plans
        assert plans and all(p is False for p in plans.values())

    def test_refused_crossings_take_the_reference_pair(self, monkeypatch):
        """A crossing the compiler refuses has no third route: with the
        flags on, every push and pull the domain counts under
        round-robin goes through ``vo_push_msgs``/``vo_pull_msgs``."""
        from repro.core.config import NOOP
        from repro.core.messages import MessageDomain

        calls = {"push": 0, "pull": 0}
        push, pull = MessageDomain.vo_push_msgs, MessageDomain.vo_pull_msgs

        def counting_push(self, *args, **kwargs):
            calls["push"] += 1
            return push(self, *args, **kwargs)

        def counting_pull(self, message):
            calls["pull"] += 1
            return pull(self, message)

        monkeypatch.setattr(MessageDomain, "vo_push_msgs", counting_push)
        monkeypatch.setattr(MessageDomain, "vo_pull_msgs", counting_pull)
        assert FLAGS.batched_crossings
        md = _fig5_app(NOOP, iterations=10).kernel.message_domain
        assert md.pushes > 0
        assert (calls["push"], calls["pull"]) == (md.pushes, md.pulls)

    @pytest.mark.parametrize("reference", [False, True],
                             ids=["fast", "reference"])
    def test_full_domain_raises_before_any_charge(self, reference):
        """An oversized request raises ``MessageDomainFull`` from the
        tape and from the reference pair alike, before charging
        anything or reserving arena space."""
        from repro.apps.nginx import MiniNginx
        from repro.core.messages import MessageDomainFull

        with contextlib.ExitStack() as stack:
            if reference:
                stack.enter_context(reference_mode())
            app = MiniNginx(Simulation(seed=17),
                            mode=DAS.with_(msg_domain_bytes=4096))
            app.share.create("/srv/full.dat", b"z" * 512)
            fd = app.libc.open("/srv/full.dat", "rw")
            before = _ledger_state(app.sim)
            with pytest.raises(MessageDomainFull):
                app.libc.write(fd, b"x" * 8192)
            md = app.kernel.message_domain
            assert _ledger_state(app.sim) == before
            assert (md.used_bytes, md.in_flight_count()) == (0, 0)
            plan = app.kernel._vamp._plans.get(("APP", "VFS", True))
            assert bool(plan) is not reference   # fast: the tape raised


class TestTapeCache:
    """Each distinct tape source is compiled once per process
    (``runtime._exec_tape``): kernels share the code, never the state."""

    def test_kernels_share_compiled_tapes(self):
        first = _fig5_app(DAS, iterations=2)
        misses = _exec_tape.cache_info().misses
        second = _fig5_app(DAS, iterations=2)
        assert _exec_tape.cache_info().misses == misses
        plans = first.kernel._vamp._plans
        others = second.kernel._vamp._plans
        compiled = [key for key, plan in plans.items() if plan]
        assert compiled and plans.keys() == others.keys()
        for key in compiled:
            assert others[key] is not plans[key]
            assert others[key].req_run is plans[key].req_run
            assert others[key].rep_run is plans[key].rep_run

    def test_cold_and_warm_cache_match_reference(self):
        _exec_tape.cache_clear()
        cold = _runtime_state(_fig5_app(DAS, iterations=50))
        misses = _exec_tape.cache_info().misses
        assert misses > 0
        warm = _runtime_state(_fig5_app(DAS, iterations=50))
        assert _exec_tape.cache_info().misses == misses
        with reference_mode():
            slow = _runtime_state(_fig5_app(DAS, iterations=50))
        assert cold == warm == slow

    def test_cache_stays_bounded_and_exact_past_evictions(self):
        """Varying one crossing cost yields a fresh set of tapes per
        kernel; feed more than the bound, then re-run an evicted set."""
        def costs(variant):
            return DEFAULT_COSTS.with_overrides(
                msg_push=DEFAULT_COSTS.msg_push * (1 + variant / 97))

        start = _exec_tape.cache_info().misses
        for variant in range(1, 65):
            _fig5_app(DAS, iterations=1, costs=costs(variant))
            if _exec_tape.cache_info().misses - start > TAPE_CACHE_SIZE:
                break
        else:
            pytest.fail("64 cost variants never compiled past the bound")
        info = _exec_tape.cache_info()
        assert info.maxsize == TAPE_CACHE_SIZE
        assert info.currsize <= TAPE_CACHE_SIZE
        fast = _runtime_state(_fig5_app(DAS, iterations=5, costs=costs(1)))
        assert _exec_tape.cache_info().misses > info.misses  # evicted
        with reference_mode():
            slow = _runtime_state(
                _fig5_app(DAS, iterations=5, costs=costs(1)))
        assert fast == slow

    def test_dropped_kernel_is_collectable_while_tapes_stay_cached(self):
        app = _fig5_app(DAS, iterations=2)
        run = next(plan for plan in app.kernel._vamp._plans.values()
                   if plan).req_run
        kernel = weakref.ref(app.kernel)
        del app
        gc.collect()
        assert kernel() is None
        # the code references no kernel: only the two thread states
        assert run.__closure__ is None
        assert set(run.__globals__) == {"__builtins__", "_RUNNING",
                                        "_IDLE", "run"}
        misses = _exec_tape.cache_info().misses
        again = _fig5_app(DAS, iterations=2)
        assert _exec_tape.cache_info().misses == misses
        assert any(plan.req_run is run
                   for plan in again.kernel._vamp._plans.values() if plan)


class TestObsRecordingNeutrality:
    """With the flight recorder attached, the fast lane replays the
    crossing's observability side too — the saved recording must be
    byte-identical to the reference path's, at any sampling rate."""

    def _recording(self, sample=None):
        import json

        from repro.obs import state as obs_state

        obs_state.enable(sample_dispatch=sample)
        try:
            _fig5_syscall_loop(DAS, iterations=25)
            recording = obs_state.collector().to_recording()
        finally:
            obs_state.disable()
        return json.dumps(recording, sort_keys=True, default=str)

    def test_recording_identical_fast_vs_reference(self):
        fast = self._recording()
        with reference_mode():
            slow = self._recording()
        assert fast == slow

    def test_recording_identical_under_sampling(self):
        fast = self._recording(sample=16)
        with reference_mode():
            slow = self._recording(sample=16)
        assert fast == slow


@pytest.mark.slow
class TestReportNeutrality:
    """Whole-campaign parity: flags on vs reference mode must render
    byte-identical reports and identical crucible verdicts."""

    def test_chaos_soak_report_identical(self):
        from repro.experiments import chaos_soak
        from tests.parallel.test_determinism import assert_reports_identical

        fast = chaos_soak.run(rounds=4, jobs=1)
        with reference_mode():
            slow = chaos_soak.run(rounds=4, jobs=1)
        assert_reports_identical(fast, slow)

    def test_crucible_verdicts_identical(self):
        import io

        from repro.crucible.explorer import explore

        fast_out, slow_out = io.StringIO(), io.StringIO()
        fast_code = explore(budget=24, jobs=1, out=fast_out)
        with reference_mode():
            slow_code = explore(budget=24, jobs=1, out=slow_out)
        assert fast_code == slow_code
        assert fast_out.getvalue() == slow_out.getvalue()


class TestIncrementalAccounting:
    """The O(1) counters always equal the reference recomputation."""

    def _check(self, log):
        assert log.space_bytes() == log.recompute_space_bytes()
        assert log.record_count() == sum(
            e.entry_count() for e in log.entries)
        assert len(log) == len(log.entries)

    def test_accounting_through_mixed_workload(self):
        sim, comp, log, shrinker = make_world(threshold=25)
        for cycle in range(6):
            record(log, shrinker, "open_session", comp)
            key = max(comp.sessions)
            for _ in range(10):
                record(log, shrinker, "operate", comp, key)
                self._check(log)
            if cycle % 2 == 0:
                record(log, shrinker, "close_session", comp, key)
            self._check(log)
        assert shrinker.stats.forced_shrinks > 0
        assert shrinker.stats.canceling_prunes > 0
        self._check(log)

    def test_accounting_tracks_retvals_and_clears(self):
        log = ComponentCallLog("VFS")
        entry = log.append("open", ("/f",), {})
        log.push_active(entry)
        log.record_retval("9PFS", "lookup", b"x" * 100)
        log.record_retval("9PFS", "open", 7)
        log.pop_active(entry)
        self._check(log)
        log.clear_nested(entry)
        assert entry.nested == []
        self._check(log)

    def test_late_key_and_result_assignment_reindexes(self):
        log = ComponentCallLog("VFS")
        entry = log.append("open", ("/f",), {})
        entry.result = b"r" * 50   # dispatcher completion path
        entry.key = 3              # dispatcher key_from_result path
        assert log.entries_for_key(3) == [entry]
        self._check(log)
        entry.key = 4              # rekey moves the index bucket
        assert log.entries_for_key(3) == []
        assert log.entries_for_key(4) == [entry]
        self._check(log)

    def test_tombstone_compaction_preserves_order(self):
        log = ComponentCallLog("VFS")
        entries = [log.append("op", (i,), {}, key=i % 3)
                   for i in range(120)]
        log.remove_entries([e for i, e in enumerate(entries) if i % 2])
        survivors = [e.seq for e in log.entries]
        assert survivors == [e.seq for i, e in enumerate(entries)
                             if not i % 2]
        self._check(log)

    def test_entries_for_key_matches_reference_scan(self):
        log = ComponentCallLog("VFS")
        for i in range(30):
            log.append("op", (i,), {}, key=i % 4)
        log.remove_entries(log.entries_for_key(1))
        for key in range(5):
            indexed = log.entries_for_key(key)
            with reference_mode():
                scanned = log.entries_for_key(key)
            assert indexed == scanned


class TestPopActiveStrict:
    def test_mismatched_pop_raises(self):
        log = ComponentCallLog("VFS")
        outer = log.append("open", (), {})
        inner = log.append("read", (), {})
        log.push_active(outer)
        log.push_active(inner)
        with pytest.raises(RuntimeError, match="call-log corruption"):
            log.pop_active(outer)

    def test_pop_on_empty_stack_raises(self):
        log = ComponentCallLog("VFS")
        entry = log.append("open", (), {})
        with pytest.raises(RuntimeError, match="call-log corruption"):
            log.pop_active(entry)

    def test_matched_pops_unwind(self):
        log = ComponentCallLog("VFS")
        outer = log.append("open", (), {})
        inner = log.append("read", (), {})
        log.push_active(outer)
        log.push_active(inner)
        log.pop_active(inner)
        log.pop_active(outer)
        assert log.active_entry is None


class TestShrinkEdgeCasesIndexed:
    """§V-F edge cases, exercised against the indexed log."""

    def test_durable_entry_survives_non_durable_close(self):
        sim, comp, log, shrinker = make_world()
        record(log, shrinker, "open_session", comp)
        key = max(comp.sessions)
        durable = log.append("persist", (key,), {}, key=key, durable=True)
        durable.completed = True
        record(log, shrinker, "close_session", comp, key)
        funcs = [e.func for e in log.entries]
        assert "persist" in funcs          # durable data outlives close
        assert log.entries_for_key(key) != []

    def test_pair_prune_fires_on_synthetic_tombstone(self):
        """A forced shrink leaves a synthetic entry for the key; reuse
        of the key must still prune the stale series (the synthetic
        stands in for the canceling close)."""
        sim, comp, log, shrinker = make_world()
        record(log, shrinker, "open_session", comp)
        key = max(comp.sessions)
        synthetic = log.make_synthetic(key, {"ops": 3})
        opener = log.entries_for_key(key)[0]
        log.replace_entries([opener], synthetic, at_entry=opener)
        del comp.sessions[key]             # session state already folded
        record(log, shrinker, "open_session", comp)  # key reused
        assert shrinker.stats.pair_prunes == 1
        live = log.entries_for_key(key)
        assert len(live) == 1 and live[0].session_opener

    def test_pair_prune_skips_live_session(self):
        sim, comp, log, shrinker = make_world()
        record(log, shrinker, "open_session", comp)
        key = max(comp.sessions)
        record(log, shrinker, "operate", comp, key)
        # Force a colliding opener on the same key: no canceling entry
        # and no synthetic tombstone, so nothing may be pruned.
        entry = log.append("open_session", (), {}, key=key,
                           session_opener=True)
        entry.completed = True
        shrinker._prune_stale_pair(entry)
        assert shrinker.stats.pair_prunes == 0
        assert len(log.entries_for_key(key)) == 3

    def test_compactable_matches_reference_scan(self):
        sim, comp, log, shrinker = make_world()
        record(log, shrinker, "open_session", comp)
        key = max(comp.sessions)
        assert not shrinker._compactable()
        with reference_mode():
            assert not shrinker._compactable()
        record(log, shrinker, "operate", comp, key)
        assert shrinker._compactable()
        with reference_mode():
            assert shrinker._compactable()
        record(log, shrinker, "close_session", comp, key)
        # close pruned the operate; opener+close remain on the key
        assert shrinker._compactable() == log.has_multi_entry_key()

    def test_forced_shrink_collapses_series_under_index(self):
        sim, comp, log, shrinker = make_world(threshold=8)
        record(log, shrinker, "open_session", comp)
        key = max(comp.sessions)
        for _ in range(10):
            record(log, shrinker, "operate", comp, key)
        assert shrinker.stats.forced_shrinks >= 1
        shrinker.force_shrink()    # collapse the post-threshold tail too
        live = log.entries_for_key(key)
        assert len(live) == 1 and live[0].is_synthetic
        assert log.space_bytes() == log.recompute_space_bytes()


class TestCopyFastPath:
    def test_immutable_payloads_stored_by_reference(self):
        log = ComponentCallLog("VFS")
        payload = ("path", 7, b"data", (True, None))
        entry = log.append("open", payload, {})
        assert entry.args is payload

    def test_mutable_payloads_still_deep_copied(self):
        log = ComponentCallLog("VFS")
        buf = [1, 2, 3]
        entry = log.append("writev", (buf,), {})
        buf.append(4)
        assert entry.args == ([1, 2, 3],)

    def test_mutable_kwargs_still_deep_copied(self):
        log = ComponentCallLog("VFS")
        opts = {"mode": [0, 6, 6]}
        entry = log.append("open", (), opts)
        opts["mode"].append(4)
        assert entry.kwargs == {"mode": [0, 6, 6]}

    def test_tuple_with_mutable_member_is_not_immutable(self):
        assert _is_immutable((1, "a", b"b"))
        assert not _is_immutable((1, [2]))
        assert not _is_immutable({"k": 1})


class TestPayloadBytes:
    def test_str_counts_utf8_bytes_not_characters(self):
        assert _payload_bytes("abc") == 3
        assert _payload_bytes("héllo") == 6      # é is 2 bytes in UTF-8
        assert _payload_bytes("日本語") == 9      # 3 bytes each
        assert _payload_bytes(("日本語", b"xy")) == 11


class TestCachedDispatch:
    def test_interface_cache_is_per_class(self):
        class Child(SessionComponent):
            NAME = "CHILD"

            @export()
            def extra(self):
                return 1

        sim = Simulation()
        parent = SessionComponent(sim)
        child = Child(sim)
        assert "extra" not in parent.interface()
        assert "extra" in child.interface()
        assert parent.interface() is parent.interface()  # memoized

    def test_resolve_export_unknown_function_raises(self):
        sim = Simulation()
        comp = SessionComponent(sim)
        with pytest.raises(AttributeError):
            comp.resolve_export("no_such_export")


class TestDirtyRuntimeData:
    def test_default_component_is_always_saved(self):
        sim = Simulation()
        comp = SessionComponent(sim)
        assert not comp.TRACKS_RUNTIME_DATA_DIRTY
        assert comp.runtime_data_dirty

    def test_lwip_marks_dirty_on_mutation(self):
        from repro.apps.nginx import MiniNginx

        app = MiniNginx(Simulation(seed=3), mode=DAS)
        lwip = app.kernel.image.components["LWIP"]
        assert lwip.TRACKS_RUNTIME_DATA_DIRTY
        client = app.network.connect(app.PORT)
        server_fd = app.kernel.syscall("VFS", "accept", app._listen_fd)
        saved = app.kernel._runtime_data["LWIP"]
        app.libc.getpid()            # LWIP untouched: save skipped
        assert app.kernel._runtime_data["LWIP"] is saved
        app.libc.send(server_fd, MESSAGE)   # pcb mutated: fresh export
        client.recv()
        assert app.kernel._runtime_data["LWIP"] is not saved

    def test_runtime_data_identical_after_skip(self):
        """After the save is skipped (clean), a reboot restores the
        same pcb state a reference-mode run would have restored."""
        from repro.apps.nginx import MiniNginx
        from repro.faults.injector import FaultInjector

        def run():
            app = MiniNginx(Simulation(seed=11), mode=DAS)
            client = app.network.connect(app.PORT)
            server_fd = app.kernel.syscall("VFS", "accept", app._listen_fd)
            app.libc.send(server_fd, MESSAGE)
            client.recv()
            for _ in range(5):
                app.libc.getpid()   # LWIP untouched: save skipped
            FaultInjector(app.kernel).inject_panic("LWIP", "dirty test")
            try:
                app.libc.send(server_fd, MESSAGE)
            except Exception:
                pass
            app.libc.send(server_fd, MESSAGE)
            lwip = app.kernel.image.components["LWIP"]
            return {sid: (e.pcb.snd_nxt, e.pcb.rcv_nxt)
                    for sid, e in lwip._sockets.items() if e.pcb}

        fast = run()
        with reference_mode():
            slow = run()
        assert fast == slow
