"""Wall-clock benchmark harness (real seconds, not virtual time).

Every other file in ``benchmarks/`` regenerates a *virtual-time*
artifact of the paper; this one measures how fast the reproduction
itself runs on the host CPU.  It times three hot paths:

* **syscall_loop** — the Fig. 5 mix (getpid / open / write / read /
  close / socket echo) driven through a booted MiniNginx, under both
  the vanilla Unikraft kernel and VampOS-DaS (logging + shrinking on);
* **recovery** — the Fig. 8 path: a warm MiniRedis has a panic
  injected into 9PFS, the failure detector reboots the component
  (checkpoint restore + encapsulated log replay), repeatedly;
* **shrink_endurance** — long per-key operation series that cross the
  forced-shrink threshold, exercising append / canceling prune /
  pair prune / forced compaction continuously;
* **snapshot_restore** — checkpoint churn on a multi-region component
  (one dirty heap page per round, clean text/data): take + restore,
  the paths the copy-on-write snapshot store accelerates by sharing
  unchanged region images instead of copying them;
* **tracing_overhead** — the syscall loop with the flight recorder
  enabled (spans + metrics + profile attribution on every dispatch),
  so the real cost of ``--obs`` stays visible next to the baseline
  ``syscall_loop_vampos`` number it shadows.

Results land in ``BENCH_wallclock.json`` at the repository root so the
project has a wall-clock perf trajectory across PRs.  ``--check FILE``
compares a fresh run against a committed baseline and exits non-zero
on a > ``--tolerance`` ops/sec regression (used by CI's smoke run).

Run directly::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import platform
import sys
import time
from typing import Callable, Dict, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_wallclock.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.nginx import MiniNginx  # noqa: E402
from repro.core.config import DAS  # noqa: E402
from repro.faults.injector import FaultInjector  # noqa: E402
from repro.sim.engine import Simulation  # noqa: E402
from repro.workloads.redis_load import warm_up  # noqa: E402

#: ops per phase at full scale; --quick divides by 10
FULL_SYSCALL_OPS = 10_000
FULL_RECOVERY_REBOOTS = 150
FULL_ENDURANCE_OPS = 10_000
FULL_SNAPSHOT_CYCLES = 2_000
FULL_STORM_ROUNDS = 60

SOCKET_MESSAGE = b"m" * 221 + b"\n"  # the Fig. 5 222-byte message
FILE_PATH = "/srv/bench.dat"


def _timed(fn: Callable[[], int]) -> Tuple[int, float]:
    """Run ``fn`` and return (ops it reports, wall seconds)."""
    start = time.perf_counter()
    ops = fn()
    return ops, time.perf_counter() - start


def _make_nginx(mode) -> MiniNginx:
    app = MiniNginx(Simulation(seed=17), mode=mode)
    if not app.share.exists(FILE_PATH):
        app.share.create(FILE_PATH, b"z" * 4096)
    return app


def _syscall_loop(app: MiniNginx, ops: int) -> int:
    """The Fig. 5 syscall mix; one iteration = 8 top-level syscalls."""
    libc = app.libc
    client = app.network.connect(app.PORT)
    server_fd = app.kernel.syscall("VFS", "accept", app._listen_fd)
    done = 0
    while done < ops:
        libc.getpid()
        fd = libc.open(FILE_PATH, "rw")
        libc.write(fd, b"x")
        libc.read(fd, 1)
        libc.close(fd)
        libc.send(server_fd, SOCKET_MESSAGE)
        client.recv()
        client.send(SOCKET_MESSAGE)
        libc.recv(server_fd, 222)
        done += 8
        if len(app.kernel.meter.records) > 4096:
            app.kernel.meter.clear()
    return done


def bench_syscall_loop(ops: int,
                       modes=(("vampos", DAS), ("unikraft", "unikraft"))
                       ) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for label, mode in modes:
        app = _make_nginx(mode)
        _syscall_loop(app, max(ops // 10, 80))  # warm caches + steady state
        done, seconds = _timed(lambda: _syscall_loop(app, ops))
        out[f"syscall_loop_{label}"] = _phase(done, seconds)
    return out


def bench_recovery(reboots: int) -> Dict[str, Dict[str, float]]:
    from repro.experiments.env import make_redis

    app = make_redis(DAS, seed=29)
    warm_up(app, keys=400, value_bytes=256)
    injector = FaultInjector(app.kernel)

    def loop() -> int:
        for _ in range(reboots):
            injector.inject_panic("9PFS", "bench fail-stop")
            app.libc.stat("/redis")  # detector catches, reboots 9PFS
        return reboots

    loop()  # one warm pass is enough to populate every cache
    # Same GC coupling as the snapshot phase: every recovery snapshots
    # and restores the 9PFS heap, and the collections that triggers
    # scan the warm redis keyspace the earlier phases left alive.
    # Park the live graph while timing.
    gc.collect()
    gc.freeze()
    try:
        done, seconds = _timed(loop)
    finally:
        gc.unfreeze()
    return {"recovery_vampos": _phase(done, seconds)}


def bench_recovery_storm(rounds: int) -> Dict[str, Dict[str, float]]:
    """The parallel-recovery planner's wall-clock pin: every round
    marks all eight rebootable MiniNginx components corrupted at once
    and a single heartbeat sweep plans and executes the recovery
    episode — dependency-graph derivation off the call-log edge index,
    level partition, and overlapped track execution, on top of the
    eight reboots themselves.  A regression here means the planner got
    slower in real seconds, whatever it saves in virtual time."""
    from repro.core.config import SUPERVISED

    app = _make_nginx(SUPERVISED)
    # warm traffic first, so the call-log edge index carries the live
    # caller→callee edges the planner derives its dependency DAG from
    _syscall_loop(app, 160)
    injector = FaultInjector(app.kernel)
    targets = [name for name in app.kernel.image.boot_order
               if app.kernel.component(name).REBOOTABLE]

    def loop() -> int:
        for _ in range(rounds):
            app.sim.clock.advance(1e6)
            for name in targets:
                injector.inject_corruption(name)
            app.kernel.heartbeat()
            app.kernel.meter.clear()
        return rounds

    loop()  # warm pass: snapshot caches, replay paths, plan shapes
    # Same GC coupling as the other snapshot-heavy phases: every round
    # restores eight component heaps; park the live graph while timing.
    gc.collect()
    gc.freeze()
    try:
        done, seconds = _timed(loop)
    finally:
        gc.unfreeze()
    return {"recovery_storm_vampos": _phase(done, seconds)}


def bench_shrink_endurance(ops: int) -> Dict[str, Dict[str, float]]:
    app = _make_nginx(DAS.with_(shrink_threshold=40))
    libc = app.libc
    done = 0

    def loop() -> int:
        nonlocal done
        target = done + ops
        while done < target:
            fd = libc.open(FILE_PATH, "rw")
            # A long same-key series crosses the forced-shrink
            # threshold before the canceling close prunes the rest.
            for _ in range(60):
                libc.write(fd, b"endurance payload")
                done += 1
            libc.close(fd)
            done += 2
            app.kernel.meter.clear()
        return done

    loop()
    start_ops = done
    _, seconds = _timed(loop)
    return {"shrink_endurance_vampos": _phase(done - start_ops, seconds)}


def bench_snapshot_restore(cycles: int) -> Dict[str, Dict[str, float]]:
    """Checkpoint churn: take + restore a three-region component with
    one dirty heap page per round.  Under the COW store the clean
    text/data images are shared (zero-copy) and only the heap pays a
    copy; the reference implementation copies all three both ways."""
    from repro.memory.region import Region, RegionKind, RegionSet
    from repro.memory.snapshot import SnapshotStore

    sim = Simulation(seed=41)
    store = SnapshotStore(sim)
    regions = RegionSet("BENCH")
    regions.add(Region("BENCH.text", RegionKind.TEXT, 128 * 1024))
    regions.add(Region("BENCH.data", RegionKind.DATA, 64 * 1024))
    regions.add(Region("BENCH.heap", RegionKind.HEAP, 256 * 1024))
    heap = regions.get("BENCH.heap")
    # an immutable state blob, the common case for small components
    state = tuple((i, "open") for i in range(32))

    def loop() -> int:
        for i in range(cycles):
            heap.write((i * 97) % 4096, b"dirty")
            snap = store.take("BENCH", regions, state, label="bench")
            store.restore(snap, regions)
        return cycles

    loop()  # warm pass: fill the store's snapshot slot and the heap image
    # This phase allocates a fresh heap image every cycle, which keeps
    # triggering collections that scan whatever the earlier phases left
    # alive — at --quick scale that GC tax dominates the measurement.
    # Park the live graph in the permanent generation while timing.
    gc.collect()
    gc.freeze()
    try:
        done, seconds = _timed(loop)
    finally:
        gc.unfreeze()
    return {"snapshot_restore": _phase(done, seconds)}


def bench_tracing_overhead(ops: int) -> Dict[str, Dict[str, float]]:
    """The Fig. 5 loop under ``--obs``: every syscall opens a request
    span, every charge an attribution, and 1-in-16 dispatches a child
    span (``--obs-sample 16``, the recommended setting for throughput
    soaks — metrics and the profile still see every call).  Compare
    against ``syscall_loop_vampos`` for the enabled-recorder overhead;
    the *disabled* recorder costs one ``is None`` check per site and is
    covered by the baseline phase itself."""
    from repro.obs import state as obs_state

    obs_state.enable(sample_dispatch=16)
    try:
        app = _make_nginx(DAS)
        _syscall_loop(app, max(ops // 10, 80))
        # Keep the span list from growing across the timed region's GC:
        # the warm pass already sized the collector's structures.
        obs_state.collector().spans.clear()
        done, seconds = _timed(lambda: _syscall_loop(app, ops))
    finally:
        obs_state.disable()
    return {"syscall_loop_traced": _phase(done, seconds)}


def _phase(ops: int, seconds: float) -> Dict[str, float]:
    return {
        "ops": ops,
        "seconds": round(seconds, 4),
        "ops_per_sec": round(ops / seconds, 1) if seconds > 0 else 0.0,
    }


#: phase-group name (``--phase``) -> scale-aware runner
def _best_of(reps: int, runner) -> Dict[str, Dict[str, float]]:
    """Keep each phase's fastest rep: throughput gates compare against
    a machine's best case, so scheduler noise can only inflate, never
    deflate, the measured regression headroom."""
    best: Dict[str, Dict[str, float]] = {}
    for _ in range(reps):
        for name, phase in runner().items():
            if (name not in best
                    or phase["ops_per_sec"] > best[name]["ops_per_sec"]):
                best[name] = phase
    return best


PHASE_GROUPS = {
    "syscall_loop": lambda s: bench_syscall_loop(FULL_SYSCALL_OPS // s),
    # The gate phase: VampOS only, best-of-3 on a floor of 4000 ops.
    # The vanilla-kernel loop finishes a --quick sample in ~15 ms and a
    # single 1000-op vampos sample jitters past 15 % on a busy box —
    # far too little signal for a tight CI tolerance — so the
    # bench-gate job pins just the phase the fast lane optimises,
    # measured with enough repetitions to be stable.
    "syscall_loop_vampos":
        lambda s: _best_of(3, lambda: bench_syscall_loop(
            max(FULL_SYSCALL_OPS // s, 4000), modes=(("vampos", DAS),))),
    "recovery": lambda s: bench_recovery(FULL_RECOVERY_REBOOTS // s),
    # Gate phase like syscall_loop_vampos: best-of-3 with an op floor,
    # so the 15 % CI tolerance compares stable numbers.
    "recovery_storm":
        lambda s: _best_of(3, lambda: bench_recovery_storm(
            max(FULL_STORM_ROUNDS // s, 20))),
    "shrink_endurance":
        lambda s: bench_shrink_endurance(FULL_ENDURANCE_OPS // s),
    "snapshot_restore":
        lambda s: bench_snapshot_restore(FULL_SNAPSHOT_CYCLES // s),
    "tracing": lambda s: bench_tracing_overhead(FULL_SYSCALL_OPS // s),
}


#: groups that exist for targeted --phase runs only: subsets of the
#: default groups, so running them by default would measure (and
#: record) the same phase twice
PHASE_ONLY = frozenset({"syscall_loop_vampos"})


def run_all(quick: bool, only=None) -> Dict[str, object]:
    scale = 10 if quick else 1
    phases: Dict[str, Dict[str, float]] = {}
    for name, runner in PHASE_GROUPS.items():
        if only:
            if name not in only:
                continue
        elif name in PHASE_ONLY:
            continue
        phases.update(runner(scale))
    return {
        "schema": 1,
        "quick": quick,
        "python": platform.python_version(),
        "phases": phases,
    }


def check_against(result: Dict[str, object], baseline_path: pathlib.Path,
                  tolerance: float) -> int:
    """Exit status 1 when any shared phase regressed > tolerance."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, phase in result["phases"].items():  # type: ignore[union-attr]
        base_phase = baseline.get("phases", {}).get(name)
        if base_phase is None:
            continue
        base = base_phase["ops_per_sec"]
        now = phase["ops_per_sec"]
        if base > 0 and now < base * (1.0 - tolerance):
            failures.append(
                f"  {name}: {now:.0f} ops/s vs baseline {base:.0f} "
                f"(-{(1 - now / base) * 100:.0f}%)")
        else:
            print(f"  ok {name}: {now:.0f} ops/s "
                  f"(baseline {base:.0f})")
    if failures:
        print(f"REGRESSION beyond {tolerance * 100:.0f}% tolerance:")
        print("\n".join(failures))
        return 1
    print("no wall-clock regression beyond "
          f"{tolerance * 100:.0f}% tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="1/10th scale smoke run (CI)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="where to write the JSON result")
    parser.add_argument("--no-write", action="store_true",
                        help="measure only, leave the JSON untouched")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        metavar="BASELINE",
                        help="compare against a baseline JSON; exit 1 "
                             "on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed ops/sec regression for --check "
                             "(default 0.30)")
    parser.add_argument("--phase", action="append", default=None,
                        choices=sorted(PHASE_GROUPS), metavar="NAME",
                        help="run only the named phase group(s); "
                             "repeatable (default: all)")
    args = parser.parse_args(argv)

    if args.phase:
        # a partial result must never overwrite the committed baseline
        args.no_write = True

    result = run_all(quick=args.quick, only=args.phase)
    for name, phase in result["phases"].items():
        print(f"{name:28s} {phase['ops']:>7d} ops  "
              f"{phase['seconds']:>8.3f}s  "
              f"{phase['ops_per_sec']:>10.1f} ops/s")

    status = 0
    if args.check is not None:
        status = check_against(result, args.check, args.tolerance)
    if not args.no_write and status == 0:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
