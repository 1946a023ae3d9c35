"""The benchmark's five workloads.

Every workload is a closed loop with one client: the next operation
starts when the previous one returned.  Inputs come from the seed only
(:func:`make_inputs` for the in-process workloads, the command seeds
for the CLI ones), and every output the program produces is checked.

In-process workloads (``syscall_mix``, ``write_churn``,
``recovery_churn``) drive a MiniNginx image through its libc shim.
CLI workloads (``fleet_campaign``, ``campaign_suite``) run ``python -m
repro`` commands in fresh processes at ``--jobs 1`` and ``--jobs N``.

A run does a fixed amount of work per second of ``--seconds`` (sized to
take about that long on a 2-core x86-64 box), so memory metrics compare
equal work across commits and a slower commit simply runs longer.

The ``syscall_mix`` code path uses only APIs that already existed when
the dispatch fast lane landed, so ``--src`` can point it at older
source trees.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import repro
from repro.apps.nginx import MiniNginx
from repro.core.config import DAS
from repro.faults.injector import FaultInjector
from repro.obs import state as obs_state
from repro.sim.engine import Simulation

from speed import SpeedProbe
from stats import chunk_rates, latency_metrics, summary
from tracer import LayerTracer, heap_metrics, unit_of

#: the CLI's own default seeds; ``--seed n`` runs seed ``default + n``
FLEET_SEED = 20240808
SOAK_SEED = 20240624

#: fresh set-ups per run; setup_s is their median
SETUP_REPEATS = 5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


#: workers of the ``--jobs N`` arm of CLI workloads: one per usable CPU
#: and no more
JOBS = _usable_cpus()


@dataclass
class Context:
    """What one workload run needs besides its name."""

    seed: int
    seconds: float
    #: the ``src`` directory of the tree under test
    src: str
    #: working directory for CLI subprocesses
    workdir: str


@dataclass
class Outcome:
    """A workload run's metric records and operation counts."""

    metrics: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: every check beyond per-operation outputs held (ledger parity,
    #: jobs-1 vs jobs-N stdout, traced vs untraced ledgers)
    checks_ok: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.checks_ok and self.failed == 0

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.checks_ok = False
            self.notes.append(f"CHECK FAILED: {what}")


# --- inputs -----------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    seed: int
    #: the Fig. 5 222-byte socket message
    message: bytes
    file_path: str
    #: contents of the file the mix reads back
    file_data: bytes
    write_byte: bytes
    churn_payload: bytes


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)

    def printable(n: int) -> bytes:
        return bytes(rng.randrange(33, 127) for _ in range(n))

    return Inputs(seed=seed, message=printable(221) + b"\n",
                  file_path=f"/srv/bench-{rng.randrange(16 ** 6):06x}.dat",
                  file_data=printable(4096), write_byte=printable(1),
                  churn_payload=printable(17))


# --- steppers: one app and one client, one operation per step() -------------

def _boot(inputs: Inputs, mode) -> MiniNginx:
    app = MiniNginx(Simulation(seed=inputs.seed), mode=mode)
    app.share.create(inputs.file_path, inputs.file_data)
    return app


def _trim_meter(app: MiniNginx) -> None:
    # the syscall meter keeps a record per top-level call for the
    # experiments; a closed loop drops them, as bench_wallclock does
    meter = app.kernel.meter
    if len(meter.records) > 4096:
        meter.clear()


class MixStepper:
    """The Fig. 5 mix: getpid, open/write/read/close on a 9P file, and a
    222-byte echo over an accepted socket.  One step counts as 8 ops
    (as in ``bench_wallclock.py``); it returns the number of reads and
    receives that came back with the wrong bytes."""

    ops = 8

    def __init__(self, inputs: Inputs, mode=DAS) -> None:
        self.inputs = inputs
        self.app = _boot(inputs, mode)
        self.client = self.app.network.connect(self.app.PORT)
        self.server_fd = self.app.kernel.syscall(
            "VFS", "accept", self.app._listen_fd)
        self.expect_read = inputs.file_data[1:2]

    def step(self) -> int:
        libc = self.app.libc
        inputs = self.inputs
        message = inputs.message
        libc.getpid()
        fd = libc.open(inputs.file_path, "rw")
        libc.write(fd, inputs.write_byte)
        got = libc.read(fd, 1)
        libc.close(fd)
        libc.send(self.server_fd, message)
        echoed = self.client.recv()
        self.client.send(message)
        back = libc.recv(self.server_fd, len(message))
        _trim_meter(self.app)
        return ((got != self.expect_read) + (echoed != message)
                + (back != message))


class ChurnStepper:
    """A 62-op same-key series on one descriptor: open, 60 writes,
    close, under a shrink threshold of 40, so every series crosses the
    forced shrink before the cancelling close prunes it.  Returns the
    number of calls with a wrong return value."""

    ops = 62
    writes = 60

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.app = _boot(inputs, DAS.with_(shrink_threshold=40))

    def step(self) -> int:
        libc = self.app.libc
        payload = self.inputs.churn_payload
        size = len(payload)
        fd = libc.open(self.inputs.file_path, "rw")
        wrong = 0
        for _ in range(self.writes):
            wrong += libc.write(fd, payload) != size
        wrong += libc.close(fd) != 0
        _trim_meter(self.app)
        return wrong

    def final_check(self) -> bool:
        """The file starts with the last series' writes."""
        written = self.inputs.churn_payload * self.writes
        return self.app.share.read(self.inputs.file_path, 0,
                                   len(written)) == written


class RoundStepper:
    """One fault round: advance the clock one virtual second, panic a
    seeded choice of component, run one mix iteration (the detector
    trips and reboots it); every 10th round also corrupts all eight
    rebootable components and sweeps them with one heartbeat.  Returns
    1 when the round's request or its recovery went wrong."""

    ops = 1
    panic_targets = ("VFS", "9PFS", "LWIP", "NETDEV")
    storm_every = 10

    def __init__(self, inputs: Inputs) -> None:
        self.mix = MixStepper(inputs, DAS)
        self.app = self.mix.app
        kernel = self.app.kernel
        self.injector = FaultInjector(kernel)
        self.rng = random.Random(inputs.seed ^ 0x5EED)
        self.storm = [name for name in kernel.image.boot_order
                      if kernel.component(name).REBOOTABLE]
        self.rounds = 0

    def step(self) -> int:
        self.rounds += 1
        kernel = self.app.kernel
        before = len(kernel.reboots)
        self.app.sim.clock.advance(1e6)
        self.injector.inject_panic(self.rng.choice(self.panic_targets),
                                   "bench fail-stop")
        wrong = self.mix.step()
        expected = 1
        if self.rounds % self.storm_every == 0:
            for name in self.storm:
                self.injector.inject_corruption(name)
            kernel.heartbeat()
            expected += len(self.storm)
        return int(wrong > 0 or len(kernel.reboots) - before < expected)


# --- phases -------------------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    """One closed loop of a workload."""

    make: Callable[[Inputs], object]
    warm_items: int
    #: items per throughput chunk (ops_per_s is the median chunk rate)
    chunk: int
    #: items per second of --seconds, untraced and traced
    rate: int
    trace_rate: int
    #: run under the flight recorder (repro --obs, 1-in-16 dispatch spans)
    obs: bool = False


def _mix_das(inputs: Inputs) -> MixStepper:
    return MixStepper(inputs, DAS)


def _mix_vanilla(inputs: Inputs) -> MixStepper:
    return MixStepper(inputs, "unikraft")


#: the vanilla-Unikraft mix: the control every run carries (about 15%
#: of the window), so a run can be normalised by the machine's speed
CONTROL = Phase(_mix_vanilla, warm_items=250, chunk=500,
                rate=1800, trace_rate=600)

IN_PROCESS: Dict[str, Tuple[Phase, ...]] = {
    "syscall_mix": (
        Phase(_mix_das, warm_items=250, chunk=125, rate=1400,
              trace_rate=400),
        Phase(_mix_das, warm_items=250, chunk=60, rate=430,
              trace_rate=100, obs=True),
        CONTROL,
    ),
    "write_churn": (
        Phase(ChurnStepper, warm_items=32, chunk=16, rate=230,
              trace_rate=120),
    ),
    "recovery_churn": (
        Phase(RoundStepper, warm_items=50, chunk=50, rate=1150,
              trace_rate=400),
    ),
}

#: reference-mode parity check size (items of the first phase)
CHECK_ITEMS = {"syscall_mix": 1000, "write_churn": 130,
               "recovery_churn": 300}


@contextlib.contextmanager
def _flight_recorder(on: bool):
    if not on:
        yield
        return
    obs_state.enable(sample_dispatch=16)
    try:
        yield
    finally:
        obs_state.disable()


Span = Tuple[int, int]


def _loop(stepper, items: int) -> Tuple[List[Span], int]:
    """Run ``items`` steps; returns each step's (start, end) in
    ``perf_counter_ns`` and the failed operations.  An exception counts
    the item's ops as failed and ends the loop."""
    clock = time.perf_counter_ns
    step = stepper.step
    spans: List[Span] = []
    failed = 0
    for _ in range(items):
        t0 = clock()
        try:
            failed += step()
        except Exception:  # a failed operation, not a harness error
            traceback.print_exc(file=sys.stderr)
            spans.append((t0, clock()))
            return spans, failed + stepper.ops
        spans.append((t0, clock()))
    return spans, failed


def _items(rate: int, seconds: float) -> int:
    return max(1, int(rate * seconds))


def _ledger(app) -> tuple:
    """The virtual clock and the cost ledger's totals and counts."""
    sim = app.sim
    return (sim.clock.now_us, sorted(sim.ledger.totals.items()),
            sorted(sim.ledger.counts.items()))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _virt(stepper, items: int, clock0: float, reboots0: int) -> dict:
    """Virtual-time results of ``items`` steps since ``clock0``: mean
    reboot downtime for fault rounds (whose clock the loop itself
    advances), virtual time per op otherwise."""
    if isinstance(stepper, RoundStepper):
        return {"virt_mttr_us": statistics.fmean(
            r.downtime_us for r in stepper.app.kernel.reboots[reboots0:])}
    return {"virt_us_per_op": (stepper.app.sim.clock.now_us - clock0)
            / (items * stepper.ops)}


def _reboots(stepper) -> int:
    # the vanilla kernel keeps no reboot records
    return len(getattr(stepper.app.kernel, "reboots", ()))


def _scaled(probe: SpeedProbe, spans: List[Span]) -> List[float]:
    return [probe.scaled_ns(t0, t1) for t0, t1 in spans]


def run_in_process(name: str, ctx: Context) -> Outcome:
    phases = IN_PROCESS[name]
    inputs = make_inputs(ctx.seed)
    out = Outcome()
    primary = phases[0]
    control = () if CONTROL in phases else (CONTROL,)
    clock = time.perf_counter_ns
    measured = []  # (phase, ops per item, spans)
    with SpeedProbe() as probe:
        # set-up: fresh build + boot + warm-up, repeated; the last app
        # is the one the timed loop runs on
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            stepper = primary.make(inputs)
            _loop(stepper, primary.warm_items)
            setups.append((t0, clock()))
        rss_before = _maxrss_mb()
        for phase in phases + control:
            with _flight_recorder(phase.obs):
                if phase is not primary:
                    stepper = phase.make(inputs)
                    _loop(stepper, phase.warm_items)
                    if phase.obs:
                        obs_state.collector().spans.clear()
                clock0 = stepper.app.sim.clock.now_us
                reboots0 = _reboots(stepper)
                spans, failed = _loop(stepper,
                                      _items(phase.rate, ctx.seconds))
            out.attempted += len(spans) * stepper.ops
            out.failed += failed
            measured.append((phase, stepper.ops, spans))
            if phase is primary:
                out.metrics["rss_growth_mb"] = summary(
                    [_maxrss_mb() - rss_before], "MB")
                for key, value in _virt(stepper, len(spans), clock0,
                                        reboots0).items():
                    out.metrics[key] = summary([value], "virtual_us")
                if isinstance(stepper, ChurnStepper):
                    out.check(stepper.final_check(), "churned file contents")
            del stepper
        out.metrics["peak_rss_mb"] = summary([_maxrss_mb()], "MB")

    out.metrics["setup_s"] = summary(
        [probe.scaled_ns(t0, t1) / 1e9 for t0, t1 in setups], "s")
    for phase, ops, spans in measured:
        durations = _scaled(probe, spans)
        rates = summary(chunk_rates(durations, ops, phase.chunk), "1/s")
        if phase is primary:
            out.metrics["ops_per_s"] = rates
            out.metrics["ops_per_s_wall"] = summary(chunk_rates(
                [probe.work_ns(t0, t1) for t0, t1 in spans], ops,
                phase.chunk), "1/s")
            out.metrics.update(latency_metrics(durations))
        elif phase.obs:
            out.metrics["obs_ops_per_s"] = rates
        else:
            out.metrics["vanilla_ops_per_s"] = rates
    out.metrics["host_slowdown"] = summary([probe.slowdown()], "ratio")
    _parity_check(name, primary, inputs, out)
    out.metrics["fail_frac"] = summary([out.failed / max(out.attempted, 1)],
                                       "ratio")
    return out


@contextlib.contextmanager
def _reference_paths():
    """``repro.reference_mode()`` minus overlapped recovery, the one
    switch that shortens the virtual clock by design."""
    with repro.reference_mode() as flags:
        if hasattr(flags, "parallel_recovery"):
            flags.parallel_recovery = True
        yield


def _parity_check(name: str, phase: Phase, inputs: Inputs,
                  out: Outcome) -> None:
    """Run the first items of the primary phase on a fresh app, once on
    the fast paths and once on the reference paths; the virtual results
    and ledgers must be bit-identical."""
    items = CHECK_ITEMS[name]
    results = []
    for reference in (False, True):
        with _reference_paths() if reference else contextlib.nullcontext():
            stepper = phase.make(inputs)
            clock0 = stepper.app.sim.clock.now_us
            spans, failed = _loop(stepper, items)
            results.append((_virt(stepper, items, clock0, 0),
                            _ledger(stepper.app)))
        out.attempted += len(spans) * stepper.ops
        out.failed += failed
    out.check(results[0] == results[1],
              f"reference-path parity over {items} items: "
              f"{results[0][0]} vs {results[1][0]}")


def trace_in_process(name: str, ctx: Context) -> Outcome:
    """Fixed work, first untraced and then traced, each phase on a fresh
    app; the per-layer split comes from the traced pass.  Times are on a
    speed probe's reference-speed clock."""
    phases = IN_PROCESS[name]
    inputs = make_inputs(ctx.seed)
    out = Outcome()
    walls = {False: 0.0, True: 0.0}
    ledgers: Dict[bool, list] = {False: [], True: []}
    totals = LayerTracer()
    heap: Dict[str, float] = {}
    with SpeedProbe() as probe:
        tracer = LayerTracer(clock=probe.clock)
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                alive = []  # the traced apps stay alive for heap_metrics
                for phase in phases:
                    with _flight_recorder(phase.obs):
                        stepper = phase.make(inputs)
                        _loop(stepper, phase.warm_items)
                        tracer.reset()
                        t0 = probe.clock()
                        spans, failed = _loop(
                            stepper, _items(phase.trace_rate, ctx.seconds))
                        walls[traced] += probe.clock() - t0
                        if traced:
                            totals.absorb(tracer)
                    out.attempted += len(spans) * stepper.ops
                    out.failed += failed
                    ledgers[traced].append(_ledger(stepper.app))
                    alive.append(stepper)
                if traced:
                    heap = heap_metrics()
            finally:
                if traced:
                    tracer.uninstall()
            del alive, stepper
    out.check(ledgers[False] == ledgers[True],
              "the traced run changed the virtual ledgers")
    out.metrics.update(_layer_records(totals, walls[True] / 1e9, heap))
    out.metrics["trace.overhead_frac"] = summary(
        [1.0 - walls[False] / walls[True]], "ratio")
    out.metrics["parallel.efficiency"] = summary([0.0], "ratio")
    if tracer.missing:
        out.notes.append("not in this tree: " + ", ".join(tracer.missing))
    return out


def _layer_records(tracer: LayerTracer, wall_s: float,
                   heap: Dict[str, float]) -> Dict[str, dict]:
    values = dict(tracer.layer_metrics(wall_s), **heap)
    return {key: summary([value], unit_of(key))
            for key, value in values.items()}


# --- CLI workloads ------------------------------------------------------------

def cli_commands(name: str, seed: int) -> List[List[str]]:
    """The ``repro`` invocations of one CLI workload pass.

    The crucible keeps its default seed: at most other seeds its
    200-scenario frontier finds a real transparency and
    restore-equivalence violation (VampOS-Supervised multi_panic@direct),
    which would make the workload fail instead of measure."""
    if name == "fleet_campaign":
        return [["fleet", "--seed", str(FLEET_SEED + seed)]]
    return [["all", "--quick"], ["crucible", "--budget", "200"],
            ["chaos-soak", "--seed", str(SOAK_SEED + seed)]]


#: wall seconds of one pass (every command at --jobs 1 and --jobs N) on
#: a 2-core x86-64 box; a run makes one pass per this many --seconds
CLI_PASS_SECONDS = 12.0

SPEED_SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "speed.py")


def _spawn(ctx: Context, argv: List[str],
           timeout: float = 170.0) -> Tuple[float, int, str]:
    """(wall seconds, exit code, stdout) of one fresh Python process."""
    env = dict(os.environ, PYTHONPATH=ctx.src)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ctx.workdir,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # the command's pool workers share its session: stop them too
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
        return time.perf_counter() - t0, -1, stdout
    return time.perf_counter() - t0, proc.returncode, stdout


def _run_probed(ctx: Context, argv: List[str]) -> Tuple[dict, str]:
    """Run ``repro argv`` (or just ``import repro.cli``) in a fresh
    process under a speed probe; (speed.py's result, stdout)."""
    result_path = os.path.join(ctx.workdir, "probe.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(result_path)
    wall, code, stdout = _spawn(ctx, [SPEED_SHIM, result_path, *argv])
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except FileNotFoundError:  # the process died before writing it
        result = {"code": code, "wall_ns": wall * 1e9,
                  "scaled_ns": wall * 1e9}
    result["code"] = code
    return result, stdout


def _invocation_ok(code: int, stdout: str) -> bool:
    return code == 0 and "[FAIL]" not in stdout


def run_cli(name: str, ctx: Context) -> Outcome:
    """Passes of every command, at --jobs 1 under a speed probe and at
    --jobs N as plain ``python -m repro``; arms alternate which goes
    first, and every report must match the first one printed."""
    commands = cli_commands(name, ctx.seed)
    out = Outcome()
    out.metrics["setup_s"] = summary(
        [_run_probed(ctx, [])[0]["scaled_ns"] / 1e9
         for _ in range(SETUP_REPEATS)], "s")
    _control(ctx, out)

    serial: List[float] = []
    peak_rss: List[float] = []
    pass_rates: List[float] = []
    pass_wall_rates: List[float] = []
    walls: Dict[str, List[float]] = {"serial": [], "par": []}
    reports: Dict[str, str] = {}
    for index in range(max(1, int(ctx.seconds // CLI_PASS_SECONDS))):
        order = ("serial", "par") if index % 2 == 0 else ("par", "serial")
        pass_walls = {"serial": 0.0, "par": 0.0}
        pass_scaled = 0.0
        for arm in order:
            jobs = 1 if arm == "serial" else JOBS
            for argv in commands:
                args = argv + ["--jobs", str(jobs)]
                if arm == "serial":
                    result, stdout = _run_probed(ctx, args)
                    code = result["code"]
                    wall = result["wall_ns"] / 1e9
                    serial.append(result["scaled_ns"])
                    peak_rss.append(result.get("maxrss_mb", 0.0))
                    pass_scaled += result["scaled_ns"] / 1e9
                else:
                    wall, code, stdout = _spawn(ctx, ["-m", "repro", *args])
                command = " ".join(argv)
                out.attempted += 1
                same = reports.setdefault(command, stdout) == stdout
                if not (_invocation_ok(code, stdout) and same):
                    out.failed += 1
                    out.notes.append(f"{command} --jobs {jobs}: exit {code}"
                                     + ("" if same else ", report differs"))
                pass_walls[arm] += wall
        for arm, seconds in pass_walls.items():
            walls[arm].append(seconds)
        pass_rates.append(len(commands) / pass_scaled)
        pass_wall_rates.append(len(commands) / pass_walls["serial"])

    out.metrics["ops_per_s"] = summary(pass_rates, "1/s")
    out.metrics["ops_per_s_wall"] = summary(pass_wall_rates, "1/s")
    out.metrics.update(latency_metrics(serial))
    # jobs-1 processes only: at --jobs N, which worker ends up with the
    # most memory depends on pool scheduling
    out.metrics["peak_rss_mb"] = summary([max(peak_rss)], "MB")
    out.metrics["wall_s"] = summary(walls["serial"], "s")
    out.metrics["wall_s_par"] = summary(walls["par"], "s")
    out.metrics["fail_frac"] = summary([out.failed / max(out.attempted, 1)],
                                       "ratio")
    return out


def _control(ctx: Context, out: Outcome) -> None:
    """The vanilla-kernel control of a CLI workload, in this process."""
    with SpeedProbe() as probe:
        stepper = CONTROL.make(make_inputs(ctx.seed))
        _loop(stepper, CONTROL.warm_items)
        spans, failed = _loop(stepper, _items(CONTROL.rate, ctx.seconds))
    out.attempted += len(spans) * stepper.ops
    out.failed += failed
    out.metrics["vanilla_ops_per_s"] = summary(
        chunk_rates(_scaled(probe, spans), stepper.ops, CONTROL.chunk),
        "1/s")
    out.metrics["host_slowdown"] = summary([probe.slowdown()], "ratio")


def _main_in_process(argv: List[str], clock: Callable[[], float]
                     ) -> Tuple[float, int, str]:
    """(elapsed on ``clock``, exit code, stdout) of ``repro argv`` run
    in this process."""
    from repro import cli
    buffer = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv, out=buffer)
    return clock() - t0, code, buffer.getvalue()


def trace_cli(name: str, ctx: Context) -> Outcome:
    """The commands in this process: untraced at --jobs 1 and --jobs N,
    then traced at --jobs 1; all three must print the same reports.
    The jobs-1 arms run under a speed probe; parallel efficiency
    compares the wall times of the two untraced arms, calibration
    excluded."""
    commands = cli_commands(name, ctx.seed)
    out = Outcome()
    walls: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    reports: Dict[str, str] = {}
    heap: Dict[str, float] = {}
    tracer = None
    for arm in ("serial", "par", "traced"):
        jobs = JOBS if arm == "par" else 1
        # a probe in the parent would compete with the pool's workers
        with contextlib.nullcontext() if arm == "par" else SpeedProbe() \
                as probe:
            clock = probe.clock if probe else time.perf_counter_ns
            if arm == "traced":
                tracer = LayerTracer(clock=clock)
                tracer.install()
            try:
                walls[arm] = raw[arm] = 0.0
                for argv in commands:
                    t0 = time.perf_counter_ns()
                    elapsed, code, stdout = _main_in_process(
                        argv + ["--jobs", str(jobs)], clock)
                    t1 = time.perf_counter_ns()
                    raw[arm] += probe.work_ns(t0, t1) if probe else t1 - t0
                    walls[arm] += elapsed
                    out.attempted += 1
                    command = " ".join(argv)
                    if not _invocation_ok(code, stdout):
                        out.failed += 1
                        out.notes.append(f"{command} ({arm}): exit {code}")
                    out.check(reports.setdefault(command, stdout) == stdout,
                              f"{command} ({arm}) printed a different report")
                if arm == "traced":
                    heap = heap_metrics()
            finally:
                if tracer is not None:
                    tracer.uninstall()
    out.metrics.update(_layer_records(tracer, walls["traced"] / 1e9, heap))
    out.metrics["trace.overhead_frac"] = summary(
        [1.0 - walls["serial"] / walls["traced"]], "ratio")
    out.metrics["parallel.efficiency"] = summary(
        [raw["serial"] / (JOBS * raw["par"])], "ratio")
    if tracer.missing:
        out.notes.append("not in this tree: " + ", ".join(tracer.missing))
    return out


def run_workload(name: str, ctx: Context, trace: bool) -> Outcome:
    if name in IN_PROCESS:
        return (trace_in_process if trace else run_in_process)(name, ctx)
    return (trace_cli if trace else run_cli)(name, ctx)
