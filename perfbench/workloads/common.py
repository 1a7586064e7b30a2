"""What every workload shares: the run context, the outcome it hands
back, the set-up measurement and the world-counter observer."""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from core import Gates, Metric, Reading, Tracer, Yardstick

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: A set-up that has not reported ready by then has failed.
SETUP_TIMEOUT_S = 60.0

#: Seconds a terminated child gets to exit before it is killed.
STOP_GRACE_S = 20.0

#: Interleaved untraced/traced pairs that price a run's tracing.
OVERHEAD_PAIRS = 3


@dataclass
class Context:
    """One benchmark run's inputs and scratch space."""

    seed: int
    seconds: int
    trace: bool
    root: Path
    scratch: Path
    tracer: Tracer
    nproc: int
    pins: dict
    yardstick: Yardstick = field(default_factory=Yardstick)

    def env(self) -> dict:
        """Environment for child interpreters: the checkout's sources."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        return env


@dataclass
class Outcome:
    """What a workload measured.

    ``throughput`` is ``(value, per-round samples, what one unit of
    work is)``; ``latencies`` are per-item seconds; ``aliases`` repeat
    end-to-end figures under the workload's own names
    (``frames_per_s``, ``wall_s``, ``job_latency_p90_s``, ...) and give
    the unscaled host figures; ``layers`` holds the per-layer figures
    of a traced run.  Compute times (``setup``, ``cpu_s`` and, except
    for the service's timer-bound jobs, ``throughput`` and
    ``latencies``) are scaled to the reference host by the
    :class:`~core.Yardstick`.
    """

    setup: list[float]
    throughput: tuple[float, list[float], str]
    latencies: list[float]
    latency_item: str
    gates: Gates
    cpu_s: float
    peak_rss_mb: float
    aliases: list[Metric] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def scaled(ctx: Context, measure: Callable[[], float]) -> float:
    """The seconds ``measure()`` returns, scaled to the reference host
    by a yardstick burst on either side of it."""
    yardstick = ctx.yardstick
    mark = yardstick.mark()
    yardstick.burst()
    seconds = measure()
    yardstick.burst()
    return seconds * yardstick.since(mark).factor


def host_metrics(reading: Reading) -> list[Metric]:
    """The host's measured speed over a run, for the report."""
    return [Metric("yardstick_slice_s", "s", reading.slice_s),
            Metric("host_speed_factor", "x", reading.factor,
                   note="reference host speed over this host's; scaled "
                        "times are host times x this")]


def timed_setup(ctx: Context, workload: str) -> list[float]:
    """Seconds from spawning ``perfbench/setup_probe.py`` to its ready
    line, once per rep, scaled to the reference host: interpreter
    start, imports and the first world the workload builds."""
    return [scaled(ctx, lambda: _probe(ctx, workload, rep))
            for rep in range(SETUP_REPS)]


def _probe(ctx: Context, workload: str, rep: int) -> float:
    """Host seconds from spawning the probe to its ready line."""
    probe = Path(__file__).resolve().parent.parent / "setup_probe.py"
    workdir = ctx.scratch / f"setup-{rep}"
    workdir.mkdir()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(probe), workload, str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ctx.root, env=ctx.env())
    try:
        line = read_line(proc, SETUP_TIMEOUT_S)
        ready = time.perf_counter()
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} printed "
                               f"{line!r} instead of 'ready'")
        proc.stdout.read()
        if proc.wait(timeout=SETUP_TIMEOUT_S) != 0:
            raise RuntimeError(f"set-up probe for {workload} exited "
                               f"{proc.returncode}")
    finally:
        stop(proc)
    return ready - started


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of ``proc``'s stdout, or raise after ``timeout`` s."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RuntimeError(f"no output from pid {proc.pid} within "
                           f"{timeout:.0f} s")
    return proc.stdout.readline()


def stop(proc: subprocess.Popen) -> None:
    """Terminate ``proc`` (and its process group if it leads one) and
    wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, 9)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def world_counters(sim, bus) -> dict:
    """Kernel and wire counters of one simulated world."""
    stats = bus.stats
    return {"events": sim.events_fired, "now": sim.now,
            "frames_delivered": stats.frames_delivered,
            "arbitration_rounds": stats.arbitration_rounds,
            "error_frames": stats.error_frames,
            "busy_ticks": stats.busy_ticks}


def count_world_delta(span, before: dict, after: dict) -> None:
    """Charge a world's counter deltas to ``span``."""
    for key in before:
        span.counters[f"world.{key}"] = (span.counters.get(f"world.{key}", 0)
                                         + after[key] - before[key])


def world_layers(tracer: Tracer, frames: int) -> dict:
    """``sim.*`` and ``can.*`` bus figures from world counters."""
    events = tracer.counter("world.events")
    elapsed = tracer.counter("world.now")
    return {
        "sim.events_fired": events,
        "sim.events_per_frame": events / frames if frames else 0.0,
        "can.frames_delivered": tracer.counter("world.frames_delivered"),
        "can.arbitration_rounds": tracer.counter("world.arbitration_rounds"),
        "can.error_frames": tracer.counter("world.error_frames"),
        "can.bus_utilisation": (tracer.counter("world.busy_ticks") / elapsed
                                if elapsed else 0.0),
    }


def call_layers(tracer: Tracer, prefix: str, call: str) -> dict:
    count, seconds = tracer.call_totals(call)
    return {f"{prefix}.calls": count, f"{prefix}.self_s": seconds}


def overhead_frac(run: Callable[[bool], object]) -> float:
    """What tracing costs: ``run(traced)`` does the same work with the
    traced run's extra instrumentation on or off.  Returns the traced
    over untraced median wall of :data:`OVERHEAD_PAIRS` interleaved
    pairs, minus one."""
    walls = {False: [], True: []}
    for _ in range(OVERHEAD_PAIRS):
        for traced in (False, True):
            started = time.perf_counter()
            run(traced)
            walls[traced].append(time.perf_counter() - started)
    return statistics.median(walls[True]) / statistics.median(walls[False]) - 1
