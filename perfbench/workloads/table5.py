"""``table5-byte``: the paper's "Single id and byte" Table V row.

Runs ``UnlockExperiment(check_mode="byte", seed=0).run_trials(N)``:
scalar, every trial on a fresh bench, each stopping at its unlock.
Trial lengths are uneven (the row's first trials unlock after 482, 546
and 317 simulated seconds), which is the shape a width-adaptive batch
engine has to win on.  The row is a fixed experiment, so the trials
do not depend on ``--seed``; ``--seconds`` sets N from the pinned
frame counts and a nominal speed, never from a measured one.

Work unit: fuzz frames.  Latency item: one trial, from building its
bench to its unlock.  Both are timed in CPU seconds scaled to the
reference host by the yardstick sampled during the row; the host's own
wall figures are in the report as ``frames_per_s`` and ``wall_s``.
"""

from __future__ import annotations

from core import Gates, Metric, Tracer, Usage
from workloads.common import (Context, Outcome, call_layers,
                              count_world_delta, host_metrics, overhead_frac,
                              timed_setup, world_counters, world_layers)

NAME = "table5-byte"

#: Frames per host second assumed when sizing the row from --seconds.
NOMINAL_FPS = 43_000

#: Simulated seconds of the capped trial the traced run uses to price
#: its own instrumentation.
CALIBRATION_SIM_S = 80.0


def row_size(seconds: float, trials: list[dict]) -> int:
    """Trials in the row: the shortest prefix nominally filling
    ``seconds`` (at least one)."""
    total = 0.0
    for count, trial in enumerate(trials, start=1):
        total += trial["frames"] / NOMINAL_FPS
        if total >= 0.9 * seconds:
            return count
    return len(trials)


def _instrument(ctx: Context, readings: list) -> None:
    """Spans around the row, each trial and each campaign, with each
    trial's yardstick reading appended to ``readings``; in a traced
    run also the per-frame calls and the batch engine."""
    from repro.can.adapter import PcanStyleAdapter
    from repro.fuzz import batch
    from repro.fuzz.campaign import FuzzCampaign
    from repro.fuzz.generator import RandomFrameGenerator
    from repro.testbench.experiment import UnlockExperiment

    tracer = ctx.tracer

    def before(span, args):
        campaign = args[0]
        return world_counters(campaign.sim, campaign.adapter.controller.bus)

    def after(span, args, state, result):
        campaign = args[0]
        count_world_delta(span, state, world_counters(
            campaign.sim, campaign.adapter.controller.bus))
        span.counters["frames"] = result.frames_sent
        span.counters["findings"] = len(result.findings)

    tracer.wrap_span(UnlockExperiment, "run_trials", "table5.row",
                     trace_id=lambda *a: "row")
    tracer.wrap_span(UnlockExperiment, "run_trial", "table5.trial",
                     trace_id=lambda self, trial: f"trial-{trial}",
                     before=lambda span, args: ctx.yardstick.mark(),
                     after=lambda span, args, mark, result:
                     readings.append(ctx.yardstick.since(mark)))
    tracer.wrap_span(FuzzCampaign, "run", "fuzz.campaign",
                     before=before, after=after)
    if ctx.trace:
        tracer.wrap_calls(PcanStyleAdapter, "write", "can.adapter_write")
        tracer.wrap_calls(RandomFrameGenerator, "next_frame",
                          "fuzz.generator")
        tracer.wrap_span(batch.BatchCampaign, "run", "batch.engine")
        tracer.wrap_calls(batch, "plan_frame_world", "batch.plan")


def _calibrate() -> float:
    """``trace.overhead_frac`` of the per-frame call wrappers, priced
    on a capped trial (the spans are there in both runs)."""
    from repro.can.adapter import PcanStyleAdapter
    from repro.fuzz.generator import RandomFrameGenerator
    from repro.testbench.experiment import UnlockExperiment

    experiment = UnlockExperiment(check_mode="byte", seed=0,
                                  trial_timeout_seconds=CALIBRATION_SIM_S)

    def trial(traced: bool) -> None:
        tracer = Tracer()
        if traced:
            tracer.wrap_calls(PcanStyleAdapter, "write", "can.adapter_write")
            tracer.wrap_calls(RandomFrameGenerator, "next_frame",
                              "fuzz.generator")
        try:
            experiment.run_trial(0)
        finally:
            tracer.unpatch_all()
    return overhead_frac(trial)


def check_row(gates: Gates, pinned: list[dict], times: list[float],
              frames: list[int], timeouts: int) -> Gates:
    """Each trial's unlock time, and its frame count wherever a scalar
    campaign reported one, must equal the pin."""
    for index, pin in enumerate(pinned):
        ok = index < len(times) and times[index] == pin["seconds"]
        if index < len(frames):
            ok = ok and frames[index] == pin["frames"]
        gates.check(ok, f"trial {pin['trial']}: expected "
                        f"{pin['seconds']} s / {pin['frames']} frames")
    gates.check(timeouts == 0, f"{timeouts} trial(s) timed out")
    return gates


def run(ctx: Context) -> Outcome:
    from repro.testbench.experiment import UnlockExperiment

    pins = ctx.pins[NAME]
    trials = row_size(ctx.seconds, pins["trials"])
    pinned = pins["trials"][:trials]
    setup = timed_setup(ctx, NAME)

    tracer = ctx.tracer
    readings = []
    _instrument(ctx, readings)
    experiment = UnlockExperiment(check_mode=pins["check_mode"],
                                  seed=pins["experiment_seed"])
    try:
        with ctx.yardstick.sampling():
            mark = ctx.yardstick.mark()
            row = experiment.run_trials(trials)
            whole = ctx.yardstick.since(mark)
    finally:
        tracer.unpatch_all()
    wall = whole.wall_s
    usage = Usage.now()

    campaign_frames = [s.counters["frames"] for s in tracer.spans
                       if s.name == "fuzz.campaign"]
    gates = check_row(Gates(), pinned, row.times_seconds, campaign_frames,
                      row.timeouts)

    frames = sum(pin["frames"] for pin in pinned)
    walls = [r.wall_s for r in readings]
    per_trial_fps = [pin["frames"] / w for pin, w in zip(pinned, walls)]
    latencies = [r.norm_cpu_s for r in readings]
    outcome = Outcome(
        setup=setup,
        throughput=(frames / whole.norm_cpu_s,
                    [pin["frames"] / s for pin, s in zip(pinned, latencies)],
                    "fuzz frames"),
        latencies=latencies, latency_item="trial",
        gates=gates, cpu_s=whole.norm_cpu_s,
        peak_rss_mb=usage.peak_rss_mb,
        config={"experiment_seed": pins["experiment_seed"],
                "check_mode": pins["check_mode"], "trials": trials,
                "frames": frames,
                "trial_seconds": list(row.times_seconds)})
    outcome.aliases = [
        Metric("frames_per_s", "1/s", frames / wall, per_trial_fps),
        Metric("wall_s", "s", wall)] + host_metrics(whole)
    if ctx.trace:
        outcome.layers = _layers(ctx, frames, [p["frames"] for p in pinned])
    return outcome


def _layers(ctx: Context, frames: int, trial_frames: list[int]) -> dict:
    tracer = ctx.tracer
    layers = world_layers(tracer, frames)
    layers.update(call_layers(tracer, "can.adapter_write",
                              "can.adapter_write"))
    layers.update(call_layers(tracer, "fuzz.generator", "fuzz.generator"))
    layers["fuzz.campaign.self_s"] = tracer.self_seconds("fuzz.campaign")
    layers["fuzz.oracle.findings"] = tracer.counter("findings")
    # The width a batch engine would face if the row ran as one batch.
    layers["batch.mean_live_width"] = sum(trial_frames) / max(trial_frames)
    layers["batch.engine.self_s"] = tracer.self_seconds("batch.engine")
    layers["batch.plan.self_s"] = tracer.call_totals("batch.plan")[1]
    layers["trace.overhead_frac"] = _calibrate()
    return layers
