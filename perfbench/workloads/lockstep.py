"""``lockstep-wide``: 64 shards through the batched lockstep engine.

The in-process equivalent of ``fuzz-bench --shards 64 --batch-size 32
--jobs 2``: ``ShardedCampaign(UnlockBenchFactory(), ...)`` with
``stop_on_finding`` on and a per-shard cap of 20,000 frames, short
enough that almost every world stays live to the cap.  The batch
engine and the worker processes do the work; the scalar per-frame
path is nearly idle.  ``--seed`` is the campaign's master seed and
``--seconds`` sets how many times the same campaign runs.

Work unit: fuzz frames; throughput is the median over the identical
campaigns of a run.  Latency item: one campaign, from
``ShardedCampaign.run`` to its merged result.  Both are timed in the
CPU seconds of this process and its workers, scaled to the reference
host by the yardstick sampled inside each worker while it runs its
chunk (sampled from this process, which mostly waits, the scaled
figures spread three times as wide); the host's own wall figures are
in the report as ``frames_per_s`` and ``wall_s``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from contextlib import contextmanager
from pathlib import Path

from core import Gates, Metric, Tracer, Usage, Yardstick
from workloads.common import (Context, Outcome, count_world_delta,
                              host_metrics, overhead_frac, timed_setup,
                              world_counters, world_layers)

NAME = "lockstep-wide"
SHARDS = 64
BATCH_SIZE = 32
FRAMES_PER_SHARD = 20_000

#: Host seconds one campaign is assumed to take when sizing the run.
NOMINAL_ROUND_S = 3.5

#: Worlds re-run on the scalar kernel as the parity gate.
SAMPLED_WORLDS = 2


def rounds_for(seconds: float) -> int:
    """Campaign repetitions: at least two, so stability is checked."""
    return max(2, round(seconds / NOMINAL_ROUND_S))


def _limits():
    from repro.fuzz import CampaignLimits
    return CampaignLimits(max_frames=SHARDS * FRAMES_PER_SHARD,
                          stop_on_finding=True)


def _spec(seed: int, index: int, attempt: int = 0):
    from repro.fuzz import ShardSpec
    from repro.fuzz.parallel import derive_shard_seed, slice_limits
    return ShardSpec(index=index, shard_count=SHARDS, master_seed=seed,
                     seed=derive_shard_seed(seed, index, attempt),
                     limits=slice_limits(_limits(), SHARDS)[index],
                     attempt=attempt)


def _result_key(result) -> str:
    payload = result.to_dict()
    payload.pop("fallback_reasons", None)  # diagnostic, not the result
    return json.dumps(payload, sort_keys=True)


def check_rounds(gates: Gates, sharded: list, scalar: dict) -> Gates:
    """Every world of every round must succeed and equal its world in
    the first round, every round's merged fingerprint must equal the
    first's, and each sampled world (``scalar``: shard index -> scalar
    result) must equal its scalar run."""
    reference = {o.index: _result_key(o.result) for o in sharded[0].outcomes}
    first_fingerprint = sharded[0].fingerprint()
    for number, result in enumerate(sharded):
        for outcome in result.outcomes:
            gates.check(_result_key(outcome.result)
                        == reference.get(outcome.index),
                        f"round {number} shard {outcome.index} differs "
                        f"from round 0")
        for failure in result.failures:
            gates.check(False, f"round {number} shard {failure.index} "
                               f"failed")
        gates.check(result.fingerprint() == first_fingerprint,
                    f"round {number} merged fingerprint differs")
    by_index = {o.index: o for o in sharded[0].outcomes}
    for index, result in scalar.items():
        outcome = by_index.get(index)
        gates.check(outcome is not None
                    and _result_key(result) == _result_key(outcome.result),
                    f"shard {index} differs from its scalar run")
    return gates


@contextmanager
def worker_sampling(directory: Path):
    """Sample the yardstick inside every batch worker forked while the
    block runs.  Each worker's chunk goes through
    ``repro.fuzz.batch.run_shard_batch``; the worker writes its slice
    count and CPU seconds to ``directory`` before it replies, so they
    are there once the campaign has reaped it."""
    from repro.fuzz import batch

    original = batch.run_shard_batch

    def sampled(*args, **kwargs):
        yardstick = Yardstick()
        try:
            with yardstick.sampling():
                return original(*args, **kwargs)
        finally:
            (directory / f"{os.getpid()}.json").write_text(json.dumps(
                [yardstick.slices, yardstick.slice_cpu_total]))
    batch.run_shard_batch = sampled
    try:
        yield
    finally:
        batch.run_shard_batch = original


def collect_worker_slices(directory: Path, yardstick: Yardstick) -> None:
    """Count the slices the workers wrote to ``directory`` on
    ``yardstick``, and remove their files."""
    for path in sorted(directory.glob("*.json")):
        slices, cpu = json.loads(path.read_text())
        yardstick.add(slices, cpu)
        path.unlink()


def run(ctx: Context) -> Outcome:
    from repro.fuzz.parallel import ShardedCampaign
    from repro.testbench import UnlockBenchFactory

    rounds = rounds_for(ctx.seconds)
    jobs = min(2, ctx.nproc)
    setup = timed_setup(ctx, NAME)
    tracer = ctx.tracer

    yardstick = ctx.yardstick
    slices = ctx.scratch / "worker-slices"
    slices.mkdir()
    results, readings = [], []
    with worker_sampling(slices):
        whole = yardstick.mark()
        for index in range(rounds):
            with tracer.span("parallel.round",
                             trace_id=f"round-{index}") as span:
                mark = yardstick.mark()
                result = ShardedCampaign(
                    UnlockBenchFactory(), shards=SHARDS, limits=_limits(),
                    master_seed=ctx.seed, jobs=jobs,
                    batch_size=BATCH_SIZE).run()
                collect_worker_slices(slices, yardstick)
                readings.append(yardstick.since(mark))
            results.append((span.duration, result))
        whole = yardstick.since(whole)
    usage = Usage.now()

    sharded = [result for _, result in results]
    factory = UnlockBenchFactory()
    by_index = {o.index: o for o in sharded[0].outcomes}
    scalar = {}
    for index in random.Random(ctx.seed).sample(range(SHARDS),
                                                SAMPLED_WORLDS):
        outcome = by_index.get(index)
        scalar[index] = factory(_spec(ctx.seed, index,
                                      outcome.attempt if outcome else 0)).run()
    gates = check_rounds(Gates(), sharded, scalar)
    first_fingerprint = sharded[0].fingerprint()

    walls = [r.wall_s for r in readings]
    frames = [result.frames_sent for _, result in results]
    per_round_fps = [f / w for f, w in zip(frames, walls)]
    latencies = [r.norm_cpu_s for r in readings]
    per_round_scaled = [f / s for f, s in zip(frames, latencies)]
    outcome = Outcome(
        setup=setup,
        throughput=(statistics.median(per_round_scaled), per_round_scaled,
                    "fuzz frames"),
        latencies=latencies, latency_item="campaign of 64 shards",
        gates=gates, cpu_s=whole.norm_cpu_s,
        peak_rss_mb=usage.peak_rss_mb,
        config={"shards": SHARDS, "batch_size": BATCH_SIZE, "jobs": jobs,
                "frames_per_shard": FRAMES_PER_SHARD, "rounds": rounds,
                "master_seed": ctx.seed,
                "fingerprint": first_fingerprint})
    outcome.aliases = [
        Metric("frames_per_s", "1/s", statistics.median(per_round_fps),
               per_round_fps),
        Metric("wall_s", "s", statistics.median(walls), walls)
    ] + host_metrics(whole)
    if ctx.trace:
        outcome.layers = _layers(ctx, results)
    return outcome


def _layers(ctx: Context, results: list) -> dict:
    worlds = sum(len(r.outcomes) + len(r.failures) for _, r in results)
    fallbacks = sum(len(r.fallback_reasons) for _, r in results)
    widths, maxima, overheads = [], [], []
    for wall, result in results:
        frames = [o.result.frames_sent for o in result.outcomes]
        widths.append(sum(frames) / max(frames))
        slowest = max(o.wall_seconds for o in result.outcomes)
        maxima.append(slowest)
        overheads.append(wall - slowest)
    layers = {
        "batch.worlds": worlds,
        "batch.fallbacks": fallbacks,
        "batch.admitted_frac": 1 - fallbacks / worlds,
        "batch.mean_live_width": statistics.median(widths),
        "parallel.shard_wall_max_s": statistics.median(maxima),
        "parallel.parent_overhead_s": statistics.median(overheads),
        "parallel.retries": sum(r.total_retries for _, r in results),
    }
    overhead, frames = _chunk(ctx)
    layers.update(world_layers(ctx.tracer, frames))
    layers["batch.plan.self_s"] = ctx.tracer.call_totals("batch.plan")[1]
    layers["batch.engine.self_s"] = ctx.tracer.self_seconds("batch.engine")
    layers["trace.overhead_frac"] = overhead
    return layers


def _instrument(tracer: Tracer) -> None:
    """A span with world counters around each batch engine run, and
    per-call time in the planner."""
    from repro.fuzz import batch

    def before(span, args):
        engine = args[0]
        return [world_counters(c.sim, c.adapter.controller.bus)
                for c in engine.campaigns]

    def after(span, args, state, result):
        engine = args[0]
        for campaign, counters in zip(engine.campaigns, state):
            count_world_delta(span, counters, world_counters(
                campaign.sim, campaign.adapter.controller.bus))

    tracer.wrap_span(batch.BatchCampaign, "run", "batch.engine",
                     before=before, after=after)
    tracer.wrap_calls(batch, "plan_frame_world", "batch.plan")


def _chunk(ctx: Context) -> tuple[float, int]:
    """One worker's chunk run in this process through
    ``run_shard_batch``: once traced on the run's tracer for the layer
    figures, then in interleaved untraced/traced pairs, now warm, to
    price the tracing.

    Returns ``trace.overhead_frac`` and the chunk's frames.
    """
    from repro.fuzz import batch
    from repro.testbench import UnlockBenchFactory

    specs = [_spec(ctx.seed, index) for index in range(BATCH_SIZE)]

    def once(tracer: Tracer | None) -> list:
        if tracer is not None:
            _instrument(tracer)
        try:
            return batch.run_shard_batch(UnlockBenchFactory(), specs)
        finally:
            if tracer is not None:
                tracer.unpatch_all()

    with ctx.tracer.span("batch.chunk", trace_id="chunk-0"):
        pairs = once(ctx.tracer)
    overhead = overhead_frac(lambda traced: once(Tracer() if traced
                                                 else None))
    return overhead, sum(r.frames_sent for r, _ in pairs)
