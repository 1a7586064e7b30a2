"""``uds-keep-going``: a journalled UDS campaign, then triage.

The in-process equivalent of ``fuzz-uds --keep-going --minimize
--journal DIR``: a 1,500-request stateful UDS campaign that keeps
going after findings, with a durable journal; then each finding is
confirmed by a clean replay and shrunk by ddmin over the snapshot
replayer.  It is the workload where ``repro.uds``, the replayers,
``repro.fuzz.minimize`` and journal writes dominate.

A run repeats this for several campaign seeds, drawn by ``--seed``
from the pinned pool so that the draw's totals of two pinned work
counts -- kernel events in the campaigns and requests simulated during
triage -- are each within 3% of the pool average: the work per run
stays comparable across seeds while the inputs change.

Work unit: UDS requests, fuzzed and triaged: ``throughput_per_s`` is
requests over the whole keep-going run, campaign start to last
minimised finding.  Latency item: one finding, confirmed and
minimised.  Both are timed in CPU seconds scaled to the reference host
by the yardstick sampled during the run, so the journal's waits on the
disk are not in them (the host's disk swung the campaign phase by
13-24% over ten runs); the host's own wall figures are in the report as
``requests_per_s`` (campaign phase) and ``wall_s``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import statistics
import time

from core import Gates, Metric, Tracer, Usage
from workloads.common import (Context, Outcome, count_world_delta,
                              host_metrics, overhead_frac, timed_setup,
                              world_counters, world_layers)

NAME = "uds-keep-going"
REQUESTS = 1500
CHECKPOINT_EVERY = 200

#: Host seconds one campaign plus its triage is assumed to take.
NOMINAL_ROUND_S = 2.5

#: Allowed distance of a draw's work counts from their targets.
DRAW_TOLERANCE = 0.03
#: The pinned work counts a draw is balanced on.
WORK_COUNTS = ("events", "replayed")
DRAW_ATTEMPTS = 20_000


def rounds_for(seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_ROUND_S))


def draw_campaigns(seed: int, rounds: int, pool: dict[str, dict]) -> list[int]:
    """``rounds`` campaign seeds from ``pool`` (seed -> pinned record)
    whose :data:`WORK_COUNTS` totals are each nearest ``rounds`` x the
    pool mean: the first draw within :data:`DRAW_TOLERANCE` on every
    count wins, else the draw with the smallest worst relative gap."""
    keys = sorted(pool, key=int)
    targets = {c: rounds * statistics.fmean(p[c] for p in pool.values())
               for c in WORK_COUNTS}
    rng = random.Random(seed)
    best, best_gap = None, None
    for _ in range(DRAW_ATTEMPTS):
        draw = rng.sample(keys, rounds)
        gap = max(abs(sum(pool[k][c] for k in draw) - target) / target
                  for c, target in targets.items())
        if best_gap is None or gap < best_gap:
            best, best_gap = draw, gap
        if gap <= DRAW_TOLERANCE:
            break
    return [int(k) for k in best]


def sequence_digest(requests) -> str:
    """Short digest of a minimised request sequence."""
    text = "\n".join(request.hex() for request in requests)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def triage(finding, seed: int, key_algorithm, tracer) -> tuple[str, dict]:
    """Confirm one finding on a clean bench, then minimise it.

    Returns the minimised sequence's digest ("" when the finding is
    not confirmed or does not reproduce on the replay grid) and the
    snapshot replayer's counters.
    """
    from repro.fuzz import MinimizeStats
    from repro.testbench import UdsReplayFactory
    from repro.uds.replay import UdsSnapshotReplayer, confirm_uds_findings

    factory = UdsReplayFactory(seed=seed)
    with tracer.span("replay.confirm"):
        report = confirm_uds_findings([finding], factory,
                                      key_algorithm=key_algorithm)
    if not report.confirmed:
        return "", {}
    with tracer.span("replay.minimize"):
        replayer = UdsSnapshotReplayer(factory, key_algorithm=key_algorithm)
        try:
            minimal = replayer.minimize(list(finding.recent_requests),
                                        stats=MinimizeStats())
        except ValueError:
            return "", replayer.stats()
    return sequence_digest(minimal), replayer.stats()


def campaign_round(ctx: Context, seed: int, index: int,
                   tracer: Tracer) -> dict:
    """One campaign and the triage of every finding it made, with the
    triage's spans on ``tracer``.  The record's ``reading`` is the
    round's yardstick reading and ``finding_cpu`` each finding's CPU
    seconds."""
    from repro.fuzz import CampaignJournal, CampaignLimits, ShardSpec
    from repro.service.queue import result_fingerprint
    from repro.testbench import UdsBenchFactory

    spec = ShardSpec(index=0, shard_count=1, master_seed=seed, seed=seed,
                     limits=CampaignLimits(max_frames=REQUESTS,
                                           stop_on_finding=False))
    journal_dir = ctx.scratch / f"uds-{index}-{seed}"
    yardstick = ctx.yardstick
    whole = yardstick.mark()
    started = time.perf_counter()
    campaign = UdsBenchFactory(stop_on_finding=False)(spec)
    campaign.attach_journal(CampaignJournal(str(journal_dir)),
                            checkpoint_every=CHECKPOINT_EVERY)
    events = campaign.bench.sim.events_fired
    result = campaign.run()
    campaign_s = time.perf_counter() - started
    events = campaign.bench.sim.events_fired - events
    key_algorithm = result.health.get("uds", {}).get("key_algorithm_index")
    digests, latencies, finding_cpu, stats = [], [], [], []
    for number, finding in enumerate(result.findings):
        mark = yardstick.mark()
        with tracer.span("replay.finding",
                         trace_id=f"campaign-{seed}/finding-{number}") as span:
            digest, replay_stats = triage(finding, seed, key_algorithm,
                                          tracer)
        finding_cpu.append(yardstick.since(mark).cpu_s)
        digests.append(digest)
        latencies.append(span.duration)
        stats.append(replay_stats)
    return {"seed": seed, "result": result, "reading": yardstick.since(whole),
            "finding_cpu": finding_cpu,
            "fingerprint": result_fingerprint(result.to_dict()),
            "digests": digests, "latencies": latencies,
            "campaign_s": campaign_s, "events": events,
            "replayed": sum(s.get("requests_simulated", 0) for s in stats),
            "wall_s": time.perf_counter() - started,
            "replay_stats": stats}


def check_campaigns(gates: Gates, records: list[dict], pool: dict) -> Gates:
    """Each campaign's result fingerprint, and each finding's minimised
    sequence, must equal the pin."""
    for record in records:
        pin = pool[str(record["seed"])]
        same_run = record["fingerprint"] == pin["fingerprint"]
        gates.check(same_run, f"campaign {record['seed']}: result "
                              f"fingerprint differs from the pin")
        for number, digest in enumerate(record["digests"]):
            expected = (pin["minimized"][number]
                        if number < len(pin["minimized"]) else None)
            gates.check(same_run and digest == expected,
                        f"campaign {record['seed']} finding {number}: "
                        f"minimised to {digest or 'nothing'}, pinned "
                        f"{expected}")
    return gates


def _instrument(tracer: Tracer, calls: bool) -> None:
    """A span with world counters around each campaign; with ``calls``
    also per-call time in the journal."""
    from repro.fuzz import CampaignJournal
    from repro.fuzz.uds_campaign import UdsFuzzCampaign

    def before(span, args):
        bench = args[0].bench
        return world_counters(bench.sim, bench.bus)

    def after(span, args, state, result):
        bench = args[0].bench
        count_world_delta(span, state, world_counters(bench.sim, bench.bus))

    tracer.wrap_span(UdsFuzzCampaign, "run", "uds.campaign",
                     trace_id=lambda campaign: campaign.name,
                     before=before, after=after)
    if calls:
        tracer.wrap_calls(CampaignJournal, "append", "journal.append")
        tracer.wrap_calls(CampaignJournal, "save_checkpoint",
                          "journal.checkpoint")


def run(ctx: Context) -> Outcome:
    pins = ctx.pins[NAME]
    pool = pins["campaigns"]
    rounds = rounds_for(ctx.seconds)
    seeds = draw_campaigns(ctx.seed, rounds, pool)
    setup = timed_setup(ctx, NAME)

    _instrument(ctx.tracer, calls=ctx.trace)
    try:
        with ctx.yardstick.sampling():
            mark = ctx.yardstick.mark()
            records = [campaign_round(ctx, seed, index, ctx.tracer)
                       for index, seed in enumerate(seeds)]
            whole = ctx.yardstick.since(mark)
    finally:
        ctx.tracer.unpatch_all()
    usage = Usage.now()

    gates = check_campaigns(Gates(), records, pool)

    requests = sum(r["result"].frames_sent for r in records)
    campaign_s = sum(r["campaign_s"] for r in records)
    per_round_rps = [r["result"].frames_sent / r["campaign_s"]
                     for r in records]
    # A finding is too short to sample; its round's speed scales it.
    latencies = [cpu * r["reading"].factor
                 for r in records for cpu in r["finding_cpu"]]
    scaled = [r["reading"].norm_cpu_s for r in records]
    walls = [r["wall_s"] for r in records]
    outcome = Outcome(
        setup=setup,
        throughput=(requests / sum(scaled),
                    [r["result"].frames_sent / s
                     for r, s in zip(records, scaled)],
                    "UDS requests fuzzed and triaged"),
        latencies=latencies, latency_item="finding",
        gates=gates, cpu_s=whole.norm_cpu_s,
        peak_rss_mb=usage.peak_rss_mb,
        config={"requests_per_campaign": REQUESTS,
                "checkpoint_every": CHECKPOINT_EVERY,
                "campaign_seeds": seeds,
                "findings": len(latencies)})
    outcome.aliases = [
        Metric("requests_per_s", "1/s", requests / campaign_s,
               per_round_rps),
        Metric("wall_s", "s", statistics.median(walls), walls),
        Metric("finding_wall_p50_s", "s", statistics.median(
            s for r in records for s in r["latencies"]))
    ] + host_metrics(whole)
    if ctx.trace:
        outcome.layers = _layers(ctx, records, requests)
    return outcome


def _layers(ctx: Context, records: list, requests: int) -> dict:
    tracer = ctx.tracer
    stats = [s for r in records for s in r["replay_stats"] if s]

    def total(key):
        return sum(s.get(key, 0) for s in stats)

    appends, append_s = tracer.call_totals("journal.append")
    checkpoints, checkpoint_s = tracer.call_totals("journal.checkpoint")
    layers = world_layers(tracer, requests)
    layers.update({
        "uds.requests": requests,
        "uds.coverage_tuples": sum(
            r["result"].health["uds"].get("coverage", {}).get("tuples", 0)
            for r in records),
        "uds.findings": sum(len(r["result"].findings) for r in records),
        "uds.campaign.self_s": tracer.self_seconds("uds.campaign"),
        "replay.confirm.self_s": tracer.self_seconds("replay.confirm"),
        "replay.minimize.self_s": tracer.self_seconds("replay.minimize"),
        "replay.probes": total("replays"),
        "replay.restores": total("restores"),
        "replay.cache_hit_frac": (total("cache_hits") / total("replays")
                                  if total("replays") else 0.0),
        "replay.requests_simulated": total("requests_simulated"),
        "replay.requests_restored": total("requests_restored"),
        "journal.appends": appends,
        "journal.append.self_s": append_s,
        "journal.checkpoints": checkpoints,
        "journal.checkpoint.self_s": checkpoint_s,
    })
    # Price the journal call wrappers on the last round's campaign,
    # each run with a fresh journal.
    seed = records[-1]["seed"]
    indices = itertools.count(len(records))

    def again(traced: bool) -> None:
        tracer = Tracer()
        _instrument(tracer, calls=traced)
        try:
            campaign_round(ctx, seed, next(indices), tracer)
        finally:
            tracer.unpatch_all()
    layers["trace.overhead_frac"] = overhead_frac(again)
    return layers
