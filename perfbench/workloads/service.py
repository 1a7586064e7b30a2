"""``service-open-loop``: small UDS jobs through ``fuzz-serve``.

A ``fuzz-serve`` subprocess with ``max(1, nproc - 1)`` worker slots
takes jobs from one open-loop generator (``perfbench/loadgen.py``):
a fixed offered rate with seeded arrivals, tenants rotating over a
small fixed set with rate limits and quotas set out of reach, and
every live job polled at a fixed period.  Jobs are short, so the
service layers (HTTP, queue, lease, journal, worker spawn and IPC) are
most of each job's latency, and because arrivals do not wait for
completions, queueing shows in the tail.  ``--seed`` sets the jobs'
campaign seeds and arrival times; ``--seconds`` sets how many jobs are
offered (at least 100).

Work unit: completed jobs.  Latency item: one job, from when its
submit was due to when the generator saw it completed.  Job latency is
host wall time, unscaled: much of it is the service's timers (its
orchestrator tick, the generator's polls), which do not run faster on
a faster host.  ``cpu_s``, the service's CPU for the offered jobs, and
``setup_s`` are scaled to the reference host by the yardstick, sampled
in the generator while the jobs run.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from core import Gates, Metric, Usage, nearest_rank
from loadgen import HttpClient, OpenLoop, stratified_offsets
from workloads.common import (SETUP_REPS, SETUP_TIMEOUT_S, Context, Outcome,
                              host_metrics, read_line, scaled, stop)

NAME = "service-open-loop"

OFFERED_RATE = 10.0         # jobs per second
POLL_PERIOD_S = 0.025       # between two polls of one live job
REQUESTS_PER_JOB = 20
TENANTS = 4
MIN_JOBS = 100
#: A job meets the service level when it completes within this many
#: seconds of its due time.  Fixed once, about 4x the p90 latency
#: (0.13 s) measured on a 2-core host when the benchmark was written.
LATENCY_LIMIT_S = 0.5


def job_count(seconds: float) -> int:
    return max(MIN_JOBS, round(seconds * OFFERED_RATE))


def job_specs(seed: int, count: int) -> list[dict]:
    return [{"job_id": f"bench-{seed}-{i:04d}",
             "tenant": f"tenant-{i % TENANTS}", "kind": "uds",
             "seed": seed * 100_003 + i, "max_frames": REQUESTS_PER_JOB,
             "stop_on_finding": False}
            for i in range(count)]


class Server:
    """A ``fuzz-serve`` subprocess on a free port of this host."""

    def __init__(self, ctx: Context, data_dir, workers: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "fuzz-serve",
             "--host", "127.0.0.1", "--port", "0",
             "--data-dir", str(data_dir), "--workers", str(workers),
             "--rate", "1000000", "--burst", "1000000",
             "--max-active-per-tenant", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ctx.root, env=ctx.env(), start_new_session=True)

    def wait_ready(self) -> HttpClient:
        """Block until ``/status`` answers; return a client for it."""
        deadline = time.perf_counter() + SETUP_TIMEOUT_S
        line = read_line(self.proc, SETUP_TIMEOUT_S)
        if "listening on http://" not in line:
            raise RuntimeError(f"fuzz-serve printed {line!r}")
        port = int(line.strip().rsplit(":", 1)[1])
        client = HttpClient("127.0.0.1", port)
        while True:
            try:
                if client.status()[0] == 200:
                    return client
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("fuzz-serve never answered /status")
            time.sleep(0.005)

    def close(self) -> None:
        stop(self.proc)


def start_server(ctx: Context, name: str, workers: int
                 ) -> tuple[Server, HttpClient, float]:
    data_dir = ctx.scratch / name
    started = time.perf_counter()
    server = Server(ctx, data_dir, workers)
    try:
        client = server.wait_ready()
    except BaseException:
        server.close()
        raise
    return server, client, time.perf_counter() - started


def _setup_once(ctx: Context, name: str, workers: int) -> float:
    server, _, seconds = start_server(ctx, name, workers)
    server.close()
    return seconds


def direct_runs(specs: list[dict], tracer) -> list[tuple[str, float]]:
    """Each job run in this process: ``(fingerprint, seconds)``."""
    from repro.fuzz.uds_campaign import UdsFuzzCampaign
    from repro.service.orchestrator import build_factory, shard_spec_for
    from repro.service.queue import JobSpec, result_fingerprint

    tracer.wrap_span(UdsFuzzCampaign, "run", "uds.campaign")
    try:
        runs = []
        for body in specs:
            spec = JobSpec.from_dict(body)
            with tracer.span("service.direct", trace_id=spec.job_id) as span:
                result = build_factory(spec)(shard_spec_for(spec)).run()
            runs.append((result_fingerprint(result.to_dict()),
                         span.duration))
        return runs
    finally:
        tracer.unpatch_all()


def check_jobs(gates: Gates, records: list, fingerprints: list[str]
               ) -> Gates:
    """Every offered job must complete with its direct run's result
    fingerprint; shed, failed and timed-out jobs fail."""
    for record, fingerprint in zip(records, fingerprints):
        ok = record.completed and record.fingerprint == fingerprint
        gates.check(ok, f"job {record.spec['job_id']} ended {record.state}"
                        + (f" ({record.error})" if record.error else "")
                        + (f", fingerprint {record.fingerprint} vs direct "
                           f"{fingerprint}" if record.completed else ""))
    return gates


def run(ctx: Context) -> Outcome:
    workers = max(1, ctx.nproc - 1)
    specs = job_specs(ctx.seed, job_count(ctx.seconds))
    setup = [scaled(ctx, lambda: _setup_once(ctx, f"setup-{rep}", workers))
             for rep in range(SETUP_REPS)]

    with ctx.yardstick.sampling():
        mark = ctx.yardstick.mark()
        server, client, _ = start_server(ctx, "service", workers)
        try:
            loop = OpenLoop(client, specs,
                            offsets=stratified_offsets(len(specs),
                                                       OFFERED_RATE,
                                                       ctx.seed),
                            poll_period=POLL_PERIOD_S, seed=ctx.seed)
            records = loop.run()
            status = client.status()[1]
        finally:
            server.close()
        window = ctx.yardstick.since(mark)
    usage = Usage.now()

    direct = direct_runs(specs, ctx.tracer)
    gates = check_jobs(Gates(), records, [f for f, _ in direct])

    done = [r for r in records if r.completed]
    latencies = [r.latency for r in done]
    span_s = max(r.completed_seen for r in done) - records[0].due
    met = sum(1 for r in done if r.latency <= LATENCY_LIMIT_S)
    p50 = statistics.median(latencies)
    p90 = nearest_rank(latencies, 90)
    outcome = Outcome(
        setup=setup,
        throughput=(len(done) / span_s, [], "completed jobs"),
        latencies=latencies, latency_item="job",
        gates=gates, cpu_s=window.norm_cpu_s,
        peak_rss_mb=usage.peak_rss_mb,
        config={"offered_rate_per_s": OFFERED_RATE,
                "poll_period_s": POLL_PERIOD_S,
                "latency_limit_s": LATENCY_LIMIT_S,
                "jobs": len(specs), "requests_per_job": REQUESTS_PER_JOB,
                "tenants": TENANTS, "workers": workers,
                "loop": "open"})
    outcome.aliases = [
        Metric("job_latency_p50_s", "s", p50, latencies),
        Metric("job_latency_p90_s", "s", p90, latencies,
               note=f"{len(latencies)} samples"),
        Metric("slo_met_frac", "frac", met / len(records),
               note=f"limit {LATENCY_LIMIT_S} s; failed and shed jobs "
                    f"count as misses"),
        Metric("host_cpu_s", "s", window.cpu_s)] + host_metrics(window)
    if ctx.trace:
        outcome.layers = _layers(ctx, loop, records, direct, status)
    return outcome


def _layers(ctx: Context, loop: OpenLoop, records: list, direct: list,
            status: dict) -> dict:
    tracer = ctx.tracer
    queue_waits, runs, overheads = [], [], []
    for record, (_, compute) in zip(records, direct):
        if record.submitted is None:
            continue
        job = tracer.open("service.job", record.spec["job_id"],
                          start=record.due)
        tracer.record("service.submit", record.sent, record.submitted)
        if record.leased_seen is not None:
            queue_waits.append(record.leased_seen - record.submitted)
            tracer.record("service.queue", record.submitted,
                          record.leased_seen)
            if record.completed:
                runs.append(record.completed_seen - record.leased_seen)
                overheads.append(runs[-1] - compute)
                tracer.record("service.run", record.leased_seen,
                              record.completed_seen)
        tracer.close(job, end=record.completed_seen or record.submitted)
    api = status.get("api", {})
    queue = status.get("queue", {})
    return {
        "service.submit_rtt_p50_s": statistics.median(loop.submit_rtts),
        "service.status_rtt_p50_s": statistics.median(loop.status_rtts),
        "service.queue_wait_p50_s": statistics.median(queue_waits),
        "service.queue_wait_p90_s": nearest_rank(queue_waits, 90),
        "service.run_p50_s": statistics.median(runs),
        "service.compute_p50_s": statistics.median(c for _, c in direct),
        "service.overhead_p50_s": statistics.median(overheads),
        "service.lease_renewals": status.get("leases", {}).get("renewed", 0),
        "service.shed": api.get("rejected", 0) + sum(
            api.get("shed", {}).values()),
        "service.retries": queue.get("total_retries", 0),
        "service.duplicates": queue.get("duplicate_completions", 0),
        "loadgen.lag_max_s": max(r.lag for r in records
                                 if r.lag is not None),
        "loadgen.polls_per_job": sum(r.polls for r in records) / len(records),
        "uds.requests": sum(r.summary.get("frames_sent", 0)
                            for r in records),
        "uds.campaign.self_s": tracer.self_seconds("uds.campaign"),
        # Spans are built from the observations the untraced run makes
        # anyway, after the measured window: tracing adds nothing to it.
        "trace.overhead_frac": 0.0,
    }
