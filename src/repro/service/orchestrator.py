"""The campaign orchestrator: lease jobs onto worker processes.

The service's control loop.  Each pass (a *tick*) it (1) drains worker
messages -- heartbeats renew leases, results complete jobs, tracebacks
fault them; (2) expires leases whose workers went silent, killing
wedged survivors with the same SIGTERM-then-SIGKILL escalation
:class:`~repro.fuzz.parallel.ShardedCampaign` uses; (3) grants leases
for pending jobs onto fresh workers, honouring per-job jittered
backoff after faults and degrading to fewer slots (ultimately inline
execution) when the OS refuses processes.

The loop is event-driven: a tick runs as soon as a worker pipe turns
readable (a heartbeat, a result, or EOF when the worker died), a job
is submitted (:meth:`Orchestrator.wake`) or the stop event is set.
Lease expiry, backoff deadlines and jobs put straight into the queue
have no event of their own; a housekeeping tick covers them at least
every ``poll_interval`` seconds.

The crash-handoff guarantee rests on three existing pieces: every job
runs inside its own :class:`~repro.fuzz.durability.CampaignJournal`
(so a replacement worker resumes from checkpoint), the re-granted job
keeps the *same* seed and journal (so re-execution is bit-identical),
and :meth:`~repro.service.queue.JobQueue.mark_completed` deduplicates
by result fingerprint (so at-least-once execution still yields
exactly-once results).  A SIGKILLed *orchestrator* recovers the same
way: the queue replays its own journal, orphaned leases are released
on startup, and any orphan worker that survived the crash finishes
writing the same deterministic bytes -- its duplicate completion is
absorbed, not double-counted.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.fuzz.campaign import CampaignLimits, resume_campaign
from repro.fuzz.durability import (CampaignJournal, DirectoryStore,
                                   QuotaStore, RetryPolicy)
from repro.fuzz.parallel import (ResourceGuards, ShardSpec,
                                 terminate_and_reap)
from repro.service.lease import LeaseError, LeaseManager
from repro.service.queue import JobQueue, JobSpec
from repro.sim.clock import SECOND

#: Operational notes kept for ``/status``; older ones are dropped (and
#: counted) so a long-lived service holds bounded state.
MAX_NOTES = 256

# ----------------------------------------------------------------------
# Job kinds: what a job id actually runs
# ----------------------------------------------------------------------

#: name -> builder(JobSpec) returning a pickleable
#: :data:`~repro.fuzz.parallel.CampaignFactory`.  The builder runs in
#: the orchestrator; only the factory crosses the process boundary.
JOB_KINDS: dict[str, Callable[[JobSpec], object]] = {}


def register_job_kind(name: str,
                      builder: Callable[[JobSpec], object]) -> None:
    """Register (or override) a campaign family the service can run.

    Tests register crash/hang kinds here; deployments can add bespoke
    benches without touching the orchestrator.
    """
    JOB_KINDS[name] = builder


def _build_uds(spec: JobSpec):
    from repro.testbench.factory import UdsBenchFactory
    return UdsBenchFactory(
        stop_on_finding=spec.stop_on_finding,
        key_algorithm=spec.params.get("key_algorithm"))


def _build_unlock(spec: JobSpec):
    from repro.testbench.factory import UnlockBenchFactory
    return UnlockBenchFactory(
        check_mode=spec.params.get("check_mode", "byte"))


register_job_kind("uds", _build_uds)
register_job_kind("unlock", _build_unlock)


def build_factory(spec: JobSpec):
    builder = JOB_KINDS.get(spec.kind)
    if builder is None:
        raise ValueError(
            f"unknown job kind {spec.kind!r}; "
            f"registered: {sorted(JOB_KINDS)}")
    return builder(spec)


def shard_spec_for(spec: JobSpec) -> ShardSpec:
    """The single-shard spec a job runs as.

    ``seed`` is the job's seed directly (matching the CLI's
    single-campaign runs), so a service job and a ``fuzz-uds --seed N``
    run of the same budget produce bit-identical results -- that
    equality is what the chaos gate checks against.
    """
    max_duration = (int(spec.max_seconds * SECOND)
                    if spec.max_seconds is not None else None)
    limits = CampaignLimits(max_frames=spec.max_frames,
                            max_duration=max_duration,
                            stop_on_finding=spec.stop_on_finding)
    return ShardSpec(index=0, shard_count=1, master_seed=spec.seed,
                     seed=spec.seed, limits=limits)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _send(conn, message) -> bool:
    """Best-effort send to the orchestrator.

    A dead parent (SIGKILLed orchestrator) breaks the pipe; the worker
    keeps running as a benign orphan -- everything it does is journalled
    and deterministic, so the restarted orchestrator either finds its
    saved result or re-executes to the identical fingerprint.
    """
    try:
        conn.send(message)
        return True
    except (BrokenPipeError, OSError):
        return False


class _HeartbeatJournal(CampaignJournal):
    """A campaign journal whose appends double as lease heartbeats.

    Campaigns already append progress records every
    ``checkpoint_every`` frames and write-ahead every finding; piggy-
    backing heartbeats on those appends means a worker heartbeats
    exactly as often as it proves durable progress -- a wedged
    campaign cannot fake liveness.  Must be a real
    :class:`CampaignJournal` subclass: :func:`resume_campaign` wraps
    anything else in a fresh journal and the heartbeats would vanish.
    """

    def __init__(self, store, conn, *,
                 retry: RetryPolicy | None = None) -> None:
        super().__init__(store, retry=retry)
        self._conn = conn

    def append(self, record: dict) -> None:
        super().append(record)
        if record.get("type") in ("start", "resume", "progress",
                                  "finding", "end"):
            # Frame campaigns count frames_sent, UDS campaigns
            # requests_sent; normalise for the status API.
            sent = record.get("frames_sent",
                              record.get("requests_sent", 0))
            _send(self._conn, ("heartbeat", {
                "frames_sent": sent,
                "findings": record.get("findings", 0),
                "phase": record.get("type"),
            }))


def _job_worker(factory, spec: ShardSpec, conn, journal_dir: str,
                checkpoint_every: int, store_factory=None,
                guards: ResourceGuards | None = None,
                quota_bytes: int | None = None) -> None:
    """Worker process entry: resume the job's journal and run it out.

    Resource guards are installed before any campaign code runs:
    rlimits bound the worker itself (CPU blow-out dies by SIGXCPU and
    surfaces as a crash strike in the parent; address-space blow-out
    turns into ``MemoryError``, an error strike), and ``quota_bytes``
    wraps the job's journal store in a :class:`QuotaStore` so disk
    abuse raises :class:`~repro.fuzz.durability.DiskQuotaExceeded`
    through the campaign -- a journalled fault strike, never a hang.
    """
    try:
        guard_notes = guards.apply() if guards is not None else []
        store = (store_factory or DirectoryStore)(journal_dir)
        if quota_bytes is not None:
            store = QuotaStore(store, quota_bytes=quota_bytes)
        journal = _HeartbeatJournal(store, conn)
        payload = {"phase": "building"}
        if guard_notes:
            payload["guard_notes"] = guard_notes
        _send(conn, ("heartbeat", payload))
        result = resume_campaign(journal, lambda: factory(spec),
                                 checkpoint_every=checkpoint_every)
        _send(conn, ("ok", result.to_dict(), list(journal.warnings)))
    except BaseException:
        _send(conn, ("error", traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------

@dataclass
class _Handle:
    """Parent-side state for one leased, running worker."""

    job_id: str
    worker_id: str
    process: multiprocessing.process.BaseProcess
    conn: object
    started: float


class Orchestrator:
    """Lease pending jobs onto worker processes until told to stop.

    Args:
        queue: the durable :class:`JobQueue` (shared with the API).
        workers: concurrent worker slots (degrades under OS pressure,
            never below inline execution).
        lease_duration: seconds a worker may go without a heartbeat
            before its job is re-granted.
        checkpoint_every: frames between a job's durable checkpoints
            -- also its heartbeat cadence, so keep it well under
            ``lease_duration`` worth of campaign progress.
        quarantine_after: faults that retire a job to quarantine
            instead of retrying it (repeat-crashers must not starve
            the healthy queue).
        backoff: wait policy between a job's fault and its re-grant;
            the default adds deterministic seeded jitter so a burst of
            simultaneous faults does not thunder back as one herd.
        poll_interval: longest idle wait, in seconds, between two
            ticks.  Worker messages, worker deaths, submits and stop
            wake the loop at once; this bounds how late lease expiry,
            backoff deadlines and jobs put straight into the queue are
            noticed.
        terminate_grace: seconds a killed worker gets to honour
            SIGTERM before SIGKILL (see :func:`terminate_and_reap`).
        mp_context: multiprocessing start-method context.
        clock: monotonic time source (tests inject a fake to step
            lease lifetimes deterministically).
        store_factory: journal backend for *job* journals (chaos tests
            inject :class:`~repro.fuzz.durability.FaultyStore`).
        resource_guards: OS rlimits installed in every worker process
            (see :class:`~repro.fuzz.parallel.ResourceGuards`).  Not
            applied to inline degraded execution -- rlimits there
            would bound the orchestrator itself.
        job_quota_bytes: per-job disk budget for ``jobs/<id>/``; a
            breach raises through the campaign and is recorded as a
            fault strike.
    """

    def __init__(self, queue: JobQueue, *, workers: int = 2,
                 lease_duration: float = 30.0,
                 checkpoint_every: int = 200,
                 quarantine_after: int = 3,
                 backoff: RetryPolicy | None = None,
                 poll_interval: float = 0.05,
                 terminate_grace: float = 5.0,
                 mp_context=None,
                 clock: Callable[[], float] = time.monotonic,
                 store_factory: Callable[[str], object] | None = None,
                 resource_guards: ResourceGuards | None = None,
                 job_quota_bytes: int | None = None,
                 ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if terminate_grace < 0:
            raise ValueError("terminate_grace must be >= 0")
        self.queue = queue
        self.configured_workers = workers
        self.slots = workers
        self.leases = LeaseManager(duration=lease_duration, clock=clock)
        self.backoff = backoff or RetryPolicy(
            attempts=1, backoff=0.25, jitter=0.5, seed=0)
        self.checkpoint_every = checkpoint_every
        self.quarantine_after = quarantine_after
        self.poll_interval = poll_interval
        self.terminate_grace = terminate_grace
        if job_quota_bytes is not None and job_quota_bytes < 1:
            raise ValueError("job_quota_bytes must be >= 1")
        self.clock = clock
        self.store_factory = store_factory
        self.resource_guards = resource_guards
        self.job_quota_bytes = job_quota_bytes
        self._ctx = mp_context or multiprocessing.get_context()
        self._handles: dict[str, _Handle] = {}
        #: Per-job earliest re-grant time (jittered backoff after a
        #: fault), in ``clock`` time.
        self._not_before: dict[str, float] = {}
        self._worker_seq = 0
        self.inline_completions = 0
        #: Operational notes (degradation, late heartbeats, orphan
        #: releases) surfaced through the status API: the newest
        #: :data:`MAX_NOTES`, with ``notes_dropped`` counting the rest.
        self.notes: deque[str] = deque(maxlen=MAX_NOTES)
        self.notes_dropped = 0
        #: Set while :meth:`run` drives the loop: the event loop every
        #: worker pipe is registered with, and the event a tick waits
        #: for.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wakeup: asyncio.Event | None = None
        orphans = queue.release_orphans(
            "orchestrator restart: previous lease holder did not "
            "survive the process")
        if orphans:
            self._note(
                f"released {len(orphans)} orphaned lease(s) on startup: "
                f"{', '.join(orphans)}")

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One scheduling round: reap, expire, launch."""
        for handle in list(self._handles.values()):
            self._pump(handle)
        self._expire_leases()
        self._launch()

    async def run(self, stop: asyncio.Event | None = None) -> None:
        """Tick until ``stop`` is set (service mode) or, with no stop
        event, until every job reached a terminal state (batch mode).
        Between ticks it waits for the next event (see the module
        docstring), at most ``poll_interval`` seconds.  Shuts down
        gracefully either way: running workers are stopped and their
        jobs requeued without a fault strike."""
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        for handle in self._handles.values():
            self._watch(handle)
        relay = (asyncio.ensure_future(self._wake_on(stop))
                 if stop is not None else None)
        try:
            while True:
                self._wakeup.clear()
                self.tick()
                if stop is not None:
                    if stop.is_set():
                        break
                elif self.queue.idle() and not self._handles:
                    break
                try:
                    await asyncio.wait_for(self._wakeup.wait(),
                                           timeout=self.poll_interval)
                except asyncio.TimeoutError:
                    pass
        finally:
            if relay is not None:
                relay.cancel()
            try:
                self.shutdown()
            finally:
                for handle in self._handles.values():
                    self._unwatch(handle)
                self._loop = self._wakeup = None

    def wake(self) -> None:
        """Tick now rather than at the next housekeeping pass (the API
        calls this after a submit).  Call from :meth:`run`'s event
        loop; a no-op while the loop is not running."""
        if self._wakeup is not None:
            self._wakeup.set()

    async def _wake_on(self, stop: asyncio.Event) -> None:
        await stop.wait()
        self.wake()

    def run_until_idle(self, timeout: float = 120.0) -> None:
        """Synchronous drive for tests: tick until the queue drains,
        waiting on the worker pipes (at most ``poll_interval``)
        between ticks."""
        deadline = time.monotonic() + timeout
        while True:
            self.tick()
            if self.queue.idle():
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"queue not idle after {timeout:.0f} s: "
                    f"{self.queue.counters()}")
            multiprocessing.connection.wait(
                [handle.conn for handle in self._handles.values()],
                timeout=self.poll_interval)

    def shutdown(self, note: str = "orchestrator shutdown: "
                                   "job requeued, not faulted") -> None:
        """Stop every worker and requeue its job without a strike."""
        for handle in list(self._handles.values()):
            escalation = terminate_and_reap(handle.process,
                                            grace=self.terminate_grace)
            if escalation:
                self._note(
                    f"shutdown of {handle.worker_id}: {escalation}")
            self._drop(handle)
            self._release_lease(handle)
            job = self.queue.get(handle.job_id)
            if job is not None and job.state == "leased":
                self.queue.requeue(handle.job_id, note, fault=False)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def worker_pids(self) -> dict[str, int]:
        """job_id -> OS pid of its current worker (chaos tests and the
        CI smoke job SIGKILL through this)."""
        return {job_id: handle.process.pid
                for job_id, handle in self._handles.items()
                if handle.process.pid is not None}

    def status(self) -> dict:
        return {
            "workers": {
                "configured": self.configured_workers,
                "slots": self.slots,
                "busy": len(self._handles),
                "pids": self.worker_pids(),
            },
            "leases": self.leases.stats(),
            "queue": self.queue.counters(),
            "inline_completions": self.inline_completions,
            "notes": list(self.notes),
            "notes_dropped": self.notes_dropped,
            "journal_warnings": self.queue.warnings,
            "artefact_warnings": list(self.queue.artefact_warnings),
        }

    # ------------------------------------------------------------------
    # Reaping
    # ------------------------------------------------------------------
    def _pump(self, handle: _Handle) -> None:
        """Drain one worker's pipe; a broken pipe is a crashed worker."""
        while handle.job_id in self._handles and handle.conn.poll():
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.process.join()
                self._fault(handle,
                            f"worker crashed without reporting (exit "
                            f"code {handle.process.exitcode}, "
                            f"{self.clock() - handle.started:.1f} s "
                            f"after launch)")
                return
            kind = message[0]
            if kind == "heartbeat":
                self._on_heartbeat(handle, message[1])
            elif kind == "ok":
                self._on_result(handle, message[1], tuple(message[2]))
            elif kind == "error":
                self._fault(handle, f"worker raised:\n{message[1]}")

    def _on_heartbeat(self, handle: _Handle, payload: dict) -> None:
        try:
            self.leases.renew(handle.job_id, handle.worker_id)
        except LeaseError as exc:
            # Late heartbeat from a worker whose lease already expired:
            # the expiry path will kill it this tick; record the race.
            self._note(f"late heartbeat ignored: {exc}")
            return
        self.queue.update_progress(handle.job_id, payload)

    def _on_result(self, handle: _Handle, result: dict,
                   warnings: tuple) -> None:
        self._drop(handle)
        self._release_lease(handle)
        disposition = self.queue.mark_completed(handle.job_id, result)
        if disposition == "divergent":
            self._note(
                f"job {handle.job_id}: divergent duplicate completion "
                f"from {handle.worker_id} -- determinism violation")
        if warnings:
            self.queue.update_progress(
                handle.job_id, {"durability_warnings": list(warnings)})
        self._not_before.pop(handle.job_id, None)

    def _expire_leases(self) -> None:
        for lease in self.leases.expire():
            note = (f"lease expired: no heartbeat from "
                    f"{lease.worker_id} within "
                    f"{self.leases.duration:.1f} s "
                    f"(granted {lease.renewals} renewal(s))")
            handle = self._handles.get(lease.job_id)
            if handle is not None:
                # The worker is alive but silent -- wedged.  Kill it
                # before re-granting, or two executions would interleave
                # writes into one journal.
                escalation = terminate_and_reap(
                    handle.process, grace=self.terminate_grace)
                if escalation:
                    note += f"; {escalation}"
                self._drop(handle)
            self._record_fault(lease.job_id, note)

    def _fault(self, handle: _Handle, note: str) -> None:
        self._drop(handle)
        self._release_lease(handle)
        self._record_fault(handle.job_id, note)

    def _record_fault(self, job_id: str, note: str) -> None:
        """Strike a job: quarantine repeat-crashers, otherwise requeue
        behind a jittered backoff."""
        job = self.queue.get(job_id)
        if job is None or job.terminal:
            return
        strikes = len(job.faults) + 1
        if strikes >= self.quarantine_after:
            self.queue.quarantine(
                job_id, f"{note} (fault {strikes}/"
                        f"{self.quarantine_after}: quarantined)")
            self._not_before.pop(job_id, None)
            return
        faults = self.queue.requeue(job_id, note)
        self._not_before[job_id] = (self.clock()
                                    + self.backoff.delay(faults - 1))

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------
    def _launch(self) -> None:
        now = self.clock()
        for job in self.queue.pending():
            if len(self._handles) >= self.slots:
                return
            if self._not_before.get(job.spec.job_id, 0.0) > now:
                continue
            if not self._start(job):
                return

    def _start(self, job) -> bool:
        """Lease one job onto a fresh worker; False when the OS is out
        of processes (caller stops launching this tick)."""
        spec = job.spec
        try:
            factory = build_factory(spec)
        except Exception as exc:
            # Unknown kind or bad params never gets better by retrying.
            self.queue.quarantine(
                spec.job_id, f"job cannot be built: {exc}")
            return True
        self._worker_seq += 1
        worker_id = f"worker-{self._worker_seq}"
        self.queue.mark_leased(spec.job_id, worker_id)
        self.leases.grant(spec.job_id, worker_id)
        journal_dir = str(self.queue.job_dir(spec.job_id))
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        except OSError:
            self._abort_grant(spec.job_id, worker_id)
            self._degrade(job)
            return False
        try:
            process = self._ctx.Process(
                target=_job_worker,
                args=(factory, shard_spec_for(spec), child_conn,
                      journal_dir, self.checkpoint_every,
                      self.store_factory, self.resource_guards,
                      self.job_quota_bytes),
                name=f"fuzz-job-{spec.job_id}", daemon=True)
            process.start()
        except OSError:
            parent_conn.close()
            child_conn.close()
            self._abort_grant(spec.job_id, worker_id)
            self._degrade(job)
            return False
        child_conn.close()
        handle = _Handle(job_id=spec.job_id, worker_id=worker_id,
                         process=process, conn=parent_conn,
                         started=self.clock())
        self._handles[spec.job_id] = handle
        self._watch(handle)
        return True

    def _abort_grant(self, job_id: str, worker_id: str) -> None:
        try:
            self.leases.release(job_id, worker_id)
        except LeaseError:
            pass
        self.queue.requeue(
            job_id, "worker spawn failed before execution started",
            fault=False)

    def _degrade(self, job) -> None:
        """The OS refused a worker: shed one slot, or -- already at the
        floor -- run the job inline so the service still makes progress
        on a box that cannot fork at all."""
        if self.slots > 1:
            self.slots -= 1
            self._note(
                f"worker spawn failed; degraded to {self.slots} "
                f"slot(s)")
            return
        spec = job.spec
        self._note(
            f"worker spawn failed at one slot; running {spec.job_id} "
            f"inline")
        self.queue.mark_leased(spec.job_id, "inline")
        store = (self.store_factory or DirectoryStore)(
            str(self.queue.job_dir(spec.job_id)))
        if self.job_quota_bytes is not None:
            store = QuotaStore(store, quota_bytes=self.job_quota_bytes)
        journal = CampaignJournal(store)
        factory = build_factory(spec)
        try:
            result = resume_campaign(
                journal, lambda: factory(shard_spec_for(spec)),
                checkpoint_every=self.checkpoint_every)
        except Exception:
            self._record_fault(
                spec.job_id,
                f"inline execution raised:\n{traceback.format_exc()}")
            return
        self.queue.mark_completed(spec.job_id, result.to_dict())
        self.inline_completions += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note(self, text: str) -> None:
        if len(self.notes) == self.notes.maxlen:
            self.notes_dropped += 1
        self.notes.append(text)

    def _watch(self, handle: _Handle) -> None:
        """Wake :meth:`run` whenever the worker's pipe turns readable."""
        if self._loop is not None:
            self._loop.add_reader(handle.conn.fileno(), self.wake)

    def _unwatch(self, handle: _Handle) -> None:
        if self._loop is not None:
            self._loop.remove_reader(handle.conn.fileno())

    def _drop(self, handle: _Handle) -> None:
        self._handles.pop(handle.job_id, None)
        # Unregister before closing: the fd number is reused by the
        # next pipe, and a stale selector entry would swallow its
        # registration.
        self._unwatch(handle)
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.join(timeout=self.terminate_grace)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join()

    def _release_lease(self, handle: _Handle) -> None:
        try:
            self.leases.release(handle.job_id, handle.worker_id)
        except LeaseError as exc:
            # The lease expired while the worker's last message was in
            # flight; the result is still deterministic and the dedup
            # path absorbs any re-execution.
            self._note(f"lease already gone on release: {exc}")
