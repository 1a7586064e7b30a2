"""Orchestrator control loop: completion parity, retries, quarantine,
graceful shutdown, orphan recovery, event-driven wake-ups."""

import asyncio
import json
import os
import signal
import time

import pytest

from repro.fuzz.durability import RetryPolicy
from repro.service.api import ServiceApi
from repro.service.orchestrator import (MAX_NOTES, Orchestrator, _Handle,
                                        shard_spec_for)
from repro.service.queue import JobQueue, JobSpec, result_fingerprint
from repro.testbench.factory import UdsBenchFactory

from .helpers import register_test_kinds

register_test_kinds()


def _no_sleep(_seconds: float) -> None:
    pass


#: No wait between a fault and the re-grant -- retries land on the
#: next tick so the tests stay fast.
EAGER = RetryPolicy(attempts=1, backoff=0.0, sleep=_no_sleep)


def direct_fingerprint(**fields) -> str:
    """The bit-identical baseline: the same spec run straight through
    the bench factory, no service, no journal, no interruptions."""
    spec = JobSpec(**fields)
    campaign = UdsBenchFactory(
        stop_on_finding=spec.stop_on_finding)(shard_spec_for(spec))
    return result_fingerprint(campaign.run().to_dict())


class TestCompletion:
    def test_service_results_match_direct_runs(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=400)
        queue.submit(job_id="b", kind="uds", seed=11, max_frames=300,
                     stop_on_finding=False)
        orch = Orchestrator(queue, workers=2, backoff=EAGER)
        orch.run_until_idle(timeout=60.0)

        for job_id, fields in (
                ("a", dict(job_id="a", seed=7, max_frames=400)),
                ("b", dict(job_id="b", seed=11, max_frames=300,
                           stop_on_finding=False))):
            job = queue.get(job_id)
            assert job.state == "completed", job.faults
            assert job.attempts == 1
            assert job.fingerprint == direct_fingerprint(**fields)
        assert queue.load_result("a")["findings"], \
            "seed 7 finds the liveness bug in 400 frames"

    def test_heartbeats_surface_progress(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=400)
        orch = Orchestrator(queue, workers=1, checkpoint_every=50,
                            backoff=EAGER)
        orch.run_until_idle(timeout=60.0)
        job = queue.get("a")
        assert job.progress.get("phase") == "end"
        assert job.progress.get("frames_sent", 0) > 0
        assert orch.leases.stats()["renewed"] > 0

    def test_status_is_json_ready(self, tmp_path):
        import json

        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=200)
        orch = Orchestrator(queue, backoff=EAGER)
        orch.run_until_idle(timeout=60.0)
        status = orch.status()
        assert json.loads(json.dumps(status)) == status
        assert status["queue"]["states"]["completed"] == 1


class TestCrashHandoff:
    def test_crashed_worker_retries_to_identical_result(self, tmp_path):
        queue = JobQueue(tmp_path / "data")
        marker = str(tmp_path / "crash.marker")
        queue.submit(job_id="a", kind="slow-uds", seed=7, max_frames=400,
                     params={"delay": 0.0, "marker": marker,
                             "crash_at": 60})
        orch = Orchestrator(queue, workers=1, checkpoint_every=20,
                            backoff=EAGER)
        orch.run_until_idle(timeout=60.0)

        job = queue.get("a")
        assert job.state == "completed"
        assert job.attempts == 2
        assert len(job.faults) == 1
        assert "crashed" in job.faults[0]
        # The retry resumed the same journal with the same seed: the
        # interrupted run's result is bit-identical to a clean one.
        assert job.fingerprint == direct_fingerprint(
            job_id="a", seed=7, max_frames=400)

    def test_repeat_crasher_is_quarantined(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="always-crash", seed=0,
                     max_frames=10)
        queue.submit(job_id="b", kind="uds", seed=7, max_frames=200)
        orch = Orchestrator(queue, workers=1, quarantine_after=2,
                            backoff=EAGER)
        orch.run_until_idle(timeout=60.0)

        bad = queue.get("a")
        assert bad.state == "quarantined"
        assert len(bad.faults) == 2
        assert "quarantined" in bad.faults[-1]
        # The repeat-crasher did not starve the healthy job.
        assert queue.get("b").state == "completed"

    def test_unknown_kind_quarantined_without_spawning(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="no-such-kind", seed=0,
                     max_frames=10)
        orch = Orchestrator(queue, backoff=EAGER)
        orch.run_until_idle(timeout=10.0)
        job = queue.get("a")
        assert job.state == "quarantined"
        assert "cannot be built" in job.faults[0]
        assert orch.leases.stats()["granted"] == 0

    def test_backoff_holds_a_faulted_job_back(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="always-crash", seed=0,
                     max_frames=10)
        patient = RetryPolicy(attempts=1, backoff=1000.0,
                              sleep=_no_sleep)
        orch = Orchestrator(queue, workers=1, quarantine_after=3,
                            backoff=patient)
        deadline = time.monotonic() + 30.0
        while not queue.get("a").faults:
            orch.tick()
            assert time.monotonic() < deadline
            time.sleep(0.02)
        for _ in range(5):
            orch.tick()
        job = queue.get("a")
        assert job.state == "pending"  # waiting out the backoff
        assert len(job.faults) == 1
        assert not orch.worker_pids()


class TestLifecycle:
    def test_graceful_stop_requeues_without_a_strike(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="slow-uds", seed=7,
                     max_frames=5000, stop_on_finding=False,
                     params={"delay": 0.01})
        orch = Orchestrator(queue, workers=1, terminate_grace=5.0,
                            backoff=EAGER)

        async def drive():
            stop = asyncio.Event()
            task = asyncio.create_task(orch.run(stop))
            deadline = time.monotonic() + 30.0
            while not orch.worker_pids():
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            stop.set()
            await task

        asyncio.run(drive())
        job = queue.get("a")
        assert job.state == "pending"
        assert job.faults == []
        assert any("not faulted" in note for note in job.notes)
        assert not orch.worker_pids()

    def test_restart_releases_orphaned_leases(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=200)
        queue.mark_leased("a", "w-dead")

        reopened = JobQueue(tmp_path)
        orch = Orchestrator(reopened, backoff=EAGER)
        assert reopened.get("a").state == "pending"
        assert any("orphaned lease" in note for note in orch.notes)
        orch.run_until_idle(timeout=60.0)
        assert reopened.get("a").state == "completed"

    def test_batch_mode_run_exits_when_idle(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=200)
        orch = Orchestrator(queue, backoff=EAGER)
        asyncio.run(asyncio.wait_for(orch.run(), timeout=60.0))
        assert queue.get("a").state == "completed"

    def test_constructor_validation(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ValueError):
            Orchestrator(queue, workers=0)
        with pytest.raises(ValueError):
            Orchestrator(queue, checkpoint_every=0)
        with pytest.raises(ValueError):
            Orchestrator(queue, quarantine_after=0)
        with pytest.raises(ValueError):
            Orchestrator(queue, terminate_grace=-1.0)


#: A housekeeping pass this far apart never fires within a test: every
#: tick below must come from an event.
SLOW_TICK = 30.0
#: Well under SLOW_TICK, yet generous for a loaded host: each step the
#: tests wait for takes well under a second when an event drives it.
PROMPT = 10.0


async def _until(predicate, limit: float = PROMPT) -> None:
    deadline = time.monotonic() + limit
    while not predicate():
        assert time.monotonic() < deadline, "no event woke the loop"
        await asyncio.sleep(0.01)


def _spy_readers(loop) -> tuple[set, list]:
    """Record the running loop's reader registrations: the fds still
    registered, and every fd ever registered."""
    add, remove = loop.add_reader, loop.remove_reader
    live, seen = set(), []

    def spy_add(fd, callback, *args):
        live.add(fd)
        seen.append(fd)
        return add(fd, callback, *args)

    def spy_remove(fd):
        live.discard(fd)
        return remove(fd)

    loop.add_reader, loop.remove_reader = spy_add, spy_remove
    return live, seen


class TestEventDrivenLoop:
    def test_submit_through_the_api_wakes_the_loop(self, tmp_path):
        queue = JobQueue(tmp_path)
        orch = Orchestrator(queue, workers=1, poll_interval=SLOW_TICK,
                            backoff=EAGER)
        api = ServiceApi(queue, orch)

        async def drive():
            stop = asyncio.Event()
            task = asyncio.create_task(orch.run(stop))
            await asyncio.sleep(0.05)  # first tick done, loop parked
            status, _, _ = api._route("POST", "/jobs", {}, json.dumps(
                {"job_id": "a", "seed": 7, "max_frames": 200}).encode())
            assert status == 201
            await _until(lambda: queue.get("a").state == "completed")
            stop.set()
            await asyncio.wait_for(task, timeout=PROMPT)

        asyncio.run(drive())
        assert queue.get("a").fingerprint == direct_fingerprint(
            job_id="a", seed=7, max_frames=200)

    def test_worker_death_wakes_the_loop(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="slow-uds", seed=7, max_frames=200,
                     params={"delay": 0.01})
        orch = Orchestrator(queue, workers=1, checkpoint_every=25,
                            poll_interval=SLOW_TICK, backoff=EAGER)

        async def drive():
            stop = asyncio.Event()
            task = asyncio.create_task(orch.run(stop))
            await _until(lambda: queue.get("a").progress.get(
                "frames_sent", 0) >= 25)
            os.kill(orch.worker_pids()["a"], signal.SIGKILL)
            # EOF on the pipe: faulted and re-granted without a pass.
            await _until(lambda: queue.get("a").attempts == 2)
            assert "crashed" in queue.get("a").faults[0]
            await _until(lambda: queue.get("a").state == "completed")
            stop.set()
            await asyncio.wait_for(task, timeout=PROMPT)

        asyncio.run(drive())
        assert queue.get("a").fingerprint == direct_fingerprint(
            job_id="a", seed=7, max_frames=200)

    def test_back_to_back_jobs_reuse_fds_and_leave_no_reader(
            self, tmp_path):
        queue = JobQueue(tmp_path)
        jobs = [f"j{index:02d}" for index in range(24)]
        for index, job_id in enumerate(jobs):
            queue.submit(job_id=job_id, kind="uds", seed=index,
                         max_frames=20)
        orch = Orchestrator(queue, workers=2, poll_interval=SLOW_TICK,
                            backoff=EAGER)

        async def drive():
            loop = asyncio.get_running_loop()
            live, seen = _spy_readers(loop)
            await asyncio.wait_for(orch.run(), timeout=6 * PROMPT)
            # Nothing the orchestrator registered is left in the
            # selector.
            stale = [fd for fd in set(seen) if loop.remove_reader(fd)]
            return live, seen, stale

        live, seen, stale = asyncio.run(drive())
        assert all(queue.get(job_id).state == "completed"
                   for job_id in jobs)
        assert len(seen) == len(jobs)
        assert len(set(seen)) < len(seen), "no pipe fd was reused"
        assert live == set() and stale == []

    def test_readers_removed_when_shutdown_fails(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="slow-uds", seed=7, max_frames=5000,
                     params={"delay": 0.01})
        orch = Orchestrator(queue, workers=1, poll_interval=SLOW_TICK,
                            terminate_grace=1.0, backoff=EAGER)

        def failing_shutdown():
            raise RuntimeError("shutdown failed")

        async def drive():
            live, _ = _spy_readers(asyncio.get_running_loop())
            stop = asyncio.Event()
            task = asyncio.create_task(orch.run(stop))
            await _until(lambda: orch.worker_pids())
            orch.shutdown = failing_shutdown
            stop.set()
            with pytest.raises(RuntimeError, match="shutdown failed"):
                await asyncio.wait_for(task, timeout=PROMPT)
            return live

        try:
            assert asyncio.run(drive()) == set()
        finally:
            del orch.shutdown
            orch.shutdown()
        assert not orch.worker_pids()

    def test_run_until_idle_waits_on_worker_pipes(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=200)
        queue.submit(job_id="b", kind="uds", seed=11, max_frames=200)
        orch = Orchestrator(queue, workers=1, poll_interval=SLOW_TICK,
                            backoff=EAGER)
        started = time.monotonic()
        orch.run_until_idle(timeout=2 * SLOW_TICK)
        assert time.monotonic() - started < PROMPT
        assert queue.counters()["states"]["completed"] == 2


class TestBoundedNotes:
    def test_notes_are_a_ring_with_a_drop_count(self, tmp_path):
        orch = Orchestrator(JobQueue(tmp_path))
        ghost = _Handle(job_id="ghost", worker_id="worker-0",
                        process=None, conn=None, started=0.0)
        for _ in range(MAX_NOTES + 10):
            # No lease to renew: every heartbeat is a late one.
            orch._on_heartbeat(ghost, {})
        orch._release_lease(ghost)  # the newest note
        status = orch.status()
        assert len(status["notes"]) == MAX_NOTES
        assert status["notes_dropped"] == 11
        assert "late heartbeat" in status["notes"][0]
        assert "lease already gone" in status["notes"][-1]
