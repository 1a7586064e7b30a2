"""Open-loop timing from the due time, and lag accounting."""

import pytest

from loadgen import (ARRIVAL_WIDTH, GIVE_UP_AFTER_S, OpenLoop,
                     stratified_offsets)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class FakeService:
    """Submits take ``submit_s``; a job is leased ``queue_s`` after its
    submit returns and completes ``run_s`` later."""

    def __init__(self, clock, *, submit_s=0.0, poll_s=0.0, queue_s=0.05,
                 run_s=0.2, refuse=()):
        self.clock = clock
        self.submit_s = submit_s
        self.poll_s = poll_s
        self.queue_s = queue_s
        self.run_s = run_s
        self.refuse = set(refuse)
        self.accepted = {}

    def submit(self, spec):
        self.clock.now += self.submit_s
        if spec["job_id"] in self.refuse:
            return 429, {"error": "over quota"}
        self.accepted[spec["job_id"]] = self.clock.now
        return 201, {"job_id": spec["job_id"], "state": "pending"}

    def job(self, job_id):
        self.clock.now += self.poll_s
        age = self.clock.now - self.accepted[job_id]
        if age >= self.queue_s + self.run_s:
            return 200, {"state": "completed", "fingerprint": f"fp-{job_id}",
                         "result": {"frames_sent": 60}}
        if age >= self.queue_s:
            return 200, {"state": "leased"}
        return 200, {"state": "pending"}


def specs(count):
    return [{"job_id": f"j{i}"} for i in range(count)]


def every(count, rate):
    return [i / rate for i in range(count)]


def run_loop(service, clock, count, rate, poll_period, seed=7):
    loop = OpenLoop(service, specs(count), offsets=every(count, rate),
                    poll_period=poll_period, seed=seed, clock=clock,
                    sleep=clock.sleep)
    return loop, loop.run()


def test_jobs_are_due_on_a_fixed_schedule_and_timed_from_it():
    clock = FakeClock()
    _, records = run_loop(FakeService(clock), clock, 5, 10.0, 0.01)
    assert [r.due - 100.0 for r in records] == pytest.approx(
        [0.0, 0.1, 0.2, 0.3, 0.4])
    for record in records:
        assert record.lag == pytest.approx(0.0)
        assert record.completed
        # Seen completed on the first poll at or after due + 0.25; the
        # poll grid's phase is dithered, so that poll is less than one
        # period later.
        assert 0.25 <= record.latency < 0.25 + 0.01 + 1e-9
        assert 0.05 <= record.leased_seen - record.submitted < 0.06 + 1e-9
        assert record.fingerprint == f"fp-{record.spec['job_id']}"


def test_a_slow_submit_delays_later_jobs_and_counts_against_them():
    """Open loop: arrivals keep their due times, so a stall shows up as
    lag and as latency on every job behind it."""
    clock = FakeClock()
    loop, records = run_loop(
        FakeService(clock, submit_s=0.3, queue_s=0.0, run_s=0.0), clock,
        4, 10.0, 0.01)
    lags = [r.lag for r in records]
    # Job k is sent when job k-1's submit returns (0.3 s apart, more
    # than the 0.1 s between due times), so each lags the one before.
    assert lags[0] == pytest.approx(0.0)
    assert all(later > earlier for earlier, later in zip(lags, lags[1:]))
    assert lags[-1] >= 3 * (0.3 - 0.1) - 1e-9
    for record in records:
        assert record.latency >= record.lag + 0.3
    assert loop.submit_rtts == pytest.approx([0.3] * 4)


def test_refused_jobs_are_recorded_not_followed():
    clock = FakeClock()
    _, records = run_loop(FakeService(clock, refuse={"j1"}), clock,
                          3, 5.0, 0.02)
    assert [r.state for r in records] == ["completed", "shed", "completed"]
    assert records[1].latency is None and records[1].polls == 0


def test_jobs_never_finished_time_out():
    clock = FakeClock()
    _, records = run_loop(FakeService(clock, run_s=1e9), clock, 2, 1.0, 0.5)
    assert [r.state for r in records] == ["timed-out", "timed-out"]
    assert clock.now <= 100.0 + 1.0 + GIVE_UP_AFTER_S + 0.5


@pytest.mark.parametrize("seed", range(5))
def test_polls_run_at_the_poll_period(seed):
    """A job that completes 0.95 s after its submit, polled every
    0.1 s from a phase in [0, 0.1), is seen on its tenth or eleventh
    poll, less than one period after it completed."""
    clock = FakeClock()
    _, records = run_loop(FakeService(clock, queue_s=0.0, run_s=0.95),
                          clock, 1, 1.0, 0.1, seed=seed)
    assert records[0].polls in (10, 11)
    assert 0.95 <= records[0].latency < 1.05 + 1e-9


def test_poll_phase_depends_on_the_seed():
    latencies = []
    for seed in (1, 2):
        clock = FakeClock()
        _, records = run_loop(FakeService(clock, queue_s=0.0, run_s=0.1),
                              clock, 20, 2.0, 0.05, seed=seed)
        latencies.append([r.latency for r in records])
    assert latencies[0] != latencies[1]


def test_dithered_polls_spread_observations_over_one_period():
    clock = FakeClock()
    _, records = run_loop(FakeService(clock, queue_s=0.0, run_s=0.1), clock,
                          50, 2.0, 0.05)
    seen = sorted(round(r.latency, 6) for r in records)
    assert all(0.1 <= s < 0.15 + 1e-9 for s in seen)
    assert len(set(seen)) > 25  # not snapped to one grid point


def test_offsets_must_match_the_specs():
    with pytest.raises(ValueError):
        OpenLoop(None, specs(2), offsets=[0.0], poll_period=0.1, seed=0)
    with pytest.raises(ValueError):
        OpenLoop(None, specs(2), offsets=[0.5, 0.1], poll_period=0.1,
                 seed=0)


def test_stratified_offsets_fall_in_the_middle_of_their_slots():
    offsets = stratified_offsets(400, 8.0, seed=3)
    assert offsets == stratified_offsets(400, 8.0, seed=3)
    assert offsets != stratified_offsets(400, 8.0, seed=4)
    margin = (1 - ARRIVAL_WIDTH) / 2
    for i, offset in enumerate(offsets):
        assert (i + margin) / 8.0 <= offset < (i + 1 - margin) / 8.0
    with pytest.raises(ValueError):
        stratified_offsets(3, 0.0, seed=1)


def test_arrival_width_bounds_the_gap_between_jobs():
    offsets = stratified_offsets(400, 10.0, seed=1)
    gaps = [later - earlier for earlier, later in zip(offsets, offsets[1:])]
    assert min(gaps) >= (1 - ARRIVAL_WIDTH) / 10.0 - 1e-12
    assert max(gaps) <= (1 + ARRIVAL_WIDTH) / 10.0 + 1e-12
