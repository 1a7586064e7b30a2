"""Percentile rule, metric names, summaries, gates and self time."""

import pytest

import signal
import time

from core import (NOMINAL_SLICE_S, Gates, Metric, Reading, Tracer, Yardstick,
                  check_name, nearest_rank, samples_beyond, summarize,
                  tail_percentile, yardstick_slice)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- the percentile rule -------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (19, 50.0),      # no percentile has 10 samples beyond: median
    (20, 50.0),
    (99, 50.0),      # p90 would leave only 9 beyond
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    samples = [float(i) for i in range(1, count + 1)]
    pct, value = tail_percentile(samples)
    assert pct == expected
    if count >= 20:
        assert samples_beyond(count, pct) >= 10
        assert sum(1 for s in samples if s > value) >= 10


def test_tail_of_100_samples_is_the_90th_value():
    samples = list(range(100, 0, -1))
    assert tail_percentile(samples) == (90.0, 90)
    assert nearest_rank(samples, 50) == 50


def test_tail_without_support_reports_the_median():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- metric names and the output schema ---------------------------------

@pytest.mark.parametrize("name", ["setup_s", "can.adapter_write.self_s",
                                  "p-90", "0x", "a" * 64])
def test_valid_metric_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/name", "ünïcode", "a" * 65, None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_metric_refuses_bad_name_and_non_finite_value():
    with pytest.raises(ValueError):
        Metric("bad name", "s", 1.0)
    with pytest.raises(ValueError):
        Metric("ok", "s", float("nan"))


def test_metric_record_carries_samples_and_quartiles():
    record = Metric("x", "s", 2.5, [1.0, 2.0, 3.0, 4.0]).to_dict()
    assert record["samples"] == 4
    assert record["median"] == 2.5
    assert record["q1"] < record["median"] < record["q3"]


def test_summarize_single_sample():
    assert summarize([7.0]) == {"samples": 1, "median": 7.0, "q1": 7.0,
                                "q3": 7.0}


# -- correctness gates ----------------------------------------------------

def test_gates_count_every_operation_and_each_failure():
    gates = Gates()
    assert not gates.correct  # nothing attempted is not a pass
    gates.check(True, "a")
    gates.check(False, "b mismatched")
    gates.check(True, "c")
    assert (gates.attempted, gates.failed) == (3, 1)
    assert gates.fail_frac == pytest.approx(1 / 3)
    assert gates.failures == ["b mismatched"]
    assert not gates.correct


# -- spans and self time --------------------------------------------------

def test_self_time_subtracts_child_spans_and_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def write():
        clock.advance(0.002)

    timed_write = tracer.timed("write", write)
    with tracer.span("campaign", trace_id="trial-0") as outer:
        clock.advance(1.0)
        for _ in range(10):
            timed_write()
        with tracer.span("oracle"):
            clock.advance(0.5)
        clock.advance(0.25)
    assert outer.duration == pytest.approx(1.77)
    assert outer.self_seconds == pytest.approx(1.25)
    assert tracer.call_totals("write") == (10, pytest.approx(0.02))
    assert tracer.self_seconds("oracle") == pytest.approx(0.5)
    child = tracer.spans[1]
    assert child.parent == outer.id and child.trace_id is None


def test_observed_spans_nest_under_an_open_span():
    tracer = Tracer(clock=FakeClock())
    job = tracer.open("job", "job-1", start=10.0)
    tracer.record("queue", 10.0, 10.4)
    tracer.record("run", 10.4, 11.0)
    tracer.close(job, end=11.5)
    assert job.self_seconds == pytest.approx(0.5)
    assert [s.parent for s in tracer.spans[1:]] == [job.id, job.id]


def test_wrap_span_reads_counters_around_the_call_and_unpatches():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    class World:
        events = 0

        def run(self, steps):
            self.events += steps
            clock.advance(steps * 0.001)
            return steps

    tracer.wrap_span(World, "run", "world.run",
                     trace_id=lambda self, steps: f"w{steps}",
                     before=lambda span, args: args[0].events,
                     after=lambda span, args, state, result:
                     span.counters.update(events=args[0].events - state))
    world = World()
    assert world.run(50) == 50
    tracer.unpatch_all()
    world.run(7)
    assert len(tracer.spans) == 1
    assert tracer.spans[0].trace_id == "w50"
    assert tracer.counter("events") == 50
    assert tracer.spans[0].duration == pytest.approx(0.05)


def test_spans_must_close_in_order():
    tracer = Tracer(clock=FakeClock())
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


# -- the yardstick -----------------------------------------------------------

def _fake_yardstick(slice_cpu: float, slice_wall: float):
    """A yardstick on fake clocks whose slices take ``slice_cpu`` CPU
    and ``slice_wall`` wall seconds, and the clocks to drive the work."""
    wall, cpu, work = FakeClock(), FakeClock(), FakeClock()

    def run_slice():
        wall.advance(slice_wall)
        cpu.advance(slice_cpu)
        work.advance(slice_cpu)  # a slice is CPU of this process too
    return Yardstick(run_slice=run_slice, wall=wall, slice_cpu=cpu,
                     work_cpu=work), wall, work


def test_reading_takes_the_slices_out_and_scales_by_host_speed():
    yardstick, wall, work = _fake_yardstick(slice_cpu=2 * NOMINAL_SLICE_S,
                                            slice_wall=0.005)
    mark = yardstick.mark()
    wall.advance(1.0)
    work.advance(0.9)
    yardstick.take()
    wall.advance(1.0)
    work.advance(0.9)
    yardstick.take()
    reading = yardstick.since(mark)
    assert reading.slices == 2
    assert reading.wall_s == pytest.approx(2.0)
    assert reading.cpu_s == pytest.approx(1.8)
    assert reading.slice_s == pytest.approx(2 * NOMINAL_SLICE_S)
    # The host ran the slice at half the reference speed.
    assert reading.factor == pytest.approx(0.5)
    assert reading.norm_cpu_s == pytest.approx(0.9)


def test_reading_counts_only_the_slices_since_its_mark():
    yardstick, wall, work = _fake_yardstick(slice_cpu=0.001,
                                            slice_wall=0.001)
    yardstick.burst(3)
    mark = yardstick.mark()
    work.advance(0.5)
    yardstick.burst(2)
    reading = yardstick.since(mark)
    assert reading.slices == 2
    assert reading.cpu_s == pytest.approx(0.5)
    assert yardstick.slices == 5


def test_slices_taken_in_a_child_count_and_leave_the_work():
    yardstick, wall, work = _fake_yardstick(slice_cpu=0.001,
                                            slice_wall=0.001)
    mark = yardstick.mark()
    work.advance(2.0 + 0.03)  # a reaped child's work and its 10 slices
    yardstick.add(10, 0.03)
    reading = yardstick.since(mark)
    assert reading.slices == 10
    assert reading.cpu_s == pytest.approx(2.0)
    assert reading.slice_s == pytest.approx(0.003)


def test_a_reading_without_slices_has_no_factor():
    reading = Reading(wall_s=1.0, cpu_s=1.0, slices=0, slice_s=None)
    with pytest.raises(ValueError, match="no yardstick slice"):
        reading.factor


def test_sampling_takes_slices_on_a_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    yardstick = Yardstick()
    with yardstick.sampling(period=0.01):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert yardstick.slices >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_the_yardstick_slice_is_fixed_work():
    assert yardstick_slice() == yardstick_slice() == 75934
