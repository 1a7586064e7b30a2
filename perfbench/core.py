"""Workload-independent pieces of the benchmark.

Everything here is pure bookkeeping with an injectable clock, so the
self-tests in ``perfbench/tests`` can drive it with a fake one:

* :func:`tail_percentile` -- the reporting rule for latency tails;
* :func:`summarize` / :class:`Metric` -- one output schema for every
  metric of every workload;
* :class:`Gates` -- correctness-gate accounting behind ``fail_frac``;
* :class:`Tracer` -- spans at layer boundaries, per-call counts and
  summed time on the enclosing span, and self-time derivation;
* :class:`Usage` -- CPU seconds and peak RSS of this process plus its
  reaped children;
* :class:`Yardstick` -- the host's speed, sampled while the work runs,
  which scales measured times to a reference host.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import re
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

#: Metric names: letters, digits, ``_``, ``.`` and ``-``; at most 64
#: characters, starting with a letter or digit.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it may be reported.
TAIL_MIN_BEYOND = 10


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}: use 1-64 of "
                         f"[A-Za-z0-9_.-], starting with a letter or digit")
    return name


def nearest_rank(samples: Iterable[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - _rank(count, pct)


def _rank(count: int, pct: float) -> int:
    # The rounding keeps 99.9 % of 10,000 at rank 9,990, not 9,991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def tail_percentile(samples: Iterable[float]) -> tuple[float, float]:
    """``(percentile, value)`` for the highest percentile of
    :data:`TAIL_LADDER` with at least :data:`TAIL_MIN_BEYOND` samples
    beyond it.

    With fewer than 20 samples no percentile qualifies and the median
    is returned as ``(50.0, median)``: the sample supports no tail.
    """
    values = list(samples)
    if not values:
        raise ValueError("no samples")
    chosen = None
    for pct in TAIL_LADDER:
        if samples_beyond(len(values), pct) >= TAIL_MIN_BEYOND:
            chosen = pct
    if chosen is None:
        return 50.0, statistics.median(values)
    return chosen, nearest_rank(values, chosen)


def summarize(samples: Iterable[float]) -> dict:
    """Sample count, median and quartiles (``statistics.quantiles``)."""
    values = [float(v) for v in samples]
    if not values:
        return {"samples": 0, "median": None, "q1": None, "q3": None}
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"samples": len(values), "median": median, "q1": q1, "q3": q3}


@dataclass
class Metric:
    """One reported figure with the samples it was derived from."""

    name: str
    unit: str
    value: float
    samples: list[float] = field(default_factory=list)
    note: str = ""

    def __post_init__(self) -> None:
        check_name(self.name)
        if not math.isfinite(self.value):
            raise ValueError(f"metric {self.name} is not finite: "
                             f"{self.value!r}")

    def to_dict(self) -> dict:
        record = {"name": self.name, "unit": self.unit,
                  "value": self.value}
        record.update(summarize(self.samples or [self.value]))
        if len(self.samples) > 1:
            record["values"] = list(self.samples)
        if self.note:
            record["note"] = self.note
        return record


class Gates:
    """Correctness accounting: every operation attempted, and why any
    failed.  An operation is a trial, a world, a finding or a job; an
    operation whose output mismatches its reference counts as failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    id: int
    name: str
    trace_id: str | None
    parent: int | None
    start: float
    end: float | None = None
    #: Wrapped calls made directly inside this span:
    #: ``name -> [count, summed seconds]``.
    calls: dict = field(default_factory=dict)
    #: Summed time of the wrapped calls in ``calls``.
    call_seconds: float = 0.0
    #: Summed duration of the child spans.
    child_seconds: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def self_seconds(self) -> float:
        return self.duration - self.child_seconds - self.call_seconds

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "trace_id": self.trace_id,
                "parent": self.parent, "start": self.start, "end": self.end,
                "self_s": self.self_seconds,
                "calls": {k: {"count": v[0], "total_s": v[1]}
                          for k, v in self.calls.items()},
                "counters": dict(self.counters)}


class Tracer:
    """In-memory spans and per-call aggregates.

    Spans nest through a stack; a call wrapped with :meth:`wrap_calls`
    adds one to a count and its time to a sum on the enclosing span
    instead of producing a span per call, and that time is taken out
    of the span's self time.  Wrapped calls are leaves: none calls
    another.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._root = Span(id=-1, name="(root)", trace_id=None, parent=None,
                          start=clock())
        self._restore: list[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------
    def open(self, name: str, trace_id: str | None = None,
             start: float | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name, trace_id=trace_id,
                    parent=parent.id if parent else None,
                    start=self.clock() if start is None else start)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, end: float | None = None) -> Span:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._stack.pop()
        span.end = self.clock() if end is None else end
        if self._stack:
            self._stack[-1].child_seconds += span.duration
        return span

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        span = self.open(name, trace_id)
        try:
            yield span
        finally:
            self.close(span)

    def record(self, name: str, start: float, end: float,
               trace_id: str | None = None) -> Span:
        """A span whose interval was observed, not lived through."""
        span = self.open(name, trace_id, start=start)
        return self.close(span, end=end)

    # -- per-call aggregates --------------------------------------------
    def add_call(self, name: str, seconds: float) -> None:
        span = self._stack[-1] if self._stack else self._root
        entry = span.calls.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        span.call_seconds += seconds

    def timed(self, name: str, function: Callable) -> Callable:
        """``function`` wrapped to report each call under ``name``."""
        add_call = self.add_call
        clock = self.clock

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                add_call(name, clock() - start)
        return wrapper

    def traced(self, name: str, function: Callable,
               trace_id: Callable[..., str | None] | None = None,
               before: Callable | None = None,
               after: Callable | None = None) -> Callable:
        """``function`` wrapped to open a span per call.

        ``trace_id(*args)`` names the span's trace.  ``before(span,
        args)`` runs inside the span ahead of the call and
        ``after(span, args, state, result)`` after it, with ``state``
        what ``before`` returned, so layer counters can be read as
        deltas around the call.
        """
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, trace_id(*args) if trace_id else None)
            try:
                state = before(span, args) if before else None
                result = function(*args, **kwargs)
                if after:
                    after(span, args, state, result)
                return result
            finally:
                tracer.close(span)
        return wrapper

    def patch(self, owner, attribute: str, replacement: Callable) -> None:
        """Install ``replacement`` as ``owner.attribute`` until
        :meth:`unpatch_all`."""
        own = attribute in vars(owner)
        original = vars(owner)[attribute] if own else None

        def restore() -> None:
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        setattr(owner, attribute, replacement)
        self._restore.append(restore)

    def wrap_calls(self, owner, attribute: str, name: str) -> None:
        self.patch(owner, attribute,
                   self.timed(name, getattr(owner, attribute)))

    def wrap_span(self, owner, attribute: str, name: str, **kwargs) -> None:
        self.patch(owner, attribute,
                   self.traced(name, getattr(owner, attribute), **kwargs))

    def unpatch_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- derived figures --------------------------------------------------
    def all_spans(self) -> list[Span]:
        return [self._root] + self.spans

    def self_seconds(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        return sum(s.self_seconds for s in self.spans if s.name == name)

    def call_totals(self, name: str) -> tuple[int, float]:
        """``(count, summed seconds)`` of a wrapped call over every
        span."""
        count, seconds = 0, 0.0
        for span in self.all_spans():
            entry = span.calls.get(name)
            if entry:
                count += entry[0]
                seconds += entry[1]
        return count, seconds

    def counter(self, name: str) -> float:
        return sum(s.counters.get(name, 0) for s in self.all_spans())

    def dump(self, path) -> None:
        payload = {"spans": [s.to_dict() for s in self.all_spans()]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


@dataclass(frozen=True)
class Usage:
    """CPU seconds and peak RSS of this process plus reaped children."""

    cpu_s: float
    peak_rss_mb: float

    @classmethod
    def now(cls) -> "Usage":
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
        # ru_maxrss is in KiB on Linux; for children it is the largest
        # single reaped descendant.
        peak = max(own.ru_maxrss, kids.ru_maxrss) / 1024.0
        return cls(cpu_s=cpu, peak_rss_mb=peak)


# -- host speed ------------------------------------------------------------

#: CPU seconds one :func:`yardstick_slice` takes on the reference host
#: (the 2-vCPU Xeon VM the benchmark was written on, idle).  A time
#: scaled by a :class:`Reading` is what the work would have taken there.
NOMINAL_SLICE_S = 0.0025

#: Wall seconds between two slices taken while work runs.
SAMPLE_PERIOD_S = 0.1

#: Slices taken back to back on each side of a short measurement.
BURST_SLICES = 8


class _Message:
    __slots__ = ("ident", "data", "stamp")

    def __init__(self, ident: int, data: bytes, stamp: int) -> None:
        self.ident = ident
        self.data = data
        self.stamp = stamp


class _Node:
    def __init__(self, name: str) -> None:
        self.name = name
        self.seen: dict = {}
        self.total = 0

    def receive(self, message: _Message) -> int:
        self.seen[message.ident] = self.seen.get(message.ident, 0) + 1
        self.total += message.data[0] ^ message.data[-1]
        return self.total & 1


def yardstick_slice(messages: int = 600) -> int:
    """A fixed piece of interpreter work shaped like the simulator's:
    a heap of timed messages from an xorshift generator, delivered to
    a few nodes that count them in dicts.  It never changes, so how
    long it takes measures the host, not the program."""
    nodes = [_Node(f"n{i}") for i in range(8)]
    queue: list = []
    state, now, seq, acks = 0x2545F491, 0, 0, 0
    for _ in range(messages):
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        data = bytes((state >> shift) & 0xFF for shift in (0, 8, 16, 24))
        seq += 1
        heapq.heappush(queue, (now + (state & 0x3F), seq,
                               _Message(state & 0x7FF, data, now)))
        while queue and (len(queue) > 16 or queue[0][0] <= now):
            now, _, message = heapq.heappop(queue)
            acks += nodes[message.ident & 7].receive(message)
    return acks + sum(node.total for node in nodes)


@dataclass(frozen=True)
class Mark:
    """Where a measurement started."""

    wall: float
    cpu: float
    slices: int
    slice_wall: float
    slice_cpu: float


@dataclass(frozen=True)
class Reading:
    """One measured piece of work and the host's speed meanwhile.

    ``wall_s`` and ``cpu_s`` leave out the time spent in yardstick
    slices; ``slice_s`` is the mean CPU seconds of one slice taken
    during the work (``None`` when none was).
    """

    wall_s: float
    cpu_s: float
    slices: int
    slice_s: float | None

    @property
    def factor(self) -> float:
        """How much faster the reference host is than this host was."""
        if not self.slice_s:
            raise ValueError("no yardstick slice was taken during the work")
        return NOMINAL_SLICE_S / self.slice_s

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * self.factor


class Yardstick:
    """The host's speed, measured by running :func:`yardstick_slice`.

    A shared host runs the same code at very different speeds from one
    minute to the next (clock, neighbours on the core, steal), by far
    more than a program change moves it.  So the benchmark samples
    the host while the work runs -- one slice every
    :data:`SAMPLE_PERIOD_S` from a ``SIGALRM`` timer inside
    :meth:`sampling`, or a :meth:`burst` around a short measurement --
    and scales the work's time by ``NOMINAL_SLICE_S / mean slice``.
    Slices are timed in thread CPU seconds, which a busy neighbour
    process or a descheduled vCPU does not inflate.  Work done in
    worker processes is best sampled there, and :meth:`add` counts
    those slices here.
    """

    def __init__(self, run_slice: Callable[[], object] = yardstick_slice,
                 wall: Callable[[], float] = time.perf_counter,
                 slice_cpu: Callable[[], float] = time.thread_time,
                 work_cpu: Callable[[], float] = lambda: Usage.now().cpu_s
                 ) -> None:
        self.run_slice = run_slice
        self.wall = wall
        self.slice_cpu = slice_cpu
        self.work_cpu = work_cpu
        self.slices = 0
        self.slice_wall_total = 0.0
        self.slice_cpu_total = 0.0

    def take(self) -> float:
        """Run one slice now; return its CPU seconds."""
        wall, cpu = self.wall(), self.slice_cpu()
        self.run_slice()
        cpu = self.slice_cpu() - cpu
        self.slice_wall_total += self.wall() - wall
        self.slice_cpu_total += cpu
        self.slices += 1
        return cpu

    def add(self, slices: int, cpu: float) -> None:
        """Count ``slices`` taken in a reaped child process, whose
        ``cpu`` seconds ``work_cpu`` already includes."""
        self.slices += slices
        self.slice_cpu_total += cpu

    def burst(self, count: int = BURST_SLICES) -> None:
        for _ in range(count):
            self.take()

    @contextmanager
    def sampling(self, period: float = SAMPLE_PERIOD_S):
        """Take a slice every ``period`` wall seconds until the block
        ends."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> Mark:
        return Mark(wall=self.wall(), cpu=self.work_cpu(),
                    slices=self.slices, slice_wall=self.slice_wall_total,
                    slice_cpu=self.slice_cpu_total)

    def since(self, mark: Mark) -> Reading:
        """The work done since ``mark``, slices taken out."""
        slices = self.slices - mark.slices
        slice_cpu = self.slice_cpu_total - mark.slice_cpu
        return Reading(
            wall_s=self.wall() - mark.wall
            - (self.slice_wall_total - mark.slice_wall),
            cpu_s=self.work_cpu() - mark.cpu - slice_cpu,
            slices=slices,
            slice_s=slice_cpu / slices if slices else None)
