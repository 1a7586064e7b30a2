"""Open-loop job generator for the ``fuzz-serve`` HTTP API.

One process, one connection at a time.  Job ``i`` is *due* at a
fixed offset from the start whatever happened to earlier jobs, so a
stall in the service shows up as latency on every job queued behind it
(an open loop: arrivals never wait for completions).
:func:`stratified_offsets` spaces jobs at a fixed mean rate with one
seeded random draw inside the middle :data:`ARRIVAL_WIDTH` of each
``1 / rate`` slot, so arrivals do not alias with any periodic tick of
the service and the generator makes no bursts of its own.  Between submits the
generator follows each live job by polling ``GET /jobs/<id>`` every
``poll_period`` seconds, and records when it first *saw* ``leased``
and ``completed``.  Each job's poll grid starts at a seeded random
phase, so observed times carry a uniform dither of up to one period
instead of snapping every job to the same multiple of it.  A job's
latency runs from its due time, not from when the generator got round
to sending it; how late the generator sent is kept apart as ``lag``.

The clock, the sleep and the HTTP client are injected, so the
self-tests can run the loop on a fake clock.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable

#: Arrivals fall in the middle half of their ``1 / rate`` slot, so two
#: arrivals are at least half a slot apart.
ARRIVAL_WIDTH = 0.5

#: Seconds after the last due time at which jobs still live are
#: recorded as timed out.
GIVE_UP_AFTER_S = 60.0

#: Seconds an HTTP request may take before it fails.
HTTP_TIMEOUT_S = 30.0


@dataclass
class JobRecord:
    """What the generator observed about one offered job."""

    index: int
    due: float
    spec: dict
    sent: float | None = None
    submitted: float | None = None
    job_id: str | None = None
    leased_seen: float | None = None
    completed_seen: float | None = None
    state: str = "due"
    polls: int = 0
    next_poll: float = 0.0
    fingerprint: str | None = None
    summary: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def lag(self) -> float | None:
        return None if self.sent is None else self.sent - self.due

    @property
    def latency(self) -> float | None:
        if self.completed_seen is None:
            return None
        return self.completed_seen - self.due

    @property
    def completed(self) -> bool:
        return self.state == "completed"


def stratified_offsets(count: int, rate: float, seed: int) -> list[float]:
    """Due times, in seconds from the start, of ``count`` jobs offered
    at ``rate`` per second: job ``i`` falls uniformly in the middle
    :data:`ARRIVAL_WIDTH` of its slot ``[i / rate, (i + 1) / rate)``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    margin = (1.0 - ARRIVAL_WIDTH) / 2
    return [(i + margin + ARRIVAL_WIDTH * rng.random()) / rate
            for i in range(count)]


class HttpClient:
    """Minimal JSON-over-HTTP/1.1 client; one connection per request."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def call(self, method: str, path: str,
             body: dict | None = None) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=HTTP_TIMEOUT_S)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def submit(self, spec: dict) -> tuple[int, dict]:
        return self.call("POST", "/jobs", spec)

    def job(self, job_id: str) -> tuple[int, dict]:
        return self.call("GET", f"/jobs/{job_id}")

    def status(self) -> tuple[int, dict]:
        return self.call("GET", "/status")


class OpenLoop:
    """Offer ``specs`` on a fixed schedule and follow each to the end.

    Args:
        client: object with ``submit(spec)`` and ``job(job_id)``
            returning ``(http status, JSON body)``.
        specs: job bodies, offered in order.
        offsets: each job's due time in seconds from the start
            (non-decreasing, one per spec).
        poll_period: seconds between two polls of one live job.
        seed: seed of each job's poll phase.
        clock, sleep: injectable time source.
    """

    def __init__(self, client, specs: list[dict], *, offsets: list[float],
                 poll_period: float, seed: int,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if poll_period <= 0:
            raise ValueError("poll_period must be positive")
        if len(offsets) != len(specs) or any(
                later < earlier for earlier, later in zip(offsets,
                                                          offsets[1:])):
            raise ValueError("need one non-decreasing offset per spec")
        self.client = client
        self.specs = list(specs)
        self.offsets = list(offsets)
        self.poll_period = poll_period
        self._phase = random.Random(seed).random
        self.clock = clock
        self.sleep = sleep
        self.submit_rtts: list[float] = []
        self.status_rtts: list[float] = []

    def run(self) -> list[JobRecord]:
        clock = self.clock
        start = clock()
        records = [JobRecord(index=i, due=start + offset, spec=spec)
                   for i, (spec, offset) in enumerate(zip(self.specs,
                                                          self.offsets))]
        deadline = (records[-1].due if records else start) + GIVE_UP_AFTER_S
        live: list[JobRecord] = []
        next_submit = 0
        while next_submit < len(records) or live:
            now = clock()
            if now >= deadline:
                for record in live:
                    record.state = "timed-out"
                    record.error = "still live when the generator gave up"
                break
            if next_submit < len(records) and records[next_submit].due <= now:
                record = records[next_submit]
                next_submit += 1
                self._submit(record, live)
                continue
            if live:
                record = min(live, key=lambda r: r.next_poll)
                if record.next_poll <= now:
                    self._poll(record, live)
                    continue
            wake = min([r.next_poll for r in live]
                       + ([records[next_submit].due]
                          if next_submit < len(records) else []))
            self.sleep(max(0.0, min(wake, deadline) - clock()))
        return records

    def _submit(self, record: JobRecord, live: list[JobRecord]) -> None:
        record.sent = self.clock()
        try:
            status, body = self.client.submit(record.spec)
        except OSError as exc:
            status, body = 0, {"error": repr(exc)}
        record.submitted = self.clock()
        self.submit_rtts.append(record.submitted - record.sent)
        if status != 201:
            record.state = "shed" if status == 429 else "failed"
            record.error = f"submit answered {status}: {body.get('error')}"
            return
        record.job_id = body["job_id"]
        record.state = body.get("state", "pending")
        record.next_poll = record.submitted + self.poll_period * self._phase()
        live.append(record)

    def _poll(self, record: JobRecord, live: list[JobRecord]) -> None:
        sent = self.clock()
        try:
            status, body = self.client.job(record.job_id)
        except OSError as exc:
            status, body = 0, {"error": repr(exc)}
        seen = self.clock()
        self.status_rtts.append(seen - sent)
        record.polls += 1
        # Fixed period, but never schedule a poll in the past.
        record.next_poll = max(record.next_poll + self.poll_period, seen)
        if status != 200:
            return
        state = body.get("state", record.state)
        # A job that completes between two polls is never seen leased;
        # it then has no observed queue wait or run time.
        if state == "leased" and record.leased_seen is None:
            record.leased_seen = seen
        record.state = state
        if state == "completed":
            record.completed_seen = seen
            record.fingerprint = body.get("fingerprint")
            record.summary = body.get("result") or {}
            live.remove(record)
        elif state == "quarantined":
            record.error = f"quarantined: {body.get('faults')}"
            live.remove(record)
