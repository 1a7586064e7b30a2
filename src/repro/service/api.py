"""Minimal stdlib HTTP/JSON front door for the campaign service.

Just enough HTTP/1.1 over :func:`asyncio.start_server` to submit jobs
and read results with ``curl`` -- no framework, no dependency.  Every
request passes a per-tenant token bucket first; a drained bucket (or a
tenant over its active-job quota) sheds load with an explicit ``429``
and a ``Retry-After`` header rather than queueing unboundedly, so an
abusive tenant degrades only its own service.

Routes::

    POST /jobs                  submit a job (JSON body)
    GET  /jobs                  list jobs (?tenant= filters)
    GET  /jobs/<id>             one job's status
    GET  /jobs/<id>/findings    findings streamed so far (live, deduped)
    GET  /jobs/<id>/artefacts   full result + findings + fingerprint
    GET  /status                orchestrator/queue/lease telemetry

The parser is hostile-client-proof by construction: the request head
and body are both read under a timeout (slow-loris gets ``408``, not a
wedged handler task), a declared ``Content-Length`` above the cap is
shed with ``413`` before a single body byte is read, and every
malformed shape -- garbage request line, non-numeric length, a body
shorter than declared -- gets an explicit ``400``.  Shed connections
are counted per cause and surfaced through ``/status``, so a chaos
run (or a real attack) is visible in telemetry instead of only in
stack traces.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.service.orchestrator import JOB_KINDS, Orchestrator
from repro.service.queue import JobQueue

#: Tenant token buckets kept at once.  Tenant names are client-chosen,
#: so above this the least recently used bucket is evicted -- a full
#: one first, since a bucket that refilled to ``burst`` admits exactly
#: what a fresh bucket would.
MAX_TENANT_BUCKETS = 1024


@dataclass
class TokenBucket:
    """Classic token bucket: ``burst`` capacity, ``rate`` tokens/s."""

    rate: float = 10.0
    burst: float = 20.0
    clock: Callable[[], float] = time.monotonic
    tokens: float = field(init=False)
    _updated: float = field(init=False)
    shed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst < 1:
            raise ValueError("rate must be > 0 and burst >= 1")
        self.tokens = float(self.burst)
        self._updated = self.clock()

    def _level(self, now: float) -> float:
        # A clock that jumps backwards (chaos, NTP step) must not mint
        # negative refills that eat the bucket; clamp elapsed at zero.
        elapsed = max(0.0, now - self._updated)
        return min(float(self.burst), self.tokens + elapsed * self.rate)

    @property
    def full(self) -> bool:
        """Refilled to ``burst``: admits exactly what a fresh bucket
        would."""
        return self._level(self.clock()) >= self.burst

    def take(self) -> float | None:
        """Consume one token; returns ``None`` when admitted, else the
        seconds until a token will exist (the ``Retry-After`` value)."""
        now = self.clock()
        self.tokens = self._level(now)
        self._updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        self.shed += 1
        return (1.0 - self.tokens) / self.rate


class ServiceApi:
    """HTTP facade over one queue + orchestrator pair.

    Args:
        queue: the shared durable job queue.
        orchestrator: for ``/status`` telemetry (worker pids included,
            which is how the chaos smoke finds its SIGKILL target).
        rate / burst: per-tenant token-bucket parameters.
        max_active_per_tenant: live (pending+leased) jobs one tenant
            may hold; submits beyond it are shed with 429.
        clock: time source for the buckets (tests inject a fake).
        header_timeout: seconds a client gets to finish the request
            head before the connection is shed with 408.
        body_timeout: seconds a client gets to deliver the declared
            body once the head arrived (slow-loris bodies get 408).
        max_body_bytes: declared Content-Length above this is shed
            with 413 before a single body byte is read.
    """

    def __init__(self, queue: JobQueue, orchestrator: Orchestrator, *,
                 rate: float = 10.0, burst: float = 20.0,
                 max_active_per_tenant: int = 8,
                 clock: Callable[[], float] = time.monotonic,
                 header_timeout: float = 10.0,
                 body_timeout: float = 10.0,
                 max_body_bytes: int = 1 << 20) -> None:
        if max_active_per_tenant < 1:
            raise ValueError("max_active_per_tenant must be >= 1")
        if header_timeout <= 0 or body_timeout <= 0:
            raise ValueError("timeouts must be > 0")
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.queue = queue
        self.orchestrator = orchestrator
        self.rate = rate
        self.burst = burst
        self.max_active_per_tenant = max_active_per_tenant
        self.clock = clock
        self.header_timeout = header_timeout
        self.body_timeout = body_timeout
        self.max_body_bytes = max_body_bytes
        #: Least recently used first; at most MAX_TENANT_BUCKETS.
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        #: Buckets evicted, and of those the ones not yet refilled
        #: (their tenant gets a fresh burst back).
        self.buckets_evicted = 0
        self.buckets_evicted_unrefilled = 0
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        self.requests = 0
        self.rejected = 0
        self.shed = {"slow": 0, "malformed": 0, "oversized": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        """Bind and listen; returns ``(host, actual_port)`` (port 0
        picks a free one)."""
        self._server = await asyncio.start_server(self._handle, host,
                                                  port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, payload, extra = await self._serve(reader)
        except Exception as exc:  # never kill the accept loop
            status, payload, extra = 500, {"error": repr(exc)}, {}
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        reasons = {200: "OK", 201: "Created", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   408: "Request Timeout",
                   413: "Payload Too Large",
                   429: "Too Many Requests",
                   500: "Internal Server Error"}
        head = [f"HTTP/1.1 {status} {reasons.get(status, 'OK')}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        head.extend(f"{name}: {value}" for name, value in extra.items())
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n")
                         .encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve(self, reader) -> tuple[int, dict, dict]:
        try:
            raw = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"),
                timeout=self.header_timeout)
        except asyncio.TimeoutError:
            self.shed["slow"] += 1
            return 408, {"error": "timed out reading request head"}, {}
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            self.shed["malformed"] += 1
            return 400, {"error": "malformed request head"}, {}
        lines = raw.decode("latin-1", "replace").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 2:
            self.shed["malformed"] += 1
            return 400, {"error": "malformed request line"}, {}
        method, target = parts[0].upper(), parts[1]
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                declared = int(length)
                if declared < 0:
                    raise ValueError
            except ValueError:
                self.shed["malformed"] += 1
                return 400, {"error": f"bad Content-Length {length!r}"}, {}
            if declared > self.max_body_bytes:
                self.shed["oversized"] += 1
                return 413, {
                    "error": f"declared body of {declared} bytes exceeds "
                             f"the {self.max_body_bytes} byte cap",
                }, {}
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(declared),
                    timeout=self.body_timeout)
            except asyncio.TimeoutError:
                self.shed["slow"] += 1
                return 408, {"error": "timed out reading request body"}, {}
            except asyncio.IncompleteReadError:
                self.shed["malformed"] += 1
                return 400, {"error": "body shorter than declared"}, {}
        self.requests += 1
        return self._route(method, target, headers, body)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, target: str, headers: dict,
               body: bytes) -> tuple[int, dict, dict]:
        path, _, query = target.partition("?")
        segments = [s for s in path.split("/") if s]
        payload: dict = {}
        if body:
            try:
                payload = json.loads(body)
                if not isinstance(payload, dict):
                    raise ValueError
            except ValueError:
                return 400, {"error": "body must be a JSON object"}, {}
        tenant = str(payload.get("tenant")
                     or headers.get("x-tenant", "anonymous"))
        retry_after = self._bucket(tenant).take()
        if retry_after is not None:
            self.rejected += 1
            return 429, {
                "error": f"tenant {tenant!r} is over its request rate",
                "retry_after": round(retry_after, 3),
            }, {"Retry-After": f"{max(1, int(retry_after + 0.999))}"}

        if segments == ["jobs"] and method == "POST":
            return self._submit(tenant, payload)
        if segments == ["jobs"] and method == "GET":
            wanted = None
            for pair in query.split("&"):
                if pair.startswith("tenant="):
                    wanted = pair[len("tenant="):]
            jobs = [job.status_dict() for job in self.queue.in_order()
                    if wanted is None or job.spec.tenant == wanted]
            return 200, {"jobs": jobs}, {}
        if len(segments) >= 2 and segments[0] == "jobs":
            if method != "GET":
                return 405, {"error": "job resources are read-only"}, {}
            return self._job_resource(segments[1], segments[2:])
        if segments == ["status"] and method == "GET":
            return 200, self._status(), {}
        return 404, {"error": f"no route for {method} {path}"}, {}

    def _submit(self, tenant: str, payload: dict) -> tuple[int, dict, dict]:
        active = self.queue.active_for_tenant(tenant)
        if active >= self.max_active_per_tenant:
            self.rejected += 1
            return 429, {
                "error": f"tenant {tenant!r} already has {active} "
                         f"active job(s); quota is "
                         f"{self.max_active_per_tenant}",
                "retry_after": "a current job must finish first",
            }, {"Retry-After": "5"}
        kind = str(payload.get("kind", "uds"))
        if kind not in JOB_KINDS:
            return 400, {"error": f"unknown kind {kind!r}; "
                                  f"available: {sorted(JOB_KINDS)}"}, {}
        fields = dict(
            tenant=tenant, kind=kind,
            seed=int(payload.get("seed", 0)),
            max_frames=payload.get("max_frames"),
            max_seconds=payload.get("max_seconds"),
            stop_on_finding=bool(payload.get("stop_on_finding", True)),
            params=payload.get("params", {}),
        )
        if "job_id" in payload:
            fields["job_id"] = str(payload["job_id"])
        try:
            job = self.queue.submit(**fields)
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}, {}
        self.orchestrator.wake()
        return 201, job.status_dict(), {}

    def _job_resource(self, job_id: str,
                      rest: list[str]) -> tuple[int, dict, dict]:
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        if not rest:
            return 200, job.status_dict(), {}
        if rest == ["findings"]:
            findings = self.queue.job_findings(job_id)
            return 200, {
                "job_id": job_id,
                "state": job.state,
                "findings": findings,
                "warnings": self.queue.warnings_for_job(job_id),
            }, {}
        if rest == ["artefacts"]:
            result = self.queue.load_result(job_id)
            findings = self.queue.job_findings(job_id)
            return 200, {
                "job_id": job_id,
                "status": job.status_dict(),
                "result": result,
                "findings": findings,
                "warnings": self.queue.warnings_for_job(job_id),
            }, {}
        return 404, {"error": f"no such job resource {'/'.join(rest)!r}"}, {}

    def _status(self) -> dict:
        status = self.orchestrator.status()
        active = self.queue.active_per_tenant()
        status["api"] = {
            "requests": self.requests,
            "rejected": self.rejected,
            "shed": dict(self.shed),
            "tenants": {
                tenant: {"tokens": round(bucket.tokens, 2),
                         "shed": bucket.shed,
                         "active_jobs": active.get(tenant, 0)}
                for tenant, bucket in sorted(self._buckets.items())
            },
            "buckets": {"tracked": len(self._buckets),
                        "cap": MAX_TENANT_BUCKETS,
                        "evicted": self.buckets_evicted,
                        "evicted_unrefilled":
                            self.buckets_evicted_unrefilled},
            "rate": self.rate,
            "burst": self.burst,
            "max_active_per_tenant": self.max_active_per_tenant,
        }
        return status

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is not None:
            self._buckets.move_to_end(tenant)
            return bucket
        if len(self._buckets) >= MAX_TENANT_BUCKETS:
            self._evict_bucket()
        bucket = TokenBucket(rate=self.rate, burst=self.burst,
                             clock=self.clock)
        self._buckets[tenant] = bucket
        return bucket

    def _evict_bucket(self) -> None:
        """Drop the least recently used full bucket, else the least
        recently used one."""
        victim = next((tenant for tenant, bucket in self._buckets.items()
                       if bucket.full), None)
        if victim is None:
            victim = next(iter(self._buckets))
            self.buckets_evicted_unrefilled += 1
        del self._buckets[victim]
        self.buckets_evicted += 1
