"""HTTP front door: routing, quotas, rate limiting, one real socket."""

import asyncio
import json

import pytest

from repro.service.api import MAX_TENANT_BUCKETS, ServiceApi, TokenBucket
from repro.service.orchestrator import Orchestrator
from repro.service.queue import JobQueue


class FakeClock:
    def __init__(self) -> None:
        self.now = 500.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def api(tmp_path, clock):
    queue = JobQueue(tmp_path)
    orch = Orchestrator(queue, clock=clock)
    return ServiceApi(queue, orch, rate=1.0, burst=100.0,
                      max_active_per_tenant=2, clock=clock)


def post(api, path, payload, headers=None):
    return api._route("POST", path, headers or {},
                      json.dumps(payload).encode())


def get(api, path, headers=None):
    return api._route("GET", path, headers or {}, b"")


class TestTokenBucket:
    def test_burst_then_refill(self, clock):
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.take() for _ in range(3)] == [None, None, None]
        retry_after = bucket.take()
        assert retry_after == pytest.approx(0.5)
        assert bucket.shed == 1
        clock.advance(0.5)  # exactly one token back
        assert bucket.take() is None
        assert bucket.take() is not None

    def test_refill_caps_at_burst(self, clock):
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(1000.0)
        assert [bucket.take() for _ in range(2)] == [None, None]
        assert bucket.take() is not None

    def test_invalid_parameters_rejected(self, clock):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(burst=0.5, clock=clock)


class TestSubmit:
    def test_submit_creates_a_job(self, api):
        status, payload, _ = post(api, "/jobs", {
            "job_id": "a", "seed": 7, "max_frames": 100})
        assert status == 201
        assert payload["job_id"] == "a"
        assert payload["state"] == "pending"
        assert api.queue.get("a") is not None

    def test_tenant_from_header_or_body(self, api):
        post(api, "/jobs", {"job_id": "a", "max_frames": 10},
             headers={"x-tenant": "t1"})
        post(api, "/jobs", {"job_id": "b", "max_frames": 10,
                            "tenant": "t2"})
        assert api.queue.get("a").spec.tenant == "t1"
        assert api.queue.get("b").spec.tenant == "t2"

    def test_unknown_kind_is_400(self, api):
        status, payload, _ = post(api, "/jobs", {
            "kind": "nope", "max_frames": 10})
        assert status == 400
        assert "unknown kind" in payload["error"]

    def test_unbounded_job_is_400(self, api):
        status, payload, _ = post(api, "/jobs", {"seed": 1})
        assert status == 400
        assert "never finishes" in payload["error"]

    def test_quota_sheds_with_429_and_retry_after(self, api):
        for job_id in ("a", "b"):
            assert post(api, "/jobs", {"job_id": job_id,
                                       "max_frames": 10})[0] == 201
        status, payload, extra = post(api, "/jobs", {
            "job_id": "c", "max_frames": 10})
        assert status == 429
        assert "quota" in payload["error"]
        assert extra["Retry-After"]
        assert api.queue.get("c") is None
        # Another tenant's quota is untouched.
        assert post(api, "/jobs", {"job_id": "d", "max_frames": 10,
                                   "tenant": "other"})[0] == 201


class TestRateLimit:
    def test_drained_bucket_sheds_with_429(self, tmp_path, clock):
        queue = JobQueue(tmp_path)
        api = ServiceApi(queue, Orchestrator(queue, clock=clock),
                         rate=1.0, burst=2.0, clock=clock)
        codes = [get(api, "/status")[0] for _ in range(4)]
        assert codes == [200, 200, 429, 429]
        status, payload, extra = get(api, "/status")
        assert status == 429
        assert payload["retry_after"] > 0
        assert int(extra["Retry-After"]) >= 1
        clock.advance(2.0)
        assert get(api, "/status")[0] == 200

    def test_buckets_are_per_tenant(self, tmp_path, clock):
        queue = JobQueue(tmp_path)
        api = ServiceApi(queue, Orchestrator(queue, clock=clock),
                         rate=1.0, burst=1.0, clock=clock)
        assert get(api, "/status", {"x-tenant": "t1"})[0] == 200
        assert get(api, "/status", {"x-tenant": "t1"})[0] == 429
        assert get(api, "/status", {"x-tenant": "t2"})[0] == 200


class TestBoundedBuckets:
    def _api(self, tmp_path, clock, rate, burst):
        queue = JobQueue(tmp_path)
        return ServiceApi(queue, Orchestrator(queue, clock=clock),
                          rate=rate, burst=burst, clock=clock)

    def test_rotating_tenants_keep_the_map_flat(self, tmp_path):
        rotating = 10 * MAX_TENANT_BUCKETS

        def active_codes(rotate: bool) -> tuple[list[int], ServiceApi]:
            clock = FakeClock()
            api = self._api(tmp_path / str(rotate), clock, 1.0, 3.0)
            codes = []
            for index in range(rotating):
                if rotate:
                    get(api, "/jobs", {"x-tenant": f"rot-{index}"})
                    assert len(api._buckets) <= MAX_TENANT_BUCKETS
                codes.append(get(api, "/jobs", {"x-tenant": "active"})[0])
                clock.advance(0.25)
            return codes, api

        alone, _ = active_codes(rotate=False)
        flooded, api = active_codes(rotate=True)
        assert 429 in alone
        assert flooded == alone
        buckets = get(api, "/status", {"x-tenant": "active"})[1]["api"]
        assert len(buckets["tenants"]) == MAX_TENANT_BUCKETS
        assert buckets["buckets"]["tracked"] == MAX_TENANT_BUCKETS
        assert buckets["buckets"]["evicted"] == (
            rotating + 1 - MAX_TENANT_BUCKETS)
        assert buckets["buckets"]["evicted_unrefilled"] == 0

    def test_eviction_prefers_refilled_buckets(self, tmp_path, clock):
        # Slow refill: one token per 100 s.
        api = self._api(tmp_path, clock, 0.01, 3.0)
        codes = [get(api, "/jobs", {"x-tenant": "victim"})[0]
                 for _ in range(4)]
        assert codes == [200, 200, 200, 429]
        for index in range(MAX_TENANT_BUCKETS - 1):
            get(api, "/jobs", {"x-tenant": f"t-{index}"})
        clock.advance(100.0)  # the others are full again, victim is not
        get(api, "/jobs", {"x-tenant": "newcomer"})
        assert "victim" in api._buckets  # least recently used, kept
        assert "t-0" not in api._buckets
        assert (api.buckets_evicted, api.buckets_evicted_unrefilled) == (1, 0)
        codes = [get(api, "/jobs", {"x-tenant": "victim"})[0]
                 for _ in range(2)]
        assert codes == [200, 429]  # one refilled token, not a new burst

    def test_with_no_full_bucket_the_oldest_goes(self, tmp_path, clock):
        api = self._api(tmp_path, clock, 0.01, 3.0)
        for index in range(MAX_TENANT_BUCKETS + 1):
            get(api, "/jobs", {"x-tenant": f"t-{index}"})
        assert "t-0" not in api._buckets
        assert len(api._buckets) == MAX_TENANT_BUCKETS
        assert (api.buckets_evicted, api.buckets_evicted_unrefilled) == (1, 1)


def _status_by_scan(api):
    """``/status`` with per-tenant active counts from a scan of every
    job per tenant -- the payload ``ServiceApi._status`` must keep."""
    status = api.orchestrator.status()
    status["api"] = {
        "requests": api.requests,
        "rejected": api.rejected,
        "shed": dict(api.shed),
        "tenants": {
            tenant: {"tokens": round(bucket.tokens, 2),
                     "shed": bucket.shed,
                     "active_jobs": sum(
                         1 for job in api.queue.jobs.values()
                         if job.spec.tenant == tenant
                         and not job.terminal)}
            for tenant, bucket in sorted(api._buckets.items())
        },
        "buckets": {"tracked": len(api._buckets),
                    "cap": MAX_TENANT_BUCKETS,
                    "evicted": api.buckets_evicted,
                    "evicted_unrefilled": api.buckets_evicted_unrefilled},
        "rate": api.rate,
        "burst": api.burst,
        "max_active_per_tenant": api.max_active_per_tenant,
    }
    return status


class TestStatusPayload:
    def test_active_counts_equal_a_full_scan(self, api):
        assert api._status() == _status_by_scan(api)
        for index, tenant in enumerate(["a", "b", "a", "c", "b", "a"]):
            post(api, "/jobs", {"job_id": f"j{index}", "max_frames": 10},
                 {"x-tenant": tenant})
        get(api, "/jobs", {"x-tenant": "idle-tenant"})
        # A tenant with live jobs but no bucket is not listed.
        api.queue.submit(job_id="direct", tenant="unlisted",
                         max_frames=10)
        queue = api.queue
        queue.mark_leased("j0", "w")
        queue.mark_completed("j0", {"frames_sent": 1})
        queue.mark_leased("j1", "w")
        queue.quarantine("j3", "strikes")
        status = api._status()
        assert status == _status_by_scan(api)
        assert {tenant: row["active_jobs"]
                for tenant, row in status["api"]["tenants"].items()} \
            == {"a": 1, "b": 2, "c": 0, "idle-tenant": 0}


class TestReads:
    def test_job_status_findings_artefacts(self, api):
        post(api, "/jobs", {"job_id": "a", "seed": 7, "max_frames": 10})
        status, payload, _ = get(api, "/jobs/a")
        assert (status, payload["state"]) == (200, "pending")
        status, payload, _ = get(api, "/jobs/a/findings")
        assert (status, payload["findings"]) == (200, [])
        status, payload, _ = get(api, "/jobs/a/artefacts")
        assert status == 200
        assert payload["result"] is None
        assert payload["status"]["job_id"] == "a"

    def test_list_filters_by_tenant(self, api):
        post(api, "/jobs", {"job_id": "a", "max_frames": 10,
                            "tenant": "t1"})
        post(api, "/jobs", {"job_id": "b", "max_frames": 10,
                            "tenant": "t2"})
        _, payload, _ = get(api, "/jobs")
        assert [job["job_id"] for job in payload["jobs"]] == ["a", "b"]
        _, payload, _ = get(api, "/jobs?tenant=t2")
        assert [job["job_id"] for job in payload["jobs"]] == ["b"]

    def test_status_reports_api_counters(self, api):
        get(api, "/status")
        _, payload, _ = get(api, "/status")
        assert payload["api"]["requests"] == 0  # counted in _serve only
        assert "anonymous" in payload["api"]["tenants"]
        assert payload["workers"]["configured"] == 2

    def test_unknown_routes_and_methods(self, api):
        assert get(api, "/jobs/nope")[0] == 404
        assert get(api, "/jobs/nope/findings")[0] == 404
        assert get(api, "/nowhere")[0] == 404
        assert api._route("DELETE", "/jobs/a", {}, b"")[0] == 405
        assert post(api, "/jobs", {"max_frames": 10})[0] == 201
        status, payload, _ = api._route(
            "POST", "/jobs", {}, b"not json")
        assert status == 400


class TestSocket:
    def test_end_to_end_over_a_real_socket(self, tmp_path):
        queue = JobQueue(tmp_path)
        orch = Orchestrator(queue)
        api = ServiceApi(queue, orch)

        async def roundtrip(host, port, request: bytes) -> tuple[int, dict]:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split(b" ")[1]), json.loads(body)

        async def drive():
            host, port = await api.start()
            body = json.dumps({"job_id": "a", "seed": 7,
                               "max_frames": 100}).encode()
            request = (
                f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
            code, payload = await roundtrip(host, port, request)
            assert (code, payload["state"]) == (201, "pending")
            code, payload = await roundtrip(
                host, port, b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
            assert code == 200
            assert payload["api"]["requests"] == 2
            assert payload["queue"]["jobs"] == 1
            await api.close()

        asyncio.run(drive())
