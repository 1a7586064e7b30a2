"""Parity of the testers' event-driven reply wait with the slice loop.

:meth:`UdsClient.request` and :meth:`ObdScanner._query` wait for a
reply with :meth:`Simulator.run_until_stopped`: the first matching
reply stops the kernel, which then finishes at the next 1 ms boundary
counted from the send.  The contract is that this returns at exactly
the tick -- with exactly the events fired -- of the loop the testers
used to run, which advanced the kernel in 1 ms ``run_for`` slices and
checked for the reply after each one.  That loop is kept here verbatim
as the reference (``_poll_reference`` / ``_obd_poll_reference``), and
two identical worlds, one driven by each, are compared after every
request: response, clock, fired-event count, the kernel's pending
future, client counters and server state.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.can.frame import CanFrame
from repro.obd.pids import Pid
from repro.obd.scanner import ObdScanner
from repro.obd.service import OBD_REQUEST_ID
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.testbench.diag import DiagTestbench
from repro.uds.client import UdsClient, UdsResponse
from repro.uds.isotp import IsoTpError
from repro.uds.server import HANG_SESSION_SUB
from repro.vehicle import TargetCar


def _poll_reference(client, payload, timeout=None):
    """The client's original request loop, kept verbatim as reference."""
    payload = bytes(payload)
    if not payload:
        raise ValueError("a UDS request is at least one byte (the SID)")
    timeout = client.timeout if timeout is None else timeout
    if not client.endpoint.tx_idle:
        # The previous request timed out mid-segmentation.  Drop
        # the stuck transmission instead of raising; the peer's
        # reassembly either times out or is reset by our next FF.
        client.endpoint.abort_tx()
        client.aborted_requests += 1
    sid = payload[0]
    if client._responses:
        # Anything already queued predates this request.
        client.stale_responses += len(client._responses)
        client._responses.clear()
    client.endpoint.send(payload)
    deadline = client.sim.now + timeout
    while True:
        matched = client._take_matching(sid)
        if matched is not None:
            return UdsResponse(matched)
        if client.sim.now >= deadline:
            break
        before = client.sim.now
        # Advance in small slices so we stop soon after the reply.
        client.sim.run_for(min(1 * MS, deadline - client.sim.now))
        if client.sim.now == before:
            break
    matched = client._take_matching(sid)
    if matched is not None:
        return UdsResponse(matched)
    return UdsResponse(None)


def _obd_poll_reference(scanner, request):
    """The scanner's original query loop, kept verbatim as reference."""
    scanner._responses.clear()
    scanner._controller.send(
        CanFrame(OBD_REQUEST_ID,
                 bytes((len(request),)) + request))
    deadline = scanner.sim.now + scanner.timeout
    while scanner.sim.now < deadline and not scanner._responses:
        scanner.sim.run_for(min(1 * MS, deadline - scanner.sim.now))
    return scanner._responses[0] if scanner._responses else None


def _uds_world(bench, client):
    """Everything a wait could perturb, in comparable form."""
    sim = bench.sim
    return {
        "now": sim.now,
        "events_fired": sim.events_fired,
        "kernel": sim.state_digest(),
        "stop_requested": sim._stop_requested,
        "stale": client.stale_responses,
        "aborted": client.aborted_requests,
        "client": client.state_dict(),
        "server": bench.server.state_dict(),
        "bus": bench.bus.state_digest(),
    }


def _outcome(call):
    """A request's response, or the transport error it raised.

    Windows shorter than the exchange can leave the server's
    multi-frame reply in flight when the next request reaches it, and
    the server's endpoint then raises from inside the kernel; both
    worlds must fail the same way.
    """
    try:
        return call()
    except IsoTpError as exc:
        return ("raised", str(exc))


def _bench():
    bench = DiagTestbench(seed=0)
    bench.power_on()
    return bench


# Requests covering every exchange shape the server has: single frame
# both ways, multi-frame reply (VIN read), multi-frame request (long
# writes), NRCs, the seeded NRC-path hang (silence for a second), an
# ECUReset whose power cycle lands 10 ms after the reply, and the
# security handshake.
REQUESTS = [
    bytes((0x3E, 0x00)),
    bytes((0x10, 0x03)),
    bytes((0x10, 0x02)),
    bytes((0x10, HANG_SESSION_SUB)),
    bytes((0x11, 0x01)),
    bytes((0x22, 0xF1, 0x90)),
    bytes((0x22, 0xF1, 0x8C)),
    bytes((0x27, 0x01)),
    bytes((0x27, 0x02, 0x00)),
    bytes((0x2E, 0xF1, 0xA0)) + bytes(12),
    bytes((0x2E, 0xF1, 0x90)) + bytes(40),
    bytes((0x99,)),
]

# Default (200 ms), closed windows, whole and fractional milliseconds,
# and windows short enough that replies arrive after the request gave
# up and turn up later as stale.
TIMEOUTS = [None, -1, 0, 1, 999, 1 * MS, 1500, 2 * MS, 3 * MS + 250,
            7 * MS, 20 * MS]

steps = st.lists(
    st.tuples(st.integers(0, len(REQUESTS) - 1),
              st.sampled_from(TIMEOUTS),
              st.sampled_from([0, 1, 499, 1 * MS, 2500])),
    min_size=1, max_size=12)


class TestClientParity:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=steps)
    def test_request_sequences_match_poll_loop(self, steps):
        new, ref = _bench(), _bench()
        for index, timeout, gap in steps:
            payload = REQUESTS[index]
            got = _outcome(lambda: new.client.request(payload,
                                                      timeout=timeout))
            want = _outcome(lambda: _poll_reference(ref.client, payload,
                                                    timeout=timeout))
            assert got == want
            assert _uds_world(new, new.client) == _uds_world(ref, ref.client)
            if isinstance(got, tuple):
                return
            assert (_outcome(lambda: new.sim.run_for(gap))
                    == _outcome(lambda: ref.sim.run_for(gap)))

    @pytest.mark.parametrize("payload, timeout", [
        (REQUESTS[0], None),            # single frame both ways
        (REQUESTS[5], None),            # multi-frame reply
        (REQUESTS[9], None),            # multi-frame request
        (REQUESTS[3], None),            # NRC-path hang: a timeout
        (REQUESTS[4], None),            # ECUReset
        (REQUESTS[5], 3 * MS + 250),    # fractional-ms timeout
    ])
    def test_named_cases_match_poll_loop(self, payload, timeout):
        new, ref = _bench(), _bench()
        got = new.client.request(payload, timeout=timeout)
        want = _poll_reference(ref.client, payload, timeout=timeout)
        assert got == want
        assert _uds_world(new, new.client) == _uds_world(ref, ref.client)
        # The follow-up sees the same world too (reset landed, stall
        # still on, stuck transmission aborted...).
        got = new.client.tester_present()
        want = _poll_reference(ref.client, REQUESTS[0])
        assert got == want
        assert _uds_world(new, new.client) == _uds_world(ref, ref.client)

    def test_hang_times_out_at_the_deadline(self):
        bench = _bench()
        start = bench.sim.now
        response = bench.client.request(REQUESTS[3])
        assert response.timed_out
        assert bench.sim.now == start + bench.client.timeout
        assert not bench.sim._stop_requested

    def test_stale_reply_to_timed_out_request(self):
        new, ref = _bench(), _bench()
        for call in (new.client.request,
                     lambda p, timeout=None:
                     _poll_reference(ref.client, p, timeout)):
            assert call(REQUESTS[1], timeout=0).timed_out
            follow_up = call(REQUESTS[0])
            assert follow_up.message[0] == 0x7E
        assert new.client.stale_responses == 1
        assert _uds_world(new, new.client) == _uds_world(ref, ref.client)


class _Script:
    """Replies injected at chosen ticks on a tester whose ids no ECU
    serves: the wait's boundary arithmetic in isolation."""

    MATCH = bytes((0x7E, 0x00))       # answers TesterPresent
    OTHER = bytes((0x50, 0x03))       # answers an earlier request

    def __init__(self):
        self.bench = _bench()
        self.client = UdsClient(self.bench.sim, self.bench.bus,
                                request_id=0x700, response_id=0x708,
                                name="scripted")
        self.noops = 0

    def arm(self, replies, noops):
        sim = self.bench.sim
        t0 = sim.now
        for offset, message in replies:
            sim.call_at(t0 + offset,
                        lambda m=message: self.client._on_response(m))
        for offset in noops:
            sim.call_at(t0 + offset, self._noop)

    def _noop(self):
        self.noops += 1


offsets = st.one_of(st.integers(0, 8 * MS),
                    st.integers(0, 8).map(lambda k: k * MS))


class TestScriptedBoundaries:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(timeout=st.one_of(st.integers(0, 7 * MS),
                             st.integers(0, 7).map(lambda k: k * MS)),
           replies=st.lists(st.tuples(offsets, st.booleans()),
                            max_size=4),
           at_deadline=st.booleans(),
           noops=st.lists(offsets, max_size=6))
    def test_injected_replies_match_poll_loop(self, timeout, replies,
                                              at_deadline, noops):
        script = [(offset, _Script.MATCH if match else _Script.OTHER)
                  for offset, match in replies]
        if at_deadline:
            script.append((timeout, _Script.MATCH))
        new, ref = _Script(), _Script()
        new.arm(script, noops)
        ref.arm(script, noops)
        got = new.client.request(bytes((0x3E, 0x00)), timeout=timeout)
        want = _poll_reference(ref.client, bytes((0x3E, 0x00)),
                               timeout=timeout)
        assert got == want
        assert new.noops == ref.noops
        assert (_uds_world(new.bench, new.client)
                == _uds_world(ref.bench, ref.client))

    @pytest.mark.parametrize("offset, timeout, returns_at", [
        (3 * MS, 10 * MS, 3 * MS),        # on a 1 ms boundary
        (3 * MS + 1, 10 * MS, 4 * MS),    # just past one
        (0, 10 * MS, 1 * MS),             # at the send tick itself
        (10 * MS, 10 * MS, 10 * MS),      # exactly at the deadline
        (2500, 2700, 2700),               # inside a short last slice
    ])
    def test_return_tick(self, offset, timeout, returns_at):
        script = _Script()
        start = script.bench.sim.now
        # A same-tick event queued behind the reply must still fire,
        # also when that tick is the deadline.
        script.arm([(offset, _Script.MATCH)], [offset, returns_at])
        response = script.client.request(bytes((0x3E, 0x00)),
                                         timeout=timeout)
        assert response.message == _Script.MATCH
        assert script.bench.sim.now == start + returns_at
        assert script.noops == 2
        assert not script.bench.sim._stop_requested


def _count_runs(monkeypatch, sim):
    """Record the deadline of every ``sim.run_until`` call."""
    calls = []

    def counting(deadline):
        calls.append(deadline)
        Simulator.run_until(sim, deadline)

    monkeypatch.setattr(sim, "run_until", counting)
    return calls


class TestWaitCost:
    def test_at_most_two_kernel_runs_per_request(self, monkeypatch):
        bench = _bench()
        calls = _count_runs(monkeypatch, bench.sim)
        for payload in REQUESTS:
            del calls[:]
            bench.client.request(payload)
            assert 1 <= len(calls) <= 2, payload.hex()


def _car():
    car = TargetCar(seed=13)
    car.ignition_on()
    car.run_seconds(0.5)
    return car


def _obd_world(car, scanner):
    sim = car.sim
    return {
        "now": sim.now,
        "events_fired": sim.events_fired,
        "kernel": sim.state_digest(),
        "stop_requested": sim._stop_requested,
        "responses": list(scanner._responses),
        "bus": car.powertrain_bus.state_digest(),
    }


OBD_QUERIES = [
    bytes((0x01, int(Pid.ENGINE_RPM))),
    bytes((0x01, int(Pid.VEHICLE_SPEED))),
    bytes((0x01, 0x00)),
    bytes((0x01, 0x0A)),       # unsupported PID: silence, a timeout
    bytes((0x03,)),
    bytes((0x04,)),
]


class TestScannerParity:
    @pytest.mark.parametrize("timeout", [100 * MS, 2 * MS + 300, 0])
    def test_queries_match_poll_loop(self, timeout):
        new, ref = _car(), _car()
        new_scan = ObdScanner(new.sim, new.powertrain_bus, timeout=timeout)
        ref_scan = ObdScanner(ref.sim, ref.powertrain_bus, timeout=timeout)
        for query in OBD_QUERIES + OBD_QUERIES[::-1]:
            assert (new_scan._query(query)
                    == _obd_poll_reference(ref_scan, query))
            assert _obd_world(new, new_scan) == _obd_world(ref, ref_scan)
            new.sim.run_for(1234)
            ref.sim.run_for(1234)

    def test_at_most_two_kernel_runs_per_query(self, monkeypatch):
        car = _car()
        sim = car.sim
        scanner = ObdScanner(sim, car.powertrain_bus)
        calls = _count_runs(monkeypatch, sim)
        for query in OBD_QUERIES:
            del calls[:]
            scanner._query(query)
            assert 1 <= len(calls) <= 2, query.hex()
