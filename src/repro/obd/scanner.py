"""Tester-side OBD-II scan tool.

The consumer-grade counterpart of :class:`~repro.obd.service.ObdResponder`:
sends functional mode-01/03 queries on 0x7DF and decodes the replies.
Like :class:`~repro.uds.client.UdsClient`, it owns the simulation
while a query is in flight, and waits for the reply the same way: the
first response frame stops the kernel, which finishes at the next
1 ms boundary counted from the send
(:meth:`~repro.sim.kernel.Simulator.run_until_stopped`).
"""

from __future__ import annotations

from repro.can.bus import CanBus
from repro.can.frame import CanFrame, TimestampedFrame
from repro.can.node import CanController
from repro.obd.pids import Pid, decode_pid
from repro.obd.service import OBD_REQUEST_ID, OBD_RESPONSE_ID
from repro.sim.clock import MS
from repro.sim.kernel import Simulator


class ObdScanner:
    """A scan tool plugged into the OBD port."""

    def __init__(self, sim: Simulator, bus: CanBus, *,
                 timeout: int = 100 * MS, name: str = "scan-tool") -> None:
        self.sim = sim
        self.timeout = timeout
        self._controller = CanController(name)
        self._controller.attach(bus)
        self._controller.set_rx_handler(self._on_frame)
        self._responses: list[bytes] = []
        #: True while :meth:`_query` waits; the first response stops
        #: the kernel.
        self._awaiting = False

    def _on_frame(self, stamped: TimestampedFrame) -> None:
        frame = stamped.frame
        if frame.can_id != OBD_RESPONSE_ID or not frame.data:
            return
        length = frame.data[0] & 0x0F
        if 1 <= length <= len(frame.data) - 1:
            self._responses.append(bytes(frame.data[1:1 + length]))
            if self._awaiting:
                self._awaiting = False
                self.sim.stop()

    def _query(self, request: bytes) -> bytes | None:
        self._responses.clear()
        self._controller.send(
            CanFrame(OBD_REQUEST_ID,
                     bytes((len(request),)) + request))
        self._awaiting = True
        try:
            self.sim.run_until_stopped(self.sim.now + self.timeout,
                                       1 * MS)
        finally:
            self._awaiting = False
        return self._responses[0] if self._responses else None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def read_pid(self, pid: Pid) -> float | None:
        """Mode 01: live value of ``pid``, or None on silence."""
        response = self._query(bytes((0x01, int(pid))))
        if response is None or len(response) < 2:
            return None
        if response[0] != 0x41 or response[1] != int(pid):
            return None
        return decode_pid(pid, response[2:])

    def supported_pids(self) -> set[Pid]:
        """Mode 01 PID 0x00: the responder's capability set."""
        response = self._query(bytes((0x01, 0x00)))
        if response is None or len(response) < 6 or response[0] != 0x41:
            return set()
        mask = int.from_bytes(response[2:6], "big")
        supported = set()
        for pid in Pid:
            if 0x01 <= int(pid) <= 0x20 and mask & (1 << (32 - int(pid))):
                supported.add(pid)
        return supported

    def read_dtcs(self) -> tuple[int, list[int]]:
        """Mode 03: (total stored count, first codes)."""
        response = self._query(bytes((0x03,)))
        if response is None or len(response) < 2 or response[0] != 0x43:
            return 0, []
        count = response[1]
        codes = []
        body = response[2:]
        for index in range(0, len(body) - 1, 2):
            codes.append((body[index] << 8) | body[index + 1])
        return count, codes

    def clear_dtcs(self) -> bool:
        """Mode 04: clear stored codes; True on positive response."""
        response = self._query(bytes((0x04,)))
        return response is not None and response[:1] == b"\x44"
