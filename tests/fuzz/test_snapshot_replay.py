"""Tests for the snapshot-cached replayer.

The contract under test is *verdict parity*: for any candidate
sequence, :class:`SnapshotReplayer` must answer exactly what the
fresh-build :class:`Replayer` answers -- same probe verdicts, same
minimised traces, same probe counts -- while reusing cached prefix
checkpoints instead of rebuilding the target.  The checkpoint tree is
shared by both step kinds, so its caching contract runs over CAN
frames (:class:`TestCaching`) and UDS requests
(:class:`TestRequestCaching`).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.can.frame import CanFrame
from repro.fuzz.minimize import MinimizeStats, minimize_trace
from repro.fuzz.oracle import Finding
from repro.fuzz.replay import Replayer, SnapshotReplayer
from repro.sim.clock import MS
from repro.testbench.bench import UnlockTestbench
from repro.testbench.factory import UdsReplayFactory
from repro.uds.replay import UdsReplayer, UdsSnapshotReplayer
from repro.uds.server import BOOTLOADER_SCRATCH_DID, SCRATCH_BUFFER_SIZE
from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND


def bench_factory():
    bench = UnlockTestbench(seed=3, check_mode="byte")
    bench.power_on()
    adapter = bench.attacker_adapter()
    return bench.sim, adapter, lambda: bench.bcm.led_on


UNLOCK_FRAME = CanFrame(BODY_COMMAND_ID,
                        bytes((UNLOCK_COMMAND, 0x99, 0x01)))
NOISE = [CanFrame(0x100 + i, bytes((i,))) for i in range(10)]

#: A small pool for hypothesis to build traces from: benign noise, the
#: unlock command, and a near-miss (wrong command byte).
POOL = NOISE[:4] + [UNLOCK_FRAME,
                    CanFrame(BODY_COMMAND_ID, bytes((0x21, 0x99, 0x01)))]

#: The UDS counterparts: reads of unknown data identifiers are benign
#: noise, and the NRC-path session-control hang fails on its own.
KEY_ALGORITHM = 5
UDS_FACTORY = UdsReplayFactory(seed=0, key_algorithm=KEY_ALGORITHM)
UDS_NOISE = [bytes((0x22, 0x00, i)) for i in range(10)]
UDS_HANG = bytes((0x10, 0x04))
#: The scratch overflow needs the unlocked programming session, so it
#: only fails when the sendKey byte is re-derived from this replay's
#: seed (the recorded ``00`` is never the right key).
UDS_OVERFLOW = [
    b"\x10\x03", b"\x27\x01", b"\x27\x02\x00", b"\x10\x02",
    bytes((0x2E, BOOTLOADER_SCRATCH_DID >> 8, BOOTLOADER_SCRATCH_DID & 0xFF))
    + bytes(SCRATCH_BUFFER_SIZE + 4),
]
#: Spliced between overflow steps: noise, an ECUReset (the reboot
#: ride-out, and a session that has to be walked again) and
#: TesterPresent.
UDS_FILLER = UDS_NOISE[:2] + [b"\x11\x01", b"\x3e\x00"]


@st.composite
def overflow_attempts(draw):
    """The overflow sequence with steps dropped and filler spliced in.

    Filler shifts the simulated time of each seed request, so every
    attempt is handed a different seed and its recorded ``00`` key has
    to be re-derived.
    """
    requests = []
    for step in UDS_OVERFLOW:
        requests += draw(st.lists(st.sampled_from(UDS_FILLER), max_size=2))
        if draw(st.integers(0, 3)):
            requests.append(step)
    return requests


class TestParity:
    def test_probe_verdicts_match_fresh_replayer(self):
        fresh = Replayer(bench_factory)
        snap = SnapshotReplayer(bench_factory, checkpoint_stride=2)
        for trace in (
            NOISE,
            NOISE[:5] + [UNLOCK_FRAME] + NOISE[5:],
            [UNLOCK_FRAME],
            [],
            NOISE[:3],
            NOISE[:5] + [UNLOCK_FRAME],
        ):
            assert snap.probe(trace) == fresh.probe(trace), trace

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(0, len(POOL) - 1), max_size=8))
    def test_probe_parity_on_generated_traces(self, picks):
        trace = [POOL[i] for i in picks]
        # Fresh replayers per example: hypothesis reuses the test
        # class, and cross-example cache state is exactly what we want
        # to exercise on the snapshot side -- so share *one* snapshot
        # replayer across examples but verify against a fresh build.
        assert self.snap.probe(trace) == Replayer(bench_factory).probe(
            trace)

    snap = SnapshotReplayer(bench_factory, checkpoint_stride=2)

    @settings(max_examples=40, deadline=None)
    @given(requests=overflow_attempts())
    @example(requests=UDS_OVERFLOW)
    @example(requests=UDS_OVERFLOW[:4] + [b"\x11\x01"] + UDS_OVERFLOW)
    def test_request_probe_parity_on_generated_sequences(self, requests):
        # Key rewriting reads the seed of the world it runs in; verdict
        # parity with a fresh build shows it is a deterministic
        # function of the restored checkpoint.  (``keys_rewritten``
        # differs by design: restored steps are not re-run.)
        fresh = UdsReplayer(UDS_FACTORY, key_algorithm=KEY_ALGORITHM)
        assert self.uds_snap.probe(requests) == fresh.probe(requests)

    uds_snap = UdsSnapshotReplayer(UDS_FACTORY, key_algorithm=KEY_ALGORITHM,
                                   checkpoint_stride=2)

    def test_minimize_parity_including_probe_counts(self):
        trace = NOISE[:6] + [UNLOCK_FRAME] + NOISE[6:]
        fresh_stats, snap_stats = MinimizeStats(), MinimizeStats()
        fresh_minimal = Replayer(bench_factory).minimize(
            trace, stats=fresh_stats)
        snap_minimal = SnapshotReplayer(bench_factory).minimize(
            trace, stats=snap_stats)
        assert snap_minimal == fresh_minimal == [UNLOCK_FRAME]
        assert snap_stats.tests_used == fresh_stats.tests_used

    def test_minimize_benign_trace_raises(self):
        with pytest.raises(ValueError):
            SnapshotReplayer(bench_factory).minimize(NOISE)

    def test_minimize_frame_parity(self):
        minimal = SnapshotReplayer(bench_factory).minimize_frame(
            UNLOCK_FRAME)
        assert minimal.data == bytes((UNLOCK_COMMAND,))


class _CheckpointTreeContract:
    """The checkpoint tree's contract; subclasses pick the step kind."""

    snap_cls: type
    factory: object
    noise: list
    culprit: object
    unit: str
    invalid_options: list

    def test_target_is_built_exactly_once(self):
        built = []

        def counting_factory():
            built.append(True)
            return self.factory()

        replayer = self.snap_cls(counting_factory)
        replayer.probe(self.noise)
        replayer.probe([self.culprit])
        replayer.probe(self.noise[:3])
        assert len(built) == 1
        assert replayer.replays == 3

    def test_second_touch_checkpointing_enables_prefix_reuse(self):
        # stride=1: every *revisited* step beyond the root becomes a
        # checkpoint.  First walk of a path stores nothing; the second
        # walk stores; the third restores mid-trace.
        replayer = self.snap_cls(self.factory, checkpoint_stride=1)
        prefix = self.noise[:4]
        replayer.probe(prefix + [self.noise[5]])
        assert replayer.snapshots_taken == 1          # root only
        replayer.probe(prefix + [self.noise[6]])
        assert replayer.snapshots_taken > 1           # shared prefix
        restored_before = replayer.stats()[f"{self.unit}_restored"]
        assert replayer.probe(prefix + [self.culprit])
        stats = replayer.stats()
        assert stats[f"{self.unit}_restored"] >= restored_before + 4
        assert stats["restores"] == 3
        assert stats["cached_snapshots"] >= 4

    def test_one_off_suffixes_cost_no_captures(self):
        replayer = self.snap_cls(self.factory, checkpoint_stride=1)
        replayer.probe(self.noise)     # first walk: index only
        assert replayer.snapshots_taken == 1
        assert replayer.cached_snapshots == 0

    def test_stride_limits_checkpoint_density(self):
        dense = self.snap_cls(self.factory, checkpoint_stride=1)
        sparse = self.snap_cls(self.factory, checkpoint_stride=5)
        for replayer in (dense, sparse):
            replayer.probe(self.noise)
            replayer.probe(self.noise + [self.culprit])
        assert sparse.cached_snapshots < dense.cached_snapshots

    def test_lru_eviction_bounds_memory(self):
        replayer = self.snap_cls(self.factory, checkpoint_stride=1,
                                 max_snapshots=3)
        replayer.probe(self.noise)
        replayer.probe(self.noise + [self.culprit])  # checkpoints the path
        assert replayer.cached_snapshots <= 3
        # Evicted prefixes still answer correctly (rebuilt from root).
        assert replayer.probe(self.noise[:2] + [self.culprit])
        assert not replayer.probe(self.noise[:2])

    def test_parameter_validation(self):
        for options in self.invalid_options:
            with pytest.raises(ValueError):
                self.snap_cls(self.factory, **options)


class TestCaching(_CheckpointTreeContract):
    """The contract over CAN frame steps, plus what only frames have."""

    snap_cls = SnapshotReplayer
    factory = staticmethod(bench_factory)
    noise = NOISE
    culprit = UNLOCK_FRAME
    unit = "frames"
    invalid_options = [{"checkpoint_stride": 0}, {"max_snapshots": 0},
                       {"interval": 0}, {"settle": -1}]

    def test_different_pacing_does_not_share_checkpoints(self):
        replayer = SnapshotReplayer(bench_factory, checkpoint_stride=1)
        times_a = [i * 1 * MS for i in range(len(NOISE))]
        times_b = [i * 3 * MS for i in range(len(NOISE))]
        replayer.probe(NOISE, times=times_a)
        replayer.probe(NOISE, times=times_a)
        taken = replayer.snapshots_taken
        assert taken > 1                              # shared path stored
        replayer.probe(NOISE, times=times_b)
        # The differently-paced walk is a fresh path: no restore depth.
        assert replayer.probe(NOISE, times=times_b) is False
        assert replayer.snapshots_taken > taken

    def test_minimize_trace_memo_serves_repeats(self):
        # Duplicate candidates are ddmin's to memoise, not the
        # replayer's: granularity changes revisit subsets, and each
        # distinct candidate reaches the predicate exactly once.
        calls = []

        def still_fails(candidate):
            calls.append(tuple(candidate))
            return {1, 6} <= set(candidate)

        stats = MinimizeStats()
        assert minimize_trace(range(8), still_fails, stats=stats) == [1, 6]
        assert len(calls) == len(set(calls)) == stats.tests_used
        assert stats.cache_hits > 0


class TestRequestCaching(_CheckpointTreeContract):
    """The same contract over UDS request steps."""

    snap_cls = UdsSnapshotReplayer
    factory = UDS_FACTORY
    noise = UDS_NOISE
    culprit = UDS_HANG
    unit = "requests"
    invalid_options = [{"checkpoint_stride": 0}, {"max_snapshots": 0},
                       {"interval": -1}, {"settle": -1},
                       {"reset_settle": -5}, {"key_algorithm": 99}]


class TestRecordedPacing:
    class _LoggingAdapter:
        """Stub adapter: records (time, frame) writes.

        The log lives on the *class* so that the snapshot replayer's
        deepcopied clone (which gets its own instance ``__dict__``)
        still reports into the same list the test reads.
        """

        writes: "list[tuple[int, CanFrame]]" = []

        def __init__(self, sim):
            self._sim = sim

        def write(self, frame):
            type(self).writes.append((self._sim.now, frame))

    def _run(self, replayer_cls, frames, times):
        from repro.sim.kernel import Simulator

        def factory():
            sim = Simulator()
            return sim, self._LoggingAdapter(sim), lambda: False

        self._LoggingAdapter.writes.clear()
        replayer_cls(factory).probe(frames, times=times)
        return [t for t, _ in self._LoggingAdapter.writes]

    @pytest.mark.parametrize("replayer_cls", [Replayer, SnapshotReplayer])
    def test_recorded_gaps_are_replayed(self, replayer_cls):
        times = [0, 2 * MS, 9 * MS]
        write_times = self._run(replayer_cls, NOISE[:3], times)
        gaps = [b - a for a, b in zip(write_times, write_times[1:])]
        assert gaps == [2 * MS, 7 * MS]

    @pytest.mark.parametrize("replayer_cls", [Replayer, SnapshotReplayer])
    def test_malformed_times_fall_back_to_grid(self, replayer_cls):
        write_times = self._run(replayer_cls, NOISE[:3], [0, 5])  # len != 3
        gaps = [b - a for a, b in zip(write_times, write_times[1:])]
        assert gaps == [1 * MS, 1 * MS]

    def test_probe_finding_uses_recorded_times(self):
        frames = tuple(NOISE[:2]) + (UNLOCK_FRAME,)
        finding = Finding(time=123, oracle="ack", description="unlock",
                          recent_frames=frames,
                          recent_times=(0, 1 * MS, 4 * MS))
        assert SnapshotReplayer(bench_factory).probe_finding(finding)
        assert Replayer(bench_factory).probe_finding(finding)
