"""Replay recorded fuzz traffic against a fresh target.

Closes the fuzzing loop the paper describes ("if a system failure
occurs the conditions that caused it are recorded and the system is
reset"): a recorded window -- from a finding, a capture or a saved
:class:`~repro.fuzz.session.FuzzResult` -- is retransmitted with the
original pacing against a newly built target, and the oracles judge
whether the failure reproduces.  When the finding carries recorded
per-frame timestamps (:attr:`~repro.fuzz.oracle.Finding.recent_times`)
the recorded inter-frame gaps are reproduced; otherwise the replay
falls back to a fixed ``interval`` grid.

``Replayer`` is also the bridge into
:mod:`repro.fuzz.minimize`: its :meth:`probe` method is a ready-made
``still_fails`` predicate for ``minimize_trace``.

What one replayed *step* is lives in two hooks: :meth:`Replayer._path`
turns a recording into hashable step keys, and :meth:`Replayer._step`
applies one key to a world.  Here a key is a ``(frame, gap)``
transmission; :class:`repro.uds.replay.UdsReplayer` plugs in
request-level keys through the same hooks.

:class:`SnapshotReplayer` is the fast path for either kind of step:
instead of rebuilding the target and re-simulating the whole candidate
for every ddmin probe, it keeps a prefix tree of
:class:`~repro.sim.snapshot.Snapshot` checkpoints keyed by step.  A
probe restores the deepest cached ancestor of its candidate and only
simulates the suffix.  Verdict parity with the fresh-build replayer is
structural: a checkpoint is the exact world a fresh replay of that
prefix would have produced (same steps, same powered-on start state),
and the simulator is deterministic, so continuing from the restored
checkpoint and continuing from a fresh rebuild are bit-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Sequence

from repro.can.adapter import PcanStyleAdapter
from repro.can.frame import CanFrame
from repro.fuzz.minimize import MinimizeStats
from repro.fuzz.oracle import Finding
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.sim.snapshot import Snapshot, capture

#: Builds a fresh target and returns (simulator, attacker adapter,
#: failure probe).  The probe reports whether the failure state is
#: present after the replay.
TargetFactory = Callable[[], tuple[Simulator, PcanStyleAdapter,
                                   Callable[[], bool]]]


class Replayer:
    """Replays frame sequences against freshly built targets.

    Subclasses change what a step is by overriding :meth:`_path` and
    :meth:`_step` (and :meth:`probe_finding`, to pick the finding's
    record); validation, probing and minimisation stay here.

    Args:
        target_factory: builds an isolated target per replay; replays
            must not share state or the verdicts are meaningless.
        interval: pacing between replayed frames when no recorded
            timestamps are given (defaults to the fuzzer's 1 ms grid).
        settle: extra simulated time after the last frame before the
            failure probe is evaluated (lets acks, resets and
            watchdogs land).
    """

    #: What one replayed step is called in :meth:`stats` and report keys.
    unit = "frames"
    #: Smallest accepted ``interval``.
    _min_interval = 1

    def __init__(self, target_factory: TargetFactory, *,
                 interval: int = 1 * MS, settle: int = 50 * MS) -> None:
        if interval < self._min_interval:
            raise ValueError(f"interval must be >= {self._min_interval}")
        if settle < 0:
            raise ValueError("settle must be >= 0")
        self._target_factory = target_factory
        self.interval = interval
        self.settle = settle
        self.replays = 0

    def _gaps(self, frames: Sequence[CanFrame],
              times: Sequence[int] | None) -> list[int]:
        """Per-frame simulated durations to run after each write.

        With recorded ``times`` (one transmit timestamp per frame) the
        gap after frame *i* is ``times[i+1] - times[i]`` -- the
        original pacing, jitter included.  A malformed recording (a
        length mismatch, or a non-positive gap from clock weirdness)
        falls back to the fixed ``interval`` grid rather than raising:
        replay is a forensic tool and a best-effort cadence beats no
        replay.  The last frame always gets one ``interval`` of
        run-time before the settle window.
        """
        count = len(frames)
        interval = self.interval
        if times is None or len(times) != count or count == 0:
            return [interval] * count
        gaps = []
        for i in range(count - 1):
            gap = times[i + 1] - times[i]
            gaps.append(gap if gap > 0 else interval)
        gaps.append(interval)
        return gaps

    def _path(self, steps: Sequence,
              times: Sequence[int] | None) -> list[Hashable]:
        """The recording as step keys: ``(frame, gap)`` transmissions.

        Two probes whose pacing differs get different keys, so they
        never share a checkpoint.
        """
        return list(zip(steps, self._gaps(steps, times)))

    def _step(self, world: tuple, key: Hashable) -> None:
        """Apply one step key: write the frame, then run its gap."""
        sim, adapter, _ = world
        frame, gap = key
        adapter.write(frame)
        sim.run_for(gap)

    def _verdict(self, world: tuple) -> bool:
        """Run the settle window and read the failure probe."""
        sim, _, failed = world
        sim.run_for(self.settle)
        return bool(failed())

    def probe(self, steps: Sequence,
              times: Sequence[int] | None = None) -> bool:
        """Replay ``steps`` on a fresh target; True if it fails.

        Usable directly as ``minimize_trace``'s ``still_fails``.
        ``times`` optionally carries the recorded transmit timestamps
        (see :meth:`probe_finding`).
        """
        world = self._target_factory()
        self.replays += 1
        for key in self._path(steps, times):
            self._step(world, key)
        return self._verdict(world)

    def probe_finding(self, finding: Finding) -> bool:
        """Replay a finding's recorded window with its recorded pacing."""
        return self.probe(finding.recent_frames,
                          times=finding.recent_times or None)

    def minimize(self, steps: Sequence, *, max_tests: int = 10_000,
                 stats: MinimizeStats | None = None) -> list:
        """Shrink ``steps`` to a 1-minimal failing subsequence."""
        from repro.fuzz.minimize import minimize_trace

        return minimize_trace(steps, self.probe, max_tests=max_tests,
                              stats=stats)

    def minimize_frame(self, frame: CanFrame, *,
                       filler: int = 0, max_tests: int = 10_000,
                       stats: MinimizeStats | None = None) -> CanFrame:
        """Shrink a single frame's payload to the parsed bytes."""
        from repro.fuzz.minimize import minimize_frame_bytes

        return minimize_frame_bytes(
            frame, lambda candidate: self.probe([candidate]),
            filler=filler, max_tests=max_tests, stats=stats)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for reports (JSON-ready)."""
        return {"replays": self.replays}


class _PrefixNode:
    """One step of the checkpoint prefix tree.

    Children are keyed by step key (see :meth:`Replayer._path`).
    ``snapshot`` is ``None`` for pass-through nodes (no checkpoint
    stored, or evicted).
    """

    __slots__ = ("children", "snapshot")

    def __init__(self) -> None:
        self.children: dict[Hashable, "_PrefixNode"] = {}
        self.snapshot: Snapshot | None = None

    def walk(self, key: Hashable) -> "tuple[_PrefixNode, bool]":
        """Child for ``key``, creating it if absent; True when it existed.

        A node that already existed marks a *shared* prefix -- some
        earlier probe walked the same step -- which is what makes it
        worth checkpointing (see the second-touch policy in
        :meth:`SnapshotReplayer.probe`).
        """
        child = self.children.get(key)
        if child is not None:
            return child, True
        child = _PrefixNode()
        self.children[key] = child
        return child, False


class SnapshotReplayer(Replayer):
    """A replayer that resumes probes from cached checkpoints.

    The target is built **once** (the root checkpoint); every probe
    restores the deepest cached ancestor of its candidate's step path
    and simulates only the remaining suffix.  The step semantics come
    from the replayer it is mixed with: frames here,
    UDS requests in :class:`repro.uds.replay.UdsSnapshotReplayer`.

    Checkpoints follow a *second-touch* policy: a capture costs tens
    of simulated steps' worth of wall clock, so it is only worth
    paying on a prefix that is actually shared between probes.  The
    first probe through a path merely indexes it in the tree; a later
    probe that walks the same step again (proving the prefix shared)
    drops a checkpoint there, at most one per ``checkpoint_stride``
    simulated steps.  One-off suffixes -- the parts of rejected ddmin
    candidates no other probe revisits -- therefore cost no captures
    at all.  Duplicate candidates are ddmin's to memoise
    (:func:`~repro.fuzz.minimize.minimize_trace`); every probe here
    replays.

    Args:
        target_factory: as for :class:`Replayer`; called exactly once.
        checkpoint_stride: minimum simulated steps between stored
            checkpoints along one probe's path.  Smaller = denser
            checkpoints = shorter suffixes to re-simulate, but more
            capture time and snapshot memory.
        max_snapshots: bound on cached checkpoints (root excluded);
            least-recently-used checkpoints are dropped first.
        **options: the step replayer's own options (``interval``,
            ``settle``, ...).

    Counters (all cumulative; ``<steps>`` is ``frames`` or
    ``requests``):
        ``replays`` -- probes answered;
        ``restores`` -- checkpoint restorations performed;
        ``<steps>_restored`` -- steps skipped by restoring mid-trace;
        ``<steps>_simulated`` -- steps actually applied and simulated;
        ``snapshots_taken`` -- checkpoints captured.
    """

    def __init__(self, target_factory: TargetFactory, *,
                 checkpoint_stride: int = 64, max_snapshots: int = 256,
                 **options) -> None:
        super().__init__(target_factory, **options)
        if checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be at least 1")
        if max_snapshots < 1:
            raise ValueError("max_snapshots must be at least 1")
        self._stride = checkpoint_stride
        self._max_snapshots = max_snapshots
        self._root = _PrefixNode()
        self._lru: "OrderedDict[int, _PrefixNode]" = OrderedDict()
        self.restores = 0
        self.steps_restored = 0
        self.steps_simulated = 0
        self.snapshots_taken = 0

    def probe(self, steps: Sequence,
              times: Sequence[int] | None = None) -> bool:
        path = self._path(steps, times)
        root = self._ensure_root()
        # Deepest ancestor of the candidate that still holds a
        # checkpoint (pass-through/evicted nodes are skipped over).
        node = root
        best_node, best_depth = root, 0
        for depth, key in enumerate(path, start=1):
            node = node.children.get(key)
            if node is None:
                break
            if node.snapshot is not None:
                best_node, best_depth = node, depth
        if best_node is not root:
            self._lru.move_to_end(id(best_node))
        world = best_node.snapshot.restore()
        self.replays += 1
        self.restores += 1
        self.steps_restored += best_depth
        # Simulate (and index) the suffix.
        node = best_node
        since_checkpoint = 0
        for key in path[best_depth:]:
            node, shared = node.walk(key)
            self._step(world, key)
            self.steps_simulated += 1
            since_checkpoint += 1
            # Second-touch: checkpoint only steps some earlier probe
            # already walked.  The capture happens *before* the settle
            # window runs, so the stored world is exactly "prefix
            # applied, nothing settled yet".
            if (shared and node.snapshot is None
                    and since_checkpoint >= self._stride):
                self._store(node, capture(world))
                since_checkpoint = 0
        return self._verdict(world)

    def _ensure_root(self) -> _PrefixNode:
        """Build the target once and checkpoint its start state."""
        if self._root.snapshot is None:
            self._root.snapshot = capture(self._target_factory(),
                                          label="root")
            self.snapshots_taken += 1
        return self._root

    def _store(self, node: _PrefixNode, snap: Snapshot) -> None:
        node.snapshot = snap
        self.snapshots_taken += 1
        self._lru[id(node)] = node
        while len(self._lru) > self._max_snapshots:
            _, evicted = self._lru.popitem(last=False)
            # The node stays in the tree (its children may hold live
            # checkpoints); only the snapshot memory is released.
            evicted.snapshot = None

    @property
    def cached_snapshots(self) -> int:
        """Checkpoints currently held (excluding the root)."""
        return len(self._lru)

    def stats(self) -> dict[str, int]:
        return {
            **super().stats(),
            "restores": self.restores,
            f"{self.unit}_restored": self.steps_restored,
            f"{self.unit}_simulated": self.steps_simulated,
            "snapshots_taken": self.snapshots_taken,
            "cached_snapshots": self.cached_snapshots,
        }
