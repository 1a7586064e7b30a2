"""Bit-exactness of the lockstep MT19937 streams and frame rings.

``BatchRandom`` is the subtlest piece of the batch engine: the words a
window shows must be the exact 32-bit stream CPython's
``random.Random`` would produce, the rejection and ``randbytes``
parses over a window must draw what CPython draws, and ``getstate``
must round-trip back into a scalar ``Random`` after *any* commit, or
batched checkpoints stop being interchangeable with scalar ones.
These tests pin the contract directly against the stdlib generator,
across twist boundaries, rejection-heavy bounds and mixed per-world
consumption rates.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.batch import (MT_N, BatchRandom, FrameRing, next_accepted,
                             randbytes_rows, state_from_random)


def scalar_randbelow(rng, n):
    """CPython's _randbelow_with_getrandbits, spelled out."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def parse_randbelow(batch, idx, n, draws, width=64):
    """``draws`` rejection draws per world through window/commit, a
    window of ``width`` words at a time; returns one list per world."""
    out = [[] for _ in idx]
    shift = 32 - n.bit_length()
    for row, world in enumerate(idx):
        one = np.array([world])
        while len(out[row]) < draws:
            words = batch.window(one, width)
            nxt = next_accepted(words, n)
            pos = 0
            while len(out[row]) < draws and nxt[0, pos] < width:
                j = int(nxt[0, pos])
                out[row].append(int(words[0, j]) >> shift)
                pos = j + 1
            batch.commit(one, np.array([pos]))
    return out


class TestStateFromRandom:
    def test_accepts_plain_state(self):
        rng = random.Random(1)
        assert state_from_random(rng) == rng.getstate()

    def test_rejects_buffered_gauss(self):
        rng = random.Random(1)
        rng.gauss(0, 1)
        if rng.getstate()[2] is None:  # draw until a gauss is buffered
            rng.gauss(0, 1)
        with pytest.raises(ValueError):
            state_from_random(rng)


class TestBatchRandomParity:
    def test_getrandbits32_matches_stdlib(self):
        seeds = [0, 1, 7, 12345]
        scalars = [random.Random(seed) for seed in seeds]
        batch = BatchRandom.from_randoms(
            [random.Random(seed) for seed in seeds])
        idx = np.arange(len(seeds))
        for _ in range(20):  # 97-word windows cross several twists
            words = batch.window(idx, 97)
            for world, rng in enumerate(scalars):
                assert words[world].tolist() == [rng.getrandbits(32)
                                                 for _ in range(97)]
            batch.commit(idx, np.full(len(seeds), 97))

    def test_randbelow_matches_stdlib(self):
        # 5 forces a ~38% rejection rate; 9, 256 and 2048 are the DLC
        # and id pools the campaign actually draws from.
        for bound in (5, 9, 256, 1000, 2048):
            scalars = [random.Random(seed) for seed in range(6)]
            batch = BatchRandom.from_randoms(
                [random.Random(seed) for seed in range(6)])
            values = parse_randbelow(batch, range(6), bound, 500)
            for world, rng in enumerate(scalars):
                assert values[world] == [scalar_randbelow(rng, bound)
                                         for _ in range(500)]
                assert batch.getstate(world) == rng.getstate()

    def test_randbytes8_matches_stdlib(self):
        scalars = [random.Random(seed) for seed in range(4)]
        batch = BatchRandom.from_randoms(
            [random.Random(seed) for seed in range(4)])
        idx = np.arange(4)
        lengths_cycle = [0, 1, 3, 4, 5, 8]
        for step in range(300):
            length = lengths_cycle[step % len(lengths_cycle)]
            words = batch.window(idx, 2)
            rows = randbytes_rows(words[:, 0], words[:, 1],
                                  np.full(4, length))
            for world, rng in enumerate(scalars):
                assert bytes(rows[world][:length]) == rng.randbytes(length)
                assert not rows[world][length:].any()
            batch.commit(idx, np.full(4, (length + 3) // 4))

    def test_uneven_consumption_keeps_worlds_independent(self):
        # World 0 consumes 10x as fast as world 1 from shared windows;
        # each must still track its own scalar twin exactly.
        scalars = [random.Random(3), random.Random(4)]
        batch = BatchRandom.from_randoms(
            [random.Random(3), random.Random(4)])
        both = np.arange(2)
        for _ in range(200):
            words = batch.window(both, 10)
            assert words[0].tolist() == [scalars[0].getrandbits(32)
                                         for _ in range(10)]
            assert int(words[1, 0]) == scalars[1].getrandbits(32)
            batch.commit(both, np.array([10, 1]))
        for world, rng in enumerate(scalars):
            assert batch.getstate(world) == rng.getstate()

    def test_transplant_mid_stream(self):
        # A Random that has already consumed part of its word block
        # (pos != 624) must continue, not restart -- including across
        # the end of that partial first block.
        rng = random.Random(99)
        rng.getrandbits(32 * 100)
        twin = random.Random(99)
        twin.getrandbits(32 * 100)
        batch = BatchRandom.from_randoms([rng])
        idx = np.array([0])
        words = batch.window(idx, MT_N - 100)
        assert words[0].tolist() == [twin.getrandbits(32)
                                     for _ in range(MT_N - 100)]
        batch.commit(idx, np.array([MT_N - 100]))
        assert batch.getstate(0) == twin.getstate()  # pos 624, no twist
        words = batch.window(idx, 1000)
        assert words[0].tolist() == [twin.getrandbits(32)
                                     for _ in range(1000)]


class TestGetstateRoundtrip:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           chunks=st.lists(st.integers(min_value=0, max_value=700),
                           max_size=6),
           overshoot=st.integers(min_value=0, max_value=1300))
    def test_exported_state_continues_scalar_stream(self, seed, chunks,
                                                    overshoot):
        # Each window shows more words than its commit takes; only the
        # committed ones may count against the stream.
        batch = BatchRandom.from_randoms([random.Random(seed)])
        reference = random.Random(seed)
        idx = np.array([0])
        for chunk in chunks:
            batch.window(idx, chunk + overshoot)
            batch.commit(idx, np.array([chunk]))
            reference.getrandbits(32 * chunk)
            assert batch.getstate(0) == reference.getstate()
        resumed = random.Random()
        resumed.setstate(batch.getstate(0))
        assert resumed.getrandbits(32 * 50) == reference.getrandbits(32 * 50)

    def test_roundtrip_after_mixed_draw_kinds(self):
        batch = BatchRandom.from_randoms([random.Random(5)])
        reference = random.Random(5)
        idx = np.array([0])
        for _ in range(100):
            parse_randbelow(batch, [0], 5, 1, width=8)
            scalar_randbelow(reference, 5)
            words = batch.window(idx, 2)
            assert (bytes(randbytes_rows(words[:, 0], words[:, 1],
                                         np.array([8]))[0])
                    == reference.randbytes(8))
            batch.commit(idx, np.array([2]))
        assert batch.getstate(0) == reference.getstate()


class TestFrameRing:
    def test_window_returns_oldest_first(self):
        ring = FrameRing(2, capacity=3)
        for step in range(5):
            ring.append(np.array([0]), np.array([step * 10]),
                        np.array([0x100 + step]), np.array([2]),
                        np.array([[step, step, 0, 0, 0, 0, 0, 0]],
                                 dtype=np.uint8))
        window = ring.window(0)
        assert [row[0] for row in window] == [20, 30, 40]  # 0,10 evicted
        assert window[-1] == (40, 0x104, 2, bytes((4, 4)))
        assert ring.window(1) == []

    def test_seed_then_append_behaves_like_one_stream(self):
        ring = FrameRing(1, capacity=4)
        ring.seed(0, [(1, 0x10, 1, b"\x0a"), (2, 0x20, 0, b"")])
        ring.append(np.array([0]), np.array([3]), np.array([0x30]),
                    np.array([1]),
                    np.array([[7, 0, 0, 0, 0, 0, 0, 0]], dtype=np.uint8))
        assert ring.window(0) == [(1, 0x10, 1, b"\x0a"), (2, 0x20, 0, b""),
                                  (3, 0x30, 1, b"\x07")]
