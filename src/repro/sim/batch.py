"""Vectorised multi-world kernel primitives.

The scalar :class:`~repro.sim.kernel.Simulator` dispatches one Python
closure per event; a fuzz campaign fires two to three events per frame,
which caps throughput near the interpreter's call rate.  This module
holds the primitives that let N independent campaign worlds advance in
bulk instead -- a few numpy operations per *block* of frames:

- :class:`BatchRandom`: W CPython-``random.Random``-compatible MT19937
  streams, each buffered in twist-aligned blocks of raw 32-bit words.
  Consumption is two-phase: :meth:`BatchRandom.window` hands out the
  next words of many worlds as one array without consuming them, the
  caller parses as many draws from it as it likes, and
  :meth:`BatchRandom.commit` consumes exactly the words that parse
  used.  The position is kept per word, so a world's stream can be
  exported back into a ``random.Random`` at any word boundary
  (:meth:`BatchRandom.getstate`) and continue scalar bit-identically.
- :func:`next_accepted` and :func:`randbytes_rows`: CPython's two draw
  shapes (``_randbelow`` rejection and ``randbytes``) spelled over a
  window of raw words, so many draws parse in one vector operation.
- :class:`FrameRing`: struct-of-arrays ring buffers for the per-world
  recent-transmit windows (ids, DLCs, payload bytes, timestamps).

Nothing here knows about CAN or campaigns; the analytic campaign model
that drives these arrays lives in :mod:`repro.fuzz.batch`.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

#: MT19937 state size in 32-bit words.
MT_N = 624

#: CPython ``Random.getstate()`` version these streams speak.
PY_STATE_VERSION = 3

_BYTE_SHIFTS = np.arange(8, dtype=np.uint64) * np.uint64(8)


def state_from_random(rng) -> tuple:
    """``rng.getstate()`` validated for lockstep transplanting.

    Raises ``ValueError`` for anything but a plain version-3 MT19937
    state with no buffered gauss value -- the only shape whose future
    draws are a pure function of the 624-word key and position.
    """
    state = rng.getstate()
    version, internal, gauss_next = state
    if version != PY_STATE_VERSION:
        raise ValueError(f"unsupported Random state version {version}")
    if len(internal) != MT_N + 1:
        raise ValueError("malformed MT19937 internal state")
    if gauss_next is not None:
        raise ValueError("Random carries a buffered gauss value; "
                         "its stream is not word-aligned")
    return state


def _draw(source: random.Random, count: int) -> np.ndarray:
    """The next ``count`` raw words of ``source``, in draw order.

    ``getrandbits`` assembles 32-bit words little-endian, so its bytes
    are the word stream itself.
    """
    raw = source.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4")


def _untemper(words: np.ndarray) -> np.ndarray:
    """Invert MT19937's output tempering: one block of raw outputs back
    into the key words that produced them."""
    y = words.astype(np.uint32)
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y.copy()
    for _ in range(4):  # each pass recovers seven more low bits
        x = y ^ ((x << 7) & 0x9D2C5680)
    return x ^ (x >> 11) ^ (x >> 22)


def next_accepted(words: np.ndarray, n: int) -> np.ndarray:
    """Where a ``_randbelow(n)`` draw starting at each word lands.

    ``words`` is a window of raw words, one row per stream.  Entry
    ``[r, i]`` of the result is the first column ``j >= i`` whose word
    CPython's ``_randbelow_with_getrandbits(n)`` accepts (``words[r, j]
    >> (32 - n.bit_length()) < n``), or the row width when none does.
    One extra column holds that sentinel, so a lookup one past the
    window also lands on it.
    """
    if not 0 < n.bit_length() <= 32:
        raise ValueError(f"next_accepted needs 0 < n < 2**32, got {n}")
    rows, width = words.shape
    accepted = (words >> (32 - n.bit_length())) < n
    columns = np.where(accepted, np.arange(width, dtype=np.int32),
                       np.int32(width))
    out = np.empty((rows, width + 1), dtype=np.int32)
    out[:, width] = width
    np.minimum.accumulate(columns[:, ::-1], axis=1,
                          out=out[:, width - 1::-1])
    return out


def randbytes_rows(lo: np.ndarray, hi: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """``Random.randbytes(length)`` from the words it would draw.

    ``lo`` and ``hi`` are the first and second raw words after the
    call's start; ``lengths`` are 0..8.  CPython draws no word for 0
    bytes, one for 1-4 and two for 5-8 (little-endian, the last word
    truncated from the top), so unused words are ignored.  Rows come
    back zero-padded to 8 columns.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    narrow = np.minimum(lengths, 4)
    value = lo.astype(np.uint64) >> (32 - 8 * narrow).astype(np.uint64)
    hi_shift = np.where(lengths > 4, 64 - 8 * lengths, 32)
    value |= (hi.astype(np.uint64) >> hi_shift.astype(np.uint64)) \
        << np.uint64(32)
    # A row's value holds exactly 8*length random bits, so byte
    # columns at and beyond the length unpack to zero on their own.
    return ((value[:, None] >> _BYTE_SHIFTS) & np.uint64(0xFF)) \
        .astype(np.uint8)


class BatchRandom:
    """W independent MT19937 streams, bit-exact with ``random.Random``.

    Each world owns a private ``random.Random`` word source and a buffer
    of its raw ``genrand_uint32`` words.  (Drawing from CPython rather
    than numpy's ``MT19937`` keeps ``numpy.random``, about 1.7 MB
    resident, out of the process.)  Refills are *twist-aligned*: the
    first runs to the end of the transplanted key's block, every later
    one appends whole 624-word blocks, so each buffered block past the
    first is the complete tempered output of one MT key.  The logical
    CPython state ``(key, pos)`` is therefore reconstructible at any
    word: ``pos`` is one past the last consumed word's offset in its
    block, and ``key`` is the transplanted key or that block untempered.
    """

    def __init__(self, states: Sequence[tuple]) -> None:
        worlds = len(states)
        if worlds == 0:
            raise ValueError("BatchRandom needs at least one world")
        self.worlds = worlds
        self._sources: list[random.Random] = []
        #: Buffered words per world, from the start of the block that
        #: holds the last consumed word (or the transplant point).
        self._words: list[np.ndarray] = []
        #: Block offset of each buffer's first word: the transplanted
        #: ``pos`` until that block is dropped, 0 afterwards.
        self._base_pos = np.zeros(worlds, dtype=np.int64)
        #: Words of each buffer consumed so far.
        self._pos = np.zeros(worlds, dtype=np.int64)
        #: The transplanted key while a buffer still starts in its block.
        self._key0: list[np.ndarray | None] = []
        for world, state in enumerate(states):
            version, internal, gauss_next = state
            if (version != PY_STATE_VERSION or len(internal) != MT_N + 1
                    or gauss_next is not None):
                raise ValueError(f"world {world}: not a plain version-3 "
                                 f"MT19937 state")
            pos = int(internal[MT_N])
            source = random.Random()
            source.setstate(state)
            self._sources.append(source)
            self._words.append(_draw(source, MT_N - pos))
            self._base_pos[world] = pos
            self._key0.append(np.array(internal[:MT_N], dtype=np.uint32))

    @classmethod
    def from_randoms(cls, rngs: Sequence) -> "BatchRandom":
        """Transplant live ``random.Random`` instances."""
        return cls([state_from_random(rng) for rng in rngs])

    def _ensure(self, world: int, count: int) -> None:
        """Buffer at least ``count`` unconsumed words for ``world``.

        Blocks before the one holding the last consumed word are
        dropped first (:meth:`getstate` untempers that block for its
        key); new words arrive in whole blocks, since the source always
        sits at a block end.
        """
        words = self._words[world]
        pos = int(self._pos[world])
        missing = count - (words.size - pos)
        if missing <= 0:
            return
        if pos:
            base = int(self._base_pos[world])
            drop = (base + pos - 1) // MT_N * MT_N - base
            if drop > 0:
                words = words[drop:]
                self._pos[world] = pos - drop
                self._base_pos[world] = 0
                self._key0[world] = None
        fresh = _draw(self._sources[world], -(-missing // MT_N) * MT_N)
        self._words[world] = np.concatenate((words, fresh))

    def window(self, idx: np.ndarray, count: int) -> np.ndarray:
        """The next ``count`` raw words of each world in ``idx``.

        One row per listed world, uint32.  Nothing is consumed: the
        caller parses the rows and hands :meth:`commit` the number of
        words each parse used.
        """
        out = np.empty((len(idx), count), dtype=np.uint32)
        starts = self._pos[idx].tolist()
        for row, world in enumerate(idx.tolist()):
            words = self._words[world]
            start = starts[row]
            if words.size - start < count:
                self._ensure(world, count)
                words = self._words[world]
                start = int(self._pos[world])
            out[row] = words[start:start + count]
        return out

    def commit(self, idx: np.ndarray, counts: np.ndarray) -> None:
        """Consume ``counts[i]`` words of world ``idx[i]`` -- at most
        what the last :meth:`window` showed it."""
        self._pos[idx] += counts

    def getstate(self, world: int) -> tuple:
        """The world's logical ``random.Random.getstate()`` tuple.

        Feeding this to ``Random.setstate`` yields a scalar stream that
        continues bit-identically from the words consumed so far -- at
        a block end the position reads 624 under the finished block's
        key, exactly as CPython defers its twist to the next draw.
        """
        base = int(self._base_pos[world])
        pos = int(self._pos[world])
        if pos == 0:
            block, state_pos = 0, base
        else:
            block, offset = divmod(base + pos - 1, MT_N)
            state_pos = offset + 1
        key = self._key0[world]
        if block or key is None:
            start = block * MT_N - base
            key = _untemper(self._words[world][start:start + MT_N])
        return (PY_STATE_VERSION, tuple(key.tolist()) + (state_pos,), None)


class BatchRandomView:
    """A ``random.Random``-compatible facade over one world's stream.

    The frame-level engine consumes :class:`BatchRandom` words through
    bulk windows; the request-level UDS engine instead hands each
    world's *generator object* a view of its own stream, so the scalar
    generator code runs unmodified while the words still come from
    (and are accounted against) the shared batch state.  Every method
    reproduces CPython's word consumption exactly -- including
    ``getrandbits(0)`` drawing nothing and ``_randbelow`` rejection
    redraws -- so :meth:`getstate` stays exportable at any boundary and
    a ``random.Random`` seeded with it continues bit-identically.

    The view owns its world's position while installed: the buffered
    words are mirrored once into a plain Python list and served by list
    index (numpy scalar indexing per draw costs more than the whole
    analytic exchange it feeds), with the position flushed back to the
    shared state on :meth:`getstate` and on every refill.  A world
    driven through a view must therefore not also be drawn through
    :meth:`BatchRandom.window`.
    """

    __slots__ = ("_batch", "_world", "_words", "_pos", "_end", "_start")

    def __init__(self, batch: BatchRandom, world: int) -> None:
        self._batch = batch
        self._world = world
        self._mirror()

    def _mirror(self) -> None:
        """Copy the world's unconsumed buffered words into the list."""
        batch, world = self._batch, self._world
        batch._ensure(world, 1)
        self._start = int(batch._pos[world])
        self._words = batch._words[world][self._start:].tolist()
        self._pos = 0
        self._end = len(self._words)

    def _flush(self) -> None:
        self._batch._pos[self._world] = self._start + self._pos

    def _word(self) -> int:
        pos = self._pos
        if pos >= self._end:
            return self._word_slow()
        self._pos = pos + 1
        return self._words[pos]

    def _word_slow(self) -> int:
        self._flush()
        self._mirror()                      # refills the shared buffer
        self._pos = 1
        return self._words[0]

    def random(self) -> float:
        """CPython ``genrand_res53``: 53 bits from two raw words."""
        pos = self._pos
        if pos + 2 <= self._end:
            words = self._words
            a = words[pos]
            b = words[pos + 1]
            self._pos = pos + 2
        else:
            a = self._word()
            b = self._word()
        return ((a >> 5) * 67108864.0 + (b >> 6)) \
            * (1.0 / 9007199254740992.0)

    def getrandbits(self, k: int) -> int:
        if 0 < k <= 32:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                return self._words[pos] >> (32 - k)
            return self._word_slow() >> (32 - k)
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        # Little-endian 32-bit digits, the last one truncated -- the
        # exact assembly order of _randommodule.c.  When the buffer
        # covers the whole request (the usual case for randbytes
        # payload draws), consume it as one slice.
        count = (k + 31) >> 5
        pos = self._pos
        if pos + count <= self._end:
            words = self._words[pos:pos + count]
            self._pos = pos + count
            last = words[-1]
            remainder = k & 31
            if remainder:
                last >>= 32 - remainder
            result = last
            for word in reversed(words[:-1]):
                result = (result << 32) | word
            return result
        result = 0
        shift = 0
        while k > 0:
            word = self._word()
            if k < 32:
                word >>= 32 - k
            result |= word << shift
            shift += 32
            k -= 32
        return result

    def randbytes(self, n: int) -> bytes:
        return self.getrandbits(n * 8).to_bytes(n, "little")

    def _randbelow(self, n: int) -> int:
        k = n.bit_length()
        if k > 32:
            r = self.getrandbits(k)
            while r >= n:
                r = self.getrandbits(k)
            return r
        # The ubiquitous case (choice/randrange over small pools):
        # one buffered word per try, consumed without a method call.
        shift = 32 - k
        while True:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                r = self._words[pos] >> shift
            else:
                r = self._word_slow() >> shift
            if r < n:
                return r

    def randrange(self, start: int, stop: int | None = None,
                  step: int = 1) -> int:
        if step != 1:
            raise NotImplementedError(
                "BatchRandomView supports only step 1")
        if stop is None:
            start, stop = 0, start
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range ({start}, {stop})")
        if width >> 32:
            return start + self._randbelow(width)
        # _randbelow's small-pool loop, inlined at the call site.
        shift = 32 - width.bit_length()
        while True:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                r = self._words[pos] >> shift
            else:
                r = self._word_slow() >> shift
            if r < width:
                return start + r

    def randint(self, a: int, b: int) -> int:
        return self.randrange(a, b + 1)

    def choice(self, seq):
        n = len(seq)
        if not n:
            raise IndexError("cannot choose from an empty sequence")
        if n >> 32:
            return seq[self._randbelow(n)]
        shift = 32 - n.bit_length()
        while True:
            pos = self._pos
            if pos < self._end:
                self._pos = pos + 1
                r = self._words[pos] >> shift
            else:
                r = self._word_slow() >> shift
            if r < n:
                return seq[r]

    def getstate(self) -> tuple:
        self._flush()
        return self._batch.getstate(self._world)


class FrameRing:
    """Struct-of-arrays ring buffers for per-world recent-frame windows.

    :meth:`append` pushes one frame per listed world and :meth:`store`
    writes a whole block of frames by sequence number; :meth:`window`
    reads one world's window back in oldest-first order for result
    assembly.
    """

    def __init__(self, worlds: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.times = np.zeros((worlds, capacity), dtype=np.int64)
        self.ids = np.zeros((worlds, capacity), dtype=np.int64)
        self.dlcs = np.zeros((worlds, capacity), dtype=np.int64)
        self.data = np.zeros((worlds, capacity, 8), dtype=np.uint8)
        self.filled = np.zeros(worlds, dtype=np.int64)

    def append(self, idx: np.ndarray, times: np.ndarray, ids: np.ndarray,
               dlcs: np.ndarray, data: np.ndarray) -> None:
        """Push one frame per world in ``idx`` (vectorised)."""
        self.store(idx, self.filled[idx], times, ids, dlcs, data)
        self.filled[idx] += 1

    def store(self, idx: np.ndarray, seq: np.ndarray, times: np.ndarray,
              ids: np.ndarray, dlcs: np.ndarray, data: np.ndarray) -> None:
        """Write frames by sequence number, without advancing ``filled``.

        ``seq[j]`` counts the frames world ``idx[j]`` pushed before
        this one.  No two entries may share a world's ring slot, so a
        block longer than the ring passes only its newest ``capacity``
        frames; the caller then adds the block length to ``filled``.
        """
        slot = seq % self.capacity
        self.times[idx, slot] = times
        self.ids[idx, slot] = ids
        self.dlcs[idx, slot] = dlcs
        self.data[idx, slot] = data

    def seed(self, world: int, entries) -> None:
        """Preload one world's window (oldest first) from a resume."""
        for time, can_id, dlc, payload in entries:
            slot = int(self.filled[world]) % self.capacity
            self.times[world, slot] = time
            self.ids[world, slot] = can_id
            self.dlcs[world, slot] = dlc
            row = np.zeros(8, dtype=np.uint8)
            row[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
            self.data[world, slot] = row
            self.filled[world] += 1

    def window(self, world: int) -> list[tuple[int, int, int, bytes]]:
        """(time, id, dlc, payload) rows, oldest first."""
        filled = int(self.filled[world])
        length = min(filled, self.capacity)
        start = filled - length
        rows = []
        for offset in range(start, filled):
            slot = offset % self.capacity
            dlc = int(self.dlcs[world, slot])
            rows.append((int(self.times[world, slot]),
                         int(self.ids[world, slot]), dlc,
                         bytes(self.data[world, slot, :dlc])))
        return rows
