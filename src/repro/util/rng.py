"""Deterministic random-number-generator helpers.

Every stochastic component in the library (random topologies, Valiant
path selection, Bernoulli injection, failure sampling) accepts either a
seed or a ready-made :class:`numpy.random.Generator`.  Centralising the
coercion here keeps experiments reproducible: the same seed always
yields the same topology, traffic, and simulation outcome.
"""

from __future__ import annotations

import numpy as np

#: Default seed used by experiments when the caller does not provide one.
DEFAULT_SEED = 0x51F


def make_rng(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int`` seed, or an existing
        ``Generator`` (returned unchanged so callers can thread one
        generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    statistically independent streams — important when e.g. every
    endpoint of the simulator owns its own injection process.
    """
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's bit stream.
        seeds = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(s)) for s in seeds]
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


class DrawBuffer:
    """``Generator.integers(k)`` draws served from a block of raw words.

    A scalar ``rng.integers(k)`` costs a few microseconds of numpy call
    overhead; path planners make millions of them.  This buffer pulls
    raw 32-bit words in blocks (``integers(0, 2**32, dtype=uint64)``
    consumes exactly one ``next_uint32`` per element) and applies
    numpy's bounded-integer step to them in Python ints: Lemire's
    multiply-shift with its rejection loop, and no draw at all for
    ``k == 1``.  :meth:`below` therefore returns exactly the values the
    scalar calls would have, in the same order.

    The generator itself runs ahead by up to a block until
    :meth:`sync`, which restores the state saved before the first block
    and re-draws exactly the words consumed; afterwards the generator
    is where the scalar draws would have left it.  Nothing else may
    draw from ``rng`` between a :meth:`below` and the next
    :meth:`sync`.
    """

    __slots__ = ("rng", "block", "_buf", "_pos", "_state", "_pulled")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        #: Words per pull: enough for a busy injection phase in one or
        #: two pulls, small enough that over-pulling stays cheap.
        self.block = 512
        self._buf: list[int] = []
        self._pos = 0
        #: Generator state before the first unsynced block (None: synced).
        self._state = None
        #: Words pulled in earlier blocks since that state.
        self._pulled = 0

    def _refill(self) -> list[int]:
        if self._state is None:
            self._state = self.rng.bit_generator.state
        else:
            self._pulled += len(self._buf)
        self._buf = self.rng.integers(
            0, 2**32, size=self.block, dtype=np.uint64
        ).tolist()
        self._pos = 0
        return self._buf

    def below(self, k: int) -> int:
        """``int(rng.integers(k))`` for ``1 <= k < 2**32``."""
        if k == 1:
            return 0
        buf = self._buf
        pos = self._pos
        if pos == len(buf):
            buf = self._refill()
            pos = 0
        m = buf[pos] * k
        pos += 1
        low = m & 0xFFFFFFFF
        if low < k:
            threshold = 0x100000000 % k
            while low < threshold:
                if pos == len(buf):
                    self._pos = pos
                    buf = self._refill()
                    pos = 0
                m = buf[pos] * k
                pos += 1
                low = m & 0xFFFFFFFF
        self._pos = pos
        return m >> 32

    def sync(self) -> None:
        """Leave ``rng`` exactly where the scalar draws would have."""
        if self._state is None:
            return
        used = self._pulled + self._pos
        self.rng.bit_generator.state = self._state
        if used:
            self.rng.integers(0, 2**32, size=used, dtype=np.uint64)
        self._state = None
        self._pulled = 0
        self._buf = []
        self._pos = 0
