"""Deterministic named random-number streams.

Every stochastic component (HTTP latency, Pareto burst generator,
replacement coin flips, ...) draws from its own named stream derived
from a single master seed, so experiments are reproducible and
components never perturb each other's randomness.

One amortization layer sits on top of the raw streams:
:class:`BufferedDraws` prefetches raw ``random()`` blocks from one
stream and derives ``uniform``/``expovariate`` values with the same
formulas ``random.Random`` uses, so per-call overhead collapses to a
list index.  It is **sequence-preserving** — a component that
migrates from direct ``random.Random`` calls to it sees the
byte-identical value sequence, so same-seed event hashes cannot
change.  Because it *prefetches*, a buffer must be the stream's
**only** consumer; :meth:`RngStreams.buffered` memoizes one buffer
per stream name to make that easy to honour.
"""

from __future__ import annotations

import hashlib
import random
from math import log as _log
from typing import Dict, List


class BufferedDraws:
    """Amortized draws from one ``random.Random``.

    Raw ``random()`` values are pulled in blocks; ``uniform`` and
    ``expovariate`` apply the identical formulas ``random.Random``
    uses (``a + (b - a) * random()`` and ``-log(1 - random())/lambd``),
    so call-for-call the values match direct stream draws — provided
    this buffer is the stream's only consumer (prefetching reorders
    raw draws relative to any *other* reader of the same stream).
    """

    __slots__ = ("rng", "_raw", "_block", "_buf", "_i")

    def __init__(self, rng: random.Random, block: int = 256) -> None:
        if block <= 0:
            raise ValueError("block must be positive")
        self.rng = rng
        self._raw = rng.random
        self._block = block
        # ``_i == _block`` means "refill needed"; starting there makes
        # the first draw refill without a special empty-buffer case.
        self._buf: List[float] = []
        self._i = block

    def random(self) -> float:
        i = self._i
        if i == self._block:
            raw = self._raw
            self._buf = [raw() for _ in range(i)]
            i = 0
        self._i = i + 1
        return self._buf[i]

    def uniform(self, a: float, b: float) -> float:
        i = self._i
        if i == self._block:
            raw = self._raw
            self._buf = [raw() for _ in range(i)]
            i = 0
        self._i = i + 1
        return a + (b - a) * self._buf[i]

    def expovariate(self, lambd: float) -> float:
        i = self._i
        if i == self._block:
            raw = self._raw
            self._buf = [raw() for _ in range(i)]
            i = 0
        self._i = i + 1
        return -_log(1.0 - self._buf[i]) / lambd


class RngStreams:
    """A factory of independent ``random.Random`` streams.

    Each stream is keyed by name; the stream seed is derived from the
    master seed and the name, so adding a new stream never shifts the
    sequence seen by existing ones.
    """

    __slots__ = ("seed", "_streams", "_buffers")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}
        self._buffers: Dict[str, BufferedDraws] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def __call__(self, name: str) -> random.Random:
        return self.stream(name)

    # -- amortized access --------------------------------------------------
    def buffered(self, name: str, block: int = 256) -> BufferedDraws:
        """Memoized :class:`BufferedDraws` over the named stream.

        One buffer per name: every caller asking for the same name
        shares the buffer, which keeps the single-consumer requirement
        intact as long as nobody mixes ``buffered(name)`` with direct
        ``stream(name)`` draws.
        """
        buf = self._buffers.get(name)
        if buf is None:
            buf = BufferedDraws(self.stream(name), block)
            self._buffers[name] = buf
        return buf
