"""Deterministic named random-number streams.

Every stochastic component (HTTP latency, Pareto burst generator,
replacement coin flips, ...) draws from its own named stream derived
from a single master seed, so experiments are reproducible and
components never perturb each other's randomness.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RngStreams:
    """A factory of independent ``random.Random`` streams.

    Each stream is keyed by name; the stream seed is derived from the
    master seed and the name, so adding a new stream never shifts the
    sequence seen by existing ones.
    """

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

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
