"""Deterministic random-number streams for reproducible simulations.

Every stochastic choice in the simulator (block intervals, failure
times, workload generation) draws from a named stream derived from a
single experiment seed.  Two runs with the same seed are
bit-for-bit identical regardless of the order in which subsystems are
constructed, because each subsystem gets its own independent stream.
"""

from __future__ import annotations

import random

from ..crypto.hashing import hash_str


class RngStream:
    """A named, seeded pseudo-random stream (thin wrapper over random.Random)."""

    def __init__(self, seed: int, name: str) -> None:
        material = hash_str(f"{seed}/{name}")
        self._rng = random.Random(int.from_bytes(material, "big"))
        self.name = name

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._rng.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time with the given rate (1/mean)."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        return self._rng.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        return self._rng.choice(seq)

    def sample(self, seq, k: int):
        """Sample ``k`` distinct elements."""
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(seq)

    def bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes."""
        return self._rng.randbytes(n)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        return self._rng.gauss(mu, sigma)


class RngRegistry:
    """Factory of independent named streams derived from one seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the (cached) stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = RngStream(self.seed, name)
        return self._streams[name]
