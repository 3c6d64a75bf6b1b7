"""Keyed, reproducible random streams.

Streams are identified by a (seed, stream) pair of 64-bit integers and are
backed by counter-based Philox generators, so distinct stream ids give
statistically independent substreams of the same seed. Draws depend only on
the key, never on scheduling, which keeps parallel consumers reproducible.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

_U64 = 2**64


def _integer(value, name: str) -> int:
    """value by operator.index: a float raises instead of truncating to an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RngStream:
    """A (seed, stream-id) key addressing one deterministic substream."""

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        # a float key is refused: truncated, it would draw another key's stream
        seed, stream = _integer(self.seed, "seed"), _integer(self.stream, "stream")
        if not (0 <= seed < _U64 and 0 <= stream < _U64):
            raise InvalidParameterError("seed and stream must be unsigned 64-bit integers")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
