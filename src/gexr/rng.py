"""Reproducible splittable random number streams.

Every Monte Carlo routine in this package takes an :class:`RngStream` and
derives per-batch / per-cell substreams from it, so results are
bit-reproducible for a fixed root seed, whatever the worker count or the
thread that runs a batch.  They do depend on the batch size, which is why
it is a module constant of each estimator: batch b draws from substream b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """A named substream of a counter-based RNG.

    Same (root_seed, stream_id) always reproduces the same output;
    distinct stream ids give statistically independent streams
    (numpy SeedSequence spawn-key contract).
    """

    root_seed: int
    stream_id: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.root_seed, spawn_key=self.stream_id)
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.root_seed, self.stream_id + tuple(indices))
