"""Reproducible splittable random number streams.

Every Monte Carlo routine in this package takes an :class:`RngStream` and
derives per-batch / per-cell substreams from it, so results are
bit-reproducible for a fixed root seed, whatever thread runs a batch.
They do depend on the batch size, which is why it is a module constant of
each estimator: batch b draws from substream b.

The bit generator is SFC64.  Changing it changes every draw, so
``tests/test_rng.py`` pins the first normals of one stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """A named substream: an SFC64 generator seeded by its spawn key.

    Same (root_seed, stream_id) always reproduces the same output;
    distinct stream ids give statistically independent streams, because
    SeedSequence hashes the spawn key into the seed state (numpy's
    spawn-key contract, which holds for every bit generator).
    """

    root_seed: int
    stream_id: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.root_seed, spawn_key=self.stream_id)
        return np.random.Generator(np.random.SFC64(seq))

    def substream(self, *indices: int) -> "RngStream":
        return RngStream(self.root_seed, self.stream_id + tuple(indices))
