"""Bloom-filter membership summary for grid-cell neighborhoods.

The bounded-memory tier needs to answer one question about a point that no
live cell covers: *was there ever a cluster-cell in this neighborhood?*
Exact answers would require remembering every evicted seed — the memory
the tier exists to reclaim — so the question is answered approximately by
a bloom filter over grid keys (quantised seed coordinates).  The filter
gates revival: a count-min estimate is only trusted for keys the filter
has seen, so hash collisions inside the sketch can never fabricate
density for a genuinely novel region (no false negatives; false positives
at the configured rate merely inherit the sketch's own collision error).
"""

from __future__ import annotations

import math
from typing import Hashable

import numpy as np

from repro.sketch.cms import stable_key_hash

__all__ = ["BloomFilter"]


class BloomFilter:
    """A fixed-size bloom filter over hashable keys.

    Parameters
    ----------
    capacity:
        Number of distinct keys the filter is sized for.
    error_rate:
        Target false-positive probability at ``capacity`` insertions.
    seed:
        Seed of the per-probe hash parameters.
    """

    def __init__(
        self, capacity: int = 100_000, error_rate: float = 0.01, seed: int = 0
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < error_rate < 1.0:
            raise ValueError(f"error_rate must be in (0, 1), got {error_rate}")
        self.capacity = int(capacity)
        self.error_rate = float(error_rate)
        # Classic sizing: m = -n ln p / (ln 2)^2 bits, k = (m/n) ln 2 probes.
        n_bits = max(8, int(math.ceil(-capacity * math.log(error_rate) / math.log(2) ** 2)))
        self.n_bits = n_bits
        self.n_hashes = max(1, int(round(n_bits / capacity * math.log(2))))
        rng = np.random.default_rng(seed)
        self._mul = (rng.integers(1, 1 << 62, size=self.n_hashes, dtype=np.uint64) << 1) | 1
        self._add = rng.integers(0, 1 << 63, size=self.n_hashes, dtype=np.uint64)
        self._bits = np.zeros((n_bits + 7) // 8, dtype=np.uint8)
        #: Number of ``add`` calls for keys not already present (approximate
        #: distinct-insert counter; exact while the filter is sparse).
        self.n_added = 0

    # ------------------------------------------------------------------ #
    def _positions(self, key: Hashable) -> np.ndarray:
        base = np.uint64(stable_key_hash(key))
        with np.errstate(over="ignore"):
            mixed = base * self._mul + self._add
        return ((mixed >> np.uint64(33)) % np.uint64(self.n_bits)).astype(np.int64)

    def add(self, key: Hashable) -> None:
        """Insert a key (idempotent)."""
        positions = self._positions(key)
        bytes_, offsets = positions >> 3, positions & 7
        masks = (1 << offsets).astype(np.uint8)
        if np.all(self._bits[bytes_] & masks):
            return
        # ``bitwise_or.at``: plain fancy ``|=`` would drop all but one probe
        # landing in the same byte (duplicate scatter indices).
        np.bitwise_or.at(self._bits, bytes_, masks)
        self.n_added += 1

    def __contains__(self, key: Hashable) -> bool:
        """Whether the key was (probably) inserted; never a false negative."""
        positions = self._positions(key)
        bits = self._bits[positions >> 3] & (1 << (positions & 7)).astype(np.uint8)
        return bool(np.all(bits != 0))

    # ------------------------------------------------------------------ #
    def fill_ratio(self) -> float:
        """Fraction of bits set (drives the live false-positive rate)."""
        return float(np.unpackbits(self._bits).sum()) / float(self.n_bits)

    def nbytes(self) -> int:
        """Bytes held by the bit array and hash parameters."""
        return int(self._bits.nbytes + self._mul.nbytes + self._add.nbytes)
