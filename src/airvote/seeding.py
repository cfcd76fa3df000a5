"""Deterministic RNG derivation.

Every stochastic operation in the package draws from a generator derived
from (master_seed, stream, *path), so per-device and per-trial work can be
reordered or parallelized without changing results.

Paths used by the round loop, per round r:
- STREAM_BATCH (r, m): device m's mini batch, then the phases of its
  symbols, one per coordinate, for every frame of the round, drawn frame
  after frame;
- STREAM_CHANNEL (r, f): frame f's channel and then its noise, in this
  order: the real parts of the gains of the bins the devices light (one per
  device and coordinate for per_bin fading, one per device for per_frame,
  none for "none"), then their imaginary parts; one timing offset per
  device; the noise of the map's 2 x coordinates bins, real parts (plus
  bins, then minus bins) before imaginary parts.  No bin outside the map
  and no bin a device leaves dark is ever drawn.

The Monte Carlo oracles keep the per-device, per-frame layout but spawn
their generators from a seed per grid point (`analysis._oracle_detect`);
each frame generator draws the frame's signs before its channel.
"""

import numpy as np

# Stream tags keep independently derived generators from colliding.
STREAM_DATASET = 1
STREAM_PARTITION = 2
STREAM_BATCH = 3
STREAM_CHANNEL = 5
STREAM_INIT = 7

_MASK64 = (1 << 64) - 1


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Generator seeded from (master_seed, *path); same path, same stream."""
    entropy = [int(master_seed) & _MASK64] + [int(p) & _MASK64 for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))
