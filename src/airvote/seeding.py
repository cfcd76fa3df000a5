"""Deterministic RNG derivation.

Every stochastic operation in the package draws from a generator derived
from (master_seed, stream, *path), so per-device and per-trial work can be
reordered or parallelized without changing results.  Each generator is
numpy's `default_rng(SeedSequence([master_seed, stream, *path]))`, values
mod 2**64; a round derives all of its own in one `derive_rngs` pass.

Paths used by the round loop, per round r:
- STREAM_BATCH (r, m): device m's mini batch, then the phases of its
  symbols, one per coordinate, for every frame of the round, drawn frame
  after frame;
- STREAM_CHANNEL (r, f), over the air only: frame f's channel, then its
  noise, each in the order `channel.sample_channel` and `channel.superpose`
  state; the last frame of a round is padded with +1 votes.

The Monte Carlo oracles spawn one generator per device, then one per frame,
from a seed per grid point (`analysis._oracle_detect`), the frames a kernel
call at a time; each frame generator draws the frame's signs before its channel.
"""

import numpy as np

# Stream tags keep independently derived generators from colliding.
STREAM_DATASET = 1
STREAM_PARTITION = 2
STREAM_BATCH = 3
STREAM_CHANNEL = 5
STREAM_INIT = 7

_MASK64 = (1 << 64) - 1
# numpy's SeedSequence: its pool size and hash constants (bit_generator.pyx).
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _FixedState(np.random.bit_generator.ISeedSequence):
    """Seed sequence whose `generate_state` returns state computed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _words(value: int) -> list[int]:
    """0 <= value < 2**64 as SeedSequence splits an int: little-endian uint32 words."""
    return [value & 0xFFFFFFFF, value >> 32] if value >> 32 else [value]


def _hash(values, constants):
    """SeedSequence's hash of row k of `values` with running constants k and k + 1."""
    values = (values ^ constants[:-1]) * constants[1:]
    return values ^ values >> 16


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def derive_rngs(master_seed: int, paths) -> list[np.random.Generator]:
    """[derive_rng(master_seed, *path) for path in paths], hashed in one pass:
    SeedSequence's entropy mix into its 4-word pool and `generate_state(4,
    uint64)` run on a (words, paths) uint32 array; a path's words past the
    pool are mixed in only where the path has them."""
    rows = [[w for v in (master_seed, *path) for w in _words(int(v) & _MASK64)] for path in paths]
    width = max(_POOL, *map(len, rows))
    entropy = np.array([r + [0] * (width - len(r)) for r in rows], np.uint32).T
    constants = np.cumprod([_INIT_A] + [_MULT_A] * (_POOL * width), dtype=np.uint32)[:, None]
    pool = _hash(entropy[:_POOL], constants[: _POOL + 1])
    for src in range(_POOL):
        dst, k = [i for i in range(_POOL) if i != src], _POOL + (_POOL - 1) * src
        pool[dst] = _mix(pool[dst], _hash(pool[src], constants[k : k + _POOL]))
    for src in range(_POOL, width):
        mixed = _mix(pool, _hash(entropy[src], constants[_POOL * src : _POOL * src + _POOL + 1]))
        pool = np.where(np.array([len(r) for r in rows]) > src, mixed, pool)
    constants = np.cumprod([_INIT_B] + [_MULT_B] * (2 * _POOL), dtype=np.uint32)[:, None]
    state = _hash(np.concatenate([pool, pool]), constants).T.copy().view(np.uint64)
    return [np.random.Generator(np.random.PCG64(_FixedState(s))) for s in state]


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Generator seeded from (master_seed, *path); same path, same stream."""
    return derive_rngs(master_seed, [path])[0]
