"""Sign-to-subcarrier encoding and transmit power control.

Every gradient coordinate owns a pair of adjacent subcarriers in an OFDM
frame.  A device signals +1 by putting energy on the even bin of the pair
and -1 by using the odd bin; the amplitude carries a fresh unit-circle
randomization symbol so that simultaneous transmissions add up
non-coherently at the receiver.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

# Per-coordinate transmit energy: the single active bin carries sqrt(2).
SYMBOL_ENERGY = 2.0
# OFDM FFT length: a timing offset of one sample turns subcarrier l by 2*pi*l/FFT_SIZE.
FFT_SIZE = 64


@dataclass
class PhyConfig:
    """OFDM frame of num_symbols x num_subcarriers bins.  Coordinate j of a
    frame lights subcarrier 2k (+1) or 2k + 1 (-1) of symbol j // (A/2),
    with k = j mod (A/2) and A = num_subcarriers, at most FFT_SIZE."""

    num_subcarriers: int = 64
    num_symbols: int = 8
    power_cap: float = math.inf

    def __post_init__(self):
        if not 2 <= self.num_subcarriers <= FFT_SIZE or self.num_subcarriers % 2:
            raise ValueError(f"num_subcarriers must be an even number in [2, {FFT_SIZE}]")
        if not 1 <= self.num_symbols <= sys.float_info.max:  # analysis._at_least's rule; analysis imports phy
            raise ValueError(f"num_symbols must be >= 1 and <= {sys.float_info.max:g}")
        if not self.power_cap >= 1.0:
            raise ValueError("power_cap must be no lower than the initial power of 1")

    @property
    def frame_coordinates(self) -> int:
        """Coordinates one frame carries: a pair of bins each."""
        return self.num_subcarriers * self.num_symbols // 2

    def num_frames(self, coordinates: int) -> int:
        """Frames that carry `coordinates` coordinates, the last one padded."""
        return -(-operator.index(coordinates) // self.frame_coordinates)


def lit_subcarriers(signs, num_subcarriers: int) -> np.ndarray:
    """Subcarrier of the bin each sign lights: 2k + 1 where it is negative
    (-1), 2k elsewhere (+1), k = j mod (num_subcarriers / 2) for coordinate
    j of the frame; `signs` ends in the coordinate axis."""
    signs = np.asarray(signs)
    return 2 * (np.arange(signs.shape[-1]) % (num_subcarriers // 2)) + (signs < 0)


def encode_signs(signs, device_rngs) -> np.ndarray:
    """Symbol phases phi, (frames, devices, coordinates) float64, for sign
    vectors stacked the same way: uniform on [0, 2*pi), drawn frame after
    frame by each device's generator in `device_rngs`.

    Each device lights one bin of every coordinate's pair, the plus bin for
    +1 and the minus bin for -1, with the symbol sqrt(SYMBOL_ENERGY) *
    exp(j*phi) (the channel forms exp(j*phi), superposition the amplitude);
    the paired bin stays empty.
    """
    signs = np.asarray(signs)
    if signs.ndim != 3:
        raise ValueError(f"sign vectors of shape {signs.shape}; expected (frames, devices, coordinates)")
    num_frames, num_devices, num_coordinates = signs.shape
    if len(device_rngs) != num_devices:
        raise ValueError(f"{len(device_rngs)} device generators for {num_devices} devices")
    phases = np.empty(signs.shape)
    for device, rng in enumerate(device_rngs):
        phases[:, device] = rng.uniform(0.0, 2.0 * np.pi, size=(num_frames, num_coordinates))
    return phases


# ---------------------------------------------------------------------------
# Dynamic power control
# ---------------------------------------------------------------------------

def signed_agreement(reports, vote) -> np.ndarray:
    """Per-device mean of [matches vote] - [differs from vote], in [-1, 1].

    The power update uses only the magnitude of this statistic, so a device
    that opposes the vote everywhere is boosted exactly like one that agrees
    everywhere; this helper keeps the signed value observable.
    """
    reports = np.atleast_2d(np.asarray(reports))
    vote = np.asarray(vote)
    if reports.shape[1] != vote.size:
        raise ValueError("report length does not match vote length")
    agree = np.mean(reports == vote, axis=1)
    return 2.0 * agree - 1.0


def update_power(powers, reports, vote, power_cap: float) -> np.ndarray:
    """Per-device transmit powers after raising each by |signed agreement
    with the vote|, then clamping at `power_cap` (`PhyConfig.power_cap`).

    `powers` holds one multiplier per device, all 1 before the first round.
    Increments lie in [0, 1], so powers below the cap never decrease.
    """
    increments = np.abs(signed_agreement(reports, vote))
    powers = np.asarray(powers, dtype=np.float64)
    if increments.size != powers.size:
        raise ValueError(f"{increments.size} reports for {powers.size} device powers")
    return np.minimum(powers + increments, power_cap)


def mean_power(powers) -> float:
    """Average transmit power across devices."""
    powers = np.asarray(powers)
    if powers.size == 0:
        raise ValueError("no device powers")
    return float(np.mean(powers))
