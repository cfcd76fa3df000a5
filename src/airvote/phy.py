"""Sign-to-subcarrier encoding and transmit power control.

Every gradient coordinate owns a pair of adjacent subcarriers in an OFDM
frame.  A device signals +1 by putting energy on the even bin of the pair
and -1 by using the odd bin; the amplitude carries a fresh unit-circle
randomization symbol so that simultaneous transmissions add up
non-coherently at the receiver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Per-coordinate transmit energy: the single active bin carries sqrt(2).
SYMBOL_ENERGY = 2.0


@dataclass
class PhyConfig:
    """OFDM frame of num_symbols x num_subcarriers bins.  Coordinate j of a
    frame lights subcarrier 2k (+1) or 2k + 1 (-1) of symbol j // (A/2),
    with k = j mod (A/2) and A = num_subcarriers."""

    num_subcarriers: int = 64
    num_symbols: int = 8
    power_cap: float | None = None

    def __post_init__(self):
        if self.num_subcarriers < 2 or self.num_subcarriers % 2:
            raise ValueError("num_subcarriers must be a positive even number")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be positive")
        if self.power_cap is not None and not (math.isfinite(self.power_cap) and self.power_cap >= 1.0):
            raise ValueError("power_cap must be finite and no lower than the initial power of 1")

    @property
    def frame_coordinates(self) -> int:
        """Coordinates one frame carries: a pair of bins each."""
        return self.num_subcarriers * self.num_symbols // 2


def lit_subcarriers(signs, num_subcarriers: int) -> np.ndarray:
    """Subcarrier of the bin each sign lights: 2k for +1 and 2k + 1 for -1,
    k = j mod (num_subcarriers / 2) for coordinate j of the frame; `signs`
    ends in the coordinate axis."""
    signs = np.asarray(signs)
    return 2 * (np.arange(signs.shape[-1]) % (num_subcarriers // 2)) + (signs < 0)


def encode_signs(signs, device_rngs) -> np.ndarray:
    """Symbol exponents j*phi, (frames, devices, coordinates) complex, for
    sign vectors stacked the same way.

    Each device lights one bin of every coordinate's pair, the plus bin for
    +1 and the minus bin for -1, with the symbol sqrt(SYMBOL_ENERGY) *
    exp(j*phi); the paired bin stays empty.  phi is uniform on [0, 2*pi)
    and the real parts are 0: the channel adds its timing ramp to the
    exponents and exponentiates them in place (`channel.sample_channel`),
    and transmit power is applied during superposition.

    `device_rngs` holds one generator per device, each drawing its device's
    phases frame after frame.
    """
    signs = np.asarray(signs)
    if signs.ndim != 3:
        raise ValueError(f"sign vectors of shape {signs.shape}; expected (frames, devices, coordinates)")
    if not np.all(np.abs(signs) == 1):
        raise ValueError("signs must be exactly -1 or +1")
    num_frames, num_devices, num_coordinates = signs.shape
    if len(device_rngs) != num_devices:
        raise ValueError(f"{len(device_rngs)} device generators for signs of shape {signs.shape}")
    exponents = np.zeros(signs.shape, dtype=np.complex128)
    for device, rng in enumerate(device_rngs):
        exponents.imag[:, device] = rng.uniform(0.0, 2.0 * np.pi, size=(num_frames, num_coordinates))
    return exponents


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


def update_power(powers, reports, vote, power_cap: float | None = None) -> np.ndarray:
    """Per-device transmit powers after raising each by |signed agreement
    with the vote|.

    `powers` holds one multiplier per device, all 1 before the first round.
    Increments lie in [0, 1], so powers never decrease; an optional cap
    clamps the growth (off by default).
    """
    increments = np.abs(signed_agreement(reports, vote))
    powers = np.asarray(powers, dtype=np.float64)
    if increments.size != powers.size:
        raise ValueError(f"{increments.size} reports for {powers.size} device powers")
    powers = powers + increments
    if power_cap is not None:
        powers = np.minimum(powers, power_cap)
    return powers


def mean_power(powers) -> float:
    """Average transmit power across devices."""
    powers = np.asarray(powers)
    if powers.size == 0:
        raise ValueError("no device powers")
    return float(np.mean(powers))
