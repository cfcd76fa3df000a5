"""Sign-to-subcarrier encoding and transmit power control.

Every gradient coordinate owns a pair of adjacent subcarriers in an OFDM
frame.  A device signals +1 by putting energy on the even bin of the pair
and -1 by using the odd bin; the amplitude carries a fresh unit-circle
randomization symbol so that simultaneous transmissions add up
non-coherently at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-coordinate transmit energy: the single active bin carries sqrt(2).
SYMBOL_ENERGY = 2.0


@dataclass(frozen=True)
class SubcarrierMap:
    """Coordinate-to-bin assignment; arrays are indexed by coordinate."""

    sub_plus: np.ndarray
    sub_minus: np.ndarray
    num_subcarriers: int
    num_symbols: int

    @property
    def num_coordinates(self) -> int:
        return self.sub_plus.size

    def lit_subcarriers(self, signs) -> np.ndarray:
        """Subcarrier of the bin each sign lights: the plus bin's for +1,
        the minus bin's for -1; `signs` ends in the coordinate axis."""
        return np.where(np.asarray(signs) > 0, self.sub_plus, self.sub_minus)


def build_subcarrier_map(num_coordinates: int, num_subcarriers: int, num_symbols: int) -> SubcarrierMap:
    """Row-major layout: coordinate j sits on bins (j // (A/2), 2k) and
    (j // (A/2), 2k + 1) with k = j mod (A/2), i.e. adjacent even/odd
    subcarriers of the same symbol."""
    if num_coordinates < 1:
        raise ValueError("num_coordinates must be positive")
    if num_subcarriers < 2 or num_subcarriers % 2:
        raise ValueError("num_subcarriers must be a positive even number")
    if num_symbols < 1:
        raise ValueError("num_symbols must be positive")
    capacity = num_subcarriers * num_symbols
    if 2 * num_coordinates > capacity:
        raise ValueError(
            f"{num_coordinates} coordinates need {2 * num_coordinates} bins, "
            f"but a {num_symbols} x {num_subcarriers} frame provides {capacity}"
        )
    sub_even = 2 * (np.arange(num_coordinates) % (num_subcarriers // 2))
    return SubcarrierMap(
        sub_plus=sub_even,
        sub_minus=sub_even + 1,
        num_subcarriers=num_subcarriers,
        num_symbols=num_symbols,
    )


def encode_signs(signs, mapping: SubcarrierMap, device_rngs) -> np.ndarray:
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
    if signs.ndim != 3 or signs.shape[-1] != mapping.num_coordinates:
        raise ValueError(
            f"sign vectors of shape {signs.shape} for a map of "
            f"{mapping.num_coordinates} coordinates; expected (frames, devices, coordinates)"
        )
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
