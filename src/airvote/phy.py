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

    sym_plus: np.ndarray
    sub_plus: np.ndarray
    sym_minus: np.ndarray
    sub_minus: np.ndarray
    num_subcarriers: int
    num_symbols: int

    @property
    def num_coordinates(self) -> int:
        return self.sym_plus.size

    def grid_shape(self) -> tuple[int, int]:
        return (self.num_symbols, self.num_subcarriers)


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
    j = np.arange(num_coordinates)
    pairs_per_symbol = num_subcarriers // 2
    sym = j // pairs_per_symbol
    sub_even = 2 * (j % pairs_per_symbol)
    return SubcarrierMap(
        sym_plus=sym,
        sub_plus=sub_even,
        sym_minus=sym.copy(),
        sub_minus=sub_even + 1,
        num_subcarriers=num_subcarriers,
        num_symbols=num_symbols,
    )


def encode_signs(signs, mapping: SubcarrierMap, device_rngs) -> np.ndarray:
    """Frequency-domain frames for sign vectors stacked on leading axes.

    `signs` has shape (..., devices, coordinates) and the result (...,
    devices, symbols, subcarriers), one frame per sign vector.  The bin
    matching each sign holds sqrt(SYMBOL_ENERGY) * exp(j*phi) with phi
    uniform on [0, 2*pi); the paired bin stays zero.  Transmit power is
    applied later, during superposition.

    `device_rngs` holds one generator per device, each drawing the phases
    of its device's vectors in C order of the leading axes; for (frames,
    devices, coordinates) signs that is frame after frame.
    """
    signs = np.asarray(signs)
    if signs.shape[-1:] != (mapping.num_coordinates,):
        raise ValueError(
            f"sign vectors of shape {signs.shape} for a map of "
            f"{mapping.num_coordinates} coordinates"
        )
    if not np.all(np.abs(signs) == 1):
        raise ValueError("signs must be exactly -1 or +1")
    if signs.ndim < 2 or len(device_rngs) != signs.shape[-2]:
        raise ValueError(f"{len(device_rngs)} device generators for signs of shape {signs.shape}")
    # Symbols are exp(1j * phi); the in-place steps compute exactly what
    # np.exp(1j * phi) and a scalar product would, without temporaries.
    amplitude = np.zeros(signs.shape, dtype=np.complex128)
    per_device = signs.shape[:-2] + signs.shape[-1:]
    for device, rng in enumerate(device_rngs):
        amplitude.imag[..., device, :] = rng.uniform(0.0, 2.0 * np.pi, size=per_device)
    np.exp(amplitude, out=amplitude)
    amplitude *= np.sqrt(SYMBOL_ENERGY)
    num_symbols, num_subcarriers = mapping.grid_shape()
    bins = np.where(
        signs > 0,
        mapping.sym_plus * num_subcarriers + mapping.sub_plus,
        mapping.sym_minus * num_subcarriers + mapping.sub_minus,
    ).reshape(-1, signs.shape[-1])
    frames = np.zeros((bins.shape[0], num_symbols * num_subcarriers), dtype=np.complex128)
    np.put_along_axis(frames, bins, amplitude.reshape(bins.shape), axis=1)
    return frames.reshape(signs.shape[:-1] + (num_symbols, num_subcarriers))


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
