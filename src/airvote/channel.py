"""Rayleigh fading, timing-offset phase ramps, and multi-device superposition.

The uplink is modeled directly in the frequency domain: each (symbol,
subcarrier) bin is one scalar complex observation.  Only the coordinates'
paired bins are simulated, and each device only on the bin it lights.  A
timing offset inside the cyclic prefix shows up as a linear phase ramp
across subcarriers and leaves magnitudes untouched, which is why energy
detection shrugs it off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phy import SYMBOL_ENERGY, lit_subcarriers

FADING_MODES = ("per_bin", "per_frame", "none")


@dataclass
class ChannelConfig:
    noise_var: float = 1.0        # total complex noise variance per bin
    sync_error_max: float = 0.0   # timing offset bound, fraction of a symbol
    fft_size: int = 64            # converts timing offset to phase slope
    fading: str = "per_bin"

    def __post_init__(self):
        if not (math.isfinite(self.noise_var) and self.noise_var >= 0):
            raise ValueError("noise_var must be finite and >= 0")
        if not 0.0 <= self.sync_error_max < 1.0:
            raise ValueError("sync_error_max must lie in [0, 1)")
        if self.fft_size < 1:
            raise ValueError("fft_size must be positive")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}")


def sample_channel(signs, exponents, num_subcarriers: int, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Each device's unit symbol exp(j*phi) as the receiver sees it on the
    bin its sign lights: (frames, devices, coordinates) complex, one frame
    per generator in `frame_rngs`.  `exponents` holds the j*phi that
    `phy.encode_signs` returns, complex128 and shaped like `signs`; they
    are turned into the result in place.

    The symbol is multiplied by the bin's gain, i.i.d. circularly-symmetric
    complex Gaussian with unit mean-square magnitude; per_frame fading
    reuses one gain per device across the whole frame, "none" pins every
    gain to 1 for ideal-channel runs.  Timing offsets are uniform in [0,
    sync_error_max], and rotate the symbol by exp(-j*2*pi*l*offset/fft_size)
    on its lit subcarrier l (`phy.lit_subcarriers` of a frame of
    `num_subcarriers`), which leaves magnitudes unchanged.  Only lit
    bins are drawn: the paired bins carry nothing from the device.

    Frame f's generator draws the real parts of its gains, then their
    imaginary parts (one per device and coordinate, or one per device for
    per_frame fading, none for "none"), then one offset per device.
    """
    signs, faded = np.asarray(signs), np.asarray(exponents)
    if signs.ndim != 3 or faded.shape != signs.shape:
        raise ValueError(f"exponents of shape {faded.shape} for signs of shape {signs.shape}; "
                         "expected (frames, devices, coordinates) for both")
    if faded.dtype != np.complex128:
        raise ValueError(f"exponents must be complex128, not {faded.dtype}")
    num_frames, num_devices, num_coordinates = signs.shape
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} channel generators for signs of shape {signs.shape}")
    draw = (num_devices, num_coordinates) if config.fading == "per_bin" else (num_devices, 1)
    # One complex exp per lit bin carries the symbol phase and the timing ramp.
    gains = np.empty(draw, dtype=np.complex128)
    for symbols, frame_signs, rng in zip(faded, signs, frame_rngs):
        if config.fading != "none":
            gains.real = rng.standard_normal(draw)
            gains.imag = rng.standard_normal(draw)
            gains /= np.sqrt(2.0)
        offsets = rng.uniform(0.0, config.sync_error_max, size=num_devices)
        if offsets.any():  # with every offset 0 the ramp is exactly 1
            slopes = (-2.0 * np.pi / config.fft_size) * offsets
            symbols.imag += slopes[:, None] * lit_subcarriers(frame_signs, num_subcarriers)
        np.exp(symbols, out=symbols)
        if config.fading != "none":
            symbols *= gains
    return faded


def superpose(signs, faded, powers, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Received plus and minus bins, (frames, 2, coordinates): on each bin
    the sum over the devices that light it of sqrt(power * SYMBOL_ENERGY)
    times their `faded` symbol from sample_channel, plus complex Gaussian
    noise of total variance noise_var.

    Frame f's generator draws the noise of its 2 x coordinates bins, real
    parts first, plus bins before minus bins.
    """
    signs, faded = np.asarray(signs), np.asarray(faded)
    if signs.ndim != 3 or faded.shape != signs.shape:
        raise ValueError(f"faded symbols of shape {faded.shape} for signs of shape {signs.shape}; "
                         "expected (frames, devices, coordinates) for both")
    num_frames, num_devices, num_coordinates = signs.shape
    powers = np.asarray(powers, dtype=np.float64)
    if powers.shape != (num_devices,):
        raise ValueError(f"{powers.size} powers for {num_devices} devices")
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} noise generators for signs of shape {signs.shape}")
    amplitudes = np.sqrt(SYMBOL_ENERGY * powers)[:, None]
    on_plus = amplitudes * (signs > 0)  # 0 where the device lights the minus bin
    received = np.empty((num_frames, 2, num_coordinates), dtype=np.complex128)
    for side, weights in enumerate((on_plus, amplitudes - on_plus)):
        # Sum over devices of weight x symbol, on the real and imaginary
        # planes alike; a masked complex sum takes about three times longer.
        received[:, side].real = np.einsum("fdc,fdc->fc", faded.real, weights)
        received[:, side].imag = np.einsum("fdc,fdc->fc", faded.imag, weights)
    if config.noise_var > 0:
        scale = np.sqrt(config.noise_var / 2.0)
        for bins, rng in zip(received, frame_rngs):
            bins += scale * (rng.standard_normal(bins.shape) + 1j * rng.standard_normal(bins.shape))
    return received
