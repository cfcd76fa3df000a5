"""Rayleigh fading, timing-offset phase ramps, and multi-device superposition.

The uplink is modeled directly in the frequency domain: each (symbol,
subcarrier) bin is one scalar complex observation.  A timing offset inside
the cyclic prefix shows up as a linear phase ramp across subcarriers and
leaves magnitudes untouched, which is why energy detection shrugs it off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def sample_channel(
    num_devices: int,
    num_symbols: int,
    num_subcarriers: int,
    config: ChannelConfig,
    frame_rngs,
) -> np.ndarray:
    """Complex per-device gains (frames, devices, symbols, subcarriers),
    timing ramps included, one frame per generator in `frame_rngs`.

    Gains are i.i.d. circularly-symmetric complex Gaussian with unit
    mean-square magnitude; per_frame fading reuses one gain per device
    across the whole frame, "none" pins every gain to 1 for ideal-channel
    runs.  Timing offsets are uniform in [0, sync_error_max], and each
    device's gains are rotated by exp(-j*2*pi*l*offset/fft_size) along the
    subcarrier axis l, which leaves magnitudes unchanged.
    """
    if num_devices < 0 or num_symbols < 1 or num_subcarriers < 1:
        raise ValueError("dimensions must be positive")
    shape = (num_devices, num_symbols, num_subcarriers)
    coeff = np.empty((len(frame_rngs),) + shape, dtype=np.complex128)
    offsets = np.empty((len(frame_rngs), num_devices))
    # Real parts are drawn before imaginary parts, one gain per bin or one
    # per device for per_frame fading.
    draw = shape if config.fading == "per_bin" else (num_devices, 1, 1)
    for frame, rng in enumerate(frame_rngs):
        if config.fading != "none":
            coeff[frame].real = rng.standard_normal(draw)
            coeff[frame].imag = rng.standard_normal(draw)
        offsets[frame] = rng.uniform(0.0, config.sync_error_max, size=num_devices)
    if config.fading == "none":
        coeff.fill(1.0)
    else:
        coeff /= np.sqrt(2.0)
    if offsets.any():  # with every offset 0 the ramp is exactly 1
        l = np.arange(num_subcarriers)
        phase = -2.0 * np.pi * (offsets[..., None] * l) / config.fft_size
        # Out of place on purpose: `*=` raised a round's peak RSS by 8 MB.
        coeff = coeff * np.exp(1j * phase)[..., None, :]
    return coeff


def superpose(frames, powers, gains, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Received frames: sum over devices of sqrt(power) * gain * transmitted
    bin, plus complex Gaussian noise of total variance noise_var; `gains`
    comes from sample_channel.

    `frames` is (frames, devices, symbols, subcarriers), giving one received
    (symbols, subcarriers) frame per leading index; each draws its noise,
    real parts first, from its own generator in `frame_rngs`.
    """
    frames = np.asarray(frames, dtype=np.complex128)
    if frames.ndim != 4:
        raise ValueError("frames must be stacked as (frames, devices, symbols, subcarriers)")
    powers = np.asarray(powers, dtype=np.float64)
    if frames.shape != gains.shape:
        raise ValueError(f"frames shape {frames.shape} does not match channel shape {gains.shape}")
    if powers.shape != (frames.shape[1],):
        raise ValueError(f"{powers.size} powers for {frames.shape[1]} devices")
    if len(frame_rngs) != frames.shape[0]:
        raise ValueError(f"{len(frame_rngs)} noise generators for frames of shape {frames.shape}")
    weighted = np.sqrt(powers)[:, None, None] * gains
    weighted *= frames
    received = weighted.sum(axis=1)
    if config.noise_var > 0:
        scale = np.sqrt(config.noise_var / 2.0)
        for frame, rng in zip(received, frame_rngs):
            frame += scale * (rng.standard_normal(frame.shape) + 1j * rng.standard_normal(frame.shape))
    return received
