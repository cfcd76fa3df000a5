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


@dataclass
class ChannelRealization:
    """Per-device complex gains (devices x symbols x subcarriers) plus
    per-device timing offsets, optionally stacked on a leading frame axis."""

    coefficients: np.ndarray
    timing_offsets: np.ndarray


def sample_channel(
    num_devices: int,
    num_symbols: int,
    num_subcarriers: int,
    config: ChannelConfig,
    seed=None,
    frame_rngs=None,
) -> ChannelRealization:
    """Draw i.i.d. circularly-symmetric complex Gaussian gains with unit
    mean-square magnitude, plus uniform timing offsets in [0, sync_error_max].

    per_frame fading reuses one gain per device across the whole frame;
    "none" pins every gain to 1 for ideal-channel runs.  With `frame_rngs`,
    one realization per generator is stacked on a leading frame axis, each
    drawn exactly as a call with that generator as `seed` draws it.
    """
    if num_devices < 0 or num_symbols < 1 or num_subcarriers < 1:
        raise ValueError("dimensions must be positive")
    rngs = [np.random.default_rng(seed)] if frame_rngs is None else frame_rngs
    shape = (num_devices, num_symbols, num_subcarriers)
    coeff = np.empty((len(rngs),) + shape, dtype=np.complex128)
    offsets = np.empty((len(rngs), num_devices))
    # Real parts are drawn before imaginary parts, one gain per bin or one
    # per device for per_frame fading.
    draw = shape if config.fading == "per_bin" else (num_devices, 1, 1)
    for frame, rng in enumerate(rngs):
        if config.fading != "none":
            coeff[frame].real = rng.standard_normal(draw)
            coeff[frame].imag = rng.standard_normal(draw)
        offsets[frame] = rng.uniform(0.0, config.sync_error_max, size=num_devices)
    if config.fading == "none":
        coeff.fill(1.0)
    else:
        coeff /= np.sqrt(2.0)
    if frame_rngs is None:
        return ChannelRealization(coeff[0], offsets[0])
    return ChannelRealization(coeff, offsets)


def apply_sync_error(realization: ChannelRealization, config: ChannelConfig) -> ChannelRealization:
    """Rotate each device's gains by exp(-j*2*pi*l*offset/fft_size) along the
    subcarrier axis l; magnitudes are unchanged."""
    if not realization.timing_offsets.any():
        return realization  # the ramp is exactly 1 everywhere
    l = np.arange(realization.coefficients.shape[-1])
    phase = -2.0 * np.pi * (realization.timing_offsets[..., None] * l) / config.fft_size
    ramp = np.exp(1j * phase)[..., None, :]
    return ChannelRealization(realization.coefficients * ramp, realization.timing_offsets)


def superpose(frames, powers, realization: ChannelRealization, config: ChannelConfig,
              seed=None, frame_rngs=None) -> np.ndarray:
    """Received frame: sum over devices of sqrt(power) * gain * transmitted
    bin, plus complex Gaussian noise of total variance noise_var.

    `frames` is (devices, symbols, subcarriers), or (frames, devices,
    symbols, subcarriers) with one received frame per leading index.  Each
    received frame draws its noise, real parts first, from `seed`, one
    generator shared by the frames in order, or from its own generator in
    `frame_rngs`.
    """
    frames = np.asarray(frames, dtype=np.complex128)
    if frames.ndim not in (3, 4):
        raise ValueError("frames must be stacked as ([frames,] devices, symbols, subcarriers)")
    powers = np.asarray(powers, dtype=np.float64)
    if frames.shape != realization.coefficients.shape:
        raise ValueError(
            f"frames shape {frames.shape} does not match channel shape "
            f"{realization.coefficients.shape}"
        )
    if powers.shape != (frames.shape[-3],):
        raise ValueError(f"{powers.size} powers for {frames.shape[-3]} devices")
    if frame_rngs is not None and (frames.ndim != 4 or len(frame_rngs) != frames.shape[0]):
        raise ValueError(f"{len(frame_rngs)} noise generators for frames of shape {frames.shape}")
    weighted = np.sqrt(powers)[:, None, None] * realization.coefficients
    weighted *= frames
    received = weighted.sum(axis=-3)
    if config.noise_var > 0:
        scale = np.sqrt(config.noise_var / 2.0)
        received_frames = received.reshape((-1,) + received.shape[-2:])
        if frame_rngs is None:
            frame_rngs = [np.random.default_rng(seed)] * len(received_frames)
        for frame, rng in zip(received_frames, frame_rngs):
            frame += scale * (rng.standard_normal(frame.shape) + 1j * rng.standard_normal(frame.shape))
    return received
