"""Rayleigh fading, timing-offset phase ramps, and multi-device superposition.

The uplink is modeled directly in the frequency domain: each (symbol,
subcarrier) bin is one scalar complex observation.  Only the coordinates'
paired bins are simulated, and each device only on the bin it lights.  A
timing offset inside the cyclic prefix shows up as a linear phase ramp
across subcarriers and leaves magnitudes untouched, which is why energy
detection shrugs it off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phy import FFT_SIZE, SYMBOL_ENERGY, lit_subcarriers

FADING_MODES = ("per_bin", "per_frame", "none")
NOISE_VAR_MAX = 1e300  # largest noise_var: far below the 1.8e308 where a bin's |r|^2 overflows
_HALF_ROOT = 1.0 / np.sqrt(2.0)  # not np.sqrt(0.5), 1 ulp larger: the pinned gains use this one

# exp(j*theta) = node k times a series in d (Tang's table-driven method), theta = k*step + d,
# step = 2*pi/256 = hi + lo: hi's 43 significant bits make k*hi exact for |theta| <= 4*pi.  lo adds
# (2*pi - fl(2*pi)) / 256: without it most phasors' last bit moves, which the 4-ulp bound cannot see.
_STEP = 2.0 * np.pi / 256
_STEP_HI = float(np.ldexp(np.rint(np.ldexp(_STEP, 48)), -48))
_STEP_LO = (_STEP - _STEP_HI) + 2.4492935982947064e-16 / 256
_NODES = np.exp(1j * (_STEP_HI * np.arange(256))) * (1.0 + 1j * (_STEP_LO * np.arange(256)))
_TABLE = np.stack([_NODES.real, _NODES.imag])  # real and imaginary planes of the 256 nodes
_PHASOR_CHUNK = 4096  # elements, in whole rows: a chunk's 32 KiB temporaries stay below glibc's heap trim threshold


@dataclass
class ChannelConfig:
    noise_var: float = 1.0        # total complex noise variance per bin
    sync_error_max: float = 0.0   # timing offset bound, in FFT samples
    fading: str = "per_bin"

    def __post_init__(self):
        if not 0.0 <= self.noise_var <= NOISE_VAR_MAX:
            raise ValueError(f"noise_var must be finite, >= 0 and <= {NOISE_VAR_MAX:g}")
        if not 0.0 <= self.sync_error_max < 1.0:
            raise ValueError("sync_error_max must lie in [0, 1)")
        if self.fading not in FADING_MODES:
            raise ValueError(f"fading must be one of {FADING_MODES}")


def _unit_phasors(theta, gains, out) -> None:
    """`gains` (2, rows, columns or 1) times exp(j*theta), for 2-D `theta`, into the planes `out[0]`
    (real) and `out[1]` (imaginary), in real products: numpy's complex product and abs round by SIMD
    level.  exp(j*theta) is within 4 * 2**-52 of np.exp(1j * theta) for |theta| <= 4*pi, exactly 1 at 0."""
    rows = max(1, _PHASOR_CHUNK // max(theta.shape[1], 1))
    for lo in range(0, len(theta), rows):
        angle, (gain_re, gain_im) = theta[lo:lo + rows], gains[:, lo:lo + rows]
        k = np.rint(angle * (1.0 / _STEP))
        d = angle - k * _STEP_HI - k * _STEP_LO
        d2 = d * d
        cos = 1.0 + d2 * (-1 / 2 + d2 * (1 / 24 + d2 * (-1 / 720)))  # d**8 / 8! < 1.3e-20 for |d| <= pi/256
        sin = d * (1.0 + d2 * (-1 / 6 + d2 * (1 / 120)))  # d**7 / 7! < 8.3e-18
        node_re, node_im = np.take(_TABLE, k.astype(np.intp) & 255, axis=1)  # k mod 256
        re, im = node_re * cos - node_im * sin, node_re * sin + node_im * cos
        np.subtract(gain_re * re, gain_im * im, out=out[0, lo:lo + rows])
        np.add(gain_re * im, gain_im * re, out=out[1, lo:lo + rows])


def sample_channel(signs, phases, num_subcarriers: int, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Each device's unit symbol exp(j*phi) (`_unit_phasors`) as the
    receiver sees it on the bin its sign lights: real and imaginary float64
    planes (2, frames, devices, coordinates), one frame per generator in
    `frame_rngs`, for the float64 `phases` phi of `phy.encode_signs`, which
    are left as they are.

    The symbol is multiplied by the bin's gain, i.i.d. circularly-symmetric
    complex Gaussian with unit mean-square magnitude; per_frame fading
    reuses one gain per device across the whole frame, "none" multiplies by
    the unit gain 1 + 0j on the same path, exactly.  Timing offsets are
    uniform in [0, sync_error_max], and rotate the symbol by
    exp(-j*2*pi*l*offset/FFT_SIZE) on its lit subcarrier l
    (`phy.lit_subcarriers` of a frame of `num_subcarriers`), which leaves
    magnitudes unchanged.  Only lit bins are drawn: the paired bins carry
    nothing from the device.

    Frame f's generator draws the real parts of its gains, then their
    imaginary parts (one per device and coordinate, or one per device for
    per_frame fading, none for "none"), then one offset per device.
    """
    signs, phases = np.asarray(signs), np.asarray(phases)
    if signs.ndim != 3 or phases.shape != signs.shape:
        raise ValueError(f"phases of shape {phases.shape} for signs of shape {signs.shape}; "
                         "expected (frames, devices, coordinates) for both")
    if phases.dtype != np.float64:
        raise ValueError(f"phases must be real float64, not {phases.dtype}")
    num_frames, num_devices, num_coordinates = signs.shape
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} channel generators for {num_frames} frames")
    unit = np.broadcast_to([[[1.0]], [[0.0]]], (2, num_devices, 1))  # 1*re - 0*im = re
    drawn = np.empty((2, num_devices, num_coordinates if config.fading == "per_bin" else 1))
    faded = np.empty((2, *signs.shape))
    for planes, theta, frame_signs, rng in zip(faded.swapaxes(0, 1), phases, signs, frame_rngs):
        gains = unit if config.fading == "none" else np.multiply(
            rng.standard_normal(out=drawn), _HALF_ROOT, out=drawn)  # in place: one buffer for every frame
        offsets = rng.uniform(0.0, config.sync_error_max, size=num_devices)
        if offsets.any():  # with every offset 0 the ramp is exactly 1
            slopes = (-2.0 * np.pi / FFT_SIZE) * offsets
            theta = theta + slopes[:, None] * lit_subcarriers(frame_signs, num_subcarriers)
        _unit_phasors(theta, gains, planes)  # one phasor per lit bin: symbol phase plus timing ramp
    return faded


def check_powers(powers, num_devices: int) -> np.ndarray:
    """`powers` as float64, one per device, each finite and >= 0 (all 0 is allowed)."""
    powers = np.asarray(powers, dtype=np.float64)
    if powers.shape != (num_devices,):
        raise ValueError(f"{powers.size} powers for {num_devices} devices")
    if not np.all((powers >= 0) & (powers < np.inf)):
        raise ValueError("powers must be finite and >= 0")
    return powers


def superpose(signs, faded, powers, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Received plus and minus bins, (frames, 2, coordinates) complex: on
    each bin the sum over the devices that light it of sqrt(power *
    SYMBOL_ENERGY) times their symbol, plane by plane of sample_channel's
    `faded`, plus complex Gaussian noise of total variance noise_var.

    Frame f's generator draws the noise of its 2 x coordinates bins, real
    parts first, plus bins before minus bins.
    """
    signs, faded = np.asarray(signs), np.asarray(faded)
    if signs.ndim != 3 or faded.shape != (2, *signs.shape):
        raise ValueError(f"faded symbols of shape {faded.shape} for signs of shape {signs.shape}; "
                         "expected (2, frames, devices, coordinates) and (frames, devices, coordinates)")
    num_frames, num_devices, num_coordinates = signs.shape
    powers = check_powers(powers, num_devices)
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} noise generators for {num_frames} frames")
    amplitudes = np.sqrt(SYMBOL_ENERGY * powers)[:, None]
    on_minus = amplitudes * (signs < 0)  # 0 where the device lights the plus bin
    received = np.empty((num_frames, 2, num_coordinates), dtype=np.complex128)
    for side, weights in enumerate((amplitudes - on_minus, on_minus)):
        # Sum over devices of weight x symbol, real and imaginary planes alike: a masked complex sum is 3x slower.
        received[:, side].real = np.einsum("fdc,fdc->fc", faded[0], weights)
        received[:, side].imag = np.einsum("fdc,fdc->fc", faded[1], weights)
    scale = np.sqrt(config.noise_var / 2.0)
    for bins, rng in zip(received, frame_rngs):
        bins.real += scale * rng.standard_normal(bins.shape)
        bins.imag += scale * rng.standard_normal(bins.shape)
    return received
