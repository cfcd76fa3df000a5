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
_TABLE = np.exp(1j * (_STEP_HI * np.arange(256))) * (1.0 + 1j * (_STEP_LO * np.arange(256)))
_PHASOR_CHUNK = 4096  # elements: a chunk's ~10 live 32 KiB temporaries stay below glibc's heap trim threshold


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


def _unit_phasors(theta, out) -> None:
    """exp(j*theta) into `out` (complex, C-contiguous, `theta`'s shape), within 4 * 2**-52 of
    np.exp(1j * theta) for |theta| <= 4*pi, exactly 1 at 0."""
    theta, flat = theta.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _PHASOR_CHUNK):
        angle = theta[lo:lo + _PHASOR_CHUNK]
        k = np.rint(angle * (1.0 / _STEP))
        d = angle - k * _STEP_HI - k * _STEP_LO
        d2 = d * d
        cos = 1.0 + d2 * (-1 / 2 + d2 * (1 / 24 + d2 * (-1 / 720)))  # d**8 / 8! < 1.3e-20 for |d| <= pi/256
        sin = d * (1.0 + d2 * (-1 / 6 + d2 * (1 / 120 + d2 * (-1 / 5040))))
        node = _TABLE[k.astype(np.intp) & 255]  # k mod 256
        # Real products: numpy's SIMD complex product fuses roundings that its scalar loop keeps.
        flat.real[lo:lo + _PHASOR_CHUNK] = node.real * cos - node.imag * sin
        flat.imag[lo:lo + _PHASOR_CHUNK] = node.real * sin + node.imag * cos


def sample_channel(signs, phases, num_subcarriers: int, config: ChannelConfig, frame_rngs) -> np.ndarray:
    """Each device's unit symbol exp(j*phi) (`_unit_phasors`) as the
    receiver sees it on the bin its sign lights: (frames, devices,
    coordinates) complex, one frame per generator in `frame_rngs`, for the
    float64 `phases` phi of `phy.encode_signs`, which are left as they are.

    The symbol is multiplied by the bin's gain, i.i.d. circularly-symmetric
    complex Gaussian with unit mean-square magnitude; per_frame fading
    reuses one gain per device across the whole frame, "none" pins every
    gain to 1 for ideal-channel runs.  Timing offsets are uniform in [0,
    sync_error_max], and rotate the symbol by exp(-j*2*pi*l*offset/FFT_SIZE)
    on its lit subcarrier l (`phy.lit_subcarriers` of a frame of
    `num_subcarriers`), which leaves magnitudes unchanged.  Only lit
    bins are drawn: the paired bins carry nothing from the device.

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
        raise ValueError(f"{len(frame_rngs)} channel generators for signs of shape {signs.shape}")
    draw = (num_devices, num_coordinates) if config.fading == "per_bin" else (num_devices, 1)
    # One unit phasor per lit bin carries the symbol phase and the timing ramp.
    faded = np.empty(signs.shape, dtype=np.complex128)
    gains = np.empty(draw, dtype=np.complex128)
    for symbols, theta, frame_signs, rng in zip(faded, phases, signs, frame_rngs):
        if config.fading != "none":
            np.multiply(rng.standard_normal(draw), _HALF_ROOT, out=gains.real)
            np.multiply(rng.standard_normal(draw), _HALF_ROOT, out=gains.imag)
        offsets = rng.uniform(0.0, config.sync_error_max, size=num_devices)
        if offsets.any():  # with every offset 0 the ramp is exactly 1
            slopes = (-2.0 * np.pi / FFT_SIZE) * offsets
            theta = theta + slopes[:, None] * lit_subcarriers(frame_signs, num_subcarriers)
        _unit_phasors(theta, symbols)
        if config.fading != "none":
            symbols *= gains
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
    powers = check_powers(powers, num_devices)
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} noise generators for signs of shape {signs.shape}")
    amplitudes = np.sqrt(SYMBOL_ENERGY * powers)[:, None]
    on_minus = amplitudes * (signs < 0)  # 0 where the device lights the plus bin
    received = np.empty((num_frames, 2, num_coordinates), dtype=np.complex128)
    for side, weights in enumerate((amplitudes - on_minus, on_minus)):
        # Sum over devices of weight x symbol, real and imaginary planes alike: a masked complex sum is 3x slower.
        received[:, side].real = np.einsum("fdc,fdc->fc", faded.real, weights)
        received[:, side].imag = np.einsum("fdc,fdc->fc", faded.imag, weights)
    scale = np.sqrt(config.noise_var / 2.0)
    for bins, rng in zip(received, frame_rngs):
        bins.real += scale * rng.standard_normal(bins.shape)
        bins.imag += scale * rng.standard_normal(bins.shape)
    return received
