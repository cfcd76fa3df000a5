"""Closed-form performance bounds and the Monte Carlo oracles that check them.

The bound evaluators are plain formulas.  Each Monte Carlo routine drives
the production encode/superpose/detect pipeline (or a direct simulation of
mini-batch gradient noise) so that every formula is tested against an
independent path, never against itself.

Notation used throughout: `snr` is the ratio of per-vote received energy
scale to noise variance (symbol_energy * mean transmit power / noise_var);
`grad_snr` is sqrt(batch_size) * |gradient| / gradient_std, the odds that a
mini batch reproduces the true gradient sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import ChannelConfig, sample_channel, superpose
from .detector import DetectionResult, detect
from .phy import SYMBOL_ENERGY, PhyConfig, encode_signs


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def mean_energy(active_devices: int, symbol_energy: float, mean_tx_power: float, noise_var: float) -> float:
    """Expected bin energy when `active_devices` transmitters hit the bin:
    symbol_energy * active_devices * mean_tx_power + noise_var."""
    if active_devices < 0 or symbol_energy < 0 or mean_tx_power < 0 or noise_var < 0:
        raise ValueError("mean_energy arguments must be nonnegative")
    return symbol_energy * active_devices * mean_tx_power + noise_var


def failure_prob_bound(grad_snr: float) -> float:
    """Tail bound on a single device flipping its gradient sign.

    Unimodal symmetric gradient noise admits the two-branch Gauss
    inequality: (2/9)/grad_snr^2 in the far tail, a linear bound otherwise.
    Always below 1/2 for positive grad_snr.
    """
    if grad_snr <= 0:
        raise ValueError("grad_snr must be positive")
    if grad_snr > 2.0 / math.sqrt(3.0):
        return (2.0 / 9.0) / grad_snr**2
    return 0.5 - grad_snr / (2.0 * math.sqrt(3.0))


def _with_noise(signal: float, total: float, snr: float) -> float:
    """(signal + 1/snr) / (total + 2/snr).  Below snr 1 both terms are
    multiplied through by snr, so neither 1/snr nor snr*total overflows: a
    subnormal snr gives 1/2, an infinite one signal/total."""
    if snr >= 1.0:
        return (signal + 1.0 / snr) / (total + 2.0 / snr)
    return (signal * snr + 1.0) / (total * snr + 2.0)


def error_prob_bound(num_devices: int, snr: float, grad_snr: float) -> float:
    """Upper bound on the majority-vote sign being detected wrongly,
    combining per-device flip odds (via grad_snr) with channel noise."""
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if snr <= 0 or grad_snr <= 0:
        raise ValueError("snr and grad_snr must be positive")
    return _with_noise((num_devices / 2.0) * math.sqrt(2.0) / (3.0 * grad_snr), num_devices, snr)


def error_prob_intermediate_bound(num_devices: int, snr: float, flip_prob: float) -> float:
    """Tighter variant of error_prob_bound written directly in the
    per-device flip probability q: (K*q*(1-q) + 1/snr) / (K + 2/snr).

    Note this target attenuates the vote-count term by (1-q); the physical
    detector has no such attenuation (see exact_error_prob), so for q above
    roughly 0.1 the simulated error rate exceeds this expression.
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if snr <= 0:
        raise ValueError("snr must be positive")
    if not 0.0 < flip_prob < 0.5:
        raise ValueError("flip_prob must lie in (0, 1/2)")
    q = flip_prob
    return _with_noise(num_devices * q * (1.0 - q), num_devices, snr)


def exact_error_prob_weighted(powers, flip_probs, snr: float) -> float:
    """Exact misdetection probability of the energy detector with per-device
    powers p_m and flip rates q_m: (sum p_m*q_m + 1/snr) / (sum p_m + 2/snr),
    where snr = symbol_energy / noise_var is that of a unit-power device.

    Both bin energies are exponential (Rayleigh fading per bin) with means
    linear in the powers of the devices voting for the bin, plus noise_var,
    and for independent exponentials P[wrong bin wins] = mean_wrong /
    (mean_plus + mean_minus).  The denominator does not depend on the vote
    split, so the expectation over independent flips is exact.  Flip rates
    above 1/2 (devices that oppose the true sign) are covered too.
    """
    powers = np.asarray(powers, dtype=np.float64)
    flip_probs = np.asarray(flip_probs, dtype=np.float64)
    if powers.ndim != 1 or powers.size < 1 or flip_probs.shape != powers.shape:
        raise ValueError("powers and flip_probs must be equal-length 1-D sequences")
    if not (np.all(np.isfinite(powers)) and np.all(powers >= 0) and powers.sum() > 0):
        raise ValueError("powers must be finite and >= 0, with a positive sum")
    if not np.all((flip_probs >= 0) & (flip_probs <= 1)):
        raise ValueError("flip_probs must lie in [0, 1]")
    if not snr > 0:
        raise ValueError("snr must be positive")
    return _with_noise(float(powers @ flip_probs), float(powers.sum()), snr)


def exact_error_prob(num_devices: int, snr: float, flip_prob: float) -> float:
    """Exact misdetection probability of the constant-power energy detector:
    (K*q + 1/snr) / (K + 2/snr), exact_error_prob_weighted at K unit powers
    and one common flip rate q.  The weighted law sees the powers only
    through sum p_m and sum p_m*q_m, so it is evaluated as one device of
    power K, which keeps K*q exact."""
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    if not 0.0 < flip_prob < 0.5:
        raise ValueError("flip_prob must lie in (0, 1/2)")
    return exact_error_prob_weighted([num_devices], [flip_prob], snr)


@dataclass
class BoundParams:
    """Inputs of the convergence-rate evaluator; `gamma` is the ratio of
    total rounds to batch size."""

    num_devices: int
    snr: float
    rounds: int
    gamma: float = 1.0
    smoothness_l1: float = 1.0   # sum of per-coordinate smoothness constants
    sigma_l1: float = 1.0        # sum of per-coordinate gradient-noise scales
    loss_gap: float = 1.0        # initial loss minus its lower bound
    batch_size: int | None = None

    def __post_init__(self):
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        for name in ("snr", "gamma", "smoothness_l1", "sigma_l1", "loss_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def convergence_tau(num_devices: int, snr: float, gamma: float) -> float:
    """Channel penalty factor (1 + 2/(snr*K)) / sqrt(gamma); approaches
    1/sqrt(gamma) as the channel gets clean or the cohort grows."""
    if num_devices < 1 or snr <= 0 or gamma <= 0:
        raise ValueError("num_devices, snr and gamma must be positive")
    return (1.0 + 2.0 / (snr * num_devices)) / math.sqrt(gamma)


def convergence_bound(params: BoundParams, strict_derivation: bool = False) -> float:
    """Bound on the running mean L1 gradient norm after `rounds` rounds.

    strict_derivation divides the trailing gradient-noise term by
    sqrt(batch_size), the extra factor the telescoped per-round analysis
    carries before simplification; off by default.
    """
    tau = convergence_tau(params.num_devices, params.snr, params.gamma)
    trailing = (2.0 * math.sqrt(2.0) / 6.0) * math.sqrt(params.gamma) * params.sigma_l1
    if strict_derivation:
        if params.batch_size is None:
            raise ValueError("strict_derivation requires batch_size")
        trailing /= math.sqrt(params.batch_size)
    main = tau * math.sqrt(params.smoothness_l1) * (params.loss_gap + params.gamma / 2.0)
    return (main + trailing) / math.sqrt(params.rounds)


COMM_SCHEMES = ("sgd", "qsgd", "terngrad", "signsgd_mv")


def comm_cost(scheme: str, num_devices: int, model_dim: int) -> int:
    """Uplink bits per round for a cohort of num_devices training a
    model_dim-parameter model."""
    if num_devices < 1 or model_dim < 1:
        raise ValueError("num_devices and model_dim must be >= 1")
    if scheme == "sgd":
        return 64 * num_devices * model_dim
    if scheme in ("qsgd", "terngrad"):
        bits_per_coord = 2.0 + math.log2(2 * num_devices + 1)
        return math.ceil(bits_per_coord * num_devices * model_dim)
    if scheme == "signsgd_mv":
        return 2 * num_devices * model_dim
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {COMM_SCHEMES}")


# ---------------------------------------------------------------------------
# Over-the-air kernel, shared by the round loop and the oracles
# ---------------------------------------------------------------------------

# Most bytes a step of any batched loop (`blocks`) holds: two 31-device oracle
# frames of the kernel's complex arrays (1,024 coordinates, 0.48 MiB each), or
# five of the 19 frames of 416 coordinates a 7,850-parameter round sends.
# Larger blocks only raise peak memory; an oracle call of one kernel block
# costs heap page faults (see _oracle_detect).
BLOCK_BYTES = 2**20


def blocks(count: int, item_bytes: int) -> list[tuple[int, int]]:
    """In-order (lo, hi) ranges of `count` items, each within BLOCK_BYTES or of one item."""
    step = max(1, BLOCK_BYTES // max(item_bytes, 1))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def air_detect(signs, powers, phy: PhyConfig, channel: ChannelConfig,
               device_rngs, frame_rngs) -> DetectionResult:
    """Detection of every device's row of sign votes sent over the uplink.

    `signs` is (devices, coordinates).  The rows are cut into frames of
    phy.frame_coordinates, the last padded with +1 votes.  Every device's
    symbol on the bin its sign lights is faded by its own gain and timing
    ramp, the symbols are summed onto each coordinate's plus and minus bins
    with noise, and the bins are detected; the result holds (coordinates,)
    arrays, the padding dropped.  `device_rngs` holds one generator per
    device, drawing that device's symbol phases frame after frame;
    `frame_rngs` holds one generator per frame, drawing its channel and then
    its noise.  Frames go through in blocks whose complex arrays stay within
    BLOCK_BYTES; since every generator belongs to one device or one frame,
    and no coordinate's result depends on another's sign, neither the block
    size nor the padding can change the result.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValueError(f"signs of shape {signs.shape}; expected (devices, coordinates)")
    num_devices, num_coordinates = signs.shape
    per_frame = phy.frame_coordinates
    num_frames = -(-num_coordinates // per_frame)
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} frame generators for {num_coordinates} coordinates "
                         f"in frames of {per_frame}")
    frame_bytes = num_devices * per_frame * np.dtype(np.complex128).itemsize
    parts = []
    for lo, hi in blocks(num_frames, frame_bytes):
        # a padded copy per block, not of every row at once: peak memory
        block_signs = np.ones((num_devices, (hi - lo) * per_frame), dtype=signs.dtype)
        sent = signs[:, lo * per_frame:hi * per_frame]
        block_signs[:, :sent.shape[1]] = sent
        block_signs = block_signs.reshape(num_devices, hi - lo, per_frame).transpose(1, 0, 2)
        block_rngs = frame_rngs[lo:hi]
        exponents = encode_signs(block_signs, device_rngs)
        faded = sample_channel(block_signs, exponents, phy.num_subcarriers, channel, block_rngs)
        result = detect(superpose(block_signs, faded, powers, channel, block_rngs))
        parts.append((result.e_plus, result.e_minus, result.votes))
    return DetectionResult(*(np.concatenate(field, axis=None)[:num_coordinates] for field in zip(*parts)))


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------

_ORACLE_PHY = PhyConfig(num_subcarriers=64, num_symbols=32)  # 1024 coordinates per frame


def _oracle_detect(sign_sampler, powers, noise_var: float, trials: int, seed):
    """`trials` single-coordinate experiments over Rayleigh per-bin fading,
    yielded in trial order, one DetectionResult per air_detect call.  `seed`
    spawns one generator per device (randomization symbols), carried across
    calls, then, call by call, one per oracle frame: its int8 (devices, frame
    coordinates) signs from `sign_sampler(rng, shape)`, then its channel and
    noise; so no draw depends on the call size.  The last frame's signs past
    `trials` are drawn but not sent.  A call's signs and results (K + 17 bytes
    a trial) fill BLOCK_BYTES, about ten kernel blocks at K = 31: a call per
    kernel block had glibc trim and re-fault the heap top (7x faults, +10% time)."""
    seeds = np.random.SeedSequence(seed)
    device_rngs = [np.random.default_rng(s) for s in seeds.spawn(len(powers))]
    per_frame = _ORACLE_PHY.frame_coordinates
    channel = ChannelConfig(noise_var=noise_var, fading="per_bin")
    for lo, hi in blocks(-(-trials // per_frame), per_frame * (len(powers) + 17)):
        frame_rngs = [np.random.default_rng(s) for s in seeds.spawn(hi - lo)]
        signs = np.concatenate([sign_sampler(rng, (len(powers), per_frame)) for rng in frame_rngs], axis=1)
        yield air_detect(signs[:, :trials - lo * per_frame], powers, _ORACLE_PHY, channel, device_rngs, frame_rngs)


def _binomial(hits: int, trials: int) -> tuple[float, float]:
    """Frequency of `hits` in `trials` with its binomial standard error."""
    return (estimate := hits / trials), math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / trials)


def mc_mean_energy(active_devices: int, mean_tx_power: float, noise_var: float, trials: int, seed) -> float:
    """Empirical mean bin energy from the full encode/fade/superpose path.

    All devices vote +1 at power mean_tx_power, so every trial's plus-bin
    takes the whole cohort; summing frame by frame keeps its bits call-size free.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    powers = np.full(active_devices, mean_tx_power)
    results = _oracle_detect(lambda rng, shape: np.ones(shape, np.int8), powers, noise_var, trials, seed)
    sums = (np.add.reduceat(r.e_plus, range(0, r.e_plus.size, _ORACLE_PHY.frame_coordinates)) for r in results)
    return float(sum(frame_sum for call in sums for frame_sum in call)) / trials


def mc_flip_prob(grad_mean: float, grad_std: float, batch_size: int, trials: int, seed) -> tuple[float, float]:
    """Frequency of a mini-batch mean gradient flipping the true sign,
    with its binomial standard error.

    Simulates batch_size unit draws per trial, N(grad_mean, grad_std^2),
    and counts batches whose mean disagrees in sign with grad_mean (zero
    counts as +1, matching the quantizer).
    """
    if grad_mean == 0 or grad_std <= 0 or batch_size < 1 or trials < 1:
        raise ValueError("grad_mean must be nonzero; grad_std, batch_size, trials positive")
    rng = np.random.default_rng(seed)
    flips = 0
    for lo, hi in blocks(trials, batch_size * np.dtype(np.float64).itemsize):
        draws = grad_mean + grad_std * rng.standard_normal((hi - lo, batch_size))
        means = draws.mean(axis=1)
        flips += int(np.sum((means < 0) != (grad_mean < 0)))
    return _binomial(flips, trials)


# Fewest trials an error-probability estimate accepts.
MC_ERROR_PROB_MIN_TRIALS = 1000


def mc_error_prob(num_devices: int, flip_prob: float, snr: float, trials: int, seed) -> tuple[float, float]:
    """Monte Carlo majority-vote error rate with i.i.d. per-device sign
    flips at probability flip_prob, plus binomial standard error.

    Detected votes are compared with a true sign of +1, through the real
    pipeline with Rayleigh fading per bin, fresh randomization, unit powers,
    and noise_var = symbol_energy / snr.  Only the snr matters for the
    detection statistics (scaling signal and noise together never changes an
    energy comparison), so fixing unit powers loses nothing.
    """
    if not 0.0 < flip_prob < 0.5:
        raise ValueError("flip_prob must lie in (0, 1/2)")
    if num_devices < 1 or snr <= 0:
        raise ValueError("num_devices and snr must be positive")
    if trials < MC_ERROR_PROB_MIN_TRIALS:
        raise ValueError(f"trials must be >= {MC_ERROR_PROB_MIN_TRIALS}")

    def sampler(rng, shape):
        return np.where(rng.random(shape) < flip_prob, np.int8(-1), np.int8(1))

    results = _oracle_detect(sampler, np.ones(num_devices), SYMBOL_ENERGY / snr, trials, seed)
    return _binomial(sum(int(np.sum(result.votes != 1)) for result in results), trials)


# ---------------------------------------------------------------------------
# Verification suites (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

MEAN_ENERGY_GRID = {
    "active_devices": (0, 1, 2, 5, 15, 31),
    "mean_tx_power": (1.0, 1.5, 3.0),
    "noise_var": (0.1, 1.0),
}
MEAN_ENERGY_RELATIVE_TOL = 0.02

FLIP_PROB_GRID = (0.2, 0.5, 1.0, 1.155, 2.0, 5.0, 20.0)

ERROR_PROB_GRID = {
    "num_devices": (5, 15, 31),
    "snr": (0.5, 2.0, 8.0),
    "flip_prob": (0.05, 0.2, 0.4),
}


def run_mean_energy_suite(trials: int = 100_000, seed: int = 0) -> list[dict]:
    """Grid comparison of simulated vs. predicted mean bin energy."""
    rows = []
    for devices in MEAN_ENERGY_GRID["active_devices"]:
        for power in MEAN_ENERGY_GRID["mean_tx_power"]:
            for noise in MEAN_ENERGY_GRID["noise_var"]:
                predicted = mean_energy(devices, SYMBOL_ENERGY, power, noise)
                estimate = mc_mean_energy(
                    devices, power, noise, trials,
                    seed=(seed, devices, int(power * 2), int(noise * 10)),
                )
                rel_err = abs(estimate - predicted) / predicted
                rows.append(
                    {
                        "active_devices": devices,
                        "mean_tx_power": power,
                        "noise_var": noise,
                        "predicted": predicted,
                        "estimate": estimate,
                        "rel_err": rel_err,
                        "passed": rel_err < MEAN_ENERGY_RELATIVE_TOL,
                    }
                )
    return rows


def run_flip_prob_suite(trials: int = 100_000, seed: int = 0) -> list[dict]:
    """Empirical sign-flip frequency vs. the unimodal-tail bound."""
    rows = []
    for grad_snr in FLIP_PROB_GRID:
        estimate, stderr = mc_flip_prob(grad_snr, 1.0, 1, trials, seed=(seed, int(grad_snr * 1000)))
        bound = failure_prob_bound(grad_snr)
        rows.append(
            {
                "grad_snr": grad_snr,
                "estimate": estimate,
                "stderr": stderr,
                "bound": bound,
                "passed": estimate <= bound + 3.0 * stderr,
            }
        )
    return rows


def run_error_prob_suite(trials: int = 10_000, seed: int = 0) -> list[dict]:
    """Simulated majority-vote error vs. the flip-probability comparison
    target and the always-below-one-half property.

    The `exact` column is the closed form the simulation must reproduce;
    `target` is the (1-q)-attenuated comparison expression, which the
    physical detector beats only at small q.
    """
    rows = []
    for devices in ERROR_PROB_GRID["num_devices"]:
        for snr in ERROR_PROB_GRID["snr"]:
            for q in ERROR_PROB_GRID["flip_prob"]:
                estimate, stderr = mc_error_prob(
                    devices, q, snr, trials, seed=(seed, devices, int(snr * 10), int(q * 100))
                )
                target = error_prob_intermediate_bound(devices, snr, q)
                rows.append(
                    {
                        "num_devices": devices,
                        "snr": snr,
                        "flip_prob": q,
                        "estimate": estimate,
                        "stderr": stderr,
                        "target": target,
                        "exact": exact_error_prob(devices, snr, q),
                        "below_half": estimate < 0.5,
                        "passed": estimate <= target + 3.0 * stderr,
                    }
                )
    return rows


def _cell(key: str, spec: str = "") -> Callable[[dict], str]:
    return lambda row: format(row[key], spec)


# How each suite is printed: (runner, title, columns).  The runner takes
# (trials, seed) and returns rows, the title takes the trial count, and each
# column is (header, cell text of a row).
SUITE_TABLES = {
    "mean-energy": (
        run_mean_energy_suite, "mean received bin energy vs closed form ({trials} trials)",
        (("devices", _cell("active_devices")), ("power", _cell("mean_tx_power", "g")),
         ("noise", _cell("noise_var", "g")), ("predicted", _cell("predicted", ".4f")),
         ("estimate", _cell("estimate", ".4f")), ("rel_err", _cell("rel_err", ".4%"))),
    ),
    "flip-prob": (
        run_flip_prob_suite, "sign-flip frequency vs unimodal tail bound ({trials} draws)",
        (("grad_snr", _cell("grad_snr", "g")), ("estimate", _cell("estimate", ".5f")),
         ("bound", _cell("bound", ".5f")),
         ("slack", lambda r: f"{r['bound'] + 3 * r['stderr'] - r['estimate']:+.5f}")),
    ),
    "error-prob": (
        run_error_prob_suite, "majority-vote error vs attenuated target ({trials} trials)",
        (("devices", _cell("num_devices")), ("snr", _cell("snr", "g")),
         ("flip", _cell("flip_prob", "g")), ("estimate", _cell("estimate", ".4f")),
         ("exact", _cell("exact", ".4f")), ("target", _cell("target", ".4f")),
         ("<1/2", lambda r: "yes" if r["below_half"] else "NO")),
    ),
}
