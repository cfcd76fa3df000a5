"""Closed-form performance bounds and the Monte Carlo oracles that check them.

The bound evaluators are plain formulas.  Each Monte Carlo routine drives
the production encode/superpose/detect pipeline (or a direct simulation of
mini-batch gradient noise) so that every formula is tested against an
independent path, never against itself.

Notation used throughout: `snr` is the ratio of per-vote received energy
scale to noise variance (SYMBOL_ENERGY * mean transmit power / noise_var);
`grad_snr` is sqrt(batch_size) * |gradient| / gradient_std, the odds that a
mini batch reproduces the true gradient sign.  Each Monte Carlo oracle
takes the arguments of the law it samples, then (trials, seed); the closed
forms `mean_energy` and `failure_prob_bound` take the same leading
arguments as their oracles.  Every closed form and oracle takes its inputs
as plain arguments and rejects a NaN or out-of-range one before any work,
in a message that names that one argument.  Each rule is stated once: an
oracle checks through the law it samples, and a comparison target through
the exact law it is compared with.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from typing import Callable

import numpy as np

from .channel import NOISE_VAR_MAX, ChannelConfig, check_powers, sample_channel, superpose
from .detector import DetectionResult, detect, sign_votes
from .phy import FFT_SIZE, SYMBOL_ENERGY, PhyConfig, encode_signs


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _positive(**values) -> None:
    """A ValueError naming the first of `values` that is not > 0 (NaN included)."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")


def _at_least(low, **values) -> None:
    """A ValueError naming the first of `values` not in [`low`, largest float] (NaN included)."""
    for name, value in values.items():
        if not low <= value <= sys.float_info.max:
            raise ValueError(f"{name} must be >= {low} and <= {sys.float_info.max:g}")


def mean_energy(active_devices: int, mean_tx_power: float, noise_var: float) -> float:
    """Expected bin energy when `active_devices` transmitters hit the bin:
    SYMBOL_ENERGY * active_devices * mean_tx_power + noise_var."""
    _at_least(0, active_devices=active_devices, mean_tx_power=mean_tx_power, noise_var=noise_var)
    return SYMBOL_ENERGY * active_devices * mean_tx_power + noise_var


def failure_prob_bound(grad_snr: float) -> float:
    """Tail bound on a single device flipping its gradient sign.

    Unimodal symmetric gradient noise admits the two-branch Gauss
    inequality: (2/9)/grad_snr^2 in the far tail, a linear bound otherwise.
    Always below 1/2 for positive grad_snr.
    """
    _positive(grad_snr=grad_snr)
    if grad_snr > 2.0 / math.sqrt(3.0):
        return (2.0 / 9.0) / (grad_snr * grad_snr)  # overflows to inf, not OverflowError
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
    _at_least(1, num_devices=num_devices)
    _positive(snr=snr, grad_snr=grad_snr)
    return _with_noise((num_devices / 2.0) * math.sqrt(2.0) / (3.0 * grad_snr), num_devices, snr)


def error_prob_intermediate_bound(num_devices: int, snr: float, flip_prob: float) -> float:
    """Tighter variant of error_prob_bound written directly in the
    per-device flip probability q: (K*q*(1-q) + 1/snr) / (K + 2/snr).

    Note this target attenuates the vote-count term by (1-q); the physical
    detector has no such attenuation (see exact_error_prob), so for q above
    roughly 0.1 the simulated error rate exceeds this expression.
    """
    exact_error_prob(num_devices, snr, flip_prob)  # its argument checks
    q = flip_prob
    return _with_noise(num_devices * q * (1.0 - q), num_devices, snr)


def exact_error_prob_weighted(powers, flip_probs, snr: float) -> float:
    """Exact misdetection probability of the energy detector with per-device
    powers p_m and flip rates q_m: (sum p_m*q_m + 1/snr) / (sum p_m + 2/snr),
    where snr = SYMBOL_ENERGY / noise_var is that of a unit-power device.

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
    if not check_powers(powers, powers.size).sum() > 0:
        raise ValueError("powers must have a positive sum")
    if not np.all((flip_probs >= 0) & (flip_probs <= 1)):
        raise ValueError("flip_probs must lie in [0, 1]")
    _positive(snr=snr)
    return _with_noise(float(powers @ flip_probs), float(powers.sum()), snr)


def exact_error_prob(num_devices: int, snr: float, flip_prob: float) -> float:
    """Exact misdetection probability of the constant-power energy detector:
    (K*q + 1/snr) / (K + 2/snr), exact_error_prob_weighted at K unit powers
    and one common flip rate q.  The weighted law sees the powers only
    through sum p_m and sum p_m*q_m, so it is evaluated as one device of
    power K, which keeps K*q exact."""
    _at_least(1, num_devices=num_devices)
    if not 0.0 < flip_prob < 0.5:
        raise ValueError("flip_prob must lie in (0, 1/2)")
    return exact_error_prob_weighted([num_devices], [flip_prob], snr)


def convergence_tau(num_devices: int, snr: float, gamma: float) -> float:
    """Channel penalty factor (1 + 2/(snr*K)) / sqrt(gamma); approaches
    1/sqrt(gamma) as the channel gets clean or the cohort grows."""
    _at_least(1, num_devices=num_devices)
    _positive(snr=snr, gamma=gamma)
    return (1.0 + 2.0 / (snr * num_devices)) / math.sqrt(gamma)


def convergence_bound(num_devices: int, snr: float, rounds: int, gamma: float, smoothness_l1: float,
                      sigma_l1: float, loss_gap: float, batch_size: int = 1) -> float:
    """Bound on the running mean L1 gradient norm after `rounds` rounds.

    `gamma` is the ratio of total rounds to batch size, `smoothness_l1` the
    sum of per-coordinate smoothness constants, `sigma_l1` the sum of
    per-coordinate gradient-noise scales and `loss_gap` the initial loss
    minus its lower bound.  The trailing gradient-noise term is divided by
    sqrt(batch_size), the extra factor the telescoped per-round analysis
    carries before simplification; the default batch_size of 1 gives the
    simplified form.
    """
    _at_least(1, rounds=rounds, batch_size=batch_size)
    _positive(smoothness_l1=smoothness_l1, sigma_l1=sigma_l1, loss_gap=loss_gap)
    tau = convergence_tau(num_devices, snr, gamma)  # checks num_devices, snr and gamma
    trailing = (2.0 * math.sqrt(2.0) / 6.0) * math.sqrt(gamma) * sigma_l1 / math.sqrt(batch_size)
    main = tau * math.sqrt(smoothness_l1) * (loss_gap + gamma / 2.0)
    return (main + trailing) / math.sqrt(rounds)


COMM_SCHEMES = ("sgd", "qsgd", "terngrad", "signsgd_mv")


def comm_cost(scheme: str, num_devices: int, model_dim: int) -> int:
    """Uplink bits per round for a cohort of num_devices training a
    model_dim-parameter model; inf when the count overflows a float."""
    _at_least(1, num_devices=num_devices, model_dim=model_dim)
    if scheme == "sgd":
        return 64 * num_devices * model_dim
    if scheme in ("qsgd", "terngrad"):
        bits = (2.0 + math.log2(2 * num_devices + 1)) * num_devices * model_dim
        return math.ceil(bits) if math.isfinite(bits) else math.inf
    if scheme == "signsgd_mv":
        return 2 * num_devices * model_dim
    raise ValueError(f"scheme must be one of {COMM_SCHEMES}")


# ---------------------------------------------------------------------------
# Over-the-air kernel, shared by the round loop and the oracles
# ---------------------------------------------------------------------------

# Most bytes a step of any batched loop (`blocks`) holds: two 31-device oracle
# frames of the kernel's real and imaginary float64 planes (16 bytes a lit bin,
# 0.48 MiB a frame of 1,024 coordinates; the channel stage also holds their
# phases, half that), five of the 19 frames of 416 coordinates a 7,850-parameter
# round sends, or one device's 0.8 MB batch of 784 features (31 gradient calls a
# round).  Larger blocks trade memory for calls (8 MiB: about 18 -> 15 ms, 7 MB more
# features; 2 CPUs, one BLAS thread); an oracle call of one block faults pages (_oracle_detect).
BLOCK_BYTES = 2**20


def blocks(count: int, item_bytes: int) -> list[tuple[int, int]]:
    """In-order (lo, hi) ranges of `count` items, each within BLOCK_BYTES or of one item."""
    step = max(1, BLOCK_BYTES // max(item_bytes, 1))
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)]


def air_detect(signs, powers, phy: PhyConfig, channel: ChannelConfig,
               device_rngs, frame_rngs) -> DetectionResult:
    """Detection of every device's row of sign votes sent over the uplink.

    `signs` is (devices, coordinates).  The rows are cut into frames of
    phy.frame_coordinates, the last padded with +1 votes, go through
    `encode_signs`, `sample_channel` and `superpose`, and are detected; the
    result holds (coordinates,) arrays, the padding dropped.  `device_rngs`
    holds one generator per device, drawing its symbol phases frame after
    frame; `frame_rngs` one per frame, drawing its channel, then its noise.
    Frames go through in blocks whose faded planes stay within
    BLOCK_BYTES; since every generator belongs to one device or one frame,
    and no coordinate's result depends on another's sign, neither the block
    size nor the padding can change the result.
    """
    signs = np.asarray(signs)
    if signs.ndim != 2:
        raise ValueError(f"signs of shape {signs.shape}; expected (devices, coordinates)")
    num_devices, num_coordinates = signs.shape
    powers = check_powers(powers, num_devices)  # before any draw
    per_frame = phy.frame_coordinates
    num_frames = phy.num_frames(num_coordinates)
    if len(frame_rngs) != num_frames:
        raise ValueError(f"{len(frame_rngs)} frame generators for {num_coordinates} coordinates "
                         f"in frames of {per_frame}")
    frame_bytes = num_devices * per_frame * 16  # a lit bin's real and imaginary float64
    parts = []
    for lo, hi in blocks(num_frames, frame_bytes):
        # a padded copy per block, not of every row at once: peak memory
        block_signs = np.ones((num_devices, (hi - lo) * per_frame), dtype=signs.dtype)
        block_signs[:, :num_coordinates - lo * per_frame] = signs[:, lo * per_frame:hi * per_frame]
        block_signs = block_signs.reshape(num_devices, hi - lo, per_frame).transpose(1, 0, 2)
        block_rngs = frame_rngs[lo:hi]
        phases = encode_signs(block_signs, device_rngs)
        faded = sample_channel(block_signs, phases, phy.num_subcarriers, channel, block_rngs)
        result = detect(superpose(block_signs, faded, powers, channel, block_rngs))
        parts.append((result.e_plus, result.e_minus, result.votes))
    return DetectionResult(*(np.concatenate(field, axis=None)[:num_coordinates] for field in zip(*parts)))


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------

_ORACLE_PHY = PhyConfig(num_subcarriers=FFT_SIZE, num_symbols=32)  # 1024 coordinates per frame


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
    channel = ChannelConfig(noise_var=noise_var, fading="per_bin")  # checks noise_var before any draw
    seeds = np.random.SeedSequence(seed)
    device_rngs = [np.random.default_rng(s) for s in seeds.spawn(len(powers))]
    per_frame = _ORACLE_PHY.frame_coordinates
    for lo, hi in blocks(_ORACLE_PHY.num_frames(trials), per_frame * (len(powers) + 17)):
        frame_rngs = [np.random.default_rng(s) for s in seeds.spawn(hi - lo)]
        signs = np.concatenate([sign_sampler(rng, (len(powers), per_frame)) for rng in frame_rngs], axis=1)
        yield air_detect(signs[:, :trials - lo * per_frame], powers, _ORACLE_PHY, channel, device_rngs, frame_rngs)


def _binomial(hits: int, trials: int) -> tuple[float, float]:
    """Frequency of `hits` in `trials` with its binomial standard error."""
    return (estimate := hits / trials), math.sqrt(max(estimate * (1.0 - estimate), 1e-12) / trials)


def _require_integers(**counts) -> list[int]:
    """`counts` as Python ints (numpy's are integers too) or a ValueError naming the first that is not."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    return [int(value) for value in counts.values()]


def mc_mean_energy(active_devices: int, mean_tx_power: float, noise_var: float, trials: int, seed) -> float:
    """Empirical mean bin energy from the full encode/fade/superpose path.

    All devices vote +1 at power mean_tx_power, so every trial's plus-bin
    takes the whole cohort; summing frame by frame keeps its bits call-size free.
    """
    mean_energy(active_devices, mean_tx_power, noise_var)  # its argument checks
    _at_least(1, trials=trials)
    active_devices, trials = _require_integers(active_devices=active_devices, trials=trials)
    powers = np.full(active_devices, mean_tx_power)
    results = _oracle_detect(lambda rng, shape: np.ones(shape, np.int8), powers, noise_var, trials, seed)
    sums = (np.add.reduceat(r.e_plus, range(0, r.e_plus.size, _ORACLE_PHY.frame_coordinates)) for r in results)
    return float(sum(frame_sum for call in sums for frame_sum in call)) / trials


def mc_flip_prob(grad_snr: float, trials: int, seed) -> tuple[float, float]:
    """Frequency of a mini-batch mean gradient flipping the true sign,
    with its binomial standard error.

    The mean of B draws of N(mu, sigma^2) is N(mu, sigma^2/B), so in units
    of its standard deviation it is grad_snr + z for one z ~ N(0, 1) a
    trial; a trial flips when that is negative (zero counts as +1,
    matching the quantizer).
    """
    failure_prob_bound(grad_snr)  # its argument check
    _at_least(1, trials=trials)
    (trials,) = _require_integers(trials=trials)
    rng = np.random.default_rng(seed)
    flips = 0
    for lo, hi in blocks(trials, np.dtype(np.float64).itemsize):
        flips += int(np.sum(grad_snr + rng.standard_normal(hi - lo) < 0))
    return _binomial(flips, trials)


# Fewest trials an error-probability estimate accepts.
MC_ERROR_PROB_MIN_TRIALS = 1000


def mc_error_prob(num_devices: int, flip_prob: float, snr: float, trials: int, seed) -> tuple[float, float]:
    """Monte Carlo majority-vote error rate with i.i.d. per-device sign
    flips at probability flip_prob, plus binomial standard error.

    Detected votes are compared with a true sign of +1, through the real
    pipeline with Rayleigh fading per bin, fresh randomization, unit powers,
    and noise_var = SYMBOL_ENERGY / snr, at most channel.NOISE_VAR_MAX (0 at
    an infinite snr).  Only the snr matters for the detection statistics
    (scaling signal and noise together never changes an energy comparison),
    so fixing unit powers loses nothing.
    """
    exact_error_prob(num_devices, snr, flip_prob)  # its argument checks
    if snr < SYMBOL_ENERGY / NOISE_VAR_MAX:
        raise ValueError(f"snr must be >= {SYMBOL_ENERGY / NOISE_VAR_MAX:g}")
    _at_least(MC_ERROR_PROB_MIN_TRIALS, trials=trials)
    num_devices, trials = _require_integers(num_devices=num_devices, trials=trials)
    results = _oracle_detect(lambda rng, shape: sign_votes(rng.random(shape) < flip_prob),
                             np.ones(num_devices), SYMBOL_ENERGY / snr, trials, seed)
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

FLIP_PROB_GRID = {"grad_snr": (0.2, 0.5, 1.0, 1.155, 2.0, 5.0, 20.0)}

ERROR_PROB_GRID = {
    "num_devices": (5, 15, 31),
    "snr": (0.5, 2.0, 8.0),
    "flip_prob": (0.05, 0.2, 0.4),
}


def _points(grid: dict) -> list[dict]:
    """Every point of `grid` as {name: value}, in itertools.product order."""
    return [dict(zip(grid, values)) for values in itertools.product(*grid.values())]


def run_mean_energy_suite(trials: int, seed: int) -> list[dict]:
    """Grid comparison of simulated vs. predicted mean bin energy."""
    rows = []
    for point in _points(MEAN_ENERGY_GRID):
        devices, power, noise = point.values()
        predicted = mean_energy(**point)
        estimate = mc_mean_energy(**point, trials=trials, seed=(seed, devices, int(power * 2), int(noise * 10)))
        rel_err = abs(estimate - predicted) / predicted
        rows.append({**point, "predicted": predicted, "estimate": estimate, "rel_err": rel_err,
                     "passed": rel_err < MEAN_ENERGY_RELATIVE_TOL})
    return rows


def run_flip_prob_suite(trials: int, seed: int) -> list[dict]:
    """Empirical sign-flip frequency vs. the unimodal-tail bound."""
    rows = []
    for point in _points(FLIP_PROB_GRID):
        estimate, stderr = mc_flip_prob(**point, trials=trials, seed=(seed, int(point["grad_snr"] * 1000)))
        bound = failure_prob_bound(**point)
        rows.append({**point, "estimate": estimate, "stderr": stderr, "bound": bound,
                     "passed": estimate <= bound + 3.0 * stderr})
    return rows


def run_error_prob_suite(trials: int, seed: int) -> list[dict]:
    """Simulated majority-vote error vs. the flip-probability comparison
    target and the always-below-one-half property.

    The `exact` column is the closed form the simulation must reproduce;
    `target` is the (1-q)-attenuated comparison expression, which the
    physical detector beats only at small q.
    """
    rows = []
    for point in _points(ERROR_PROB_GRID):
        devices, snr, q = point.values()
        estimate, stderr = mc_error_prob(**point, trials=trials,
                                         seed=(seed, devices, int(snr * 10), int(q * 100)))
        target = error_prob_intermediate_bound(**point)
        rows.append({**point, "estimate": estimate, "stderr": stderr, "target": target,
                     "exact": exact_error_prob(**point), "below_half": estimate < 0.5,
                     "passed": estimate <= target + 3.0 * stderr})
    return rows


def _cell(key: str, spec: str = "") -> Callable[[dict], str]:
    return lambda row: format(row[key], spec)


# The paper's lemma numbers, which mc-verify accepts as suite names.
SUITE_ALIASES = {"lemma31": "mean-energy", "lemmad1": "flip-prob", "lemma32": "error-prob"}

# How each suite runs and is printed, by `cli._run_suite` alone: (runner,
# default trials, fewest trials, title, columns, failure note).  The runner
# takes (trials, seed) and returns rows, the title takes the trial count, each
# column is (header, cell text of a row), and a note, if any, follows a failed table.
SUITE_TABLES = {
    "mean-energy": (
        run_mean_energy_suite, 100_000, 1, "mean received bin energy vs closed form ({trials} trials)",
        (("devices", _cell("active_devices")), ("power", _cell("mean_tx_power", "g")),
         ("noise", _cell("noise_var", "g")), ("predicted", _cell("predicted", ".4f")),
         ("estimate", _cell("estimate", ".4f")), ("rel_err", _cell("rel_err", ".4%"))),
        None,
    ),
    "flip-prob": (
        run_flip_prob_suite, 100_000, 1, "sign-flip frequency vs unimodal tail bound ({trials} draws)",
        (("grad_snr", _cell("grad_snr", "g")), ("estimate", _cell("estimate", ".5f")),
         ("bound", _cell("bound", ".5f")),
         ("slack", lambda r: f"{r['bound'] + 3 * r['stderr'] - r['estimate']:+.5f}")),
        None,
    ),
    "error-prob": (
        run_error_prob_suite, 10_000, MC_ERROR_PROB_MIN_TRIALS,
        "majority-vote error vs attenuated target ({trials} trials)",
        (("devices", _cell("num_devices")), ("snr", _cell("snr", "g")),
         ("flip", _cell("flip_prob", "g")), ("estimate", _cell("estimate", ".4f")),
         ("exact", _cell("exact", ".4f")), ("target", _cell("target", ".4f")),
         ("<1/2", lambda r: "yes" if r["below_half"] else "NO")),
        "note: the (1-q)-attenuated target sits below the exact detector error\n"
        "(K*q + 1/snr)/(K + 2/snr) by K*q^2/(K + 2/snr), so flip rates of 0.2\n"
        "and above exceed it by far more than Monte Carlo noise; the estimates\n"
        "above should instead match the `exact` column.\n",
    ),
}
