"""Experiment orchestration: configs, the round loop, and metrics files.

One experiment is a sequential loop over communication rounds.  Within a
round, every device computes a mini-batch gradient and reports signs; the
scheme decides how those signs reach the server (perfectly, or over the
simulated uplink), and every model steps against the broadcast vote.
Metrics stream to a JSON-lines file plus a one-row CSV summary, and the
whole run is a pure function of (config, master seed).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import air_detect, comm_cost
from .channel import ChannelConfig
from .detector import ideal_majority_vote
from .learner import (
    Dataset,
    ModelState,
    TrainingConfig,
    apply_global_update,
    compute_local_gradient,
    evaluate,
    full_gradient,
    load_idx_dataset,
    make_predictor,
    make_synthetic_dataset,
    partition,
    sign_quantize,
)
from .phy import (
    PowerState,
    SubcarrierMap,
    build_subcarrier_map,
    initial_power_state,
    mean_power,
    update_power,
)
from .seeding import (
    STREAM_BATCH,
    STREAM_CHANNEL,
    STREAM_DATASET,
    STREAM_ENCODE,
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_PARTITION,
    derive_rng,
)

SCHEMES = ("ideal_signsgd_mv", "fedavg_ideal", "fsk_mv", "fsk_mv_dpc")

_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


@dataclass
class PhyConfig:
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


@dataclass
class DatasetSpec:
    kind: str = "synthetic"   # synthetic | mnist
    path: str = ""            # mnist: directory holding the four IDX files
    samples: int = 10_000
    test_samples: int = 2_000
    input_dim: int = 20
    classes: int = 10
    separation: float = 4.0

    def __post_init__(self):
        if self.kind not in ("synthetic", "mnist"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.samples < 1 or self.test_samples < 1:
            raise ValueError("samples and test_samples must be positive")
        if not math.isfinite(self.separation):
            raise ValueError("separation must be finite")


@dataclass
class ExperimentConfig:
    scheme: str = "fsk_mv_dpc"
    training: TrainingConfig = field(default_factory=TrainingConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    phy: PhyConfig = field(default_factory=PhyConfig)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    eval_every: int = 20
    output_path: str = "metrics.jsonl"
    master_seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass
class RoundMetrics:
    """Snapshot taken after a round's global update.

    vote_agreement compares the applied vote with the perfect majority
    vote; empirical_perr compares it with the sign of the full-dataset
    gradient.  Both are None for the pre-training baseline record and for
    the float-averaging scheme, which has no votes.  wall_time_ms is kept
    for callers but never serialized, so metrics files stay reproducible.
    """

    round: int
    test_accuracy: float
    test_loss: float
    mean_power: float
    vote_agreement: float | None
    empirical_perr: float | None
    wall_time_ms: float = 0.0

    def to_record(self) -> dict:
        return {
            "round": self.round,
            "test_accuracy": self.test_accuracy,
            "test_loss": self.test_loss,
            "mean_power": self.mean_power,
            "vote_agreement": self.vote_agreement,
            "empirical_perr": self.empirical_perr,
        }


@dataclass
class RunState:
    model: ModelState
    powers: PowerState
    predictor: object
    train: Dataset
    test: Dataset
    shards: list
    num_frames: int
    mapping: SubcarrierMap
    last_vote: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------

def _find_idx_file(directory: Path, stem: str) -> Path:
    for name in (stem, stem + ".gz"):
        candidate = directory / name
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"missing {stem}[.gz] under {directory}")


def _subsample(dataset: Dataset, size: int, rng) -> Dataset:
    if size >= len(dataset):
        return dataset
    keep = np.sort(rng.choice(len(dataset), size=size, replace=False))
    return Dataset(dataset.features[keep], dataset.labels[keep], dataset.num_classes)


def build_datasets(spec: DatasetSpec, master_seed: int) -> tuple[Dataset, Dataset]:
    """Train/test pair per the dataset spec, deterministic in the seed.

    Synthetic data draws one blob population and splits it, so train and
    test share the same class means.
    """
    rng = derive_rng(master_seed, STREAM_DATASET)
    if spec.kind == "synthetic":
        total = spec.samples + spec.test_samples
        full = make_synthetic_dataset(
            total, spec.input_dim, spec.classes, seed=rng, class_separation=spec.separation
        )
        train = Dataset(full.features[: spec.samples], full.labels[: spec.samples], full.num_classes)
        test = Dataset(full.features[spec.samples :], full.labels[spec.samples :], full.num_classes)
        return train, test
    directory = Path(spec.path)
    train = load_idx_dataset(
        _find_idx_file(directory, _MNIST_FILES["train"][0]),
        _find_idx_file(directory, _MNIST_FILES["train"][1]),
    )
    test = load_idx_dataset(
        _find_idx_file(directory, _MNIST_FILES["test"][0]),
        _find_idx_file(directory, _MNIST_FILES["test"][1]),
    )
    return _subsample(train, spec.samples, rng), _subsample(test, spec.test_samples, rng)


def _coordinate_chunks(num_params: int, phy: PhyConfig) -> tuple[int, SubcarrierMap]:
    """Number of sequential frames the model coordinates need, and the
    full-frame map every frame uses.  The last frame is padded; each frame
    has its own channel realization per round."""
    capacity = phy.num_subcarriers * phy.num_symbols // 2
    mapping = build_subcarrier_map(capacity, phy.num_subcarriers, phy.num_symbols)
    return -(-num_params // capacity), mapping


def prepare_run(config: ExperimentConfig) -> RunState:
    train, test = build_datasets(config.dataset, config.master_seed)
    predictor = make_predictor(config.training, train)
    shards = partition(
        train,
        config.training.num_devices,
        config.training.partition_mode,
        seed=derive_rng(config.master_seed, STREAM_PARTITION),
    )
    smallest = min(len(s) for s in shards)
    if config.training.batch_size > smallest:
        raise ValueError(
            f"batch_size {config.training.batch_size} exceeds the smallest shard ({smallest})"
        )
    model = predictor.init_state(seed=derive_rng(config.master_seed, STREAM_INIT))
    powers = initial_power_state(config.training.num_devices)
    num_frames, mapping = _coordinate_chunks(predictor.num_params, config.phy)
    return RunState(model, powers, predictor, train, test, shards, num_frames, mapping)


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

def _air_vote(sign_matrix: np.ndarray, powers: np.ndarray, state: RunState,
              config: ExperimentConfig, round_idx: int) -> np.ndarray:
    """Encode, superpose over the fading channel, and detect every frame of
    the round in one kernel call.

    The coordinates are cut into state.num_frames full frames, the last
    padded with +1 votes that are dropped after detection.  Device m draws
    its randomization symbols for all frames, in order, from the generator
    at path (round, 0, m); frame f has its own channel and noise generators
    at (round, f).  A run whose model fits one frame therefore matches the
    earlier per-frame, per-device generator layout byte for byte.
    """
    num_devices, num_params = sign_matrix.shape
    mapping = state.mapping
    padded = np.ones((num_devices, state.num_frames * mapping.num_coordinates), dtype=np.int8)
    padded[:, :num_params] = sign_matrix
    signs = padded.reshape(num_devices, state.num_frames, -1).transpose(1, 0, 2)
    seed = config.master_seed
    frames = range(state.num_frames)
    result = air_detect(
        signs,
        powers,
        mapping,
        config.channel,
        device_rngs=[derive_rng(seed, STREAM_ENCODE, round_idx, 0, m) for m in range(num_devices)],
        channel_rngs=[derive_rng(seed, STREAM_CHANNEL, round_idx, f) for f in frames],
        noise_rngs=[derive_rng(seed, STREAM_NOISE, round_idx, f) for f in frames],
    )
    return result.votes.reshape(-1)[:num_params]


def run_round(state: RunState, config: ExperimentConfig, round_idx: int) -> tuple[RunState, RoundMetrics | None]:
    """Execute one communication round; returns metrics on evaluation rounds
    (every eval_every completed rounds, and always after the last round)."""
    start = time.perf_counter()
    training = config.training
    grads = [
        compute_local_gradient(
            state.model,
            state.predictor,
            state.train,
            shard,
            training.batch_size,
            seed=derive_rng(config.master_seed, STREAM_BATCH, round_idx, device),
        )
        for device, shard in enumerate(state.shards)
    ]
    emit = (round_idx + 1) % config.eval_every == 0 or round_idx == training.rounds - 1
    vote_agreement = None
    empirical_perr = None
    powers = state.powers
    vote = None
    if config.scheme == "fedavg_ideal":
        direction = np.mean([g.values for g in grads], axis=0)
        model = ModelState(state.model.weights - training.learning_rate * direction,
                           state.model.round + 1)
    else:
        sign_matrix = sign_quantize(np.stack([g.values for g in grads]))
        ideal = ideal_majority_vote(sign_matrix)
        if config.scheme == "ideal_signsgd_mv":
            vote = ideal
        else:
            vote = _air_vote(sign_matrix, powers.powers, state, config, round_idx)
        if emit:
            vote_agreement = float(np.mean(vote == ideal))
            reference = sign_quantize(full_gradient(state.model, state.predictor, state.train))
            empirical_perr = float(np.mean(vote != reference))
        if config.scheme == "fsk_mv_dpc":
            powers = update_power(powers, sign_matrix, vote, config.phy.power_cap)
        model = apply_global_update(state.model, vote, training.learning_rate)
    new_state = replace(state, model=model, powers=powers, last_vote=vote)
    metrics = None
    if emit:
        accuracy, loss = evaluate(model, state.predictor, state.test)
        metrics = RoundMetrics(
            round=round_idx + 1,
            test_accuracy=accuracy,
            test_loss=loss,
            mean_power=mean_power(powers),
            vote_agreement=vote_agreement,
            empirical_perr=empirical_perr,
            wall_time_ms=(time.perf_counter() - start) * 1e3,
        )
    return new_state, metrics


def run_rounds(config: ExperimentConfig, record_votes: bool = False):
    """Full training loop in memory.

    Returns (metrics, final state) or, with record_votes, (metrics, final
    state, one vote vector per round).  The first metrics entry is the
    round-0 baseline of the untrained model.
    """
    state = prepare_run(config)
    accuracy, loss = evaluate(state.model, state.predictor, state.test)
    metrics = [
        RoundMetrics(0, accuracy, loss, mean_power(state.powers), None, None)
    ]
    votes = []
    for round_idx in range(config.training.rounds):
        state, round_metrics = run_round(state, config, round_idx)
        if round_metrics is not None:
            metrics.append(round_metrics)
        if record_votes:
            votes.append(state.last_vote)
    if record_votes:
        return metrics, state, votes
    return metrics, state


def _scheme_cost_family(scheme: str) -> str:
    return "sgd" if scheme == "fedavg_ideal" else "signsgd_mv"


def summary_path(output_path) -> Path:
    return Path(output_path).with_suffix(".summary.csv")


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the configured experiment and persist metrics.

    Writes one JSON object per evaluation record to the configured output
    path and a single-row summary CSV next to it.  The output file is
    opened before any computation so an unwritable path fails fast.
    """
    out = Path(config.output_path)
    with out.open("w") as sink:
        metrics, state = run_rounds(config)
        for record in metrics:
            sink.write(json.dumps(record.to_record()) + "\n")
    total_bits = (
        comm_cost(
            _scheme_cost_family(config.scheme),
            config.training.num_devices,
            state.predictor.num_params,
        )
        * config.training.rounds
    )
    with summary_path(out).open("w", newline="") as sink:
        writer = csv.writer(sink)
        writer.writerow(["scheme", "final_accuracy", "mean_power", "total_bits", "rounds", "seed"])
        writer.writerow(
            [
                config.scheme,
                metrics[-1].test_accuracy,
                metrics[-1].mean_power,
                total_bits,
                config.training.rounds,
                config.master_seed,
            ]
        )
    return out


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_CONFIG_TYPES = {
    "scheme": str,
    "rounds": int,
    "devices": int,
    "batch_size": int,
    "learning_rate": float,
    "partition": str,
    "seed": int,
    "model": str,
    "hidden_units": int,
    "eval_every": int,
    "output": str,
    "dataset.kind": str,
    "dataset.path": str,
    "dataset.samples": int,
    "dataset.test_samples": int,
    "dataset.input_dim": int,
    "dataset.classes": int,
    "dataset.separation": float,
    "channel.noise_var": float,
    "channel.sync_error_max": float,
    "channel.fading": str,
    "channel.fft_size": int,
    "phy.subcarriers": int,
    "phy.symbols": int,
    "phy.power_cap": float,
}


def parse_config_text(text: str) -> dict:
    """Flat `key = value` lines with dotted section keys; # starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip('"').strip("'")
        if key not in _CONFIG_TYPES:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key == "phy.power_cap" and value.lower() == "none":
            values[key] = None
            continue
        try:
            values[key] = _CONFIG_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    seed = values.get("seed", 0)
    training = TrainingConfig(
        learning_rate=values.get("learning_rate", 0.004),
        batch_size=values.get("batch_size", 128),
        rounds=values.get("rounds", 200),
        num_devices=values.get("devices", 31),
        partition_mode=values.get("partition", "iid"),
        seed=seed,
        model_kind=values.get("model", "logistic"),
        hidden_units=values.get("hidden_units", 32),
    )
    channel = ChannelConfig(
        noise_var=values.get("channel.noise_var", 1.0),
        sync_error_max=values.get("channel.sync_error_max", 0.0),
        fft_size=values.get("channel.fft_size", 64),
        fading=values.get("channel.fading", "per_bin"),
    )
    phy = PhyConfig(
        num_subcarriers=values.get("phy.subcarriers", 64),
        num_symbols=values.get("phy.symbols", 8),
        power_cap=values.get("phy.power_cap"),
    )
    dataset = DatasetSpec(
        kind=values.get("dataset.kind", "synthetic"),
        path=values.get("dataset.path", ""),
        samples=values.get("dataset.samples", 10_000),
        test_samples=values.get("dataset.test_samples", 2_000),
        input_dim=values.get("dataset.input_dim", 20),
        classes=values.get("dataset.classes", 10),
        separation=values.get("dataset.separation", 4.0),
    )
    return ExperimentConfig(
        scheme=values.get("scheme", "fsk_mv_dpc"),
        training=training,
        channel=channel,
        phy=phy,
        dataset=dataset,
        eval_every=values.get("eval_every", 20),
        output_path=values.get("output", "metrics.jsonl"),
        master_seed=seed,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return config_from_values(parse_config_text(path.read_text()))
