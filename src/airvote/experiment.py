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
import os
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

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
from .phy import PhyConfig, mean_power, update_power
from .seeding import (
    STREAM_BATCH,
    STREAM_CHANNEL,
    STREAM_DATASET,
    STREAM_INIT,
    STREAM_PARTITION,
    derive_rng,
    derive_rngs,
)

SCHEMES = ("ideal_signsgd_mv", "fedavg_ideal", "fsk_mv", "fsk_mv_dpc")

_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


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
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")


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
    the float-averaging scheme, which has no votes.
    """

    round: int
    test_accuracy: float
    test_loss: float
    mean_power: float
    vote_agreement: float | None
    empirical_perr: float | None

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class RunState:
    model: ModelState
    powers: np.ndarray        # per-device transmit power multipliers
    predictor: object
    train: Dataset
    test: Dataset
    shards: list              # per-device int64 sample indices
    num_frames: int           # frames of the uplink per round
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
    train, test = (
        load_idx_dataset(*(_find_idx_file(Path(spec.path), stem) for stem in _MNIST_FILES[part]))
        for part in ("train", "test")
    )
    if test.features.shape[1] != train.features.shape[1]:
        raise ValueError(f"the test set's images have {test.features.shape[1]} pixels, "
                         f"the train set's {train.features.shape[1]}")
    if test.num_classes > train.num_classes:
        raise ValueError(f"the test set's labels reach {test.num_classes - 1}, "
                         f"the train set's only {train.num_classes - 1}")
    return _subsample(train, spec.samples, rng), _subsample(test, spec.test_samples, rng)


def prepare_run(config: ExperimentConfig) -> RunState:
    train, test = build_datasets(config.dataset, config.master_seed)
    predictor = make_predictor(config.training, train)
    shards = partition(train, config.training.num_devices, config.training.partition_mode,
                       seed=derive_rng(config.master_seed, STREAM_PARTITION))
    smallest = int(np.argmin([len(s) for s in shards]))
    if config.training.batch_size > len(shards[smallest]):
        raise ValueError(f"batch_size {config.training.batch_size} exceeds the smallest shard "
                         f"({len(shards[smallest])} samples, device {smallest})")
    model = predictor.init_state(seed=derive_rng(config.master_seed, STREAM_INIT))
    num_frames = -(-predictor.num_params // config.phy.frame_coordinates)
    return RunState(model, np.ones(config.training.num_devices), predictor, train, test,
                    shards, num_frames)


# ---------------------------------------------------------------------------
# Round loop
# ---------------------------------------------------------------------------

def run_round(state: RunState, config: ExperimentConfig, round_idx: int) -> tuple[RunState, RoundMetrics | None]:
    """Execute one communication round; returns metrics on evaluation rounds
    (every eval_every completed rounds, and always after the last round).
    One `derive_rngs` call gives the generators of the round's paths, which
    the `seeding` docstring lists; one kernel call carries every frame."""
    training = config.training
    devices = training.num_devices
    frames = state.num_frames if config.scheme in ("fsk_mv", "fsk_mv_dpc") else 0
    rngs = derive_rngs(config.master_seed, [(STREAM_BATCH, round_idx, m) for m in range(devices)]
                       + [(STREAM_CHANNEL, round_idx, f) for f in range(frames)])
    device_rngs, frame_rngs = rngs[:devices], rngs[devices:]
    grads = compute_local_gradient(state.model, state.predictor, state.train, state.shards,
                                   training.batch_size, device_rngs)
    emit = (round_idx + 1) % config.eval_every == 0 or round_idx == training.rounds - 1
    vote_agreement = None
    empirical_perr = None
    powers = state.powers
    vote = None
    if config.scheme == "fedavg_ideal":
        model = apply_global_update(state.model, np.mean(grads, axis=0), training.learning_rate)
    else:
        sign_matrix = sign_quantize(grads)
        ideal = ideal_majority_vote(sign_matrix)
        if config.scheme == "ideal_signsgd_mv":
            vote = ideal
        else:
            vote = air_detect(sign_matrix, powers, config.phy, config.channel,
                              device_rngs, frame_rngs).votes
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
    metrics = [RoundMetrics(0, accuracy, loss, mean_power(state.powers), None, None)]
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


def summary_path(output_path) -> Path:
    return Path(output_path).with_suffix(".summary.csv")


@contextmanager
def _replacing(path: Path, newline: str | None = None):
    """Text sink whose contents replace `path` only when the block completes.

    The sink is a temp file next to `path`, opened on entry, so an
    unwritable directory, or a `path` that is itself a directory, fails
    before any work; on error it is removed and `path` keeps its old
    contents.
    """
    if path.is_dir():
        raise IsADirectoryError(f"output path {path} is a directory")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    sink = tmp.open("w", newline=newline)
    try:
        with sink:
            yield sink
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the configured experiment and persist metrics.

    Writes one JSON object per evaluation record to the configured output
    path and a single-row summary CSV next to it.  Both sinks are opened
    before any computation, so an unwritable path fails fast, and the two
    files are replaced together: neither changes unless the run and both
    writes complete.
    """
    out = Path(config.output_path)
    with _replacing(summary_path(out), newline="") as summary, _replacing(out) as sink:
        metrics, state = run_rounds(config)
        for record in metrics:
            sink.write(json.dumps(record.to_record()) + "\n")
        family = "sgd" if config.scheme == "fedavg_ideal" else "signsgd_mv"
        total_bits = comm_cost(family, config.training.num_devices, state.predictor.num_params)
        total_bits *= config.training.rounds
        writer = csv.writer(summary)
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

# Section name -> dataclass, from ExperimentConfig's nested configs.
_SECTIONS = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if f.default_factory is not MISSING
}
# File keys that differ from their field name.  Otherwise top-level and
# training fields are keyed by name, the other sections as "section.name".
_RENAMED = {
    "num_devices": "devices",
    "partition_mode": "partition",
    "model_kind": "model",
    "output_path": "output",
    "master_seed": "seed",
    "phy.num_subcarriers": "phy.subcarriers",
    "phy.num_symbols": "phy.symbols",
}


def _config_keys() -> dict[str, tuple[str, str, object]]:
    """{file key: (section, field name, type hint)}; section "" is
    ExperimentConfig itself."""
    keys = {}
    for section, cls in {"": ExperimentConfig, **_SECTIONS}.items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            if section == "" and f.name in _SECTIONS:
                continue
            name = f.name if section in ("", "training") else f"{section}.{f.name}"
            keys[_RENAMED.get(name, name)] = (section, f.name, hints[f.name])
    return keys


_CONFIG_KEYS = _config_keys()


def _parse_value(hint, value: str):
    """`value` as the field's type; an optional field also takes `none`."""
    types = get_args(hint) or (hint,)
    if type(None) in types and value.lower() == "none":
        return None
    return types[0](value)


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
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(_CONFIG_KEYS[key][2], value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    """ExperimentConfig from typed file-key values; absent keys keep the
    dataclass defaults."""
    kwargs: dict = {section: {} for section in ("", *_SECTIONS)}
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        section, name, _ = _CONFIG_KEYS[key]
        kwargs[section][name] = value
    top = kwargs.pop("")
    return ExperimentConfig(**top, **{s: _SECTIONS[s](**kw) for s, kw in kwargs.items()})


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return config_from_values(parse_config_text(path.read_text()))
