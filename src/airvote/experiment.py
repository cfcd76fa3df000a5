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
from typing import get_type_hints

import numpy as np

from .analysis import _at_least, air_detect, comm_cost
from .channel import ChannelConfig
from .detector import ideal_majority_vote
from .learner import (
    Dataset,
    TrainingConfig,
    apply_global_update,
    check_batch_size,
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
DATASET_KINDS = ("synthetic", "mnist")

_MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",  # in load order: train, then test
                "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


@dataclass
class DatasetSpec:
    kind: str = "synthetic"
    path: str = ""            # mnist: directory holding the four IDX files
    samples: int = 10_000
    test_samples: int = 2_000
    input_dim: int = 20
    classes: int = 10
    separation: float = 4.0

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"kind must be one of {DATASET_KINDS}")
        _at_least(1, samples=self.samples, test_samples=self.test_samples, input_dim=self.input_dim)
        _at_least(2, classes=self.classes)
        if self.kind == "synthetic" and self.classes > (total := self.samples + self.test_samples):
            raise ValueError(f"classes {self.classes} exceeds the {total} samples of samples + test_samples")
        if not math.isfinite(self.separation):
            raise ValueError("separation must be finite")
        need = (self.samples + self.test_samples + self.classes) * self.input_dim * 8  # features, class means
        if self.kind == "synthetic" and need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            largest = max(("samples", "test_samples", "classes", "input_dim"), key=lambda f: getattr(self, f))
            raise ValueError(f"{largest} makes the synthetic dataset {need:.3g} bytes, more than physical memory")


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
            raise ValueError(f"scheme must be one of {SCHEMES}")
        _at_least(1, eval_every=self.eval_every)
        if not 0 <= self.master_seed < 2**64:  # derive_rngs reduces mod 2**64: two seeds would share a run
            raise ValueError("master_seed must lie in [0, 2**64)")


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
    model: np.ndarray         # float64 weight vector
    powers: np.ndarray        # per-device transmit power multipliers
    predictor: object
    train: Dataset
    test: Dataset
    shards: list              # per-device int64 sample indices
    last_vote: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------

def _idx_files(spec: DatasetSpec) -> list[Path]:
    """The dataset files `spec` loads, in `_MNIST_FILES` order, each
    `<stem>` or else `<stem>.gz` under `spec.path`; none for synthetic data.
    A missing one raises FileNotFoundError naming its stem and the directory."""
    directory, files = Path(spec.path), []
    for stem in _MNIST_FILES if spec.kind == "mnist" else ():
        found = [path for path in (directory / stem, directory / f"{stem}.gz") if path.exists()]
        if not found:
            raise FileNotFoundError(f"missing {stem}[.gz] under {directory}")
        files.append(found[0])
    return files


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
        full = make_synthetic_dataset(total, spec.input_dim, spec.classes, rng, spec.separation)
        train = Dataset(full.features[: spec.samples], full.labels[: spec.samples], full.num_classes)
        test = Dataset(full.features[spec.samples :], full.labels[spec.samples :], full.num_classes)
        return train, test
    files = _idx_files(spec)
    train, test = load_idx_dataset(*files[:2]), load_idx_dataset(*files[2:])
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
    check_batch_size(config.training.batch_size, shards)
    model = predictor.init_state(seed=derive_rng(config.master_seed, STREAM_INIT))
    return RunState(model, np.ones(config.training.num_devices), predictor, train, test, shards)


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
    over_air = config.scheme in ("fsk_mv", "fsk_mv_dpc")
    frames = config.phy.num_frames(state.predictor.num_params) if over_air else 0
    rngs = derive_rngs(config.master_seed, [(STREAM_BATCH, round_idx, m) for m in range(devices)]
                       + [(STREAM_CHANNEL, round_idx, f) for f in range(frames)])
    device_rngs, frame_rngs = rngs[:devices], rngs[devices:]
    try:
        grads = compute_local_gradient(state.model, state.predictor, state.train, state.shards,
                                       training.batch_size, device_rngs)
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {round_idx}: {exc}") from None
    powers = state.powers
    if config.scheme == "fedavg_ideal":
        vote, direction = None, np.mean(grads, axis=0)
    else:
        signs = sign_quantize(grads)
        ideal = ideal_majority_vote(signs)
        vote = direction = ideal if config.scheme == "ideal_signsgd_mv" else air_detect(
            signs, powers, config.phy, config.channel, device_rngs, frame_rngs).votes
        if config.scheme == "fsk_mv_dpc":
            powers = update_power(powers, signs, vote, config.phy.power_cap)
    model = apply_global_update(state.model, direction, training.learning_rate)
    new_state = replace(state, model=model, powers=powers, last_vote=vote)
    if (round_idx + 1) % config.eval_every != 0 and round_idx != training.rounds - 1:
        return new_state, None
    voted = vote is not None  # the reference is the full-train gradient at the model voted on
    reference = sign_quantize(full_gradient(state.model, state.predictor, state.train)) if voted else None
    accuracy, loss = evaluate(model, state.predictor, state.test)
    return new_state, RoundMetrics(round_idx + 1, accuracy, loss, mean_power(powers),
                                   float(np.mean(vote == ideal)) if voted else None,
                                   float(np.mean(vote != reference)) if voted else None)


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


def _new_temp(path: Path, reads=()) -> Path:
    """`path`'s temp file `<name>.<pid>.tmp`, created empty.  Every write's
    one rule: a `path` that resolves to one of the files in `reads` raises
    ValueError naming both, before anything is created.  A `path` that is a
    directory, or in a missing or unwritable one, raises an OSError naming
    `path`, not the temp file."""
    for read in reads:
        if path.resolve() == Path(read).resolve():
            raise ValueError(f"output {path} would overwrite the input {read}")
    if path.is_dir():
        raise IsADirectoryError(f"output path {path} is a directory")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.touch()
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    return tmp


@contextmanager
def _replacing(path: Path, reads=()):
    """Text sink whose contents replace `path` only when the block completes;
    on error its temp file (`_new_temp(path, reads)`) is removed and `path`
    keeps its old contents.  A process killed inside the block leaves the
    temp file behind, so the block should hold writes, not work."""
    tmp = _new_temp(path, reads)
    try:
        with tmp.open("w", newline="") as sink:
            yield sink
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig, reads=()) -> Path:
    """Run the configured experiment and persist metrics: one JSON object
    per evaluation record at the output path, and a one-row summary CSV
    next to it.  Both paths pass `_new_temp` before the first round, with
    `reads` (the config's own file, which the run cannot see) and the
    dataset files as the inputs, and are written after the last, so a run
    killed before then leaves nothing beside its output; the two are
    replaced together: neither changes unless the run and both writes complete."""
    out = Path(config.output_path)
    reads = (*reads, *_idx_files(config.dataset))
    for path in (out, summary_path(out)):
        _new_temp(path, reads).unlink()
    metrics, state = run_rounds(config)
    family = "sgd" if config.scheme == "fedavg_ideal" else "signsgd_mv"
    total_bits = comm_cost(family, config.training.num_devices, state.predictor.num_params)
    total_bits *= config.training.rounds
    with _replacing(out) as sink, _replacing(summary_path(out)) as summary:
        for record in metrics:
            sink.write(json.dumps(record.to_record()) + "\n")
        writer = csv.writer(summary)
        writer.writerow(["scheme", "final_accuracy", "mean_power", "total_bits", "rounds", "seed"])
        writer.writerow([config.scheme, metrics[-1].test_accuracy, metrics[-1].mean_power, total_bits,
                         config.training.rounds, config.master_seed])
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
    """{file key: (section, field name, field type)}; section "" is
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
_FILE_KEYS = {name: key for key, (_, name, _) in _CONFIG_KEYS.items()}  # field names are unique


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
        if key in values:
            raise ValueError(f"{key} on line {lineno}: the key is already set on an earlier line")
        try:
            values[key] = _CONFIG_KEYS[key][2](value)
        except ValueError as exc:
            raise ValueError(f"{key} on line {lineno}: bad value {value!r}") from exc
    return values


def config_from_values(values: dict) -> ExperimentConfig:
    """ExperimentConfig from typed file-key values; absent keys keep the
    dataclass defaults, and a rejection names the file key, not the field."""
    kwargs: dict = {section: {} for section in ("", *_SECTIONS)}
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        section, name, _ = _CONFIG_KEYS[key]
        kwargs[section][name] = value
    top = kwargs.pop("")
    try:
        return ExperimentConfig(**top, **{s: _SECTIONS[s](**kw) for s, kw in kwargs.items()})
    except ValueError as exc:
        name, space, rest = str(exc).partition(" ")
        raise ValueError(_FILE_KEYS.get(name, name) + space + rest) from None


def load_config(path) -> ExperimentConfig:
    """ExperimentConfig from a config file; a missing one raises FileNotFoundError naming it."""
    return config_from_values(parse_config_text(Path(path).read_text()))
