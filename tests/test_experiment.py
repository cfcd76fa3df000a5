import json
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from airvote import analysis, experiment
from airvote.channel import ChannelConfig
from airvote.experiment import (
    _CONFIG_KEYS,
    DatasetSpec,
    ExperimentConfig,
    build_datasets,
    config_from_values,
    load_config,
    parse_config_text,
    prepare_run,
    run_experiment,
    run_round,
    run_rounds,
    summary_path,
)
from airvote.learner import SoftmaxRegression, TrainingConfig
from airvote.phy import PhyConfig, encode_signs
from conftest import _sign_split_dataset

JSONL_KEYS = ["round", "test_accuracy", "test_loss", "mean_power", "vote_agreement", "empirical_perr"]


def small_config(scheme="fsk_mv_dpc", seed=0, **overrides):
    base = dict(
        scheme=scheme,
        training=TrainingConfig(
            learning_rate=0.01, batch_size=16, rounds=10, num_devices=4
        ),
        channel=ChannelConfig(noise_var=0.5),
        phy=PhyConfig(num_subcarriers=16, num_symbols=2),
        dataset=DatasetSpec(samples=400, test_samples=100, input_dim=6, classes=3),
        eval_every=5,
        master_seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Setup pieces
# ---------------------------------------------------------------------------

def test_prepare_run_counts_frames():
    # softmax regression has (input_dim + 1) x classes parameters; every
    # frame, the padded last one too, carries 16 coordinates
    phy = PhyConfig(num_subcarriers=16, num_symbols=2)
    for (input_dim, classes), frames in [((6, 3), 2), ((15, 2), 2), ((10, 3), 3), ((1, 2), 1)]:
        state = prepare_run(small_config(phy=phy, dataset=DatasetSpec(
            samples=400, test_samples=100, input_dim=input_dim, classes=classes)))
        assert phy.num_frames(state.predictor.num_params) == frames
        assert phy.frame_coordinates == 16 and (phy.num_symbols, phy.num_subcarriers) == (2, 16)


def test_synthetic_train_test_share_class_means():
    train, test = build_datasets(DatasetSpec(samples=3000, test_samples=1000, input_dim=8), 5)
    assert len(train) == 3000 and len(test) == 1000
    for label in range(10):
        mu_train = train.features[train.labels == label].mean(axis=0)
        mu_test = test.features[test.labels == label].mean(axis=0)
        assert np.linalg.norm(mu_train - mu_test) < 1.0


@pytest.mark.parametrize("largest", ["samples", "test_samples", "input_dim"])
def test_synthetic_dataset_beyond_physical_memory_is_rejected_naming_its_largest_size(largest):
    # 10**12 rows or features hold 8 TB or more; building the spec allocates nothing
    with pytest.raises(ValueError, match=f"^{largest} makes the synthetic dataset .* more than physical memory$"):
        DatasetSpec(**{largest: 10**12})
    DatasetSpec(kind="mnist", input_dim=10**12)  # IDX files set their own image size


def test_prepare_run_rejects_oversized_batch():
    config = small_config()
    config.training.batch_size = 101  # shards hold 100 samples each
    with pytest.raises(ValueError, match=r"smallest shard \(100 samples, device 0\)"):
        prepare_run(config)


# ---------------------------------------------------------------------------
# Round loop behaviour
# ---------------------------------------------------------------------------

def test_record_count_matches_eval_schedule():
    metrics, _ = run_rounds(small_config())
    # baseline + rounds 5 and 10 = rounds/eval_every + 1
    assert [m.round for m in metrics] == [0, 5, 10]


def test_final_round_always_recorded():
    metrics, _ = run_rounds(small_config(eval_every=4))
    assert [m.round for m in metrics] == [0, 4, 8, 10]


def test_run_rounds_deterministic():
    a_metrics, a_state = run_rounds(small_config(seed=3))
    b_metrics, b_state = run_rounds(small_config(seed=3))
    assert [m.to_record() for m in a_metrics] == [m.to_record() for m in b_metrics]
    assert a_state.model.tobytes() == b_state.model.tobytes()
    c_metrics, _ = run_rounds(small_config(seed=4))
    assert [m.to_record() for m in c_metrics] != [m.to_record() for m in a_metrics]


def test_ideal_scheme_agreement_is_exact():
    metrics, _ = run_rounds(small_config(scheme="ideal_signsgd_mv"))
    for record in metrics[1:]:
        assert record.vote_agreement == 1.0
        assert 0.0 <= record.empirical_perr <= 1.0


def test_power_columns_by_scheme():
    metrics, _ = run_rounds(small_config(scheme="fsk_mv"))
    assert all(m.mean_power == 1.0 for m in metrics)
    metrics, _ = run_rounds(small_config(scheme="fsk_mv_dpc"))
    powers = [m.mean_power for m in metrics]
    assert powers[0] == 1.0
    assert all(b >= a for a, b in zip(powers, powers[1:]))
    assert powers[-1] >= 1.0


def test_fedavg_has_no_vote_metrics():
    metrics, _ = run_rounds(small_config(scheme="fedavg_ideal"))
    for record in metrics:
        assert record.vote_agreement is None
        assert record.empirical_perr is None


def test_power_cap_respected():
    config = small_config(scheme="fsk_mv_dpc", phy=PhyConfig(16, 2, power_cap=1.5))
    config.training.rounds = 8
    _, state = run_rounds(config)
    assert np.all(state.powers <= 1.5 + 1e-12)


def test_pipeline_votes_match_ideal_votes_in_clean_channel(monkeypatch, low_rng):
    # Unit randomization symbols, unit gains, no noise, unit powers: the
    # AirComp vote stream must equal the perfect majority-vote stream bit
    # for bit.
    monkeypatch.setattr(
        analysis, "encode_signs",
        lambda signs, device_rngs: encode_signs(signs, [low_rng] * len(device_rngs)),
    )
    clean = dict(channel=ChannelConfig(noise_var=0.0, fading="none"))
    config_air = small_config(scheme="fsk_mv", seed=11, **clean)
    config_ideal = small_config(scheme="ideal_signsgd_mv", seed=11)
    config_air.training.rounds = 20
    config_ideal.training.rounds = 20
    _, state_air, votes_air = run_rounds(config_air, record_votes=True)
    _, state_ideal, votes_ideal = run_rounds(config_ideal, record_votes=True)
    assert len(votes_air) == 20
    for va, vi in zip(votes_air, votes_ideal):
        np.testing.assert_array_equal(va, vi)
    np.testing.assert_array_equal(state_air.model, state_ideal.model)


def test_round_kernel_block_size_does_not_change_votes(monkeypatch):
    # 21 parameters over 8-coordinate frames: 3 frames per round, the last
    # one padded; one frame per kernel block against all frames in one.
    config = small_config(scheme="fsk_mv_dpc", seed=5, phy=PhyConfig(16, 1))
    config.training.rounds = 4
    _, state, votes = run_rounds(config, record_votes=True)
    assert config.phy.num_frames(state.predictor.num_params) == 3
    monkeypatch.setattr(analysis, "BLOCK_BYTES", 1)
    _, blocked_state, blocked_votes = run_rounds(config, record_votes=True)
    for whole, blocked in zip(votes, blocked_votes):
        np.testing.assert_array_equal(whole, blocked)
    np.testing.assert_array_equal(state.powers, blocked_state.powers)


def test_nonfinite_gradient_error_names_round_and_device():
    dataset, shards = _sign_split_dataset()
    predictor = SoftmaxRegression(3, 2)
    weights = np.zeros(predictor.num_params)
    weights[0] = np.inf
    state = experiment.RunState(weights, np.ones(3), predictor, dataset, dataset, shards)
    config = small_config(scheme="ideal_signsgd_mv")
    config.training = TrainingConfig(batch_size=4, rounds=20, num_devices=3)
    with pytest.raises(FloatingPointError, match="round 17: non-finite gradient on device 2$"):
        run_round(state, config, 17)


def test_fedavg_smoothed_train_loss_non_increasing():
    config = small_config(scheme="fedavg_ideal", seed=2)
    config.training.rounds = 200
    config.training.learning_rate = 0.05
    state = prepare_run(config)
    state = replace(state, test=state.train)  # track train loss
    losses = []
    for round_idx in range(200):
        state, metrics = run_round(state, replace(config, eval_every=1), round_idx)
        losses.append(metrics.test_loss)
    smoothed = np.convolve(losses, np.ones(10) / 10.0, mode="valid")
    assert np.all(np.diff(smoothed) <= 1e-9)


def test_mlp_scheme_runs():
    config = small_config(scheme="fsk_mv_dpc")
    config.training.model_kind = "mlp"
    config.training.hidden_units = 4
    config.training.rounds = 4
    metrics, state = run_rounds(config)
    assert state.predictor.num_params == 6 * 4 + 4 + 4 * 3 + 3
    assert metrics[-1].round == 4


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_run_experiment_files(tmp_path):
    config = small_config(seed=6, output_path=str(tmp_path / "metrics.jsonl"))
    out = run_experiment(config)
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert list(record.keys()) == JSONL_KEYS
        assert 0.0 <= record["test_accuracy"] <= 1.0
    summary = summary_path(out).read_text().splitlines()
    assert summary[0] == "scheme,final_accuracy,mean_power,total_bits,rounds,seed"
    fields = summary[1].split(",")
    assert fields[0] == "fsk_mv_dpc"
    assert fields[3] == str(2 * 4 * 21 * 10)  # 2*M*q bits over 10 rounds
    assert fields[5] == "6"


def test_failed_run_keeps_previous_output(tmp_path, monkeypatch):
    config = small_config(seed=6, output_path=str(tmp_path / "metrics.jsonl"))
    out = run_experiment(config)
    before = {path: path.read_bytes() for path in (out, summary_path(out))}

    def failing_round(state, config, round_idx):
        if round_idx == 2:
            raise RuntimeError("round 2 failed")
        return run_round(state, config, round_idx)

    monkeypatch.setattr(experiment, "run_round", failing_round)
    with pytest.raises(RuntimeError, match="round 2"):
        run_experiment(config)
    assert {path: path.read_bytes() for path in (out, summary_path(out))} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in before)


# A child that runs `run_experiment` with `run_rounds` stood in by a line on stdout and a long sleep.
_STALLED_RUN = """
import sys, time
from airvote import experiment
def stalled(config):
    print("running", flush=True)
    time.sleep(60)
experiment.run_rounds = stalled
experiment.run_experiment(experiment.ExperimentConfig(output_path=sys.argv[1]))
"""


@pytest.mark.skipif(os.name != "posix", reason="SIGKILL is POSIX")
def test_run_killed_before_its_writes_leaves_nothing(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(experiment.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-c", _STALLED_RUN, str(tmp_path / "metrics.jsonl")],
                             stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert child.stdout.readline() == "running\n"
    finally:
        child.kill()  # SIGKILL: no handler, no finally clause runs in the child
        child.communicate()
    assert child.returncode == -signal.SIGKILL
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    target = tmp_path / "metrics.jsonl"
    target.write_text("old metrics\n")
    with pytest.raises(RuntimeError, match="^write failed$"):
        with experiment._replacing(target) as sink:
            sink.write("new metrics\n")
            raise RuntimeError("write failed")
    assert target.read_text() == "old metrics\n"
    assert list(tmp_path.iterdir()) == [target]


def test_run_experiment_unwritable_path_fails_fast(tmp_path, monkeypatch):
    # A missing directory, an output path that is a directory and a summary
    # path that is a directory each fail before the first round, and every
    # file already on disk keeps its bytes.
    def no_rounds(config):
        pytest.fail("run_rounds ran before both output paths were checked")

    monkeypatch.setattr(experiment, "run_rounds", no_rounds)
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "old.jsonl").write_text("old run\n")
    (tmp_path / "metrics.jsonl").write_text("old metrics\n")
    summary_path(tmp_path / "metrics.jsonl").mkdir()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    for output, named, message in (("missing_dir/metrics.jsonl", "missing_dir/metrics.jsonl",
                                    "No such file or directory: '{}'$"),
                                   ("runs", "runs", "^output path {} is a directory$"),
                                   ("metrics.jsonl", "metrics.summary.csv", "^output path {} is a directory$")):
        with pytest.raises(OSError, match=message.format(re.escape(str(tmp_path / named)))):
            run_experiment(small_config(output_path=str(tmp_path / output)))
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

CONFIG_TEXT = """
# full example
scheme = fsk_mv
rounds = 6
devices = 3
batch_size = 10
learning_rate = 0.02
partition = non-iid
seed = 7
eval_every = 3
output = out/metrics.jsonl
dataset.kind = synthetic
dataset.samples = 120
dataset.test_samples = 40
dataset.input_dim = 5
dataset.classes = 3
dataset.separation = 3.5
channel.noise_var = 0.4
channel.sync_error_max = 0.1
channel.fading = per_frame
phy.subcarriers = 16
phy.symbols = 2
phy.power_cap = inf
"""


def test_parse_config_full(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(CONFIG_TEXT)
    config = load_config(path)
    assert config.scheme == "fsk_mv"
    assert config.training.rounds == 6
    assert config.training.num_devices == 3
    assert config.training.partition_mode == "non-iid"
    assert config.master_seed == 7
    assert config.channel.fading == "per_frame"
    assert config.channel.sync_error_max == 0.1
    assert config.phy.power_cap == math.inf
    assert config.dataset.separation == 3.5
    assert config.output_path == "out/metrics.jsonl"


def test_parse_config_defaults():
    cfg = config_from_values(parse_config_text("scheme = ideal_signsgd_mv\n"))
    assert cfg.scheme == "ideal_signsgd_mv"
    assert cfg.training.batch_size == 128
    assert cfg.eval_every == 20


def test_parse_config_rejects_unknown_key():
    # the FFT length is the constant phy.FFT_SIZE, not a config key
    for text in ("velocity = 9\n", "channel.fft_size = 64\n"):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text(text)
    # typed values, as perfbench's specs give them, skip the parser but not the key check
    with pytest.raises(ValueError, match="^unknown config key 'nope'$"):
        config_from_values({"nope": 1})


def test_parse_config_rejects_bad_value():
    with pytest.raises(ValueError, match="bad value"):
        parse_config_text("rounds = soon\n")


def test_load_config_missing_file(tmp_path):
    missing = tmp_path / "missing.toml"
    with pytest.raises(FileNotFoundError, match=re.escape(f"No such file or directory: '{missing}'")):
        load_config(missing)


def test_power_cap_value_parsed():
    values = parse_config_text("phy.power_cap = 4.5\n")
    assert config_from_values(values).phy.power_cap == 4.5


def test_config_defaults_come_from_the_dataclasses():
    assert config_from_values({}) == ExperimentConfig()


def test_every_config_key_names_a_dataclass_field():
    defaults = ExperimentConfig()
    for key, (section, name, _) in _CONFIG_KEYS.items():
        owner = getattr(defaults, section) if section else defaults
        assert name in {f.name for f in fields(owner)}, key
        # setting a key to its default changes nothing
        assert config_from_values({key: getattr(owner, name)}) == defaults, key


def test_readme_config_example_parses_and_covers_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    config_from_values(parse_config_text(block))
    documented = set(re.findall(r"^#? *([a-z_.]+) *=", block, re.M))
    assert documented == set(_CONFIG_KEYS)
