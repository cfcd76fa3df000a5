import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airvote.experiment import DatasetSpec, ExperimentConfig, prepare_run, run_round
from airvote.learner import TrainingConfig
from airvote.seeding import STREAM_BATCH, STREAM_CHANNEL, derive_rng, derive_rngs

MASK64 = (1 << 64) - 1


def reference_rng(master_seed, *path):
    """The generator numpy builds from the same entropy list."""
    entropy = [int(v) & MASK64 for v in (master_seed, *path)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def assert_same_stream(rng, reference):
    assert rng.bit_generator.state == reference.bit_generator.state
    assert rng.random(3).tobytes() == reference.random(3).tobytes()
    assert rng.integers(0, 2**63, size=3).tobytes() == reference.integers(0, 2**63, size=3).tobytes()


# Values of one and of two uint32 words, at the edges of both, and negatives,
# which are taken mod 2**64.
edge_values = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, -(2**40)])
values = edge_values | st.integers(-(2**64) + 1, 2**64 - 1)
paths = st.lists(values, min_size=0, max_size=5).map(tuple)


@settings(max_examples=200, deadline=None)
@given(master_seed=values, paths=st.lists(paths, min_size=1, max_size=6))
@example(master_seed=0, paths=[(), (0,), (2**32, 1, 2, 3, 4)])
@example(master_seed=-1, paths=[(STREAM_BATCH, 5, 30), (2**64 - 1,) * 5, (-7, 0)])
@example(master_seed=2**64 - 1, paths=[(STREAM_CHANNEL, 0, 0), (1, 2, 3, 4, 5)])
def test_derive_rngs_matches_seed_sequence(master_seed, paths):
    """Every row of one call, whatever its word count, is numpy's generator,
    and so is derive_rng's for the same path."""
    rngs = derive_rngs(master_seed, paths)
    assert len(rngs) == len(paths)
    for rng, path in zip(rngs, paths):
        assert_same_stream(rng, reference_rng(master_seed, *path))
    assert_same_stream(derive_rng(master_seed, *paths[0]), reference_rng(master_seed, *paths[0]))


@pytest.mark.parametrize("scheme", ["ideal_signsgd_mv", "fsk_mv_dpc"])
def test_run_round_draws_from_the_per_round_paths(monkeypatch, scheme):
    """A round derives one generator per device and, over the air only, one
    per frame, all in one call, at the paths the module docstring lists."""
    config = ExperimentConfig(
        scheme=scheme,
        training=TrainingConfig(num_devices=4, batch_size=32),
        dataset=DatasetSpec(samples=400, test_samples=40, input_dim=50),
        master_seed=2**40 + 3,
    )
    state = prepare_run(config)
    frames = config.phy.num_frames(state.predictor.num_params)
    assert frames > 1
    calls = []

    def recording(master_seed, paths):
        calls.append((master_seed, list(paths)))
        return derive_rngs(master_seed, paths)

    monkeypatch.setattr("airvote.experiment.derive_rngs", recording)
    run_round(state, config, 7)
    expected = [(STREAM_BATCH, 7, m) for m in range(4)]
    if scheme == "fsk_mv_dpc":
        expected += [(STREAM_CHANNEL, 7, f) for f in range(frames)]
    assert calls == [(config.master_seed, expected)]
