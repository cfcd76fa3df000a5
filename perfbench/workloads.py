"""The benchmark's workloads: specs built from a seed, the jobs that run
them through the airvote package, and the checks on their outputs.

A spec is a plain JSON-able dict, so a fresh process can rebuild it for the
set-up probe.  A *job* is one whole unit a user would run: a full training
(train specs) or one pass over the Monte Carlo error-probability grid (mc
specs).  A *step* is one round of a training or one grid point of a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from airvote import analysis, experiment
from airvote.learner import evaluate
from airvote.phy import mean_power

from layertrace import LayerTracer

MC_STDERR_TOLERANCE = 4.0
# Frame layout of the Monte Carlo oracles (analysis._ORACLE_SYMBOLS x
# _ORACLE_SUBCARRIERS); one trial is one coordinate pair of a frame.
MC_FRAME = (32, 64)

# The c8 acceptance config: fsk_mv_dpc over a 64 x 13 frame with timing
# offsets up to a quarter symbol.  Evaluation only after the last round, as
# in c8, so round latencies are not mixed with test-set evaluations.
_TRAIN_BASE = {
    "scheme": "fsk_mv_dpc",
    "devices": 31,
    "batch_size": 128,
    "learning_rate": 0.004,
    "partition": "iid",
    "dataset.kind": "synthetic",
    "dataset.samples": 10_000,
    "dataset.test_samples": 2_000,
    "dataset.classes": 10,
    "dataset.separation": 3.0,
    "channel.noise_var": 0.5,
    "channel.sync_error_max": 0.25,
    "phy.subcarriers": 64,
    "phy.symbols": 13,
}

ERROR_PROB_GRID = {
    "num_devices": (5, 15, 31),
    "snr": (0.5, 2.0, 8.0),
    "flip_prob": (0.05, 0.2, 0.4),
}


def _train_spec(input_dim: int, rounds: int, accuracy_floor: float, seed: int) -> dict:
    config = dict(_TRAIN_BASE, rounds=rounds, eval_every=rounds, seed=seed)
    config["dataset.input_dim"] = input_dim
    return {"kind": "train", "config": config, "accuracy_floor": accuracy_floor}


def build_spec(workload: str, seed: int) -> dict:
    """The inputs of one named workload, fully determined by the seed."""
    if workload == "train_small":
        # 410 params in one frame per round: per-device Python overhead in
        # learner and seeding dominates.  Floor is acceptance criterion c8a.
        return _train_spec(40, 200, 0.80, seed)
    if workload == "train_wide":
        # 7,850 params in 19 frames per round: the over-the-air path
        # dominates.  25 rounds let a run repeat the training about six
        # times; the floor sits under the 0.78-0.79 this length reaches.
        return _train_spec(784, 25, 0.70, seed)
    if workload == "mc_error_prob":
        # The same phy, channel and detector functions with one coordinate
        # per trial and no learner, seeding or round loop.
        return {"kind": "mc", "grid": ERROR_PROB_GRID, "trials": 20_000, "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def set_up(spec: dict):
    """Everything a job needs before its first step, built from the spec."""
    if spec["kind"] == "train":
        config = experiment.config_from_values(spec["config"])
        state = experiment.prepare_run(config)
        accuracy, loss = evaluate(state.model, state.predictor, state.test)
        baseline = experiment.RoundMetrics(0, accuracy, loss, mean_power(state.powers), None, None)
        return config, state, baseline
    grid = spec["grid"]
    return [
        (devices, snr, q, (spec["seed"], devices, int(snr * 10), int(q * 100)))
        for devices in grid["num_devices"]
        for snr in grid["snr"]
        for q in grid["flip_prob"]
    ]


@dataclass
class JobResult:
    step_seconds: list = field(default_factory=list)
    votes: int = 0            # sign votes carried over the air
    attempted: int = 0
    failed: int = 0
    fingerprint: str = ""     # digest of every output the job produced
    # (frames per step, devices per frame, symbols, subcarriers)
    frame_shape: tuple = (0, 0, 0, 0)
    trace: dict | None = None


def _finite(record: dict) -> bool:
    return all(v is None or math.isfinite(v) for v in record.values())


def run_train(spec: dict, tracer: LayerTracer | None = None) -> JobResult:
    """One full training.  Each round is one attempted operation; one more
    covers the end-of-job checks (finite records, accuracy floor)."""
    config, state, baseline = set_up(spec)
    run_round, scope = _traced(tracer, experiment.run_round, "experiment")
    records = [baseline.to_record()]
    votes = hashlib.sha256()
    result = JobResult()
    clock = time.process_time
    with scope:
        for round_idx in range(config.training.rounds):
            result.attempted += 1
            start = clock()
            try:
                state, metrics = run_round(state, config, round_idx)
            except Exception as exc:  # a failed round is counted, not fatal
                print(f"round {round_idx} raised {exc!r}")
                result.failed += 1
                break
            result.step_seconds.append(clock() - start)
            votes.update(state.last_vote.tobytes())
            if metrics is not None:
                records.append(metrics.to_record())
    params = state.predictor.num_params
    result.votes = len(result.step_seconds) * params
    phy = config.phy
    pairs = phy.num_subcarriers * phy.num_symbols // 2
    result.frame_shape = (
        math.ceil(params / pairs), config.training.num_devices, phy.num_symbols, phy.num_subcarriers
    )
    result.attempted += 1
    final_accuracy = records[-1]["test_accuracy"]
    if not (all(_finite(r) for r in records) and final_accuracy >= spec["accuracy_floor"]):
        print(f"check failed: final accuracy {final_accuracy} (floor {spec['accuracy_floor']})")
        result.failed += 1
    result.fingerprint = hashlib.sha256(
        json.dumps(records).encode() + votes.digest()
    ).hexdigest()
    return result


def run_mc(spec: dict, tracer: LayerTracer | None = None) -> JobResult:
    """One pass over the error-probability grid.  Each point is one attempted
    operation; it fails unless the estimate lies within 4 stderr of the exact
    law and below 1/2."""
    points = set_up(spec)
    mc_error_prob, scope = _traced(tracer, analysis.mc_error_prob, "analysis")
    trials = spec["trials"]
    estimates = []
    result = JobResult()
    clock = time.process_time
    with scope:
        for devices, snr, q, seed in points:
            result.attempted += 1
            start = clock()
            try:
                estimate, stderr = mc_error_prob(devices, q, snr, trials, seed=seed)
            except Exception as exc:  # a failed point is counted, not fatal
                print(f"point K={devices} snr={snr} q={q} raised {exc!r}")
                result.failed += 1
                continue
            result.step_seconds.append(clock() - start)
            estimates.append(estimate)
            exact = analysis.exact_error_prob(devices, snr, q)
            if not (abs(estimate - exact) <= MC_STDERR_TOLERANCE * stderr and estimate < 0.5):
                print(f"check failed: K={devices} snr={snr} q={q} estimate {estimate} exact {exact}")
                result.failed += 1
    result.votes = len(result.step_seconds) * trials
    # Every device count of the grid covers the same number of points.
    devices = spec["grid"]["num_devices"]
    result.frame_shape = (
        math.ceil(trials / (MC_FRAME[0] * MC_FRAME[1] // 2)), sum(devices) / len(devices), *MC_FRAME
    )
    result.fingerprint = hashlib.sha256(json.dumps(estimates).encode()).hexdigest()
    return result


def _traced(tracer: LayerTracer | None, step, layer: str):
    """The step function to call and the scope to call it in: with a tracer,
    the step is a root span and the layer functions are wrapped inside the
    scope, so set-up before it stays untraced."""
    if tracer is None:
        return step, nullcontext()
    return tracer.wrap(step, layer), tracer.installed()


def run_job(spec: dict, tracer: LayerTracer | None = None) -> JobResult:
    result = (run_train if spec["kind"] == "train" else run_mc)(spec, tracer)
    if tracer is not None:
        result.trace = tracer.summary()
    return result
