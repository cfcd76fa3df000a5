"""Acceptance suite: one test per gate criterion, each printing a
pass/fail line (run with -s to see them live).

Criterion 3a is expected to fail and is left failing on purpose: the
attenuated comparison target (K*q*(1-q) + 1/snr)/(K + 2/snr) lies below
the exact error rate (K*q + 1/snr)/(K + 2/snr) of the simulated detector
by K*q^2/(K + 2/snr), which dwarfs Monte Carlo noise once q reaches 0.2.
The companion checks 3b (every estimate below 1/2) and 3c (every estimate
within 4 standard errors of the exact rate, on the same 27 runs) pin down
that the simulator, not the sampler, is what the target disagrees with.
"""

import itertools
import math
import time

import numpy as np
import pytest

from airvote.analysis import (
    ERROR_PROB_GRID,
    air_detect,
    comm_cost,
    convergence_bound,
    convergence_tau,
    run_error_prob_suite,
    run_flip_prob_suite,
    run_mean_energy_suite,
)
from airvote.channel import ChannelConfig
from airvote.detector import ideal_majority_vote
from airvote.experiment import DatasetSpec, ExperimentConfig, run_rounds
from airvote.learner import Dataset, SoftmaxRegression, TanhMlp, TrainingConfig
from airvote.phy import PhyConfig
from conftest import C10, _train_digests, finite_difference_gradient


def report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# 1. Mean received energy
# ---------------------------------------------------------------------------

def test_c1_mean_energy_grid():
    start = time.perf_counter()
    rows = run_mean_energy_suite(trials=100_000, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(r["rel_err"] for r in rows)
    ok = all(r["passed"] for r in rows) and elapsed < 30.0
    report("1", ok, f"36-point energy grid, worst rel err {worst:.3%}, {elapsed:.1f}s")
    assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. Single-device flip probability vs tail bound
# ---------------------------------------------------------------------------

def test_c2_flip_probability_dominated():
    start = time.perf_counter()
    rows = run_flip_prob_suite(trials=100_000, seed=0)
    elapsed = time.perf_counter() - start
    assert [r["grad_snr"] for r in rows] == [0.2, 0.5, 1.0, 1.155, 2.0, 5.0, 20.0]
    ok = all(r["passed"] for r in rows) and elapsed < 10.0
    report("2", ok, f"7 grad_snr points, {elapsed:.1f}s")
    assert all(r["passed"] for r in rows), [r for r in rows if not r["passed"]]
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. Majority-vote error grid
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def error_prob_rows():
    start = time.perf_counter()
    rows = run_error_prob_suite(trials=10_000, seed=0)
    return rows, time.perf_counter() - start


def test_c3a_error_prob_dominance_grid(error_prob_rows):
    rows, _ = error_prob_rows
    failing = [r for r in rows if not r["passed"]]
    report(
        "3a",
        not failing,
        f"{len(rows) - len(failing)}/{len(rows)} grid points within the attenuated target "
        "(the flip-rate term of the target carries a (1-q) factor the physical detector "
        "does not have, so every q >= 0.2 point exceeds it deterministically)",
    )
    assert not failing, "\n".join(
        f"K={r['num_devices']} snr={r['snr']} q={r['flip_prob']}: "
        f"estimate {r['estimate']:.4f} (exact {r['exact']:.4f}) > "
        f"target {r['target']:.4f} + 3*stderr {3 * r['stderr']:.4f}"
        for r in failing
    )


def test_c3b_error_prob_below_half_and_runtime(error_prob_rows):
    rows, elapsed = error_prob_rows
    ok = all(r["below_half"] for r in rows) and elapsed < 120.0
    report("3b", ok, f"all 27 estimates < 1/2 for flip rates < 1/2, {elapsed:.1f}s")
    assert all(r["below_half"] for r in rows)
    assert elapsed < 120.0


@pytest.mark.parametrize(
    "point",
    list(itertools.product(*ERROR_PROB_GRID.values())),
    ids=lambda point: "K={}-snr={}-q={}".format(*point),
)
def test_c3c_error_prob_matches_exact_law_at_every_grid_point(error_prob_rows, point):
    rows, _ = error_prob_rows
    (row,) = [r for r in rows if tuple(r[name] for name in ERROR_PROB_GRID) == point]
    offset = abs(row["estimate"] - row["exact"]) / row["stderr"]
    report("3c", offset <= 4.0, "K={} snr={} q={}: estimate {:.2f} stderr from the exact law".format(*point, offset))
    assert offset <= 4.0, row
    # the attenuated target lies K*q^2/(K + 2/snr) below the exact law: the estimates still meet it at q = 0.05
    if row["flip_prob"] == 0.05:
        assert row["passed"], row


# ---------------------------------------------------------------------------
# 4. Ideal-channel oracle equivalence
# ---------------------------------------------------------------------------

def test_c4_oracle_equivalence(clean_channel_votes):
    rng = np.random.default_rng(0)
    groups = (
        # 64 patterns at (M=3, q=2)
        np.array(list(itertools.product([-1, 1], repeat=6))).reshape(-1, 3, 2),
        # 4096 patterns at (M=3, q=4)
        np.array(list(itertools.product([-1, 1], repeat=12))).reshape(-1, 3, 4),
        # random patterns at (M=31, q=10)
        rng.choice([-1, 1], size=(1000, 31, 10)),
    )
    mismatches = 0
    cases = 0
    for patterns in groups:
        votes = clean_channel_votes(patterns)
        cases += len(patterns)
        mismatches += sum(
            not np.array_equal(vote, ideal_majority_vote(signs)) for signs, vote in zip(patterns, votes)
        )

    report("4", mismatches == 0, f"{cases} sign patterns, {mismatches} mismatches")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 5. Sync-error invariance of the detection error rate
# ---------------------------------------------------------------------------

def _detection_error_rate(sync_error_max: float, trials: int, seed: int):
    """Per-coordinate error rate at 31 devices, 20% flips, snr 4.  The rng
    consumption pattern is identical for every sync_error_max, so runs with
    different offsets share sign patterns, fading, phases, and noise."""
    cfg = ChannelConfig(noise_var=0.5, sync_error_max=sync_error_max)
    rng = np.random.default_rng(seed)
    devices = 31
    phy = PhyConfig(num_subcarriers=64, num_symbols=32)
    errors = 0
    done = 0
    while done < trials:
        count = min(phy.frame_coordinates, trials - done)
        signs = np.where(rng.random((devices, count)) < 0.2, -1, 1)
        # every draw of the frame from rng: symbols device by device, then
        # the channel, then the noise; a short last frame is padded
        votes = air_detect(signs, np.ones(devices), phy, cfg, [rng] * devices, [rng]).votes
        errors += int(np.sum(votes != 1))
        done += count
    rate = errors / trials
    return rate, math.sqrt(rate * (1.0 - rate) / trials)


def test_c5_sync_error_invariance():
    trials = 100_000
    aligned, se_a = _detection_error_rate(0.0, trials, seed=42)
    offset, se_o = _detection_error_rate(0.25, trials, seed=42)
    diff = abs(aligned - offset)
    limit = 3.0 * math.sqrt(se_a**2 + se_o**2)
    ok = diff < limit
    report("5", ok, f"error rate {aligned:.4f} vs {offset:.4f} with offsets, |diff| {diff:.4f} < {limit:.4f}")
    assert diff < limit


# ---------------------------------------------------------------------------
# 6. Gradient correctness
# ---------------------------------------------------------------------------

def test_c6_gradient_vs_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        c = int(rng.integers(2, 5))
        if case < 80:
            predictor = SoftmaxRegression(d, c)
        else:
            predictor = TanhMlp(d, c, hidden_units=int(rng.integers(2, 6)))
        weights = rng.normal(scale=0.6, size=predictor.num_params)
        features = rng.normal(size=(n, d))
        labels = rng.integers(0, c, size=n)
        analytic = predictor.gradient(weights, features, labels)
        numeric = finite_difference_gradient(predictor, weights, Dataset(features, labels, c))
        err = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
        worst = max(worst, err)
    ok = worst < 1e-4
    report("6", ok, f"100 random (model, batch) pairs, worst relative error {worst:.2e}")
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# 7. Communication-cost table
# ---------------------------------------------------------------------------

def test_c7_comm_cost_table():
    assert comm_cost("signsgd_mv", 31, 10_000) == 620_000
    assert comm_cost("sgd", 1, 1) == 64
    assert comm_cost("qsgd", 31, 100) == 24_730
    for devices, dim in itertools.product((1, 5, 31, 64), (1, 10, 10_000)):
        assert comm_cost("sgd", devices, dim) == 64 * devices * dim
        assert comm_cost("signsgd_mv", devices, dim) == 2 * devices * dim
        expected = math.ceil((2 + math.log2(2 * devices + 1)) * devices * dim)
        assert comm_cost("qsgd", devices, dim) == expected
        assert comm_cost("terngrad", devices, dim) == expected
    report("7", True, "64MD / ceil((2+log2(2M+1))MD) / 2MD reproduced; signsgd_mv(31, 1e4) = 620000")


# ---------------------------------------------------------------------------
# 8. Desk-scale training trends
# ---------------------------------------------------------------------------

def _training_config(scheme, seed, sync_error):
    return ExperimentConfig(
        scheme=scheme,
        training=TrainingConfig(
            learning_rate=0.004, batch_size=128, rounds=200, num_devices=31
        ),
        channel=ChannelConfig(noise_var=0.5, sync_error_max=sync_error),  # snr 4 at unit power
        phy=PhyConfig(num_subcarriers=64, num_symbols=13),
        dataset=DatasetSpec(
            samples=10_000, test_samples=2_000, input_dim=40, classes=10, separation=3.0
        ),
        eval_every=200,
        master_seed=seed,
    )


@pytest.fixture(scope="module")
def training_runs():
    variants = {
        "ideal": ("ideal_signsgd_mv", 0.0),
        "fedavg": ("fedavg_ideal", 0.0),
        "fsk": ("fsk_mv", 0.25),
        "dpc": ("fsk_mv_dpc", 0.25),
        "dpc_aligned": ("fsk_mv_dpc", 0.0),
    }
    start = time.perf_counter()
    results = {}
    for name, (scheme, sync) in variants.items():
        finals = []
        for seed in range(5):
            metrics, _ = run_rounds(_training_config(scheme, seed, sync))
            finals.append(metrics[-1].test_accuracy)
        results[name] = finals
    return results, time.perf_counter() - start


def test_c8a_all_schemes_above_80_percent(training_runs):
    results, _ = training_runs
    lows = {name: min(accs) for name, accs in results.items() if name != "dpc_aligned"}
    ok = all(low > 0.80 for low in lows.values())
    report("8a", ok, f"minimum final accuracy per scheme over 5 seeds: {lows}")
    assert all(low > 0.80 for low in lows.values()), lows


def test_c8b_power_control_not_worse_than_plain_fsk(training_runs):
    results, _ = training_runs
    dpc = float(np.median(results["dpc"]))
    fsk = float(np.median(results["fsk"]))
    ok = dpc >= fsk - 0.005
    report("8b", ok, f"median dpc {dpc:.4f} vs fsk {fsk:.4f} under 0.25-sample offsets")
    assert dpc >= fsk - 0.005


def test_c8c_ideal_vote_bounds_aircomp(training_runs):
    results, _ = training_runs
    ideal = float(np.median(results["ideal"]))
    fsk = float(np.median(results["fsk"]))
    dpc = float(np.median(results["dpc"]))
    ok = ideal >= fsk and ideal >= dpc
    report("8c", ok, f"median ideal {ideal:.4f} vs fsk {fsk:.4f}, dpc {dpc:.4f}")
    assert ideal >= fsk and ideal >= dpc


def test_c8d_sync_robustness_and_runtime(training_runs):
    results, elapsed = training_runs
    gap = abs(np.median(results["dpc"]) - np.median(results["dpc_aligned"]))
    ok = gap < 0.01 and elapsed < 600.0
    report("8d", ok, f"dpc accuracy gap from 0.25-sample offsets {gap:.4f} < 0.01, {elapsed:.0f}s")
    assert gap < 0.01
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 9. Convergence-rate evaluator
# ---------------------------------------------------------------------------

def test_c9_convergence_evaluator():
    tau = convergence_tau(31, 2.0, 1.0)
    assert tau == pytest.approx(1.03226, abs=1e-5)

    def params(**overrides):
        base = dict(num_devices=31, snr=2.0, rounds=500, gamma=2.0,
                    smoothness_l1=3.0, sigma_l1=1.5, loss_gap=2.0)
        base.update(overrides)
        return base

    ratio = convergence_bound(**params(rounds=1000)) / convergence_bound(**params(rounds=500))
    assert ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    for lo, hi in [(0.5, 1.0), (1.0, 4.0), (4.0, 64.0)]:
        assert convergence_bound(**params(snr=hi)) < convergence_bound(**params(snr=lo))
    for lo, hi in [(0.5, 1.0), (1.0, 4.0)]:
        assert convergence_bound(**params(sigma_l1=hi)) > convergence_bound(**params(sigma_l1=lo))

    report("9", True, f"tau(snr=2, K=31, gamma=1) = {tau:.6f}; 1/sqrt(N) scaling and monotonicity hold")


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------

def test_c10_train_runs_byte_identical(tmp_path):
    digests = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        digests.append(_train_digests(tmp_path / run, scheme="fsk_mv_dpc", **C10))  # (metrics JSONL, summary CSV)
    ok = digests[0] == digests[1]
    report("10", ok, "repeated train runs with one config and seed are byte-identical")
    assert ok
