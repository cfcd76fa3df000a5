"""Benchmark of the airvote simulator: host time, one caller, one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's own `src/`; the run fails
(non-zero exit, no result line) when that is not possible.  Workloads, each
a batch job repeated until `--seconds` of work is measured, all jobs of a
run on the same inputs:

    train_small    the c8 acceptance config, 410 params in 1 frame per round
    train_wide     the same with input_dim 784, 7,850 params in 19 frames
                   per round, 25 rounds
    mc_error_prob  the 27-point Monte Carlo error-probability grid, 20k
                   trials per point

A step is one round (train) or one grid point (mc).  Times are CPU seconds
of this process (`time.process_time`): the work is single-threaded, and on a
shared virtual host this leaves out time the hypervisor gives to other
guests, which inflated wall time up to 2x on a 2-vCPU x86-64 guest.  That
guest also ran in fast and slow phases (a train_small round took 8.5 or
14.5 ms of CPU) whose mix changed from minute to minute.  Jobs repeat
identical work, so each step is timed as the 90th percentile of its times
over the run's jobs, its cost at the host's usual load; of the estimators
tried (per-step minimum, median, pooled percentiles) it varied least from
run to run.  With `--trace 0` the result line holds the end-to-end metrics:

    run_s        one job's steps, summed over those per-step times
    setup_s      median over fresh interpreters of import + set-up time,
                 one probe before each job
    step_ms_p50  median over the job's steps of the per-step times
    step_ms_p90  90th percentile of the same (200 rounds for train_small,
                 25 rounds and 27 points for the other two)
    votes_per_s  sign votes carried over the air per second of run_s:
                 model coordinates x rounds for train, trials for mc
    peak_rss_mb  peak resident set of this process

With `--trace 1` every layer function that `airvote.experiment` and
`airvote.analysis` import is wrapped (see layertrace.py), untraced and traced
jobs alternate, and the result line holds per-step figures: `<layer>.self_ms`
and `<layer>.calls` for each layer, `<layer>.<function>_ms` and `_calls` for
the functions listed in REPORTED_FUNCTIONS (the printed table lists every
traced function), `trace_overhead_pct` (traced over untraced run_s), frames
per step and the bytes of the step's complex arrays computed from their
shapes.  Traced times carry the wrappers' cost; use them for shares.

Every job's outputs (training records and vote vectors, or grid estimates)
must be identical across the run, traced or not.  Training must reach its
accuracy floor with finite records; every grid point must lie within 4
stderr of `analysis.exact_error_prob` and below 1/2.  Failed checks and
raised steps count into `failed` of the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("train_small", "train_wide", "mc_error_prob")
# One caller in one process.  A single BLAS thread ran train_small faster
# than the two-thread default on a 2-core host, and pinning it here keeps an
# inherited environment variable from moving the numbers.
BLAS_THREADS = 1
# Fewest jobs, and so set-up probes, per run; train_wide fits six in 30 s.
MIN_JOBS = 5

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "votes_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYERS = ("learner", "seeding", "phy", "channel", "detector", "experiment", "analysis")
REPORTED_FUNCTIONS = {
    "learner": ("compute_local_gradient", "sign_quantize", "apply_global_update",
                "full_gradient", "evaluate"),
    "seeding": ("derive_rng",),
    "phy": ("encode_signs", "update_power", "mean_power", "build_subcarrier_map"),
    "channel": ("sample_channel", "apply_sync_error", "superpose"),
    "detector": ("detect", "ideal_majority_vote", "measure_energies", "detect_votes"),
}
SHAPE_METRICS = {
    "frames_per_step": "count",
    "frames_bytes_computed": "bytes",
    "coefficients_bytes_computed": "bytes",
    "received_bytes_computed": "bytes",
}
COMPLEX_BYTES = 16  # complex128


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    for layer, functions in REPORTED_FUNCTIONS.items():
        for function in functions:
            units[f"{layer}.{function}_ms"] = "ms"
            units[f"{layer}.{function}_calls"] = "count"
    units["trace_overhead_pct"] = "%"
    units.update(SHAPE_METRICS)
    return units


def pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import airvote from this checkout's src/ and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import airvote

    if Path(airvote.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"airvote came from {airvote.__file__}, not from {SRC}")
    return airvote


def blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def host_facts() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_reported(),
    }


def probe_setup(spec: dict) -> float:
    """Set-up seconds of the spec in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def run_jobs(spec: dict, seconds: float, trace: bool):
    """Repeat jobs until the next would overrun `seconds`.  With trace, every
    second job is traced, starting with an untraced one; without, a set-up
    probe precedes each job, so probes are spread over the run like jobs."""
    import workloads
    from layertrace import LayerTracer

    jobs, walls, setup_seconds = [], [], []
    start = time.perf_counter()
    while True:
        iteration_start = time.perf_counter()
        if not trace:
            setup_seconds.append(probe_setup(spec))
        traced = trace and len(jobs) % 2 == 1
        jobs.append((traced, workloads.run_job(spec, LayerTracer() if traced else None)))
        walls.append(time.perf_counter() - iteration_start)
        enough = len(jobs) >= (2 if trace else MIN_JOBS)
        if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
            return jobs, setup_seconds


def contended_steps(results) -> list[float]:
    """Per step, the 90th percentile of its times over the run's jobs.  Jobs
    repeat identical work, so the spread of a step's times is the host's
    doing; its upper decile is the step's cost at the host's usual load."""
    if len(results) == 1:
        return list(results[0].step_seconds)
    return [
        statistics.quantiles(times, n=10, method="inclusive")[8]
        for times in zip(*(r.step_seconds for r in results))
    ]


def check_identical(jobs) -> int:
    """Number of jobs whose outputs differ from the first job's."""
    first = jobs[0][1].fingerprint
    mismatched = sum(result.fingerprint != first for _, result in jobs[1:])
    if mismatched:
        print(f"check failed: {mismatched} of {len(jobs)} jobs produced different outputs")
    return mismatched


def end_to_end_metrics(jobs, setup_seconds: list[float]) -> dict[str, float]:
    results = [result for _, result in jobs]
    steps = contended_steps(results)
    print(f"{len(results)} jobs of {len(steps)} steps, {len(setup_seconds)} set-up probes")
    return {
        "run_s": sum(steps),
        "setup_s": statistics.median(setup_seconds),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * statistics.quantiles(steps, n=10, method="inclusive")[8],
        "votes_per_s": results[0].votes / sum(steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(jobs) -> dict[str, float]:
    plain = [r for traced, r in jobs if not traced]
    traced = [r for is_traced, r in jobs if is_traced]
    steps = sum(len(r.step_seconds) for r in traced)
    totals: dict[tuple[str, str], list] = {}
    for result in traced:
        for key, (self_seconds, calls) in result.trace.items():
            entry = totals.setdefault(key, [0.0, 0])
            entry[0] += self_seconds
            entry[1] += calls
    print_trace_table(totals, steps)

    metrics = {}
    for layer in LAYERS:
        entries = [v for (lay, _), v in totals.items() if lay == layer]
        metrics[f"{layer}.self_ms"] = 1e3 * sum(v[0] for v in entries) / steps
        metrics[f"{layer}.calls"] = sum(v[1] for v in entries) / steps
    for layer, functions in REPORTED_FUNCTIONS.items():
        for function in functions:
            self_seconds, calls = totals.get((layer, function), (0.0, 0))
            metrics[f"{layer}.{function}_ms"] = 1e3 * self_seconds / steps
            metrics[f"{layer}.{function}_calls"] = calls / steps
    metrics["trace_overhead_pct"] = 100.0 * (sum(contended_steps(traced)) / sum(contended_steps(plain)) - 1.0)
    frames, devices, symbols, subcarriers = traced[0].frame_shape
    transmit = frames * devices * symbols * subcarriers * COMPLEX_BYTES
    metrics["frames_per_step"] = float(frames)
    metrics["frames_bytes_computed"] = float(transmit)
    metrics["coefficients_bytes_computed"] = float(transmit)
    metrics["received_bytes_computed"] = float(frames * symbols * subcarriers * COMPLEX_BYTES)
    return metrics


def print_trace_table(totals, steps: int):
    """Every traced function, reported or not, with its share of self time."""
    grand = sum(v[0] for v in totals.values()) or 1.0
    print(f"traced self time per step over {steps} steps:")
    for (layer, function), (self_seconds, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print(f"  {layer + '.' + function:40s} {1e3 * self_seconds / steps:10.4f} ms "
              f"{calls / steps:9.2f} calls {100 * self_seconds / grand:6.2f} %")


def measure(spec: dict, seconds: float, trace: bool) -> dict:
    """One benchmark run on a spec; returns the result object to print."""
    jobs, setup_seconds = run_jobs(spec, seconds, trace)
    if not any(r.step_seconds for _, r in jobs):
        raise SystemExit("no step completed; nothing to measure")
    mismatched = check_identical(jobs)
    attempted = sum(r.attempted for _, r in jobs) + len(jobs) - 1
    failed = sum(r.failed for _, r in jobs) + mismatched
    if trace:
        values, units = per_layer_metrics(jobs), per_layer_units()
    else:
        values, units = end_to_end_metrics(jobs, setup_seconds), END_TO_END
    for name, value in values.items():
        print(f"{name:40s} {value:16.6f} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import the airvote package from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads

    print("host " + json.dumps(host_facts()))
    result = measure(workloads.build_spec(args.workload, args.seed), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
