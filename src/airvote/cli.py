"""Command-line front end.

Subcommands: `train` runs an experiment from a config file; `mc-verify`
runs the Monte Carlo verification suites and prints a pass/fail table;
`bounds` evaluates the closed-form expressions; `plot-data` flattens a
metrics JSONL into a tidy CSV for external plotting.

Exit codes: 0 on success, 1 on bad arguments, invalid inputs (damaged IDX
files included), an allocation numpy refuses or a training run that
diverges, 2 on an unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import analysis
from .experiment import _replacing, load_config, run_experiment, summary_path

SUITES = (*analysis.SUITE_TABLES, "all")


def _finite_float(text: str) -> float:
    """argparse type of every float option; rejects nan and infinities."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")


def _nonnegative_int(text: str) -> int:
    """argparse type of mc-verify's --seed: numpy seeds take no sign."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="airvote", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run an experiment from a config file")
    train.add_argument("--config", required=True, help="flat key = value config file")
    train.set_defaults(run=_cmd_train)

    verify = sub.add_parser("mc-verify", help="Monte Carlo checks of the closed forms")
    verify.add_argument("--suite", default="all",
                        choices=SUITES + tuple(analysis.SUITE_ALIASES), metavar="SUITE",
                        help=f"one of {', '.join(SUITES)}")
    verify.add_argument("--trials", type=int, default=None,
                        help="override the per-suite default trial count")
    verify.add_argument("--seed", type=_nonnegative_int, default=0)
    verify.set_defaults(run=_cmd_mc_verify)

    bounds = sub.add_parser("bounds", help="evaluate a closed-form expression")
    bounds.set_defaults(run=_cmd_bounds)
    group = bounds.add_mutually_exclusive_group(required=True)
    group.add_argument("--cost", choices=analysis.COMM_SCHEMES,
                       help="uplink bits per round for a compression scheme")
    group.add_argument("--failure-prob", type=_finite_float, metavar="GRAD_SNR",
                       help="single-device sign-flip tail bound")
    group.add_argument("--error-prob", action="store_true",
                       help="majority-vote detection error bound")
    group.add_argument("--tau", action="store_true", help="channel penalty factor")
    group.add_argument("--convergence", action="store_true",
                       help="bound on the running mean L1 gradient norm")
    bounds.add_argument("--devices", type=int, default=31)
    bounds.add_argument("--dim", type=int, default=10_000)
    bounds.add_argument("--snr", type=_finite_float, default=2.0)
    bounds.add_argument("--grad-snr", type=_finite_float, default=3.0)
    bounds.add_argument("--gamma", type=_finite_float, default=1.0)
    bounds.add_argument("--rounds", type=int, default=1000)
    bounds.add_argument("--smoothness-l1", type=_finite_float, default=1.0)
    bounds.add_argument("--sigma-l1", type=_finite_float, default=1.0)
    bounds.add_argument("--loss-gap", type=_finite_float, default=1.0)
    bounds.add_argument("--batch-size", type=int, default=1)

    plot = sub.add_parser("plot-data", help="re-emit metrics JSONL as tidy CSV")
    plot.add_argument("--input", required=True, help="metrics JSONL written by train")
    plot.add_argument("--output", required=True, help="CSV path to write")
    plot.add_argument("--scheme", default=None,
                      help="scheme label; default comes from the sibling summary CSV")
    plot.set_defaults(run=_cmd_plot_data)
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    out = run_experiment(load_config(args.config), reads=[args.config])
    print(f"wrote {out} and {summary_path(out)}")
    return 0


def _run_suite(table, trials: int | None, seed: int) -> bool:
    """Run one suite and print its table, the one text form of suite rows."""
    run, default_trials, _, title, columns, note = table
    trials = default_trials if trials is None else trials
    rows = run(trials, seed)
    lines = [[header for header, _ in columns] + ["status"]]
    lines += [[cell(r) for _, cell in columns] + ["PASS" if r["passed"] else "FAIL"] for r in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    print(title.format(trials=trials))
    for line in lines:
        print("  ".join(text.ljust(w) for text, w in zip(line, widths)))
    print()
    passed = all(r["passed"] for r in rows)
    if note and not passed:
        print(note)
    return passed


def _cmd_mc_verify(args) -> int:
    suite = analysis.SUITE_ALIASES.get(args.suite, args.suite)
    tables = list(analysis.SUITE_TABLES.values()) if suite == "all" else [analysis.SUITE_TABLES[suite]]
    floor = max(table[2] for table in tables)
    analysis._at_least(floor, trials=floor if args.trials is None else args.trials)
    ok = True
    for table in tables:
        ok = _run_suite(table, args.trials, args.seed) and ok
    print("all suites passed" if ok else "some checks failed")
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    if args.cost:
        print(analysis.comm_cost(args.cost, args.devices, args.dim))
    elif args.failure_prob is not None:
        print(analysis.failure_prob_bound(args.failure_prob))
    elif args.error_prob:
        print(analysis.error_prob_bound(args.devices, args.snr, args.grad_snr))
    elif args.tau:
        print(analysis.convergence_tau(args.devices, args.snr, args.gamma))
    else:
        print(analysis.convergence_bound(args.devices, args.snr, args.rounds, args.gamma, args.smoothness_l1,
                                         args.sigma_l1, args.loss_gap, args.batch_size))
    return 0


def _cmd_plot_data(args) -> int:
    source = Path(args.input)
    scheme = args.scheme
    if scheme is None:
        sidecar = summary_path(source)
        scheme = "unknown"
        if sidecar.exists():
            with sidecar.open() as fh:
                scheme = next(csv.DictReader(fh), {}).get("scheme")
            if scheme is None:
                raise ValueError(f"summary {sidecar} has no scheme row to label the records with")
    rows = []
    with source.open() as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                rows.append([record["round"], scheme, record["test_accuracy"]])
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{source} line {number}: not a metrics record ({exc!r})") from None
    with _replacing(Path(args.output), reads=(source, summary_path(source))) as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "scheme", "accuracy"])
        writer.writerows(rows)
    print(f"wrote {args.output} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2 in argparse, 1 here
        return 1 if exc.code else 0
    try:
        return args.run(args)
    except (OSError, ValueError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
