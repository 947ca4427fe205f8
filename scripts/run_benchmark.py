#!/usr/bin/env python3
"""Run the full synthetic benchmark and print one grade row per matcher family.

Usage:
    python scripts/run_benchmark.py [--users N] [--seed N] [--sigma-between X]

Unset flags take the defaults of `bbauth.synth.GenConfig`.
"""

import argparse
import sys
import time

from bbauth.benchmark import FAMILY_TASKS, run_benchmark
from bbauth.synth import GenConfig


def main() -> int:
    defaults = GenConfig()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", type=int, default=defaults.n_users)
    parser.add_argument("--seed", type=int, default=defaults.master_seed)
    parser.add_argument("--sigma-between", type=float, default=defaults.sigma_between)
    parser.add_argument("--sigma-within", type=float, default=defaults.sigma_within)
    parser.add_argument("--alpha", type=float, default=defaults.imitation_alpha)
    parser.add_argument("--beta", type=float, default=defaults.device_bias_beta)
    args = parser.parse_args()

    config = GenConfig(
        n_users=args.users,
        n_train_users=args.users,
        sigma_between=args.sigma_between,
        sigma_within=args.sigma_within,
        imitation_alpha=args.alpha,
        device_bias_beta=args.beta,
        master_seed=args.seed,
    )
    started = time.perf_counter()
    result = run_benchmark(config)
    print(f"{'matcher':18s} {'task':10s} {'mixed':>7s} {'random':>7s} {'skilled':>8s}")
    for matcher, task in FAMILY_TASKS:
        report = result.reports[(matcher, task)]
        print(
            f"{matcher:18s} {task.value:10s} {report.auc_mixed:7.2f} "
            f"{report.auc_random:7.2f} {report.auc_skilled:8.2f}"
        )
    print(f"\ntotal {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
