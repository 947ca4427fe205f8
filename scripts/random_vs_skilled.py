#!/usr/bin/env python3
"""Compare random- and skilled-impostor AUC per task over several seeds.

Skilled impostors share the victim's device and imitate the victim at the
configured blending strength, so they are expected to be the harder
scenario on most tasks.

Usage:
    python scripts/random_vs_skilled.py [--seeds 42 43 44 45 46] [--alpha 0.5]
"""

import argparse
import sys
import time

from bbauth.benchmark import PRIMARY_MATCHERS, asymmetry_by_task
from bbauth.synth import GenConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 43, 44, 45, 46])
    parser.add_argument("--alpha", type=float, default=GenConfig.imitation_alpha)
    parser.add_argument("--beta", type=float, default=GenConfig.device_bias_beta)
    args = parser.parse_args()

    started = time.perf_counter()
    base = GenConfig(imitation_alpha=args.alpha, device_bias_beta=args.beta)
    means = asymmetry_by_task(tuple(args.seeds), base)

    n = len(args.seeds)
    print(f"{'task':10s} {'matcher':18s} {'random':>7s} {'skilled':>8s}  harder scenario")
    favoring = 0
    for task, matcher in PRIMARY_MATCHERS.items():
        random_auc, skilled_auc = means[task]
        harder = "skilled" if random_auc >= skilled_auc else "random"
        favoring += random_auc >= skilled_auc
        print(f"{task.value:10s} {matcher:18s} {random_auc:7.2f} {skilled_auc:8.2f}  {harder}")
    print(f"\nrandom >= skilled on {favoring}/{len(PRIMARY_MATCHERS)} tasks "
          f"({n} seeds, {time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
