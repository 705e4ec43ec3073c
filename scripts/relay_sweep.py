#!/usr/bin/env python3
"""Sweep the relay delay of the quote-relay scenario (A2_frankenstein).

The verifier's round-trip budget equals the honest path exactly, so any
extra relay hop should tip the timing check. This prints the rejection
rate per relay setting, alongside honest runs under identical network
conditions as the false-positive control. relay=0 is the known blind
spot: an adversary with no extra hop is indistinguishable by timing.
"""

import argparse
import math
import sys

from dcea.adversary import Deployment, WorldConfig, attest_attack, attest_honest, build_world


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=20, help="trials per relay value")
    ap.add_argument(
        "--relays", default="0,1,5,10,25,40,80,160",
        help="comma-separated one-way relay delays in ms",
    )
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    try:
        relays = [float(r) for r in args.relays.split(",")]
    except ValueError:
        relays = None
    if relays is None or not all(math.isfinite(r) and r >= 0 for r in relays):
        ap.error(f"--relays must list finite delays of at least 0 ms, got {args.relays!r}")

    print(f"{'relay (ms)':>10}  {'attack rejected':>16}  {'honest accepted':>16}")
    for relay in relays:
        rejected = 0
        honest_ok = 0
        for seed in range(args.seeds):
            config = WorldConfig(seed=seed, deployment=Deployment.S2, relay_delay_ms=relay)
            attack = attest_attack(build_world(config), "A2_frankenstein")
            rejected += 0 if attack.verdict.accepted else 1
            honest = attest_honest(build_world(config))
            honest_ok += 1 if honest.verdict.accepted else 0
        print(
            f"{relay:>10.1f}  {rejected:>7}/{args.seeds:<8}  {honest_ok:>7}/{args.seeds:<8}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
