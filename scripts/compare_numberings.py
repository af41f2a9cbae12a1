#!/usr/bin/env python3
"""Print a table comparing bin numberings at one channel transmission.

Shows how the choice of labeling code trades Alice-Bob bit errors against
the eavesdropper's information, for both positioning methods.

Usage: python scripts/compare_numberings.py [--t 0.95] [--bits 4] [--samples N]
"""

import argparse
import sys

from slicesec import ChannelParams, SlicingScheme, evaluate_schemes, transmit


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--t", type=float, default=0.95)
    ap.add_argument("--bits", type=int, default=4)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    try:
        params = ChannelParams(transmission=args.t, samples=args.samples, seed=args.seed)
        schemes = [
            SlicingScheme.parse(f"{pos}:{num}:{args.bits}")
            for pos in ("eqwidth", "eqprob")
            for num in ("gray", "binary", "flfsr")
        ]
    except ValueError as exc:
        ap.error(str(exc))  # exits 2

    print(f"T={args.t}  b={args.bits}  N={args.samples}  seed={args.seed}")
    print(f"{'scheme':>18} {'ber_ab':>8} {'i_ab':>8} {'i_ae':>8} {'i_be':>8} "
          f"{'dI_dir':>8} {'dI_rev':>8}")
    for r in evaluate_schemes(transmit(params), schemes):
        print(f"{str(r.scheme):>18} {r.ber_ab:8.4f} {r.i_ab:8.4f} "
              f"{r.i_ae:8.4f} {r.i_be:8.4f} {r.delta_direct:8.4f} "
              f"{r.delta_reverse:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
