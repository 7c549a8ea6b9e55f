"""Tabulate the soft-edge law and its critical deformation on a grid."""

import argparse
import csv

import numpy as np

from spectral_edge.limitlaws import f0, f1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-min", type=float, default=-6.0)
    ap.add_argument("--t-max", type=float, default=4.0)
    ap.add_argument("--steps", type=int, default=51)
    ap.add_argument("--alpha", type=float, nargs="*", default=[-1.0, 0.0, 1.0])
    ap.add_argument("--out", default="law_table.csv")
    args = ap.parse_args()

    ts = np.linspace(args.t_min, args.t_max, args.steps)
    columns = [ts, f0(ts)] + [f1(ts, a) for a in args.alpha]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T", "f0"] + [f"f1(alpha={a:g})" for a in args.alpha])
        for row in zip(*columns):
            w.writerow([f"{v:.17g}" for v in row])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
