"""Bias-variance anatomy of truncated hypergradient estimates.

Replicates the synthetic ridge sweep: draw R independent (dataset, split)
pairs, estimate the hypergradient at each point of a lambda grid with a
K-step unrolled estimator, and decompose the mean squared estimation error
against the closed-form oracle into variance plus squared bias. The
decomposition is an algebraic identity when the bias is measured at the
sample mean, which the printed residual column confirms to float precision.

Running it with two budgets side by side (default K = 2 and K = 200) shows
the point the sweep exists to make: at small K the truncation bias dominates
at the weakly regularized end of the grid, while at large K essentially all
remaining error is sampling variance, so averaging over more splits is the
only lever left.

Usage:
    python3 scripts/bias_variance_sweep.py --R 200 --out out/biasvar
"""

import argparse
import csv
import sys
from pathlib import Path

from bihpo.config import parse_grid
from bihpo.diagnostics import SweepDesign, bias_variance_sweep
from bihpo.errors import ConfigError
from bihpo.hypergrad import HypergradMethod


def run_sweep(design, K, grid, R, U, seed, alpha_in):
    method = HypergradMethod(kind="ITD", K=K, alpha_in=alpha_in)
    return bias_variance_sweep(design, method, grid, R=R, U=U, seed=seed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=100, help="samples per replicate dataset")
    ap.add_argument("--d", type=int, default=1, help="feature dimension")
    ap.add_argument("--noise-sigma", type=float, default=0.5)
    ap.add_argument("--gamma", type=float, default=0.25, help="val/train ratio")
    ap.add_argument("--R", type=int, default=200, help="replicates per grid point")
    ap.add_argument("--U", type=int, default=1, help="splits averaged per estimate")
    ap.add_argument("--K", type=int, nargs=2, default=[2, 200],
                    metavar=("K_SHORT", "K_LONG"), help="two unrolling budgets")
    ap.add_argument("--alpha-in", type=float, default=0.1)
    ap.add_argument("--grid", type=str, default="0.3:3:25",
                    help="lambda grid lo:hi:count (effective scale)")
    ap.add_argument("--seed", type=int, default=99)
    ap.add_argument("--out", type=str, default=None, help="directory for sweep CSVs")
    args = ap.parse_args(argv)

    try:
        grid = parse_grid(args.grid)
    except ConfigError as exc:
        ap.error(f"--grid: {exc}")
    design = SweepDesign(n=args.n, d=args.d, noise_sigma=args.noise_sigma,
                         gamma=args.gamma)

    reports = {K: run_sweep(design, K, grid, args.R, args.U, args.seed, args.alpha_in)
               for K in args.K}

    k_short, k_long = args.K
    print(f"R = {args.R} replicates, U = {args.U}, grid of {len(grid)} lambda points")
    print(f"{'lambda':>8s} | {'bias^2 K=' + str(k_short):>14s} {'var K=' + str(k_short):>12s}"
          f" | {'bias^2 K=' + str(k_long):>14s} {'var K=' + str(k_long):>12s} | {'residual':>9s}")
    for rs, rl in zip(reports[k_short].rows, reports[k_long].rows):
        resid = max(rs.identity_residual, rl.identity_residual)
        print(f"{rs.lambda_eff:8.3f} | {rs.bias_sq:14.3e} {rs.variance:12.3e}"
              f" | {rl.bias_sq:14.3e} {rl.variance:12.3e} | {resid:9.1e}")

    def worst_share(rep):
        return max(r.bias_sq / (r.bias_sq + r.variance) for r in rep.rows)

    print(f"\nlargest bias^2 share of the error: "
          f"K={k_short}: {100 * worst_share(reports[k_short]):.1f}%   "
          f"K={k_long}: {100 * worst_share(reports[k_long]):.1f}%")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for K, rep in reports.items():
            with open(out / f"sweep_K{K}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["lambda", "error", "variance", "bias_sq",
                            "identity_residual"])
                for r in rep.rows:
                    w.writerow([r.lambda_eff, r.error, r.variance, r.bias_sq,
                                r.identity_residual])
        print(f"wrote {', '.join(f'sweep_K{K}.csv' for K in reports)} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
