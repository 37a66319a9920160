"""Ensemble hypergradient averaging versus a single train/val split.

Tuning on one fixed split fits the hyperparameter to that split's sampling
noise. Averaging the per-split hypergradients over U resampled splits of the
same pool keeps the bilevel objective but shrinks the estimator variance, so
the tuned hyperparameter should generalize better on held-out data.

This script makes that comparison concrete. Each of --seeds independent
trials draws a fresh linear regression pool, carves a disjoint holdout, and
tunes the ridge strength twice with identical per-split inner budgets and
identical outer schedules: once on the first split alone, once averaging the
hypergradient over --U splits. Both tuned values are scored the same way, by
refitting on the full pool at the tuned strength and evaluating the squared
error on the holdout. The table reports both test losses per trial and the
ensemble's win count.

Usage:
    python3 scripts/ensemble_vs_single.py --seeds 20 --U 5
"""

import argparse
import sys

import numpy as np

from bihpo.data import DataView, SplitPlan, carve_holdout, derive_seed, \
    draw_val_sets, full_view, subset, synthetic
from bihpo.hypergrad import HypergradMethod, inner_solve
from bihpo.problems import ModelSpec, build_problem
from bihpo.strategies import OuterOptimizer, run_ehg


def refit_test_loss(prob, pool, lam, test_view, K, alpha_in):
    """Refit on the full pool at the tuned lambda and score on the holdout."""
    traj = inner_solve(prob, lam, np.zeros(prob.param_dim), full_view(pool),
                       K, alpha_in)
    return prob.outer_loss(lam, traj.final, test_view)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20, help="independent trials")
    ap.add_argument("--n", type=int, default=100, help="pool size before holdout")
    ap.add_argument("--d", type=int, default=5)
    ap.add_argument("--noise-sigma", type=float, default=0.1)
    ap.add_argument("--test-fraction", type=float, default=0.3)
    ap.add_argument("--U", type=int, default=5, help="splits in the ensemble")
    ap.add_argument("--gamma", type=float, default=0.25, help="val/train ratio")
    ap.add_argument("--K", type=int, default=60, help="inner steps per hypergradient")
    ap.add_argument("--alpha-in", type=float, default=0.1)
    ap.add_argument("--T", type=int, default=30, help="outer steps")
    ap.add_argument("--alpha-out", type=float, default=0.5)
    ap.add_argument("--refit-K", type=int, default=400, help="inner steps when scoring")
    args = ap.parse_args(argv)

    prob = build_problem(ModelSpec(kind="ridge"), args.d)
    method = HypergradMethod(kind="ITD", K=args.K, alpha_in=args.alpha_in)

    wins = 0
    rows = []
    for s in range(args.seeds):
        ds = synthetic("regression", args.n, args.d, 0, args.noise_sigma,
                       seed=derive_seed(1000, s), beta_seed=derive_seed(2000, s))
        pool_idx, test_idx = carve_holdout(args.n, args.test_fraction,
                                           derive_seed(3000, s))
        pool = subset(ds, pool_idx)
        test_view = DataView(ds, test_idx)
        vals = draw_val_sets(pool.n, SplitPlan(U=args.U, gamma=args.gamma,
                                               master_seed=derive_seed(4000, s)))
        lam0, th0 = np.zeros(1), np.zeros(args.d)

        single = run_ehg(prob, pool, vals[:1], method,
                         OuterOptimizer(kind="gd", alpha_out=args.alpha_out),
                         args.T, lam0, th0, columns=False)
        ehg = run_ehg(prob, pool, vals, method,
                      OuterOptimizer(kind="gd", alpha_out=args.alpha_out),
                      args.T, lam0, th0, columns=False)

        loss_single = refit_test_loss(prob, pool, single.final_lambda, test_view,
                                      args.refit_K, args.alpha_in)
        loss_ehg = refit_test_loss(prob, pool, ehg.final_lambda, test_view,
                                   args.refit_K, args.alpha_in)
        won = loss_ehg <= loss_single
        wins += won
        rows.append((s, loss_single, loss_ehg,
                     float(single.final_lambda[0]), float(ehg.final_lambda[0]), won))

    print(f"{'trial':>5s} {'single split':>14s} {'ensemble':>14s}"
          f" {'lam single':>11s} {'lam ens':>11s} {'winner':>8s}")
    for s, ls, le, lam_s, lam_e, won in rows:
        print(f"{s:5d} {ls:14.6f} {le:14.6f} {lam_s:11.4f} {lam_e:11.4f}"
              f" {'EHG' if won else 'single':>8s}")
    print(f"\nensemble (U={args.U}) wins {wins}/{args.seeds} trials "
          f"(ties scored for the ensemble)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
