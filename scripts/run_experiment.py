"""End-to-end experiment on one synthetic family: noisy benchmark, scale sweep, table.

Prints the per-scale summary (rank, compression, GCV cost, chosen penalty
orders and weights) and the grid RMSE and 95% band coverage against the true
function, and writes plot-ready CSVs to the output directory:
prediction_band.csv, cost_curve.csv and selected_points.csv.

bohachevsky2d runs on [-1, 1]^2, not on its package default [-100, 100]^2:
there the quadratic bowl dwarfs the cosine ripples, and with noise at 5% of
the range the coarsest scale wins.

    python scripts/run_experiment.py schwefel1d --out-dir out_schwefel1d
"""
import argparse
from pathlib import Path

import numpy as np

from hiersparse import SynthSpec, eval_true, fit, predict_intervals, sample
from hiersparse.dataio import write_csv

# family: (n, seed, bounds, prediction grid points per axis, share of the bounds it spans)
FAMILIES = {
    "schwefel1d": (600, 31, ((-500.0, 500.0),), 1000, 1.0),
    "bohachevsky2d": (800, 41, ((-1.0, 1.0),) * 2, 30, 0.9),
}


def _mesh(bounds, per_axis, share=1.0):
    """``per_axis`` points per axis over ``share`` of each interval, first axis fastest."""
    axes = [np.linspace(share * lo, share * hi, per_axis) for lo, hi in bounds]
    return np.column_stack([m.ravel() for m in np.meshgrid(*axes)])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("family", choices=FAMILIES)
    ap.add_argument("--n", type=int, help="sample size (default: the family's)")
    ap.add_argument("--seed", type=int, help="data and fit seed (default: the family's)")
    ap.add_argument("--noise-frac", type=float, default=0.05,
                    help="noise sigma as a fraction of the true function's range")
    ap.add_argument("--out-dir", help="default: out_FAMILY")
    args = ap.parse_args()
    n, seed, bounds, per_axis, share = FAMILIES[args.family]
    n = n if args.n is None else args.n
    seed = seed if args.seed is None else args.seed
    d = len(bounds)

    f_dense = eval_true(args.family, _mesh(bounds, 2001 if d == 1 else 101))
    sigma = args.noise_frac * float(f_dense.max() - f_dense.min())
    ds = sample(SynthSpec(args.family, n=n, noise_sigma=sigma, bounds=bounds, seed=seed))
    print(f"{args.family}  n={n}  noise sigma={sigma:.4g}  seed={seed}")

    model = fit(ds, seed=seed)
    print(f"{'s':>3} {'epsilon_s':>12} {'l_s':>5} {'comp_s':>7} {'cost':>12} {'q':>5}  lambda")
    for rec in model.history:
        q = ";".join(map(str, rec.q or ())) or "-"
        lam = ";".join(f"{v:.3g}" for v in (() if rec.lam is None else rec.lam)) or "-"
        mark = "  <-- convergence" if rec.s == model.t else ""
        print(f"{rec.s:>3} {rec.epsilon_s:>12.5g} {rec.l_s:>5} {rec.comp_s:>7.3f} "
              f"{rec.cost:>12.6g} {q:>5}  {lam}{mark}")

    grid = _mesh(bounds, per_axis, share)
    truth = eval_true(args.family, grid)
    ps = predict_intervals(model, ds, grid, alpha=0.05)
    rmse = float(np.sqrt(np.mean((ps.mean - truth) ** 2)))
    covered = float(np.mean((ps.lower <= truth) & (truth <= ps.upper)))
    print(f"convergence t={model.t}, |X_t|={len(model.C_t)}, "
          f"grid RMSE={rmse:.4g}, 95% band coverage={covered:.3f}")

    out = Path(args.out_dir or f"out_{args.family}")
    out.mkdir(parents=True, exist_ok=True)
    coords = [f"x_{j + 1}" for j in range(d)]
    write_csv(
        out / "prediction_band.csv",
        coords + ["true", "mean", "std", "lower", "upper"],
        np.column_stack([grid, truth, ps.mean, ps.std, ps.lower, ps.upper]),
        meta={"df_res": ps.df_res, "sigma2_hat": ps.sigma2_hat, "alpha": ps.alpha},
    )
    write_csv(
        out / "cost_curve.csv",
        ["s", "epsilon_s", "l_s", "comp_s", "cost"],
        [[r.s, r.epsilon_s, r.l_s, r.comp_s, r.cost] for r in model.history],
    )
    write_csv(out / "selected_points.csv", coords, model.X_t)
    print(f"wrote {out}/prediction_band.csv, cost_curve.csv, selected_points.csv")


if __name__ == "__main__":
    main()
