"""End-to-end univariate experiment: noisy 1-d benchmark, scale sweep, table.

Writes plot-ready CSVs (cost curve, selected points, prediction band) next to
the chosen output directory and prints the per-scale summary.
"""
import argparse
from pathlib import Path

import numpy as np

from hiersparse import SynthSpec, eval_true, fit, predict_intervals, predict_mean, sample
from hiersparse.dataio import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=600)
    ap.add_argument("--noise-frac", type=float, default=0.05,
                    help="noise sigma as a fraction of the true function range")
    ap.add_argument("--seed", type=int, default=31)
    ap.add_argument("--out-dir", default="out_univariate")
    args = ap.parse_args()

    dense = np.linspace(-500.0, 500.0, 2001)[:, None]
    f_dense = eval_true("schwefel1d", dense)
    sigma = args.noise_frac * float(f_dense.max() - f_dense.min())
    ds = sample(SynthSpec("schwefel1d", n=args.n, noise_sigma=sigma, seed=args.seed))
    print(f"n={args.n}  noise sigma={sigma:.2f}  seed={args.seed}")

    model = fit(ds, seed=args.seed)
    print(f"{'s':>3} {'epsilon_s':>12} {'l_s':>5} {'comp_s':>7} {'cost':>12} {'q':>3} {'lambda':>10}")
    for rec in model.history:
        mark = "  <-- convergence" if rec.s == model.t else ""
        lam = "-" if rec.lam is None else f"{rec.lam[0]:.3g}"
        q = "-" if rec.q is None else str(rec.q[0])
        print(f"{rec.s:>3} {rec.epsilon_s:>12.5g} {rec.l_s:>5} {rec.comp_s:>7.3f} "
              f"{rec.cost:>12.6g} {q:>3} {lam:>10}{mark}")

    grid = np.linspace(-500.0, 500.0, 1000)[:, None]
    truth = eval_true("schwefel1d", grid)
    mean = predict_mean(model, grid)
    rmse = float(np.sqrt(np.mean((mean - truth) ** 2)))
    print(f"convergence scale t={model.t}, |X_t|={len(model.C_t)}, "
          f"grid RMSE vs truth = {rmse:.3f}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ps = predict_intervals(model, ds, grid, alpha=0.05)
    write_csv(
        out / "prediction_band.csv",
        ["x_1", "true", "mean", "std", "lower", "upper"],
        np.column_stack([grid, truth, ps.mean, ps.std, ps.lower, ps.upper]),
        meta={"df_res": ps.df_res, "sigma2_hat": ps.sigma2_hat, "alpha": ps.alpha},
    )
    write_csv(
        out / "cost_curve.csv",
        ["s", "epsilon_s", "l_s", "comp_s", "cost"],
        [[r.s, r.epsilon_s, r.l_s, r.comp_s, r.cost] for r in model.history],
    )
    write_csv(out / "selected_points.csv", ["x_1"], model.X_t)
    print(f"wrote {out}/prediction_band.csv, cost_curve.csv, selected_points.csv")


if __name__ == "__main__":
    main()
