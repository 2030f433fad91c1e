"""End-to-end bivariate experiment: noisy 2-d benchmark with interval surface."""
import argparse
from pathlib import Path

import numpy as np

from hiersparse import SynthSpec, eval_true, fit, predict_intervals, sample
from hiersparse.dataio import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=800)
    ap.add_argument("--noise-frac", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--half-width", type=float, default=1.0,
                    help="domain is [-w, w]^2; at w >> 1 the quadratic bowl "
                         "dwarfs the cosine ripples and the coarsest scale wins")
    ap.add_argument("--grid-side", type=int, default=30)
    ap.add_argument("--out-dir", default="out_bivariate")
    args = ap.parse_args()

    w = args.half_width
    bounds = ((-w, w), (-w, w))
    ax = np.linspace(-w, w, 101)
    mesh = np.column_stack([m.ravel() for m in np.meshgrid(ax, ax)])
    f_dense = eval_true("bohachevsky2d", mesh)
    sigma = args.noise_frac * float(f_dense.max() - f_dense.min())
    ds = sample(SynthSpec("bohachevsky2d", n=args.n, noise_sigma=sigma,
                          bounds=bounds, seed=args.seed))
    print(f"n={args.n}  noise sigma={sigma:.1f}  seed={args.seed}")

    model = fit(ds, seed=args.seed)
    print(f"{'s':>3} {'epsilon_s':>12} {'l_s':>5} {'comp_s':>7} {'cost':>12} {'q_x':>4} {'q_y':>4}")
    for rec in model.history:
        mark = "  <-- convergence" if rec.s == model.t else ""
        qx, qy = ("-", "-") if rec.q is None else (str(rec.q[0]), str(rec.q[1]))
        print(f"{rec.s:>3} {rec.epsilon_s:>12.5g} {rec.l_s:>5} {rec.comp_s:>7.3f} "
              f"{rec.cost:>12.6g} {qx:>4} {qy:>4}{mark}")

    side = args.grid_side
    gx = np.linspace(-0.9 * w, 0.9 * w, side)
    grid = np.column_stack([m.ravel() for m in np.meshgrid(gx, gx)])
    truth = eval_true("bohachevsky2d", grid)
    ps = predict_intervals(model, ds, grid, alpha=0.05)
    covered = float(np.mean((ps.lower <= truth) & (truth <= ps.upper)))
    rmse = float(np.sqrt(np.mean((ps.mean - truth) ** 2)))
    print(f"convergence t={model.t}, |X_t|={len(model.C_t)}, "
          f"grid RMSE={rmse:.2f}, 95% band coverage={covered:.3f}")

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "prediction_band.csv",
        ["x_1", "x_2", "true", "mean", "std", "lower", "upper"],
        np.column_stack([grid, truth, ps.mean, ps.std, ps.lower, ps.upper]),
        meta={"df_res": ps.df_res, "sigma2_hat": ps.sigma2_hat, "alpha": ps.alpha},
    )
    write_csv(out / "selected_points.csv", ["x_1", "x_2"], model.X_t)
    print(f"wrote {out}/prediction_band.csv, selected_points.csv")


if __name__ == "__main__":
    main()
