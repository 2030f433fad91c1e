"""Acceptance suite: one test per release criterion, each printing a verdict.

All seven criteria pass.  Two of them check laws of the kernel rather than
single figures:

* criterion 1, pointwise-bound part: for f in the kernel's RKHS the error
  functional E_x = K(x, .) - sum_i M_i K(x_i, .) bounds the prediction error,
  |f(x) - f|_X . M| <= ||E_x|| ||f||, with ||E_x||^2 = 1 - 2a + M^T G M and
  a = M^T R_x.  Cauchy-Schwarz gives a <= sqrt(M^T G M), so the simpler
  (1 - a)||f|| underestimates ||E_x|| ||f|| and is no bound.
* criterion 2: epsilon_s = T / M**s scales squared distances, so each step
  narrows the kernel support by 1/sqrt(M) and the numerical rank of the Gram
  matrix grows by about M**(d/2) per step.  In one dimension with M = 2 the
  sweep needs 2 log_M(1024/64) / d = 8 more scales at n=1024 than at n=64.
"""
import time

import numpy as np

from hiersparse import (
    Dataset,
    PenaltySpec,
    SynthSpec,
    eval_true,
    fit,
    gcv,
    influence_matrix,
    kernel_matrix,
    penalty_operator,
    predict_intervals,
    predict_mean,
    representer,
    sample,
    sigma2_hat,
    solve_weights,
)
from hiersparse.cli import main as cli_main
from hiersparse.synth import PROBLEMS, mesh, noise_sigma
from helpers import (
    gcv_oracle,
    influence_oracle,
    kernel_matrix_oracle,
    make_basis_problem,
    penalty_oracle,
    rel_err,
    weights_lstsq_oracle,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_theory_suite():
    start = time.perf_counter()
    failures = []
    for n, d in [(30, 1), (30, 2), (100, 1), (100, 2)]:
        # phi=1e-4 keeps cond(B)^2 * eps_machine two orders under the 1e-8
        # tolerances; the identities themselves hold for any full-rank basis
        prob = make_basis_problem(n, d, seed=100 + n + d, phi=1e-4)
        X, Y, B, eps, sel = prob["X"], prob["Y"], prob["B"], prob["eps"], prob["selected"]
        centers, l = prob["centers"], prob["l"]
        lam = np.array([0.05, 0.02, 0.01][:d])
        Q = ((1,), (1, 2))[d - 1]
        P = penalty_operator(PenaltySpec(Q=Q, Lambda=lam), centers).P
        theta = solve_weights(B, Y, P, n)
        rng = np.random.default_rng(n * d)

        # prediction as an inner product with the observations
        for _ in range(25):
            x = rng.uniform(-1, 1, size=d)
            rep = representer(x, X, B, P, eps, sel, n)
            direct = float((kernel_matrix(x, centers, eps) @ theta)[0])
            if abs(float(Y @ rep.M_lambda) - direct) > 1e-8 * (1 + abs(direct)):
                failures.append(f"representer identity n={n} d={d}")
                break

        # penalized residual splits over the unpenalized projection
        theta0 = solve_weights(B, Y, np.zeros((l, l)), n)
        lhs = float(np.sum((Y - B @ theta) ** 2))
        rhs = float(
            np.sum((Y - B @ theta0) ** 2) + np.sum((B @ theta0 - B @ theta) ** 2)
        )
        if abs(lhs - rhs) > 1e-8 * abs(rhs):
            failures.append(f"orthogonal split n={n} d={d}")

        # shrinking every weight drives the fit to the plain projection
        x_probe = rng.uniform(-1, 1, size=d)
        gaps = []
        for scale in (1e-2, 1e-4, 1e-6):
            P_s = penalty_operator(PenaltySpec(Q=Q, Lambda=lam * scale), centers).P
            rep = representer(x_probe, X, B, P_s, eps, sel, n)
            gaps.append(float(np.linalg.norm(rep.M_lambda - rep.M_zero)))
        if not (gaps[0] > gaps[1] > gaps[2]):
            failures.append(f"zero-penalty limit n={n} d={d}")

        # sup-norm bound via the influence image of the projection vector
        if d == 1:
            grid = np.linspace(X.min(), X.max(), 100)[:, None]
        else:
            ax = np.linspace(X[:, 0].min(), X[:, 0].max(), 12)
            ay = np.linspace(X[:, 1].min(), X[:, 1].max(), 12)
            grid = np.column_stack([m.ravel() for m in np.meshgrid(ax, ay)])
        reps = [representer(x, X, B, P, eps, sel, n) for x in grid]
        approx_vals = np.array([float(Y @ r.M_lambda) for r in reps])
        l1_profile = np.array([float(np.sum(np.abs(r.M_lambda))) for r in reps])
        star = int(np.argmax(l1_profile))
        um0 = influence_matrix(B, P, n) @ reps[star].M_zero
        y_inf = float(np.max(np.abs(Y)))
        ok_linf = np.max(np.abs(approx_vals)) <= np.linalg.norm(um0, 1) * y_inf + 1e-8
        ok_sand = (
            np.linalg.norm(um0, 2) <= l1_profile[star] + 1e-8
            and l1_profile[star] <= np.linalg.norm(um0, 1) + 1e-8
        )
        if not (ok_linf and ok_sand):
            failures.append(f"sup-norm sandwich n={n} d={d}")

        # pointwise error bound for functions built from the same kernel:
        # |f(x) - f|_X . M| <= sqrt(1 - 2a + M^T G M) ||f||, and by
        # Cauchy-Schwarz M^T G M >= a^2, so (1 - a)||f|| is only a lower estimate
        G = prob["G"]
        z = rng.uniform(-1, 1, size=(5, d))
        c = rng.standard_normal(5)
        f_norm = float(np.sqrt(c @ kernel_matrix(z, z, eps) @ c))
        f_at_X = kernel_matrix(X, z, eps) @ c
        for _ in range(30):
            x = rng.uniform(-1, 1, size=d)
            rep = representer(x, X, B, P, eps, sel, n)
            mgm = float(rep.M_lambda @ G @ rep.M_lambda)
            bound = np.sqrt(max(1.0 - 2.0 * rep.a + mgm, 0.0)) * f_norm
            f_x = float((kernel_matrix(x, z, eps) @ c)[0])
            err = abs(f_x - float(f_at_X @ rep.M_lambda))
            if err > bound + 1e-8 or mgm < rep.a**2 - 1e-10:
                failures.append(f"pointwise bound n={n} d={d}")
                break

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(1, "theory suite", not failures, f"elapsed={elapsed:.1f}s {failures}")


def test_criterion_2_scale_count_growth():
    # the Gram rank grows by about M**(d/2) per scale (module docstring), so
    # going from n=64 to n=1024 takes 2 log_M(1024/64) / d more scales
    M, d = 2.0, 1
    start = time.perf_counter()
    counts = {}
    for n in (64, 256, 1024):
        rng = np.random.default_rng(2024)
        X = np.linspace(0.0, 1.0, n)[:, None]
        Y = np.sin(4.0 * np.pi * X[:, 0]) + 0.05 * rng.standard_normal(n)
        model = fit(Dataset(X=X, Y=Y), M=M, seed=2)
        counts[n] = len(model.history)
    elapsed = time.perf_counter() - start

    # on the n=1024 sweep, away from the smallest ranks and from saturation
    # at n, each step multiplies the rank by M**(d/2)
    ranks = [r.l_s for r in model.history]
    ratios = [b / a for a, b in zip(ranks, ranks[1:]) if a >= 50 and b < 1024]
    step = M ** (d / 2.0)
    ratios_ok = bool(ratios) and all(abs(r / step - 1.0) <= 0.1 for r in ratios)

    expected = round(2.0 * np.log(1024 / 64) / np.log(M) / d)
    lo, hi = expected - 2, expected + 2
    spread = counts[1024] - counts[64]
    ok = lo <= spread <= hi and ratios_ok and elapsed < 120.0
    _verdict(
        2,
        "scale-count growth",
        ok,
        f"counts={counts} spread={spread} (window [{lo}, {hi}]) "
        f"rank ratios={[round(r, 3) for r in ratios]} (expected {step:.3f} +-10%) "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_3_univariate_pattern():
    start = time.perf_counter()
    n, seed, bounds = PROBLEMS["schwefel1d"]
    ds = sample(SynthSpec("schwefel1d", n, noise_sigma("schwefel1d", bounds), bounds, seed))
    model = fit(ds, seed=seed)

    last = model.history[-1].s
    interior = 0 < model.t < last
    comp_t = model.history[model.t].comp_s
    comp_ok = 0.3 <= comp_t <= 0.95

    grid = np.linspace(-500.0, 500.0, 1000)[:, None]
    truth = eval_true("schwefel1d", grid)
    rmse = lambda v: float(np.sqrt(np.mean((v - truth) ** 2)))
    rmse_t = rmse(predict_mean(model, grid))

    scale0 = fit(ds, seed=seed, max_scales=1)
    rmse_0 = rmse(predict_mean(scale0, grid))

    nearest = np.abs(grid[:, 0][:, None] - ds.X[:, 0][None, :]).argmin(axis=1)
    rmse_nn = rmse(ds.Y[nearest])

    elapsed = time.perf_counter() - start
    ok = interior and comp_ok and rmse_t < rmse_0 and rmse_t < rmse_nn and elapsed < 120.0
    _verdict(
        3,
        "univariate pattern",
        ok,
        f"t={model.t}/last={last} comp_t={comp_t:.3f} "
        f"rmse_t={rmse_t:.2f} rmse_scale0={rmse_0:.2f} rmse_nn={rmse_nn:.2f} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_4_bivariate_run_with_coverage():
    start = time.perf_counter()
    n, seed, bounds = PROBLEMS["bohachevsky2d"]
    ds = sample(SynthSpec("bohachevsky2d", n, noise_sigma("bohachevsky2d", bounds), bounds, seed))
    model = fit(ds, seed=seed)

    last = model.history[-1].s
    interior = 0 < model.t < last

    grid = mesh([np.linspace(-0.8, 0.8, 15)] * 2)
    truth = eval_true("bohachevsky2d", grid)
    ps = predict_intervals(model, ds, grid, alpha=0.05)
    coverage = float(np.mean((ps.lower <= truth) & (truth <= ps.upper)))

    elapsed = time.perf_counter() - start
    ok = interior and coverage >= 0.80 and elapsed < 300.0
    _verdict(
        4,
        "bivariate run",
        ok,
        f"t={model.t}/last={last} coverage={coverage:.3f} elapsed={elapsed:.1f}s",
    )


def test_criterion_5_sparse_model_sufficiency(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    train = tmp_path / "train.csv"
    code = cli_main(
        ["fit", "--synth", "schwefel1d", "--n", "150", "--noise", "30",
         "--seed", "13", "--out", str(model_path), "--export-data", str(train)]
    )
    assert code == 0
    out1 = tmp_path / "before.csv"
    assert cli_main(
        ["predict", "--model", str(model_path), "--grid=-450:450:64", "--out", str(out1)]
    ) == 0

    train.unlink()  # training data deleted: the sparse model must suffice

    out2 = tmp_path / "after.csv"
    assert cli_main(
        ["predict", "--model", str(model_path), "--grid=-450:450:64", "--out", str(out2)]
    ) == 0
    identical = out1.read_bytes() == out2.read_bytes()

    ci_code = cli_main(
        ["predict", "--model", str(model_path), "--grid=-450:450:64",
         "--ci", "0.05", "--data", str(train), "--out", str(tmp_path / "ci.csv")]
    )
    err = capsys.readouterr().err
    refused = ci_code != 0 and "train" in err
    _verdict(
        5,
        "sparse-model sufficiency",
        identical and refused,
        f"mean-path identical={identical} ci-refused={refused} (exit {ci_code})",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(600)
    worst = {"solve_weights": 0.0, "gcv": 0.0, "sigma2_hat": 0.0, "penalty": 0.0}

    for _ in range(20):
        n = int(rng.integers(6, 13))
        l = int(rng.integers(2, 5))
        B = rng.standard_normal((n, l))
        Y = rng.standard_normal(n)
        F = rng.standard_normal((l + 1, l)) * rng.uniform(0.1, 2.0)
        P = F.T @ F
        worst["solve_weights"] = max(
            worst["solve_weights"],
            rel_err(solve_weights(B, Y, P, n), weights_lstsq_oracle(B, Y, F, n)),
        )
        worst["gcv"] = max(
            worst["gcv"],
            abs(gcv(B, Y, P, n) - gcv_oracle(B, Y, P, n)) / (1 + gcv_oracle(B, Y, P, n)),
        )

    for trial in range(20):
        seed = 700 + trial
        local = np.random.default_rng(seed)
        n = int(local.integers(8, 13))
        X = local.uniform(0, 1, size=(n, 1))
        Y = np.sin(4 * X[:, 0]) + 0.3 * local.standard_normal(n)
        ds = Dataset(X=X, Y=Y)
        model = fit(ds, seed=seed)
        B = kernel_matrix_oracle(X, model.X_t, model.epsilon_t)
        P = penalty_oracle(model.Q_t, model.Lambda_t, model.X_t)
        U = influence_oracle(B, P, n)
        df = n - 2.0 * np.trace(U) + np.trace(U @ U.T)
        resid = Y - B @ model.C_t
        expect = float(resid @ resid) / df
        worst["sigma2_hat"] = max(
            worst["sigma2_hat"], abs(sigma2_hat(model, ds) - expect) / (1 + expect)
        )

    for trial in range(20):
        local = np.random.default_rng(800 + trial)
        l = int(local.integers(3, 13))
        d = int(local.integers(1, 4))
        pts = local.standard_normal((l, d))
        Q = tuple(int(q) for q in local.integers(1, 3, size=d))
        lam = local.uniform(0.05, 4.0, size=d)
        P = penalty_operator(PenaltySpec(Q=Q, Lambda=lam), pts).P
        ref = penalty_oracle(Q, lam, pts)
        worst["penalty"] = max(
            worst["penalty"],
            float(np.max(np.abs(P - ref)) / (1.0 + np.max(np.abs(ref)))),
        )

    ok = all(v <= 1e-9 for v in worst.values())
    _verdict(6, "oracle equivalence", ok, f"worst rel errors: {worst}")


def test_criterion_7_determinism_golden(tmp_path):
    def run_pipeline(root):
        root.mkdir()
        model = root / "model.json"
        train = root / "train.csv"
        args = [
            "fit", "--synth", "schwefel1d", "--n", "200", "--noise", "25",
            "--seed", "11", "--out", str(model), "--report", str(root / "scales.csv"),
            "--export-data", str(train),
        ]
        assert cli_main(args) == 0
        assert cli_main(
            ["predict", "--model", str(model), "--grid=-500:500:101",
             "--out", str(root / "mean.csv")]
        ) == 0
        assert cli_main(
            ["predict", "--model", str(model), "--grid=-500:500:101",
             "--ci", "0.05", "--data", str(train), "--has-header",
             "--out", str(root / "ci.csv")]
        ) == 0
        assert cli_main(
            ["report", "--model", str(model), "--out-dir", str(root / "rep"),
             "--data", str(train), "--has-header"]
        ) == 0

    run_pipeline(tmp_path / "one")
    run_pipeline(tmp_path / "two")

    mismatched = []
    files_one = sorted(p for p in (tmp_path / "one").rglob("*") if p.is_file())
    for p in files_one:
        q = tmp_path / "two" / p.relative_to(tmp_path / "one")
        if not q.exists() or p.read_bytes() != q.read_bytes():
            mismatched.append(str(p.relative_to(tmp_path / "one")))
    ok = not mismatched and len(files_one) >= 6
    _verdict(
        7,
        "determinism golden",
        ok,
        f"{len(files_one)} artifacts compared; mismatches={mismatched}",
    )
