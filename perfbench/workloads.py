"""The benchmark workloads and the checks on their outputs.

Every workload runs in one process that starts no threads of its own (the
BLAS thread count is pinned by ``run.py``).  ``run_workload`` returns the
end-to-end metrics; with ``traced=True`` it runs every loop a fixed number
of times instead, so the counts a tracer records repeat exactly.

Every end-to-end time is scaled to a fixed machine speed by ``speed.Speed``.
"""
from __future__ import annotations

import contextlib
import io
import math
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# called through their modules, so the wrappers a tracer installs are seen here
import hiersparse as hs
from hiersparse import cli, dataio
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-out"

MEAN_BATCH = 10_000  # points per predict_mean call
CI_BATCH = 1_000  # points per predict_intervals call
ALPHA = 0.05
BATCH_CALLS = 5  # timed predict calls of each kind per serving pass
MIN_PASSES = 3  # serving passes at least, and at least one per served model
FIT_SERVE_S = 14.0  # the fit workloads serve their model this long
SETUP_REPEATS = 5  # a fit workload generates its data this often; setup_s is the median
SERVE_MODELS = 16  # serve_cli fits and serves this many datasets per run
QUALITY_CHUNK = 10_000  # grid points per prediction call of the quality figures


@dataclass(frozen=True)
class FitSpec:
    """One synthetic fit problem; ``noise_frac`` is the noise sd over the range."""

    family: str
    n: int
    noise_frac: float
    bounds: tuple[tuple[float, float], ...]
    grid_axes: tuple[tuple[float, float, int], ...]  # criterion grid lo:hi:count
    serve_scale: int  # the default seed's winning scale t

    def dataset(self, seed: int):
        return hs.sample(hs.SynthSpec(self.family, n=self.n, noise_sigma=self.noise_sigma(),
                                      bounds=self.bounds, seed=seed))

    def noise_sigma(self) -> float:
        # noise sd = noise_frac x range of f on a dense grid (the acceptance-test rule)
        axes = [np.linspace(lo, hi, 2001 if len(self.bounds) == 1 else 101)
                for lo, hi in self.bounds]
        f = hs.eval_true(self.family, _mesh(axes))
        return self.noise_frac * float(f.max() - f.min())

    def grid(self) -> np.ndarray:
        return _mesh([np.linspace(lo, hi, count) for lo, hi, count in self.grid_axes])

    def grid_flag(self) -> str:
        return ",".join(f"{lo!r}:{hi!r}:{count}" for lo, hi, count in self.grid_axes)

    def queries(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.column_stack([rng.uniform(lo, hi, size=m) for lo, hi in self.bounds])


def _mesh(axes) -> np.ndarray:
    if len(axes) == 1:
        return axes[0][:, None]
    mesh = np.meshgrid(*axes, indexing="ij")  # same layout as the CLI's --grid
    return np.column_stack([m.ravel() for m in mesh])


FIT1D = FitSpec("schwefel1d", 600, 0.05, ((-500.0, 500.0),), ((-500.0, 500.0, 1000),), 7)
FIT2D = FitSpec("bohachevsky2d", 800, 0.05, ((-1.0, 1.0), (-1.0, 1.0)),
                ((-0.8, 0.8, 15), (-0.8, 0.8, 15)), 4)
SERVE = FitSpec("schwefel1d", 200, 0.05, ((-500.0, 500.0),), ((-500.0, 500.0, 50_000),), 7)
SERVE_NOISE = "42"  # the CLI flag value; 5% of the schwefel1d range is 41.9

DEFAULT_SEEDS = {"fit1d": 31, "fit2d": 41, "serve_cli": 11}  # the acceptance tests' seeds


# -- output checks ----------------------------------------------------------
class Ops:
    """Counts operations and the ones whose output failed a check.

    ``label`` names the kind of check; ``ok_frac`` is the share of kinds
    with no failure, so it does not depend on how many operations a
    serving window of a given machine speed gets through.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.kind_ok: dict[str, bool] = {}

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.kind_ok[label] = self.kind_ok.get(label, True) and not problems
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def ok_frac(self) -> float:
        return sum(self.kind_ok.values()) / len(self.kind_ok)


def check_fit(model, d: int) -> list[str]:
    """Finite winning cost, t = first argmin of the history costs, Q_t in {1,2}^d."""
    problems = []
    costs = np.array([rec.cost for rec in model.history], dtype=float)
    if costs.size == 0 or not np.isfinite(costs).any():
        return ["no finite cost in the scale history"]
    winner = model.history[int(np.argmin(costs))]  # argmin keeps the earliest tie
    t_cost = model.history[model.t].cost if 0 <= model.t < len(model.history) else math.nan
    if not math.isfinite(t_cost):
        problems.append(f"winning cost at t={model.t} is not finite")
    if model.t != winner.s:
        problems.append(f"t={model.t} but the first minimum cost is at s={winner.s}")
    q = tuple(model.Q_t)
    if len(q) != d or any(v not in (1, 2) for v in q):
        problems.append(f"Q_t={q} not in {{1,2}}^{d}")
    return problems


def check_predictions(mean, lower=None, upper=None, std=None) -> list[str]:
    """All finite, and lower <= mean <= upper where bounds are given."""
    problems = []
    arrays = {"mean": mean, "lower": lower, "upper": upper, "std": std}
    for name, arr in arrays.items():
        if arr is not None and not np.all(np.isfinite(arr)):
            problems.append(f"nonfinite {name}")
    if lower is not None and upper is not None and not problems:
        if not (np.all(lower <= mean) and np.all(mean <= upper)):
            problems.append("bounds out of order")
    return problems


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a CSV written by the CLI ('#' lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    body = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 else np.empty((0, 0))
    return lines[0].split(","), body


def check_csv(path, rows: int, columns: list[str] | None = None) -> list[str]:
    """Row count matches, every cell finite, and lower <= mean <= upper if present."""
    try:
        header, body = read_csv(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"{Path(path).name} unreadable: {exc}"]
    problems = []
    if body.shape[0] != rows:
        problems.append(f"{Path(path).name} has {body.shape[0]} rows, expected {rows}")
    if columns is not None and header != columns:
        problems.append(f"{Path(path).name} header {header} != {columns}")
    if not np.all(np.isfinite(body)):
        problems.append(f"{Path(path).name} has nonfinite cells")
    elif {"mean", "lower", "upper"} <= set(header):
        col = {name: body[:, header.index(name)] for name in ("mean", "lower", "upper")}
        problems += check_predictions(col["mean"], col["lower"], col["upper"])
    return problems


def fingerprint(model) -> dict:
    return {
        "t": int(model.t),
        "Q_t": [int(v) for v in model.Q_t],
        "X_t": int(model.X_t.shape[0]),
        "l_s_sum": int(sum(rec.l_s for rec in model.history)),
    }


# -- measurement helpers ----------------------------------------------------
def model_at_scale(model, dataset, s: int):
    """The sweep's sparse model at scale ``s``: the recorded centers, orders and
    weights, with the coefficients solved again on the full data.

    The winning scale moves with the data seed (t = 4 or 5 for fit2d), and a
    model's size sets its serving cost.  Serving the model at a fixed scale
    keeps the served size, and so the serving-time figures, steady across
    seeds; the quality figures use the fitted model.  At ``s == model.t``
    this is the fitted model itself.
    """
    rec = model.history[s] if s < len(model.history) else None
    if s == model.t or rec is None or rec.q is None:
        return model
    B = hs.kernel_matrix(dataset.X, rec.points, rec.epsilon_s)
    P = hs.penalty_operator(hs.PenaltySpec(rec.q, rec.lam), rec.points).P
    theta = hs.solve_weights(B, dataset.Y, P, dataset.n)
    return replace(model, t=s, epsilon_t=rec.epsilon_s, X_t=rec.points, C_t=theta,
                   Lambda_t=rec.lam, Q_t=rec.q)


def _quality(model, dataset, spec: FitSpec, ops: Ops) -> dict:
    """RMSE against the noise-free function and 95% band coverage on the grid,
    and the winning GCV cost over the realized noise variance, of a fitted model."""
    grid = spec.grid()
    # in chunks, so a large winner's cross-kernel on a big grid does not set peak RSS
    chunks = [hs.predict_intervals(model, dataset, grid[i:i + QUALITY_CHUNK], alpha=ALPHA)
              for i in range(0, len(grid), QUALITY_CHUNK)]
    mean, lower, upper, std = (np.concatenate([getattr(ps, name) for ps in chunks])
                               for name in ("mean", "lower", "upper", "std"))
    ops.record("grid intervals", check_predictions(mean, lower, upper, std))
    truth = hs.eval_true(spec.family, grid)
    noise = dataset.Y - hs.eval_true(spec.family, dataset.X)
    return {
        "rmse_truth": float(np.sqrt(np.mean((mean - truth) ** 2))),
        # dividing by the drawn noise's variance removes the seed's noise level
        "gcv_cost_rel": float(model.history[model.t].cost) / float(np.mean(noise**2)),
        "coverage": float(np.mean((lower <= truth) & (truth <= upper))),
    }


def _cli(argv: list[str]) -> int:
    """``hiersparse`` CLI in-process; its progress lines are not benchmark output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_round(speed: Speed, work: Path, grid_flag: str, rows: int, d: int, n_history: int,
              report_rows: int) -> tuple[float, list[str]]:
    """predict -> predict --ci -> report on ``work/model.json``; (seconds, problems)."""
    model, data = str(work / "model.json"), str(work / "data.csv")
    coords = [f"x_{j + 1}" for j in range(d)]
    codes, elapsed = speed.timed(lambda: [
        _cli(["predict", "--model", model, f"--grid={grid_flag}",
              "--out", str(work / "mean.csv")]),
        _cli(["predict", "--model", model, f"--grid={grid_flag}", "--ci", str(ALPHA),
              "--data", data, "--has-header", "--out", str(work / "ci.csv")]),
        _cli(["report", "--model", model, "--out-dir", str(work / "report"),
              "--data", data, "--has-header"]),
    ])
    problems = [f"exit codes {codes}"] if any(codes) else []
    problems += check_csv(work / "mean.csv", rows, coords + ["mean"])
    problems += check_csv(work / "ci.csv", rows, coords + ["mean", "std", "lower", "upper"])
    problems += check_csv(work / "report" / "cost_curve.csv", n_history)
    problems += check_csv(work / "report" / "prediction_band.csv", report_rows)
    return elapsed, problems


def _default_grid_rows(d: int) -> int:
    # cmd_report's default band grid: 200 points in 1-D, round(200**(1/d))**d above
    return 200 if d == 1 else max(2, int(round(200 ** (1.0 / d)))) ** d


def _call_times(speed: Speed, fn, check, ops: Ops, label: str) -> list[float]:
    """One untimed warm-up call, then BATCH_CALLS timed calls; every output checked."""
    times = []
    for timed in [False] + [True] * BATCH_CALLS:
        out, elapsed = speed.timed(fn)
        ops.record(label, check(out))
        if timed:
            times.append(elapsed)
    return times


def serve_loop(served, spec: FitSpec, seed: int, ops: Ops, budget_s: float,
               traced: bool) -> dict:
    """Serve (directory, model, dataset) triples in turn for ``budget_s``.

    Each pass takes the next model and times one CLI round, then
    BATCH_CALLS calls of predict_mean and of predict_intervals after one
    untimed warm-up call of each.  Spreading the samples over the whole
    window, rather than timing each kind in one block, keeps a slow spell
    of a shared machine from landing on one figure only.  Each figure is the
    median of its samples, at the reference speed of the window.  A traced
    run makes exactly max(MIN_PASSES, len(served)) passes.
    """
    d = len(spec.bounds)
    rows = int(np.prod([c for _, _, c in spec.grid_axes]))
    rng = np.random.default_rng([seed, 7])
    q_mean, q_ci = spec.queries(rng, MEAN_BATCH), spec.queries(rng, CI_BATCH)
    rounds, mean_s, ci_s = [], [], []
    start = time.perf_counter()
    with Speed(active=not traced) as speed:
        while len(rounds) < max(MIN_PASSES, len(served)) or (
            not traced and time.perf_counter() - start < budget_s
        ):
            work, model, dataset = served[len(rounds) % len(served)]
            elapsed, problems = cli_round(speed, work, spec.grid_flag(), rows, d,
                                          len(model.history), _default_grid_rows(d))
            rounds.append(elapsed)
            ops.record("cli round", problems)
            mean_s += _call_times(speed, lambda: hs.predict_mean(model, q_mean),
                                  check_predictions, ops, "predict_mean batch")
            ci_s += _call_times(
                speed, lambda: hs.predict_intervals(model, dataset, q_ci, alpha=ALPHA),
                lambda ps: check_predictions(ps.mean, ps.lower, ps.upper, ps.std),
                ops, "predict_intervals batch")
    return {
        "cli_round_s": speed.scale(statistics.median(rounds)),
        "predict_mean_pts_per_s": MEAN_BATCH / speed.scale(statistics.median(mean_s)),
        "predict_ci_pts_per_s": CI_BATCH / speed.scale(statistics.median(ci_s)),
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- workloads ----------------------------------------------------------------
def fit_workload(spec: FitSpec, seed: int, seconds: float, ops: Ops,
                 traced: bool) -> tuple[dict, dict]:
    """Fit once, and again while another fit still ends within ``seconds``;
    then serve the model at the serving scale in-process and through the CLI."""
    setups = []
    with Speed(active=not traced) as speed:
        for _ in range(1 if traced else SETUP_REPEATS):
            dataset, elapsed = speed.timed(lambda: spec.dataset(seed))
            setups.append(elapsed)
    setup_s = speed.scale(statistics.median(setups))

    fit_times = []
    start = time.perf_counter()
    with Speed(active=not traced) as speed:
        while not fit_times or (
            not traced and time.perf_counter() - start + statistics.mean(fit_times) <= seconds
        ):
            model, elapsed = speed.timed(lambda: hs.fit(dataset, seed=seed))
            fit_times.append(elapsed)
            ops.record("fit", check_fit(model, len(spec.bounds)))
    fit_s = speed.scale(statistics.median(fit_times))

    metrics = _quality(model, dataset, spec, ops)
    served = model_at_scale(model, dataset, spec.serve_scale)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        dataio.save_model(work / "model.json", served, {"seed": seed}, {"input": "perfbench"})
        dataio.export_dataset_csv(work / "data.csv", dataset)
        loaded, _, _ = dataio.load_model(work / "model.json")
        reloaded = dataio.ingest_csv(work / "data.csv", has_header=True)
        same = np.array_equal(loaded.C_t, served.C_t) and np.array_equal(reloaded.Y, dataset.Y)
        ops.record("model and data round trip", [] if same else ["reloaded values differ"])
        metrics.update(serve_loop([(work, served, dataset)], spec, seed, ops, FIT_SERVE_S,
                                  traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics["setup_s"] = setup_s
    metrics["fit_s"] = fit_s
    info = {"fingerprint": fingerprint(model), "served_scale": served.t,
            "fit_s_each": fit_times}
    return metrics, info


def serve_seeds(seed: int) -> list[int]:
    """Data seeds of the served models; the first is the workload seed itself."""
    return [seed + 100_000 * i for i in range(SERVE_MODELS)]


def _cli_fit(wd: Path, name: str, data_seed: int) -> bytes | None:
    """One set-up ``hiersparse fit``; the model file's bytes, or None if it failed."""
    code = _cli(["fit", "--synth", SERVE.family, "--n", str(SERVE.n), "--noise", SERVE_NOISE,
                 "--seed", str(data_seed), "--out", str(wd / name),
                 "--export-data", str(wd / "data.csv")])
    return (wd / name).read_bytes() if code == 0 else None


def serve_workload(seed: int, seconds: float, ops: Ops, traced: bool) -> tuple[dict, dict]:
    """Fit SERVE_MODELS datasets through the CLI in set-up (the first one twice,
    and the two model files must match byte for byte), then serve them in turn.
    The fitted models give the quality figures; their models at the serving
    scale, written to ``model.json``, are what the serving loop reads.

    A 1-D fit's time and a model's accuracy move with the data seed; the mean
    over several datasets keeps the figures steady from seed to seed.
    """
    spec = SERVE
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        served, fitted, fit_times = [], [], []
        with Speed(active=not traced) as speed:
            for i, data_seed in enumerate(serve_seeds(seed)):
                wd = work / f"m{i}"
                wd.mkdir()
                blobs = []
                for name in ("fit_a.json", "fit.json") if i == 0 else ("fit.json",):
                    blob, elapsed = speed.timed(lambda: _cli_fit(wd, name, data_seed))
                    blobs.append(blob)
                    fit_times.append(elapsed)
                if i == 0:
                    identical = blobs[0] is not None and blobs[0] == blobs[1]
                    ops.record("set-up fits", [] if identical else ["set-up model files differ"])
                fitted.append(dataio.load_model(wd / "fit.json")[0])
        setup_s = speed.scale(sum(fit_times))
        fit_s = speed.scale(statistics.mean(fit_times))

        quality = []
        for i, model in enumerate(fitted):
            wd = work / f"m{i}"
            ops.record("set-up model", check_fit(model, 1))
            dataset = dataio.ingest_csv(wd / "data.csv", has_header=True)
            quality.append(_quality(model, dataset, spec, ops))
            served_model = model_at_scale(model, dataset, spec.serve_scale)
            if served_model is model:
                shutil.copyfile(wd / "fit.json", wd / "model.json")
            else:
                dataio.save_model(wd / "model.json", served_model, {}, {"input": "perfbench"})
            served.append((wd, served_model, dataset))
        metrics = serve_loop(served, spec, seed, ops, seconds, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics.update({name: statistics.mean(q[name] for q in quality) for name in quality[0]})
    metrics.update(setup_s=setup_s, fit_s=fit_s)
    info = {"fingerprint": [fingerprint(model) for model in fitted],
            "served_scale": [model.t for _, model, _ in served],
            "fit_s_each": fit_times}
    return metrics, info


def untraced_fit_s(name: str, seed: int) -> float | None:
    """Seconds of the workload's first fit, run again with no hook installed;
    traced minus untraced is the tracing overhead.  None for fit2d, whose
    second fit of about 50 s would not fit in a run."""
    if name == "fit1d":
        dataset = FIT1D.dataset(seed)
        t0 = time.perf_counter()
        hs.fit(dataset, seed=seed)
        return time.perf_counter() - t0
    if name == "serve_cli":
        WORK_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            t0 = time.perf_counter()
            _cli_fit(work, "fit.json", serve_seeds(seed)[0])
            return time.perf_counter() - t0
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return None


def run_workload(name: str, seed: int, seconds: float, traced: bool = False):
    """(metrics, info, ops) for one workload; peak RSS is read at the end.

    ``traced`` runs every loop a fixed number of times instead of for
    ``seconds``, so the counts a tracer records repeat exactly.
    """
    WORK_DIR.mkdir(exist_ok=True)
    ops = Ops()
    if name == "serve_cli":
        metrics, info = serve_workload(seed, seconds, ops, traced)
    else:
        spec = {"fit1d": FIT1D, "fit2d": FIT2D}[name]
        metrics, info = fit_workload(spec, seed, seconds, ops, traced)
    metrics["peak_rss_mb"] = _peak_rss_mib()
    metrics["ok_frac"] = ops.ok_frac()
    return metrics, info, ops
