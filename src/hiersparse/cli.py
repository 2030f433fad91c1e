"""Command-line surface: fit, predict, report.

Exit codes: 0 success, 1 usage/input error, 2 computation error (a request too
large for memory among them).  Every run
is reproducible from (flags, seed, input file); outputs carry no wall-clock
state, so repeated invocations are byte-identical at a fixed BLAS thread
count (the thread count changes the order of floating-point sums).
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    export_dataset_csv,
    ingest_csv,
    load_model,
    read_points_csv,
    save_model,
    sha256_of,
    write_csv,
)
from .errors import (
    CSVParseError,
    DegenerateDofError,
    FitError,
    IllConditionedScaleError,
)
from .hierarchy import SparseModel, fit
from .predict import predict_intervals, predict_mean
from .synth import FAMILY_DIMS, SynthSpec, mesh, sample


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1 (argparse defaults to 2; 2 is reserved
    # here for computation failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(cast, ok, rule: str):
    """argparse ``type`` that also rejects a value outside ``rule`` (exit 1)."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


def _parse_axes(text: str, flag: str, form: str) -> list[tuple]:
    """The comma-separated entries of ``flag``, each ``form``: lo:hi with finite
    lo < hi, then an integer count >= 1 when ``form`` is lo:hi:count."""
    axes = []
    for part in text.split(","):
        bits = part.split(":")
        try:
            if len(bits) != form.count(":") + 1:
                raise ValueError
            lo, hi, counts = float(bits[0]), float(bits[1]), [int(b) for b in bits[2:]]
            if not (np.isfinite([lo, hi]).all() and lo < hi and min(counts, default=1) >= 1):
                raise ValueError
        except ValueError:
            name = flag.lstrip("-")
            raise UsageError(f"bad {name} axis {part!r} for {flag} (expected {form})") from None
        axes.append((lo, hi, *counts))
    return axes


def _parse_grid(text: str) -> np.ndarray:
    return mesh([np.linspace(*axis) for axis in _parse_axes(text, "--grid", "lo:hi:count")])


def _default_grid(model: SparseModel, per_dim: int = 200) -> np.ndarray:
    lo, hi = model.X_t.min(axis=0), model.X_t.max(axis=0)
    side = per_dim if len(lo) == 1 else max(2, int(round(per_dim ** (1.0 / len(lo)))))
    return mesh([np.linspace(*ends, side) for ends in zip(lo, hi)])


def _synth_spec_from_args(args) -> SynthSpec:
    if args.n is None or args.noise is None:
        raise UsageError("--synth requires --n and --noise")
    bounds = tuple(_parse_axes(args.range, "--range", "lo:hi")) if args.range else None
    if bounds is not None and len(bounds) != FAMILY_DIMS[args.synth]:
        raise UsageError(f"--range needs one lo:hi pair per dimension of {args.synth}")
    return SynthSpec(
        family=args.synth, n=args.n, noise_sigma=args.noise, bounds=bounds, seed=args.seed
    )


def _refuse_unread(args, flags, need: str) -> None:
    """UsageError naming the first of ``flags`` given in ``args``: without ``need``,
    nothing reads it, and a flag that would be ignored is refused."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) not in (None, False):
            raise UsageError(f"{flag} is read only with {need}")


def _load_training(args):
    """Dataset plus provenance from either --data or --synth flags."""
    if args.data and args.synth:
        raise UsageError("give either --data or --synth, not both")
    if args.data:
        _refuse_unread(args, ("--n", "--noise", "--range"), "--synth")
        dataset = ingest_csv(args.data, has_header=args.has_header)
        return dataset, {"input": str(args.data), "input_sha256": sha256_of(args.data)}
    if args.synth:
        _refuse_unread(args, ("--has-header",), "--data")
        spec = _synth_spec_from_args(args)
        dataset = sample(spec)
        descr = (
            f"synth:{spec.family}(n={spec.n},noise={spec.noise_sigma!r},"
            f"range={spec.bounds!r},seed={spec.seed})"
        )
        digest = hashlib.sha256(descr.encode()).hexdigest()
        return dataset, {"input": descr, "input_sha256": digest}
    raise UsageError("an input is required: --data FILE or --synth FAMILY")


def _read_model(path) -> SparseModel:
    try:
        return load_model(path)[0]
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise UsageError(f"{path} is not a readable model file: {exc!r}") from None


def _report_rows(model: SparseModel):
    """Per scale: s, epsilon_s, l_s, comp_s, cost, q and lambda (';'-joined,
    empty on an unfit scale) and convergent (1 on scale t, else 0)."""
    return [[rec.s, rec.epsilon_s, rec.l_s, rec.comp_s, rec.cost,
             ";".join(map(str, rec.q or ())),
             ";".join(map(str, () if rec.lam is None else rec.lam.tolist())),
             int(rec.s == model.t)] for rec in model.history]


def _write_band(path, pred) -> None:
    """Coordinates, mean, std and t-bounds, under '#' lines of df_res, sigma2_hat, alpha."""
    write_csv(
        path,
        [f"x_{j + 1}" for j in range(pred.X_m.shape[1])] + ["mean", "std", "lower", "upper"],
        np.column_stack([pred.X_m, pred.mean, pred.std, pred.lower, pred.upper]),
        meta={"df_res": pred.df_res, "sigma2_hat": pred.sigma2_hat, "alpha": pred.alpha},
    )


# the ``fit`` keywords the CLI sets, in the order the model file records them
_FIT_SETTINGS = ("T", "M", "phi", "k_extra", "seed", "max_scales")


def cmd_fit(args) -> int:
    dataset, provenance = _load_training(args)
    parameters = {name: getattr(args, name) for name in _FIT_SETTINGS}
    model = fit(dataset, **parameters)
    save_model(args.out, model, parameters, provenance)
    if args.report:
        write_csv(
            args.report,
            ["s", "epsilon_s", "l_s", "comp_s", "cost", "q", "lambda", "convergent"],
            _report_rows(model),
        )
    if args.export_data:
        export_dataset_csv(args.export_data, dataset)
    print(f"fit: n={dataset.n} d={dataset.d} scales={len(model.history)}")
    for rec in model.history:
        marker = " <- convergence" if rec.s == model.t else ""
        print(
            f"  s={rec.s:<3d} eps={rec.epsilon_s:<12.6g} l_s={rec.l_s:<6d} "
            f"comp={rec.comp_s:<8.4f} cost={rec.cost:.6g}{marker}"
        )
    print(f"model written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = _read_model(args.model)
    if args.query and args.grid:
        raise UsageError("give either --query or --grid, not both")
    if args.ci is None:
        _refuse_unread(args, ("--data",), "--ci ALPHA (intervals)")
    if not (args.query or args.data):
        _refuse_unread(args, ("--has-header",), "--query or --data")
    if args.query:
        X_m = read_points_csv(args.query, has_header=args.has_header)
    elif args.grid:
        X_m = _parse_grid(args.grid)
    else:
        raise UsageError("query points are required: --query FILE or --grid SPEC")

    if args.ci is not None:
        if not args.data:
            raise UsageError(
                "--ci needs the training data (--data FILE): interval widths use "
                "the full-data basis and residuals, which the sparse model alone "
                "does not carry"
            )
        dataset = ingest_csv(args.data, has_header=args.has_header)
        _write_band(args.out, predict_intervals(model, dataset, X_m, alpha=args.ci))
    else:
        mean = predict_mean(model, X_m)
        header = [f"x_{j + 1}" for j in range(X_m.shape[1])] + ["mean"]
        write_csv(args.out, header, np.column_stack([X_m, mean]))
    print(f"predictions for {X_m.shape[0]} points written to {args.out}")
    return 0


def cmd_report(args) -> int:
    model = _read_model(args.model)
    if args.data:  # the band comes first, so bad input leaves no file behind
        dataset = ingest_csv(args.data, has_header=args.has_header)
        X_m = _parse_grid(args.grid) if args.grid else _default_grid(model)
        alpha = 0.05 if args.alpha is None else args.alpha
        pred = predict_intervals(model, dataset, X_m, alpha=alpha)
    else:  # the grid, level and header all belong to the band
        _refuse_unread(args, ("--grid", "--alpha", "--has-header"), "--data")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # the fit report without its q and lambda columns
    write_csv(
        out_dir / "cost_curve.csv",
        ["s", "epsilon_s", "l_s", "comp_s", "cost", "convergent"],
        [row[:5] + row[7:] for row in _report_rows(model)],
    )
    d = model.X_t.shape[1]
    coord_header = [f"x_{j + 1}" for j in range(d)]
    for rec in model.history:
        write_csv(out_dir / f"selected_points_s{rec.s}.csv", coord_header, rec.points)

    if args.data:
        _write_band(out_dir / "prediction_band.csv", pred)
    else:
        print("note: prediction band skipped (needs --data for interval widths)")
    print(f"report files written to {out_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hiersparse", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    in_unit = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
    scale = _checked(float, lambda v: 0 < v < np.inf, "'auto' or a finite number > 0")
    nonnegative = _checked(int, lambda v: v >= 0, "an integer >= 0")

    p_fit = sub.add_parser("fit", help="fit a sparse model to data")
    p_fit.add_argument("--data", help="training CSV (features..., target)")
    p_fit.add_argument("--has-header", action="store_true")
    p_fit.add_argument("--synth", choices=sorted(FAMILY_DIMS),
                       help="generate a synthetic benchmark instead of reading a file")
    p_fit.add_argument("--n", type=_checked(int, lambda v: v >= 2, "an integer >= 2"),
                       help="synthetic sample size")
    p_fit.add_argument("--noise", type=_checked(float, lambda v: 0 <= v < np.inf,
                                                "a finite number >= 0"),
                       help="synthetic noise standard deviation")
    p_fit.add_argument("--range", help="synthetic bounds lo:hi[,lo:hi]")
    p_fit.add_argument("--seed", type=nonnegative, default=0)
    p_fit.add_argument("--T", type=lambda text: text if text == "auto" else scale(text),
                       default="auto", help="base squared-distance scale or 'auto'")
    p_fit.add_argument("--M", default=2.0, help="scale divisor (> 1)",
                       type=_checked(float, lambda v: 1 < v < np.inf, "a finite number > 1"))
    p_fit.add_argument("--phi", type=in_unit, default=1e-10, help="rank precision in (0,1)")
    p_fit.add_argument("--k-extra", dest="k_extra", default=8, type=nonnegative,
                       help="sketch oversampling rows")
    p_fit.add_argument("--max-scales", dest="max_scales", default=25,
                       type=_checked(int, lambda v: v >= 1, "an integer >= 1"))
    p_fit.add_argument("--out", required=True, help="model JSON path")
    p_fit.add_argument("--report", help="per-scale report CSV path")
    p_fit.add_argument("--export-data", dest="export_data",
                       help="also write the training data as CSV (useful with --synth)")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="predict from a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--query", help="CSV of query points (coordinates only)")
    p_pred.add_argument("--grid", help="query grid lo:hi:count[,lo:hi:count]")
    p_pred.add_argument("--has-header", action="store_true")
    p_pred.add_argument("--ci", type=in_unit, metavar="ALPHA",
                        help="emit std and (1-ALPHA) intervals; needs --data")
    p_pred.add_argument("--data", help="training CSV, required with --ci")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_rep = sub.add_parser("report", help="emit plot-ready CSVs from a model file")
    p_rep.add_argument("--model", required=True)
    p_rep.add_argument("--out-dir", dest="out_dir", required=True)
    p_rep.add_argument("--data", help="training CSV; enables the prediction band")
    p_rep.add_argument("--grid", help="band grid lo:hi:count[,lo:hi:count]")
    p_rep.add_argument("--alpha", type=in_unit, help="band level 1 - ALPHA (0.05); needs --data")
    p_rep.add_argument("--has-header", action="store_true")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CSVParseError, OSError) as exc:
        print(f"hiersparse: error: {exc}", file=sys.stderr)
        return 1
    except (FitError, IllConditionedScaleError, DegenerateDofError, ValueError) as exc:
        print(f"hiersparse: computation failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"hiersparse: computation failed: out of memory ({exc}); "
              "use fewer query points or a smaller input", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
