"""Print one digest line per benchmark fit and per CLI pipeline, to check
that a change moves no bit.

The 19 fits are the benchmark's own problems, built from the specs in
``perfbench/workloads.py``: ``fit2d`` at seeds 41 and 1041, ``fit1d`` at
seed 31, and the 16 ``serve_cli`` datasets at seeds 11 + 100000 i, fit
with the data seed as ``hiersparse fit --synth`` does.  Each line holds
two digests:

- ``fit``: the bytes of ``t``, ``Q_t``, ``X_t``, ``Y_t``, ``C_t`` and
  ``Lambda_t`` and of every field of every ``ScaleRecord``;
- ``predict``: ``predict_mean`` and every field of ``predict_intervals`` on
  500 fixed queries.

Raw float64 bytes include the sign bit, so -0.0 and +0.0 digest apart.

Two lines follow, one per CLI pipeline (schwefel1d, and bohachevsky2d on
[-1, 1]^2).  Each runs ``cli.main`` in process, in a temporary directory:
``fit --report --export-data``, ``predict``, ``predict --ci``, and
``report`` with and without ``--data``.  Its ``cli`` digest covers every
command's stdout and the name and bytes of every file they write.

The BLAS library runs one thread unless the shell exports a count: like the
root ``conftest.py``, the script defaults ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before numpy loads, and an
exported value wins.  A thread count changes the order of floating-point
sums, so without the default the digests would depend on the shell.

Comparing two commits is one ``diff`` of this script's output at each:

    PYTHONPATH=src python3 scripts/fit_fingerprint.py > fingerprint.txt
    PYTHONPATH=src python3 scripts/fit_fingerprint.py --only fit1d-31 cli-schwefel1d
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads the BLAS library

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hiersparse as hs  # noqa: E402
from hiersparse import cli  # noqa: E402
from workloads import FIT1D, FIT2D, SERVE, SERVE_NOISE, serve_seeds  # noqa: E402

QUERIES = 500
# name -> (``fit`` flags of the pipeline's data, ``--grid`` of its predictions)
CLI_PIPELINES = {
    "cli-schwefel1d": (["--synth", "schwefel1d", "--n", "200", "--noise", "25", "--seed", "3"],
                       "-500:500:301"),
    "cli-bohachevsky2d": (["--synth", "bohachevsky2d", "--n", "300", "--noise", "0.2",
                           "--range=-1:1,-1:1", "--seed", "9"], "-1:1:25,-1:1:25"),
}


def problems() -> dict:
    """name -> (spec, dataset builder, fit seed) of every fit, in print order."""
    found = {f"fit2d-{seed}": (FIT2D, FIT2D.dataset, seed) for seed in (41, 1041)}
    found["fit1d-31"] = (FIT1D, FIT1D.dataset, 31)
    for seed in serve_seeds(11):
        found[f"serve_cli-{seed}"] = (SERVE, lambda s: hs.sample(hs.SynthSpec(
            SERVE.family, n=SERVE.n, noise_sigma=float(SERVE_NOISE), seed=s)), seed)
    return found


def _feed(digest, value) -> None:
    """Dtype, shape and raw bytes of ``value`` (None as a marker)."""
    if value is None:
        digest.update(b"None")
        return
    a = np.ascontiguousarray(value)
    digest.update(f"{a.dtype.str}{a.shape}".encode())
    digest.update(a.tobytes())


def fingerprint(name, spec, build, seed) -> str:
    dataset = build(seed)
    model = hs.fit(dataset, seed=seed)
    fitted = hashlib.blake2b(digest_size=12)
    for part in (model.t, model.Q_t, model.X_t, model.Y_t, model.C_t, model.Lambda_t):
        _feed(fitted, part)
    for rec in model.history:
        for field in dataclasses.fields(rec):
            _feed(fitted, getattr(rec, field.name))

    queries = spec.queries(np.random.default_rng(0), QUERIES)
    served = hashlib.blake2b(digest_size=12)
    _feed(served, hs.predict_mean(model, queries))
    band = hs.predict_intervals(model, dataset, queries)
    for field in dataclasses.fields(band):
        _feed(served, getattr(band, field.name))
    return (f"{name} t={model.t} Q_t={tuple(model.Q_t)} "
            f"fit={fitted.hexdigest()} predict={served.hexdigest()}")


def cli_fingerprint(name, fit_flags, grid) -> str:
    data = ["--data", "train.csv", "--has-header"]
    commands = [
        ["fit", *fit_flags, "--out", "model.json", "--report", "scales.csv",
         "--export-data", "train.csv"],
        ["predict", "--model", "model.json", f"--grid={grid}", "--out", "mean.csv"],
        ["predict", "--model", "model.json", f"--grid={grid}", "--ci", "0.05", *data,
         "--out", "band.csv"],
        ["report", "--model", "model.json", "--out-dir", "report"],
        ["report", "--model", "model.json", *data, "--out-dir", "report_data"],
    ]
    digest, home = hashlib.blake2b(digest_size=12), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths, so no output names the directory
        try:
            for argv in commands:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{name}: {' '.join(argv)} exited {code}")
                digest.update(stdout.getvalue().encode())
            files = sorted(p for p in Path(".").rglob("*") if p.is_file())
            for path in files:
                digest.update(path.as_posix().encode())
                digest.update(path.read_bytes())
        finally:
            os.chdir(home)
    return f"{name} files={len(files)} cli={digest.hexdigest()}"


def main():
    known = problems()
    names = list(known) + list(CLI_PIPELINES)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", nargs="+", choices=names, metavar="NAME",
                    help=f"lines to print (default all): {', '.join(names)}")
    args = ap.parse_args()
    for name in args.only or names:
        line = (fingerprint(name, *known[name]) if name in known
                else cli_fingerprint(name, *CLI_PIPELINES[name]))
        print(line, flush=True)


if __name__ == "__main__":
    main()
