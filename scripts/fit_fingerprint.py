"""Print one digest line per benchmark fit, to check that a change moves no bit.

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
Comparing two commits is one ``diff`` of this script's output at each:

    PYTHONPATH=src python3 scripts/fit_fingerprint.py > fingerprint.txt
    PYTHONPATH=src python3 scripts/fit_fingerprint.py --only fit1d-31 serve_cli-11
"""
import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hiersparse as hs  # noqa: E402
from workloads import FIT1D, FIT2D, SERVE, SERVE_NOISE, serve_seeds  # noqa: E402

QUERIES = 500


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


def main():
    known = problems()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", nargs="+", choices=list(known), metavar="NAME",
                    help=f"fits to run (default all): {', '.join(known)}")
    args = ap.parse_args()
    for name in args.only or known:
        print(fingerprint(name, *known[name]), flush=True)


if __name__ == "__main__":
    main()
