"""Count d = 2 penalty-weight searches that end above a grid minimum of GCV.

For every 2-D basis problem (n in {60, 120, 200}, seeds 1-6, scales
s in {1, 2, 3, 4}: the test suite's ``make_basis_problem``) and every order
combination Q in {1, 2}^2, this runs ``optimize_lambda`` and compares its cost
with the minimum of the GCV score over a log10 grid on the box
``LOG_LAMBDA_BOUNDS`` (33 x 33 by default).  The grid is scored through one
``network._GCVSurface`` per problem and Q, whose ``at(rho).cost`` is the
``gcv`` score at Lambda = 10**rho, so the basis is factored by QR once, not
once per grid point.  A search counts as above when its cost exceeds that
minimum by more than ``--rel`` relative.  Prints each such search, then the
count out of all searches (288 with the defaults).

    PYTHONPATH=src python3 scripts/basin_sweep.py
"""
import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from hiersparse import network, optimize_lambda  # noqa: E402
from hiersparse.network import LOG_LAMBDA_BOUNDS  # noqa: E402
from helpers import make_basis_problem  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n", type=int, nargs="+", default=[60, 120, 200])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 7)))
    ap.add_argument("--scales", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--grid-side", type=int, default=33)
    ap.add_argument("--rel", type=float, default=1e-9,
                    help="relative margin above the grid minimum that counts")
    args = ap.parse_args()

    grid = np.linspace(*LOG_LAMBDA_BOUNDS, args.grid_side)
    above = total = 0
    for n, seed, s in itertools.product(args.n, args.seeds, args.scales):
        prob = make_basis_problem(n, 2, seed, s)
        B, Y, centers = prob["B"], prob["Y"], prob["centers"]
        C, R = B.T @ B, np.linalg.qr(B, mode="r")
        for q in itertools.product((1, 2), repeat=2):
            _, cost = optimize_lambda(B, Y, centers, n, q)
            surface = network._GCVSurface(B, Y, C, R, centers, n, q)
            grid_min = min(surface.at(np.array(r)).cost
                           for r in itertools.product(grid, repeat=2))
            total += 1
            if cost > grid_min * (1.0 + args.rel):
                above += 1
                print(f"n={n} seed={seed} s={s} l={B.shape[1]} q={q}: "
                      f"search {cost:.9g}, grid {grid_min:.9g} "
                      f"(+{cost / grid_min - 1.0:.2e})")
    print(f"above the grid minimum: {above} of {total}")


if __name__ == "__main__":
    main()
