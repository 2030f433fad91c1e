import importlib
from pathlib import Path

import numpy as np
import pytest

from hiersparse import SynthSpec, eval_true, sample
from hiersparse.synth import FAMILY_DIMS, PROBLEMS, mesh, noise_sigma

ROOT = Path(__file__).resolve().parents[1]


class TestEvalTrue:
    def test_bohachevsky_origin_cancels(self):
        assert eval_true("bohachevsky2d", np.array([0.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_bohachevsky_unit_point(self):
        # 1 - 0.3 cos(3 pi) - 0.4 + 0.7 = 1 + 0.3 - 0.4 + 0.7
        assert eval_true("bohachevsky2d", np.array([1.0, 0.0])) == pytest.approx(1.6, rel=1e-12)

    def test_schwefel_global_minimum(self):
        assert abs(eval_true("schwefel1d", 420.9687)) < 1e-3

    def test_matrix_input(self):
        vals = eval_true("schwefel1d", np.array([[0.0], [420.9687]]))
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(418.9829)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            eval_true("rosenbrock", np.array([0.0]))


class TestSample:
    def test_noiseless_sample_is_exact(self):
        ds = sample(SynthSpec("schwefel1d", n=50, noise_sigma=0.0, seed=1))
        assert np.array_equal(ds.Y, eval_true("schwefel1d", ds.X))
        assert ds.X.shape == (50, 1)
        assert np.all((-500.0 <= ds.X) & (ds.X <= 500.0))

    def test_deterministic_per_seed(self):
        a = sample(SynthSpec("bohachevsky2d", n=30, noise_sigma=5.0, seed=9))
        b = sample(SynthSpec("bohachevsky2d", n=30, noise_sigma=5.0, seed=9))
        c = sample(SynthSpec("bohachevsky2d", n=30, noise_sigma=5.0, seed=10))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
        assert not np.array_equal(a.Y, c.Y)

    def test_noise_mean_is_centered(self):
        sigma = 3.0
        spec = SynthSpec("schwefel1d", n=100_000, noise_sigma=sigma, seed=2)
        ds = sample(spec)
        resid = ds.Y - eval_true("schwefel1d", ds.X)
        assert abs(resid.mean()) <= 4.0 * sigma / np.sqrt(spec.n)

    def test_noise_is_serially_uncorrelated(self):
        spec = SynthSpec("schwefel1d", n=10_000, noise_sigma=2.0, seed=3)
        ds = sample(spec)
        resid = ds.Y - eval_true("schwefel1d", ds.X)
        centered = resid - resid.mean()
        lag1 = float(centered[:-1] @ centered[1:] / (centered @ centered))
        assert abs(lag1) < 0.05

    def test_custom_bounds(self):
        spec = SynthSpec(
            "bohachevsky2d", n=40, noise_sigma=0.0, bounds=((0.0, 1.0), (2.0, 3.0)), seed=4
        )
        ds = sample(spec)
        assert np.all((0.0 <= ds.X[:, 0]) & (ds.X[:, 0] <= 1.0))
        assert np.all((2.0 <= ds.X[:, 1]) & (ds.X[:, 1] <= 3.0))

    def test_bounds_whose_width_overflows_are_refused(self):
        # each end finite and lo < hi, but hi - lo is inf: sampling would overflow
        with pytest.raises(ValueError, match="invalid bounds"):
            SynthSpec("schwefel1d", n=10, noise_sigma=1.0, bounds=((-1e308, 1e308),))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec("nope", n=10, noise_sigma=1.0)
        with pytest.raises(ValueError):
            SynthSpec("schwefel1d", n=1, noise_sigma=1.0)
        with pytest.raises(ValueError):
            SynthSpec("schwefel1d", n=10, noise_sigma=-1.0)
        for sigma in (np.nan, np.inf):
            with pytest.raises(ValueError):
                SynthSpec("schwefel1d", n=10, noise_sigma=sigma)
        with pytest.raises(ValueError):
            SynthSpec("schwefel1d", n=10, noise_sigma=1.0, bounds=((1.0, 0.0),))
        with pytest.raises(ValueError):
            SynthSpec("bohachevsky2d", n=10, noise_sigma=1.0, bounds=((0.0, 1.0),))


class TestProblems:
    def test_mesh_rows_run_last_axis_fastest_as_the_grid_flag(self):
        # --grid=0:1:2,10:30:3 lists x_2 fastest
        got = mesh([np.array([0.0, 1.0]), np.array([10.0, 20.0, 30.0])])
        assert np.array_equal(got, [[0, 10], [0, 20], [0, 30], [1, 10], [1, 20], [1, 30]])
        assert np.array_equal(mesh([np.array([2.0, 3.0])]), [[2.0], [3.0]])

    def test_noise_sigma_is_the_benchmark_workloads_bit_for_bit(self, monkeypatch):
        # imported as scripts/fit_fingerprint.py does; the benchmark keeps its own copy
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        for spec in (workloads.FIT1D, workloads.FIT2D, workloads.SERVE):
            assert noise_sigma(spec.family, spec.bounds, spec.noise_frac) == spec.noise_sigma()

    def test_every_row_is_a_valid_spec_of_its_family(self):
        assert set(PROBLEMS) <= set(FAMILY_DIMS)
        for family, (n, seed, bounds) in PROBLEMS.items():
            spec = SynthSpec(family, n, noise_sigma(family, bounds), bounds, seed)
            assert spec.bounds == bounds and spec.noise_sigma > 0
