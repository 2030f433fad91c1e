import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hiersparse.hierarchy as hierarchy_mod
import hiersparse.network as network_mod
from hiersparse import (
    Dataset,
    DegenerateGeometryError,
    FitError,
    FittedScale,
    IllConditionedScaleError,
    SynthSpec,
    compression_ratio,
    fit,
    predict_intervals,
    predict_mean,
    sample,
)
from hiersparse.dataio import model_to_dict, save_model
from hiersparse.synth import PROBLEMS, noise_sigma


def _small_dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    Y = np.sin(6.0 * X[:, 0]) + 0.1 * rng.standard_normal(n)
    return Dataset(X=X, Y=Y)


class TestCompressionRatio:
    def test_values(self):
        assert compression_ratio(100, 100) == 0.0
        assert compression_ratio(1, 100) == 0.99
        assert compression_ratio(32, 100) == pytest.approx(0.68)

    def test_range_check(self):
        with pytest.raises(ValueError):
            compression_ratio(0, 10)
        with pytest.raises(ValueError):
            compression_ratio(11, 10)


class TestFitLoop:
    def test_reaches_full_rank_and_stops(self):
        model = fit(_small_dataset(), seed=1)
        assert model.history[-1].l_s == 40
        assert all(rec.l_s < 40 for rec in model.history[:-1])

    def test_repeated_rows_stop_at_the_distinct_point_count(self):
        rng = np.random.default_rng(0)
        X = np.repeat(rng.uniform(0.0, 1.0, 100), 2)[:, None]
        ds = Dataset(X=X, Y=np.sin(6.0 * X[:, 0]) + 0.1 * rng.standard_normal(200))
        model = fit(ds, seed=0)
        ls = [rec.l_s for rec in model.history]
        assert ls[-1] == 100 and all(l_s < 100 for l_s in ls[:-1])
        # every scale the sweep skips, up to the default cap of 25, fit on its
        # own (T = its epsilon_s, its seed): its rank is already 100, so that
        # sweep is one scale, and none beats the winner, so t, Q_t and C_t are
        # those of the uncapped sweep
        T = model.history[0].epsilon_s
        for s in range(len(ls), 25):
            alone = fit(ds, T=T / 2.0**s, seed=s)
            assert len(alone.history) == 1 and alone.history[0].l_s == 100
            assert alone.history[0].cost >= model.history[model.t].cost

    def test_rank_nondecreasing_and_comp_nonincreasing(self):
        model = fit(_small_dataset(seed=2), seed=2)
        ls = [rec.l_s for rec in model.history]
        comps = [rec.comp_s for rec in model.history]
        assert all(a <= b for a, b in zip(ls, ls[1:]))
        assert all(a >= b for a, b in zip(comps, comps[1:]))
        for rec in model.history:
            assert rec.comp_s == pytest.approx(1.0 - rec.l_s / 40)

    def test_convergence_scale_is_earliest_argmin(self):
        model = fit(_small_dataset(seed=3), seed=3)
        costs = [rec.cost for rec in model.history]
        assert model.t == int(np.argmin(costs))  # argmin returns the first min
        assert model.epsilon_t == model.history[model.t].epsilon_s

    def test_model_payload_matches_convergent_record(self):
        model = fit(_small_dataset(seed=4), seed=4)
        rec = model.history[model.t]
        assert model.X_t.shape == (rec.l_s, 1)
        assert model.C_t.shape == (rec.l_s,)
        assert np.array_equal(model.X_t, rec.points)
        assert model.Lambda_t == pytest.approx(rec.lam)
        assert model.Q_t == rec.q

    def test_sparse_representation_contained_in_data(self):
        ds = _small_dataset(seed=5)
        model = fit(ds, seed=5)
        rows = {tuple(row): y for row, y in zip(ds.X, ds.Y)}
        for xt, yt in zip(model.X_t, model.Y_t):
            assert tuple(xt) in rows
            assert rows[tuple(xt)] == yt

    def test_bitwise_deterministic(self):
        ds = _small_dataset(seed=6)
        a = json.dumps(model_to_dict(fit(ds, seed=9)))
        b = json.dumps(model_to_dict(fit(ds, seed=9)))
        assert a == b
        c = json.dumps(model_to_dict(fit(ds, seed=10)))
        assert a != c

    def test_per_scale_seeds_offset_from_base(self):
        model = fit(_small_dataset(seed=7), seed=123)
        assert [rec.seed for rec in model.history] == [
            123 + rec.s for rec in model.history
        ]

    def test_max_scales_cap(self):
        model = fit(_small_dataset(seed=8), seed=8, max_scales=3)
        assert len(model.history) == 3
        assert model.history[-1].l_s < 40

    def test_explicit_T(self):
        model = fit(_small_dataset(seed=9), T=16.0, M=2.0, seed=9, max_scales=4)
        assert [rec.epsilon_s for rec in model.history[:3]] == [16.0, 8.0, 4.0]

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit(Dataset(X=np.array([[0.0]]), Y=np.array([1.0])))

    @pytest.mark.parametrize("max_scales", [0, -1])
    def test_no_scale_to_fit_is_refused_up_front(self, monkeypatch, max_scales):
        def never(*args, **kwargs):
            raise AssertionError("no scale should be fit")

        monkeypatch.setattr(hierarchy_mod, "gram", never)
        with pytest.raises(ValueError, match="max_scales"):
            fit(_small_dataset(seed=12), max_scales=max_scales)

    @pytest.mark.parametrize("bad, name", [
        (dict(seed=-1), "seed"), (dict(seed=1.5), "seed"), (dict(k_extra=-1), "k_extra"),
        (dict(phi=0.0), "phi"), (dict(phi=1.0), "phi"), (dict(phi=float("nan")), "phi"),
        (dict(T="foo"), "T must be 'auto'"), (dict(T=None), "T must be 'auto'"),
        (dict(k_extra=2.5), "k_extra"), (dict(max_scales=2.5), "max_scales"),
        (dict(T=True), "T must be 'auto'"), (dict(seed=True), "seed"),
        (dict(k_extra=True), "k_extra"), (dict(max_scales=True), "max_scales"),
        (dict(M="2"), "M must be a number"), (dict(M=True), "M must be a number"),
    ])
    def test_bad_settings_are_refused_before_any_gram(self, monkeypatch, bad, name):
        def never(*args, **kwargs):
            raise AssertionError("no Gram matrix should be built")

        monkeypatch.setattr(hierarchy_mod, "gram", never)
        with pytest.raises(ValueError, match=name):
            fit(_small_dataset(seed=12), **bad)

    def test_each_gram_is_freed_before_its_search(self, monkeypatch):
        # the basis copies the Gram columns it keeps, so no n x n matrix is
        # alive while the scale's weights are searched
        grams = []
        real_gram, real_optimize = hierarchy_mod.gram, hierarchy_mod.optimize_gcv

        def gram(*args, **kwargs):
            G = real_gram(*args, **kwargs)
            grams.append(weakref.ref(G))
            return G

        def optimize_gcv(*args, **kwargs):
            assert grams[-1]() is None
            return real_optimize(*args, **kwargs)

        monkeypatch.setattr(hierarchy_mod, "gram", gram)
        monkeypatch.setattr(hierarchy_mod, "optimize_gcv", optimize_gcv)
        model = fit(_small_dataset(seed=13), seed=13)
        assert len(grams) == len(model.history) > 1

    def test_numpy_typed_settings_give_the_plain_fit_and_file(self, tmp_path):
        # a float32 M once made every epsilon_s float32, and a numpy seed reached
        # the records, where json could not write it
        ds = _small_dataset(seed=14)
        plain = fit(ds, M=2.0, seed=3)
        save_model(tmp_path / "plain.json", plain, {}, {})
        for typed in (dict(M=np.float32(2.0), seed=3), dict(M=2.0, seed=np.int64(3))):
            model = fit(ds, **typed)
            assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(plain))
            assert all(type(r.epsilon_s) is float and type(r.seed) is int
                       for r in model.history)
            save_model(tmp_path / "typed.json", model, {}, {})
            assert (tmp_path / "typed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_parameter_validation(self):
        ds = _small_dataset(seed=12)
        for bad in (dict(M=1.0), dict(phi=2.0), dict(k_extra=-1), dict(T=-5.0),
                    dict(T=np.inf), dict(M=np.inf)):
            with pytest.raises(ValueError):
                fit(ds, **bad)

    @pytest.mark.parametrize("spread, word", [(1e-300, "underflow"), (1e300, "overflow")])
    def test_squared_spread_outside_float_range_is_named(self, spread, word):
        X = np.random.default_rng(3).uniform(0.0, spread, size=(20, 1))
        with pytest.raises(DegenerateGeometryError, match=word):
            fit(Dataset(X=X, Y=np.arange(20.0)))

    def test_interior_convergence_on_noisy_benchmark(self):
        ds = sample(SynthSpec("schwefel1d", n=200, noise_sigma=40.0, seed=21))
        model = fit(ds, seed=21)
        last = model.history[-1].s
        assert 0 < model.t < last
        assert model.history[model.t].cost == min(r.cost for r in model.history)


class TestTranslation:
    @given(seed=st.integers(0, 2**16), d=st.integers(1, 2),
           shift=st.lists(st.integers(-(2**32), 2**32), min_size=2, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_exact_shift_gives_the_same_fit(self, seed, d, shift):
        # on the 2**-6 grid of [0, 1]^d a shift by a multiple of 2**-6 up to
        # 2**26 is exact, and so is every coordinate difference
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 65, size=(30, d)) / 64.0
        ds = Dataset(X=X, Y=np.sin(6.0 * X.sum(axis=1)) + 0.1 * rng.standard_normal(30))
        c = np.asarray(shift[:d]) / 64.0
        a = fit(ds, seed=seed)
        b = fit(Dataset(X=X + c, Y=ds.Y), seed=seed)
        assert (b.t, b.Q_t) == (a.t, a.Q_t)
        assert [r.l_s for r in b.history] == [r.l_s for r in a.history]
        for name in ("Lambda_t", "C_t"):
            assert np.array_equal(getattr(b, name), getattr(a, name))
        assert np.array_equal(b.X_t, a.X_t + c)
        X_m = rng.integers(0, 65, size=(50, d)) / 64.0
        assert np.array_equal(predict_mean(b, X_m + c), predict_mean(a, X_m))

    def test_criterion_three_data_shifted_far_from_the_origin(self):
        # X + 1e6 rounds each coordinate to a multiple of 2**-33: the data
        # move by up to 6e-11, and C_t moved 2.8e-11 (max-norm, relative)
        n, seed, bounds = PROBLEMS["schwefel1d"]
        ds = sample(SynthSpec("schwefel1d", n, noise_sigma("schwefel1d", bounds), bounds, seed))
        a = fit(ds, seed=seed)
        b = fit(Dataset(X=ds.X + 1e6, Y=ds.Y), seed=seed)
        assert (b.t, b.Q_t) == (a.t, a.Q_t)
        assert [r.l_s for r in b.history] == [r.l_s for r in a.history]
        assert np.array_equal(b.X_t, a.X_t + 1e6)
        assert np.max(np.abs(b.C_t - a.C_t)) <= 1e-9 * np.max(np.abs(a.C_t))


def _scaling_problem(d, seed):
    n = 60 if d == 1 else 50
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, d))
    Y = np.sin(6.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n)
    return Dataset(X=X, Y=Y), rng.uniform(-0.1, 1.1, size=(40, d))


_INTERVAL_FIELDS = ("mean", "std", "lower", "upper")


class TestScaling:
    # scaling by a power of two is exact in binary floating point, and every
    # operation on Y is homogeneous while the kernel sees (c delta)^2 / (c^2 eps)

    @given(seed=st.integers(0, 2**16), d=st.integers(1, 2), k=st.integers(-200, 200))
    @settings(max_examples=8, deadline=None)
    def test_scaled_responses_scale_the_weights_and_intervals(self, seed, d, k):
        ds, X_m = _scaling_problem(d, seed)
        c = 2.0**k
        scaled = Dataset(X=ds.X, Y=c * ds.Y)
        a, b = fit(ds, seed=seed), fit(scaled, seed=seed)
        assert (b.t, b.Q_t) == (a.t, a.Q_t)
        assert np.array_equal(b.Lambda_t, a.Lambda_t)
        assert np.array_equal(b.C_t, c * a.C_t)
        pa, pb = predict_intervals(a, ds, X_m), predict_intervals(b, scaled, X_m)
        for name in _INTERVAL_FIELDS:
            assert np.array_equal(getattr(pb, name), c * getattr(pa, name)), name

    # c^2 times the squared diameter of [0, 1]^d stays inside float range
    @given(seed=st.integers(0, 2**16), d=st.integers(1, 2), k=st.integers(-400, 400))
    @settings(max_examples=8, deadline=None)
    def test_scaled_coordinates_give_the_same_fit(self, seed, d, k):
        ds, X_m = _scaling_problem(d, seed)
        c = 2.0**k
        scaled = Dataset(X=c * ds.X, Y=ds.Y)
        a, b = fit(ds, seed=seed), fit(scaled, seed=seed)
        assert (b.t, b.Q_t) == (a.t, a.Q_t)
        for name in ("Lambda_t", "C_t"):
            assert np.array_equal(getattr(b, name), getattr(a, name)), name
        assert np.array_equal(b.X_t, c * a.X_t)
        pa, pb = predict_intervals(a, ds, X_m), predict_intervals(b, scaled, c * X_m)
        for name in _INTERVAL_FIELDS:
            assert np.array_equal(getattr(pb, name), getattr(pa, name)), name


def _scaled(ds, c, kind):
    """``ds`` with its responses (kind "Y") or its coordinates (kind "X") times c."""
    return Dataset(X=ds.X, Y=c * ds.Y) if kind == "Y" else Dataset(X=c * ds.X, Y=ds.Y)


def _max_rel(got, expect):
    return float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))


class TestNonDyadicScaling:
    # scaling by 3 or 0.1 rounds every scaled entry, so only the discrete
    # choices are exact; the weights move with the conditioning of the fit

    @given(seed=st.integers(0, 2**16), d=st.integers(1, 2),
           c=st.sampled_from([3.0, 0.1]), kind=st.sampled_from(["X", "Y"]))
    @settings(max_examples=4, deadline=None)
    def test_same_scales_orders_and_points(self, seed, d, c, kind):
        ds, _ = _scaling_problem(d, seed)
        a, b = fit(ds, seed=seed), fit(_scaled(ds, c, kind), seed=seed)
        assert (b.t, b.Q_t) == (a.t, a.Q_t)
        assert [r.l_s for r in b.history] == [r.l_s for r in a.history]
        assert np.array_equal(b.X_t, c * a.X_t if kind == "X" else a.X_t)

    # worst deviation measured on these datasets (seed 0, c in {3, 0.1}):
    # d = 1, Lambda_t equal and C_t 4.2e-11; d = 2, Lambda_t 2.4e-8 and
    # C_t 2.9e-8; the bounds leave a factor of 20 or more
    @pytest.mark.parametrize("n, d", [(200, 1), (120, 1), (150, 2)])
    def test_weights_within_tolerance(self, n, d):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.0, 1.0, size=(n, d))
        ds = Dataset(X=X, Y=np.sin(6.0 * X).sum(axis=1) + 0.1 * rng.standard_normal(n))
        tol_lam, tol_c = (0.0, 1e-9) if d == 1 else (1e-6, 1e-6)
        a = fit(ds, seed=0)
        for c in (3.0, 0.1):
            for kind in ("X", "Y"):
                b = fit(_scaled(ds, c, kind), seed=0)
                assert (b.t, b.Q_t) == (a.t, a.Q_t)
                assert [r.l_s for r in b.history] == [r.l_s for r in a.history]
                assert _max_rel(b.Lambda_t, a.Lambda_t) <= tol_lam
                assert _max_rel(b.C_t, c * a.C_t if kind == "Y" else a.C_t) <= tol_c


_UNFIT = FittedScale(theta=None, lam=None, q=None, cost=np.inf)


class TestFailedScales:
    def test_failed_scale_recorded_with_infinite_cost(self, monkeypatch):
        real = hierarchy_mod.optimize_gcv
        calls = {"i": 0}

        def flaky(*args, **kwargs):
            calls["i"] += 1
            return _UNFIT if calls["i"] == 2 else real(*args, **kwargs)

        monkeypatch.setattr(hierarchy_mod, "optimize_gcv", flaky)
        model = fit(_small_dataset(seed=10), seed=10)
        bad = model.history[1]
        assert np.isinf(bad.cost) and bad.lam is None and bad.q is None
        assert model.t != 1

    def test_all_scales_failing_raises(self, monkeypatch):
        monkeypatch.setattr(hierarchy_mod, "optimize_gcv", lambda *args, **kwargs: _UNFIT)
        with pytest.raises(FitError):
            fit(_small_dataset(seed=11), seed=11)

    def test_unfactorable_systems_leave_every_scale_unfit(self, monkeypatch):
        def singular(S):
            raise IllConditionedScaleError("forced")

        real, records = hierarchy_mod.ScaleRecord, []

        def recording(*args):
            records.append(real(*args))
            return records[-1]

        monkeypatch.setattr(network_mod, "_factor", singular)
        monkeypatch.setattr(hierarchy_mod, "ScaleRecord", recording)
        with pytest.raises(FitError):
            fit(_small_dataset(seed=12), seed=12, max_scales=4)
        assert len(records) == 4
        assert all(rec.cost == np.inf and rec.lam is None and rec.q is None for rec in records)
