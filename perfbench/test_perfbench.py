"""Tests of the benchmark harness itself, on tiny inputs."""
import json
import signal
import time
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hiersparse as hs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from hiersparse import cli, dataio  # noqa: E402
from speed import REF_S, Speed  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402


def _tiny_dataset(n=40, seed=3):
    return hs.sample(hs.SynthSpec("schwefel1d", n=n, noise_sigma=20.0, seed=seed))


def _package_functions():
    """(module name, attribute, object) for every function in the package."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hiersparse" or name.startswith("hiersparse.")):
            out += [(name, attr, value) for attr, value in vars(module).items() if callable(value)]
    return out


def test_traced_run_restores_every_wrapped_function():
    before = _package_functions()
    fit, eigh = hs.fit, np.linalg.eigh
    tracer = Tracer()
    with tracer:
        tracer.install(layers.HOOKS + layers.probes())
        assert hs.fit is not fit and np.linalg.eigh is not eigh
        model = hs.fit(_tiny_dataset(), seed=3)
        hs.predict_mean(model, np.zeros((3, 1)))
    assert _package_functions() == before
    assert hs.fit is fit and np.linalg.eigh is eigh
    values = layers.layer_metrics(tracer)
    assert values["hierarchy.scales"] == len(model.history)
    assert values["network.eigh_calls"] > 0 and values["kernel.gram_s"] > 0
    assert values["trace.missing_hooks"] == 0


def test_library_calls_outside_the_network_layer_are_not_counted():
    dataset = _tiny_dataset()
    model = hs.fit(dataset, seed=3)
    tracer = Tracer()
    with tracer:
        tracer.install(layers.HOOKS + layers.probes())
        hs.predict_intervals(model, dataset, np.zeros((4, 1)))  # factors via network._factor
    assert tracer.counts["network.cholesky_calls"] == 0
    assert layers.layer_metrics(tracer)["predict.intervals_s"] > 0


def test_speed_leaves_the_jobs_out_of_the_time_it_measures(monkeypatch):
    now = [0.0]

    def advance(dt):
        now[0] += dt

    monkeypatch.setattr(speed.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(speed, "JOBS", {kind: lambda: advance(0.1) for kind in speed.JOBS})
    sampler = Speed(active=False)

    def call_with_a_tick_inside():
        advance(1.0)
        sampler.sample()  # what the timer does in the middle of a long call
        advance(1.0)

    _, elapsed = sampler.timed(call_with_a_tick_inside)
    assert elapsed == pytest.approx(2.0)
    assert sampler.scale(2.0) == pytest.approx(2.0 * REF_S / 0.3)  # three jobs of 0.1 s


def test_speed_samples_during_a_long_call_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with Speed() as sampler:
        sampler.timed(lambda: time.sleep(2.5))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(len(v) >= 4 for v in sampler.samples.values())  # start, 2 ticks, end


def test_self_time_on_synthetic_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.begin("a.outer")
    b = tracer.begin("b.first")
    tracer.end(b)  # 1 -> 3
    c = tracer.begin("b.second")
    d = tracer.begin("a.outer")  # same name nested: inclusive counts it once
    tracer.end(d)  # 5 -> 6
    tracer.end(c)  # 4 -> 8
    tracer.end(a)  # 0 -> 10
    assert tracer.self_times() == [4.0, 2.0, 3.0, 1.0]
    assert tracer.totals("a.outer") == (10.0, 5.0)
    assert tracer.totals("b.second") == (4.0, 3.0)
    assert tracer.totals("a.outer", exclude_parent="b.second") == (10.0, 4.0)


def test_renamed_hook_point_is_reported_missing_not_raised():
    tracer = Tracer()
    with tracer:
        tracer.install([
            Hook("kernel.renamed", "hiersparse.kernel", "no_such_function"),
            Hook("gone.module", "hiersparse.no_such_module", "fit"),
            Hook("kernel.gram", "hiersparse.kernel", "gram"),
        ])
        hs.gram(np.zeros((3, 1)), 1.0)
    assert tracer.missing == ["hiersparse.kernel.no_such_function", "hiersparse.no_such_module.fit"]
    assert [span[0] for span in tracer.spans] == ["kernel.gram"]
    assert layers.layer_metrics(tracer)["trace.missing_hooks"] == 2


def test_injected_nan_counts_as_a_failed_op(tmp_path, monkeypatch):
    dataset = _tiny_dataset()
    model = hs.fit(dataset, seed=3)
    dataio.save_model(tmp_path / "model.json", model, {}, {})
    dataio.export_dataset_csv(tmp_path / "data.csv", dataset)
    args = (tmp_path, "-400:400:30", 30, 1, len(model.history), 200)

    ops = workloads.Ops()
    _, problems = workloads.cli_round(Speed(active=False), *args)
    assert ops.record("clean round", problems)

    def corrupted(m, X):
        out = hs.predict_mean(m, X)
        out[7] = np.nan
        return out

    monkeypatch.setattr(cli, "predict_mean", corrupted)
    _, problems = workloads.cli_round(Speed(active=False), *args)
    assert not ops.record("corrupted round", problems)
    assert (ops.attempted, ops.failed) == (2, 1)
    assert "nonfinite" in ops.problems[0]
    assert ops.ok_frac() == 0.5  # one of the two kinds of check failed


@pytest.mark.parametrize("tamper, message", [
    (lambda m: setattr(m, "t", m.t + 1), "first minimum"),
    (lambda m: setattr(m, "Q_t", (3,)), "Q_t"),
])
def test_fit_check_catches_a_wrong_winner(tamper, message):
    model = hs.fit(_tiny_dataset(), seed=3)
    assert workloads.check_fit(model, 1) == []
    tamper(model)
    assert any(message in p for p in workloads.check_fit(model, 1))


def test_prediction_check_catches_nan_and_disordered_bounds():
    mean = np.array([1.0, 2.0])
    assert workloads.check_predictions(mean, mean - 1, mean + 1) == []
    assert workloads.check_predictions(np.array([1.0, np.nan])) == ["nonfinite mean"]
    assert workloads.check_predictions(mean, mean + 1, mean + 2) == ["bounds out of order"]


def test_benchmark_json_matches_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = lambda key: [(m["name"], m["unit"], m["better"]) for m in spec[key]]
    assert listed("end_to_end") == run.E2E_METRICS
    assert listed("per_layer") == layers.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit2d",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
