"""The package namespace, and what importing and serving load.

``import hiersparse`` resolves its public names on first access, each from its
home module, and a mean prediction needs numpy alone: scipy is loaded by a fit,
by intervals and by ``report --data``, never by the import or a mean ``predict``.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hiersparse as hs
from hiersparse import hierarchy, model
from hiersparse.cli import main

# the package's public names before they were resolved lazily, as written then
_PUBLIC = [
    "CSVParseError",
    "Dataset",
    "DegenerateDofError",
    "DegenerateGCVError",
    "DegenerateGeometryError",
    "FitError",
    "FittedScale",
    "IllConditionedScaleError",
    "PenaltyMatrix",
    "PenaltySpec",
    "PredictionSet",
    "RepresenterOracle",
    "ScaleBasis",
    "ScaleRecord",
    "SparseModel",
    "SynthSpec",
    "compression_ratio",
    "confidence_intervals",
    "diameter_T",
    "eval_true",
    "fit",
    "gcv",
    "gram",
    "influence_matrix",
    "influence_traces",
    "kernel_matrix",
    "length_scale",
    "numerical_rank",
    "optimize_gcv",
    "optimize_lambda",
    "penalty_components",
    "penalty_operator",
    "pivoted_qr",
    "pivoted_qr_permutation",
    "predict_intervals",
    "predict_mean",
    "predict_std",
    "representer",
    "residual_dof",
    "sample",
    "select_basis",
    "sigma2_hat",
    "sketch",
    "solve_weights",
    "t_quantile",
]


class TestNamespace:
    def test_all_is_unchanged(self):
        assert hs.__all__ == _PUBLIC

    @pytest.mark.parametrize("name", _PUBLIC)
    def test_each_name_is_its_home_modules_object(self, name):
        value = getattr(hs, name)
        assert getattr(sys.modules[value.__module__], name) is value

    def test_the_model_records_are_one_class_in_every_module(self):
        assert hs.SparseModel is hierarchy.SparseModel is model.SparseModel
        assert hs.ScaleRecord is hierarchy.ScaleRecord is model.ScaleRecord

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from hiersparse import *", namespace)
        assert {name: namespace[name] for name in _PUBLIC} == {
            name: getattr(hs, name) for name in _PUBLIC}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hs.no_such_name
        assert not hasattr(hs, "no_such_name")

    def test_a_name_follows_its_home_module_and_is_restored_with_it(self, monkeypatch):
        real = hierarchy.fit
        assert hs.fit is real

        def wrapper(*args, **kwargs):
            return real(*args, **kwargs)

        monkeypatch.setattr(hierarchy, "fit", wrapper)
        assert hs.fit is wrapper
        monkeypatch.undo()
        assert hs.fit is real
        assert "fit" not in vars(hs)  # never cached in the package


def _scipy_after_each_step(tmp_path):
    """``{step: whether scipy is loaded after it}`` over one fresh interpreter
    that runs the steps in order, mean serving before the intervals."""
    model_path, train, query = tmp_path / "m.json", tmp_path / "train.csv", tmp_path / "q.csv"
    assert main(["fit", "--synth", "schwefel1d", "--n", "60", "--noise", "25", "--seed", "3",
                 "--out", str(model_path), "--export-data", str(train)]) == 0
    query.write_text("x_1\n-400.0\n0.0\n250.5\n")
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys

        loaded = {{}}

        def step(name, argv=None):
            if argv is not None:
                with contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                assert code == 0, (name, code)
            loaded[name] = "scipy" in sys.modules

        import hiersparse
        step("import hiersparse")
        import hiersparse.cli as cli
        step("import hiersparse.cli")
        step("--version", ["--version"])
        m, out = {str(model_path)!r}, {str(tmp_path / "p.csv")!r}
        step("predict --grid", ["predict", "--model", m, "--grid=-500:500:101", "--out", out])
        step("predict --query", ["predict", "--model", m, "--query", {str(query)!r},
                                 "--has-header", "--out", out])
        step("report", ["report", "--model", m, "--out-dir", {str(tmp_path / "rep")!r}])
        step("predict --ci", ["predict", "--model", m, "--grid=-500:500:101", "--ci", "0.05",
                              "--data", {str(train)!r}, "--has-header", "--out", out])
        print(json.dumps(loaded))
    """)
    src = str(Path(hs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_serving_a_mean_never_loads_scipy(tmp_path):
    assert _scipy_after_each_step(tmp_path) == {
        "import hiersparse": False,
        "import hiersparse.cli": False,
        "--version": False,
        "predict --grid": False,
        "predict --query": False,
        "report": False,
        "predict --ci": True,  # so the probe does see scipy when it is loaded
    }
