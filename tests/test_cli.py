import collections
import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hiersparse
from hiersparse import predict_intervals, predict_mean
from hiersparse.cli import main
from hiersparse.dataio import ingest_csv, load_model


def _run(*argv):
    return main(list(argv))


def _module_run(*argv, cwd=None):
    """``python -m hiersparse ARGV`` in a fresh interpreter that imports this package."""
    src = str(Path(hiersparse.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "hiersparse", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def _fit_files(tmp_path, seed=7, n=120):
    model = tmp_path / "model.json"
    report = tmp_path / "scales.csv"
    train = tmp_path / "train.csv"
    code = _run(
        "fit", "--synth", "schwefel1d", "--n", str(n), "--noise", "25",
        "--seed", str(seed), "--out", str(model), "--report", str(report),
        "--export-data", str(train),
    )
    assert code == 0
    return model, report, train


class TestFit:
    def test_writes_model_and_report(self, tmp_path, capsys):
        model_path, report_path, _ = _fit_files(tmp_path)
        assert model_path.exists() and report_path.exists()
        out = capsys.readouterr().out
        assert "convergence" in out

    def test_report_has_single_convergent_row_and_consistent_comp(self, tmp_path):
        model_path, report_path, _ = _fit_files(tmp_path)
        model, _, _ = load_model(model_path)
        lines = report_path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert [int(r["s"]) for r in rows] == sorted(int(r["s"]) for r in rows)
        assert sum(int(r["convergent"]) for r in rows) == 1
        n = model.n_train
        for r in rows:
            assert float(r["comp_s"]) == pytest.approx(1.0 - int(r["l_s"]) / n, abs=1e-12)

    def test_repeated_fit_is_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        m1, r1, _ = _fit_files(tmp_path / "a", seed=3, n=60)
        m2, r2, _ = _fit_files(tmp_path / "b", seed=3, n=60)
        assert m1.read_bytes() == m2.read_bytes()
        assert r1.read_bytes() == r2.read_bytes()

    def test_fit_from_csv_matches_synth_provenance(self, tmp_path):
        model_path, _, train = _fit_files(tmp_path, seed=5, n=60)
        out2 = tmp_path / "from_csv.json"
        code = _run(
            "fit", "--data", str(train), "--has-header", "--seed", "5",
            "--out", str(out2),
        )
        assert code == 0
        a, _, _ = load_model(model_path)
        b, _, _ = load_model(out2)
        assert a.t == b.t
        assert np.array_equal(a.C_t, b.C_t)

    def test_missing_input_is_usage_error(self, tmp_path, capsys):
        code = _run("fit", "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_range_is_usage_error(self, tmp_path, capsys):
        code = _run(
            "fit", "--synth", "schwefel1d", "--n", "40", "--noise", "1",
            "--range", "a:b", "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert "--range" in capsys.readouterr().err

    def test_module_entry_point_prints_the_version(self):
        proc = _module_run("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == hiersparse.__version__

    def test_module_entry_point_exits_one_on_a_refused_command(self, tmp_path):
        train = tmp_path / "train.csv"
        train.write_text("x_1,y\n0.0,1.0\n0.5,2.0\n1.0,0.5\n")
        proc = _module_run("predict", "--model", str(train), "--grid=0:1:3", "--out", "x.csv",
                           cwd=tmp_path)
        assert proc.returncode == 1
        assert str(train) in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            _run("fit", "--bogus")
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flag, value", [("--phi", "2"), ("--M", "0.5"), ("--k-extra", "-3"), ("--max-scales", "0"),
                        ("--seed", "-1")]
    )
    def test_out_of_range_setting_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exc:
            _run("fit", "--synth", "schwefel1d", "--n", "40", "--noise", "1",
                 flag, value, "--out", str(out))
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [
        ("--T", "inf"), ("--T", "nan"), ("--M", "inf"), ("--M", "nan"),
        ("--range", "1:0"), ("--range", "0:inf"), ("--range", "0:1,0:1"),
        ("--range", "-1e308:1e308"),  # each end finite, the width not
        ("--noise", "-1"), ("--noise", "nan"), ("--noise", "inf"), ("--n", "1"),
    ])
    def test_invalid_synth_setting_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "m.json"
        argv = {"--n": "40", "--noise": "1", flag: value}
        try:
            code = _run("fit", "--synth", "schwefel1d",
                        *[f"{k}={v}" for k, v in argv.items()], "--out", str(out))
        except SystemExit as exc:  # refused by argparse
            code = exc.code
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_coordinates_whose_squared_spread_overflows_fail_as_computation(
        self, tmp_path, capsys
    ):
        data = tmp_path / "wide.csv"
        data.write_text("".join(f"{x}e300,{x}\n" for x in range(12)))
        out = tmp_path / "m.json"
        assert _run("fit", "--data", str(data), "--out", str(out)) == 2
        assert "overflow" in capsys.readouterr().err
        assert not out.exists()


class TestPredict:
    def test_mean_only_needs_model_alone(self, tmp_path):
        model_path, _, train = _fit_files(tmp_path)
        train.unlink()  # training data gone: mean prediction must still work
        out = tmp_path / "p.csv"
        code = _run(
            "predict", "--model", str(model_path), "--grid=-500:500:50",
            "--out", str(out),
        )
        assert code == 0
        assert out.exists()

    def test_grid_matches_library_bitwise(self, tmp_path):
        model_path, _, _ = _fit_files(tmp_path)
        out = tmp_path / "p.csv"
        _run("predict", "--model", str(model_path), "--grid=-500:500:50", "--out", str(out))
        model, _, _ = load_model(model_path)
        grid = np.linspace(-500, 500, 50)[:, None]
        expect = predict_mean(model, grid)
        lines = out.read_text().splitlines()[1:]
        got = np.array([float(ln.split(",")[1]) for ln in lines])
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("grid", ["a:1:3", "-1:1:2.5", "0:inf:3", "nan:1:3",
                                      "-1e308:1e308:3"])
    def test_malformed_grid_is_usage_error(self, tmp_path, capsys, grid):
        model_path, _, _ = _fit_files(tmp_path, n=60)
        out = tmp_path / "p.csv"
        code = _run(
            "predict", "--model", str(model_path), f"--grid={grid}", "--out", str(out),
        )
        assert code == 1
        assert "bad grid axis" in capsys.readouterr().err
        assert not out.exists()

    def test_files_are_repr_text_of_the_library_results(self, tmp_path):
        model_path, _, train = _fit_files(tmp_path)
        model, _, _ = load_model(model_path)
        grid = np.linspace(-450, 450, 37)[:, None]
        mean_out, ci_out = tmp_path / "mean.csv", tmp_path / "ci.csv"
        assert _run("predict", "--model", str(model_path), "--grid=-450:450:37",
                    "--out", str(mean_out)) == 0
        assert _run("predict", "--model", str(model_path), "--grid=-450:450:37",
                    "--ci", "0.1", "--data", str(train), "--has-header",
                    "--out", str(ci_out)) == 0

        def text(lines, *columns):
            rows = (",".join(repr(float(v)) for v in row) for row in zip(*columns))
            return "\n".join([*lines, *rows]) + "\n"

        mean = predict_mean(model, grid)
        assert mean_out.read_text() == text(["x_1,mean"], grid[:, 0], mean)
        pred = predict_intervals(model, ingest_csv(train, has_header=True), grid, alpha=0.1)
        meta = [f"# {key}={float(getattr(pred, key))!r}"
                for key in ("df_res", "sigma2_hat", "alpha")]
        assert ci_out.read_text() == text(
            meta + ["x_1,mean,std,lower,upper"],
            grid[:, 0], pred.mean, pred.std, pred.lower, pred.upper,
        )

    def test_query_file_round_trip(self, tmp_path):
        model_path, _, _ = _fit_files(tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("-100.0\n0.0\n250.0\n")
        out = tmp_path / "p.csv"
        code = _run("predict", "--model", str(model_path), "--query", str(q), "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_ci_outputs_metadata_and_nonnegative_std(self, tmp_path):
        model_path, _, train = _fit_files(tmp_path)
        out = tmp_path / "ci.csv"
        code = _run(
            "predict", "--model", str(model_path), "--grid=-400:400:21",
            "--ci", "0.05", "--data", str(train), "--has-header", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert any("df_res=" in m for m in meta)
        assert any("sigma2_hat=" in m for m in meta)
        assert any("alpha=" in m for m in meta)
        header = next(ln for ln in lines if not ln.startswith("#")).split(",")
        assert header == ["x_1", "mean", "std", "lower", "upper"]
        body = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        std = np.array([float(r[2]) for r in body])
        lower = np.array([float(r[3]) for r in body])
        upper = np.array([float(r[4]) for r in body])
        mean = np.array([float(r[1]) for r in body])
        assert np.all(std >= 0)
        assert np.all(lower <= mean) and np.all(mean <= upper)

    def test_headerless_query_with_has_header_is_refused(self, tmp_path, capsys):
        # --has-header applies to --query and --data alike; a header-less
        # query file must not lose its first point without notice
        model_path, _, train = _fit_files(tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("-100.0\n0.0\n250.0\n")
        out = tmp_path / "p.csv"
        code = _run(
            "predict", "--model", str(model_path), "--query", str(q), "--ci", "0.05",
            "--data", str(train), "--has-header", "--out", str(out),
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(q) in err and "row 1" in err

    def test_ci_without_data_refuses(self, tmp_path, capsys):
        model_path, _, _ = _fit_files(tmp_path)
        code = _run(
            "predict", "--model", str(model_path), "--grid=-1:1:5",
            "--ci", "0.05", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "training data" in err

    @pytest.mark.parametrize("alpha", ["1.5", "nan", "0"])
    def test_out_of_range_ci_is_usage_error(self, tmp_path, capsys, alpha):
        model_path, _, train = _fit_files(tmp_path, n=60)
        out = tmp_path / "ci.csv"
        with pytest.raises(SystemExit) as exc:
            _run("predict", "--model", str(model_path), "--grid=-1:1:5", f"--ci={alpha}",
                 "--data", str(train), "--has-header", "--out", str(out))
        assert exc.value.code == 1
        assert "--ci" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_is_computation_error(self, tmp_path, capsys):
        model_path, _, _ = _fit_files(tmp_path)
        q = tmp_path / "q.csv"
        q.write_text("0.0,1.0\n")  # model is 1-d
        code = _run(
            "predict", "--model", str(model_path), "--query", str(q),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("edit", ["dropped", "repeated"])
    def test_data_other_than_the_training_set_is_computation_error(self, tmp_path, capsys,
                                                                     edit):
        model_path, _, train = _fit_files(tmp_path, n=60)
        header, *rows = train.read_text().splitlines(keepends=True)
        rows = rows[1:] if edit == "dropped" else rows + rows[:1]
        train.write_text(header + "".join(rows))
        out = tmp_path / "ci.csv"
        code = _run("predict", "--model", str(model_path), "--grid=-1:1:5", "--ci=0.05",
                    "--data", str(train), "--has-header", "--out", str(out))
        assert code == 2
        assert f"{len(rows)} rows, but the model was fit on 60" in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_emits_cost_curve_and_overlays(self, tmp_path):
        model_path, _, train = _fit_files(tmp_path)
        out_dir = tmp_path / "rep"
        code = _run(
            "report", "--model", str(model_path), "--out-dir", str(out_dir),
            "--data", str(train), "--has-header",
        )
        assert code == 0
        model, _, _ = load_model(model_path)
        curve = (out_dir / "cost_curve.csv").read_text().splitlines()
        assert len(curve) - 1 == len(model.history)

        convergent = out_dir / f"selected_points_s{model.t}.csv"
        rows = convergent.read_text().splitlines()[1:]
        assert len(rows) == len(model.X_t)

        # every overlay coordinate is one of the training coordinates
        train_x = {ln.split(",")[0] for ln in train.read_text().splitlines()[1:]}
        for rec in model.history:
            pts = (out_dir / f"selected_points_s{rec.s}.csv").read_text().splitlines()[1:]
            assert len(pts) == rec.l_s
            assert set(pts) <= train_x

        band = (out_dir / "prediction_band.csv").read_text().splitlines()
        assert band[0].startswith("#")

    @pytest.mark.parametrize("alpha", ["0", "1", "nan"])
    def test_out_of_range_alpha_is_usage_error(self, tmp_path, capsys, alpha):
        model_path, _, train = _fit_files(tmp_path, n=60)
        out_dir = tmp_path / "rep"
        with pytest.raises(SystemExit) as exc:
            _run("report", "--model", str(model_path), "--out-dir", str(out_dir),
                 "--data", str(train), "--has-header", f"--alpha={alpha}")
        assert exc.value.code == 1
        assert "--alpha" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_band_skipped_without_data(self, tmp_path, capsys):
        model_path, _, _ = _fit_files(tmp_path)
        out_dir = tmp_path / "rep2"
        code = _run("report", "--model", str(model_path), "--out-dir", str(out_dir))
        assert code == 0
        assert not (out_dir / "prediction_band.csv").exists()
        assert "skipped" in capsys.readouterr().out

    def test_grid_whose_width_overflows_is_usage_error(self, tmp_path, capsys):
        model_path, _, train = _fit_files(tmp_path, n=60)
        out_dir = tmp_path / "rep"
        code = _run("report", "--model", str(model_path), "--out-dir", str(out_dir),
                    "--data", str(train), "--has-header", "--grid=-1e308:1e308:3")
        assert code == 1
        assert "--grid" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_data_file_writes_nothing(self, tmp_path):
        model_path, _, _ = _fit_files(tmp_path, n=60)
        out_dir = tmp_path / "rep"
        code = _run("report", "--model", str(model_path), "--out-dir", str(out_dir),
                    "--data", str(tmp_path / "nonexist.csv"), "--has-header")
        assert code == 1
        assert not out_dir.exists()

    def test_dimension_mismatch_writes_nothing(self, tmp_path):
        model_path, _, _ = _fit_files(tmp_path, n=60)
        train2d = tmp_path / "train2d.csv"
        train2d.write_text("x_1,x_2,y\n" + "".join(f"{i},{-i},{i * i}\n" for i in range(8)))
        out_dir = tmp_path / "rep"
        code = _run("report", "--model", str(model_path), "--out-dir", str(out_dir),
                    "--data", str(train2d), "--has-header")
        assert code == 2
        assert not out_dir.exists()


class TestMalformedInput:
    # a file that cannot be read as the input it stands for is an input error
    @pytest.mark.parametrize(
        "text", ["not json", '{"schema_version": 9}', '{"schema_version": 2}', "[1, 2]"]
    )
    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_unreadable_model_is_usage_error(self, tmp_path, capsys, text, command):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        outputs = {"predict": ["--grid", "0:1:5", "--out", str(out)],
                   "report": ["--out-dir", str(out)]}[command]
        code = _run(command, "--model", str(bad), *outputs)
        err = capsys.readouterr().err
        assert code == 1
        assert str(bad) in err and "Traceback" not in err
        assert not out.exists()

    def test_directory_as_data_is_usage_error(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        out = tmp_path / "model.json"
        code = _run("fit", "--data", str(data_dir), "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert str(data_dir) in err and "Traceback" not in err
        assert not out.exists()


class TestIgnoredFlags:
    # a flag that nothing would read is refused: exit 1, the flag named, no file
    # written; each run succeeds without the refused flags
    @pytest.mark.parametrize("command, base, ignored", [
        ("fit", ["--data", "{train}", "--has-header"],
         ["--n", "50", "--noise", "3", "--range=0:1,0:1"]),
        ("fit", ["--data", "{train}", "--has-header"], ["--noise", "3"]),
        ("fit", ["--data", "{train}", "--has-header"], ["--range=0:1"]),
        ("fit", ["--synth", "schwefel1d", "--n", "50", "--noise", "3"], ["--has-header"]),
        ("predict", ["--model", "{model}", "--grid=-1:1:5"], ["--has-header"]),
        ("predict", ["--model", "{model}", "--grid=-1:1:5"], ["--data", "{train}"]),
        ("report", ["--model", "{model}"], ["--alpha", "0.1"]),
        ("report", ["--model", "{model}"], ["--grid=-1:1:5"]),
        ("report", ["--model", "{model}"], ["--has-header"]),
    ], ids=["fit-data-synth-flags", "fit-data-noise", "fit-data-range", "fit-synth-header",
            "predict-header", "predict-data", "report-alpha", "report-grid", "report-header"])
    def test_ignored_flag_is_usage_error(self, tmp_path, capsys, served, command, base,
                                         ignored):
        payload, train = served
        model, out = tmp_path / "model.json", tmp_path / "out"
        model.write_text(json.dumps(payload))
        output = ["--out-dir" if command == "report" else "--out", str(out)]

        def run(argv):
            return _run(command, *(a.format(model=model, train=train) for a in argv), *output)

        assert run(base + ignored) == 1
        err = capsys.readouterr().err
        assert f"error: {ignored[0].split('=')[0]} " in err and "Traceback" not in err
        assert not out.exists()
        assert run(base) == 0


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(model payload, training CSV) of one small 1-D fit, shared by the module."""
    model, _, train = _fit_files(tmp_path_factory.mktemp("served"), n=60)
    return json.loads(model.read_text()), train


def _run_edited(root, served, edit, command):
    """Write the served model with ``edit`` applied to its "model" dict and run
    ``command`` on it: "mean" (``predict``), "ci" (``predict --ci``) or "report"
    (``report --data``); (exit code, model path, output file or directory)."""
    payload, train = served
    payload = copy.deepcopy(payload)
    edit(payload["model"])
    model, out = root / "edited.json", root / command
    model.write_text(json.dumps(payload))
    if out.is_dir():
        shutil.rmtree(out)
    out.unlink(missing_ok=True)
    data = ["--data", str(train), "--has-header"]
    argv = {"mean": ["predict", "--grid=-500:500:7", "--out"],
            "ci": ["predict", "--grid=-500:500:7", "--ci", "0.1", *data, "--out"],
            "report": ["report", *data, "--out-dir"]}[command]
    return _run(*argv, str(out), "--model", str(model)), model, out


class TestModelFileChecks:
    # one field of a valid file edited; each of the first nine exited 0 (the
    # last three of them read through int, which truncates), 2 or raised before
    # the check; the last four break a rule that history[t]'s record states
    @pytest.mark.parametrize("edit", [
        lambda m: m["C_t"].__setitem__(0, math.nan),
        lambda m: m["C_t"].pop(),
        lambda m: m.update(X_t=[], C_t=[]),
        lambda m: m.update(Q_t=[3]),
        lambda m: m.update(Lambda_t=[-1.0]),
        lambda m: m.update(epsilon_t=-1.0),
        lambda m: m.update(Q_t=[1.5]),
        lambda m: m.update(t=m["t"] + 0.5),
        lambda m: m.update(n_train=m["n_train"] + 0.5),
        lambda m: m["Lambda_t"].__setitem__(0, math.nan),
        lambda m: m["Lambda_t"].append(m["Lambda_t"][0]),
        lambda m: m["Q_t"].append(m["Q_t"][0]),
        lambda m: m["X_t"][0].__setitem__(0, math.nan),
    ], ids=["nan C_t entry", "C_t one short", "empty X_t and C_t", "Q_t 3", "Lambda_t -1",
            "epsilon_t -1", "Q_t 1.5", "t + 0.5", "n_train + 0.5", "nan Lambda_t entry",
            "Lambda_t one long", "Q_t one long", "nan X_t point"])
    @pytest.mark.parametrize("command", ["mean", "ci"])
    def test_refused_file_exits_one_and_writes_nothing(self, tmp_path, capsys, served, edit,
                                                       command):
        code, model, out = _run_edited(tmp_path, served, edit, command)
        err = capsys.readouterr().err
        assert code == 1
        assert str(model) in err and "invalid model" in err and "Traceback" not in err
        assert not out.exists()

    # one field of one history record edited; each edit exited 0 and wrote the
    # record as given, under the 1-cell header for a two-wide point table
    @pytest.mark.parametrize("edit", [
        lambda m: m["history"][0].update(points=[p * 2 for p in m["history"][0]["points"]]),
        lambda m: m["history"][0]["points"][0].__setitem__(0, math.nan),
        lambda m: m["history"][0].update(cost=math.nan),
        lambda m: m["history"][0].update(**{"lambda": [-1.0]}),
        lambda m: m["history"][0].update(q=[3]),
        lambda m: m["history"][0].update(l_s=10**6),
        lambda m: m["history"][0].update(s=1),
        lambda m: m["history"][0].update(cost=None),
        lambda m: m["history"][0].update(q=None, **{"lambda": None}),
    ], ids=["points two wide", "nan point", "nan cost", "lambda -1", "q 3", "l_s 1e6",
            "s not its index", "null cost with lambda and q", "null lambda and q with a cost"])
    def test_refused_history_record_exits_one_and_writes_nothing(self, tmp_path, capsys,
                                                                 served, edit):
        code, model, out = _run_edited(tmp_path, served, edit, "report")
        err = capsys.readouterr().err
        assert code == 1
        assert str(model) in err and "invalid model: needs history[0]" in err
        assert "Traceback" not in err
        assert not out.exists()

    # history[t] edited so that it no longer records the served scale; each exited 0
    # (report marked the unfit record convergent, with cost inf)
    @pytest.mark.parametrize("edit", [
        lambda m: m["history"][m["t"]].update(cost=None, q=None, **{"lambda": None}),
        lambda m: m["history"][m["t"]].update(epsilon_s=2 * m["epsilon_t"]),
        lambda m: m["history"][m["t"]].update(q=[3 - q for q in m["Q_t"]]),
        lambda m: m["history"][m["t"]].update(**{"lambda": [2 * v for v in m["Lambda_t"]]}),
        lambda m: m["history"][m["t"]]["points"][0].__setitem__(0, m["X_t"][0][0] + 0.5),
    ], ids=["unfit", "epsilon_s", "q", "lambda", "a point"])
    @pytest.mark.parametrize("command", ["mean", "ci", "report"])
    def test_served_scale_unlike_its_record_exits_one_and_writes_nothing(
            self, tmp_path, capsys, served, edit, command):
        code, model, out = _run_edited(tmp_path, served, edit, command)
        err = capsys.readouterr().err
        assert code == 1
        assert str(model) in err and "invalid model: needs history[" in err
        assert "Traceback" not in err
        assert not out.exists()

    # numbers written as JSON strings or booleans, which float() read: each exited 0
    @pytest.mark.parametrize("edit", [
        lambda m: m.update(epsilon_t=str(m["epsilon_t"])),
        lambda m: (m.update(epsilon_t=True), m["history"][m["t"]].update(epsilon_s=True)),
        lambda m: m.update(C_t=[str(c) for c in m["C_t"]]),
    ], ids=["epsilon_t a string", "epsilon_t and its record's epsilon_s true", "C_t strings"])
    @pytest.mark.parametrize("command", ["mean", "ci", "report"])
    def test_number_as_string_or_boolean_exits_one_and_writes_nothing(
            self, tmp_path, capsys, served, edit, command):
        code, model, out = _run_edited(tmp_path, served, edit, command)
        err = capsys.readouterr().err
        assert code == 1
        assert str(model) in err and "not strings or booleans" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_y_t_of_another_length_is_read(self, tmp_path, served):
        # a model served at a scale other than t keeps the winner's Y_t
        code, _, out = _run_edited(tmp_path, served, lambda m: m["Y_t"].pop(), "ci")
        assert code == 0 and out.exists()


_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
)
_VALUES = st.one_of(
    st.none(), st.booleans(), _NUMBERS, st.text(max_size=3),
    st.lists(_NUMBERS, max_size=3), st.lists(st.lists(_NUMBERS, max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), _NUMBERS, max_size=1),
)


_RECORD_FIELDS = ["s", "epsilon_s", "l_s", "comp_s", "cost", "lambda", "q", "seed", "points"]


@st.composite
def _edits(draw):
    """One field of the "model" dict or of one of its history records replaced by
    any JSON value, or one entry of a list field (a coordinate, for X_t and
    points) set to a number, dropped or repeated."""
    field = draw(st.sampled_from(
        ["t", "epsilon_t", "X_t", "Y_t", "C_t", "Lambda_t", "Q_t", "n_train", "history",
         *_RECORD_FIELDS]))
    how = draw(st.sampled_from(["replace", "set", "drop", "repeat"]))
    value = draw(_VALUES if how == "replace" else _NUMBERS)
    record, index = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))

    def edit(model):
        if field in _RECORD_FIELDS:
            model = model["history"][record % len(model["history"])]
        old = model[field]
        if how == "replace" or not (isinstance(old, list) and old):
            model[field] = value
            return
        i = index % len(old)
        if how == "drop":
            del old[i]
        elif how == "repeat":
            old.insert(i, old[i])
        elif isinstance(old[i], list) and old[i]:
            old[i][0] = value
        else:
            old[i] = value

    return edit


class TestOverflowingNoiseFit:
    # a valid model whose large coefficient overflows sigma2_hat wrote inf with exit 0
    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_exits_two_and_writes_nothing(self, tmp_path, capsys, served, command):
        payload, train = served
        payload = copy.deepcopy(payload)
        payload["model"]["C_t"][0] = 1e200
        model, out = tmp_path / "big.json", tmp_path / "out"
        model.write_text(json.dumps(payload))
        outputs = {"predict": ["--grid=-500:500:7", "--ci", "0.1", "--out", str(out)],
                   "report": ["--out-dir", str(out)]}[command]
        with np.errstate(over="ignore"):
            code = _run(command, "--model", str(model), "--data", str(train), "--has-header",
                        *outputs)
        assert code == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()


class TestOverflowingMean:
    def test_exits_two_and_writes_nothing(self, tmp_path, capsys, served):
        # two nearby centers with finite coefficients whose kernel-weighted sum
        # overflows; the mean path wrote inf with exit 0
        def edit(model):
            x = np.array(model["X_t"])[:, 0]
            order = np.argsort(x)
            k = int(np.argmin(np.diff(x[order])))
            for i in order[k:k + 2]:
                model["C_t"][i] = 1.5e308

        with np.errstate(over="ignore"):
            code, _, out = _run_edited(tmp_path, served, edit, "mean")
        assert code == 2
        assert "overflows" in capsys.readouterr().err
        assert not out.exists()


class TestTooLargeForMemory:
    # 10^11 query points (745 GiB) fail to allocate at once; the error was uncaught
    @pytest.mark.parametrize("command", ["predict", "report"])
    def test_exits_two_and_writes_nothing(self, tmp_path, capsys, served, command):
        payload, train = served
        model, out = tmp_path / "model.json", tmp_path / "out"
        model.write_text(json.dumps(payload))
        outputs = {"predict": ["--out", str(out)],
                   "report": ["--data", str(train), "--has-header", "--out-dir", str(out)]}
        code = _run(command, "--model", str(model), "--grid=-500:500:100000000000",
                    *outputs[command])
        err = capsys.readouterr().err
        assert code == 2
        assert "out of memory" in err and "Traceback" not in err
        assert not out.exists()


def _finite_outputs(command, out, history) -> bool:
    """Whether every number ``command`` wrote to ``out`` is finite, bar the inf
    cost of an unfit scale (one with no q and lambda) in a report's cost curve."""
    if command == "fit":  # a model file that loads holds finite numbers, bar null costs
        return load_model(out) is not None
    for path in sorted(out.glob("*.csv")) if command == "report" else [out]:
        text = path.read_text().splitlines()
        meta = [ln.split("=", 1)[1] for ln in text if ln.startswith("#")]
        rows = [ln.split(",") for ln in text[len(meta) + 1:]]
        if path.name == "cost_curve.csv":
            rows = [row[:4] + row[5:] if row[4] == "inf" and rec.q is None
                    and rec.lam is None else row for row, rec in zip(rows, history)]
        if not all(math.isfinite(float(c)) for c in meta + [c for row in rows for c in row]):
            return False
    return True


class TestModelFileFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edit=_edits(), command=st.sampled_from(["mean", "ci", "report"]))
    def test_edited_file_exits_cleanly(self, tmp_path, served, edit, command):
        with np.errstate(all="ignore"):
            code, model, out = _run_edited(tmp_path, served, edit, command)
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists()
            return
        assert _finite_outputs(command, out, load_model(model)[0].history)


_CELLS = st.one_of(
    _NUMBERS.map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
    st.sampled_from(["", " 1", "1e400", "-1e400", "0x1p3", "1_0", '"1"', "﻿0.5", "1;2"]),
)


@st.composite
def _csv_edits(draw):
    """One cell of one line (the header included) replaced by any text, one
    line replaced by any cells, or one line dropped or repeated."""
    how = draw(st.sampled_from(["cell", "row", "drop", "repeat"]))
    line, cell = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
    text = draw(_CELLS if how == "cell" else st.lists(_CELLS, max_size=4).map(",".join))

    def edit(lines):
        i = line % len(lines)
        if how == "drop":
            del lines[i]
        elif how == "repeat":
            lines.insert(i, lines[i])
        elif how == "row":
            lines[i] = text
        else:
            cells = lines[i].split(",")
            cells[cell % len(cells)] = text
            lines[i] = ",".join(cells)

    return edit


_FLOAT_TEXT = st.one_of(st.floats().map(repr), st.sampled_from(["0", "1", "-1", "x", ""]))
# a count no machine can hold fails to allocate at once; every other count is small
_AXIS = st.tuples(_FLOAT_TEXT, _FLOAT_TEXT,
                  (st.integers(-3, 50) | st.sampled_from([10**11, 10**12])).map(str))
_GRID = st.lists(_AXIS.map(":".join), min_size=1, max_size=2).map(",".join)
_NAN_INF = st.sampled_from([math.nan, math.inf, -math.inf])
# fit settings outside their ranges, so no drawn value starts a fit of unknown size
_FIT_FLAGS = {
    "--n": st.integers(-10, 1),
    "--noise": st.floats(max_value=0.0, exclude_max=True) | _NAN_INF,
    "--M": st.floats(max_value=1.0) | _NAN_INF,
    "--phi": st.floats(max_value=0.0) | st.floats(min_value=1.0) | _NAN_INF,
    "--seed": st.integers(max_value=-1),
    "--k-extra": st.integers(max_value=-1),
    "--max-scales": st.integers(max_value=0),
    "--T": st.floats(max_value=0.0) | _NAN_INF,
    "--range": st.tuples(st.floats(), st.floats()).filter(lambda b: not b[0] < b[1])
                 .map(lambda b: f"{b[0]!r}:{b[1]!r}"),
}


@st.composite
def _input_cases(draw):
    """(command, edited file, CSV edit, argv): the training or query CSV with one
    edit, or one flag drawn from outside its range or near its edge.  ``argv``
    maps the paths (model, training CSV, query CSV, edited copy, output) to the
    command line; the training and query files have a header."""
    case = draw(st.sampled_from(["train", "query", "flag"]))
    if case == "flag":
        flag = draw(st.sampled_from(["--grid", "--ci", "--alpha", "report --grid", *_FIT_FLAGS]))
        if flag in _FIT_FLAGS:
            value = draw(_FIT_FLAGS[flag])
            return "fit", None, None, lambda p: [
                "fit", "--synth", "schwefel1d", "--n", "60", "--noise", "25",
                f"{flag}={value!s}", "--out", p.out]
        value = draw(_GRID if flag.endswith("--grid") else _FLOAT_TEXT)
        command = {"--grid": "mean", "--ci": "ci"}.get(flag, "report")
        return command, None, None, lambda p: {
            "--grid": ["predict", "--model", p.model, f"--grid={value}", "--out", p.out],
            "--ci": ["predict", "--model", p.model, "--grid=-500:500:7", f"--ci={value}",
                     "--data", p.train, "--has-header", "--out", p.out],
            "--alpha": ["report", "--model", p.model, f"--alpha={value}", "--data", p.train,
                        "--has-header", "--out-dir", p.out],
            "report --grid": ["report", "--model", p.model, f"--grid={value}", "--data",
                              p.train, "--has-header", "--out-dir", p.out],
        }[flag]
    edit = draw(_csv_edits())
    if case == "train":
        command = draw(st.sampled_from(["fit", "ci", "report"]))
        return command, "train", edit, lambda p: {
            "fit": ["fit", "--data", p.edited, "--has-header", "--out", p.out],
            "ci": ["predict", "--model", p.model, "--grid=-500:500:7", "--ci", "0.1",
                   "--data", p.edited, "--has-header", "--out", p.out],
            "report": ["report", "--model", p.model, "--data", p.edited, "--has-header",
                       "--out-dir", p.out],
        }[command]
    command = draw(st.sampled_from(["mean", "ci"]))
    return command, "query", edit, lambda p: [
        "predict", "--model", p.model, "--query", p.edited, "--has-header",
        *(["--ci", "0.1", "--data", p.train] if command == "ci" else []), "--out", p.out]


_Paths = collections.namedtuple("_Paths", "model train query edited out")


class TestInputFuzz:
    """One cell or row of a training or query CSV edited, or one flag drawn from
    outside its range: the exit code is 0, 1 or 2, a nonzero exit leaves no
    output, and exit 0 writes only finite numbers."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_input_cases())
    def test_edited_input_or_flag_exits_cleanly(self, tmp_path, served, case):
        command, target, edit, argv = case
        payload, train = served
        paths = _Paths(*(str(tmp_path / name) for name in
                         ("model.json", "train.csv", "query.csv", "edited.csv", "out")))
        Path(paths.model).write_text(json.dumps(payload))
        shutil.copyfile(train, paths.train)
        Path(paths.query).write_text("x_1\n-500.0\n-1.5\n0.0\n3.25\n499.0\n")
        if edit is not None:
            lines = Path(getattr(paths, target)).read_text().splitlines()
            edit(lines)
            Path(paths.edited).write_text("".join(f"{ln}\n" for ln in lines), encoding="utf-8")
        out = Path(paths.out)
        if out.is_dir():
            shutil.rmtree(out)
        out.unlink(missing_ok=True)
        with np.errstate(all="ignore"):
            try:
                code = _run(*argv(paths))
            except SystemExit as exc:  # argparse refuses a flag value this way
                code = exc.code
        assert code in (0, 1, 2)
        if code != 0:
            assert not out.exists()
        else:
            assert _finite_outputs(command, out, load_model(paths.model)[0].history)
