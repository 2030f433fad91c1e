"""The scripts run end to end and write their tables; the benchmark recorder
parses canned benchmark output."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _table(path):
    """(metadata lines, header, data lines) of a CSV written by write_csv."""
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = lines[len(meta):]
    return meta, body[0].split(","), body[1:]


@pytest.mark.parametrize(
    "family, n, coords, band_rows",
    [("schwefel1d", 80, ["x_1"], 1000), ("bohachevsky2d", 100, ["x_1", "x_2"], 900)],
)
def test_script_writes_its_tables(tmp_path, family, n, coords, band_rows):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiment.py"), family, "--n", str(n),
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()

    meta, header, rows = _table(tmp_path / "prediction_band.csv")
    assert [m.split("=")[0] for m in meta] == ["# df_res", "# sigma2_hat", "# alpha"]
    assert header == coords + ["true", "mean", "std", "lower", "upper"]
    assert len(rows) == band_rows
    assert {len(r.split(",")) for r in rows} == {len(header)}

    # the summary line reads "convergence ... |X_t|=<size>, ..., coverage=<fraction>"
    summary = next(ln for ln in out if "|X_t|=" in ln)
    size = int(summary.split("|X_t|=")[1].split(",")[0])
    assert 0.0 <= float(summary.split("coverage=")[1]) <= 1.0
    _, header, rows = _table(tmp_path / "selected_points.csv")
    assert header == coords
    assert len(rows) == size

    scales = [ln.split()[0] for ln in out if ln.split()[:1] and ln.split()[0].isdigit()]
    _, header, rows = _table(tmp_path / "cost_curve.csv")
    assert header == ["s", "epsilon_s", "l_s", "comp_s", "cost"]
    assert [r.split(",")[0] for r in rows] == scales


def test_basin_sweep_counts_its_searches():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "basin_sweep.py"), "--n", "40", "--seeds", "1",
         "--scales", "1", "--grid-side", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("above the grid minimum: ") and last.endswith(" of 4")


def test_fit_fingerprint_repeats_its_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    names = ["serve_cli-11", "cli-schwefel1d", "cli-bohachevsky2d"]
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "fit_fingerprint.py"), "--only", *names],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.splitlines())
    assert runs[0] == runs[1]
    assert [line.split()[0] for line in runs[0]] == names
    assert runs[0][0].startswith("serve_cli-11 t=") and " fit=" in runs[0][0]
    assert all(" files=" in line and " cli=" in line for line in runs[0][1:])


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the shape of one `perfbench/run.py` output, with made-up figures
_BENCH_OUTPUT = """\
# env {"nproc": 2, "blas": "scipy-openblas 0.3.31", "blas_threads": 1, "python": "3.11.7"}
# reference sample median by stretch (s) [0.01, 0.01]
# fit wall times (s) [0.3, 0.31]
# fingerprint {"t": 4, "Q_t": [1, 1]}
# served scale 4
{"correct": true, "attempted": 12, "failed": 0, "metrics": \
{"fit_s": {"value": FIT, "unit": "s"}, "peak_rss_mb": {"value": 92.5, "unit": "MiB"}}}
"""


def test_bench_record_keeps_every_run_and_its_quartiles():
    bench = _bench_record()
    record = {"label": "x"}
    for fit_s in (3.0, 1.0, 2.0, 4.0):
        bench.add_run(record, "fit2d", *bench.parse_run(_BENCH_OUTPUT.replace("FIT", str(fit_s))))
    assert record["env"]["blas"] == "scipy-openblas 0.3.31"
    entry = record["workloads"]["fit2d"]
    assert [run["metrics"]["fit_s"] for run in entry["runs"]] == [3.0, 1.0, 2.0, 4.0]
    assert entry["runs"][0] == {"correct": True, "attempted": 12, "failed": 0,
                                "metrics": {"fit_s": 3.0, "peak_rss_mb": 92.5},
                                "fingerprint": {"t": 4, "Q_t": [1, 1]},
                                "fit_wall_s": [0.3, 0.31]}
    assert entry["summary"]["fit_s"] == {"unit": "s", "runs": 4, "median": 2.5,
                                         "q1": 1.75, "q3": 3.25}
    assert entry["summary"]["peak_rss_mb"]["median"] == 92.5


def test_bench_record_refuses_another_environment_and_a_missing_env_line():
    bench = _bench_record()
    record = {"label": "x"}
    bench.add_run(record, "fit2d", *bench.parse_run(_BENCH_OUTPUT.replace("FIT", "1.0")))
    other = _BENCH_OUTPUT.replace('"nproc": 2', '"nproc": 4').replace("FIT", "1.0")
    with pytest.raises(ValueError, match="environment"):
        bench.add_run(record, "fit2d", *bench.parse_run(other))
    with pytest.raises(ValueError, match="env"):
        bench.parse_run(_BENCH_OUTPUT.split("\n", 1)[1].replace("FIT", "1.0"))
    assert len(record["workloads"]["fit2d"]["runs"]) == 1
