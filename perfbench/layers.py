"""Where the benchmark hooks into hiersparse, and the per-layer metric table.

Each hook wraps a public function that one package module calls in the next
(``hierarchy.fit`` -> ``kernel.gram`` -> ``kernel.kernel_matrix`` ...).  The
probes count the library calls the GCV layer spends its time in.
"""
from __future__ import annotations

import os

import numpy as np

from tracer import Hook, Probe, Tracer


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _fit_counts(args, kwargs, model):
    history = getattr(model, "history", [])
    return {
        "hierarchy.scales": len(history),
        "hierarchy.l_s_sum": sum(int(rec.l_s) for rec in history),
        "hierarchy.scales_unfit": sum(1 for rec in history if not np.isfinite(rec.cost)),
    }


def _gram_counts(args, kwargs, result):
    return {"kernel.gram_entries": len(_arg(args, kwargs, 0, "X")) ** 2}


def _sketch_counts(args, kwargs, result):
    return {"sparsify.sketch_rows_sum": int(np.shape(getattr(result, "W", result))[0])}


def _write_csv_counts(args, kwargs, result):
    return {
        "dataio.write_csv_rows": len(_arg(args, kwargs, 2, "rows")),
        "dataio.bytes_written": file_size(_arg(args, kwargs, 0, "path")),
    }


def _save_model_counts(args, kwargs, result):
    return {"dataio.bytes_written": file_size(_arg(args, kwargs, 0, "path"))}


def file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _one_call(counter):
    return lambda args, kwargs, result: {counter: 1}


def _eigh_work(args, kwargs):
    return int(np.shape(_arg(args, kwargs, 0, "a"))[0]) ** 3


P = "hiersparse."
HOOKS = [
    Hook("synth.sample", P + "synth", "sample"),
    Hook("hierarchy.fit", P + "hierarchy", "fit", _fit_counts),
    Hook("kernel.diameter_T", P + "kernel", "diameter_T"),
    Hook("kernel.gram", P + "kernel", "gram", _gram_counts),
    Hook("kernel.numerical_rank", P + "kernel", "numerical_rank"),
    Hook("kernel.kernel_matrix", P + "kernel", "kernel_matrix"),
    Hook("sparsify.sketch", P + "sparsify", "sketch", _sketch_counts),
    Hook("sparsify.pivoted_qr", P + "sparsify", "pivoted_qr_permutation"),
    Hook("sparsify.select_basis", P + "sparsify", "select_basis"),
    Hook("network.optimize_gcv", P + "network", "optimize_gcv"),
    Hook("network.influence_traces", P + "network", "influence_traces"),
    Hook("penalty.components", P + "penalty", "penalty_components"),
    Hook("penalty.operator", P + "penalty", "penalty_operator"),
    Hook("predict.mean", P + "predict", "predict_mean"),
    Hook("predict.intervals", P + "predict", "predict_intervals"),
    Hook("tdist.t_quantile", P + "tdist", "t_quantile", _one_call("tdist.t_quantile_calls")),
    Hook("dataio.write_csv", P + "dataio", "write_csv", _write_csv_counts),
    Hook("dataio.save_model", P + "dataio", "save_model", _save_model_counts),
    Hook("dataio.load_model", P + "dataio", "load_model"),
    Hook("dataio.ingest_csv", P + "dataio", "ingest_csv"),
    Hook("cli.cmd_fit", P + "cli", "cmd_fit"),
    Hook("cli.cmd_predict", P + "cli", "cmd_predict"),
    Hook("cli.cmd_report", P + "cli", "cmd_report"),
]


def probes():
    from scipy.linalg import LinAlgError

    return [
        Probe("network.eigh_calls", "numpy.linalg", "eigh", "network", work=_eigh_work),
        Probe("network.cholesky_calls", P + "network", "cho_factor", "network",
              failure=LinAlgError),
        Probe("network.tri_solves", P + "network", "solve_triangular", "network"),
    ]


# (metric, unit, better) in report order; every workload reports all of them
LAYER_METRICS = [
    ("kernel.gram_s", "s", "lower"),
    ("kernel.gram_entries", "count", "lower"),
    ("kernel.numerical_rank_s", "s", "lower"),
    ("kernel.diameter_T_s", "s", "lower"),
    ("kernel.kernel_matrix_s", "s", "lower"),
    ("sparsify.sketch_s", "s", "lower"),
    ("sparsify.sketch_rows_sum", "count", "lower"),
    ("sparsify.pivoted_qr_s", "s", "lower"),
    ("sparsify.select_basis_s", "s", "lower"),
    ("network.optimize_gcv_s", "s", "lower"),
    ("network.optimize_gcv_self_s", "s", "lower"),
    ("network.eigh_calls", "count", "lower"),
    ("network.eigh_work", "count", "lower"),
    ("network.cholesky_calls", "count", "lower"),
    ("network.cholesky_failed", "count", "lower"),
    ("network.cholesky_ok_frac", "fraction", "higher"),
    ("network.tri_solves", "count", "lower"),
    ("network.influence_traces_s", "s", "lower"),
    ("penalty.components_s", "s", "lower"),
    ("penalty.operator_s", "s", "lower"),
    ("predict.mean_s", "s", "lower"),
    ("predict.intervals_s", "s", "lower"),
    ("predict.intervals_self_s", "s", "lower"),
    ("tdist.t_quantile_s", "s", "lower"),
    ("tdist.t_quantile_calls", "count", "lower"),
    ("dataio.write_csv_s", "s", "lower"),
    ("dataio.write_csv_rows", "count", "lower"),
    ("dataio.bytes_written", "bytes", "lower"),
    ("dataio.save_model_s", "s", "lower"),
    ("dataio.load_model_s", "s", "lower"),
    ("dataio.ingest_csv_s", "s", "lower"),
    ("cli.cmd_predict_self_s", "s", "lower"),
    ("cli.cmd_report_self_s", "s", "lower"),
    ("hierarchy.fit_self_s", "s", "lower"),
    ("hierarchy.scales", "count", "lower"),
    ("hierarchy.l_s_sum", "count", "lower"),
    ("hierarchy.scales_unfit", "count", "lower"),
    ("synth.sample_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.missing_hooks", "count", "lower"),
]

# metric -> (span, which total, parent span to leave out)
_SPAN_METRICS = {
    "kernel.gram_s": ("kernel.gram", "inclusive", None),
    "kernel.numerical_rank_s": ("kernel.numerical_rank", "inclusive", None),
    "kernel.diameter_T_s": ("kernel.diameter_T", "inclusive", None),
    # the predict path only: the Gram build calls kernel_matrix too
    "kernel.kernel_matrix_s": ("kernel.kernel_matrix", "inclusive", "kernel.gram"),
    "sparsify.sketch_s": ("sparsify.sketch", "inclusive", None),
    "sparsify.pivoted_qr_s": ("sparsify.pivoted_qr", "inclusive", None),
    "sparsify.select_basis_s": ("sparsify.select_basis", "inclusive", None),
    "network.optimize_gcv_s": ("network.optimize_gcv", "inclusive", None),
    "network.optimize_gcv_self_s": ("network.optimize_gcv", "self", None),
    "network.influence_traces_s": ("network.influence_traces", "inclusive", None),
    "penalty.components_s": ("penalty.components", "inclusive", None),
    "penalty.operator_s": ("penalty.operator", "inclusive", None),
    "predict.mean_s": ("predict.mean", "inclusive", None),
    "predict.intervals_s": ("predict.intervals", "inclusive", None),
    "predict.intervals_self_s": ("predict.intervals", "self", None),
    "tdist.t_quantile_s": ("tdist.t_quantile", "inclusive", None),
    "dataio.write_csv_s": ("dataio.write_csv", "inclusive", None),
    "dataio.save_model_s": ("dataio.save_model", "inclusive", None),
    "dataio.load_model_s": ("dataio.load_model", "inclusive", None),
    "dataio.ingest_csv_s": ("dataio.ingest_csv", "inclusive", None),
    "cli.cmd_predict_self_s": ("cli.cmd_predict", "self", None),
    "cli.cmd_report_self_s": ("cli.cmd_report", "self", None),
    "hierarchy.fit_self_s": ("hierarchy.fit", "self", None),
    "synth.sample_s": ("synth.sample", "inclusive", None),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every LAYER_METRICS value from a finished traced run."""
    values: dict[str, float] = {}
    for metric, (span, which, exclude) in _SPAN_METRICS.items():
        inclusive, own = tracer.totals(span, exclude_parent=exclude)
        values[metric] = inclusive if which == "inclusive" else own
    counts = tracer.counts
    calls = counts["network.cholesky_calls"]
    values["network.cholesky_ok_frac"] = (
        (calls - counts["network.cholesky_failed"]) / calls if calls else 1.0
    )
    values["trace.overhead_s"] = tracer.overhead_s
    values["trace.missing_hooks"] = len(tracer.missing)
    for metric, _, _ in LAYER_METRICS:
        if metric not in values:
            values[metric] = counts[metric]
    return values
