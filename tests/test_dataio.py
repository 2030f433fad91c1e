import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hiersparse import predict
from hiersparse import (
    CSVParseError,
    Dataset,
    SynthSpec,
    fit,
    predict_intervals,
    predict_mean,
    sample,
)
from hiersparse.model import ScaleRecord, SparseModel
from hiersparse.dataio import (
    export_dataset_csv,
    ingest_csv,
    load_model,
    model_from_dict,
    model_to_dict,
    read_points_csv,
    save_model,
    write_csv,
)


class TestIngest:
    def test_small_file_with_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0,1\n1,2\n2,3\n")
        ds = ingest_csv(p, has_header=True)
        assert ds.n == 3 and ds.d == 1
        assert ds.X[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert ds.Y.tolist() == [1.0, 2.0, 3.0]

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\nabc,2\n2,3\n")
        with pytest.raises(CSVParseError, match=r"row 2"):
            ingest_csv(p)

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,2,9\n")
        with pytest.raises(CSVParseError, match=r"row 2"):
            ingest_csv(p)

    def test_nonfinite_rejected_with_location(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0,1\n1,nan\n")
        with pytest.raises(CSVParseError, match=r"row 2, column 2"):
            ingest_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(CSVParseError, match="no data rows"):
            ingest_csv(p)

    def test_single_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1\n2\n")
        with pytest.raises(CSVParseError):
            ingest_csv(p)

    def test_export_round_trip_large(self, tmp_path):
        ds = sample(SynthSpec("bohachevsky2d", n=10_000, noise_sigma=7.0, seed=5))
        p = tmp_path / "big.csv"
        export_dataset_csv(p, ds)
        back = ingest_csv(p, has_header=True)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)

    def test_read_points_csv(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("0.5,1.5\n2.5,3.5\n")
        pts = read_points_csv(p)
        assert pts.tolist() == [[0.5, 1.5], [2.5, 3.5]]


class TestReadPoints:
    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("x_1,x_2\n0,1\n1\n")
        with pytest.raises(CSVParseError, match=r"row 3 has 1 columns, expected 2"):
            read_points_csv(p, has_header=True)

    def test_non_numeric_cell_names_row_column_and_value(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("0,1\n2,abc\n")
        with pytest.raises(CSVParseError, match=r"row 2, column 2: non-numeric value 'abc'"):
            read_points_csv(p)

    def test_nonfinite_names_row_column_and_value(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("0,1\n-inf,2\n")
        with pytest.raises(CSVParseError, match=r"row 2, column 1: nonfinite value '-inf'"):
            read_points_csv(p)

    @pytest.mark.parametrize("text, fault", [
        ("0,1\n2,inf\n3\n4,abc\n", "row 2, column 2: nonfinite value 'inf'"),
        ("0,1\n3\n2,inf\n4,abc\n", "row 2 has 1 columns, expected 2"),
        ("0,1\n4,abc\n3\n2,inf\n", "row 2, column 2: non-numeric value 'abc'"),
        ("0,1\n1e999,abc\n", "row 2, column 1: nonfinite value '1e999'"),
        ("0,1\n2,3\n\n4\n", "row 4 has 1 columns, expected 2"),
    ])
    def test_the_first_fault_in_reading_order_is_named(self, tmp_path, text, fault):
        p = tmp_path / "q.csv"
        p.write_text(text)
        with pytest.raises(CSVParseError, match=re.escape(f"q.csv: {fault}")):
            read_points_csv(p)

    def test_numeric_first_row_is_not_a_header(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("0.5,1.5\n2.5,3.5\n")
        with pytest.raises(CSVParseError, match=r"q\.csv: row 1 is read as a header"):
            read_points_csv(p, has_header=True)
        with pytest.raises(CSVParseError, match=r"row 1 is read as a header"):
            ingest_csv(p, has_header=True)

    def test_header_with_one_text_cell_is_skipped(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("1,x_2\n2.5,3.5\n")
        assert read_points_csv(p, has_header=True).tolist() == [[2.5, 3.5]]

    def test_single_column_is_a_point_set(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("1\n2\n")
        assert read_points_csv(p).tolist() == [[1.0], [2.0]]

    @staticmethod
    def _with_and_without_bom(tmp_path, text):
        # spreadsheet exports start with a UTF-8 byte order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        return plain, marked

    def test_byte_order_mark_is_not_part_of_the_first_cell(self, tmp_path):
        plain, marked = self._with_and_without_bom(tmp_path, "0.0,1.5\n2.5,3.5\n")
        assert np.array_equal(read_points_csv(marked), read_points_csv(plain))
        train, train_plain = ingest_csv(marked), ingest_csv(plain)
        assert np.array_equal(train.X, train_plain.X)
        assert np.array_equal(train.Y, train_plain.Y)

    def test_byte_order_mark_does_not_hide_a_numeric_first_row(self, tmp_path):
        _, marked = self._with_and_without_bom(tmp_path, "0.5,1.5\n2.5,3.5\n")
        with pytest.raises(CSVParseError, match=r"row 1 is read as a header"):
            read_points_csv(marked, has_header=True)

    def test_bytes_that_are_not_utf8_are_a_parse_error(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_bytes(b"0.5\n1\xff\n")
        with pytest.raises(CSVParseError, match=r"q\.csv: not UTF-8 text"):
            read_points_csv(p)


def _fitted_model(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(25, 1))
    Y = np.sin(5 * X[:, 0]) + 0.1 * rng.standard_normal(25)
    return fit(Dataset(X=X, Y=Y), seed=seed)


class TestModelFile:
    def test_round_trip_field_for_field(self, tmp_path):
        model = _fitted_model()
        params = {"T": "auto", "M": 2.0, "phi": 1e-10, "k_extra": 8, "seed": 0, "max_scales": 25}
        prov = {"input": "synth:test", "input_sha256": "0" * 64}
        path = tmp_path / "m.json"
        save_model(path, model, params, prov)
        loaded, lparams, lprov = load_model(path)
        assert lparams == params and lprov == prov
        assert loaded.t == model.t
        assert loaded.epsilon_t == model.epsilon_t
        assert np.array_equal(loaded.X_t, model.X_t)
        assert np.array_equal(loaded.Y_t, model.Y_t)
        assert np.array_equal(loaded.C_t, model.C_t)
        assert np.array_equal(loaded.Lambda_t, model.Lambda_t)
        assert loaded.Q_t == model.Q_t
        assert loaded.n_train == model.n_train
        assert len(loaded.history) == len(model.history)
        for a, b in zip(loaded.history, model.history):
            assert (a.s, a.epsilon_s, a.l_s, a.comp_s, a.cost, a.seed) == (
                b.s, b.epsilon_s, b.l_s, b.comp_s, b.cost, b.seed,
            )
            assert np.array_equal(a.lam, b.lam) and a.q == b.q
            assert np.array_equal(a.points, b.points)

    def test_serialize_is_deterministic(self):
        model = _fitted_model(seed=1)
        assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(model))

    def test_file_is_read_off_the_dataclasses(self):
        # field order is the key order, lam is "lambda", tuples and arrays are lists,
        # numpy scalars are the Python numbers they equal, an unfit cost is null
        fit_rec = ScaleRecord(s=0, epsilon_s=2.0, l_s=1, comp_s=np.float32(0.5),
                              cost=np.float64(0.25), lam=np.array([0.125]), q=(2,),
                              seed=np.int64(7), points=np.array([[1.5]]))
        unfit = ScaleRecord(s=1, epsilon_s=1.0, l_s=2, comp_s=0.0, cost=np.float64(np.inf),
                            lam=None, q=None, seed=np.int64(8),
                            points=np.array([[1.5], [-0.5]]))
        model = SparseModel(t=0, epsilon_t=2.0, X_t=fit_rec.points, Y_t=np.array([3.0]),
                            C_t=np.array([0.75]), Lambda_t=fit_rec.lam, Q_t=(2,), n_train=2,
                            history=[fit_rec, unfit])
        text = json.dumps(model_to_dict(model))
        assert text == (
            '{"t": 0, "epsilon_t": 2.0, "X_t": [[1.5]], "Y_t": [3.0], "C_t": [0.75], '
            '"Lambda_t": [0.125], "Q_t": [2], "n_train": 2, "history": ['
            '{"s": 0, "epsilon_s": 2.0, "l_s": 1, "comp_s": 0.5, "cost": 0.25, '
            '"lambda": [0.125], "q": [2], "seed": 7, "points": [[1.5]]}, '
            '{"s": 1, "epsilon_s": 1.0, "l_s": 2, "comp_s": 0.0, "cost": null, '
            '"lambda": null, "q": null, "seed": 8, "points": [[1.5], [-0.5]]}]}')
        assert json.dumps(model_to_dict(model_from_dict(json.loads(text)))) == text

    def test_failed_scale_cost_survives_as_null(self):
        model = _fitted_model(seed=2)
        model.history[0].cost = math.inf
        model.history[0].lam = None
        model.history[0].q = None
        d = model_to_dict(model)
        assert d["history"][0]["cost"] is None
        back = model_from_dict(json.loads(json.dumps(d)))
        assert math.isinf(back.history[0].cost)
        assert back.history[0].lam is None and back.history[0].q is None

    def test_version_one_file_predicts_as_its_rewrite(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(X=rng.uniform(0, 1, size=(40, 1)), Y=rng.standard_normal(40))
        model = fit(ds, seed=3)
        v2, v1 = tmp_path / "v2.json", tmp_path / "v1.json"
        save_model(v2, model, {}, {})
        payload = json.loads(v2.read_text())
        assert payload["schema_version"] == 2 and "df_res_inputs" not in payload["model"]
        # a version-1 file also carried the influence traces at the winner
        payload["schema_version"] = 1
        payload["model"]["df_res_inputs"] = {"trace_U": 5.0, "trace_UUT": 4.0}
        v1.write_text(json.dumps(payload))
        old, new = load_model(v1)[0], load_model(v2)[0]
        X_m = np.linspace(0.0, 1.0, 7)[:, None]
        assert np.array_equal(predict_mean(old, X_m), predict_mean(new, X_m))
        a, b = predict_intervals(old, ds, X_m), predict_intervals(new, ds, X_m)
        for name in ("mean", "std", "lower", "upper"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.df_res, a.sigma2_hat) == (b.df_res, b.sigma2_hat)

    # float() read "0.5" as 0.5 and true as 1.0, so a file with either loaded
    @pytest.mark.parametrize("field", ["epsilon_t", "X_t", "Y_t", "C_t", "Lambda_t",
                                       "epsilon_s", "comp_s", "cost", "lambda", "points"])
    @pytest.mark.parametrize("leaf", [str, lambda v: True], ids=["string", "true"])
    def test_float_field_refuses_a_string_or_a_boolean(self, field, leaf):
        d = model_to_dict(_fitted_model(seed=4))
        owner = d if field in d else d["history"][d["t"]]

        def first_leaf_as(value):
            return [first_leaf_as(value[0]), *value[1:]] if isinstance(value, list) else leaf(value)

        owner[field] = first_leaf_as(owner[field])
        with pytest.raises(ValueError, match=f"{field} numbers, not strings or booleans"):
            model_from_dict(d)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError, match="schema_version"):
            load_model(path)


class TestWriteCSV:
    def test_meta_lines_and_full_precision(self, tmp_path):
        p = tmp_path / "o.csv"
        value = 1.0 / 3.0
        write_csv(p, ["a", "b"], [[1, value]], meta={"alpha": 0.05, "note": "x"})
        lines = p.read_text().splitlines()
        assert lines[0] == "# alpha=0.05"
        assert lines[1] == "# note=x"
        assert lines[2] == "a,b"
        cell = lines[3].split(",")[1]
        assert float(cell) == value  # repr round-trips exactly

    def test_mixed_rows_keep_their_text(self, tmp_path):
        p = tmp_path / "o.csv"
        rows = [[3, np.int64(-4), np.float64(0.1), "inf", ""], [0, np.int64(7), 2.0, "1;2", "x"]]
        write_csv(p, ["a", "b", "c", "d", "e"], rows)
        assert p.read_text() == "a,b,c,d,e\n3,-4,0.1,inf,\n0,7,2.0,1;2,x\n"

    def test_special_floats_in_an_array(self, tmp_path):
        p = tmp_path / "o.csv"
        row = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, np.nan, np.inf, -np.inf]
        write_csv(p, list("abcdefgh"), np.array([row]))
        assert p.read_text().splitlines()[1] == (
            "-0.0,5e-324,1e-05,1e+16,1.7976931348623157e+308,nan,inf,-inf"
        )

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(1, 5)),
            elements=st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(
                [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, np.nan, np.inf]
            ),
        )
    )
    def test_array_matches_cellwise_repr(self, tmp_path_factory, table):
        p = tmp_path_factory.mktemp("csv") / "o.csv"
        header = [f"c{j}" for j in range(table.shape[1])]
        write_csv(p, header, table, meta={"alpha": 0.05})
        expected = ["# alpha=0.05", ",".join(header)]
        expected += [",".join(repr(float(v)) for v in row) for row in table]
        assert p.read_text() == "\n".join(expected) + "\n"

    def test_rows_of_several_blocks_match_cellwise_repr(self, tmp_path):
        # the array is formatted a block of rows at a time; the text is unchanged
        p = tmp_path / "o.csv"
        table = np.random.default_rng(3).standard_normal((2 * predict._BLOCK_ROWS + 5, 3))
        table[::997] = [-0.0, np.nan, 5e-324]
        write_csv(p, ["a", "b", "c"], table)
        expected = ["a,b,c"] + [",".join(repr(float(v)) for v in row) for row in table]
        assert p.read_text() == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "array"])
    def test_no_rows_writes_the_header_only(self, tmp_path, rows):
        p = tmp_path / "o.csv"
        write_csv(p, ["a", "b", "c"], rows)
        assert p.read_text() == "a,b,c\n"
