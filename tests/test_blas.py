"""The GIL-free xTRSM and xTRMM, and the worker thread that runs some of them:
every result has the bits of scipy's f2py wrappers, with the worker or without."""
import dataclasses
import multiprocessing
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg.blas import dtrmm, dtrsm

from hiersparse import _blas, influence_traces, network, optimize_gcv, optimize_lambda
from helpers import make_basis_problem


def _force(monkeypatch, on: bool) -> list:
    """Turn the worker on or off, whatever this machine's CPU count; returns the
    list that records each ``trsm``, ``trmm`` and d = 1 order search (``_line_search``):
    its ``args`` and ``kwargs``, and whether it ran ``off`` this thread."""
    monkeypatch.setattr(_blas, "_cpus", lambda: 2 if on else 1)
    calls = []
    for module, name in ((_blas, "trsm"), (_blas, "trmm"), (network, "_line_search")):
        real = getattr(module, name)

        def recorded(*args, _real=real, _caller=threading.get_ident(), **kwargs):
            calls.append(SimpleNamespace(args=args, kwargs=kwargs,
                                         off=threading.get_ident() != _caller))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.fixture(params=[True, False], ids=["worker", "inline"])
def worker(request, monkeypatch):
    """Runs its test with the worker on and off, and checks that it ran only when on."""
    calls = _force(monkeypatch, request.param)
    yield
    assert any(call.off for call in calls) == request.param


def _triangular(l, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(np.tril(rng.standard_normal((l, l))) + l * np.eye(l))


class TestRoutines:
    @pytest.mark.parametrize("l, k", [(1, 1), (5, 3), (64, 70), (205, 52)])
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("alpha", [1.0, -0.37])
    def test_full_arrays_have_the_f2py_bits(self, l, k, trans, alpha):
        L = _triangular(l, l + k)
        B = np.asfortranarray(np.random.default_rng(k).standard_normal((l, k)))
        for ours, f2py in ((_blas.trsm, dtrsm), (_blas.trmm, dtrmm)):
            expect = f2py(alpha, L, B, lower=1, trans_a=int(trans))
            got = ours(alpha, L, np.array(B, order="F"), trans=trans)
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("l, a, cols", [(7, 3, (1, 3)), (50, 13, (13, 26)),
                                            (205, 51, (51, 102))])
    @pytest.mark.parametrize("trans", [False, True])
    def test_column_blocks_are_solved_in_place(self, l, a, cols, trans):
        # the blocks' leading dimension (l) is not their row count (l - a)
        L = _triangular(l, a)
        whole = np.asfortranarray(np.random.default_rng(l).standard_normal((l, l)))
        for ours, f2py in ((_blas.trsm, dtrsm), (_blas.trmm, dtrmm)):
            out = whole.copy(order="F")
            block = out[a:, cols[0]:cols[1]]
            expect = f2py(0.5, L[a:, a:], block, lower=1, trans_a=int(trans))
            assert ours(0.5, L[a:, a:], block, trans=trans) is block
            assert block.tobytes() == np.asfortranarray(expect).tobytes()
            outside = np.ones(whole.shape, dtype=bool)
            outside[a:, cols[0]:cols[1]] = False
            assert np.array_equal(out[outside], whole[outside])  # nothing else written

    def test_other_layouts_are_refused(self):
        L, B = _triangular(4, 0), np.ones((4, 3), order="F")
        frozen = B.copy(order="F")
        frozen.flags.writeable = False
        for A, target in ((L, np.ones((4, 3))), (L, B.astype(np.float32, order="F")),
                          (L, B[::2]), (L, frozen), (np.ascontiguousarray(L), B),
                          (L[1:, 1:], B), (L[:, :3], B), (L, np.ones(4))):
            with pytest.raises(ValueError, match="F order"):
                _blas.trsm(1.0, A, target)


def _lower_solve_oracle(L, T):
    """L^{-1} T block by block through scipy's f2py ``dtrsm``, each block a new array."""
    l, k = T.shape
    out = np.zeros((l, k), order="F")
    edges = np.linspace(0, k, network._TRACE_BLOCKS + 1).astype(int)
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            out[a:, a:b] = dtrsm(1.0, L[a:, a:], T[a:, a:b], lower=1)
    return out


class TestWorkerChangesNoBit:
    @pytest.mark.parametrize("l", range(1, 3 * network._TRACE_BLOCKS + 2))
    @pytest.mark.parametrize("shape", ["tall", "wide"])
    def test_trace_solve_has_the_bits_of_per_block_f2py_solves(self, worker, l, shape):
        rng = np.random.default_rng(l)
        n = l + 5 if shape == "tall" else max(1, l - 2)
        B = rng.standard_normal((n, l))
        A = rng.standard_normal((l, l))
        system = network._PenalizedSystem(B, A @ A.T / l + 0.1 * np.eye(l), n)
        R = np.linalg.qr(B, mode="r")
        expect = _lower_solve_oracle(system.factor[0], R.T)
        assert system.V.tobytes() == expect.tobytes()
        assert system.V.flags.f_contiguous

    def test_an_empty_basis_has_zero_traces(self, worker):
        assert influence_traces(np.zeros((4, 0)), np.zeros((0, 0)), 4) == (0.0, 0.0)

    # d = 1 calls neither ``trsm`` nor ``trmm``: there the worker takes the q = 1
    # search, at l = 11 of n = 40 and at l = 55 of n = 60
    @pytest.mark.parametrize("n, d, seed, s", [(80, 2, 4, 2), (60, 2, 7, 3), (40, 3, 5, 1),
                                               (40, 1, 2, 1), (60, 1, 3, 8)])
    def test_every_field_of_the_search_is_the_same(self, monkeypatch, n, d, seed, s):
        prob = make_basis_problem(n, d, seed=seed, s=s)
        args = prob["B"], prob["Y"], prob["centers"], n
        found = {}
        for on in (False, True):
            calls = _force(monkeypatch, on)
            found[on] = optimize_gcv(*args)
            assert any(call.off for call in calls) == on
        assert np.isfinite(found[False].cost)
        for field in dataclasses.fields(found[False]):
            inline, threaded = getattr(found[False], field.name), getattr(found[True], field.name)
            assert np.array_equal(inline, threaded), field.name
            assert np.asarray(inline).tobytes() == np.asarray(threaded).tobytes()


def _submit_from_the_worker():
    outer = threading.get_ident()
    nested = [(threading.get_ident,)] * 2
    (thread, inner), here = _blas.each([
        (lambda: (threading.get_ident(), _blas.each(nested)),), (threading.get_ident,)])
    assert thread != outer and inner == [thread, thread] and here == outer


def test_a_call_submitted_from_the_worker_runs_there_at_once(monkeypatch):
    # queued behind the call that submitted it, it would wait forever; in a
    # child, so that a stuck worker cannot hold up this process's exit
    _force(monkeypatch, True)
    child = multiprocessing.get_context("fork").Process(target=_submit_from_the_worker)
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a call submitted from the worker did not finish within 30 s")
    assert child.exitcode == 0


def test_inline_calls_give_their_value(monkeypatch):
    _force(monkeypatch, False)
    here = threading.get_ident()
    assert _blas.each([(threading.get_ident,), (abs, -2), (max, 3, 4)]) == [here, 2, 4]
    assert _blas.each([]) == []


class TestHandOffRule:
    """With the worker on: which calls ``each`` runs where, and when it returns."""

    def test_all_but_the_last_call_run_on_the_worker_in_order(self, monkeypatch):
        _force(monkeypatch, True)
        here = threading.get_ident()
        *threads, value = _blas.each([(threading.get_ident,)] * 3 + [(max, 3, 4)])
        assert threads[0] == threads[1] == threads[2] != here and value == 4
        assert _blas.each([(threading.get_ident,)]) == [here]  # a lone call runs here
        assert _blas.each(iter([]), 0) == []

    def test_a_worker_call_starts_before_the_next_is_drawn(self, monkeypatch):
        _force(monkeypatch, True)
        started = threading.Event()

        def calls():
            yield (started.set,)
            assert started.wait(5.0), "the first call waited for the second to be drawn"
            yield (abs, -1)

        assert _blas.each(calls(), 2) == [None, 1]

    @pytest.mark.parametrize("failing", ["the last call", "drawing a call", "a worker call"])
    def test_every_worker_call_has_ended_when_an_error_arrives(self, monkeypatch, failing):
        _force(monkeypatch, True)
        ended = threading.Event()

        def slow():
            time.sleep(0.3)
            ended.set()

        def fail():
            raise RuntimeError(failing)

        def calls():
            yield (fail,) if failing == "a worker call" else (slow,)
            yield (slow,) if failing == "a worker call" else (abs, -1)
            if failing == "drawing a call":
                fail()
            yield (fail,) if failing == "the last call" else (ended.wait, 5.0)

        with pytest.raises(RuntimeError, match=failing):
            _blas.each(calls(), 3)
        assert ended.is_set()

    def test_the_largest_trace_block_is_solved_on_the_worker(self, monkeypatch):
        l = 40
        L = _triangular(l, 1)
        T = np.asfortranarray(np.tril(np.random.default_rng(1).standard_normal((l, l))))
        calls = _force(monkeypatch, True)
        network._lower_solve(L, T)
        edges = np.linspace(0, l, network._TRACE_BLOCKS + 1).astype(int)
        blocks = {call.args[1].shape[0]: call.off for call in calls}
        assert blocks == {l - a: a == 0 for a in edges[:-1]}

    def test_the_last_hessian_product_is_formed_here(self, monkeypatch):
        prob = make_basis_problem(40, 3, seed=5, s=1)
        B, Y, centers, n = prob["B"], prob["Y"], prob["centers"], 40
        surface = network._GCVSurface(B, Y, B.T @ B, np.linalg.qr(B, mode="r"),
                                      centers, n, (1, 2, 1))
        point = surface.at(np.array([-3.0, -2.0, -4.0]))
        assert np.isfinite(point.cost)
        calls = _force(monkeypatch, True)
        surface.derivatives(point)
        products = {call.args[0]: call.off for call in calls if not call.kwargs}
        assert products == {s_i: i < 2 for i, s_i in enumerate(n * point.lam)}

    def test_the_last_order_search_runs_here_and_a_lone_one_inline(self, monkeypatch):
        prob = make_basis_problem(60, 1, seed=3, s=8)
        args = prob["B"], prob["Y"], prob["centers"], 60
        calls = _force(monkeypatch, True)
        optimize_gcv(*args)
        assert {call.args[-1]: call.off for call in calls} == {(1,): True, (2,): False}
        calls.clear()
        optimize_lambda(*args, (1,))
        assert [(call.args[-1], call.off) for call in calls] == [((1,), False)]


def _fit_in_child(args, expect):
    got = optimize_gcv(*args)
    assert np.array_equal(got.theta, expect.theta) and got.cost == expect.cost


def test_a_forked_child_makes_its_own_worker(monkeypatch):
    # a child inherits the parent's executor but not its thread: submitting to
    # that executor would wait forever
    _force(monkeypatch, True)
    prob = make_basis_problem(60, 2, seed=7, s=3)
    args = prob["B"], prob["Y"], prob["centers"], 60
    expect = optimize_gcv(*args)
    assert _blas._workers  # the parent has made its worker
    child = multiprocessing.get_context("fork").Process(target=_fit_in_child,
                                                        args=(args, expect))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child did not finish its fit within 60 s")
    assert child.exitcode == 0
