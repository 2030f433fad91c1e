"""xTRSM and xTRMM of the BLAS that scipy bundles, called without the GIL.

They are the routines of ``scipy.linalg.blas.dtrsm`` and ``dtrmm``, reached through
the function pointers of ``scipy.linalg.cython_blas``: the same bits, but ctypes
releases the GIL, which the f2py wrappers hold.  ``each`` runs a sequence of
independent calls, such as those or the d = 1 order searches, every one but the
last on a worker thread, made on first use and again in a child after ``fork()``.
"""
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

from scipy.linalg import cython_blas

_name, _pointer = ctypes.pythonapi.PyCapsule_GetName, ctypes.pythonapi.PyCapsule_GetPointer
_name.restype, _name.argtypes = ctypes.c_char_p, [ctypes.py_object]
_pointer.restype, _pointer.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p]


def _routine(name: str):
    capsule = cython_blas.__pyx_capi__[name]
    routine = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 11)(_pointer(capsule, _name(capsule)))

    def call(alpha: float, A, B, trans: bool = False):
        """B <- alpha op(A)^-1 B (xTRSM) or alpha op(A) B (xTRMM) in place, A lower."""
        if B.ndim != 2 or A.shape != (len(B), len(B)) or any(a.size and (
                a.dtype != "float64" or not a.flags.writeable or a.strides[0] != 8
                or a.strides[1] < 8 * len(a)) for a in (A, B)):
            raise ValueError("expected writable float64 arrays or column blocks in F order, "
                             "A square with B's row count")
        ints = [ctypes.c_int(k) for k in (*B.shape, A.strides[1] // 8, B.strides[1] // 8)]
        if B.size:  # every integer and alpha by reference, as Fortran takes them
            routine(b"L", b"L", b"T" if trans else b"N", b"N", *map(ctypes.byref, ints[:2]),
                    ctypes.byref(ctypes.c_double(alpha)), A.ctypes.data,
                    ctypes.byref(ints[2]), B.ctypes.data, ctypes.byref(ints[3]))
        return B
    return call


trsm, trmm = _routine("dtrsm"), _routine("dtrmm")
_workers = {}  # process id -> its worker: a child after fork() inherits no thread
_thread = threading.local()  # ``on_worker`` is set on the worker thread only


def _cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _mark_worker():
    _thread.on_worker = True


def each(calls, count: int | None = None) -> list:
    """The values of the independent calls ``(fn, *args)`` in ``calls``, in order;
    ``count`` is how many it yields (``len(calls)`` by default).

    With two CPUs, each call but the last starts on the worker as soon as it is drawn,
    and the last runs here; every worker call has ended when this returns or raises.
    On one CPU, or on the worker (not to queue behind its own caller), all run here.

    Give the worker only leaf calls on arrays the caller allocated: what the worker
    allocates grows a second malloc arena.  The one exception is a d = 1 order
    search (``network._searches``), whose arena then holds one pencil line: about
    6 l^2 doubles at its ``eigh``, plus n l."""
    if _cpus() < 2 or getattr(_thread, "on_worker", False):
        return [fn(*args) for fn, *args in calls]
    last = (len(calls) if count is None else count) - 1
    pid = os.getpid()
    worker = _workers.get(pid) or _workers.setdefault(
        pid, ThreadPoolExecutor(1, initializer=_mark_worker))
    values = []  # a future for each worker call, then the values of those run here
    try:
        for k, (fn, *args) in enumerate(calls):
            values.append(worker.submit(fn, *args) if k < last else fn(*args))
    finally:
        wait(values[:last])
    return [future.result() for future in values[:last]] + values[last:]
