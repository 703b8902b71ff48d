"""Compiled random-scan heat-bath chain kernels, loaded through ctypes.

On first import ``chain_kernel.c`` is compiled with ``cc`` into this
package's ``__pycache__``, under a file name keyed by the source and the
flags; later imports load the cached library.  ``ctypes.CDLL`` releases the
GIL during each call, so chains on worker threads run in parallel.  Without
a compiler, with an unwritable cache or a failed compile the import raises
ImportError, and ``sampling`` falls back to the pure-Python twin.

The wrappers take the twin's arguments, and check dtype, contiguity and
lengths before passing pointers, so a bad array raises TypeError or
ValueError instead of reading out of bounds.  ``bind`` checks the arrays of
the early exit once for a chunk of chains that reuses them, so that
``coalesce_*`` costs one foreign call per chain.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile

import numpy as np

KERNEL_NAME = "compiled"

# No -ffast-math or -march=native, and no contraction into fused
# multiply-adds: each would break bit-identity with the twin.
_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_HERE = os.path.dirname(os.path.abspath(__file__))


def _build() -> str:
    """Path of the compiled kernel, compiling it into the cache if absent."""
    with open(os.path.join(_HERE, "chain_kernel.c"), "rb") as f:
        source = f.read()
    key = hashlib.sha256(source + "\0".join(_FLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(_HERE, "__pycache__")
    lib = os.path.join(cache, f"chain_kernel-{key}.so")
    if os.path.exists(lib):
        return lib
    import subprocess  # only a cold cache needs it: 0.5 MB resident otherwise

    cc = shutil.which("cc")
    if cc is None:
        raise ImportError("no C compiler (cc) on PATH to build the chain kernel")
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        # compile the bytes that were hashed, from stdin
        subprocess.run([cc, *_FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                       input=source, check=True, capture_output=True, timeout=300)
        os.replace(tmp, lib)  # atomic: concurrent importers never see half a file
    except subprocess.SubprocessError as exc:
        detail = (exc.stderr or b"").decode(errors="replace").strip()
        raise ImportError(f"compiling the chain kernel failed: {exc} {detail}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


try:
    _lib = ctypes.CDLL(_build())
except OSError as exc:  # unreadable source, unwritable cache, unloadable library
    raise ImportError(f"cannot build the chain kernel: {exc}") from exc

_i64, _ptr = ctypes.c_int64, ctypes.c_void_p
_lib.run_hardcore.argtypes = [_i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _i64]
_lib.run_ising.argtypes = [_i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _i64]
_lib.run_hardcore.restype = _lib.run_ising.restype = ctypes.c_int
_lib.coalesce_hardcore.argtypes = [_i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr,
                                   _i64, _i64, _i64, _ptr]
_lib.coalesce_ising.argtypes = [_i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr,
                                _i64, _i64, _i64, _ptr]
_lib.coalesce_hardcore.restype = _lib.coalesce_ising.restype = ctypes.c_int64


def _data(a, dtype, name: str, size: int) -> int:
    """Address of ``a``'s buffer once ``a`` is a 1-d C-contiguous ``dtype``
    array of ``size`` elements."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype or a.ndim != 1:
        raise TypeError(f"{name} must be a 1-d numpy array of {np.dtype(dtype)}")
    if not a.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")
    if len(a) != size:
        raise ValueError(f"{name} has {len(a)} entries, expected {size}")
    return a.ctypes.data


def _graph_args(indptr, indices, state, sites, us):
    n, nnz, steps = len(state), len(indices), len(sites)
    st = _data(state, np.int8, "state", n)
    if not state.flags.writeable:
        raise ValueError("state must be writeable")
    return (
        n,
        _data(indptr, np.int32, "indptr", n + 1),
        _data(indices, np.int32, "indices", nnz),
        nnz,
        st,
        _data(sites, np.int64, "sites", steps),
        _data(us, np.float64, "us", steps),
        steps,
    )


def _check(status: int) -> None:
    if status != 0:
        raise ValueError("a site or neighbour index lies outside the graph")


def run_hardcore(indptr, indices, p_plus, state, sites, us):
    """Advance a hardcore heat-bath chain; mutates ``state`` in place."""
    n, ip, ix, nnz, st, si, u, steps = _graph_args(indptr, indices, state, sites, us)
    pp = _data(p_plus, np.float64, "p_plus", n)
    _check(_lib.run_hardcore(n, ip, ix, nnz, pp, st, si, u, steps))


def run_ising(indptr, indices, csr_j, h, state, sites, us):
    """Advance a soft-Ising heat-bath chain; mutates ``state`` in place."""
    n, ip, ix, nnz, st, si, u, steps = _graph_args(indptr, indices, state, sites, us)
    j = _data(csr_j, np.float64, "csr_j", nnz)
    hv = _data(h, np.float64, "h", n)
    _check(_lib.run_ising(n, ip, ix, nnz, j, hv, st, si, u, steps))


class Bound:
    """Checked arguments of ``coalesce_*``, addresses taken once.

    Holds the arrays, so the addresses stay valid while it lives.
    """

    __slots__ = ("kind", "arrays", "head", "scratch")

    def __init__(self, kind, arrays, head, scratch):
        self.kind, self.arrays, self.head, self.scratch = kind, arrays, head, scratch


def bind(indptr, indices, weights, pins, state, sites, us) -> Bound:
    """The early exit's arguments for chains that reuse these arrays.

    ``weights`` is ``(p_plus,)`` for hardcore and ``(csr_j, h)`` for Ising;
    ``pins`` holds 0 at the free vertices and the pinned spin elsewhere.
    """
    n, ip, ix, nnz, st, si, u, steps = _graph_args(indptr, indices, state, sites, us)
    if len(weights) == 1:
        kind, w = "hardcore", [_data(weights[0], np.float64, "p_plus", n)]
    elif len(weights) == 2:
        kind = "ising"
        w = [_data(weights[0], np.float64, "csr_j", nnz), _data(weights[1], np.float64, "h", n)]
    else:
        raise TypeError("weights must be (p_plus,) or (csr_j, h)")
    pn = _data(pins, np.int8, "pins", n)
    scratch = np.empty(n, dtype=np.int8)
    arrays = (indptr, indices, *weights, pins, state, sites, us, scratch)
    return Bound(kind, arrays, (n, ip, ix, nnz, *w, pn, st, si, u, steps), scratch.ctypes.data)


def _coalesce(fn, kind: str, bound: Bound, w0: int, limit: int) -> tuple[int, bool]:
    if bound.kind != kind:
        raise TypeError(f"arguments bound for a {bound.kind} chain")
    r = fn(*bound.head, w0, limit, bound.scratch)
    if r == -1:
        _check(r)
    return (r, True) if r >= 0 else (-2 - r, False)


def coalesce_hardcore(bound: Bound, w0: int, limit: int) -> tuple[int, bool]:
    """Early exit of a hardcore chain: ``(steps spent, coalesced)``; the
    bound ``state`` holds the chain's result when it coalesced."""
    return _coalesce(_lib.coalesce_hardcore, "hardcore", bound, w0, limit)


def coalesce_ising(bound: Bound, w0: int, limit: int) -> tuple[int, bool]:
    """Early exit of a soft-Ising chain; see :func:`coalesce_hardcore`."""
    return _coalesce(_lib.coalesce_ising, "ising", bound, w0, limit)
