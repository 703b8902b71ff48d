"""Compiled random-scan heat-bath chain kernels, loaded through ctypes.

On first import ``chain_kernel.c`` is compiled with ``cc`` into this
package's ``__pycache__``, under a file name keyed by the source and the
flags; later imports load the cached library.  ``ctypes.CDLL`` releases the
GIL during each call, so chunks of chains on worker threads run in
parallel.  Without a compiler, with an unwritable cache or a failed compile
the import raises ImportError, and ``sampling`` falls back to the
pure-Python twin.

``sample_chunk`` runs a chunk of a batch's chains in one foreign call and
draws their randomness in C, from the batch's Philox4x64-10 key: only the
tail that the early exit reads, and the whole chain only when no window
coalesces (see ``chain_kernel.c`` for the stream's layout and the site
map's bias bound).  ``run_hardcore`` and ``run_ising`` apply pre-drawn
updates.  The wrappers take the twin's arguments, and check dtype,
contiguity and lengths before passing pointers, so a bad array raises
TypeError or ValueError instead of reading or writing out of bounds.
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
_lib.sample_chunk.argtypes = [_i64, _ptr, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _i64, _ptr,
                              _i64, _i64, _i64, _i64, _i64, _ptr, _ptr]
_lib.sample_chunk.restype = ctypes.c_int64
_lib.philox4x64_10.argtypes = [_ptr, _ptr, _ptr]
_lib.philox4x64_10.restype = None


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
    if status < 0:
        raise ValueError("a site, free vertex, pin or neighbour index lies out of range")


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


def sample_chunk(indptr, indices, weights, pins, free, key, out, first, size, steps, w0, limit):
    """Chains ``first .. first + size - 1`` of a batch into those rows of ``out``.

    ``weights`` is ``(p_plus,)`` for hardcore and ``(csr_j, h)`` for Ising;
    ``pins`` holds 0 at the free vertices and the pinned spin elsewhere, and
    ``free`` lists the free vertices.  ``key`` (two uint64) keys the batch's
    Philox4x64-10 stream; chain ``c`` reads counters ``(t >> 1, c, 0, 0)``
    for step ``t`` and ``(k >> 8, c, 1, 0)`` for the start spins, so a row
    depends on the key and its index alone.  Each chain tries the early
    exit's windows (``w0``, ``2 w0``, ... within ``limit`` steps; none when
    ``w0`` is 0) over the tail of its ``steps`` updates, drawing only that
    tail, and runs the plain chain when none coalesces.  Returns
    ``(steps run, chains that ran the plain chain)``.
    """
    n = len(pins)
    if len(weights) == 1:
        w = (_data(weights[0], np.float64, "p_plus", n), None, None)
    elif len(weights) == 2:
        w = (None, _data(weights[0], np.float64, "csr_j", len(indices)),
             _data(weights[1], np.float64, "h", n))
    else:
        raise TypeError("weights must be (p_plus,) or (csr_j, h)")
    if not isinstance(out, np.ndarray) or out.dtype != np.int8 or out.ndim != 2:
        raise TypeError("out must be a 2-d numpy array of int8")
    if not out.flags.c_contiguous or not out.flags.writeable:
        raise ValueError("out must be C-contiguous and writeable")
    if out.shape[1] != n or not 0 <= first <= first + size <= len(out):
        raise ValueError(f"rows {first}..{first + size - 1} of {n} spins do not fit out, "
                         f"{out.shape}")
    fallbacks = ctypes.c_int64()
    spent = _lib.sample_chunk(
        n, _data(indptr, np.int32, "indptr", n + 1),
        _data(indices, np.int32, "indices", len(indices)), len(indices), *w,
        _data(pins, np.int8, "pins", n), _data(free, np.int64, "free", len(free)), len(free),
        _data(key, np.uint64, "key", 2), first, size, steps, w0, limit,
        out.ctypes.data + first * n, ctypes.byref(fallbacks),
    )
    _check(spent)
    return spent, fallbacks.value
