"""Build and load the compiled Newton device pass (``_devkernel.c``).

The C source ships as package data.  On first use a C compiler builds
it into the package ``__pycache__`` (under ``sys.pycache_prefix`` when
set), named by the sha256 of the source, the flags and the compiler
binary (its resolved path, size and mtime: a compiler upgrade replaces
the binary, so a library is never reused across compilers).  The build
goes to a pid-suffixed temp file that is ``os.replace``-d into place,
so concurrent builders never expose a partial file.  A cached library
that fails to load is rebuilt once; an unwritable cache builds into a
throwaway temp dir.  When nothing works :func:`load` returns ``None``
and :class:`~repro.spice.plans.NonlinearPlan` runs its exact numpy
array pass instead — bitwise the same stamps, only slower.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from importlib import resources

import numpy as np

from repro.spice.devices import _EXP_CLAMP as _DIODE_EXP_CLAMP
from repro.spice.mosfet import _EXP_CLAMP as _MOS_EXP_CLAMP

#: Build flags: no fused multiply-adds, so every product and sum rounds
#: exactly as the Python/numpy expressions do.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off",
         f"-DMOS_EXP_CLAMP={_MOS_EXP_CLAMP!r}",
         f"-DDIODE_EXP_CLAMP={_DIODE_EXP_CLAMP!r}")


class Args(ctypes.Structure):
    """``devkernel_args`` of the C source."""

    _fields_ = [("size", ctypes.c_int64), ("n_dev", ctypes.c_int64),
                ("dev", ctypes.c_void_p), ("par", ctypes.c_void_p),
                ("x", ctypes.c_void_p), ("flat", ctypes.c_void_p)]


def _check(a: np.ndarray, dtype, shape: tuple) -> None:
    """Refuse a buffer the C side would read out of bounds."""
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous:
        raise ValueError(f"kernel buffer must be a contiguous {dtype} "
                         f"array of shape {shape}")


class Binding:
    """The compiled device pass bound to one plan's persistent buffers.

    ``dev`` is the plan's device table: one ``(kind, t0, t1, t2)`` row
    per device in netlist order (kind 1: mosfet drain/gate/source,
    kind 0: diode anode/cathode; -1 is ground).  The ``devkernel_args``
    block is filled once and re-pointed only when the scratch buffer or
    the temperature changes, so a call costs one iterate copy and one
    foreign call.
    """

    __slots__ = ("fn", "args", "ref", "x", "dev", "flat", "temp_c", "par")

    def __init__(self, fn, size: int, dev: np.ndarray):
        _check(dev, np.int64, (len(dev), 4))
        if len(dev) and dev[:, 1:].max() >= size:
            raise ValueError("device terminal outside the system")
        self.fn = fn
        self.x = np.zeros(size)
        self.dev = dev
        self.args = Args(size, len(dev), dev.ctypes.data, None,
                         self.x.ctypes.data, None)
        self.ref = ctypes.byref(self.args)
        self.flat = self.par = self.temp_c = None

    def run(self, flat: np.ndarray, x: np.ndarray, temp_c: float,
            params) -> None:
        """One device pass; ``params(temp_c)`` gives the parameter rows
        (passed per call so the binding holds no reference back to its
        plan — a cycle would keep discarded systems alive until the
        cyclic collector runs)."""
        if flat is not self.flat:
            size = self.args.size
            _check(flat, np.float64, (size * size + size + 2,))
            self.flat = flat
            self.args.flat = flat.ctypes.data
        if temp_c != self.temp_c:
            self.par = params(temp_c)
            _check(self.par, np.float64, (len(self.dev), 5))
            self.args.par = self.par.ctypes.data
            self.temp_c = temp_c
        np.copyto(self.x, x)
        self.fn(self.ref)


_LOCK = threading.Lock()
_STATE: dict = {}


def compiler() -> str | None:
    return shutil.which("gcc") or shutil.which("cc")


def source() -> bytes:
    return resources.files(__package__).joinpath("_devkernel.c").read_bytes()


def cache_dir() -> str:
    pkg = os.path.dirname(os.path.abspath(__file__))
    if sys.pycache_prefix:
        return os.path.join(sys.pycache_prefix, pkg.lstrip(os.sep))
    return os.path.join(pkg, "__pycache__")


def library_key(src: bytes, cc: str) -> str:
    st = os.stat(cc)
    ident = f"{os.path.realpath(cc)}:{st.st_size}:{st.st_mtime_ns}"
    blob = b"\0".join([src, " ".join(FLAGS).encode(), ident.encode()])
    return hashlib.sha256(blob).hexdigest()[:24]


def build(cc: str, src: bytes, key: str, path: str) -> bool:
    """Compile ``src`` to ``path``; ``False`` on any failure."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp + ".c", "wb") as fh:
            fh.write(src)
        done = subprocess.run(
            [cc, *FLAGS, f'-DDEVKERNEL_KEY="{key}"', "-o", tmp + ".part",
             tmp + ".c", "-lm"], capture_output=True, timeout=300)
        if done.returncode != 0:
            return False
        os.replace(tmp + ".part", path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        for leftover in (tmp + ".c", tmp + ".part"):
            with contextlib.suppress(OSError):
                os.unlink(leftover)


def open_library(path: str, key: str):
    """The kernel entry point of the library at ``path``, or ``None``.

    The file must carry this build's key tag before it is handed to the
    dynamic loader, so a stale or foreign library is never loaded.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        if not blob.startswith(b"\x7fELF") \
                or f"repro-devkernel:{key}".encode() not in blob:
            return None
        fn = ctypes.CDLL(path).devkernel_apply
    except (OSError, AttributeError):
        return None
    fn.argtypes = [ctypes.c_void_p]
    fn.restype = None
    return fn


def _resolve():
    """``(entry point or None, kernel description, library path)``."""
    cc = compiler()
    if cc is None:
        return None, "numpy (no C compiler)", None
    try:
        src = source()
        key = library_key(src, cc)
    except OSError:
        return None, "numpy (kernel source unreadable)", None
    path = os.path.join(cache_dir(), f"devkernel-{key}.so")
    fn = open_library(path, key)
    if fn is None and build(cc, src, key, path):
        fn = open_library(path, key)
        for stale in glob.glob(os.path.join(cache_dir(), "devkernel-*.so")):
            if stale != path:  # an older source, flag or compiler build
                with contextlib.suppress(OSError):
                    os.unlink(stale)
    if fn is None:  # unwritable cache: build into a throwaway dir
        path = "per-process temp build"
        with contextlib.suppress(OSError), tempfile.TemporaryDirectory(
                prefix="repro-devkernel-", ignore_cleanup_errors=True) as tmp:
            tmp_path = os.path.join(tmp, f"devkernel-{key}.so")
            if build(cc, src, key, tmp_path):
                fn = open_library(tmp_path, key)
    if fn is None:
        return None, "numpy (kernel build failed)", None
    return fn, "compiled", path


def load():
    """The compiled ``devkernel_apply`` (resolved once per process), or
    ``None`` when no compiler or working library is available."""
    with _LOCK:
        if not _STATE:
            _STATE["fn"], _STATE["desc"], _STATE["path"] = _resolve()
        return _STATE["fn"]


def describe(path: bool = False) -> str | None:
    """Which device kernel serves this process: ``"compiled"`` or
    ``"numpy (<reason>)"``, with the library path on request; ``None``
    before the first :func:`load`."""
    desc = _STATE.get("desc")
    if path and _STATE.get("path"):
        return f"{desc} ({_STATE['path']})"
    return desc


def bind(size: int, dev: np.ndarray) -> Binding | None:
    """The compiled pass bound to a system of ``size`` unknowns and the
    device table ``dev``; ``None`` when no kernel is available."""
    fn = load()
    return None if fn is None else Binding(fn, size, dev)


def reset() -> None:
    """Forget the resolved kernel (the next :func:`load` resolves anew)."""
    with _LOCK:
        _STATE.clear()
