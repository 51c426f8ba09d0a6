"""The package's compiled loops: ``_kernels.c``, built at first import.

The library is built once with the fixed ``FLAGS`` into the package's
``__pycache__``, under a name keyed by the source and the flags, so an
edited source builds anew and every later import only loads it (through
ctypes; ``subprocess`` is imported by a build alone).  The cache is
written whatever ``PYTHONDONTWRITEBYTECODE`` says.  A build goes to a
temporary name in the same directory and ``os.replace`` moves it into
place, so imports racing to build it each load a whole library; then the
libraries of older sources there are deleted.  There is
no fallback: if the build fails, the import raises ImportError with the
compiler command and its output.
"""

import ctypes
import os
import zlib

COMPILER = "cc"
#: No -ffast-math or -march=native: the loops must keep the evaluation
#: order of the numpy forms they replaced, so no multiply-add may be
#: fused either (see the header of ``_kernels.c``).
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernels.c")


def _library_path() -> str:
    with open(_SOURCE, "rb") as fh:
        key = zlib.crc32(" ".join(FLAGS).encode(), zlib.crc32(fh.read()))
    return os.path.join(_HERE, "__pycache__", f"_kernels-{key:08x}.so")


def _build(path: str) -> None:
    import glob
    import subprocess
    import tempfile

    cache = os.path.dirname(path)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp", dir=cache)
        os.close(fd)
    except OSError as exc:
        raise ImportError(f"cannot build the vpqmc kernels in {cache}: {exc}") from exc
    cmd = [COMPILER, *FLAGS, "-o", tmp, _SOURCE, "-lm"]
    failed = f"building the vpqmc kernels failed: {' '.join(cmd)}\n"
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:  # no compiler to run
            raise ImportError(failed + str(exc)) from exc
        if proc.returncode:
            raise ImportError(failed + proc.stderr)
        # readable by whoever can read the source, as bytecode is
        os.chmod(tmp, os.stat(_SOURCE).st_mode & 0o666)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # not moved into place
            os.unlink(tmp)
    # the libraries of older sources (a racing build's .tmp is its own)
    for old in glob.glob(os.path.join(cache, "_kernels-*.so")):
        if old != path:
            try:
                os.unlink(old)
            except FileNotFoundError:  # a racing build removed it first
                pass


def _load() -> ctypes.CDLL:
    path = _library_path()
    if not os.path.exists(path):
        _build(path)
    return ctypes.CDLL(path)


_lib = _load()
_I64, _F64, _PTR = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p


def _declare(name, restype, *argtypes):
    fn = getattr(_lib, name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


# The signatures of _kernels.c; _PTR arguments take an array's .ctypes.data.
periodic_cell = _declare("vp_periodic_cell", None, _I64, _PTR, _F64, _F64, _I64,
                         _PTR, _PTR)
wrap = _declare("vp_wrap", None, _I64, _PTR, _F64, _F64, _PTR)
deposit_moments = _declare("vp_deposit_moments", None, _I64, _PTR, _PTR, _PTR, _I64,
                           _PTR)
horner = _declare("vp_horner", None, _I64, _PTR, _PTR, _I64, _I64, _PTR, _PTR)
star_discrepancy = _declare("vp_star_discrepancy", _F64, _I64, _PTR, _PTR, _PTR, _PTR)
sobol_pairs = _declare("vp_sobol_pairs", None, _I64, _I64, _PTR, _PTR, _PTR)
kick = _declare("vp_kick", None, _I64, _I64, _PTR, _PTR)
