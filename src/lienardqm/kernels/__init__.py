"""Kernel backend: the compiled extension when it was built, else the
pure-Python twin, which gives bit-identical results (see pykernels)."""

try:
    from . import _ckernels as _impl
except ImportError:
    from . import pykernels as _impl

BACKEND = _impl.BACKEND_NAME
sturm_rows = _impl.sturm_rows
sturm_count = _impl.sturm_count
rk4_lienard = _impl.rk4_lienard
