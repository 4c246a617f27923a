"""NumPy implementations of the IR math intrinsics.

Each intrinsic maps to a vectorized callable applied to the lane vectors.
The table is keyed by the same names as :data:`repro.ir.expr.INTRINSICS`;
the interpreter has already promoted argument dtypes per the IR typing
rules before these are called.
"""

from __future__ import annotations

import numpy as np

_erf_impl = None


def _erf(x):
    """``erf``, resolved on first call: importing ``scipy.special`` costs
    more than the rest of ``import repro.api`` put together and only
    GELU-style kernels ever need it.  The table entry (and so the name
    the JIT binds) is this stable wrapper."""
    global _erf_impl
    if _erf_impl is None:
        try:  # scipy is available in the evaluation environment but optional
            from scipy.special import erf as _erf_impl
        except ImportError:  # pragma: no cover - fallback path
            _erf_impl = np.vectorize(__import__("math").erf)
    return _erf_impl(x)

__all__ = ["INTRINSIC_IMPLS", "apply_intrinsic"]


def _rsqrt(x):
    return 1.0 / np.sqrt(x)


INTRINSIC_IMPLS = {
    "sqrt": np.sqrt,
    "rsqrt": _rsqrt,
    "exp": np.exp,
    "exp2": np.exp2,
    "log": np.log,
    "log2": np.log2,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "erf": _erf,
    "fabs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "pow": np.power,
    "fmod": np.fmod,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}


def apply_intrinsic(name: str, args: list, out_dtype: np.dtype):
    """Apply intrinsic ``name`` to already-evaluated lane vectors.

    Inactive lanes may hold values outside the intrinsic's domain (e.g. a
    guarded ``sqrt`` of a negative), so floating-point errors are
    suppressed; such lanes produce NaN/inf that is never observed.
    """
    fn = INTRINSIC_IMPLS[name]
    with np.errstate(all="ignore"):
        out = fn(*args)
    return np.asarray(out).astype(out_dtype, copy=False)
