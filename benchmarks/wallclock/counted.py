"""The counted pass: function calls per layer under ``sys.setprofile``.

Call counts are the deterministic proxy for host time that
``benchmarks/bench_obs_overhead.py`` already uses for the whole program;
here they are bucketed by the *callee's* module into the layers of
``src/repro``, so they can stand in for a layer's ``_s`` row when the
wall clock is too noisy to resolve a change.  Counts compare two
versions of one program and omit waiting; they are never a speed-up.
"""

from __future__ import annotations

import sys

#: bucket names, in the order they are reported (``calls.<name>``)
LAYERS = ("total", "frontend", "analysis", "transform", "interp", "jit",
          "runtime", "cluster", "serve", "obs", "ops", "workloads", "numpy")

_REPRO_LAYERS = frozenset(LAYERS) - {"total", "jit", "numpy"}


def layer_of_file(filename: str) -> str | None:
    """Layer of a Python callee, from its code object's file name."""
    if filename.startswith("<jit:"):  # a compiled kernel closure
        return "jit"
    head, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    if sep:
        pkg = tail.split("/", 1)[0]
        if pkg == "interp" and tail.startswith("interp/jit/"):
            return "jit"
        if pkg in _REPRO_LAYERS:
            return pkg
        return None
    if "/numpy/" in filename:
        return "numpy"
    return None


def layer_of_builtin(fn) -> str | None:
    """Layer of a C callee: NumPy's ufuncs and builtins, else none."""
    mod = getattr(fn, "__module__", None) or getattr(
        type(getattr(fn, "__self__", None)), "__module__", ""
    )
    return "numpy" if str(mod).split(".", 1)[0] == "numpy" else None


def count_calls(fn) -> dict[str, int]:
    """Run ``fn()`` and return Python + C call counts per layer."""
    counts = dict.fromkeys(LAYERS, 0)
    file_layer: dict[str, str | None] = {}

    def prof(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_filename
            layer = file_layer.get(name, 0)
            if layer == 0:
                layer = file_layer[name] = layer_of_file(name)
        elif event == "c_call":
            layer = layer_of_builtin(arg)
        else:
            return
        counts["total"] += 1
        if layer is not None:
            counts[layer] += 1

    sys.setprofile(prof)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts
