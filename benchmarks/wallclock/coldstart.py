"""The ``api`` / ``cli`` layer, measured the only way it can be: in fresh
interpreters.  Used by the traced pass of ``cli_cold``.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import time

REPEATS = 3
_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def _python(*args: str) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, *args], capture_output=True,
                       text=True, timeout=120, check=True)
    return time.perf_counter() - t0, p


def package_seconds(importtime_stderr: str, tracked=("numpy", "scipy")) -> dict[str, float]:
    """Split one ``-X importtime`` log into disjoint shares: for each
    ``tracked`` package the cumulative seconds of its outermost imports
    (what not importing it would save, everything it drags in included —
    SciPy pulls ``numpy.testing`` and ``numpy.f2py``, which are charged
    to SciPy), and under ``"total"`` the cumulative seconds of the
    top-level imports.  The log is post-order: a module's line follows
    the lines of the modules it imported, which sit one indent deeper."""
    rows = []  # (depth, package, cumulative_us)
    for line in importtime_stderr.splitlines():
        m = _LINE.match(line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4).split(".")[0],
                         int(m.group(2))))
    parent = [-1] * len(rows)
    waiting: dict[int, list[int]] = {}
    for i, (depth, _, _) in enumerate(rows):
        for child in waiting.pop(depth + 1, ()):
            parent[child] = i
        waiting.setdefault(depth, []).append(i)
    out = dict.fromkeys((*tracked, "total"), 0.0)
    for i, (depth, pkg, cumulative_us) in enumerate(rows):
        if depth == 0:
            out["total"] += cumulative_us * 1e-6
        if pkg in tracked:
            up = parent[i]
            while up >= 0 and rows[up][1] not in tracked:
                up = parent[up]
            if up < 0:
                out[pkg] += cumulative_us * 1e-6
    return out


def measure(specs_wall_s: float) -> dict[str, float]:
    """``api.*`` and ``cli.dispatch_s``; ``specs_wall_s`` is the median
    wall time of one ``python -m repro specs`` from the traced rounds."""

    def wall(code: str) -> float:
        return statistics.median(_python("-c", code)[0] for _ in range(REPEATS))

    bare, full, cli = wall("pass"), wall("import repro.api"), wall("import repro.cli")
    _, loaded = _python("-c", "import repro.api, sys; print(len(sys.modules))")
    _, timed = _python("-X", "importtime", "-c", "import repro.api")
    share = package_seconds(timed.stderr)
    return {
        "api.import_s": full - bare,
        "api.import_scipy_s": share["scipy"],
        "api.import_numpy_s": share["numpy"],
        "api.import_repro_s": share["total"] - share["scipy"] - share["numpy"],
        "api.modules_loaded": int(loaded.stdout.strip()),
        # what `repro specs` costs beyond importing the CLI module
        "cli.dispatch_s": specs_wall_s - cli,
    }
