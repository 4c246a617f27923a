"""The differential gate: interpreter vs JIT, bit-for-bit.

Two comparison levels:

* :func:`diff_grid` — one kernel launch through
  :func:`~repro.interp.machine.run_grid` under both backends, on
  independent copies of the same buffers.  Output buffers must be
  byte-identical and every :class:`~repro.interp.counters.OpCounters`
  field exactly equal (simulated time is a pure function of the
  counters, so counter identity implies clock identity).
* :func:`diff_workload` / :func:`run_gate` — whole workloads through the
  three-phase CuCC runtime under both backends: phase times, total
  simulated time, and device-memory contents must match exactly.

Every divergence this gate reports is a bug — in the JIT *or* in the
interpreter (the PR-2 sanitizer sweep precedent: a second independent
implementation is a bug detector for the first).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.interp.counters import OpCounters
from repro.interp.grid import LaunchConfig
from repro.interp.jit.executor import get_program
from repro.interp.machine import run_grid
from repro.ir.stmt import Kernel
from repro.workloads.base import WorkloadSpec

__all__ = ["DiffResult", "diff_grid", "diff_workload", "run_gate"]


@dataclass
class DiffResult:
    """Outcome of one interp-vs-JIT comparison."""

    name: str
    mismatches: list[str] = field(default_factory=list)
    mask_free: bool = False
    #: the program's ``JITProgram.features`` (strategy -> sites)
    features: dict[str, int] = field(default_factory=dict)
    compile_s: float = 0.0
    interp_s: float = 0.0
    jit_s: float = 0.0

    @property
    def identical(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        return self.interp_s / self.jit_s if self.jit_s > 0 else float("inf")


def _copy_args(
    arrays: dict[str, np.ndarray], scalars: dict[str, object]
) -> dict[str, object]:
    out: dict[str, object] = {k: v.copy() for k, v in arrays.items()}
    out.update(scalars)
    return out


def _compare_counters(
    res: DiffResult, a: OpCounters, b: OpCounters, label: str = ""
) -> None:
    da, db = a.as_dict(), b.as_dict()
    for k in da:
        if da[k] != db[k]:
            res.mismatches.append(
                f"{label}counter {k}: interp={da[k]!r} jit={db[k]!r}"
            )


def _compare_buffers(
    res: DiffResult, names, interp: dict, jit: dict, label: str = ""
) -> None:
    for name in names:
        ai, aj = np.asarray(interp[name]), np.asarray(jit[name])
        if ai.tobytes() != aj.tobytes():
            bad = np.flatnonzero(ai.view(np.uint8) != aj.view(np.uint8))
            off = int(bad[0]) // ai.dtype.itemsize if bad.size else -1
            res.mismatches.append(
                f"{label}buffer {name!r} differs at "
                f"{bad.size} byte(s), first element {off} "
                f"(interp={ai.flat[off]!r} jit={aj.flat[off]!r})"
            )


def diff_grid(
    kernel: Kernel,
    grid,
    block,
    arrays: dict[str, np.ndarray],
    scalars: dict[str, object] | None = None,
    *,
    span: int | None = None,
    bounds_check: bool = True,
    name: str | None = None,
    cache=None,
) -> DiffResult:
    """Run one launch through both backends; compare everything.

    ``cache`` (a :class:`~repro.interp.jit.cache.CompileCache`) backs the
    precompile step, so a gate run both populates and exercises the
    persistent cache."""
    scalars = scalars or {}
    config = LaunchConfig.make(grid, block)
    res = DiffResult(name=name or kernel.name)

    t0 = time.perf_counter()
    prog = get_program(kernel, config.block, bounds_check, cache=cache)
    res.compile_s = time.perf_counter() - t0
    res.mask_free, res.features = prog.mask_free, prog.features

    ci, cj = OpCounters(), OpCounters()
    args_i = _copy_args(arrays, scalars)
    t0 = time.perf_counter()
    run_grid(
        kernel, config, args_i, counters=ci, span=span,
        bounds_check=bounds_check, backend="interp",
    )
    res.interp_s = time.perf_counter() - t0

    args_j = _copy_args(arrays, scalars)
    t0 = time.perf_counter()
    run_grid(
        kernel, config, args_j, counters=cj, span=span,
        bounds_check=bounds_check, backend="jit",
    )
    res.jit_s = time.perf_counter() - t0

    _compare_counters(res, ci, cj)
    _compare_buffers(res, arrays.keys(), args_i, args_j)
    return res


def diff_spec_grid(spec: WorkloadSpec, **kw) -> DiffResult:
    """Grid-level differential over a workload spec's launch."""
    return diff_grid(
        spec.kernel, spec.grid, spec.block, spec.arrays, spec.scalars,
        name=spec.name, **kw,
    )


def diff_workload(
    spec: WorkloadSpec,
    nodes: int = 2,
    cluster_kind: str = "simd-focused",
    cache=None,
) -> DiffResult:
    """Whole-pipeline differential: the CuCC runtime end to end.

    Phase times and total simulated time must be *exactly* equal (not
    approximately: the clocks are derived from the counters, which the
    JIT contract fixes bit-for-bit), and so must every device buffer.
    ``cache`` backs the jit-side run — the runtime launches the
    *simplified* kernel, a distinct specialization from the grid-level
    one, so a gate run caches both."""
    from repro.bench.harness import run_on_cucc
    from repro.cluster import make_cluster

    res = DiffResult(name=spec.name)
    outs: dict[str, dict[str, np.ndarray]] = {}
    recs = {}
    for backend in ("interp", "jit"):
        r = run_on_cucc(
            spec, make_cluster(cluster_kind, nodes), backend=backend,
            jit_cache=cache,
        )
        recs[backend] = r
        outs[backend] = {
            name: r.runtime.memory.memcpy_d2h(name, check_consistency=True)
            for name in spec.arrays
        }
    pi, pj = recs["interp"].record.phases, recs["jit"].record.phases
    for phase in ("partial", "allgather", "callback"):
        vi, vj = getattr(pi, phase), getattr(pj, phase)
        if vi != vj:
            res.mismatches.append(
                f"phase {phase}: interp={vi!r} jit={vj!r}"
            )
    if recs["interp"].time != recs["jit"].time:
        res.mismatches.append(
            f"total time: interp={recs['interp'].time!r} "
            f"jit={recs['jit'].time!r}"
        )
    _compare_buffers(
        res, spec.arrays.keys(), outs["interp"], outs["jit"]
    )
    prog = get_program(
        spec.kernel, LaunchConfig.make(spec.grid, spec.block).block, True,
        cache=cache,
    )
    res.mask_free, res.features = prog.mask_free, prog.features
    return res


def run_gate(
    size: str = "small",
    seed: int = 0,
    workloads: dict | None = None,
    cache=None,
) -> list[DiffResult]:
    """The full differential gate: every workload kernel, both levels.

    Returns one :class:`DiffResult` per workload, with grid-level wall
    times (the honest backend comparison, free of runtime overheads) and
    any mismatch from either level."""
    if workloads is None:
        from repro.workloads import EXTRA_WORKLOADS, PERF_WORKLOADS

        workloads = {**PERF_WORKLOADS, **EXTRA_WORKLOADS}
    results = []
    for name, build in workloads.items():
        spec = build(size, seed=seed)
        res = diff_spec_grid(spec, cache=cache)
        pipe = diff_workload(spec, cache=cache)
        res.mismatches.extend(
            f"[runtime] {m}" for m in pipe.mismatches
        )
        results.append(res)
    return results
