"""Experiment harness: run workloads on every platform, collect times.

Each ``run_on_*`` helper allocates the workload's buffers on the target
platform, uploads inputs, launches the kernel, verifies every declared
output against the NumPy reference (correctness is checked on *every*
experiment run, including benchmarks), and returns the simulated time.
"""

from __future__ import annotations

from repro.baselines.gpu_exec import GPUDevice
from repro.baselines.pgas import PGASRuntime
from repro.cluster.cluster import Cluster
from repro.hw.gpu import GPUSpec
from repro.hw.perfmodel import DEFAULT_PARAMS, ModelParams
from repro.runtime.cucc import CuCCResult, CuCCRuntime
from repro.workloads.base import WorkloadSpec

__all__ = [
    "CuCCResult",
    "run_on_cucc",
    "run_on_gpu",
    "run_on_pgas",
    "format_table",
    "geomean",
]


def run_on_cucc(
    spec: WorkloadSpec,
    cluster: Cluster,
    *,
    verify: bool = True,
    app_meta=None,
    **runtime_options,
) -> CuCCResult:
    """Run a workload through the three-phase CuCC runtime.

    ``runtime_options`` forward to :class:`~repro.runtime.cucc.CuCCRuntime`
    (every option it takes: fault injection, observers, durable
    checkpoints, backend ...; an unknown name is its ``TypeError``).  The
    harness default differs in one place: ``faithful_replication=False``
    — replicated work runs once and is copied, which is functionally
    identical and much faster at large node counts.  The observers are
    reachable on ``result.runtime`` (``.tracer``, ``.profiler``,
    ``.netflow``).  ``app_meta`` is stored verbatim in every durable
    checkpoint (the workload identity the resume side validates).
    ``verify=False`` skips only the comparison against the NumPy
    reference; the outputs are always downloaded with the
    replica-consistency check.
    """
    runtime_options.setdefault("faithful_replication", False)
    rt = CuCCRuntime(cluster, **runtime_options)
    if app_meta and rt.ops is not None:
        rt.ops.app.update(app_meta)
    rt.upload(spec)
    return rt.run(spec, verify=verify)


def _run_on_device(dev, spec: WorkloadSpec, verify: bool) -> float:
    """The same host side on a device that exposes the CUDA memory API
    directly (the GPU model, the PGAS runtime); returns time."""
    for name, arr in spec.arrays.items():
        dev.alloc(name, arr.size, arr.dtype)
        dev.memcpy_h2d(name, arr)
    rec = dev.launch(spec.kernel, spec.grid, spec.block, spec.args())
    if verify:
        spec.verify({o: dev.memcpy_d2h(o) for o in spec.outputs})
    return rec.time


def run_on_gpu(
    spec: WorkloadSpec,
    gpu: GPUSpec,
    params: ModelParams = DEFAULT_PARAMS,
    verify: bool = True,
) -> float:
    """Run the original GPU program on the GPU model; returns time."""
    return _run_on_device(GPUDevice(gpu, params=params), spec, verify)


def run_on_pgas(
    spec: WorkloadSpec,
    cluster: Cluster,
    params: ModelParams = DEFAULT_PARAMS,
    verify: bool = True,
) -> float:
    """Run the PGAS migration of the workload; returns time."""
    return _run_on_device(PGASRuntime(cluster, params=params), spec, verify)


def geomean(values) -> float:
    import math

    vals = [v for v in values]
    if not vals:
        raise ValueError(
            "geomean of an empty sequence is undefined — no values were "
            "collected (did every run get filtered out?)"
        )
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render an aligned plain-text table (the harness's report format)."""
    cells = [[str(h) for h in headers]] + [
        [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
