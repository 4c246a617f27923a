"""CuCC runtime: memory manager, three-phase launches, consistency."""

import numpy as np
import pytest

from repro.cluster import Cluster, make_cluster
from repro.errors import LaunchError, DeviceMemoryError
from repro.frontend.parser import parse_kernel
from repro.hw import SIMD_FOCUSED_NODE
from repro.runtime import CuCCRuntime
from repro.runtime.memory_manager import ClusterMemory

VEC_COPY = """
__global__ void vec_copy(const char *src, char *dest, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) dest[id] = src[id];
}
"""

HIST = """
__global__ void hist(const int *d, int *bins, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) atomicAdd(&bins[d[id]], 1);
}
"""


# ---------------------------------------------------------------------------
# ClusterMemory
# ---------------------------------------------------------------------------
def test_memory_manager_replication():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    mem = ClusterMemory(cl)
    mem.alloc("x", 10, np.float32)
    host = np.arange(10, dtype=np.float32)
    mem.memcpy_h2d("x", host)
    for node in cl.nodes:
        assert np.array_equal(node.buffer("x"), host)
    assert mem.consistent("x")
    out = mem.memcpy_d2h("x", check_consistency=True)
    assert np.array_equal(out, host)
    assert mem.size_of("x") == 10 and mem.dtype_of("x") == np.float32
    assert mem.buffer_names == ["x"]
    assert mem.total_bytes_per_node() == 40


def test_memory_manager_detects_divergence():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    mem = ClusterMemory(cl)
    mem.alloc("x", 4, np.int32)
    cl.nodes[1].buffer("x")[2] = 5  # simulate a consistency bug
    assert not mem.consistent("x")
    with pytest.raises(DeviceMemoryError, match="diverge"):
        mem.memcpy_d2h("x", check_consistency=True)


def test_memory_manager_errors():
    cl = Cluster(SIMD_FOCUSED_NODE, 1)
    mem = ClusterMemory(cl)
    mem.alloc("x", 4, np.int32)
    with pytest.raises(DeviceMemoryError):
        mem.alloc("x", 4, np.int32)
    with pytest.raises(DeviceMemoryError):
        mem.alloc("zero", 0, np.int32)
    with pytest.raises(DeviceMemoryError):
        mem.memcpy_h2d("x", np.zeros(3, np.int32))  # size mismatch
    with pytest.raises(DeviceMemoryError):
        mem.memcpy_h2d("x", np.zeros(4, np.int64))  # dtype mismatch
    with pytest.raises(DeviceMemoryError):
        mem.memcpy_d2h("nope")
    mem.free("x")
    with pytest.raises(DeviceMemoryError):
        mem.free("x")


def test_memory_nan_replicas_are_consistent():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    mem = ClusterMemory(cl)
    mem.alloc("x", 2, np.float32)
    host = np.array([np.nan, 1.0], dtype=np.float32)
    mem.memcpy_h2d("x", host)
    assert mem.consistent("x")


# ---------------------------------------------------------------------------
# three-phase launches
# ---------------------------------------------------------------------------
def _launch_vec_copy(nodes, n=1200, grid=5, block=256, **kw):
    cl = Cluster(SIMD_FOCUSED_NODE, nodes)
    rt = CuCCRuntime(cl, **kw)
    rt.memory.alloc("src", n, np.int8)
    rt.memory.alloc("dest", n, np.int8)
    host = (np.arange(n) % 100).astype(np.int8)
    rt.memory.memcpy_h2d("src", host)
    rec = rt.launch(rt.compile(parse_kernel(VEC_COPY)), grid, block,
                    {"src": "src", "dest": "dest", "n": n})
    out = rt.memory.memcpy_d2h("dest", check_consistency=True)
    assert np.array_equal(out, host)
    return rt, rec


@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
def test_vec_copy_all_node_counts(nodes):
    rt, rec = _launch_vec_copy(nodes)
    if nodes == 1:
        assert rec.plan.replicated
    else:
        assert not rec.plan.replicated
        assert rec.phases.allgather > 0
        assert rec.comm_bytes > 0


def test_more_nodes_than_full_blocks_replicates():
    # 5 blocks with a tail block -> 4 full blocks cannot be split 5 ways
    rt, rec = _launch_vec_copy(5)
    assert rec.plan.replicated
    assert "fewer fully-covered blocks" in rec.plan.reason


def test_phase_times_recorded():
    rt, rec = _launch_vec_copy(2)
    p = rec.phases
    assert p.total == p.partial + p.allgather + p.callback + p.overhead
    assert 0 <= p.network_fraction <= 1
    assert rt.sim_time >= p.total
    assert "distributed" in rec.describe()


def test_faithful_and_fast_replication_agree():
    rt1, rec1 = _launch_vec_copy(3, faithful_replication=True)
    rt2, rec2 = _launch_vec_copy(3, faithful_replication=False)
    a = rt1.memory.memcpy_d2h("dest", check_consistency=True)
    b = rt2.memory.memcpy_d2h("dest", check_consistency=True)
    assert np.array_equal(a, b)
    assert rec1.time == pytest.approx(rec2.time)


def test_non_distributable_kernel_falls_back_and_stays_correct():
    cl = Cluster(SIMD_FOCUSED_NODE, 4)
    rt = CuCCRuntime(cl)
    n, bins = 1000, 16
    data = np.random.default_rng(0).integers(0, bins, n).astype(np.int32)
    rt.memory.alloc("d", n, np.int32)
    rt.memory.alloc("bins", bins, np.int32)
    rt.memory.memcpy_h2d("d", data)
    compiled = rt.compile(parse_kernel(HIST))
    assert not compiled.distributable
    rec = rt.launch(compiled, 4, 256, {"d": "d", "bins": "bins", "n": n})
    assert rec.plan.replicated
    assert rec.comm_bytes == 0 and rec.phases.allgather == 0
    out = rt.memory.memcpy_d2h("bins", check_consistency=True)
    assert np.array_equal(out, np.bincount(data, minlength=bins))


def test_forced_misclassification_degrades_safely():
    """A false negative (paper section 6.2) must produce a replicated plan
    that still computes the right answer on every node."""
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    rt = CuCCRuntime(cl)
    # a kernel of this test's own: same-source parses share one Kernel,
    # and with it the analysis forged below
    compiled = rt.compile(
        parse_kernel(VEC_COPY.replace("vec_copy", "vec_copy_forged"))
    )
    # force the static verdict to "not distributable"
    from repro.analysis.metadata import Verdict

    compiled.analysis.metadata.verdict = Verdict.NOT_DISTRIBUTABLE
    compiled.analysis.metadata.reasons.append("forced false negative")
    n = 600
    rt.memory.alloc("src", n, np.int8)
    rt.memory.alloc("dest", n, np.int8)
    host = (np.arange(n) % 99).astype(np.int8)
    rt.memory.memcpy_h2d("src", host)
    rec = rt.launch(compiled, 3, 256, {"src": "src", "dest": "dest", "n": n})
    assert rec.plan.replicated
    out = rt.memory.memcpy_d2h("dest", check_consistency=True)
    assert np.array_equal(out, host)


def test_launch_argument_validation():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    rt = CuCCRuntime(cl)
    compiled = rt.compile(parse_kernel(VEC_COPY))
    rt.memory.alloc("src", 8, np.int8)
    rt.memory.alloc("dest", 8, np.int8)
    with pytest.raises(LaunchError, match="missing"):
        rt.launch(compiled, 1, 8, {"src": "src", "dest": "dest"})
    with pytest.raises(LaunchError, match="buffer name"):
        rt.launch(compiled, 1, 8,
                  {"src": np.zeros(8, np.int8), "dest": "dest", "n": 8})
    with pytest.raises(DeviceMemoryError):
        rt.launch(compiled, 1, 8, {"src": "nope", "dest": "dest", "n": 8})


def test_compile_is_cached():
    cl = Cluster(SIMD_FOCUSED_NODE, 1)
    rt = CuCCRuntime(cl)
    k = parse_kernel(VEC_COPY)
    assert rt.compile(k) is rt.compile(k)


# ---------------------------------------------------------------------------
# compile once per process: what runtimes share, and what they do not
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("order", [(True, False), (False, True)])
def test_sanitizing_and_plain_runtimes_share_passes_not_reports(order):
    from repro.analysis.distributable import analyze_kernel
    from repro.transform.simplify import simplify_kernel

    # one cold kernel per order: the name makes the source text distinct
    k = parse_kernel(HIST.replace("hist", f"hist_{int(order[0])}"))
    compiled = {
        sanitize: CuCCRuntime(
            Cluster(SIMD_FOCUSED_NODE, 2), sanitize=sanitize
        ).compile(k)
        for sanitize in order
    }
    assert compiled[True].sanitizer_report is not None
    assert compiled[False].sanitizer_report is None
    assert compiled[True] is not compiled[False]
    for shared in ("kernel", "analysis", "vectorization",
                   "kernel_module_src", "host_module_src"):
        assert getattr(compiled[True], shared) is getattr(
            compiled[False], shared
        )
    assert compiled[True].original_kernel is k
    # the sanitizer only read the shared products
    assert compiled[False].analysis == analyze_kernel(simplify_kernel(k))


def _fir_analysis():
    """A private analysis of FIR (not the one runtimes share), so the
    plans counted below are this test's alone."""
    from repro.analysis.distributable import analyze_kernel
    from repro.transform.simplify import simplify_kernel
    from repro.workloads import PERF_WORKLOADS

    return analyze_kernel(simplify_kernel(PERF_WORKLOADS["FIR"]("small").kernel))


def test_plan_memo_keys_on_geometry_nodes_and_typed_scalars():
    from repro.analysis import distributable
    from repro.interp import LaunchConfig

    analysis = _fir_analysis()
    config = LaunchConfig.make(8, 256)

    def plan(nodes=4, **scalars):
        args = {"num_taps": 32, "n": 2000, **scalars}
        got = distributable.finalize_plan(analysis, config, args, nodes)
        assert got == distributable._build_plan(analysis, config, args, nodes)
        return got

    base = plan()
    assert plan() is base and len(analysis.plans) == 1
    # a scalar one apart is another launch, same plan value or not
    assert plan(n=2001) is not base and len(analysis.plans) == 2
    assert plan(n=2048).full_blocks == 8 != base.full_blocks
    # 5 == np.int32(5) == np.int64(5) and True == 1 hash alike: the type
    # is part of the key
    seen = [plan(num_taps=v) for v in (5, np.int32(5), np.int64(5))]
    seen += [plan(num_taps=v) for v in (1, True)]
    assert len({id(p) for p in seen}) == 5 and len(analysis.plans) == 8
    # a shrunk cluster (crash recovery) is another key, another partition
    assert plan(nodes=3).p_size == 2 and base.p_size == 1
    assert plan(nodes=3) is plan(nodes=3) and len(analysis.plans) == 9
    # another geometry too
    other = distributable.finalize_plan(
        analysis, LaunchConfig.make(4, 256), {"num_taps": 32, "n": 2000}, 4
    )
    assert other.num_blocks == 4 and len(analysis.plans) == 10


def test_plan_memo_is_bounded_and_skips_unhashable_scalars():
    from repro.analysis import distributable
    from repro.interp import LaunchConfig

    analysis = _fir_analysis()
    config = LaunchConfig.make(8, 256)
    for n in range(1800, 1800 + 2 * distributable.MAX_PLANS):
        distributable.finalize_plan(
            analysis, config, {"num_taps": 32, "n": n}, 4
        )
    assert len(analysis.plans) == distributable.MAX_PLANS
    analysis = _fir_analysis()
    # a 0-d array is a fine scalar and no dict key
    args = {"num_taps": 32, "n": np.array(2000)}
    got = distributable.finalize_plan(analysis, config, args, 4)
    assert got.full_blocks == 7 and not analysis.plans


_COLD_WARM_SERVE = """
import hashlib, json
from repro.obs.export import chrome_trace
from repro.obs.tracer import SpanKind
from repro.serve import CuCCServer, ServeConfig, synth_requests

reqs = synth_requests("FIR:2,KMeans:1,Transpose:1", rate=2e6, jobs=8,
                      nodes=2, size="small", seed=0)
for _ in range(2):  # first serve: nothing parsed or compiled yet
    srv = CuCCServer(ServeConfig(nodes=6, trace=True))
    srv.run(reqs)
    compiles = sum(s.kind is SpanKind.COMPILE for s in srv.tracer.spans)
    doc = json.dumps(chrome_trace(srv.tracer), sort_keys=True, indent=1)
    print(compiles, hashlib.sha256(doc.encode()).hexdigest())
"""


def test_traced_serve_is_byte_identical_cold_and_warm():
    """Every job still gets its own COMPILE span — the shell is per
    runtime — and the exported trace cannot tell a first serve in a
    fresh process (every pass runs) from a second (none does)."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _COLD_WARM_SERVE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    cold, warm = out[:2], out[2:]
    assert cold[0] == "8"
    assert cold == warm


def test_sequential_launches_preserve_invariant():
    """Two dependent launches: the second reads what the first wrote."""
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    rt = CuCCRuntime(cl)
    n = 512
    src = """
__global__ void scale(const float *x, float *y, int n, float f) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) y[id] = x[id] * f;
}
"""
    compiled = rt.compile(parse_kernel(src))
    for name in ("a", "b", "c"):
        rt.memory.alloc(name, n, np.float32)
    host = np.random.default_rng(1).random(n).astype(np.float32)
    rt.memory.memcpy_h2d("a", host)
    rt.launch(compiled, 2, 256, {"x": "a", "y": "b", "n": n, "f": 2.0})
    rt.launch(compiled, 2, 256, {"x": "b", "y": "c", "n": n, "f": 3.0})
    out = rt.memory.memcpy_d2h("c", check_consistency=True)
    assert np.allclose(out, host * 6.0)
    assert len(rt.launches) == 2


def test_model_agrees_with_runtime_phases():
    """The analytical sweep model and the executing runtime must produce
    the same phase times for the same configuration."""
    from repro.bench.profile import model_cucc_time, profile_workload
    from repro.hw import INFINIBAND_100G
    from repro.workloads import PERF_WORKLOADS

    for name in ("FIR", "KMeans", "GA"):
        spec = PERF_WORKLOADS[name]("small")
        prof = profile_workload(spec)
        from repro.bench.harness import run_on_cucc

        spec2 = PERF_WORKLOADS[name]("small")
        res = run_on_cucc(spec2, Cluster(SIMD_FOCUSED_NODE, 4))
        model = model_cucc_time(prof, SIMD_FOCUSED_NODE, INFINIBAND_100G, 4)
        assert model.partial == pytest.approx(res.record.phases.partial,
                                              rel=0.02)
        assert model.allgather == pytest.approx(res.record.phases.allgather,
                                                rel=0.02)
        assert model.callback == pytest.approx(res.record.phases.callback,
                                               rel=0.05)


# ---------------------------------------------------------------------------
# the one way in: harness and baseline forward every runtime option
# ---------------------------------------------------------------------------
def test_harness_forwards_every_runtime_option():
    import inspect

    from repro.baselines.single_cpu import SingleCPURuntime
    from repro.bench.harness import run_on_cucc
    from repro.workloads import PERF_WORKLOADS

    options = set(inspect.signature(CuCCRuntime.__init__).parameters)
    options -= {"self", "cluster"}
    for entry in (run_on_cucc, SingleCPURuntime.__init__):
        params = inspect.signature(entry).parameters
        # no by-name copy of the option list: everything rides **kwargs
        assert not options & set(params)
        assert any(p.kind is p.VAR_KEYWORD for p in params.values())

    spec = PERF_WORKLOADS["FIR"]("small")
    res = run_on_cucc(spec, make_cluster("simd-focused", 4), sanitize=True)
    assert res.record.sanitizer_report is not None
    assert res.runtime.faithful_replication is False  # the harness default
    assert set(res.outputs) == set(spec.outputs)
    with pytest.raises(TypeError, match="turbo"):
        run_on_cucc(spec, make_cluster("simd-focused", 4), turbo=True)
