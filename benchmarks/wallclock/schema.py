"""The benchmark's fixed vocabulary: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is the machine-readable copy of the
names here (``test_wallclock.py`` holds the two in step); this module
adds what the JSON contract has no field for — the definition of each
metric, whether it must repeat exactly, and which end-to-end metric on
which workload a per-layer metric is predicted to move.
"""

from __future__ import annotations

from typing import NamedTuple

#: how long one run measures, seconds (``BENCHMARK.json`` ``run_seconds``)
RUN_SECONDS = 8


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which it may worsen
    bound: float
    definition: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: must be bit-equal between two runs of the same code and seed
    exact: bool
    #: the end-to-end metric and workload this metric is predicted to move
    moves: str


WORKLOADS = (
    Workload("kernels_paper",
             "five paper-size kernels on 4 nodes: JIT kernel execution is "
             "over 90% of a round, front end and serving are ~0"),
    Workload("serve_small",
             "300 small jobs over 3 kernel sources: per-job fixed cost "
             "(build, parse, compile, dispatch) dominates, observers off"),
    Workload("serve_observed",
             "the serve_small requests with tracer, observatory, netflow, "
             "SLO monitor and exports on: every observer hook taken"),
    Workload("collectives",
             "autotune plus out-of-place and ragged allgathers on four "
             "topologies: byte movement and schedule pricing, no kernels"),
    Workload("cli_cold",
             "fresh `python -m repro` subprocesses: interpreter start and "
             "import are over 85% of each command"),
    Workload("elastic_drill",
             "crash, checkpoint, halt and resume of four small kernels: the "
             "only user of the fault-tolerant launch path and repro.ops"),
    Workload("debug_interp",
             "eight small kernels on the tree-walking interpreter, plain, "
             "profiled+traced and sanitized: the JIT is bypassed"),
)

END_TO_END = (
    EndToEnd("wall_s", "s", "lower", 0.10,
             "median over the timed rounds of one round's perf_counter "
             "wall time, tracing off"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.10,
             "median verified operations per round / wall_s (an op that "
             "fails or mis-verifies is not counted)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10,
             "ru_maxrss of the measuring child (and of its subprocesses) "
             "at exit"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "child start to first timed round: interpreter start, import "
             "repro.api, input synthesis, warm-up; median of the set-ups "
             "made in one run"),
)

#: printed with the end-to-end metrics by the suite, but carried in
#: ``per_layer`` of BENCHMARK.json: the contract gives every end-to-end
#: metric a relative bound and forbids one that reads 0 or repeats
#: exactly, and these two must do exactly that
EXACT_END_TO_END = ("sim_time_s", "fail_share")

_S, _N, _R = "s", "count", "ratio"


_layer = PerLayer


PER_LAYER = (
    _layer("sim_time_s", "sim_s", "lower", True,
           "none: simulated seconds of the first timed round, moved only by "
           "hw.perfmodel, cluster.collectives pricing or tuning selection"),
    _layer("fail_share", _R, "lower", True,
           "none: failed or mis-verified ops / ops attempted, must stay 0"),
    # api / cli
    _layer("api.import_s", _S, "lower", False, "wall_s on cli_cold; setup_s everywhere"),
    _layer("api.import_scipy_s", _S, "lower", False, "wall_s on cli_cold"),
    _layer("api.import_numpy_s", _S, "lower", False, "wall_s on cli_cold"),
    _layer("api.import_repro_s", _S, "lower", False, "wall_s on cli_cold"),
    _layer("api.modules_loaded", _N, "lower", True, "wall_s on cli_cold"),
    _layer("cli.dispatch_s", _S, "lower", False, "wall_s on cli_cold"),
    # workloads
    _layer("workloads.build_s", _S, "lower", False, "wall_s on serve_small, serve_observed"),
    _layer("workloads.build_calls", _N, "lower", True, "wall_s on serve_small"),
    _layer("workloads.verify_s", _S, "lower", False, "wall_s on serve_small"),
    # frontend
    _layer("frontend.parse_s", _S, "lower", False, "wall_s on serve_small, serve_observed"),
    _layer("frontend.parse_calls", _N, "lower", True, "wall_s on serve_small"),
    # transform / analysis
    _layer("transform.simplify_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("analysis.analyze_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("transform.vectorize_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("transform.codegen_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("analysis.finalize_plan_s", _S, "lower", False, "wall_s on serve_small"),
    # runtime
    _layer("runtime.init_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("runtime.compile_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("runtime.compile_calls", _N, "lower", True, "wall_s on serve_small"),
    _layer("runtime.launch_self_s", _S, "lower", False, "wall_s on serve_small, elastic_drill"),
    _layer("runtime.launch_calls", _N, "lower", True, "wall_s on serve_small"),
    _layer("runtime.memcpy_h2d_s", _S, "lower", False, "wall_s, peak_rss_mb on kernels_paper"),
    _layer("runtime.memcpy_d2h_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("runtime.recoveries", _N, "lower", True, "wall_s on elastic_drill"),
    _layer("runtime.retries", _N, "lower", True, "wall_s on elastic_drill"),
    # interp
    _layer("interp.exec_s", _S, "lower", False, "wall_s on debug_interp"),
    _layer("interp.exec_calls", _N, "lower", True, "wall_s on debug_interp"),
    _layer("interp.lanes", _N, "higher", True, "ops_per_s on debug_interp"),
    _layer("interp.lanes_per_s", "1/s", "higher", False, "ops_per_s on debug_interp"),
    # interp.jit
    _layer("jit.exec_s", _S, "lower", False, "wall_s on kernels_paper, serve_small"),
    _layer("jit.exec_calls", _N, "lower", True, "wall_s on kernels_paper"),
    _layer("jit.lanes_per_s", "1/s", "higher", False, "ops_per_s on kernels_paper"),
    _layer("jit.codegen_s", _S, "lower", False, "wall_s on serve_small"),
    _layer("jit.compiles", _N, "lower", True, "setup_s on serve_small"),
    _layer("jit.memo_hits", _N, "higher", True, "wall_s on serve_small"),
    _layer("jit.exec_s.NBody", _S, "lower", False, "wall_s on kernels_paper"),
    _layer("jit.exec_s.MatMul", _S, "lower", False, "wall_s on kernels_paper"),
    _layer("jit.exec_s.KMeans", _S, "lower", False, "wall_s on kernels_paper"),
    _layer("jit.exec_s.BinomialOption", _S, "lower", False, "wall_s on kernels_paper"),
    _layer("jit.exec_s.EP", _S, "lower", False, "wall_s on kernels_paper"),
    # cluster
    _layer("cluster.make_cluster_s", _S, "lower", False, "wall_s on collectives, serve_small"),
    _layer("cluster.allgather_s", _S, "lower", False, "wall_s on collectives"),
    _layer("cluster.allgather_calls", _N, "lower", True, "wall_s on collectives"),
    _layer("cluster.comm_bytes", "B", "lower", True, "wall_s on collectives"),
    _layer("cluster.bytes_per_s", "B/s", "higher", False, "ops_per_s on collectives"),
    # tuning
    _layer("tuning.autotune_s", _S, "lower", False, "wall_s on collectives"),
    _layer("tuning.trials", _N, "lower", True, "wall_s on collectives"),
    # serve
    _layer("serve.synth_s", _S, "lower", False, "setup_s on serve_small"),
    _layer("serve.run_self_s", _S, "lower", False, "wall_s on serve_small, serve_observed"),
    _layer("serve.jobs", _N, "higher", True, "ops_per_s on serve_small"),
    _layer("serve.jobs_per_s", "1/s", "higher", False, "ops_per_s on serve_small"),
    _layer("serve.sim_launches_per_s", "1/sim_s", "higher", True, "none: simulated, a model change"),
    # obs
    _layer("obs.hooks_on_ratio", _R, "lower", False, "wall_s on serve_observed"),
    _layer("obs.trace_export_s", _S, "lower", False, "wall_s on serve_observed"),
    _layer("obs.trace_bytes", "B", "lower", True, "wall_s on serve_observed"),
    _layer("obs.spans", _N, "lower", True, "wall_s on serve_observed"),
    _layer("obs.netflow_dump_s", _S, "lower", False, "wall_s on serve_observed"),
    _layer("obs.netflow_collectives", _N, "lower", True, "wall_s on serve_observed"),
    _layer("obs.ledger_events", _N, "lower", True, "wall_s on serve_observed"),
    _layer("obs.report_format_s", _S, "lower", False, "wall_s on serve_observed"),
    _layer("obs.profile_on_ratio", _R, "lower", False, "wall_s on debug_interp"),
    # ops
    _layer("ops.ckpt_write_s", _S, "lower", False, "wall_s on elastic_drill"),
    _layer("ops.ckpt_bytes", "B", "lower", True, "wall_s on elastic_drill"),
    _layer("ops.ckpt_files", _N, "lower", True, "wall_s on elastic_drill"),
    _layer("ops.halt_s", _S, "lower", False, "wall_s on elastic_drill"),
    _layer("ops.resume_s", _S, "lower", False, "wall_s on elastic_drill"),
    # sanitize
    _layer("sanitize.static_s", _S, "lower", False, "wall_s on debug_interp"),
    _layer("sanitize.dynamic_ratio", _R, "lower", False, "wall_s on debug_interp"),
    _layer("sanitize.findings", _N, "lower", True, "none: must stay 0"),
    # process / harness
    _layer("proc.cpu_s", _S, "lower", False, "wall_s on every workload"),
    _layer("proc.gc_collections", _N, "lower", False, "wall_s on every workload"),
    _layer("bench.trace_overhead_ratio", _R, "lower", False, "none: the harness's own cost"),
    _layer("bench.round_iqr_rel", _R, "lower", False, "none: run-to-run noise"),
) + tuple(
    _layer(f"calls.{layer}", _N, "lower", True,
           "wall_s on serve_small, serve_observed, elastic_drill, "
           "debug_interp, collectives (noise-free twin of the _s rows)")
    for layer in ("total", "frontend", "analysis", "transform", "interp",
                  "jit", "runtime", "cluster", "serve", "obs", "ops",
                  "workloads", "numpy")
)

PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def benchmark_json() -> dict:
    """The document ``BENCHMARK.json`` must hold (key order included)."""
    return {
        "command": ["python3", "benchmarks/wallclock/run.py"],
        "paths": ["benchmarks/wallclock"],
        "run_seconds": RUN_SECONDS,
        "workloads": [w._asdict() for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
