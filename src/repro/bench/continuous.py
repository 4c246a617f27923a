"""Continuous benchmarking: schema-validated ``BENCH_<name>.json`` files.

``repro bench --json DIR`` runs a small, deterministic benchmark subset
through :mod:`repro.bench.harness` and writes one JSON document per
benchmark — geomean speedups, phase splits, network fractions and
profiler hotspot digests — that the repository tracks over time.  A CI
job regenerates them on every change and
``benchmarks/check_regression.py`` diffs the fresh numbers against the
committed baseline under ``benchmarks/baselines/`` with tolerances.

The document schema (version 1, validated by
:func:`validate_bench_json`; see DESIGN.md section 11):

.. code-block:: json

    {
      "schema_version": 1,
      "name": "scaling",
      "size": "small",
      "metrics": {"geomean_speedup_2to4": 1.93},
      "hotspots": [
        {"kernel": "kmeans_assign", "line": 12, "source": "...",
         "ops_share": 0.65}
      ],
      "details": {}
    }

``metrics`` is a flat map of metric name to finite number — the only
part the regression gate compares.  ``hotspots`` (optional) carries the
profiler's top-line digest; ``details`` (optional) holds auxiliary
context excluded from regression checking.  Everything is derived from
the simulated clocks and seeded workloads, so the files are
deterministic — no timestamps, no environment capture.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "validate_bench_json",
    "run_continuous",
    "BENCHMARKS",
]

BENCH_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_SIZES = ("small", "paper")


def validate_bench_json(obj) -> list[str]:
    """Validate one BENCH document; returns a list of problems (empty =
    valid).  Pure structural check — no file IO, usable on parsed JSON."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"document must be an object, got {type(obj).__name__}"]
    if obj.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, "
            f"got {obj.get('schema_version')!r}"
        )
    name = obj.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        problems.append(f"name must match {_NAME_RE.pattern}, got {name!r}")
    if obj.get("size") not in _SIZES:
        problems.append(f"size must be one of {_SIZES}, got {obj.get('size')!r}")
    metrics = obj.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics must be a non-empty object")
    else:
        for k, v in metrics.items():
            if not isinstance(k, str):
                problems.append(f"metric key {k!r} is not a string")
            if (
                isinstance(v, bool)
                or not isinstance(v, (int, float))
                or v != v
                or v in (float("inf"), float("-inf"))
            ):
                problems.append(f"metric {k!r} must be a finite number, got {v!r}")
    hotspots = obj.get("hotspots", [])
    if not isinstance(hotspots, list):
        problems.append("hotspots must be a list")
    else:
        for i, h in enumerate(hotspots):
            if not isinstance(h, dict):
                problems.append(f"hotspots[{i}] must be an object")
                continue
            if not isinstance(h.get("kernel"), str):
                problems.append(f"hotspots[{i}].kernel must be a string")
            share = h.get("ops_share")
            if isinstance(share, bool) or not isinstance(share, (int, float)):
                problems.append(f"hotspots[{i}].ops_share must be a number")
    if not isinstance(obj.get("details", {}), dict):
        problems.append("details must be an object")
    unknown = set(obj) - {
        "schema_version", "name", "size", "metrics", "hotspots", "details",
    }
    if unknown:
        problems.append(f"unknown top-level keys: {sorted(unknown)}")
    return problems


# ---------------------------------------------------------------------------
# benchmark builders — each returns one schema-valid document
# ---------------------------------------------------------------------------
def _run(workload: str, size: str, nodes: int, **kw):
    from repro.bench.harness import run_on_cucc
    from repro.cluster import make_cluster
    from repro.workloads import PERF_WORKLOADS

    spec = PERF_WORKLOADS[workload](size, seed=0)
    return run_on_cucc(spec, make_cluster("simd-focused", nodes), **kw)


def bench_scaling(size: str) -> dict:
    """Strong scaling 2 → 4 nodes on the SIMD-focused cluster, with the
    4-node runs profiled for a hotspot digest."""
    from repro.bench.harness import geomean
    from repro.obs.profiler import Profiler

    workloads = ("FIR", "KMeans", "Transpose")
    profiler = Profiler()
    metrics: dict[str, float] = {}
    speedups = []
    for w in workloads:
        t2 = _run(w, size, 2).time
        t4 = _run(w, size, 4, profile=profiler).time
        metrics[f"speedup_2to4.{w}"] = t2 / t4
        metrics[f"time_4n_s.{w}"] = t4
        speedups.append(t2 / t4)
    metrics["geomean_speedup_2to4"] = geomean(speedups)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "scaling",
        "size": size,
        "metrics": metrics,
        "hotspots": profiler.hotspot_digest(top=2),
    }


def bench_phase_split(size: str) -> dict:
    """Phase-time composition of 4-node runs (the paper's figure 10
    signal): fraction of each launch spent per phase, plus network
    fractions."""
    workloads = ("FIR", "KMeans", "Transpose")
    metrics: dict[str, float] = {}
    net_fracs = []
    for w in workloads:
        res = _run(w, size, 4)
        p = res.record.phases
        total = p.total
        for phase, v in (
            ("partial", p.partial),
            ("allgather", p.allgather),
            ("callback", p.callback),
        ):
            metrics[f"phase_frac.{w}.{phase}"] = v / total if total > 0 else 0.0
        metrics[f"network_fraction.{w}"] = res.network_fraction
        net_fracs.append(res.network_fraction)
    metrics["mean_network_fraction"] = sum(net_fracs) / len(net_fracs)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "phase_split",
        "size": size,
        "metrics": metrics,
    }


def bench_collectives(size: str) -> dict:
    """Collective behaviour: an 8-node fat-tree KMeans run with drift
    telemetry on, plus the algorithm zoo's modeled Allgather costs."""
    from repro.bench.harness import run_on_cucc
    from repro.cluster import make_cluster
    from repro.cluster.collectives import ALLGATHER_ALGOS
    from repro.tuning.select import algorithm_costs
    from repro.workloads import PERF_WORKLOADS

    spec = PERF_WORKLOADS["KMeans"](size, seed=0)
    cluster = make_cluster("simd-focused", 8, topology="fat-tree")
    res = run_on_cucc(spec, cluster, drift=True)
    metrics: dict[str, float] = {
        "kmeans_fat_tree_8n_time_s": res.time,
        "kmeans_fat_tree_8n_network_fraction": res.network_fraction,
    }
    topo = cluster.comm.topology
    for payload in (65536, 1048576):
        for algo, cost in algorithm_costs(topo, payload).items():
            metrics[f"allgather_cost_us.{algo}.{payload}"] = cost * 1e6
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "collectives",
        "size": size,
        "metrics": metrics,
        "details": {"algos": list(ALLGATHER_ALGOS)},
    }


def bench_fault_overhead(size: str) -> dict:
    """Fault recovery + elastic operations: modeled cost of crash
    recovery, and the (asserted-zero) overhead of durable checkpointing
    and the halt/resume drill."""
    import tempfile

    from repro.bench.harness import run_on_cucc
    from repro.cluster import make_cluster
    from repro.cluster.faults import FaultPlan, NodeCrash
    from repro.errors import CheckpointHalt
    from repro.ops import CheckpointPolicy, latest_checkpoint, resume_on_cucc
    from repro.workloads import fir

    nodes = 4
    spec = fir.build(size, seed=0)

    def crash_plan():
        return FaultPlan((NodeCrash(rank=3, phase="allgather"),), seed=1)

    ref = run_on_cucc(spec, make_cluster("simd-focused", nodes))
    crash = run_on_cucc(
        spec, make_cluster("simd-focused", nodes), fault_plan=crash_plan()
    )
    with tempfile.TemporaryDirectory() as td:
        meta = {"workload": spec.name, "size": size}
        ck = run_on_cucc(
            spec, make_cluster("simd-focused", nodes),
            fault_plan=crash_plan(),
            checkpoint=CheckpointPolicy(directory=td), app_meta=meta,
        )
        halt_dir = td + "/halt"
        try:
            run_on_cucc(
                spec, make_cluster("simd-focused", nodes),
                fault_plan=crash_plan(),
                checkpoint=CheckpointPolicy(
                    directory=halt_dir, halt_after=1
                ),
                app_meta=meta,
            )
            raise AssertionError("halt-after drill never halted")
        except CheckpointHalt:
            pass
        resumed = resume_on_cucc(spec, latest_checkpoint(halt_dir))
        checkpoints_written = ck.runtime.ops.written
    metrics = {
        "fault_free_time_s": ref.time,
        "crash_allgather_time_s": crash.time,
        "crash_recovery_ratio": crash.time / ref.time,
        "crash_recoveries": float(crash.record.recoveries),
        # contract metrics: must be exactly 0.0 (checked at tight atol
        # by check_regression.py, asserted here too)
        "checkpoint_time_delta_s": ck.time - crash.time,
        "resume_time_delta_s": resumed.time - crash.time,
        "checkpoints_written": float(checkpoints_written),
    }
    if metrics["checkpoint_time_delta_s"] != 0.0:
        raise AssertionError("checkpointing perturbed simulated time")
    if metrics["resume_time_delta_s"] != 0.0:
        raise AssertionError("resumed run diverged from uninterrupted run")
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "fault_overhead",
        "size": size,
        "metrics": metrics,
    }


def bench_jit(size: str) -> dict:
    """JIT fast-path backend: the identity contract as gated metrics.

    Divergence counts and the runtime-level simulated-time delta are
    asserted here and gated at exactly ``0.0`` by the regression check
    (the ``fault_overhead`` precedent); the mask-free kernel census
    pins the divergence analysis.  Wall-clock is nondeterministic, so
    only a conservative floor is gated (geomean kernel-execution
    speedup >= 2x -> 1.0) and the raw timings go to ``details``, which
    the gate ignores."""
    import time

    from repro.bench.harness import geomean, run_on_cucc
    from repro.cluster import make_cluster
    from repro.interp import LaunchConfig, run_grid
    from repro.interp.jit import run_gate
    from repro.workloads import PERF_WORKLOADS

    gate = run_gate(size, seed=0)
    divergences = float(sum(len(r.mismatches) for r in gate))
    if divergences:
        raise AssertionError(
            "differential gate diverged: "
            + "; ".join(m for r in gate for m in r.mismatches)
        )

    sim_deltas = []
    for w in ("NBody", "FIR"):
        spec = PERF_WORKLOADS[w](size, seed=0)
        ti = run_on_cucc(
            spec, make_cluster("simd-focused", 4), backend="interp"
        ).time
        tj = run_on_cucc(
            spec, make_cluster("simd-focused", 4), backend="jit"
        ).time
        sim_deltas.append(abs(ti - tj))
    sim_delta = max(sim_deltas)
    if sim_delta != 0.0:
        raise AssertionError("JIT perturbed the simulated clock")

    def wall(spec, backend, reps=3):
        config = LaunchConfig.make(spec.grid, spec.block)
        best = float("inf")
        for rep in range(reps + 1):  # first rep warms compile + caches
            args = {k: v.copy() for k, v in spec.arrays.items()}
            args.update(spec.scalars)
            t0 = time.perf_counter()
            run_grid(spec.kernel, config, args, backend=backend)
            if rep:
                best = min(best, time.perf_counter() - t0)
        return best

    speedups: dict[str, float] = {}
    times: dict[str, dict[str, float]] = {}
    for w in ("NBody", "FIR", "KMeans", "EP"):
        spec = PERF_WORKLOADS[w](size, seed=0)
        wi, wj = wall(spec, "interp"), wall(spec, "jit")
        speedups[w] = wi / wj
        times[w] = {"interp_s": wi, "jit_s": wj}
    gm = geomean(list(speedups.values()))
    if gm < 2.0:
        raise AssertionError(
            f"JIT kernel-execution speedup floor broken: geomean {gm:.2f}x"
        )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "jit",
        "size": size,
        "metrics": {
            # contract metrics: exact zeros, tight-atol gated
            "counter_or_buffer_divergences": divergences,
            "sim_time_max_abs_delta_s": sim_delta,
            "mask_free_kernels": float(sum(1 for r in gate if r.mask_free)),
            "gated_kernels": float(len(gate)),
            # asserted floor, reported as a deterministic boolean metric
            "wall_speedup_ge_2x": 1.0,
        },
        "details": {
            "note": "wall times are host-dependent; excluded from the gate",
            "geomean_wall_speedup": gm,
            "wall_speedup": speedups,
            "wall_time": times,
        },
    }


def bench_serving(size: str) -> dict:
    """Concurrent serving: throughput/latency against the serial reference.

    One fixed backlog (12 uniform 2-node jobs, Poisson arrivals at 2e6
    jobs per simulated second, seed 0) is served three ways on an
    8-node pool: serially (the reference), concurrently with pipelining
    off, and pipelined.  All statistics come from simulated clocks, so
    every gated metric is deterministic.  Contract metrics asserted
    here and gated at exactly ``0.0``/``1.0``: per-job bit-identity to
    serial in both modes, zero recompiles on a warm shared compile
    cache, and the paper's serving claim — pipelining raises
    launches/sec over serial *without* raising tail latency."""
    from repro.interp.jit import CompileCache
    from repro.interp.jit.executor import clear_memo, compile_stats
    from repro.serve import (
        ServeConfig,
        serve_requests,
        serve_serially,
        synth_requests,
        verify_against_serial,
    )

    requests = synth_requests(
        "FIR:2,KMeans:1,Transpose:1", rate=2e6, jobs=12, nodes=2,
        size=size, seed=0,
    )
    serial = serve_serially(requests, ServeConfig(nodes=8))
    concurrent = serve_requests(
        requests, ServeConfig(nodes=8, pipeline=False))
    pipelined = serve_requests(requests, ServeConfig(nodes=8, pipeline=True))

    mismatches = verify_against_serial(concurrent, serial)
    mismatches += verify_against_serial(pipelined, serial)
    if mismatches:
        raise AssertionError(
            "concurrent serving diverged from serial: "
            + "; ".join(mismatches)
        )

    ss, cs, ps = serial.stats, concurrent.stats, pipelined.stats
    if not (ps.launches_per_sec > ss.launches_per_sec
            and ps.latency_p99_s <= ss.latency_p99_s):
        raise AssertionError(
            "pipelining must beat serial throughput at no-worse p99: "
            f"{ps.launches_per_sec:.0f} vs {ss.launches_per_sec:.0f} "
            f"launches/sec, p99 {ps.latency_p99_s:.3e} vs "
            f"{ss.latency_p99_s:.3e} s"
        )

    # warm shared compile cache: a fresh server on the saved cache must
    # serve the same mix with zero recompiles (memo cleared so hits can
    # only come from the shared cache)
    cache = CompileCache()
    clear_memo()
    serve_requests(requests, ServeConfig(nodes=8, backend="jit",
                                         jit_cache=cache))
    clear_memo()
    before = compile_stats["compiles"]
    serve_requests(requests, ServeConfig(nodes=8, backend="jit",
                                         jit_cache=cache))
    warm_recompiles = float(compile_stats["compiles"] - before)
    if warm_recompiles:
        raise AssertionError(
            f"warm shared compile cache still recompiled "
            f"{warm_recompiles:.0f} kernel(s)"
        )

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "serving",
        "size": size,
        "metrics": {
            # contract metrics: asserted above, tight-atol gated
            "identity_divergences": 0.0,
            "warm_cache_recompiles": warm_recompiles,
            "pipelined_beats_serial_at_p99": 1.0,
            # simulated-clock statistics (deterministic per seed)
            "jobs": float(ss.jobs),
            "overlapped_jobs": float(ps.overlapped),
            "serial_launches_per_sec": ss.launches_per_sec,
            "concurrent_launches_per_sec": cs.launches_per_sec,
            "pipelined_launches_per_sec": ps.launches_per_sec,
            "serial_latency_p99_s": ss.latency_p99_s,
            "concurrent_latency_p99_s": cs.latency_p99_s,
            "pipelined_latency_p99_s": ps.latency_p99_s,
            "pipelined_latency_p50_s": ps.latency_p50_s,
            "pipelined_utilization": ps.utilization,
        },
        "details": {
            "mix": "FIR:2,KMeans:1,Transpose:1",
            "arrival_rate_per_s": 2e6,
            "pool_nodes": 8,
            "job_nodes": 2,
            "note": "all statistics are simulated-clock; see DESIGN.md "
                    "section 14 for the overlap-legality rules",
        },
    }


def bench_network(size: str) -> dict:
    """Per-topology collective-time decomposition from the flow ledger.

    The continuous twin of Figure 9's network-overhead story: one
    communication-dominated workload (Transpose) runs on every topology
    shape with the netflow ledger attached, and the gated metrics are
    the ledger's exact alpha / serialization / contention split of
    collective time plus its two correctness contracts — the
    decomposition reconstructs every span bit-exactly, and the ledger's
    per-pair byte sums equal the communicator's link-byte metrics."""
    from repro.bench.harness import run_on_cucc
    from repro.cluster import make_cluster, make_topology
    from repro.obs.metrics import MetricsRegistry
    from repro.workloads import PERF_WORKLOADS

    nodes = 8
    metrics: dict[str, float] = {}
    details: dict[str, dict] = {}
    exact = conserved = True
    for kind, tag in (("flat", "flat"), ("fat-tree:2", "fat_tree"),
                      ("ring", "ring"), ("torus", "torus")):
        spec = PERF_WORKLOADS["Transpose"](size, seed=0)
        cluster = make_cluster(
            "simd-focused", nodes, topology=make_topology(kind, nodes)
        )
        # a private registry so conservation is checked against exactly
        # this run's traffic, whatever else fed the global registry
        registry = MetricsRegistry()
        cluster.comm.metrics = registry
        res = run_on_cucc(spec, cluster, netflow=True)
        ledger = res.runtime.netflow
        colls = ledger.collectives()
        exact &= all(c.reconstructed_s == c.span_s for c in colls)
        pairs = ledger.pair_bytes()
        conserved &= all(
            registry.value("comm.link_bytes", src=src, dst=dst) == nbytes
            for (src, dst), nbytes in pairs.items()
        ) and sum(pairs.values()) == registry.total("comm.link_bytes")
        span = sum(c.span_s for c in colls)
        for comp in ("alpha_s", "serial_s", "contention_s"):
            frac = (sum(getattr(c, comp) for c in colls) / span
                    if span > 0 else 0.0)
            metrics[f"{tag}_{comp[:-2]}_fraction"] = frac
        metrics[f"{tag}_collective_s"] = span
        doc = ledger.to_doc()
        details[tag] = {
            "topology": cluster.comm.topology.signature,
            "collectives": len(colls),
            "bytes": doc["totals"]["bytes"],
            "bisection": doc["bisection"],
        }
    if not conserved:
        raise AssertionError("netflow ledger and comm.link_bytes metrics "
                             "disagree on per-pair bytes")
    # Transpose's large payload autotunes to ring everywhere, which is
    # contention-free even on the fat-tree (one crossing sender per
    # leaf switch per round) — so also pin the contended regime: a
    # small-payload KMeans gather picks recursive doubling, whose
    # same-switch crossing senders queue on the shared uplinks
    spec = PERF_WORKLOADS["KMeans"](size, seed=0)
    cluster = make_cluster(
        "simd-focused", nodes, topology=make_topology("fat-tree:2", nodes)
    )
    cluster.comm.metrics = MetricsRegistry()
    res = run_on_cucc(spec, cluster, netflow=True)
    colls = res.runtime.netflow.collectives()
    exact &= all(c.reconstructed_s == c.span_s for c in colls)
    span = sum(c.span_s for c in colls)
    contended = (sum(c.contention_s for c in colls) / span
                 if span > 0 else 0.0)
    if contended <= 0.0:
        raise AssertionError(
            "small-payload gather on the oversubscribed fat-tree should "
            "show uplink contention"
        )
    metrics["fat_tree_small_payload_contention_fraction"] = contended
    if not exact:
        raise AssertionError("netflow decomposition failed to reconstruct "
                             "a collective span bit-exactly")
    metrics["decomposition_exact"] = 1.0
    metrics["bytes_conserved"] = 1.0
    # the fat-tree pays for its oversubscription in queueing seconds;
    # the full-bisection flat network must not
    assert metrics["flat_contention_fraction"] == 0.0
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "network",
        "size": size,
        "metrics": metrics,
        "details": details,
    }


def bench_obs_overhead(size: str) -> dict:
    """Serving-observatory overhead: the always-on promise as metrics.

    Serves one fixed backlog twice — plain, and with the fleet ledger
    plus a deliberately-breaching SLO monitor (the heaviest hook path,
    including an in-memory flight-recorder dump) — and gates the
    tentpole's contract: the simulated makespan moves by exactly
    ``0.0``, per-job identities are bit-equal, and the hooks stay inside
    an absolute budget of extra function calls per served job
    (deterministic ``sys.setprofile`` counts, not wall-clock).  The
    budget is absolute because the hooks' cost is: a ratio to the whole
    serve's calls moves whenever the serve itself gets cheaper, with
    the hooks unchanged to the call.  Raw call counts are
    interpreter-version-dependent, so they live in ungated ``details``
    (beside the old fraction, for reference); the gated metrics are
    exact contract booleans plus the deterministic ledger/SLO event
    counts."""
    import sys as _sys

    from repro.serve import ServeConfig, serve_requests, synth_requests

    # extra calls per job the hooks may add: the measured cost
    # (observatory + breaching SLO monitor 522, netflow 77, over 8 jobs)
    # plus under 10% headroom
    budget, nf_budget = 71, 10
    requests = synth_requests(
        "FIR:2,KMeans:1,Transpose:1", rate=2e6, jobs=8, nodes=2,
        size=size, seed=0,
    )
    observed = ServeConfig(nodes=6, observatory=True,
                           slo="wait<=1e-9,latency<=1e-9")

    def run(config):
        return serve_requests(requests, config)

    def count_calls(fn) -> int:
        n = 0

        def prof(frame, event, arg):
            nonlocal n
            if event in ("call", "c_call"):
                n += 1

        _sys.setprofile(prof)
        try:
            fn()
        finally:
            _sys.setprofile(None)
        return n

    plain = run(ServeConfig(nodes=6))
    full = run(observed)
    sim_delta = full.stats.makespan_s - plain.stats.makespan_s
    if sim_delta != 0.0:
        raise AssertionError(
            f"observatory perturbed the simulated clock by {sim_delta!r} s"
        )
    divergences = float(sum(
        a.identity() != b.identity()
        for a, b in zip(plain.results, full.results)
    ))
    if divergences:
        raise AssertionError("observatory changed per-job outcomes")
    # both paths warmed above; the counts isolate hook cost
    calls_off = count_calls(lambda: run(ServeConfig(nodes=6)))
    calls_on = count_calls(lambda: run(observed))
    jobs = len(requests)
    extra = calls_on - calls_off
    if extra > budget * jobs:
        raise AssertionError(
            f"observatory hooks add {extra / jobs:.1f} calls per job "
            f"({calls_on} vs {calls_off} over {jobs} jobs; budget {budget})"
        )
    # -- netflow leg: same contract for the flow ledger, on the
    # topology where it does the most work (an oversubscribed fat-tree)
    ft_plain_cfg = ServeConfig(nodes=6, topology="fat-tree:2")
    ft_flow_cfg = ServeConfig(nodes=6, topology="fat-tree:2", netflow=True)
    ft_plain = run(ft_plain_cfg)
    ft_flow = run(ft_flow_cfg)
    nf_sim_delta = ft_flow.stats.makespan_s - ft_plain.stats.makespan_s
    if nf_sim_delta != 0.0:
        raise AssertionError(
            f"netflow perturbed the simulated clock by {nf_sim_delta!r} s"
        )
    nf_divergences = float(sum(
        a.identity() != b.identity()
        for a, b in zip(ft_plain.results, ft_flow.results)
    ))
    if nf_divergences:
        raise AssertionError("netflow changed per-job outcomes")
    nf_calls_off = count_calls(
        lambda: run(ServeConfig(nodes=6, topology="fat-tree:2"))
    )
    nf_calls_on = count_calls(
        lambda: run(ServeConfig(nodes=6, topology="fat-tree:2",
                                netflow=True))
    )
    nf_extra = nf_calls_on - nf_calls_off
    if nf_extra > nf_budget * jobs:
        raise AssertionError(
            f"netflow recording adds {nf_extra / jobs:.1f} calls per job "
            f"({nf_calls_on} vs {nf_calls_off} over {jobs} jobs; "
            f"budget {nf_budget})"
        )
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": "obs_overhead",
        "size": size,
        "metrics": {
            # contract metrics: asserted above, tight-atol gated
            "observatory_sim_time_delta_s": sim_delta,
            "observatory_identity_divergences": divergences,
            "hook_call_overhead_within_budget": 1.0,
            # deterministic observability volume per seed
            "ledger_events": float(len(full.fleet.events)),
            "slo_events": float(len(full.slo_events)),
            "postmortem_dumps": float(len(full.postmortems)),
            # the netflow row: same contract for the flow ledger
            "netflow_sim_time_delta_s": nf_sim_delta,
            "netflow_identity_divergences": nf_divergences,
            "netflow_call_overhead_within_budget": 1.0,
            "netflow_collectives": float(len(ft_flow.netflow)),
        },
        "details": {
            "jobs": jobs,
            "extra_calls": extra,
            "budget_calls_per_job": budget,
            "call_overhead_fraction": calls_on / calls_off - 1.0,
            "calls_plain": calls_off,
            "calls_observed": calls_on,
            "netflow_extra_calls": nf_extra,
            "netflow_budget_calls_per_job": nf_budget,
            "netflow_call_overhead_fraction": nf_calls_on / nf_calls_off - 1.0,
            "netflow_calls_plain": nf_calls_off,
            "netflow_calls_on": nf_calls_on,
            "note": "call counts depend on the interpreter version; "
                    "only the within-budget booleans are gated",
        },
    }


#: benchmark name -> builder(size) (the ``--json`` runner's registry)
BENCHMARKS = {
    "scaling": bench_scaling,
    "phase_split": bench_phase_split,
    "collectives": bench_collectives,
    "fault_overhead": bench_fault_overhead,
    "jit": bench_jit,
    "serving": bench_serving,
    "obs_overhead": bench_obs_overhead,
    "network": bench_network,
}


def run_continuous(
    out_dir, size: str = "small", names: list[str] | None = None
) -> list[Path]:
    """Run the continuous-benchmark subset, write ``BENCH_<name>.json``
    files into ``out_dir`` (created if missing), return the paths.

    Every document is self-validated against the schema before it is
    written — an invalid document is a bug, not an artifact.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    selected = names or list(BENCHMARKS)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {unknown}; known: {sorted(BENCHMARKS)}"
        )
    paths = []
    for name in selected:
        doc = BENCHMARKS[name](size)
        problems = validate_bench_json(doc)
        if problems:
            raise AssertionError(
                f"benchmark {name!r} produced an invalid document: "
                + "; ".join(problems)
            )
        path = out / f"BENCH_{name}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
