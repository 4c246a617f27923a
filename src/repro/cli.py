"""Command-line interface: the ``cucc``-style compiler driver.

    python -m repro compile kernel.cu            # analysis + generated C
    python -m repro compile kernel.cu --nodes 4 --grid 5 --block 256 \\
                            --set n=1200         # + launch-time plan
    python -m repro analyze kernel.cu            # verdict table only
    python -m repro run FIR --cluster simd-focused --nodes 4
    python -m repro tune --nodes 8 --topology fat-tree   # autotune Allgather
    python -m repro run FIR --nodes 8 --topology fat-tree \\
                            --tuning .repro-tuning.json  # use cached winners
    python -m repro run kmeans --nodes 4 --trace t.json  # span tracing
    python -m repro report t.json                # critical-path report
    python -m repro profile kmeans --nodes 4     # per-line hotspot table
    python -m repro run kmeans --trace t.json --drift    # drift telemetry
    python -m repro report t.json --drift        # model-vs-executed table
    python -m repro run FIR --checkpoint ckpts/  # durable checkpoints
    python -m repro run FIR --checkpoint ckpts/ --halt-after 1  # exit 3
    python -m repro run FIR --resume ckpts/      # continue where it died
    python -m repro ckpt inspect ckpts/          # summarize latest .rckp
    python -m repro ckpt validate ckpts/latest.rckp   # integrity check
    python -m repro ckpt diff a.rckp b.rckp      # exit 1 when state differs
    python -m repro run FIR --drift-guard 0.25   # arm the drift breaker
    python -m repro sanitize FIR                 # static + dynamic sanitizer
    python -m repro sanitize kernel.cu           # static race detector
    python -m repro sanitize --all               # every bundled workload
    python -m repro sanitize --violations        # seeded-hazard self-check
    python -m repro serve --jobs 8 --observatory # fleet timeline report
    python -m repro serve --slo 'latency<=2e-5'  # exit 4 on hard breach
    python -m repro serve --faults crash:rank=0,phase=partial \\
                          --fault-every 3 --postmortem pm/  # flight recorder
    python -m repro postmortem pm/postmortem-job-0002.json  # render dump
    python -m repro explain a.json b.json        # where did the time go?
    python -m repro run KMeans --nodes 8 --topology fat-tree:2 \\
                            --netflow net.json   # per-link flow ledger
    python -m repro netview net.json             # hottest links, contention
    python -m repro tune --nodes 8 --topology fat-tree:2 --netflow tn.json
    python -m repro netview --explain-tune tn.json   # measured vs modeled
    python -m repro run FIR --nodes 4 --metrics-json m.json  # counters JSON
    python -m repro report --metrics-json m.json # render the snapshot
    python -m repro specs                        # Table 1
    python -m repro bench fig08 ...              # == python -m repro.bench

``compile`` mirrors what the paper's end-to-end framework produces from
a ``.cu`` file: the Allgather-distributable metadata (Figure 6), the
wrapped CPU kernel module (Listing 2), the three-phase host module, and
— when a launch geometry is given — the concrete block partition and
callback-block set.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import analyze_kernel, finalize_plan
from repro.errors import CheckpointHalt, ReproError
from repro.frontend.parser import parse_cuda
from repro.interp.grid import LaunchConfig
from repro.transform import (
    analyze_vectorizability,
    generate_host_module,
    generate_kernel_module,
)

__all__ = ["main"]


def _ensure_parent(path: str) -> None:
    """Create the parent directory of an output path (``run --trace
    out/t.json`` into a missing ``out/`` must not crash)."""
    from pathlib import Path

    Path(path).expanduser().resolve().parent.mkdir(parents=True, exist_ok=True)


def _write_exports(
    args: argparse.Namespace, tracer, netflow, trace_hint: str,
    netflow_tag: str = "", profile_report: str | None = None,
) -> None:
    """The export epilogue ``run`` and ``serve`` share: ``--trace``,
    ``--profile`` (``run`` only: the rendered report, when asked for),
    ``--netflow``, ``--metrics`` and ``--metrics-json``, in that order."""
    from repro.obs.metrics import METRICS  # loaded by every run already

    if args.trace:
        from repro.obs.export import write_chrome_trace

        _ensure_parent(args.trace)
        path = write_chrome_trace(tracer, args.trace)
        print(f"wrote {len(tracer)} spans to {path} "
              f"({trace_hint.format(path=path)})")
    if profile_report is not None:
        _ensure_parent(args.profile)
        with open(args.profile, "w") as f:
            f.write(profile_report + "\n")
        print(f"wrote per-line profile to {args.profile}")
    if args.netflow:
        _ensure_parent(args.netflow)
        path = netflow.dump(args.netflow)
        print(f"wrote netflow ledger ({len(netflow)} "
              f"collective(s){netflow_tag}) to {path} (render with "
              f"'python -m repro netview {path}')")
    if args.metrics:
        print()
        print(METRICS.render())
    if args.metrics_json:
        _ensure_parent(args.metrics_json)
        with open(args.metrics_json, "w") as f:
            f.write(METRICS.snapshot_json())
        print(f"wrote metrics JSON to {args.metrics_json}")


def _profile_report(rt) -> str:
    """The per-line hotspot report of a profiled runtime."""
    return rt.profiler.report(
        spec=rt.cluster.nodes[0].spec,
        simd_enabled=rt.simd_enabled,
        params=rt.params,
    )


def _find_workload(name: str):
    """Case-insensitive workload lookup over the full catalog."""
    from repro.workloads import EXTRA_WORKLOADS, PERF_WORKLOADS

    catalog = {**PERF_WORKLOADS, **EXTRA_WORKLOADS}
    key = {k.lower(): k for k in catalog}.get(name.lower())
    if key is None:
        raise ReproError(
            f"unknown workload {name!r}; available: "
            f"{', '.join(sorted(catalog))}"
        )
    return catalog[key]


def _parse_scalar_args(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"--set expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name] = float(value) if "." in value else int(value)
    return out


def _cmd_compile(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    kernels = parse_cuda(source)
    for kernel in kernels:
        analysis = analyze_kernel(kernel)
        vect = analyze_vectorizability(kernel)
        print(f"===== kernel {kernel.name} =====")
        print(analysis.metadata.describe())
        print(f"  vectorization: {vect.describe()}")
        print()
        print("----- CPU kernel module -----")
        print(generate_kernel_module(kernel, vect))
        print()
        print("----- CPU host module -----")
        print(generate_host_module(kernel, analysis.metadata))
        if args.grid is not None:
            if args.block is None or args.nodes is None:
                raise ReproError("--grid requires --block and --nodes")
            plan = finalize_plan(
                analysis,
                LaunchConfig.make(args.grid, args.block),
                _parse_scalar_args(args.set or []),
                args.nodes,
            )
            print()
            print(f"----- launch plan: <<<{args.grid},{args.block}>>> on "
                  f"{args.nodes} nodes -----")
            print(plan.describe())
        print()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    source = _read_source(args.file)
    rows = []
    for kernel in parse_cuda(source):
        analysis = analyze_kernel(kernel)
        vect = analyze_vectorizability(kernel)
        m = analysis.metadata
        rows.append(
            [
                kernel.name,
                "yes" if m.distributable else "no",
                "yes" if m.tail_divergent else "no",
                "yes" if vect.vectorizable else "no",
                "; ".join(m.reasons) or "-",
            ]
        )
    from repro.bench.harness import format_table

    print(
        format_table(
            ["kernel", "distributable", "tail-divergent", "SIMD", "notes"],
            rows,
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.harness import run_on_cucc, run_on_gpu, run_on_pgas
    from repro.cluster import make_cluster
    from repro.hw import GPUS

    build = _find_workload(args.workload)
    spec = build(args.size, seed=args.seed)
    print(f"workload {spec.name} ({args.size}): grid={spec.grid} "
          f"block={spec.block}")
    fault_plan = None
    if args.faults:
        if args.platform != "cucc":
            raise ReproError("--faults requires --platform cucc")
        from repro.cluster.faults import FaultPlan

        fault_plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
    tuning = None
    if args.tuning:
        from repro.tuning import TuningCache

        tuning = TuningCache.load(args.tuning)
        print(f"loaded {tuning!r}")
    for flag in ("trace", "profile", "drift", "netflow"):
        if getattr(args, flag) and args.platform != "cucc":
            raise ReproError(f"--{flag} requires --platform cucc")
    if args.platform != "cucc" and args.backend != "auto":
        raise ReproError("--backend requires --platform cucc")
    for flag in ("checkpoint", "resume", "drift_guard"):
        if getattr(args, flag) and args.platform != "cucc":
            opt = flag.replace("_", "-")
            raise ReproError(f"--{opt} requires --platform cucc")
    checkpoint = None
    if args.checkpoint:
        from repro.ops import CheckpointPolicy

        checkpoint = CheckpointPolicy(
            directory=args.checkpoint,
            mode=args.checkpoint_mode,
            interval_s=args.checkpoint_interval,
            keep=args.checkpoint_keep,
            halt_after=args.halt_after,
        )
    elif args.halt_after is not None:
        raise ReproError("--halt-after requires --checkpoint DIR")
    drift_guard = None
    if args.drift_guard is not None:
        from repro.ops import DriftGuardPolicy

        drift_guard = DriftGuardPolicy(bound=args.drift_guard)
    if args.platform == "cucc":
        if args.resume:
            if args.faults:
                raise ReproError(
                    "--resume restores the fault schedule from the "
                    "checkpoint itself; drop --faults"
                )
            if args.netflow:
                raise ReproError(
                    "--netflow is not supported with --resume (the "
                    "ledger would miss the replayed prefix)"
                )
            import os

            from repro.ops import latest_checkpoint, resume_on_cucc

            if os.path.isdir(args.resume):
                latest = latest_checkpoint(args.resume)
                if latest is None:
                    raise ReproError(
                        f"no checkpoints in directory {args.resume!r}"
                    )
                args.resume = str(latest)
            res = resume_on_cucc(
                spec, args.resume, checkpoint=checkpoint,
                drift_guard=drift_guard, trace=bool(args.trace),
                profile=bool(args.profile),
                # "auto" (the flag default) defers to the backend the
                # checkpoint recorded, so a JIT run resumes on JIT
                backend=None if args.backend == "auto" else args.backend,
                jit_cache=args.jit_cache,
            )
            done = len(res.runtime.launches) - 1
            print(f"resumed from {args.resume} on "
                  f"{res.runtime.cluster.num_nodes} nodes "
                  f"({done} completed launch(es) replayed)")
        else:
            cluster = make_cluster(
                args.cluster, args.nodes, topology=args.topology,
                tuning=tuning,
            )
            res = run_on_cucc(
                spec, cluster, fault_plan=fault_plan, trace=bool(args.trace),
                profile=bool(args.profile), drift=bool(args.drift),
                checkpoint=checkpoint, drift_guard=drift_guard,
                app_meta={"workload": spec.name, "size": args.size},
                backend=args.backend, jit_cache=args.jit_cache,
                netflow=bool(args.netflow),
            )
        if res.runtime.ops is not None and res.runtime.ops.written:
            print(f"wrote {res.runtime.ops.written} checkpoint(s) to "
                  f"{args.checkpoint}")
        print(res.record.describe())
        print(res.record.plan.describe())
        for ev in res.record.fault_events:
            print(ev.describe())
        survivors = res.runtime.cluster.num_nodes
        print(f"verified on all {survivors} node replicas")
        _write_exports(
            args, res.runtime.tracer, res.runtime.netflow,
            "load in Perfetto or inspect with "
            "'python -m repro report {path}'",
            profile_report=(
                _profile_report(res.runtime) if args.profile else None
            ),
        )
    elif args.platform == "pgas":
        cluster = make_cluster(args.cluster, args.nodes)
        t = run_on_pgas(spec, cluster)
        print(f"PGAS time: {t * 1e3:.4f} ms (verified)")
    else:  # gpu
        gpu = GPUS[args.platform]
        t = run_on_gpu(spec, gpu)
        print(f"{gpu.name} time: {t * 1e3:.4f} ms (verified)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Per-line hotspot profile of one workload on the CuCC runtime.

    Exits 1 if the per-line totals fail to reproduce the aggregate
    OpCounters exactly — that invariant is what makes the table
    trustworthy, so the CLI checks it on every run.
    """
    from repro.bench.harness import run_on_cucc
    from repro.cluster import make_cluster
    from repro.interp.counters import OpCounters

    build = _find_workload(args.workload)
    spec = build(args.size, seed=args.seed)
    cluster = make_cluster(args.cluster, args.nodes, topology=args.topology)
    res = run_on_cucc(spec, cluster, profile=True)
    rt = res.runtime
    report = _profile_report(rt)
    print(f"workload {spec.name} ({args.size}) on {args.nodes} nodes, "
          f"time {res.time * 1e3:.4f} ms")
    print()
    print(report)
    if args.out:
        _ensure_parent(args.out)
        with open(args.out, "w") as f:
            f.write(report + "\n")
        print(f"\nwrote profile to {args.out}")
    aggregate = OpCounters()
    for c in res.record.partial_counters:
        aggregate.add(c)
    aggregate.add(res.record.callback_counters)
    match = rt.profiler.total(res.record.kernel_name).as_dict() == aggregate.as_dict()
    print()
    print(f"per-line totals match aggregate OpCounters: "
          f"{'yes' if match else 'NO'}")
    return 0 if match else 1


def _cmd_tune(args: argparse.Namespace) -> int:
    """Autotune the Allgather zoo on a simulated cluster and persist the
    winners to a JSON tuning cache (hot-loaded by ``run --tuning``)."""
    from repro.bench.harness import format_table
    from repro.cluster import make_cluster
    from repro.tuning import TuningCache, autotune

    cache = TuningCache.load(args.cache)
    loaded = len(cache)
    cluster = make_cluster(args.cluster, args.nodes, topology=args.topology)
    payloads = tuple(int(p) for p in args.payload) if args.payload else None
    if args.netflow:
        _ensure_parent(args.netflow)
    autotune(cluster, payloads=payloads, cache=cache,
             flow_log=args.netflow)
    topo = cluster.comm.topology
    print(f"tuned {cluster.name} over topology {topo.describe()}")
    rows = []
    for key in sorted(cache.entries, key=lambda k: (k.rsplit("|b=", 1)[0],
                                                    int(k.rsplit("=", 1)[1]))):
        entry = cache.entries[key]
        costs = entry.get("costs", {})
        rows.append(
            [
                key,
                entry["algo"],
                "  ".join(f"{a}={v * 1e6:.2f}us" for a, v in costs.items()),
            ]
        )
    print(format_table(["bucket", "winner", "modeled costs"], rows))
    _ensure_parent(args.cache)
    path = cache.save(args.cache)
    fresh = len(cache) - loaded
    print(f"wrote {len(cache)} entries ({fresh} new) to {path}")
    if args.netflow:
        print(f"wrote per-trial flow ledgers to {args.netflow} (render "
              f"with 'python -m repro netview --explain-tune "
              f"{args.netflow}')")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Critical-path / imbalance report over an exported trace file,
    and/or a diff-friendly render of a metrics JSON snapshot."""
    import os

    if args.metrics_json:
        _render_metrics_json(args.metrics_json)
        if args.trace_file is None:
            return 0
        print()
    if args.trace_file is None:
        raise ReproError(
            "nothing to report: pass a trace file and/or --metrics-json"
        )

    from repro.obs.export import format_critical_report

    if not os.path.exists(args.trace_file):
        raise ReproError(f"no such trace file: {args.trace_file!r}")
    try:
        print(format_critical_report(args.trace_file))
        if args.drift:
            from repro.obs.drift import DEFAULT_DRIFT_BOUND, format_drift_report

            bound = (
                args.drift_bound
                if args.drift_bound is not None
                else DEFAULT_DRIFT_BOUND
            )
            print()
            print(format_drift_report(args.trace_file, bound=bound))
    except (ValueError, KeyError) as e:
        raise ReproError(
            f"cannot analyze {args.trace_file!r}: {e} "
            "(is it a trace written by 'repro run --trace'?)"
        ) from e
    return 0


def _render_metrics_json(path: str) -> None:
    """Validate + render a snapshot written by ``--metrics-json``."""
    import json

    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise ReproError(f"cannot load {path!r}: {e}") from e
    if not isinstance(doc, dict) or "metrics_format_version" not in doc:
        raise ReproError(
            f"{path!r} is not a metrics snapshot (missing "
            "metrics_format_version; was it written by --metrics-json?)"
        )
    print(f"metrics snapshot {path} "
          f"(format v{doc['metrics_format_version']})")
    for name, series in sorted(doc.get("metrics", {}).items()):
        for label, value in sorted(series.items()):
            tag = f"{{{label}}}" if label else ""
            if isinstance(value, dict):
                body = (f"count={value['count']} sum={value['sum']:.6g} "
                        f"min={value['min']:.6g} max={value['max']:.6g}")
            else:
                body = f"{value:.6g}"
            print(f"{name}{tag} {body}")


def _cmd_netview(args: argparse.Namespace) -> int:
    """Render a netflow document: hottest links, traffic heatmap,
    contention ranking — or the tune-sweep explanation."""
    from repro.obs.netview import (
        format_explain_tune,
        format_netview,
        load_netflow,
    )

    doc = load_netflow(args.file)
    if args.explain_tune:
        print(format_explain_tune(doc))
    else:
        print(format_netview(doc, top=args.top))
    return 0


def _cmd_ckpt(args: argparse.Namespace) -> int:
    """Durable-checkpoint toolbox: inspect / validate / diff.

    ``validate`` and ``diff`` exit 1 when problems or differences exist,
    so CI can gate on them (the elastic-smoke job diffs the resumed
    run's final checkpoint against the uninterrupted baseline's).
    """
    import os

    from repro.ops import (
        diff_checkpoints,
        inspect_checkpoint,
        latest_checkpoint,
        validate_checkpoint,
    )

    def resolve(path: str) -> str:
        # a directory means "its latest checkpoint"
        if os.path.isdir(path):
            latest = latest_checkpoint(path)
            if latest is None:
                raise ReproError(f"no checkpoints in directory {path!r}")
            return str(latest)
        if not os.path.exists(path):
            raise ReproError(f"no such checkpoint: {path!r}")
        return path

    if args.ckpt_command == "inspect":
        print(inspect_checkpoint(resolve(args.file)))
        return 0
    if args.ckpt_command == "validate":
        path = resolve(args.file)
        problems = validate_checkpoint(path)
        if problems:
            for p in problems:
                print(p)
            print(f"{path}: INVALID ({len(problems)} problem(s))")
            return 1
        print(f"{path}: ok")
        return 0
    # diff
    diffs = diff_checkpoints(resolve(args.a), resolve(args.b))
    if diffs:
        for d in diffs:
            print(d)
        print(f"{len(diffs)} difference(s)")
        return 1
    print("checkpoints describe identical simulator state "
          "(volatile fields ignored)")
    return 0


def _cmd_specs(_args: argparse.Namespace) -> int:
    from repro.bench.figures import tab01_specs

    print(tab01_specs().render())
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    """Kernel sanitizer driver; exit status 0 means "all clean" (or, with
    --violations, "every seeded hazard was caught") so CI can gate on it."""
    from repro.sanitize import sanitize_kernel, sanitize_launch, sanitize_spec
    from repro.workloads import EXTRA_WORKLOADS, PERF_WORKLOADS

    catalog = {**PERF_WORKLOADS, **EXTRA_WORKLOADS}

    if args.violations:
        from repro.sanitize.violations import VIOLATIONS

        ok = True
        for name, case in VIOLATIONS.items():
            k = case.kernel()
            st = sanitize_kernel(k)
            dy = sanitize_launch(k, case.grid, case.block, case.make_args())
            st_ok = case.expect_static <= st.kinds() and (
                bool(case.expect_static) or st.clean
            )
            dy_ok = case.expect_dynamic <= dy.kinds()
            expected = sorted(
                x.value for x in case.expect_static | case.expect_dynamic
            )
            caught = st_ok and dy_ok
            print(f"{name}: {'caught' if caught else 'MISSED'} "
                  f"(expected: {', '.join(expected)})")
            for f in st.findings + dy.findings:
                print("  " + f.describe().replace("\n", "\n  "))
            if not caught:
                ok = False
        print()
        print("all seeded violations caught" if ok
              else "sanitizer MISSED seeded violations")
        return 0 if ok else 1

    if args.all:
        targets = sorted(catalog)
    elif args.target is None:
        raise ReproError(
            "sanitize needs a workload name, a .cu file, or --all"
        )
    elif args.target in catalog:
        targets = [args.target]
    else:
        targets = []

    clean = True
    if targets:
        for name in targets:
            spec = catalog[name](args.size)
            report = sanitize_spec(spec)
            print(report.describe())
            clean &= report.clean
    else:
        # a .cu file: static layer only (the dynamic layer needs concrete
        # launch geometry and buffers, which a bare file does not carry)
        source = _read_source(args.target)
        for kernel in parse_cuda(source):
            report = sanitize_kernel(kernel)
            print(report.describe())
            clean &= report.clean
    return 0 if clean else 1


def _cmd_jit(args: argparse.Namespace) -> int:
    """Differential gate driver: every workload kernel through both
    backends, bit-for-bit.  Exit status 0 means "no divergence" — every
    buffer byte, every OpCounters field, every phase time identical — so
    CI can gate on it."""
    from repro.bench.harness import format_table
    from repro.interp.jit import CompileCache, compile_stats, run_gate
    from repro.workloads import EXTRA_WORKLOADS, PERF_WORKLOADS

    catalog = {**PERF_WORKLOADS, **EXTRA_WORKLOADS}
    if args.workload:
        missing = [w for w in args.workload if w not in catalog]
        if missing:
            raise ReproError(
                f"unknown workload(s) {missing}; known: {sorted(catalog)}"
            )
        catalog = {w: catalog[w] for w in args.workload}

    cache = None
    if args.cache:
        cache = CompileCache.load(args.cache)
        print(f"loaded {cache!r}")
    before = dict(compile_stats)

    results = run_gate(args.size, seed=args.seed, workloads=catalog,
                       cache=cache)

    rows = []
    for r in results:
        rows.append([
            r.name,
            "yes" if r.mask_free else "no",
            r.compile_s * 1e3,
            r.interp_s * 1e3,
            r.jit_s * 1e3,
            r.speedup,
            " ".join(f"{k}={v}" for k, v in r.features.items() if v) or "-",
            "ok" if r.identical else "DIVERGED",
        ])
    print(format_table(
        ["kernel", "mask-free", "compile ms", "interp ms", "jit ms",
         "speedup", "strategies", "differential"],
        rows,
    ))
    delta = {k: compile_stats[k] - before[k] for k in compile_stats}
    print(f"\ncompiles={delta['compiles']} memo_hits={delta['memo_hits']} "
          f"cache_hits={delta['cache_hits']} "
          f"cache_rejects={delta['cache_rejects']}")
    if cache is not None:
        cache.save()
        print(f"saved {cache!r}")

    bad = [r for r in results if not r.identical]
    for r in bad:
        print(f"\n{r.name} DIVERGED:")
        for m in r.mismatches:
            print(f"  {m}")
    if bad:
        print(f"\ndifferential gate FAILED: {len(bad)} kernel(s) diverged "
              "(each divergence is a JIT bug or a latent interpreter bug)")
        return 1
    print(f"differential gate passed: {len(results)} kernel(s) "
          "bit-identical under both backends")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Concurrent multi-job serving driver (see DESIGN.md §14).

    Synthesizes a seeded arrival trace from the workload mix, serves it
    on a simulated node pool (pipelined by default), prints the per-job
    table and throughput/latency accountant, and — with --check-serial
    — reruns the same jobs serially and exits 1 unless every job is
    bit-identical to its serial twin.
    """
    from repro.serve import (
        ServeConfig,
        CuCCServer,
        serve_serially,
        synth_requests,
        verify_against_serial,
    )

    if args.jobs is None and args.duration is None:
        args.jobs = 8
    requests = synth_requests(
        args.mix,
        rate=args.rate,
        jobs=args.jobs,
        duration_s=args.duration,
        nodes=tuple(args.job_nodes) if args.job_nodes else 2,
        size=args.size,
        seed=args.seed,
        faults=args.faults,
        fault_every=args.fault_every,
    )
    if not requests:
        raise ReproError(
            "the arrival process produced no jobs; raise --rate, --jobs "
            "or --duration"
        )
    config = ServeConfig(
        nodes=args.nodes,
        cluster=args.cluster,
        topology=args.topology,
        pipeline=not args.no_pipeline,
        backend=args.backend,
        tuning=args.tuning,
        jit_cache=args.jit_cache,
        trace=bool(args.trace),
        observatory=bool(args.observatory),
        slo=args.slo,
        postmortem_dir=args.postmortem,
        netflow=bool(args.netflow),
    )
    server = CuCCServer(config)
    if server.jit_cache is not None:
        from repro.interp.jit.executor import compile_stats

        compiles_before = compile_stats["compiles"]
    report = server.run(requests)
    report.seed = args.seed
    print(report.format_report())
    if server.jit_cache is not None:
        _ensure_parent(str(server.jit_cache.path))
        server.jit_cache.save()
        print(f"\ncompiles={compile_stats['compiles'] - compiles_before} "
              f"cache_hits={server.jit_cache.hits} "
              f"cache_rejects={server.jit_cache.rejected}; "
              f"saved {server.jit_cache!r}")
    _write_exports(
        args, server.tracer, report.netflow,
        "job spans carry job_id; ranks are physical pool node ids",
        netflow_tag=", attributed by job_id",
    )
    if args.check_serial:
        serial = serve_serially(requests, ServeConfig(
            nodes=args.nodes, cluster=args.cluster, topology=args.topology,
            backend=args.backend, tuning=args.tuning,
            jit_cache=args.jit_cache,
        ))
        mismatches = verify_against_serial(report, serial)
        if mismatches:
            print(f"\nserial-identity check FAILED "
                  f"({len(mismatches)} divergence(s)):")
            for m in mismatches:
                print(f"  {m}")
            return 1
        print(f"\nserial-identity check passed: all {len(requests)} job(s) "
              "bit-identical to serial execution in submission order")
    failed = [r for r in report.results if r.status != "ok"]
    for r in failed:
        print(f"note: job {r.request.job_id} failed in isolation: {r.error}")
    for path in server.postmortem_paths:
        print(f"wrote post-mortem {path} (render with "
              f"'python -m repro postmortem {path}')")
    if args.slo and report.slo_breached:
        # distinct status so scripts can tell an SLO hard breach (4)
        # from an error (1) and the checkpoint-halt drill (3)
        print("\nSLO BREACHED (exit status 4)")
        return 4
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Offline regression attribution between two exported runs."""
    from repro.obs.explain import explain, format_explain_report

    report = explain(args.a, args.b)
    print(format_explain_report(report))
    return 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    """Validate + pretty-print a flight-recorder post-mortem dump."""
    import json

    from repro.obs.observatory import format_postmortem, validate_postmortem

    try:
        with open(args.file) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise ReproError(f"cannot load {args.file!r}: {e}") from e
    problems = validate_postmortem(doc)
    if problems:
        for p in problems:
            print(f"SCHEMA: {p}", file=sys.stderr)
        print(f"{args.file}: INVALID post-mortem "
              f"({len(problems)} problem(s))", file=sys.stderr)
        return 1
    print(format_postmortem(doc))
    return 0


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise ReproError(f"cannot read {path!r}: {e}") from e


#: flags several subcommands take, declared once; :func:`_shared`
#: attaches them (a subcommand may override the default or the help)
_SHARED_FLAGS = {
    "--cluster": dict(default="simd-focused",
                      choices=("simd-focused", "thread-focused")),
    "--nodes": dict(type=int, default=4),
    "--size": dict(default="small", choices=("small", "paper")),
    "--seed": dict(type=int, default=0),
    "--topology": dict(
        default=None, metavar="KIND",
        help="network topology: flat, fat-tree[:K], ring or torus "
             "(default: flat alpha-beta fabric; fat-tree:K forces K nodes "
             "per leaf switch)"),
    "--backend": dict(default="auto", choices=("interp", "jit", "auto")),
    "--jit-cache": dict(metavar="PATH", default=None),
    "--tuning": dict(metavar="PATH", default=None),
    "--metrics": dict(
        action="store_true",
        help="print the metrics-registry snapshot after the run"),
    "--metrics-json": dict(
        metavar="PATH", default=None,
        help="write the metrics-registry snapshot as deterministic JSON "
             "(sorted names/labels) to PATH"),
}


def _shared(p: argparse.ArgumentParser, *flags: str, **override) -> None:
    for flag in flags:
        p.add_argument(flag, **{**_SHARED_FLAGS[flag], **override})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CuCC: migrate CUDA kernels to simulated CPU clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="analysis + generated CPU modules")
    p.add_argument("file", help="CUDA source file ('-' for stdin)")
    p.add_argument("--nodes", type=int, help="cluster size for the plan")
    p.add_argument("--grid", type=int, help="grid size (1-D)")
    p.add_argument("--block", type=int, help="block size (1-D)")
    p.add_argument("--set", action="append", metavar="NAME=VALUE",
                   help="scalar kernel argument (repeatable)")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("analyze", help="verdict table for every kernel")
    p.add_argument("file", help="CUDA source file ('-' for stdin)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("run", help="run an evaluation workload")
    p.add_argument("workload", help="e.g. FIR, KMeans, BinomialOption")
    p.add_argument("--platform", default="cucc",
                   choices=("cucc", "pgas", "a100", "v100"))
    _shared(p, "--cluster", "--nodes", "--size", "--seed")
    p.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject faults (cucc only), e.g. "
             "'crash:rank=1,phase=allgather;transient:op=1'",
    )
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault plan's random choices")
    _shared(p, "--topology")
    _shared(p, "--tuning",
            help="JSON tuning cache consulted by the 'auto' Allgather "
                 "(written by 'repro tune')")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="record spans (cucc only) and export Chrome "
                        "trace-event JSON (Perfetto / chrome://tracing)")
    p.add_argument("--netflow", metavar="PATH", default=None,
                   help="record the per-link network flow ledger (cucc "
                        "only) and write its JSON document to PATH "
                        "(render with 'repro netview')")
    _shared(p, "--metrics", "--metrics-json")
    p.add_argument("--profile", metavar="PATH", default=None,
                   help="attribute op counts per kernel source line (cucc "
                        "only) and write the hotspot report to PATH")
    p.add_argument("--drift", action="store_true",
                   help="record model-vs-executed phase-time drift (cucc "
                        "only); view with --metrics or "
                        "'repro report --drift <trace>'")
    p.add_argument("--checkpoint", metavar="DIR", default=None,
                   help="write durable checkpoints to DIR at phase "
                        "boundaries (cucc only); resume with --resume")
    from repro.ops.policy import CHECKPOINT_MODES

    p.add_argument("--checkpoint-mode", default="phase-boundary",
                   choices=CHECKPOINT_MODES,
                   help="when checkpoints are due (default: %(default)s)")
    p.add_argument("--checkpoint-interval", type=float, default=0.0,
                   metavar="SECONDS",
                   help="minimum simulated seconds between checkpoints "
                        "(with --checkpoint-mode interval)")
    p.add_argument("--checkpoint-keep", type=int, default=0, metavar="N",
                   help="keep only the N newest checkpoints (0 = all)")
    p.add_argument("--halt-after", type=int, default=None, metavar="N",
                   help="stop (exit status 3) after the Nth checkpoint is "
                        "written — simulates a mid-run kill for the "
                        "restart drill")
    p.add_argument("--resume", metavar="PATH", default=None,
                   help="resume from a checkpoint file or directory "
                        "written by --checkpoint (cucc only; cluster, "
                        "faults and feature flags come from the file, so "
                        "--nodes/--topology/--faults are rejected or "
                        "ignored)")
    p.add_argument("--drift-guard", type=float, default=None,
                   metavar="BOUND",
                   help="arm the drift breaker (cucc only): refuse "
                        "launches after repeated |relative model error| "
                        "above BOUND (implies --drift)")
    _shared(p, "--backend",
            help="kernel-execution backend (cucc only): the tree-walking "
                 "interpreter, the compiled JIT fast path, or "
                 "auto-fallback (default); outputs and simulated times "
                 "are bit-identical either way")
    _shared(p, "--jit-cache",
            help="persistent JIT compile cache consulted before codegen "
                 "and updated after (like the tuning cache; "
                 "integrity-checked)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "profile",
        help="per-source-line hotspot profile of a workload",
        description=(
            "Run a workload on the CuCC runtime with per-line profiling "
            "and print, for each kernel, its roofline placement, phase "
            "split, and a hotspot table attributing every counted op and "
            "byte to the kernel source line that executed it.  Exits 1 "
            "if the per-line totals do not reproduce the aggregate "
            "OpCounters exactly."
        ),
    )
    p.add_argument("workload", help="e.g. FIR, KMeans, BinomialOption")
    _shared(p, "--cluster", "--nodes", "--size", "--seed", "--topology")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the report to a file")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "report",
        help="critical-path / imbalance report from an exported trace",
        description=(
            "Analyze a Chrome trace-event JSON file written by "
            "'repro run --trace': per launch, the straggler rank of the "
            "partial phase, its slack over the fastest rank, and the "
            "phase split along the critical path."
        ),
    )
    p.add_argument("trace_file", nargs="?", default=None,
                   help="trace JSON written by 'run --trace'")
    p.add_argument("--metrics-json", metavar="FILE", default=None,
                   help="also (or instead) render a metrics snapshot "
                        "written by 'run/serve --metrics-json'")
    p.add_argument("--drift", action="store_true",
                   help="also print the model-drift table (needs a trace "
                        "recorded by 'run --trace ... --drift')")
    p.add_argument("--drift-bound", type=float, default=None,
                   help="|relative error| that flags a prediction "
                        "(default 0.25)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "netview",
        help="render a netflow ledger: hottest links, contention, heatmap",
        description=(
            "Read the JSON document written by 'run --netflow', "
            "'serve --netflow' or 'tune --netflow' and tell the network "
            "story: collective-time decomposition (alpha / serialization "
            "/ contention / local), the hottest physical links, the "
            "contention ranking naming the leaf-switch uplinks that "
            "caused queueing, the src->dst traffic heatmap, per-op and "
            "per-job traffic, and bisection/oversubscription accounting. "
            "With --explain-tune (on a tune document) it prints the "
            "measured-vs-modeled per-algorithm comparison explaining "
            "the autotuner's choices."
        ),
    )
    p.add_argument("file", help="netflow JSON written by --netflow")
    p.add_argument("--top", type=int, default=10, metavar="K",
                   help="rows in the link/contention rankings "
                        "(default: %(default)s)")
    p.add_argument("--explain-tune", action="store_true",
                   help="render a tune-sweep document: per payload, each "
                        "algorithm's measured vs modeled cost, exact "
                        "decomposition and hottest links")
    p.set_defaults(fn=_cmd_netview)

    p = sub.add_parser(
        "tune",
        help="autotune the Allgather zoo, persist winners to JSON",
        description=(
            "Benchmark every Allgather algorithm (ring, recursive "
            "doubling, Bruck, hierarchical) through the real communicator "
            "per payload bucket, verify they gather identical bytes, and "
            "write the winners to a tuning cache that 'run --tuning' and "
            "the 'auto' algorithm resolution hot-load."
        ),
    )
    _shared(p, "--cluster", "--nodes", "--topology")
    p.add_argument("--payload", action="append", metavar="BYTES",
                   help="total Allgather bytes to tune (repeatable; "
                        "default: 1 KiB .. 4 MiB sweep)")
    p.add_argument("--cache", metavar="PATH", default=".repro-tuning.json",
                   help="tuning-cache file to merge into (default: "
                        "%(default)s)")
    p.add_argument("--netflow", metavar="PATH", default=None,
                   help="dump every trial's flow ledger (measured vs "
                        "modeled per algorithm) as a tune netflow "
                        "document; render with "
                        "'repro netview --explain-tune'")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser(
        "sanitize",
        help="static race detector + dynamic shadow checks",
        description=(
            "Run the kernel sanitizer.  For a bundled workload name, both "
            "layers run (static over the IR, dynamic over a real launch); "
            "for a .cu file, the static layer runs on every kernel. "
            "Exits 1 when findings exist, so CI can gate on it."
        ),
    )
    p.add_argument("target", nargs="?",
                   help="workload name (e.g. FIR) or CUDA source file")
    p.add_argument("--all", action="store_true",
                   help="sanitize every bundled workload")
    p.add_argument("--violations", action="store_true",
                   help="run the seeded-violation kernels; exit 0 only if "
                        "every hazard is caught (sanitizer self-check)")
    _shared(p, "--size")
    p.set_defaults(fn=_cmd_sanitize)

    p = sub.add_parser(
        "ckpt",
        help="inspect / validate / diff durable checkpoints",
        description=(
            "Toolbox for the .rckp files written by 'repro run "
            "--checkpoint'.  Paths may be files or checkpoint "
            "directories (a directory means its latest checkpoint)."
        ),
    )
    ckpt_sub = p.add_subparsers(dest="ckpt_command", required=True)
    q = ckpt_sub.add_parser("inspect", help="human-readable summary")
    q.add_argument("file", help="checkpoint file or directory")
    q.set_defaults(fn=_cmd_ckpt)
    q = ckpt_sub.add_parser(
        "validate",
        help="integrity check; exit 1 when corrupt",
    )
    q.add_argument("file", help="checkpoint file or directory")
    q.set_defaults(fn=_cmd_ckpt)
    q = ckpt_sub.add_parser(
        "diff",
        help="compare simulator state; exit 1 when it differs",
    )
    q.add_argument("a", help="checkpoint file or directory")
    q.add_argument("b", help="checkpoint file or directory")
    q.set_defaults(fn=_cmd_ckpt)

    p = sub.add_parser(
        "jit",
        help="JIT differential gate: interp vs compiled, bit-for-bit",
        description=(
            "Compile every workload kernel with the JIT tier and run it "
            "through both backends — the tree-walking interpreter and "
            "the compiled closure — comparing output buffers, OpCounters "
            "and CuCC phase times bit-for-bit.  Exits 1 on any "
            "divergence, so CI can gate on it.  With --cache, the "
            "compile cache is consulted first and saved after (run "
            "twice to prove cache hits skip codegen)."
        ),
    )
    p.add_argument("workload", nargs="*",
                   help="workload name(s); default: the whole zoo")
    _shared(p, "--size", "--seed")
    p.add_argument("--cache", metavar="PATH", default=None,
                   help="persistent compile-cache file to consult and "
                        "update (e.g. .repro-jit-cache.json)")
    p.set_defaults(fn=_cmd_jit)

    p = sub.add_parser(
        "serve",
        help="serve a queue of concurrent launches on one node pool",
        description=(
            "Synthesize a seeded arrival trace from a workload mix, feed "
            "it through the submission queue, and serve it on a simulated "
            "service pool: the admission scheduler leases disjoint node "
            "subsets FCFS, and (unless --no-pipeline) overlaps a queued "
            "job's phase-1 compute with the in-flight Allgather of the "
            "job owning the subset.  Prints the per-job table and the "
            "throughput/latency accountant; with --check-serial the same "
            "jobs are rerun one at a time and the command exits 1 unless "
            "every job is bit-identical to its serial twin."
        ),
    )
    p.add_argument("--mix", default="FIR:2,KMeans:1,Transpose:1",
                   metavar="SPEC",
                   help="workload mix as 'Name:weight,...' "
                        "(default: %(default)s)")
    p.add_argument("--rate", type=float, default=1e6,
                   help="mean arrival rate in jobs per *simulated* second "
                        "(Poisson process; default: %(default)s — phase "
                        "times are microseconds, so ~1e6/s builds backlog)")
    p.add_argument("--jobs", type=int, default=None,
                   help="number of arrivals to synthesize (default: 8 "
                        "unless --duration is given)")
    p.add_argument("--duration", type=float, default=None,
                   metavar="SECONDS",
                   help="synthesize arrivals for this many simulated "
                        "seconds instead of a fixed --jobs count")
    _shared(p, "--nodes", default=8,
            help="service pool width (default: %(default)s)")
    p.add_argument("--job-nodes", action="append", type=int, metavar="N",
                   help="node width(s) jobs draw from, repeatable "
                        "(default: every job asks for 2)")
    _shared(p, "--size")
    _shared(p, "--seed",
            help="seed for arrivals, mix draws and per-job data")
    _shared(p, "--cluster")
    _shared(p, "--topology",
            help="per-job network topology: flat, fat-tree[:K], ring or "
                 "torus")
    p.add_argument("--no-pipeline", action="store_true",
                   help="disable Allgather-window pipelining (jobs still "
                        "run concurrently on disjoint subsets)")
    _shared(p, "--backend", help="kernel-execution backend for every job")
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="fault plan injected into selected jobs, e.g. "
                        "'crash:rank=1,phase=allgather'")
    p.add_argument("--fault-every", type=int, default=0, metavar="K",
                   help="inject --faults into every Kth job (0 = none)")
    _shared(p, "--tuning",
            help="persistent tuning cache shared by all jobs")
    _shared(p, "--jit-cache",
            help="persistent JIT compile cache shared by all jobs "
                 "(consulted first, saved after; warm caches serve repeat "
                 "jobs with zero recompiles)")
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="export a Chrome trace of the whole service run; "
                        "every span carries its job_id")
    p.add_argument("--netflow", metavar="PATH", default=None,
                   help="record the per-link flow ledger across all jobs "
                        "(traffic attributed by job_id, links by pool "
                        "node id) and write its JSON document to PATH")
    _shared(p, "--metrics", "--metrics-json")
    p.add_argument("--check-serial", action="store_true",
                   help="rerun the same jobs serially and exit 1 unless "
                        "every job is bit-identical")
    p.add_argument("--observatory", action="store_true",
                   help="record the fleet ledger and print the fleet "
                        "report: occupancy/queue timelines, idle "
                        "attribution, per-job Gantt (DESIGN.md §15)")
    p.add_argument("--slo", metavar="SPEC", default=None,
                   help="declarative SLO policy, e.g. "
                        "'wait<=2e-6,latency<=2e-5,utilization>=0.5"
                        "[,window=8,budget=0.25,burn=2.0]'; warn/breach "
                        "events go to the report, metrics and trace, and "
                        "a hard breach exits 4 (implies --observatory)")
    p.add_argument("--postmortem", metavar="DIR", default=None,
                   help="dump a self-contained post-mortem JSON into DIR "
                        "for every terminally-failed job and every SLO "
                        "hard breach (implies --observatory); render "
                        "with 'repro postmortem FILE'")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "explain",
        help="attribute the latency delta between two exported runs",
        description=(
            "Offline regression attribution: load two runs — serve/launch "
            "trace JSONs (written by --trace) or BENCH_*.json pairs — "
            "align their spans, and rank where the time went: queue wait "
            "vs compute vs Allgather vs callback vs recovery vs stall.  "
            "Two runs of the same seed and config report a zero delta."
        ),
    )
    p.add_argument("a", help="baseline run (trace or BENCH json)")
    p.add_argument("b", help="candidate run (trace or BENCH json)")
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser(
        "postmortem",
        help="validate + pretty-print a flight-recorder dump",
        description=(
            "Render a post-mortem JSON written by 'repro serve "
            "--postmortem DIR': the job's request, fault story, lease "
            "history and last-N fleet events.  Exits 1 when the file "
            "fails schema validation."
        ),
    )
    p.add_argument("file", help="postmortem-<job>.json written by serve")
    p.set_defaults(fn=_cmd_postmortem)

    p = sub.add_parser("specs", help="print Table 1")
    p.set_defaults(fn=_cmd_specs)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bench":
        from repro.bench.__main__ import main as bench_main

        return bench_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CheckpointHalt as e:
        # the --halt-after restart drill: the checkpoint landed on disk
        # and the process "dies" — a distinct status so scripts can tell
        # the planned kill (3) from a real failure (1)
        print(f"halted: {e}")
        return 3
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
