"""The CuCC runtime: compile CUDA kernels, launch them on a CPU cluster.

Implements the paper's three-phase execution workflow (section 4):

1. **Partial Block Execution** — each node executes its contiguous range
   of ``p_size`` GPU blocks against its *own* memory replica;
2. **Balanced-In-Place Allgather** — one collective per written buffer
   restores the replication invariant for the partial phase's writes;
3. **Callback Block Execution** — tail-divergent and remainder blocks
   execute on *every* node, keeping replicas identical without
   communication.

Kernels the analysis rejects (or whose launch-time checks fail) fall
back to replicated execution of all blocks — always correct, never
communicating, exactly the paper's trivial case.

Functional execution is performed by the vectorized SPMD interpreter on
each node's buffers; timing comes from the roofline model applied to the
dynamic op counts each node actually incurred.

**Fault tolerance.**  Constructed with a
:class:`~repro.cluster.faults.FaultPlan`, the runtime executes launches
under a :class:`RecoveryPolicy`:

* transient collective failures (timeouts, detected payload corruption)
  are retried with exponential backoff;
* stragglers are detected when a node's partial-phase time exceeds a
  multiple of the median (and optionally evicted);
* permanent node loss triggers **shrink-and-repartition recovery**: the
  dead rank is dropped, the communicator is rebuilt over the survivors,
  buffer state is restored from the last replication-invariant point (a
  lightweight :class:`~repro.runtime.memory_manager.Checkpoint` taken at
  the kernel-launch boundary — or, after phase 2 completed, the restored
  invariant itself), the distribution plan is re-finalized for the
  smaller node count, and only the lost work is replayed.

All recovery work is charged to the simulated clocks and recorded in the
launch's :class:`~repro.runtime.program.PhaseTimes` (``recovery`` field),
so benchmarks can quantify fault overhead.

There is one launch driver (:meth:`CuCCRuntime._run_phases`): the
recovery loop is the launch path.  Without a fault plan no injector
exists, every fault hook returns at once — no boundary poll, no
straggler check, no pre-launch snapshot of the written buffers — and
the loop body runs exactly once, leaving the same modeled times and the
same traces as an armed injector that never fires
(``tests/test_faults.py`` gates both).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.distributable import analyze_kernel, finalize_plan
from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultInjector, FaultPlan
from repro.errors import (
    ClusterError,
    CollectiveTimeout,
    DataCorruptionError,
    LaunchError,
    NodeFailure,
)
from repro.hw.perfmodel import DEFAULT_PARAMS, ModelParams, cpu_node_time
from repro.interp.counters import OpCounters
from repro.interp.grid import LaunchConfig
from repro.interp.machine import check_backend, make_executor
from repro.ir.stmt import Kernel
from repro.obs.metrics import METRICS
from repro.obs.tracer import SpanKind, Tracer
from repro.runtime.memory_manager import Checkpoint, ClusterMemory
from repro.runtime.program import CompiledKernel, LaunchRecord, PhaseTimes
from repro.transform.blockwrap import generate_kernel_module
from repro.transform.hostgen import generate_host_module
from repro.transform.simplify import simplify_kernel
from repro.transform.vectorize import analyze_vectorizability

__all__ = ["CuCCRuntime", "CuCCResult", "RecoveryPolicy", "STATE_OPTIONS"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the runtime's fault-recovery behaviour.

    All durations are modeled seconds charged to the simulated clocks;
    none of them affect a fault-free run.
    """

    #: transient collective failures retried before giving up
    max_retries: int = 3
    #: first retry backoff; attempt k waits base * factor**(k-1)
    backoff_base_s: float = 1e-3
    backoff_factor: float = 2.0
    #: heartbeat timeout charged to survivors when a node loss is detected
    failure_detect_s: float = 5e-3
    #: a node is flagged as a straggler when its partial-phase time
    #: exceeds this multiple of the median node's time
    straggler_factor: float = 4.0
    #: evict detected stragglers (treated as a permanent node loss)
    evict_stragglers: bool = False
    #: recovery is refused (ClusterError) below this many surviving nodes
    min_nodes: int = 1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_factor <= 0:
            raise ValueError(
                f"backoff_factor must be > 0, got {self.backoff_factor}"
            )
        if self.failure_detect_s < 0:
            raise ValueError(
                f"failure_detect_s must be >= 0, got {self.failure_detect_s}"
            )
        if self.straggler_factor <= 0:
            raise ValueError(
                f"straggler_factor must be > 0, got {self.straggler_factor}"
            )
        if self.min_nodes < 1:
            raise ValueError(f"min_nodes must be >= 1, got {self.min_nodes}")


@dataclass
class _LaunchState:
    """Mid-launch accounting of the three-phase driver.

    One per launch: built fresh, or restored from the ``pending`` dict of
    a durable checkpoint, and serialised back to that dict at every stage
    point (see :mod:`repro.ops.manager`; the snapshot's bulk data travels
    separately as PENDING_RANK segments).
    """

    kernel: str
    config: LaunchConfig
    overhead: float
    #: stage point a restored launch re-enters at (None: from the top)
    stage: str | None = None
    partial_time: float = 0.0
    partial_counters: list[OpCounters] = field(default_factory=list)
    allgather_time: float = 0.0
    allgather_algos: list[str] = field(default_factory=list)
    retries: int = 0
    recoveries: int = 0
    recovery_time: float = 0.0
    #: cursor into the injector's event log where this launch began
    events_start: int = 0
    #: in-memory pre-launch snapshot of the written buffers
    ckpt: Checkpoint | None = None

    def restore(self, pending: dict) -> None:
        self.overhead = float(pending["overhead"])
        self.stage = pending["stage"]
        self.partial_time = float(pending["partial_time"])
        self.partial_counters = [
            OpCounters(**c) for c in pending["partial_counters"]
        ]
        self.allgather_time = float(pending["allgather_time"])
        self.allgather_algos = list(pending["allgather_algos"])
        self.retries = int(pending["retries"])
        self.recoveries = int(pending["recoveries"])
        self.recovery_time = float(pending["recovery_time"])
        self.events_start = int(pending["events_start"])
        self.ckpt = pending.get("_ckpt_obj")

    def to_pending(self, stage: str) -> dict:
        ckpt = self.ckpt
        return {
            "stage": stage,
            "kernel": self.kernel,
            "grid": list(self.config.grid),
            "block": list(self.config.block),
            "overhead": self.overhead,
            "partial_time": self.partial_time,
            "partial_counters": [c.as_dict() for c in self.partial_counters],
            "allgather_time": self.allgather_time,
            "allgather_algos": list(self.allgather_algos),
            "retries": self.retries,
            "recoveries": self.recoveries,
            "recovery_time": self.recovery_time,
            "events_start": self.events_start,
            "ckpt": (
                None
                if ckpt is None
                else {
                    "label": ckpt.label,
                    "sim_time": ckpt.sim_time,
                    "buffers": sorted(ckpt.data),
                }
            ),
        }


#: The :class:`CuCCRuntime` options that affect simulated state: exactly
#: what a durable checkpoint records and a resume restores (every other
#: option is a process-local observer or cache).  A dataclass-valued
#: option names the class its stored dict rebuilds.
STATE_OPTIONS: dict[str, type | None] = {
    "params": ModelParams,
    "recovery": RecoveryPolicy,
    "simd_enabled": None,
    "bounds_check": None,
    "faithful_replication": None,
    "sanitize": None,
    "allgather_algo": None,
    "drift": None,
    "backend": None,
}


@dataclass
class CuCCResult:
    """Outcome of one workload run (:meth:`CuCCRuntime.run`)."""

    time: float
    record: LaunchRecord
    runtime: CuCCRuntime
    #: the downloaded outputs (rank 0's replica, all replicas agreeing)
    outputs: dict[str, object]

    @property
    def network_fraction(self) -> float:
        return self.record.phases.network_fraction


class CuCCRuntime:
    """Compile-and-launch interface over a simulated CPU cluster.

    Args:
        cluster: target cluster.
        params: performance-model constants.
        simd_enabled: model switch for the section 8.2 no-SIMD ablation.
        bounds_check: verify kernel memory accesses (debugging aid).
        faithful_replication: execute replicated work on *every* node's
            memory (maximum bug-catching power).  When ``False``,
            replicated work runs once on rank 0 and the deterministic
            result is copied to the other replicas — functionally
            identical, much faster for large node counts.  Timing is
            unaffected (every node is charged the full work either way).
        fault_plan: optional deterministic fault schedule (see
            :mod:`repro.cluster.faults`).  ``None`` (default) or an
            empty plan builds no injector: no fault hook fires, no
            pre-launch snapshot is taken, modeled times are identical.
        recovery: recovery policy; defaults to :class:`RecoveryPolicy()`.
        sanitize: run the kernel sanitizer — the static race detector at
            :meth:`compile` (``CompiledKernel.sanitizer_report``) and the
            dynamic shadow checks on every launch
            (``LaunchRecord.sanitizer_report``, one report accumulated
            across all node executions).  Sanitizer hooks never touch the
            op counters, so modeled times are identical either way.
        trace: span tracing (see :mod:`repro.obs`).  ``True`` builds a
            fresh :class:`~repro.obs.tracer.Tracer`; an existing tracer
            is adopted as-is (shared across runtimes).  ``False``
            (default) attaches the disabled :data:`NULL_TRACER` — zero
            overhead, bit-identical modeled times and buffers.
        profile: per-line hotspot profiling (see
            :mod:`repro.obs.profiler`).  ``True`` builds a fresh
            :class:`~repro.obs.profiler.Profiler`; an existing profiler
            is adopted as-is (shared across runtimes).  ``False``
            (default) leaves the interpreter's profile hook dormant —
            identical counters, traces and modeled times.  With tracing
            also on, each launch additionally emits Perfetto
            counter-track samples of cumulative profiled work.
        drift: model-drift telemetry (see :mod:`repro.obs.drift`) —
            after every distributed launch, re-predict the partial /
            Allgather phase times with the analytical cost model and
            record the signed relative error into METRICS.  Opt-in
            because the prediction pass exercises the tuning selector
            (cache hit/miss counters) and annotates launch spans.
        checkpoint: durable checkpointing (see :mod:`repro.ops`): a
            :class:`~repro.ops.policy.CheckpointPolicy` makes the
            runtime serialize its full state to disk at phase
            boundaries, resumable via
            :func:`repro.ops.resume.resume_runtime`.  ``None``
            (default) never imports the ops layer — zero overhead,
            bit-identical modeled times (checkpoint writes charge zero
            simulated time either way: durability is host I/O).
        drift_guard: a :class:`~repro.ops.guard.DriftGuardPolicy`
            installs a circuit breaker on the drift telemetry
            (warn → force-retune → refuse-launch); implies
            ``drift=True``.  ``None`` (default) installs nothing.
        backend: kernel-execution backend.  ``"interp"`` walks the IR
            tree (the semantic reference); ``"jit"`` compiles each
            kernel to a specialized vectorized closure (bit-identical
            buffers and op counters — see DESIGN.md §13) and fails on
            kernels the codegen cannot handle; ``"auto"`` (default)
            uses the JIT where supported and falls back silently.
            Sanitizer and profiler hooks observe the tree-walking
            interpreter, so ``backend="jit"`` rejects ``sanitize``/
            ``profile`` (with ``"auto"`` those launches just take the
            interpreter).
        jit_cache: persistent compile cache for the JIT backend — a
            :class:`~repro.interp.jit.CompileCache` or a path to one
            (created on first save).  ``None`` (default) compiles per
            process and memoizes in memory only.
    """

    def __init__(
        self,
        cluster: Cluster,
        params: ModelParams = DEFAULT_PARAMS,
        simd_enabled: bool = True,
        bounds_check: bool = True,
        faithful_replication: bool = True,
        fault_plan: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        sanitize: bool = False,
        allgather_algo: str = "auto",
        trace: bool | Tracer = False,
        profile: object = False,
        drift: bool = False,
        checkpoint: object = None,
        drift_guard: object = None,
        backend: str = "auto",
        jit_cache: object = None,
        netflow: object = False,
    ):
        check_backend(backend, hooked=bool(sanitize or profile))
        self.backend = backend
        #: JIT compile cache (repro.interp.jit.CompileCache) or None;
        #: the import is deferred so an interpreter-only runtime never
        #: loads the JIT package
        self.jit_cache = None
        if jit_cache is not None and backend != "interp":
            from repro.interp.jit import CompileCache

            self.jit_cache = CompileCache.load(jit_cache)
        self.cluster = cluster
        self.params = params
        self.simd_enabled = simd_enabled
        self.bounds_check = bounds_check
        self.faithful_replication = faithful_replication
        self.sanitize = sanitize
        self.drift = bool(drift)
        #: per-line hotspot profiler; ``None`` = profiling off (the
        #: import is deferred so an unprofiled runtime never loads it)
        self.profiler = None
        if profile:
            from repro.obs.profiler import Profiler

            self.profiler = Profiler.from_option(profile)
            # cumulative counter-track state (Perfetto "C" samples)
            self._counter_cum = {"ops": 0.0, "bytes": 0.0}
        #: span tracer shared with the communicator and fault injector
        self.tracer: Tracer = Tracer.from_option(trace)
        #: Allgather algorithm for phase 2: a zoo member (see
        #: repro.cluster.collectives.ALLGATHER_ALGOS) or "auto" (default),
        #: which resolves through the cluster's tuning cache / topology
        #: cost model; what each launch actually ran is recorded in its
        #: LaunchRecord.allgather_algo
        self.allgather_algo = allgather_algo
        self._cur_san = None  # per-launch DynamicSanitizer (shared by nodes)
        self.memory = ClusterMemory(cluster)
        self.launches: list[LaunchRecord] = []
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self.injector: FaultInjector | None = (
            FaultInjector(fault_plan)
            if fault_plan is not None and fault_plan.faults
            else None
        )
        #: per-link flow ledger fed by the communicator; ``None`` =
        #: netflow off (the import is deferred so an unobserved runtime
        #: never loads repro.obs.netflow)
        self.netflow = None
        if netflow is not None and netflow is not False:
            from repro.obs.netflow import NetFlowLedger

            self.netflow = NetFlowLedger.from_option(netflow)
        cluster.comm.injector = self.injector
        cluster.comm.tracer = self.tracer
        if self.netflow is not None:
            cluster.comm.netflow = self.netflow
        if self.injector is not None:
            self.injector.tracer = self.tracer
        self._compiled: dict[str, CompiledKernel] = {}
        #: elastic-operations hooks (repro.ops); ``None`` = layer absent,
        #: the imports below are deferred so an un-checkpointed runtime
        #: never loads the package
        self.ops = None
        if checkpoint is not None:
            from repro.ops.manager import CheckpointManager

            self.ops = CheckpointManager(self, checkpoint)
        #: drift circuit breaker; a guard needs the telemetry it watches
        self.guard = None
        if drift_guard is not None:
            from repro.ops.guard import DriftGuard

            self.guard = DriftGuard(drift_guard)
            self.drift = True
        #: execution cursor set by repro.ops.resume.resume_runtime
        self._resume = None

    # ------------------------------------------------------------------
    # the host side of one workload: upload, then run
    # ------------------------------------------------------------------
    def upload(self, spec) -> None:
        """Allocate the buffers of a
        :class:`~repro.workloads.base.WorkloadSpec` on every node and
        copy its inputs in."""
        for name, arr in spec.arrays.items():
            self.memory.alloc(name, arr.size, arr.dtype)
            self.memory.memcpy_h2d(name, arr)

    def run(self, spec, verify: bool = True) -> CuCCResult:
        """Compile and launch the workload's kernel over the buffers
        already on the cluster (uploaded, or restored by a resume), and
        download every declared output, checking that all replicas
        agree.  ``verify`` compares the outputs against the workload's
        NumPy reference (raising on mismatch)."""
        compiled = self.compile(spec.kernel)
        record = self.launch(compiled, spec.grid, spec.block, spec.args())
        outputs = {
            o: self.memory.memcpy_d2h(o, check_consistency=True)
            for o in spec.outputs
        }
        if verify:
            spec.verify(outputs)
        return CuCCResult(
            time=record.time, record=record, runtime=self, outputs=outputs
        )

    # ------------------------------------------------------------------
    def compile(self, kernel: Kernel) -> CompiledKernel:
        """Run the CuCC compiler pipeline on a kernel IR.

        The exact constant-folding/identity pass runs before analysis
        and execution (semantics-preserving; see
        :mod:`repro.transform.simplify`).  With ``sanitize`` on, the
        static race detector runs over the lowered IR and its report is
        attached as ``CompiledKernel.sanitizer_report``.

        A ``Kernel`` is compiled once per process: treat it as immutable
        once it has been handed to a runtime.
        """
        if kernel.name in self._compiled:
            cached = self._compiled[kernel.name]
            if cached.original_kernel is kernel:
                if self.sanitize and cached.sanitizer_report is None:
                    from repro.sanitize import sanitize_kernel

                    cached.sanitizer_report = sanitize_kernel(cached.kernel)
                return cached
        # the passes are pure functions of the IR: run them once per
        # Kernel object and carry the products on it (as get_program does
        # with ``_jit_keys``), so every runtime in the process — one per
        # served job — shares them; their lifetime is the kernel's
        passes = getattr(kernel, "_cucc_passes", None)
        if passes is None:
            lowered = simplify_kernel(kernel)
            analysis = analyze_kernel(lowered)
            vect = analyze_vectorizability(lowered)
            passes = kernel._cucc_passes = {
                "kernel": lowered,
                "analysis": analysis,
                "vectorization": vect,
                "kernel_module_src": generate_kernel_module(lowered, vect),
                "host_module_src": generate_host_module(
                    lowered, analysis.metadata
                ),
            }
        analysis, vect = passes["analysis"], passes["vectorization"]
        report = None
        if self.sanitize:
            from repro.sanitize import sanitize_kernel

            report = sanitize_kernel(passes["kernel"])
        # the shell (and with it the sanitizer report) is this runtime's
        compiled = CompiledKernel(
            **passes, original_kernel=kernel, sanitizer_report=report
        )
        self._compiled[kernel.name] = compiled
        if self.tracer.enabled:
            # compilation is host-side work: zero simulated duration,
            # stamped at the cluster's current makespan
            t = self.cluster.max_clock
            self.tracer.add(
                f"compile {kernel.name}",
                SpanKind.COMPILE,
                t,
                t,
                kernel=kernel.name,
                distributable=analysis.distributable,
                vectorizable=vect.vectorizable,
            )
        if METRICS.enabled:
            METRICS.inc("runtime.compiles")
        return compiled

    # ------------------------------------------------------------------
    def launch(
        self,
        compiled: CompiledKernel | Kernel,
        grid,
        block,
        args: dict[str, object],
    ) -> LaunchRecord:
        """Execute one kernel launch with the three-phase workflow.

        ``args`` maps parameter names to buffer names (strings, for
        pointer parameters — allocated via :attr:`memory`) or scalars.
        """
        if isinstance(compiled, Kernel):
            compiled = self.compile(compiled)
        config = LaunchConfig.make(grid, block)
        kernel = compiled.kernel

        buffer_args: dict[str, str] = {}
        scalar_args: dict[str, object] = {}
        for p in kernel.params:
            if p.name not in args:
                raise LaunchError(f"missing argument {p.name!r}")
            v = args[p.name]
            if p.is_pointer:
                if not isinstance(v, str):
                    raise LaunchError(
                        f"pointer argument {p.name!r} must be a buffer name"
                    )
                self.memory.size_of(v)  # validates existence
                buffer_args[p.name] = v
            else:
                scalar_args[p.name] = v

        if self.guard is not None:
            self.guard.admit(kernel.name)

        plan = finalize_plan(
            compiled.analysis, config, scalar_args, self.cluster.num_nodes
        )
        vectorized = compiled.vectorization.vectorizable
        working_set = sum(
            self.memory.size_of(b) * self.memory.dtype_of(b).itemsize
            for b in set(buffer_args.values())
        )

        pending = None
        if self._resume is not None:
            ff, pending = self._take_resume_step(kernel, config)
            if ff is not None:
                # launch completed before the checkpoint: replay its
                # record verbatim, zero clock movement
                from repro.ops.resume import record_from_dict

                record = record_from_dict(ff, config, plan)
                self.launches.append(record)
                return record
        state = _LaunchState(
            kernel.name, config, self.params.cpu_launch_overhead_s
        )
        if pending is not None:
            state.restore(pending)
        lspan = (
            self.tracer.begin(
                f"launch {kernel.name}",
                SpanKind.LAUNCH,
                self.cluster.max_clock,
            )
            if self.tracer.enabled
            else None
        )
        if pending is None:
            # (a mid-flight launch's overhead was charged, and
            # checkpointed into the clocks, before the interrupt)
            for node in self.cluster.nodes:
                node.clock.advance(state.overhead)

        if self.sanitize:
            from repro.sanitize import DynamicSanitizer

            # one sanitizer for the whole launch: every node executor
            # feeds the same shadow state, so divergence *between* the
            # replicated executions surfaces as a non-replicated write
            self._cur_san = DynamicSanitizer(kernel.name)
        try:
            record = self._run_phases(
                compiled, config, plan, buffer_args, scalar_args,
                vectorized, working_set, state,
            )
        finally:
            san, self._cur_san = self._cur_san, None
            if lspan is not None:
                self.tracer.end(lspan, self.cluster.max_clock)
        if san is not None:
            record.sanitizer_report = san.report
        if lspan is not None:
            # the launch span carries the *exact* PhaseTimes floats, so
            # exported traces reconstruct PhaseTimes bit-identically
            p = record.phases
            lspan.args.update(
                kernel=kernel.name,
                replicated=record.plan.replicated,
                partial_s=p.partial,
                allgather_s=p.allgather,
                callback_s=p.callback,
                overhead_s=p.overhead,
                recovery_s=p.recovery,
                algos=list(p.allgather_algos),
                comm_bytes=record.comm_bytes,
                retries=record.retries,
                recoveries=record.recoveries,
            )
        if METRICS.enabled:
            METRICS.inc("runtime.launches", kernel=kernel.name)
            if record.retries:
                METRICS.inc("runtime.retries", record.retries)
            if record.recoveries:
                METRICS.inc("runtime.recoveries", record.recoveries)
            rep = record.sanitizer_report
            if rep is not None and rep.findings:
                METRICS.inc("sanitize.findings", len(rep.findings))
        if self.drift:
            from repro.obs.drift import observe_launch_drift

            pred = observe_launch_drift(
                self, kernel, record, vectorized, working_set, lspan=lspan
            )
            if self.guard is not None and pred is not None:
                self.guard.observe(self, kernel.name, record, pred)
        if self.profiler is not None and lspan is not None:
            self._emit_counter_samples(lspan, record)
        self.launches.append(record)
        if self.ops is not None:
            self.ops.on_launch_end(record)
        return record

    def _take_resume_step(self, kernel, config):
        """Consume one step of the resume cursor (see repro.ops.resume).

        Returns ``(fast_forward_dict, pending_dict)``: exactly one is
        non-None while the cursor lasts.  Raises CheckpointError when
        the replayed launch sequence diverges from the checkpointed one.
        """
        from repro.errors import CheckpointError

        rs = self._resume
        step = (
            rs.completed.pop(0) if rs.completed else rs.pending
        )
        if not rs.completed:
            # pending (if any) is handed out on this or the next call
            if step is rs.pending:
                rs.pending = None
            if rs.exhausted:
                self._resume = None
        if (
            step["kernel"] != kernel.name
            or tuple(step["grid"]) != config.grid
            or tuple(step["block"]) != config.block
        ):
            raise CheckpointError(
                f"resume mismatch: checkpoint recorded launch "
                f"{step['kernel']}<<<{tuple(step['grid'])},"
                f"{tuple(step['block'])}>>>, caller replayed "
                f"{kernel.name}<<<{config.grid},{config.block}>>> — "
                f"resume must replay the original launch sequence",
                path=rs.path,
            )
        if "stage" in step:
            return None, step
        return step, None

    def _emit_counter_samples(self, lspan, record) -> None:
        """Perfetto counter-track samples (ph ``C``): cumulative profiled
        work sampled at the launch span's boundaries, so the exported
        trace renders a work-over-time track alongside the spans."""
        tot = OpCounters()
        for c in record.partial_counters:
            tot.add(c)
        tot.add(record.callback_counters)
        cum = self._counter_cum
        t1 = lspan.t1 if lspan.t1 is not None else self.cluster.max_clock
        self.tracer.add(
            "profile.cumulative", SpanKind.COUNTER, lspan.t0, lspan.t0,
            weighted_ops=cum["ops"], dram_bytes=cum["bytes"],
        )
        cum["ops"] += tot.weighted_ops
        cum["bytes"] += tot.global_line_bytes or tot.global_bytes
        self.tracer.add(
            "profile.cumulative", SpanKind.COUNTER, t1, t1,
            weighted_ops=cum["ops"], dram_bytes=cum["bytes"],
        )

    # ------------------------------------------------------------------
    # the three-phase driver
    # ------------------------------------------------------------------
    def _run_phases(
        self, compiled, config, plan, buffer_args, scalar_args,
        vectorized, working_set, state,
    ) -> LaunchRecord:
        """Drive the three phases under the recovery policy.

        The loop re-enters after every survived permanent failure; the
        ``allgather_done`` flag encodes the replication-invariant point
        reached, which decides how much work a recovery must replay.
        Without an injector the fault hooks return at once and nothing
        can raise, so the loop body runs exactly once.

        A ``state`` restored from a durable checkpoint re-enters the
        loop at its recorded stage; completed phases are skipped
        structurally, so the stage points a resumed launch reaches are
        exactly the uninterrupted run's remaining ones.
        """
        kernel = compiled.kernel
        if state.stage is None:
            self._open_fault_window(compiled, buffer_args, state)
        allgather_done = state.stage == "callback"

        while True:
            attempt_partial = attempt_allgather = 0.0
            try:
                if not allgather_done:
                    if state.stage == "allgather":
                        # resumed right before phase 2: the partial
                        # phase's work and time are already restored
                        state.stage = None
                        attempt_partial = state.partial_time
                    else:
                        self._fault_boundary("partial")
                        attempt_partial, state.partial_counters = (
                            self._run_partial_phase(
                                kernel, config, plan, buffer_args,
                                scalar_args, vectorized, working_set,
                                node_times=(node_times := []),
                            )
                        )
                        self._check_stragglers(plan, node_times)
                        state.partial_time = attempt_partial
                        self._stage_point("allgather", state)
                    self._fault_boundary("allgather")
                    attempt_allgather, extra, nretry, algos = (
                        self._run_allgather_retrying(plan, buffer_args)
                    )
                    state.retries += nretry
                    state.recovery_time += extra
                    state.allgather_time = attempt_allgather
                    state.allgather_algos = algos
                    allgather_done = True
                    self._stage_point("callback", state)
                self._fault_boundary("callback")
                callback_counters = OpCounters()
                callback_time = 0.0
                cb = plan.callback_blocks
                if len(cb) > 0:
                    callback_time = self._run_replicated(
                        kernel, config, buffer_args, scalar_args, cb,
                        callback_counters, vectorized, working_set,
                    )
                break
            except NodeFailure as e:
                state.recoveries += 1
                if not allgather_done:
                    # the failed attempt's work is discarded and replayed:
                    # account it as recovery cost, not productive phase
                    # time (past the Allgather nothing is discarded)
                    state.recovery_time += attempt_partial + attempt_allgather
                state.recovery_time += self._recover_from_node_loss(
                    e, state.ckpt, allgather_done
                )
                if not allgather_done:
                    plan = finalize_plan(
                        compiled.analysis, config, scalar_args,
                        self.cluster.num_nodes,
                    )
                    self.injector.record(
                        "replan",
                        self.cluster.max_clock,
                        detail=(
                            f"{'replicated' if plan.replicated else 'distributed'}"
                            f" plan over {self.cluster.num_nodes} nodes"
                        ),
                    )

        inj = self.injector
        return LaunchRecord(
            kernel_name=kernel.name,
            config=config,
            plan=plan,
            phases=PhaseTimes(
                partial=state.partial_time,
                allgather=state.allgather_time,
                callback=callback_time,
                overhead=state.overhead,
                recovery=state.recovery_time,
                allgather_algos=tuple(state.allgather_algos),
            ),
            partial_counters=state.partial_counters,
            callback_counters=callback_counters,
            comm_bytes=plan.comm_bytes,
            fault_events=(
                list(inj.events[state.events_start:]) if inj is not None else []
            ),
            retries=state.retries,
            recoveries=state.recoveries,
        )

    def _stage_point(self, stage: str, state) -> None:
        """Transition into ``stage``: the one place the durable-checkpoint
        layer observes a launch mid-flight."""
        if self.ops is not None:
            self.ops.on_stage(
                stage,
                state.to_pending(stage),
                ckpt=state.ckpt,
                recovered=state.recoveries > 0,
            )

    def _open_fault_window(self, compiled, buffer_args, state) -> None:
        """Arm the injector for a new launch and snapshot the buffers the
        kernel writes (the pre-launch replication invariant a recovery
        restores).  Nothing to arm without an injector — in particular
        no host copy of the written buffers is taken."""
        if self.injector is None:
            return
        written = sorted(
            {
                buffer_args[r.buffer]
                for r in compiled.analysis.records
                if r.buffer in buffer_args
            }
        )
        state.events_start = self.injector.begin_launch(self.cluster.nodes)
        if written:
            state.ckpt = self.memory.checkpoint(
                written, label=f"launch:{state.kernel}"
            )

    def _fault_boundary(self, phase: str) -> None:
        """Deliver scheduled crashes due at this phase boundary; any dead
        node surfaces as a NodeFailure for the recovery driver."""
        if self.injector is None:
            return
        nodes = self.cluster.nodes
        self.injector.poll_crashes(phase, self.cluster.max_clock, nodes)
        dead = tuple(n.born_rank for n in nodes if not n.alive)
        if dead:
            raise NodeFailure(
                f"node(s) {list(dead)} down at {phase} boundary", ranks=dead
            )

    def _check_stragglers(self, plan, node_times: list[float]) -> None:
        """Flag nodes whose partial-phase time ran past the policy's
        timeout (straggler_factor x the median node); optionally evict."""
        if self.injector is None:
            return
        import statistics

        nodes = self.cluster.nodes
        if plan.replicated or len(nodes) < 2 or len(node_times) != len(nodes):
            return
        median = statistics.median(node_times)
        if median <= 0.0:
            return
        slow = [
            n for n, t in zip(nodes, node_times)
            if t > self.recovery.straggler_factor * median
        ]
        for n in slow:
            t = node_times[n.rank]
            self.injector.record(
                "straggler-detected",
                self.cluster.max_clock,
                rank=n.born_rank,
                detail=(
                    f"partial phase {t * 1e3:.3f} ms vs "
                    f"median {median * 1e3:.3f} ms "
                    f"(timeout factor {self.recovery.straggler_factor:g})"
                ),
            )
            if self.recovery.evict_stragglers:
                n.fail("evicted as straggler")
        if self.recovery.evict_stragglers and slow:
            raise NodeFailure(
                f"straggler rank(s) {[n.born_rank for n in slow]} evicted",
                ranks=tuple(n.born_rank for n in slow),
            )

    def _run_allgather_retrying(self, plan, buffer_args):
        """Phase 2 under the retry policy.

        Returns ``(productive_time, recovery_time, retries, algos)``: the
        cost of the successful collectives vs. the time burned on failed
        attempts, timeouts and exponential backoff, plus the unique
        concrete algorithm(s) the communicator ran, in first-use order.
        """
        pol = self.recovery
        comm = self.cluster.comm
        total = 0.0
        extra = 0.0
        retries = 0
        algos: list[str] = []
        if plan.replicated or plan.p_size <= 0:
            return total, extra, retries, algos
        tracer = self.tracer
        aspan = (
            tracer.begin("allgather", SpanKind.PHASE, self.cluster.max_clock)
            if tracer.enabled
            else None
        )
        try:
            for bp in plan.buffers:
                attempt = 0
                while True:
                    before = self.cluster.max_clock
                    try:
                        total += comm.allgather_in_place(
                            buffer_args[bp.buffer],
                            bp.base_elem,
                            plan.p_size * bp.unit_elems,
                            algo=self.allgather_algo,
                        )
                        if (
                            comm.last_algorithm
                            and comm.last_algorithm not in algos
                        ):
                            algos.append(comm.last_algorithm)
                        break
                    except (CollectiveTimeout, DataCorruptionError) as e:
                        # the failed attempt's wire/timeout cost is already
                        # on the clocks; book it as recovery, then back off
                        extra += self.cluster.max_clock - before
                        attempt += 1
                        retries += 1
                        if attempt > pol.max_retries:
                            # preserve the concrete failure class; enrich
                            # the message so the CLI's one-line diagnosis
                            # names the exhausted policy, not just the
                            # last symptom
                            raise type(e)(
                                f"recovery exhausted: allgather of "
                                f"{bp.buffer!r} still failing after "
                                f"{pol.max_retries} retries ({e})"
                            ) from e
                        backoff = pol.backoff_base_s * (
                            pol.backoff_factor ** (attempt - 1)
                        )
                        start = self.cluster.max_clock
                        for n in self.cluster.nodes:
                            n.clock.wait_until(start + backoff)
                        extra += backoff
                        self.injector.record(
                            "retry",
                            self.cluster.max_clock,
                            detail=(
                                f"allgather {bp.buffer!r} attempt "
                                f"{attempt}/{pol.max_retries} after "
                                f"{backoff * 1e3:.3f} ms backoff"
                            ),
                        )
        finally:
            if aspan is not None:
                aspan.args["algos"] = list(algos)
                tracer.end(aspan, self.cluster.max_clock)
        return total, extra, retries, algos

    def _recover_from_node_loss(self, failure, ckpt, allgather_done) -> float:
        """Shrink-and-repartition recovery; returns the modeled time it
        charged (detection timeout).  Raises ClusterError when too few
        nodes survive; without a fault plan no recovery is armed and the
        failure stays the caller's."""
        if self.injector is None:
            raise failure
        pol = self.recovery
        survivors = self.cluster.alive_nodes
        if len(survivors) < max(1, pol.min_nodes):
            raise ClusterError(
                f"unrecoverable failure: {len(survivors)} surviving node(s) "
                f"below the policy minimum of {max(1, pol.min_nodes)} "
                f"({failure})"
            )
        tracer = self.tracer
        rspan = (
            tracer.begin(
                "recovery",
                SpanKind.PHASE,
                max(n.clock.now for n in survivors),
                ranks=list(failure.ranks),
            )
            if tracer.enabled
            else None
        )
        # failure detection: survivors wait out the heartbeat timeout
        start = max(n.clock.now for n in survivors)
        for n in survivors:
            n.clock.wait_until(start + pol.failure_detect_s)
        dead = self.cluster.remove_dead()
        self.injector.record(
            "recover-shrink",
            self.cluster.max_clock,
            detail=(
                f"dropped rank(s) {[n.born_rank for n in dead]}, "
                f"{len(survivors)} survivors"
            ),
        )
        if not allgather_done and ckpt is not None:
            # pre-launch replication invariant: restore written buffers
            self.memory.restore(ckpt)
            self.injector.record(
                "restore",
                self.cluster.max_clock,
                detail=(
                    f"checkpoint {ckpt.label!r} "
                    f"({ckpt.nbytes} B x {len(survivors)} replicas)"
                ),
            )
        if rspan is not None:
            tracer.end(rspan, self.cluster.max_clock)
        return pol.failure_detect_s

    # ------------------------------------------------------------------
    # phase executors
    # ------------------------------------------------------------------
    def _run_partial_phase(
        self, kernel, config, plan, buffer_args, scalar_args, vectorized,
        working_set, node_times: list[float] | None = None,
    ):
        """Phase 1: each node runs its own block range; returns the phase
        duration (max over nodes) and the per-rank op counters.

        ``node_times`` (when given) receives each node's individual time —
        the signal the recovery policy's straggler detector reads.
        """
        partial_counters: list[OpCounters] = []
        partial_time = 0.0
        if not plan.replicated and plan.p_size > 0:
            tracer = self.tracer
            pspan = (
                tracer.begin("partial", SpanKind.PHASE, self.cluster.max_clock)
                if tracer.enabled
                else None
            )
            # one shared line sink per phase: every rank's executor feeds
            # it, merging per-line counts across the cluster
            prof = (
                self.profiler.sink(kernel, "partial", vectorized=vectorized)
                if self.profiler is not None
                else None
            )
            for node in self.cluster.nodes:
                counters = OpCounters()
                ex = self._executor(kernel, config, buffer_args, scalar_args,
                                    node, counters, prof)
                blocks = plan.node_blocks(node.rank)
                ex.run_blocks(blocks)
                t = cpu_node_time(
                    node.spec,
                    counters,
                    len(blocks),
                    vectorized,
                    simd_enabled=self.simd_enabled,
                    working_set_bytes=working_set,
                    params=self.params,
                ) * node.compute_multiplier
                if pspan is not None:
                    t0 = node.clock.now
                    tracer.add(
                        f"partial rank {node.born_rank}",
                        SpanKind.EXEC,
                        t0,
                        t0 + t,
                        rank=node.born_rank,
                        phase="partial",
                        blocks=len(blocks),
                        dur_s=t,
                    )
                node.clock.advance(t)
                partial_counters.append(counters)
                if node_times is not None:
                    node_times.append(t)
                partial_time = max(partial_time, t)
            if pspan is not None:
                tracer.end(pspan, self.cluster.max_clock)
        return partial_time, partial_counters

    # ------------------------------------------------------------------
    def _executor(self, kernel, config, buffer_args, scalar_args, node,
                  counters, prof=None):
        run_args: dict[str, object] = dict(scalar_args)
        for pname, bname in buffer_args.items():
            run_args[pname] = node.buffer(bname)
        return make_executor(
            kernel, config, run_args, counters,
            bounds_check=self.bounds_check, sanitize=self._cur_san,
            profile=prof, backend=self.backend, jit_cache=self.jit_cache,
        )

    def _run_replicated(
        self,
        kernel,
        config,
        buffer_args,
        scalar_args,
        blocks,
        counters: OpCounters,
        vectorized: bool,
        working_set: float,
    ) -> float:
        """Execute ``blocks`` identically on every node; returns duration.

        With ``faithful_replication`` the interpreter really runs on every
        replica; otherwise it runs once and the (deterministic) result is
        copied — either way every node's clock advances by the full cost.
        """
        nodes = self.cluster.nodes
        tracer = self.tracer
        cspan = (
            tracer.begin("callback", SpanKind.PHASE, self.cluster.max_clock)
            if tracer.enabled
            else None
        )
        first = nodes[0]
        # only the first executor profiles: its counters are the phase's
        # accounting (scratch replicas below are charged but not counted),
        # so per-line totals keep summing exactly to the aggregate
        prof = (
            self.profiler.sink(kernel, "callback", vectorized=vectorized)
            if self.profiler is not None
            else None
        )
        ex = self._executor(kernel, config, buffer_args, scalar_args, first,
                            counters, prof)
        ex.run_blocks(blocks)
        t = cpu_node_time(
            first.spec,
            counters,
            len(blocks),
            vectorized,
            simd_enabled=self.simd_enabled,
            working_set_bytes=working_set,
            params=self.params,
        )
        if self.faithful_replication:
            for node in nodes[1:]:
                scratch = OpCounters()
                ex_n = self._executor(
                    kernel, config, buffer_args, scalar_args, node, scratch
                )
                ex_n.run_blocks(blocks)
        else:
            # deterministic execution: replicate rank 0's buffer state
            for bname in set(buffer_args.values()):
                src = first.buffer(bname)
                for node in nodes[1:]:
                    node.buffer(bname)[:] = src
        for node in nodes:
            tn = t * node.compute_multiplier
            if cspan is not None:
                t0 = node.clock.now
                tracer.add(
                    f"callback rank {node.born_rank}",
                    SpanKind.EXEC,
                    t0,
                    t0 + tn,
                    rank=node.born_rank,
                    phase="callback",
                    blocks=len(blocks),
                    dur_s=tn,
                )
            node.clock.advance(tn)
        if cspan is not None:
            tracer.end(cspan, self.cluster.max_clock)
        return t

    # ------------------------------------------------------------------
    @property
    def sim_time(self) -> float:
        """Cluster makespan (slowest node's simulated clock)."""
        return self.cluster.max_clock

    def report(self) -> str:
        """Per-kernel summary of every launch so far (see
        :mod:`repro.runtime.trace`)."""
        from repro.runtime.trace import format_trace_report

        return format_trace_report(self.launches)
