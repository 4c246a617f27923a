"""The serving loop: discrete-event admission, execution and placement.

Execution/placement split (the determinism contract): every admitted
job runs *functionally* on its own fresh sub-cluster — its own
:class:`~repro.cluster.cluster.Cluster` over the leased width, clocks
from zero, its own fault plan — so the job's buffers, OpCounters and
PhaseTimes are bit-identical to running the same request alone,
regardless of what else the service is doing.  The serving schedule
then only decides *placement*: when that recorded service-time shape
(:class:`~repro.serve.pipeline.PhaseProfile`) occupies its subset on
the shared timeline.  ``tests/test_serve.py`` enforces the contract
bitwise against :func:`serve_serially`.

What jobs *do* share: one persistent
:class:`~repro.tuning.cache.TuningCache` (so the ``"auto"`` Allgather
resolves identically everywhere) and one
:class:`~repro.interp.jit.cache.CompileCache` (compile once, serve
many — a warm cache serves repeat jobs with zero recompiles).  And,
like any runtimes in one process, the compiler's work: a job's fresh
spec re-uses the ``Kernel`` its source parsed to the first time, and
with it the compiled passes, JIT keys and distribution plans that hang
on that object (DESIGN.md §2.1).  None of these can change what a job
computes, only how fast the host serves it.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import itertools
from dataclasses import dataclass, field, replace

from repro.errors import ReproError, ServeError
from repro.obs.metrics import METRICS
from repro.obs.tracer import Span, SpanKind, Tracer
from repro.serve.accounting import ServeReport
from repro.serve.packer import AdmissionPacker
from repro.serve.pipeline import (
    JobTiming,
    PhaseProfile,
    schedule_fresh,
    schedule_overlapped,
)
from repro.serve.queue import JobRequest, SubmissionQueue, resolve_workload

__all__ = [
    "ServeConfig",
    "JobResult",
    "CuCCServer",
    "serve_requests",
    "serve_serially",
    "verify_against_serial",
]


@dataclass
class ServeConfig:
    """Service-wide configuration (per-job knobs live on the request)."""

    nodes: int = 8  # service pool width
    cluster: str = "simd-focused"
    topology: str | None = None
    pipeline: bool = True
    backend: str = "auto"
    verify: bool = True
    recovery: object = None  # RecoveryPolicy | None
    #: shared tuning cache: TuningCache, path, or None
    tuning: object = None
    #: shared JIT compile cache: CompileCache, path, or None
    jit_cache: object = None
    trace: object = False  # bool | Tracer
    #: fleet ledger + flight recorder: bool | Observatory (auto-enabled
    #: when an SLO policy or a post-mortem directory is configured)
    observatory: object = False
    #: SLO monitoring: SLOPolicy | spec string (SLOPolicy.parse) | None
    slo: object = None
    #: directory for flight-recorder post-mortem dumps (terminal job
    #: failures and SLO hard breaches), or None to keep them in memory
    postmortem_dir: object = None
    #: per-link flow ledger with per-job traffic attribution:
    #: bool | NetFlowLedger (loaded lazily, like the observatory)
    netflow: object = False


@dataclass(frozen=True)
class _ExecOutcome:
    """Schedule-independent result of one job's functional execution."""

    status: str  # "ok" | "failed"
    error: str | None
    record: object  # LaunchRecord | None
    profile: PhaseProfile
    digests: dict
    spans: tuple  # the job-local tracer's spans
    netflow: tuple = ()  # the job-local flow ledger's raw records

    def placed(self, request, timing, node_ids) -> JobResult:
        """This outcome placed on ``node_ids`` at ``timing``."""
        return JobResult(
            request=request, status=self.status, error=self.error,
            node_ids=node_ids, timing=timing, profile=self.profile,
            record=self.record, output_digests=self.digests,
        )


@dataclass
class JobResult:
    """One served job: request, placement, and its bit-exact outcome."""

    request: JobRequest
    status: str
    error: str | None
    node_ids: tuple[int, ...]
    timing: JobTiming
    profile: PhaseProfile
    record: object = None
    output_digests: dict = field(default_factory=dict)

    @property
    def latency_s(self) -> float:
        """Queue-to-finish latency on the service clock."""
        return self.timing.finish_s - self.request.arrival_s

    def identity(self) -> dict:
        """The bit-identity payload compared against serial execution:
        output digests, every OpCounters field, exact PhaseTimes floats,
        and the fault/recovery story."""
        rec = self.record
        out = {
            "job_id": self.request.job_id,
            "status": self.status,
            "digests": dict(self.output_digests),
        }
        if rec is not None:
            p = rec.phases
            out["phases"] = (
                p.partial, p.allgather, p.callback, p.overhead, p.recovery,
                tuple(p.allgather_algos),
            )
            out["partial_counters"] = tuple(
                tuple(sorted(c.as_dict().items()))
                for c in rec.partial_counters
            )
            out["callback_counters"] = tuple(
                sorted(rec.callback_counters.as_dict().items())
            )
            out["faults"] = (
                len(rec.fault_events), rec.retries, rec.recoveries,
            )
        return out


#: glibc ``mallopt`` parameters and the values its own dynamic
#: adjustment tops out at (a 32 MiB mmap threshold, twice that to trim)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20


@functools.cache
def _retain_heap() -> bool:
    """Ask glibc to recycle freed buffers instead of unmapping them.

    Every job allocates and frees the same few MiB of NumPy buffers
    (node memories, JIT temporaries, the reference).  By default glibc
    maps each block over 128 KiB afresh and trims the heap top on free,
    so a job page-faults in every page it touches (a small Transpose:
    800-1 050 faults) and how much of that it pays depends on where the
    heap top happens to sit — host time per job then differs by 5 %
    between two processes running the same requests.  Pinning the
    thresholds makes a served job's host cost the same in every
    process.  Once per process, best effort: a no-op where the C
    library has no ``mallopt``.
    """
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError):
        return False
    return bool(
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_BYTES)
    )


class CuCCServer:
    """Admission + packing + pipelining over one simulated service pool."""

    def __init__(self, config: ServeConfig | None = None, **kwargs):
        if config is None:
            config = ServeConfig(**kwargs)
        elif kwargs:
            raise ServeError("pass either a ServeConfig or kwargs, not both")
        _retain_heap()
        from repro.hw.specs import CLUSTERS

        if config.cluster not in CLUSTERS:
            raise ServeError(
                f"unknown cluster {config.cluster!r}; "
                f"known: {sorted(CLUSTERS)}"
            )
        self.config = config
        cl = CLUSTERS[config.cluster]
        self.node_spec = cl.node
        self.network = cl.network
        #: shared caches (None = off); a path loads the file
        self.tuning = self.jit_cache = None
        if config.tuning is not None:
            from repro.tuning.cache import TuningCache

            self.tuning = TuningCache.load(config.tuning)
        if config.jit_cache is not None:
            from repro.interp.jit import CompileCache

            self.jit_cache = CompileCache.load(config.jit_cache)
        self.tracer = Tracer.from_option(config.trace)
        self.slo_policy = None
        if config.slo is not None:
            from repro.obs.slo import SLOPolicy

            self.slo_policy = SLOPolicy.parse(config.slo)
        #: fleet ledger; SLO monitoring and post-mortem dumping imply it
        #: (they feed off its ring buffers)
        self.observatory = None
        if (
            config.observatory
            or self.slo_policy is not None
            or config.postmortem_dir is not None
        ):
            from repro.obs.observatory import Observatory

            self.observatory = Observatory.from_option(config.observatory)
        #: service-wide flow ledger (None = netflow off); per-job
        #: ledgers are adopted into it with job_id attribution
        self.netflow = None
        if config.netflow is not None and config.netflow is not False:
            from repro.obs.netflow import NetFlowLedger

            self.netflow = NetFlowLedger.from_option(config.netflow)
        #: post-mortem documents dumped this run (flight recorder)
        self.postmortems: list[dict] = []
        #: paths written when config.postmortem_dir is set
        self.postmortem_paths: list[str] = []
        #: schedule-independent execution results, memoized per job_id
        #: (pipelined admission peeks at a candidate's profile before
        #: deciding to attach it; the peek must not re-run the job)
        self._outcomes: dict[str, _ExecOutcome] = {}

    # -- functional execution (schedule-independent) --------------------
    def _execute(self, req: JobRequest) -> _ExecOutcome:
        if req.job_id in self._outcomes:
            return self._outcomes[req.job_id]
        from repro.cluster.cluster import Cluster
        from repro.runtime.cucc import CuCCRuntime

        _, build = resolve_workload(req.workload)
        spec = build(req.size, seed=req.seed)
        cluster = Cluster(
            self.node_spec,
            req.nodes,
            network=self.network,
            name=f"serve:{req.job_id}",
            topology=self.config.topology,
            tuning=self.tuning,
        )
        fault_plan = None
        if req.faults:
            from repro.cluster.faults import FaultPlan

            fault_plan = FaultPlan.parse(req.faults, seed=req.fault_seed)
        job_tracer = Tracer() if self.tracer.enabled else False
        job_netflow = None
        if self.netflow is not None:
            from repro.obs.netflow import NetFlowLedger

            job_netflow = NetFlowLedger()
        status, error, record = "ok", None, None
        digests: dict[str, str] = {}
        try:
            rt = CuCCRuntime(
                cluster,
                fault_plan=fault_plan,
                recovery=self.config.recovery,
                trace=job_tracer,
                backend=self.config.backend,
                jit_cache=self.jit_cache,
                netflow=job_netflow,
            )
            rt.upload(spec)
            res = rt.run(spec, verify=self.config.verify)
            record = res.record
            digests = {
                o: hashlib.sha256(a.tobytes()).hexdigest()
                for o, a in sorted(res.outputs.items())
            }
            profile = PhaseProfile.from_record(record)
        except ReproError as e:
            # fault isolation: the job dies, the service keeps going;
            # its subset stays busy for as long as the wreck simulated
            status, error, record = "failed", str(e), None
            profile = PhaseProfile(
                pre_s=cluster.max_clock, allgather_s=0.0, post_s=0.0
            )
        spans = tuple(job_tracer.spans) if self.tracer.enabled else ()
        outcome = _ExecOutcome(
            status=status, error=error, record=record, profile=profile,
            digests=digests, spans=spans,
            netflow=tuple(job_netflow._raw) if job_netflow is not None
            else (),
        )
        self._outcomes[req.job_id] = outcome
        return outcome

    # -- the discrete-event serving loop --------------------------------
    def run(self, requests) -> ServeReport:
        """Serve a submission set to completion; returns the report.

        ``requests`` is a :class:`~repro.serve.queue.SubmissionQueue`
        or an iterable of :class:`~repro.serve.queue.JobRequest`
        (ordered by arrival time, submission order breaking ties).
        """
        ordered = _ordered_requests(requests, self.config.nodes)
        obs = self.observatory
        if obs is not None:
            obs.reset(self.config.nodes)
            self.postmortems = []
            self.postmortem_paths = []
        if self.netflow is not None:
            self.netflow.clear()
        monitor = None
        if self.slo_policy is not None:
            from repro.obs.slo import SLOMonitor

            monitor = SLOMonitor(self.slo_policy)
        packer = AdmissionPacker(self.config.nodes, observatory=obs)
        seq = itertools.count()
        events: list[tuple[float, int, str, object]] = []
        for r in ordered:
            heapq.heappush(events, (r.arrival_s, next(seq), "arrival", r))
        waiting: list[JobRequest] = []
        results: dict[str, JobResult] = {}

        def place(req, outcome, timing, node_ids):
            res = outcome.placed(req, timing, node_ids)
            results[req.job_id] = res
            self._account(res)
            if obs is not None:
                self._observe_placement(obs, res)
            if monitor is not None:
                self._observe_slo(monitor, obs, res)
            return res

        while events:
            t, _, kind, data = heapq.heappop(events)
            if kind == "arrival":
                waiting.append(data)
                if obs is not None:
                    obs.record("arrival", t, job_id=data.job_id,
                               nodes=data.nodes)
            elif kind == "window":
                lease_id, owner_job = data
                lease = packer.leases.get(lease_id)
                if (
                    self.config.pipeline
                    and lease is not None
                    and lease.owner == owner_job
                    and lease.successor is None
                    and lease.owner_timing.window_s > 0
                ):
                    for cand in waiting:
                        if cand.nodes > lease.width:
                            continue
                        outcome = self._execute(cand)
                        timing = schedule_overlapped(
                            outcome.profile, lease.owner_timing
                        )
                        packer.attach(lease, cand.job_id, timing)
                        waiting.remove(cand)
                        place(cand, outcome, timing,
                              lease.node_ids[:cand.nodes])
                        heapq.heappush(events, (
                            timing.finish_s, next(seq), "finish",
                            (lease_id, cand.job_id),
                        ))
                        if timing.window_s > 0:
                            heapq.heappush(events, (
                                timing.allgather_start_s, next(seq),
                                "window", (lease_id, cand.job_id),
                            ))
                        break
            else:  # finish
                lease_id, job_id = data
                lease = packer.leases.get(lease_id)
                if lease is not None and job_id in lease.resident:
                    handoff = (
                        job_id == lease.owner and lease.successor is not None
                    )
                    packer.job_finished(lease, job_id, t)
                    res = results[job_id]
                    if obs is not None:
                        obs.record("finish", t, job_id=job_id,
                                   status=res.status)
                        if res.status != "ok":
                            obs.record("wreck", t, job_id=job_id,
                                       node_ids=res.node_ids,
                                       error=res.error)
                            self._dump_postmortem(
                                obs, res, "terminal-failure"
                            )
                    if handoff and lease.lease_id in packer.leases:
                        packer.shrink(
                            lease, results[lease.owner].request.nodes, t
                        )
            # FCFS admission sweep: grant leases to queue heads while
            # they fit; the head is never overtaken for a lease
            while waiting and packer.can_admit(waiting[0].nodes):
                req = waiting.pop(0)
                outcome = self._execute(req)
                timing = schedule_fresh(outcome.profile, t)
                lease = packer.admit(req.job_id, req.nodes, timing)
                place(req, outcome, timing, lease.node_ids)
                heapq.heappush(events, (
                    timing.finish_s, next(seq), "finish",
                    (lease.lease_id, req.job_id),
                ))
                if self.config.pipeline and timing.window_s > 0:
                    heapq.heappush(events, (
                        timing.allgather_start_s, next(seq), "window",
                        (lease.lease_id, req.job_id),
                    ))

        if waiting:  # pragma: no cover - admission always drains
            raise ServeError(
                f"serving loop stalled with {len(waiting)} queued job(s)"
            )
        report = ServeReport(
            results=[results[r.job_id] for r in ordered],
            pool_nodes=self.config.nodes,
            pipelined=self.config.pipeline,
        )
        if monitor is not None:
            stats = report.stats
            for ev in monitor.finalize(stats.makespan_s, stats.utilization):
                self._record_slo_event(obs, ev)
            report.slo_events = list(monitor.events)
        if obs is not None:
            report.fleet = obs
            report.postmortems = list(self.postmortems)
            if self.tracer.enabled:
                obs.append_counters(self.tracer)
        if self.netflow is not None:
            report.netflow = self.netflow
            if self.tracer.enabled:
                # strictly after the observatory's counters: the trace
                # stays a byte-identical prefix of a netflow-off trace
                self.netflow.append_counters(self.tracer)
        return report

    # -- fleet ledger + SLO + flight recorder hooks ---------------------
    def _observe_placement(self, obs, res: JobResult) -> None:
        """Record schedule-derived instants (suspension window, wreck
        story is recorded at the finish event) into the fleet ledger."""
        t = res.timing
        if t.suspended_s > 0:
            pause = t.start_s + t.hidden_s
            obs.record("suspend", pause, job_id=res.request.job_id,
                       node_ids=res.node_ids,
                       remaining_s=res.profile.pre_s - t.hidden_s)
            obs.record("resume", pause + t.suspended_s,
                       job_id=res.request.job_id, node_ids=res.node_ids)

    def _observe_slo(self, monitor, obs, res: JobResult) -> None:
        """Feed one placement to the SLO monitor; record any warn/breach
        events and dump a post-mortem on a job-attributed hard breach."""
        t = res.timing
        for ev in monitor.observe(
            t.finish_s, res.request.job_id,
            wait_s=t.admit_s - res.request.arrival_s,
            latency_s=res.latency_s,
        ):
            self._record_slo_event(obs, ev)
            if ev.level == "breach":
                self._dump_postmortem(obs, res, "slo-breach")

    def _record_slo_event(self, obs, ev) -> None:
        """One SLO event into metrics + trace + fleet ledger."""
        METRICS.inc(f"serve.slo_{ev.level}s", objective=ev.objective)
        if self.tracer.enabled:
            self.tracer.instant(
                f"slo {ev.level}", SpanKind.SLO, ev.t,
                level=ev.level, objective=ev.objective, value=ev.value,
                threshold=ev.threshold, burn=ev.burn,
                **({"job_id": ev.job_id} if ev.job_id else {}),
            )
        if obs is not None:
            obs.record("slo", ev.t, job_id=ev.job_id, level=ev.level,
                       objective=ev.objective, burn=ev.burn)

    def _fleet_context(self) -> dict:
        """Cache/backend state snapshot embedded in post-mortems."""
        return {
            "backend": self.config.backend,
            "cluster": self.config.cluster,
            "pool_nodes": self.config.nodes,
            "pipelined": self.config.pipeline,
            "tuning_entries": (
                len(self.tuning) if self.tuning is not None else 0
            ),
            "jit_cache_entries": (
                len(self.jit_cache) if self.jit_cache is not None else 0
            ),
        }

    def _dump_postmortem(self, obs, res: JobResult, reason: str) -> None:
        doc = obs.postmortem(
            res.request.job_id, result=res, reason=reason,
            context=self._fleet_context(),
        )
        self.postmortems.append(doc)
        METRICS.inc("serve.postmortems", reason=reason)
        if self.config.postmortem_dir is not None:
            self.postmortem_paths.append(
                obs.dump_postmortem(doc, self.config.postmortem_dir)
            )

    # -- per-job observability ------------------------------------------
    def _account(self, res: JobResult) -> None:
        req = res.request
        METRICS.inc("serve.launches", workload=req.workload, job=req.job_id)
        if res.status != "ok":
            METRICS.inc("serve.failures", workload=req.workload,
                        job=req.job_id)
        if res.timing.overlapped:
            METRICS.inc("serve.overlapped")
        METRICS.observe("serve.latency_s", res.latency_s,
                        workload=req.workload)
        METRICS.observe("serve.wait_s",
                        res.timing.admit_s - req.arrival_s,
                        workload=req.workload)
        if self.netflow is not None:
            # adopt the job's flow records onto the service clock, with
            # the job_id stamped and job-local ranks mapped to the
            # leased pool node ids for display (pricing keeps the
            # original positions and topology)
            outcome = self._outcomes[req.job_id]
            if outcome.netflow:
                self.netflow.adopt(
                    outcome.netflow, shift=res.timing.start_s,
                    job_id=req.job_id, node_map=res.node_ids,
                )
        if not self.tracer.enabled:
            return
        t = res.timing
        rec = res.record
        job_span = self.tracer.add(
            f"job {req.job_id}", SpanKind.SERVE, t.admit_s, t.finish_s,
            job_id=req.job_id, workload=req.workload, nodes=req.nodes,
            node_ids=list(res.node_ids), overlapped=t.overlapped,
            status=res.status, latency_s=res.latency_s,
            # the exact decomposition `repro explain` aligns on:
            # latency = wait + pre + allgather + post + stall
            arrival_s=req.arrival_s,
            wait_s=t.admit_s - req.arrival_s,
            pre_s=res.profile.pre_s,
            allgather_s=res.profile.allgather_s,
            post_s=res.profile.post_s,
            recovery_s=(rec.phases.recovery if rec is not None else 0.0),
            stall_s=t.finish_s - t.start_s - res.profile.total_s,
            hidden_s=t.hidden_s,
            suspended_s=t.suspended_s,
        )
        # adopt the job's own spans: shift onto the service clock at the
        # job's start, remap job-local ranks to the leased physical node
        # ids, and label everything with the job_id.  (An overlapped
        # job's post-window suspension is not re-stretched — spans keep
        # the job-local shape, offset to its service start.)
        outcome = self._outcomes[req.job_id]
        base = len(self.tracer.spans)
        end = t.start_s + res.profile.total_s
        for s in outcome.spans:
            rank = (
                res.node_ids[s.rank]
                if s.rank is not None and s.rank < len(res.node_ids)
                else s.rank
            )
            self.tracer.spans.append(Span(
                base + s.id, s.name, s.kind,
                s.t0 + t.start_s,
                (s.t1 + t.start_s) if s.t1 is not None else end,
                rank,
                job_span.id if s.parent is None else base + s.parent,
                instant=s.instant,
                args={**s.args, "job_id": req.job_id},
            ))


def _ordered_requests(requests, pool_nodes: int) -> list[JobRequest]:
    """The submission set in serving order (arrival time, submission
    order breaking ties), validated: non-empty, unique job ids, every
    job no wider than the pool."""
    if isinstance(requests, SubmissionQueue):
        ordered = requests.requests()
    else:
        ordered = [
            r for _, _, r in sorted(
                (r.arrival_s, i, r) for i, r in enumerate(requests)
            )
        ]
    if not ordered:
        raise ServeError("nothing to serve: the submission set is empty")
    seen: set[str] = set()
    for r in ordered:
        if r.job_id in seen:
            raise ServeError(f"duplicate job_id {r.job_id!r}")
        seen.add(r.job_id)
        if r.nodes > pool_nodes:
            raise ServeError(
                f"job {r.job_id!r} requests {r.nodes} nodes; the "
                f"service pool has {pool_nodes}"
            )
    return ordered


def serve_requests(requests, config: ServeConfig | None = None, **kwargs):
    """One-shot convenience: serve ``requests`` under ``config``."""
    return CuCCServer(config, **kwargs).run(requests)


def serve_serially(requests, config: ServeConfig | None = None, **kwargs):
    """The serial reference: the same jobs, one at a time, in submission
    order (single-server discipline — job k starts at
    ``max(arrival_k, finish_{k-1})``).

    Shares the per-job configuration (cluster kind, topology, backend,
    tuning-cache contents) with the concurrent server so that the only
    difference *is* the schedule — which is exactly what the
    determinism contract says must not matter per job.
    """
    server = CuCCServer(config, **kwargs)
    # a copy: the caller's config must come back unchanged
    server.config = replace(server.config, pipeline=False)
    ordered = _ordered_requests(requests, server.config.nodes)
    results = []
    t = 0.0
    for req in ordered:
        outcome = server._execute(req)
        timing = schedule_fresh(outcome.profile, max(t, req.arrival_s))
        t = timing.finish_s
        res = outcome.placed(req, timing, tuple(range(req.nodes)))
        results.append(res)
        server._account(res)
    return ServeReport(
        results=results, pool_nodes=server.config.nodes, pipelined=False,
        netflow=server.netflow,
    )


def verify_against_serial(concurrent: ServeReport, serial: ServeReport):
    """Compare per-job identities between a concurrent and a serial run
    of the same submissions; returns a list of mismatch descriptions
    (empty = bit-identical per job)."""
    mismatches: list[str] = []
    serial_by_id = {r.request.job_id: r for r in serial.results}
    if {r.request.job_id for r in concurrent.results} != set(serial_by_id):
        return ["the two reports serve different job sets"]
    for r in concurrent.results:
        a, b = r.identity(), serial_by_id[r.request.job_id].identity()
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                mismatches.append(
                    f"job {r.request.job_id!r}: {key} diverged from the "
                    f"serial run ({a.get(key)!r} != {b.get(key)!r})"
                )
    return mismatches
