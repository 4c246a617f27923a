"""Serving-fleet observability: the event-sourced occupancy ledger.

The :class:`Observatory` is fed lease/release/suspend/resume/fault
instants (simulated clocks only) by :class:`~repro.serve.server.
CuCCServer` and :class:`~repro.serve.packer.AdmissionPacker` hooks and
turns them into fleet timelines:

* node-utilization and queue-depth **time series** (step samples at
  every state change), exportable as Perfetto counter tracks through
  the existing Chrome-trace writer;
* a per-job **Gantt/text timeline** over the service makespan;
* **idle-gap attribution** — every free node-second is charged either
  to an empty queue (nothing to run) or to packing (work was waiting
  but the head did not fit the free fragment).

It also hosts the **failure flight recorder**: a bounded ring buffer of
recent events per job, dumped as a self-contained post-mortem JSON
document (format version :data:`POSTMORTEM_FORMAT_VERSION`) whenever a
job fails terminally or an SLO hard-breaches.  ``repro postmortem``
pretty-prints the dump with :func:`format_postmortem`;
:func:`validate_postmortem` is the structural gate CI uses.

Everything here is derived from simulated timestamps recorded by the
deterministic serving loop, so every rendering and every dumped byte is
deterministic per seed.  The module is imported lazily (``repro.obs``
exposes it via ``__getattr__``); a server built without
``observatory=True`` never touches it.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "FleetEvent",
    "Observatory",
    "POSTMORTEM_FORMAT_VERSION",
    "validate_postmortem",
    "format_postmortem",
]

#: version stamp of the post-mortem JSON dump (bump on breaking change;
#: ``validate_postmortem`` and ``repro postmortem`` check it)
POSTMORTEM_FORMAT_VERSION = 1

#: event kinds the ledger understands, in no particular order
EVENT_KINDS = (
    "arrival",   # job entered the submission queue
    "lease",     # fresh lease granted (node_ids leave the free pool)
    "attach",    # overlapped successor attached to an existing lease
    "suspend",   # successor's phase-1 remainder paused (owner callback)
    "resume",    # successor's phase-1 remainder resumed
    "finish",    # job left its subset
    "release",   # node_ids returned to the free pool
    "shrink",    # excess width shed at owner->successor handoff
    "wreck",     # terminal job failure (subset was busy with the wreck)
    "slo",       # SLO warn/breach instant
)

#: default flight-recorder ring size (events retained per job)
RING_SIZE = 64


@dataclass(frozen=True)
class FleetEvent:
    """One instant in the fleet ledger (simulated seconds)."""

    t: float
    seq: int  # recording order; breaks timestamp ties deterministically
    kind: str
    job_id: str | None = None
    node_ids: tuple[int, ...] = ()
    detail: dict = field(default_factory=dict)

    def describe(self) -> str:
        who = f" job {self.job_id}" if self.job_id else ""
        nodes = (
            " nodes " + ",".join(str(i) for i in self.node_ids)
            if self.node_ids else ""
        )
        extra = "".join(f" {k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.t * 1e6:10.3f} us] {self.kind}{who}{nodes}{extra}"


class Observatory:
    """Event-sourced fleet ledger + flight recorder for one serve run.

    Recording is append-only and O(1) per event; every analysis
    (series, attribution, Gantt) is computed on demand from the sorted
    ledger, so the serving loop pays only for the appends.
    """

    def __init__(self, pool_nodes: int = 0, ring: int = RING_SIZE):
        self.pool_nodes = pool_nodes
        self.ring = ring
        self.events: list[FleetEvent] = []
        self._rings: dict[str, deque] = {}
        self._seq = 0

    @classmethod
    def from_option(cls, observatory) -> "Observatory":
        """The ``observatory=`` shorthand: an observatory is adopted
        as-is, anything else builds a fresh one."""
        return observatory if isinstance(observatory, cls) else cls()

    def reset(self, pool_nodes: int) -> None:
        """Start a fresh run over a ``pool_nodes``-wide pool."""
        self.pool_nodes = pool_nodes
        self.events.clear()
        self._rings.clear()
        self._seq = 0

    # -- recording (the only thing the serving loop calls) --------------
    def record(
        self, kind: str, t: float, job_id: str | None = None,
        node_ids=(), **detail,
    ) -> FleetEvent:
        ev = FleetEvent(
            t=t, seq=self._seq, kind=kind, job_id=job_id,
            node_ids=tuple(node_ids), detail=detail,
        )
        self._seq += 1
        self.events.append(ev)
        if job_id is not None:
            ring = self._rings.get(job_id)
            if ring is None:
                ring = self._rings[job_id] = deque(maxlen=self.ring)
            ring.append(ev)
        return ev

    # -- time series -----------------------------------------------------
    def _sorted(self) -> list[FleetEvent]:
        # suspend/resume are recorded ahead of their instants (the
        # simulation knows the future deterministically), so analysis
        # orders by timestamp, recording order breaking ties
        return sorted(self.events, key=lambda e: (e.t, e.seq))

    @property
    def makespan_s(self) -> float:
        return max((e.t for e in self.events), default=0.0)

    def _series(self, deltas) -> list[tuple[float, int]]:
        """Step samples ``(t, value)`` at every change point; events at
        equal timestamps are coalesced into the final value at that t."""
        out: list[tuple[float, int]] = []
        value = 0
        for ev in self._sorted():
            d = deltas(ev)
            if d == 0:
                continue
            value += d
            if out and out[-1][0] == ev.t:
                out[-1] = (ev.t, value)
            else:
                out.append((ev.t, value))
        return [
            s for i, s in enumerate(out)
            if i == 0 or s[1] != out[i - 1][1]
        ]

    def busy_series(self) -> list[tuple[float, int]]:
        """Leased (busy) node count over time."""

        def deltas(ev: FleetEvent) -> int:
            if ev.kind == "lease":
                return len(ev.node_ids)
            if ev.kind in ("release", "shrink"):
                return -len(ev.node_ids)
            return 0

        return self._series(deltas)

    def queue_series(self) -> list[tuple[float, int]]:
        """Waiting-queue depth over time (arrival in, lease/attach out)."""

        def deltas(ev: FleetEvent) -> int:
            if ev.kind == "arrival":
                return 1
            if ev.kind in ("lease", "attach"):
                return -1
            return 0

        return self._series(deltas)

    # -- idle attribution ------------------------------------------------
    def idle_attribution(self) -> dict[str, float]:
        """Charge every free node-second to its cause.

        ``empty_queue`` — the pool had free nodes and nothing waited;
        ``packing`` — jobs were queued but the FCFS head did not fit the
        free fragment (fragmentation / head-of-line width).  Returned in
        node-seconds over ``[0, makespan]``; ``busy`` completes the
        ledger so the three sum to ``pool_nodes * makespan``.
        """
        busy = 0
        depth = 0
        prev_t = 0.0
        out = {"empty_queue": 0.0, "packing": 0.0, "busy": 0.0}
        for ev in self._sorted():
            dt = ev.t - prev_t
            if dt > 0:
                free = self.pool_nodes - busy
                out["busy"] += busy * dt
                if free > 0:
                    cause = "packing" if depth > 0 else "empty_queue"
                    out[cause] += free * dt
                prev_t = ev.t
            if ev.kind == "lease":
                busy += len(ev.node_ids)
                depth -= 1
            elif ev.kind in ("release", "shrink"):
                busy -= len(ev.node_ids)
            elif ev.kind == "arrival":
                depth += 1
            elif ev.kind == "attach":
                depth -= 1
        return out

    def node_intervals(self) -> dict[int, list[tuple[float, float, str]]]:
        """Per-node occupancy: ``{node_id: [(t0, t1, job_id), ...]}``.

        Intervals open at lease grant under the lease's owner and close
        when the ids return to the pool (release, or shrink at
        handoff).  Attached successors ride the owner's interval — the
        nodes are busy either way.
        """
        open_at: dict[int, tuple[float, str]] = {}
        out: dict[int, list[tuple[float, float, str]]] = {}
        for ev in self._sorted():
            if ev.kind == "lease":
                for n in ev.node_ids:
                    open_at[n] = (ev.t, ev.job_id or "?")
            elif ev.kind in ("release", "shrink"):
                for n in ev.node_ids:
                    if n in open_at:
                        t0, job = open_at.pop(n)
                        out.setdefault(n, []).append((t0, ev.t, job))
        for n, (t0, job) in sorted(open_at.items()):
            out.setdefault(n, []).append((t0, self.makespan_s, job))
        return out

    # -- rendering -------------------------------------------------------
    def gantt(self, results, width: int = 60) -> str:
        """Per-job text timeline over ``[0, makespan]``.

        Legend: ``.`` queued, ``#`` phase-1 compute, ``z`` suspended,
        ``=`` Allgather, ``+`` callback, ``~`` waiting on the subset's
        wire/CPUs, ``X`` terminal wreck.
        """
        makespan = max(
            [self.makespan_s] + [r.timing.finish_s for r in results]
        )
        if makespan <= 0 or not results:
            return "fleet gantt: nothing served"

        def col(t: float) -> int:
            return min(width - 1, int(t / makespan * width))

        lines = []
        for r in sorted(results, key=lambda r: (r.timing.admit_s,
                                                r.request.job_id)):
            t = r.timing
            row = [" "] * width
            segs: list[tuple[float, float, str]] = [
                (r.request.arrival_s, t.admit_s, "."),
            ]
            if r.status != "ok":
                segs.append((t.start_s, t.finish_s, "X"))
            else:
                pre1_end = t.start_s + (
                    t.hidden_s if t.suspended_s > 0 else r.profile.pre_s
                )
                segs.append((t.start_s, pre1_end, "#"))
                if t.suspended_s > 0:
                    susp_end = pre1_end + t.suspended_s
                    segs.append((pre1_end, susp_end, "z"))
                    segs.append((
                        susp_end,
                        susp_end + (r.profile.pre_s - t.hidden_s), "#",
                    ))
                segs.append((t.allgather_start_s, t.allgather_end_s, "="))
                segs.append((t.finish_s - r.profile.post_s, t.finish_s, "+"))
            for t0, t1, ch in segs:
                if t1 <= t0:
                    continue
                for c in range(col(t0), col(max(t0, t1 - 1e-300)) + 1):
                    row[c] = ch
            # any service-interval gap left blank is schedule stall
            for c in range(col(t.start_s), col(t.finish_s) + 1):
                if row[c] == " ":
                    row[c] = "~"
            nodes = ",".join(str(i) for i in r.node_ids)
            lines.append(
                f"{r.request.job_id:>8} |{''.join(row)}| "
                f"n[{nodes}] {r.status}"
            )
        scale = (f"0 us {'-' * max(0, width - 18)} "
                 f"{makespan * 1e6:.2f} us")
        legend = ("legend: . queued  # compute  z suspended  = allgather  "
                  "+ callback  ~ stall  X wreck")
        return "\n".join(lines + [f"{'':>8}  {scale}", f"{'':>8}  {legend}"])

    def format_fleet_report(self, results=()) -> str:
        """The fleet section of the serve report: occupancy, queue and
        idle attribution over the whole run, plus the Gantt."""
        makespan = self.makespan_s
        attribution = self.idle_attribution()
        denom = self.pool_nodes * makespan
        busy = self.busy_series()
        queue = self.queue_series()
        peak_busy = max((v for _, v in busy), default=0)
        peak_queue = max((v for _, v in queue), default=0)
        lines = [
            f"fleet: {self.pool_nodes} nodes over "
            f"{makespan * 1e6:.2f} us ({len(self.events)} ledger events)",
            f"  peak occupancy {peak_busy}/{self.pool_nodes} node(s), "
            f"peak queue depth {peak_queue}",
        ]
        if denom > 0:
            lines.append(
                "  node-seconds: busy {:.1f}%  idle/empty-queue {:.1f}%  "
                "idle/packing {:.1f}%".format(
                    100 * attribution["busy"] / denom,
                    100 * attribution["empty_queue"] / denom,
                    100 * attribution["packing"] / denom,
                )
            )
        if results:
            lines.append("")
            lines.append(self.gantt(results))
        return "\n".join(lines)

    def append_counters(self, tracer) -> None:
        """Export the fleet time series as Perfetto counter tracks
        (``fleet.busy_nodes`` / ``fleet.queue_depth``) on the cluster
        pid, via the existing Chrome-trace writer."""
        if not tracer.enabled:
            return
        from repro.obs.tracer import SpanKind

        for name, series in (
            ("fleet.busy_nodes", self.busy_series()),
            ("fleet.queue_depth", self.queue_series()),
        ):
            for t, v in series:
                tracer.add(name, SpanKind.COUNTER, t, t, value=v)

    # -- flight recorder -------------------------------------------------
    def events_for(self, job_id: str) -> list[FleetEvent]:
        """The job's ring-buffer contents (the last ``ring`` events)."""
        return list(self._rings.get(job_id, ()))

    def postmortem(
        self, job_id: str, result=None, reason: str = "terminal-failure",
        context: dict | None = None,
    ) -> dict:
        """Self-contained post-mortem document for one job.

        Captures the job timeline, its lease history, the fault story,
        the last-N ledger events and a snapshot of fleet/cache/backend
        state — everything needed to read the failure without the run.
        """
        ring = self.events_for(job_id)
        doc: dict = {
            "format_version": POSTMORTEM_FORMAT_VERSION,
            "reason": reason,
            "job_id": job_id,
            "events": [
                {
                    "t_s": ev.t, "kind": ev.kind,
                    "node_ids": list(ev.node_ids),
                    **{k: v for k, v in sorted(ev.detail.items())},
                }
                for ev in ring
            ],
            "lease_history": [
                {"t_s": ev.t, "kind": ev.kind,
                 "node_ids": list(ev.node_ids)}
                for ev in ring
                if ev.kind in ("lease", "attach", "suspend", "resume",
                               "finish", "release", "shrink")
            ],
            "fleet": {
                "pool_nodes": self.pool_nodes,
                "ledger_events": len(self.events),
                "makespan_so_far_s": self.makespan_s,
            },
            "context": dict(context or {}),
        }
        if result is not None:
            req = result.request
            t = result.timing
            doc["request"] = {
                "job_id": req.job_id, "workload": req.workload,
                "nodes": req.nodes, "arrival_s": req.arrival_s,
                "size": req.size, "seed": req.seed,
                "faults": req.faults, "fault_seed": req.fault_seed,
            }
            doc["status"] = result.status
            doc["error"] = result.error
            doc["timeline"] = {
                "admit_s": t.admit_s, "start_s": t.start_s,
                "allgather_start_s": t.allgather_start_s,
                "allgather_end_s": t.allgather_end_s,
                "finish_s": t.finish_s, "overlapped": t.overlapped,
                "hidden_s": t.hidden_s, "suspended_s": t.suspended_s,
                "wait_s": t.admit_s - req.arrival_s,
                "latency_s": result.latency_s,
            }
            doc["profile"] = {
                "pre_s": result.profile.pre_s,
                "allgather_s": result.profile.allgather_s,
                "post_s": result.profile.post_s,
            }
            doc["node_ids"] = list(result.node_ids)
            story: dict = {"faults_spec": req.faults}
            rec = result.record
            if rec is not None:
                story.update(
                    fault_events=len(rec.fault_events),
                    retries=rec.retries,
                    recoveries=rec.recoveries,
                )
            doc["fault_story"] = story
        return doc

    def dump_postmortem(self, doc: dict, directory) -> str:
        """Write ``doc`` atomically as ``postmortem-<job>.json`` under
        ``directory`` (created if missing); returns the path."""
        from pathlib import Path

        from repro.ioutil import atomic_write_text

        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        path = d / f"postmortem-{doc['job_id']}.json"
        atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True)
                          + "\n")
        return str(path)


# ---------------------------------------------------------------------------
# post-mortem schema + pretty printer (standalone consumers of the dump)
# ---------------------------------------------------------------------------
def validate_postmortem(obj) -> list[str]:
    """Structural check of one post-mortem document; empty list = valid."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"post-mortem must be an object, got {type(obj).__name__}"]
    if obj.get("format_version") != POSTMORTEM_FORMAT_VERSION:
        problems.append(
            f"format_version must be {POSTMORTEM_FORMAT_VERSION}, "
            f"got {obj.get('format_version')!r}"
        )
    if not isinstance(obj.get("job_id"), str) or not obj.get("job_id"):
        problems.append("missing non-empty 'job_id'")
    if not isinstance(obj.get("reason"), str):
        problems.append("missing 'reason'")
    events = obj.get("events")
    if not isinstance(events, list):
        problems.append("'events' must be an array")
    else:
        for i, ev in enumerate(events):
            if not isinstance(ev, dict):
                problems.append(f"events[{i}]: not an object")
                continue
            if not isinstance(ev.get("t_s"), (int, float)):
                problems.append(f"events[{i}]: 't_s' must be a number")
            if ev.get("kind") not in EVENT_KINDS:
                problems.append(
                    f"events[{i}]: unknown kind {ev.get('kind')!r}"
                )
    for key in ("lease_history", ):
        if not isinstance(obj.get(key), list):
            problems.append(f"'{key}' must be an array")
    for key in ("fleet", "context"):
        if not isinstance(obj.get(key), dict):
            problems.append(f"'{key}' must be an object")
    if "timeline" in obj:
        tl = obj["timeline"]
        if not isinstance(tl, dict):
            problems.append("'timeline' must be an object")
        else:
            for k in ("admit_s", "start_s", "finish_s", "latency_s"):
                if not isinstance(tl.get(k), (int, float)):
                    problems.append(f"timeline.{k} must be a number")
    if "status" in obj and obj["status"] not in ("ok", "failed"):
        problems.append(f"unknown status {obj['status']!r}")
    return problems


def format_postmortem(doc: dict) -> str:
    """Human-readable rendering of a post-mortem dump (the CLI's
    ``repro postmortem`` output)."""
    lines = [
        f"post-mortem (format v{doc.get('format_version')}): "
        f"job {doc.get('job_id')} — {doc.get('reason')}",
    ]
    if "status" in doc:
        lines.append(f"status: {doc['status']}"
                     + (f" — {doc['error']}" if doc.get("error") else ""))
    req = doc.get("request")
    if req:
        lines.append(
            f"request: {req.get('workload')} on {req.get('nodes')} node(s), "
            f"size {req.get('size')}, seed {req.get('seed')}, "
            f"faults {req.get('faults') or 'none'}"
        )
    tl = doc.get("timeline")
    if tl:
        lines.append(
            "timeline: arrival->admit wait {:.3f} us, service "
            "[{:.3f}, {:.3f}] us, latency {:.3f} us{}".format(
                tl.get("wait_s", 0.0) * 1e6,
                tl.get("start_s", 0.0) * 1e6,
                tl.get("finish_s", 0.0) * 1e6,
                tl.get("latency_s", 0.0) * 1e6,
                " (overlapped)" if tl.get("overlapped") else "",
            )
        )
    prof = doc.get("profile")
    if prof:
        lines.append(
            "profile: pre {:.3f} us, allgather {:.3f} us, post "
            "{:.3f} us".format(
                prof.get("pre_s", 0.0) * 1e6,
                prof.get("allgather_s", 0.0) * 1e6,
                prof.get("post_s", 0.0) * 1e6,
            )
        )
    story = doc.get("fault_story")
    if story:
        parts = [f"{k.replace('_', ' ')}={v}"
                 for k, v in sorted(story.items()) if v is not None]
        lines.append("fault story: " + (", ".join(parts) or "none"))
    fleet = doc.get("fleet", {})
    lines.append(
        f"fleet at dump: {fleet.get('pool_nodes')} node pool, "
        f"{fleet.get('ledger_events')} ledger event(s), makespan so far "
        f"{fleet.get('makespan_so_far_s', 0.0) * 1e6:.3f} us"
    )
    ctx = doc.get("context", {})
    if ctx:
        lines.append("context: " + ", ".join(
            f"{k}={v}" for k, v in sorted(ctx.items())
        ))
    events = doc.get("events", [])
    lines.append(f"last {len(events)} event(s):")
    for ev in events:
        extra = "".join(
            f" {k}={v}" for k, v in sorted(ev.items())
            if k not in ("t_s", "kind", "node_ids")
        )
        nodes = (
            " nodes " + ",".join(str(i) for i in ev["node_ids"])
            if ev.get("node_ids") else ""
        )
        lines.append(
            f"  [{ev.get('t_s', 0.0) * 1e6:10.3f} us] "
            f"{ev.get('kind')}{nodes}{extra}"
        )
    return "\n".join(lines)
