"""Per-link network flow ledger: who moved bytes over which wire, when.

The tracer's ``collective``/``round`` spans say *when* a collective ran
and how long each schedule round took; the metrics registry says how
many bytes each (src, dst) pair exchanged in total.  What neither can
answer is the link-level story the paper's network analysis needs:
which physical links carried the bytes of round 3, how much of a
collective's duration was alpha latency vs. serialization vs. fat-tree
uplink queueing, and which leaf switch caused the queueing.

:class:`NetFlowLedger` closes that gap.  The communicator calls
:meth:`NetFlowLedger.record_collective` (through a None-checked
``comm.netflow`` attribute — the zero-cost-when-off pattern every
observability hook in this repository follows) once per schedule-driven
collective, passing exactly the inputs the pricing already used: the
send-schedule, per-block byte counts, physical positions and topology.
Recording is two calls and one tuple append; *everything* else — flow
expansion, link attribution, cost decomposition, utilization series —
is computed lazily on demand, so an enabled ledger stays inside the
<2% call budget ``bench_obs_overhead`` gates.

Analysis re-derives the per-message pricing with the very same float
expressions :meth:`~repro.cluster.topology.Topology.round_cost` used
(including the fat-tree crossing count and ceil-share), so the derived
quantities are *exact*, not approximations:

* the left-to-right sum of re-priced round costs reproduces each
  collective's modeled duration bit-for-bit;
* the cost decomposition ``alpha + serialization + contention
  (+ local copies)`` reconstructs each collective span exactly
  (serialization is defined as the residual that completes the
  identity; contention is exactly ``0.0`` whenever no round shared an
  uplink);
* per-pair byte sums equal the communicator's ``comm.link_bytes``
  metrics exactly (the conservation property test).

Contention attribution follows the topology model: a spine-crossing
message is attributed to the *source* leaf switch's uplink (label
``uplink:s<switch>``), because that is the port whose sharing divided
the message's bandwidth.  Intra-switch and flat/ring/torus paths get
per-pair labels.

The ledger also exports two Perfetto counter tracks —
``net.link_busy`` (links with at least one in-flight message) and
``net.contention`` (in-flight messages currently sharing an uplink) —
via :meth:`append_counters`, which only ever *appends* counter events
to an existing trace, preserving the byte-identical-prefix guarantee
of plain traces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.cluster.collectives import priced_round
from repro.cluster.topology import FatTreeTopology, FlatTopology

__all__ = [
    "NetFlowLedger",
    "Flow",
    "CollectiveFlow",
    "NETFLOW_FORMAT_VERSION",
]

#: schema version stamped into every dumped ledger document
NETFLOW_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Flow:
    """One message on one physical link in one schedule round."""

    src: int  #: source node id (pool id after serving adoption)
    dst: int  #: destination node id
    link: str  #: physical-link label ("uplink:s0", "intra:2->3", ...)
    kind: str  #: link class: "uplink" | "intra" | "path" | "flat"
    nbytes: int  #: payload bytes carried (0 for an empty v-block)
    t0: float  #: message start (simulated seconds, service clock)
    t1: float  #: message end
    share: int  #: uplink bandwidth divisor (1 = uncontended)
    queue_s: float  #: contention delay this message experienced
    collective: int  #: index into the ledger's collectives
    round: int  #: schedule round within the collective
    job_id: str | None  #: owning job after serving adoption


@dataclass(frozen=True)
class CollectiveFlow:
    """One recorded collective with its exact cost decomposition.

    ``alpha_s + serial_s + contention_s + local_s == span_s`` holds
    bit-exactly: alpha and contention are per-round sums over the
    critical (round-defining) message, ``local_s`` is the non-network
    remainder (the out-of-place variant's input copy; exactly ``0.0``
    otherwise) and ``serial_s`` is defined as the residual that
    completes the identity.
    """

    index: int
    op: str
    buffer: str
    algo: str | None
    job_id: str | None
    t0: float  #: collective start on the (service) clock
    span_s: float  #: traced span duration (duration * pace), bit-exact
    nbytes: int  #: payload bytes the collective moved
    rounds: int
    alpha_s: float
    serial_s: float
    contention_s: float
    local_s: float

    @property
    def reconstructed_s(self) -> float:
        """The decomposition re-summed in canonical order."""
        return ((self.alpha_s + self.serial_s) + self.contention_s) \
            + self.local_s


def _message_costs(topo, priced):
    """Per-message ``(alpha_s, beta_unshared, share, cost_s)`` of one
    round, with the identical float expressions (and crossing-count /
    ceil-share semantics) ``Topology.round_cost`` uses."""
    fat = isinstance(topo, FatTreeTopology)
    crossing: dict[int, int] = {}
    if fat:
        for src, dst, _ in priced:
            s = topo.switch_of(src)
            if s != topo.switch_of(dst):
                crossing[s] = crossing.get(s, 0) + 1
    out = []
    for src, dst, nbytes in priced:
        alpha, beta = topo.link(src, dst)
        base = beta
        share = 1
        if fat:
            s = topo.switch_of(src)
            if s != topo.switch_of(dst):
                share = -(-crossing[s] // topo.uplinks)  # ceil
                beta = beta / share
        out.append((alpha, base, share, alpha + nbytes / beta))
    return out


def _fit_serial(total: float, alpha: float, contention: float,
                local: float) -> float:
    """Serialization seconds: the residual completing the decomposition
    identity, nudged (at most a few ulps) so the canonical re-sum
    ``((alpha + serial) + contention) + local`` equals ``total``
    bit-exactly."""
    r = total - alpha - contention - local
    for _ in range(8):
        err = ((alpha + r) + contention) + local - total
        if err == 0.0:
            return r
        r = math.nextafter(r, -math.inf if err > 0.0 else math.inf)
    return total - alpha - contention - local


def _union_seconds(intervals) -> float:
    """Total covered length of a set of ``(t0, t1)`` intervals."""
    busy = 0.0
    end = -math.inf
    start = None
    for t0, t1 in sorted(intervals):
        if start is None or t0 > end:
            if start is not None:
                busy += end - start
            start, end = t0, t1
        else:
            end = max(end, t1)
    if start is not None:
        busy += end - start
    return busy


def _step_series(spans) -> list[tuple[float, int]]:
    """Concurrency step series of ``(t, key)`` interval/key pairs: at
    each boundary, how many distinct keys have an active interval.
    Timestamps are strictly increasing (same-instant changes coalesce,
    with ends applied before starts)."""
    events = []
    for t0, t1, key in spans:
        if t1 > t0:
            events.append((t0, 1, key))
            events.append((t1, -1, key))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    series: list[tuple[float, int]] = []
    counts: dict[object, int] = {}
    active = 0
    i = 0
    while i < len(events):
        t = events[i][0]
        while i < len(events) and events[i][0] == t:
            _, d, key = events[i]
            c = counts.get(key, 0) + d
            counts[key] = c
            if d > 0 and c == 1:
                active += 1
            elif d < 0 and c == 0:
                active -= 1
            i += 1
        series.append((t, active))
    return series


class NetFlowLedger:
    """Append-only per-collective flow ledger with lazy analysis.

    The hot path is :meth:`record_collective`; every derived view
    (flows, links, decompositions, series, conservation sums) is
    computed on first use and cached until the next append.
    """

    def __init__(self) -> None:
        #: raw per-collective tuples, in record order
        self._raw: list[tuple] = []
        self._cache = None

    @classmethod
    def from_option(cls, netflow) -> "NetFlowLedger | None":
        """The ``netflow=`` shorthand: ``None``/``False`` is off, a
        ledger is adopted as-is, anything else builds a fresh one.  The
        off test is by identity, not truthiness: a fresh (empty) ledger
        is falsy but must still be attached."""
        if netflow is None or netflow is False:
            return None
        return netflow if isinstance(netflow, cls) else cls()

    def __len__(self) -> int:
        return len(self._raw)

    def clear(self) -> None:
        """Drop every record (a server reuses its ledger across runs)."""
        self._raw.clear()
        self._cache = None

    # -- recording (the hot path) ----------------------------------------
    def record_collective(self, op, buffer, algo, topology, rounds,
                          byte_counts, positions, start, pace,
                          total_bytes, duration) -> None:
        """Append one schedule-driven collective.  O(1): the schedule
        and byte counts are kept by reference, pricing happens lazily."""
        self._cache = None
        self._raw.append((op, buffer, algo, topology, rounds, byte_counts,
                          positions, start, pace, total_bytes, duration,
                          None, None))

    def adopt(self, records, shift: float = 0.0, job_id=None,
              node_map=None) -> None:
        """Merge raw records from another ledger (a job's) onto this
        one: shift starts onto the service clock, stamp the ``job_id``
        and remap job-local positions to the leased pool node ids for
        display (pricing keeps the original positions/topology)."""
        self._cache = None
        if isinstance(records, NetFlowLedger):
            records = records._raw
        nm = tuple(node_map) if node_map is not None else None
        for r in records:
            self._raw.append(r[:7] + (r[7] + shift,) + r[8:11]
                             + (job_id if job_id is not None else r[11],
                                nm if nm is not None else r[12]))

    # -- lazy analysis ---------------------------------------------------
    def _analyze(self):
        if self._cache is not None:
            return self._cache
        colls: list[CollectiveFlow] = []
        flows: list[Flow] = []
        bisect: dict[str, dict] = {}
        for ci, rec in enumerate(self._raw):
            (op, buffer, algo, topo, rounds, byte_counts, positions,
             start, pace, total_bytes, duration, job_id, node_map) = rec
            half = topo.num_nodes // 2
            b = bisect.setdefault(topo.signature, _bisection_info(topo))
            cur = start
            alpha_sum = 0.0
            cont_sum = 0.0
            rounds_total = 0.0
            for ri, sends in enumerate(rounds):
                if not sends:
                    continue  # round_costs prices an empty round at 0.0
                priced = priced_round(sends, byte_counts, positions)
                costs = _message_costs(topo, priced)
                full = topo.round_cost(priced)
                rounds_total += full
                # the round-defining (critical) message, replicating the
                # max chain in round_cost (earliest message wins ties)
                worst = 0.0
                crit = None
                for j, (_, _, _, c) in enumerate(costs):
                    if c > worst:
                        worst, crit = c, j
                if crit is not None:
                    ca, cb, _, _ = costs[crit]
                    nocont = ca + priced[crit][2] / cb
                    alpha_sum += ca
                    # exactly 0.0 when the critical message was unshared
                    cont_sum += full - nocont
                d_paced = full * pace
                for j, (src_r, dst_r, blocks) in enumerate(sends):
                    a, base, share, c = costs[j]
                    sp, dp = positions[src_r], positions[dst_r]
                    nb = 0
                    for blk in blocks:
                        nb += byte_counts[blk]
                    nb = int(nb)
                    if nb and (sp < half) != (dp < half):
                        b["bytes_crossing"] += nb
                    kind, link = _classify(topo, sp, dp, job_id)
                    if node_map is not None:
                        if sp < len(node_map):
                            sp = node_map[sp]
                        if dp < len(node_map):
                            dp = node_map[dp]
                    if kind != "uplink":
                        link = f"{kind}:{sp}->{dp}"
                    flows.append(Flow(
                        src=sp, dst=dp, link=link, kind=kind, nbytes=nb,
                        t0=cur, t1=cur + c * pace, share=share,
                        queue_s=c - (a + priced[j][2] / base),
                        collective=ci, round=ri, job_id=job_id,
                    ))
                cur += d_paced
            span_s = duration * pace
            alpha_s = alpha_sum * pace
            contention_s = cont_sum * pace
            local_s = (duration - rounds_total) * pace
            colls.append(CollectiveFlow(
                index=ci, op=op, buffer=buffer, algo=algo, job_id=job_id,
                t0=start, span_s=span_s, nbytes=int(total_bytes),
                rounds=len(rounds), alpha_s=alpha_s,
                serial_s=_fit_serial(span_s, alpha_s, contention_s,
                                     local_s),
                contention_s=contention_s, local_s=local_s,
            ))
        self._cache = (colls, flows, bisect)
        return self._cache

    def collectives(self) -> list[CollectiveFlow]:
        return self._analyze()[0]

    def flows(self) -> list[Flow]:
        return self._analyze()[1]

    # -- derived views ---------------------------------------------------
    def pair_bytes(self) -> dict[tuple[int, int], int]:
        """Bytes per (src, dst) node pair — comparable 1:1 with the
        communicator's ``comm.link_bytes`` metric series (zero-byte
        messages are skipped on both sides)."""
        out: dict[tuple[int, int], int] = {}
        for f in self.flows():
            if f.nbytes:
                key = (f.src, f.dst)
                out[key] = out.get(key, 0) + f.nbytes
        return out

    def links(self) -> dict[str, dict]:
        """Per-physical-link aggregation: bytes, message count, busy
        seconds (union of in-flight intervals) and queueing seconds."""
        agg: dict[str, dict] = {}
        for f in self.flows():
            e = agg.get(f.link)
            if e is None:
                e = agg[f.link] = {
                    "kind": f.kind, "bytes": 0, "msgs": 0,
                    "queue_s": 0.0, "intervals": [],
                }
            e["bytes"] += f.nbytes
            e["msgs"] += 1
            e["queue_s"] += f.queue_s
            e["intervals"].append((f.t0, f.t1))
        for e in agg.values():
            e["busy_s"] = _union_seconds(e.pop("intervals"))
        return agg

    def traffic_matrix(self, op: str | None = None) -> dict:
        """Bytes per (src, dst) pair, optionally for one collective op."""
        out: dict[tuple[int, int], int] = {}
        if op is None:
            return self.pair_bytes()
        index = {c.index: c.op for c in self.collectives()}
        for f in self.flows():
            if f.nbytes and index[f.collective] == op:
                key = (f.src, f.dst)
                out[key] = out.get(key, 0) + f.nbytes
        return out

    def link_busy_series(self) -> list[tuple[float, int]]:
        """Step series: number of links with an in-flight message."""
        return _step_series(
            (f.t0, f.t1, f.link) for f in self.flows()
        )

    def contention_series(self) -> list[tuple[float, int]]:
        """Step series: in-flight messages sharing an uplink."""
        return _step_series(
            (f.t0, f.t1, i)
            for i, f in enumerate(self.flows()) if f.share > 1
        )

    def append_counters(self, tracer) -> None:
        """Export the flow series as Perfetto counter tracks
        (``net.link_busy`` / ``net.contention``).  Counter events are
        strictly appended after whatever the tracer already holds, so
        enabling netflow never perturbs the plain-trace prefix."""
        if not tracer.enabled:
            return
        from repro.obs.tracer import SpanKind

        for name, series in (
            ("net.link_busy", self.link_busy_series()),
            ("net.contention", self.contention_series()),
        ):
            for t, v in series:
                tracer.add(name, SpanKind.COUNTER, t, t, value=v)

    # -- export ----------------------------------------------------------
    def to_doc(self) -> dict:
        """The ledger as a JSON-ready document (``repro netview``'s
        input).  Keys are deterministic; every quantity is simulated."""
        colls, flows, bisect = self._analyze()
        links = self.links()
        matrix = {
            f"{s}->{d}": nb for (s, d), nb in self.pair_bytes().items()
        }
        ops: dict[str, dict[str, int]] = {}
        jobs: dict[str, dict] = {}
        index = {c.index: c for c in colls}
        for f in flows:
            c = index[f.collective]
            if f.nbytes:
                m = ops.setdefault(c.op, {})
                key = f"{f.src}->{f.dst}"
                m[key] = m.get(key, 0) + f.nbytes
        for c in colls:
            if c.job_id is None:
                continue
            j = jobs.setdefault(c.job_id, {
                "bytes": 0, "collectives": 0, "alpha_s": 0.0,
                "serial_s": 0.0, "contention_s": 0.0, "span_s": 0.0,
            })
            j["bytes"] += c.nbytes
            j["collectives"] += 1
            j["alpha_s"] += c.alpha_s
            j["serial_s"] += c.serial_s
            j["contention_s"] += c.contention_s
            j["span_s"] += c.span_s
        totals = {
            "collectives": len(colls),
            "flows": len(flows),
            "bytes": sum(c.nbytes for c in colls),
            "alpha_s": sum(c.alpha_s for c in colls),
            "serial_s": sum(c.serial_s for c in colls),
            "contention_s": sum(c.contention_s for c in colls),
            "local_s": sum(c.local_s for c in colls),
            "span_s": sum(c.span_s for c in colls),
        }
        return {
            "netflow_format_version": NETFLOW_FORMAT_VERSION,
            "kind": "run",
            "collectives": [
                {
                    "op": c.op, "buffer": c.buffer, "algo": c.algo,
                    "job_id": c.job_id, "t0": c.t0, "span_s": c.span_s,
                    "bytes": c.nbytes, "rounds": c.rounds,
                    "alpha_s": c.alpha_s, "serial_s": c.serial_s,
                    "contention_s": c.contention_s, "local_s": c.local_s,
                }
                for c in colls
            ],
            "links": {
                label: {k: e[k] for k in
                        ("kind", "bytes", "msgs", "busy_s", "queue_s")}
                for label, e in links.items()
            },
            "matrix": matrix,
            "ops": ops,
            "jobs": jobs,
            "bisection": bisect,
            "series": {
                "link_busy": [[t, v] for t, v in self.link_busy_series()],
                "contention": [[t, v] for t, v in self.contention_series()],
            },
            "totals": totals,
        }

    def dump(self, path):
        """Write the ledger document as deterministic JSON; returns the
        path written (a :class:`~pathlib.Path`)."""
        from repro.ioutil import atomic_write_text

        text = json.dumps(self.to_doc(), indent=1, sort_keys=True) + "\n"
        return atomic_write_text(path, text)


def _classify(topo, src: int, dst: int, job_id) -> tuple[str, str]:
    """Link class + label of a priced path.  Spine-crossing fat-tree
    messages are attributed to the *source* leaf switch's uplink — the
    port whose sharing divided their bandwidth (labels are job-scoped
    under serving, where switch ids are job-local)."""
    if isinstance(topo, FatTreeTopology):
        s = topo.switch_of(src)
        if s != topo.switch_of(dst):
            prefix = f"uplink:{job_id}:" if job_id is not None else "uplink:"
            return "uplink", f"{prefix}s{s}"
        return "intra", ""
    if isinstance(topo, FlatTopology):
        return "flat", ""
    return "path", ""


def _bisection_info(topo) -> dict:
    """Bisection bandwidth + oversubscription accounting per topology.

    Oversubscription is injection-based: the aggregate bandwidth one
    half could inject divided by what the bisection cut can carry
    (1.0 on a non-blocking fabric).  Crossing bytes accumulate as
    flows are analyzed."""
    n = topo.num_nodes
    half = max(1, n // 2)
    if isinstance(topo, FatTreeTopology):
        switches = -(-n // topo.nodes_per_switch)
        bw = max(1, switches // 2) * topo.uplinks \
            * topo.inter_beta_GBs * 1e9
        inject = half * topo.intra_beta_GBs * 1e9
    elif isinstance(topo, FlatTopology):
        bw = half * topo.network.beta_bytes_per_s
        inject = bw
    else:  # ring / torus: the cut severs 2 (ring) or 2*min(dims) links
        links = 2
        dims = getattr(topo, "dims", None)
        if dims is not None:
            links = 2 * min(dims)
        bw = links * topo.beta_GBs * 1e9
        inject = half * topo.beta_GBs * 1e9
    return {
        "bisection_bytes_per_s": bw,
        "oversubscription": inject / bw if bw else 0.0,
        "bytes_crossing": 0,
    }
