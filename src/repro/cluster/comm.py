"""MPI-like communicator over the simulated cluster.

The communicator is the *only* channel through which bytes move between
node memories.  Every operation does two things: it physically copies
data between the nodes' private NumPy buffers (functional effect), and it
advances the participating nodes' simulated clocks by the modeled cost
(timing effect).  Collective semantics follow MPI: all ranks participate,
and completion synchronizes clocks to the common finish time.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import collectives as coll
from repro.cluster.faults import CorruptionFault, FaultInjector, TransientFault
from repro.cluster.node import Node
from repro.cluster.topology import FlatTopology, Topology
from repro.errors import ClusterError, CollectiveTimeout, DataCorruptionError, NodeFailure
from repro.hw.specs import NetworkSpec
from repro.obs.metrics import METRICS
from repro.obs.tracer import NULL_TRACER, SpanKind

__all__ = ["Communicator"]


class Communicator:
    """Collective + point-to-point operations over a set of nodes.

    An optional :class:`~repro.cluster.faults.FaultInjector` can be
    attached (``injector`` attribute); when present, every collective
    consults it before moving bytes, so injected faults surface as the
    typed exceptions :class:`~repro.errors.NodeFailure`,
    :class:`~repro.errors.CollectiveTimeout` and
    :class:`~repro.errors.DataCorruptionError`.  Without an injector
    (the default) no hook runs and behaviour is exactly fault-free.

    The Allgather variants accept an ``algo`` parameter naming a zoo
    member (see :data:`repro.cluster.collectives.ALLGATHER_ALGOS`) or
    ``"auto"`` (default), which resolves through the tuning cache when
    one is attached and otherwise through the cost-model selector over
    the communicator's :class:`~repro.cluster.topology.Topology`.  Every
    algorithm moves bytes through the same schedule machinery and ends
    with bit-identical buffers; only the modeled duration differs.
    """

    def __init__(
        self,
        nodes: list[Node],
        network: NetworkSpec,
        injector: FaultInjector | None = None,
        topology: Topology | None = None,
        tuning=None,
    ):
        if not nodes:
            raise ClusterError("communicator needs at least one node")
        self.nodes = nodes
        self.network = network
        self.injector = injector
        #: network topology used for schedule pricing and auto-selection;
        #: defaults to the flat fabric the NetworkSpec describes
        self.topology = topology or FlatTopology(len(nodes), network=network)
        if self.topology.num_nodes < len(nodes):
            raise ClusterError(
                f"topology has {self.topology.num_nodes} positions for "
                f"{len(nodes)} nodes"
            )
        #: optional :class:`repro.tuning.TuningCache` consulted by "auto"
        self.tuning = tuning
        #: span tracer (the runtime attaches its own; disabled by default)
        self.tracer = NULL_TRACER
        #: metrics registry fed per collective (the autotuner swaps in a
        #: disabled one so sweep traffic does not pollute run statistics)
        self.metrics = METRICS
        #: optional :class:`repro.obs.netflow.NetFlowLedger` fed one raw
        #: record per schedule-driven collective (None-checked like the
        #: tracer: no ledger, no work)
        self.netflow = None
        #: algorithm chosen by the most recent Allgather call
        self.last_algorithm: str | None = None
        #: cumulative modeled seconds spent in communication (all ops)
        self.comm_seconds = 0.0
        #: cumulative payload bytes moved between nodes
        self.comm_bytes = 0

    def over(self, nodes: list[Node]) -> Communicator:
        """The same communicator over a different node set (shrink and
        grow recovery): injector, topology (physical positions — born
        ranks — outlive re-ranking), tuning cache, observers and the
        cumulative traffic accounting all carry over."""
        new = Communicator(
            nodes,
            self.network,
            injector=self.injector,
            topology=self.topology,
            tuning=self.tuning,
        )
        new.comm_seconds = self.comm_seconds
        new.comm_bytes = self.comm_bytes
        new.tracer = self.tracer
        new.metrics = self.metrics
        new.netflow = self.netflow
        return new

    @property
    def size(self) -> int:
        return len(self.nodes)

    def _positions(self) -> tuple[int, ...]:
        """Physical network positions of the current ranks (born ranks —
        stable across shrink-recovery re-ranking)."""
        return tuple(n.born_rank for n in self.nodes)

    def _resolve_algo(self, algo: str, total_bytes: float) -> str:
        """Map an ``algo`` argument to a concrete zoo member."""
        if isinstance(algo, coll.AllgatherAlgo):
            algo = algo.value
        if algo == coll.AllgatherAlgo.AUTO.value:
            if self.size <= 1:
                return coll.AllgatherAlgo.RING.value
            from repro.tuning.select import select_algorithm

            return select_algorithm(
                self.topology,
                total_bytes,
                positions=self._positions(),
                cache=self.tuning,
            )
        if algo not in coll.ALLGATHER_ALGOS:
            raise ClusterError(
                f"unknown allgather algorithm {algo!r}; choose from "
                f"{coll.ALLGATHER_ALGOS} or 'auto'"
            )
        return algo

    def _move_blocks(
        self,
        buffer: str,
        rounds,
        bounds: list[tuple[int, int]],
        corrupt_src: int | None,
    ) -> int:
        """Apply an Allgather schedule to every node's replica of
        ``buffer``; block ``b`` lives at element range ``bounds[b]``.

        Zero-length blocks are per-rank no-ops.  When ``corrupt_src`` is
        set, every copy of that rank's block *sent by the rank itself*
        carries the same corrupted bytes (one RNG draw); forwarding then
        propagates the corruption naturally while the source replica
        stays intact.  Returns the payload bytes moved.
        """
        total = 0
        corrupted = None
        link_bytes: dict[tuple[int, int], int] = {}
        for sends in rounds:
            for src_r, dst_r, blocks in sends:
                src_buf = self.nodes[src_r].buffer(buffer)
                dst_buf = self.nodes[dst_r].buffer(buffer)
                moved = 0
                for b in blocks:
                    lo, hi = bounds[b]
                    if lo == hi:
                        continue
                    chunk = src_buf[lo:hi]
                    if b == corrupt_src and src_r == corrupt_src:
                        if corrupted is None:
                            corrupted = self.injector.corrupt(chunk)
                        chunk = corrupted
                    dst_buf[lo:hi] = chunk
                    moved += chunk.nbytes
                total += moved
                if moved:
                    link = (
                        self.nodes[src_r].born_rank,
                        self.nodes[dst_r].born_rank,
                    )
                    link_bytes[link] = link_bytes.get(link, 0) + moved
        if self.metrics.enabled:
            for (src, dst), nbytes in link_bytes.items():
                self.metrics.inc("comm.link_bytes", nbytes, src=src, dst=dst)
        return total

    def _schedule(self, algo_name: str):
        """(rounds, positions) of ``algo_name`` over the current ranks."""
        positions = self._positions()
        rounds = coll.allgather_schedule(
            algo_name, self.size, coll.rank_groups(self.topology, positions)
        )
        return rounds, positions

    # -- clock helpers ---------------------------------------------------
    def _sync_start(self) -> float:
        """Collectives start when the last participant arrives."""
        return max(n.clock.now for n in self.nodes)

    def _pace(self) -> float:
        """Collective pacing factor: a degraded link slows everyone
        (1.0 without an injector — the fault-free fast path)."""
        if self.injector is None:
            return 1.0
        return max(n.network_multiplier for n in self.nodes)

    def _finish(self, start: float, duration: float) -> None:
        duration *= self._pace()
        end = start + duration
        for n in self.nodes:
            n.clock.wait_until(end)
        self.comm_seconds += duration

    # -- observability hooks ----------------------------------------------
    def _trace_collective(
        self,
        op: str,
        buffer: str,
        algo_name: str | None,
        start: float,
        duration: float,
        total_bytes: int,
        rounds=None,
        byte_counts=None,
        positions=None,
    ) -> None:
        """Record one collective span (and its per-round child spans) —
        called only when the tracer is enabled.  Round costs come from
        the same :func:`~repro.cluster.collectives.round_costs` sum that
        priced the collective, so rounds tile the span exactly."""
        pace = self._pace()
        span_args = {"op": op, "dur_s": duration * pace}
        if buffer:
            span_args["buffer"] = buffer
        if algo_name:
            span_args["algo"] = algo_name
        if total_bytes:
            span_args["bytes"] = int(total_bytes)
        if rounds:
            span_args["rounds"] = len(rounds)
        self.tracer.add(
            f"{op} {buffer}" if buffer else op,
            SpanKind.COLLECTIVE,
            start,
            start + duration * pace,
            **span_args,
        )
        if rounds:
            cur = start
            costs = coll.round_costs(
                self.topology, rounds, byte_counts, positions
            )
            for i, c in enumerate(costs):
                c *= pace
                self.tracer.add(
                    f"round {i}",
                    SpanKind.ROUND,
                    cur,
                    cur + c,
                    round=i,
                    sends=len(rounds[i]),
                    dur_s=c,
                )
                cur += c

    # -- fault hooks ------------------------------------------------------
    def _guard(self, op: str):
        """Pre-collective fault hook: detect dead participants, deliver a
        scheduled transient timeout, or hand back a corruption fault for
        the caller to apply.  No-op (returns ``None``) without an
        injector."""
        if self.injector is None:
            return None
        dead = tuple(n.born_rank for n in self.nodes if not n.alive)
        if dead:
            raise NodeFailure(
                f"{op}: participant rank(s) {list(dead)} are down", ranks=dead
            )
        fault = self.injector.begin_collective(op, self._sync_start())
        if isinstance(fault, TransientFault):
            # every participant waits out the timeout before aborting
            start = self._sync_start()
            self._finish(start, fault.timeout_s)
            raise CollectiveTimeout(
                f"{op} timed out after {fault.timeout_s * 1e3:.3f} ms "
                f"(injected transient fault)"
            )
        return fault

    # -- collectives -------------------------------------------------------
    def barrier(self) -> None:
        self._guard("barrier")
        start = self._sync_start()
        duration = coll.barrier_cost(self.network, self.size)
        if self.tracer.enabled:
            self._trace_collective("barrier", "", None, start, duration, 0)
        self._finish(start, duration)

    def _allgather(
        self,
        op: str,
        buffer: str,
        bounds: list[tuple[int, int]],
        byte_counts: list[int],
        algo: str,
        copy_s: float = 0.0,
    ) -> float:
        """The one Allgather engine behind the three public variants.

        Rank ``r``'s block of ``buffer`` lives at element range
        ``bounds[r]`` and weighs ``byte_counts[r]`` bytes; ``copy_s`` is
        the variant's local copy term, added to the priced schedule.
        Resolves the algorithm, consults the fault hook, moves the bytes,
        prices the schedule, feeds every observer and synchronizes the
        clocks.  Returns the modeled duration.
        """
        payload = sum(byte_counts)
        algo_name = self._resolve_algo(algo, payload)
        self.last_algorithm = algo_name
        moves = self.size > 1 and payload > 0
        fault = self._guard(op)
        corrupt_src = None
        if isinstance(fault, CorruptionFault) and moves:
            # an in-flight copy exists only for a present rank's
            # non-empty block
            corrupt_src = next(
                (
                    i for i, n in enumerate(self.nodes)
                    if n.born_rank == fault.rank and byte_counts[i]
                ),
                None,
            )
        start = self._sync_start()
        total_bytes = 0
        duration = 0.0
        if moves:
            rounds, positions = self._schedule(algo_name)
            total_bytes = self._move_blocks(buffer, rounds, bounds, corrupt_src)
            duration = coll.schedule_cost(
                self.topology, rounds, byte_counts, positions
            ) + copy_s
            if self.tracer.enabled:
                self._trace_collective(
                    op, buffer, algo_name, start, duration, total_bytes,
                    rounds, byte_counts, positions,
                )
            if self.netflow is not None:
                self.netflow.record_collective(
                    op, buffer, algo_name, self.topology, rounds,
                    byte_counts, positions, start, self._pace(),
                    total_bytes, duration,
                )
        self.comm_bytes += total_bytes
        if self.metrics.enabled:
            self.metrics.inc("comm.gathers", algo=algo_name)
        self._finish(start, duration)
        if corrupt_src is not None:
            # receiver-side checksum flags the payload after the transfer
            raise DataCorruptionError(
                f"{op} of {buffer!r}: checksum mismatch on rank "
                f"{fault.rank}'s contribution (injected corruption)"
            )
        return duration

    def allgather_in_place(
        self, buffer: str, base: int, per_rank: int, algo: str = "auto"
    ) -> float:
        """Balanced in-place Allgather (the paper's phase 2).

        Rank ``r`` owns elements ``[base + r*per_rank, base + (r+1)*per_rank)``
        of ``buffer`` (element offsets); after the call every node holds
        every rank's slice.  Returns the modeled duration.
        """
        if per_rank < 0:
            raise ClusterError(f"negative per-rank extent {per_rank}")
        if per_rank == 0:
            # empty payload: a modeled-cost no-op — no latency term, no
            # clock synchronization (MPI implementations short-circuit
            # zero-byte collectives the same way)
            return 0.0
        bounds: list[tuple[int, int]] = []
        for r, node in enumerate(self.nodes):
            lo = base + r * per_rank
            hi = lo + per_rank
            length = node.buffer(buffer).shape[0]
            if lo < 0 or hi > length:
                raise ClusterError(
                    f"allgather slice [{lo}:{hi}) out of range for "
                    f"{buffer!r} (len {length})"
                )
            bounds.append((lo, hi))
        block_bytes = self.nodes[0].buffer(buffer).itemsize * per_rank
        return self._allgather(
            "allgather", buffer, bounds, [block_bytes] * self.size, algo
        )

    def allgather_out_of_place(
        self,
        src_buffer: str,
        dst_buffer: str,
        per_rank: int,
        copy_GBs: float,
        algo: str = "auto",
    ) -> float:
        """Out-of-place Allgather: rank r's ``src_buffer[:per_rank]`` lands
        at ``dst_buffer[r*per_rank:]`` on every node (section 2.3's costlier
        variant — used by the Allgather micro-benchmark)."""
        if per_rank < 0:
            raise ClusterError(f"negative per-rank extent {per_rank}")
        bounds: list[tuple[int, int]] = []
        for r, node in enumerate(self.nodes):
            lo = r * per_rank
            hi = lo + per_rank
            bounds.append((lo, hi))
            if per_rank == 0:
                continue
            src = node.buffer(src_buffer)
            dst = node.buffer(dst_buffer)
            if per_rank > src.shape[0] or hi > dst.shape[0]:
                raise ClusterError(
                    f"allgather-oop slice [{lo}:{hi}) out of range for "
                    f"{dst_buffer!r} (src len {src.shape[0]}, dst len "
                    f"{dst.shape[0]})"
                )
            # local phase: every rank's own slice moves into place
            dst[lo:hi] = src[:per_rank]
        block_bytes = self.nodes[0].buffer(src_buffer).itemsize * per_rank
        # the input->output copy is what makes this variant costlier
        # than the in-place one (section 2.3)
        return self._allgather(
            "allgather-oop", dst_buffer, bounds, [block_bytes] * self.size,
            algo, copy_s=2.0 * block_bytes / (copy_GBs * 1e9),
        )

    def allgatherv_in_place(
        self, buffer: str, base: int, counts: list[int], algo: str = "auto"
    ) -> float:
        """Imbalanced (v-variant) in-place Allgather: rank r contributes
        ``counts[r]`` elements at its running offset.  Zero-length
        contributions are per-rank no-ops."""
        if len(counts) != self.size:
            raise ClusterError("counts must have one entry per rank")
        counts = [int(c) for c in counts]
        if any(c < 0 for c in counts):
            raise ClusterError(f"negative contribution in counts {counts}")
        offsets = np.concatenate([[0], np.cumsum(counts)])
        bounds: list[tuple[int, int]] = []
        for r, node in enumerate(self.nodes):
            lo = base + int(offsets[r])
            hi = lo + counts[r]
            length = node.buffer(buffer).shape[0]
            if counts[r] and (lo < 0 or hi > length):
                raise ClusterError(
                    f"allgatherv slice [{lo}:{hi}) out of range for "
                    f"{buffer!r} (len {length})"
                )
            bounds.append((lo, hi))
        itemsize = self.nodes[0].buffer(buffer).itemsize
        return self._allgather(
            "allgatherv", buffer, bounds, [c * itemsize for c in counts], algo
        )

    def allreduce_sum(self, buffer: str) -> float:
        """Element-wise sum of every node's replica of ``buffer``; all
        nodes receive the result (ring-Allreduce cost model).

        Floating-point summation order is fixed (ascending rank) so the
        result is deterministic and identical on every node.
        """
        self._guard("allreduce")
        start = self._sync_start()
        ref = self.nodes[0].buffer(buffer)
        acc = ref.astype(np.float64 if ref.dtype.kind == "f" else ref.dtype,
                         copy=True)
        for node in self.nodes[1:]:
            b = node.buffer(buffer)
            if b.shape != ref.shape or b.dtype != ref.dtype:
                raise ClusterError(
                    f"allreduce shape/dtype mismatch for {buffer!r} on rank "
                    f"{node.rank}"
                )
            acc += b
        result = acc.astype(ref.dtype, copy=False)
        for node in self.nodes:
            node.buffer(buffer)[:] = result
        duration = coll.allreduce_cost(self.network, self.size, ref.nbytes)
        moved = 2 * ref.nbytes * max(0, self.size - 1)
        self.comm_bytes += moved
        if self.tracer.enabled:
            self._trace_collective(
                "allreduce", buffer, None, start, duration, moved
            )
        self._finish(start, duration)
        return duration

    def bcast(self, buffer: str, root: int = 0) -> float:
        """Broadcast ``buffer`` from ``root`` to all nodes."""
        if not 0 <= root < self.size:
            raise ClusterError(f"root {root} out of range")
        self._guard("bcast")
        start = self._sync_start()
        src = self.nodes[root].buffer(buffer)
        for n in self.nodes:
            if n.rank != root:
                dst = n.buffer(buffer)
                if dst.shape != src.shape or dst.dtype != src.dtype:
                    raise ClusterError(
                        f"bcast shape/dtype mismatch for {buffer!r} on rank "
                        f"{n.rank}"
                    )
                dst[:] = src
                self.comm_bytes += src.nbytes
        duration = coll.bcast_cost(self.network, self.size, src.nbytes)
        if self.tracer.enabled:
            self._trace_collective(
                "bcast", buffer, None, start, duration,
                src.nbytes * max(0, self.size - 1),
            )
        self._finish(start, duration)
        return duration

    # -- point-to-point ---------------------------------------------------
    def send_slice(
        self,
        buffer: str,
        src_rank: int,
        dst_rank: int,
        lo: int,
        hi: int,
    ) -> float:
        """Copy ``buffer[lo:hi]`` from one node to another (blocking)."""
        if src_rank == dst_rank:
            return 0.0
        src = self.nodes[src_rank].buffer(buffer)
        chunk = src[lo:hi]
        self.nodes[dst_rank].buffer(buffer)[lo:hi] = chunk
        duration = coll.ptp_cost(self.network, chunk.nbytes)
        start = max(
            self.nodes[src_rank].clock.now, self.nodes[dst_rank].clock.now
        )
        end = start + duration
        self.nodes[src_rank].clock.wait_until(end)
        self.nodes[dst_rank].clock.wait_until(end)
        self.comm_bytes += chunk.nbytes
        self.comm_seconds += duration
        return duration

    def charge_rma(self, rank: int, nops: float, nbytes: float) -> float:
        """Charge a node for a batch of fine-grained remote accesses
        (the PGAS path); returns the modeled duration."""
        duration = coll.rma_cost(self.network, nops, nbytes)
        self.nodes[rank].clock.advance(duration)
        self.comm_seconds += duration
        self.comm_bytes += nbytes
        return duration
