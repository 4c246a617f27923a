"""Checkpoint manager: captures runtime state and schedules writes.

The :class:`CheckpointManager` is what ``CuCCRuntime(checkpoint=...)``
installs as ``runtime.ops``.  The runtime calls exactly two hooks —
:meth:`on_stage` at the mid-launch stage points ("allgather" = partial
phase done, "callback" = Allgather done) and :meth:`on_launch_end` after
every completed launch — and each hook decides, per the
:class:`~repro.ops.policy.CheckpointPolicy`, whether to serialize the
full simulator state to disk.

What a checkpoint captures (see :mod:`repro.ops.checkpoint` for the
container format):

* the cluster: hardware/network specs, topology, born width, per-node
  identity (rank, born rank), simulated clocks, straggler multipliers,
  cumulative communication accounting and the tuning cache;
* the runtime configuration (:data:`repro.runtime.cucc.STATE_OPTIONS`:
  model params, recovery policy, feature flags) — a resume reconstructs
  an equivalent runtime without the caller re-stating anything;
* buffer state per *born rank* (replicas legitimately diverge between
  the partial phase and the Allgather);
* the fault injector's complete mutable state (cursors, fired set, RNG
  bit-generator state, event log), so fault delivery resumes
  bit-identically;
* the completed-launch log, and — mid-launch — the pending launch's
  recovery state (phase progress, retry/recovery accounting, the
  in-memory pre-launch snapshot).

Checkpoint writes charge **zero simulated time**: durability is host
I/O, invisible to the modeled cluster, which is what keeps a
checkpointed run's PhaseTimes bit-identical to an uncheckpointed one.
"""

from __future__ import annotations

import dataclasses
import weakref
from pathlib import Path

from repro.cluster.faults import event_to_dict
from repro.errors import CheckpointHalt
from repro.obs.metrics import METRICS
from repro.obs.tracer import SpanKind
from repro.ops.checkpoint import CKPT_SUFFIX, LATEST_NAME, write_checkpoint
from repro.ops.policy import CheckpointPolicy
from repro.runtime.cucc import STATE_OPTIONS

__all__ = [
    "CheckpointManager",
    "PENDING_RANK",
    "capture_meta",
    "record_to_dict",
]

#: pseudo born-rank under which a pending launch's in-memory pre-launch
#: snapshot (one canonical copy per buffer) is stored as segments
PENDING_RANK = -1

#: topology class name -> the CLI kind name that reconstructs it
_TOPOLOGY_KINDS = {
    "FlatTopology": "flat",
    "FatTreeTopology": "fat-tree",
    "RingTopology": "ring",
    "TorusTopology": "torus",
}


def _topology_kind(topo) -> str:
    name = type(topo).__name__
    kind = _TOPOLOGY_KINDS.get(name, name)
    if kind == "fat-tree":
        # carry the leaf-switch size so resume rebuilds the same tree
        # even when it differs from the network spec's switch radix
        # (make_topology parses the "fat-tree:K" suffix)
        return f"fat-tree:{topo.nodes_per_switch}"
    return kind


# ---------------------------------------------------------------------------
# state capture
# ---------------------------------------------------------------------------
def capture_meta(
    runtime, stage: str, seq: int, pending: dict | None = None,
    app: dict | None = None,
) -> dict:
    """The full JSON-serializable state of a runtime (sans bulk data)."""
    cluster = runtime.cluster
    comm = cluster.comm
    topo = comm.topology
    memory = runtime.memory
    return {
        "stage": stage,
        "seq": seq,
        "label": f"{stage} #{seq}",
        "sim_time": cluster.max_clock,
        "cluster": {
            "name": cluster.name,
            "node_spec": dataclasses.asdict(cluster.node_spec),
            "network": dataclasses.asdict(cluster.network),
            "born_nodes": topo.num_nodes,
            "topology_kind": _topology_kind(topo),
            "topology_signature": topo.signature,
            "tuning": (
                dict(comm.tuning.entries) if comm.tuning is not None else None
            ),
            "comm_seconds": comm.comm_seconds,
            "comm_bytes": comm.comm_bytes,
            "nodes": [
                {
                    "rank": n.rank,
                    "born_rank": n.born_rank,
                    "clock": n.clock.now,
                    "compute_multiplier": n.compute_multiplier,
                    "network_multiplier": n.network_multiplier,
                }
                for n in cluster.nodes
            ],
        },
        "runtime": {
            name: (
                dataclasses.asdict(getattr(runtime, name))
                if cls else getattr(runtime, name)
            )
            for name, cls in STATE_OPTIONS.items()
        },
        "memory": {
            "buffers": {
                name: {
                    "size": memory.size_of(name),
                    "dtype": memory.dtype_of(name).str,
                }
                for name in memory.buffer_names
            }
        },
        "injector": (
            runtime.injector.export_state()
            if runtime.injector is not None
            else None
        ),
        "launches": [record_to_dict(r) for r in runtime.launches],
        "pending": pending,
        "app": dict(app or {}),
    }


def record_to_dict(record) -> dict:
    """One completed :class:`~repro.runtime.program.LaunchRecord` as a
    JSON-serializable dict (sanitizer reports are not carried — a
    resumed runtime reports ``None`` for fast-forwarded launches)."""
    p = record.phases
    return {
        "kernel": record.kernel_name,
        "grid": list(record.config.grid),
        "block": list(record.config.block),
        "phases": {
            "partial": p.partial,
            "allgather": p.allgather,
            "callback": p.callback,
            "overhead": p.overhead,
            "recovery": p.recovery,
            "algos": list(p.allgather_algos),
        },
        "partial_counters": [c.as_dict() for c in record.partial_counters],
        "callback_counters": record.callback_counters.as_dict(),
        "comm_bytes": record.comm_bytes,
        "fault_events": [event_to_dict(e) for e in record.fault_events],
        "retries": record.retries,
        "recoveries": record.recoveries,
    }


# ---------------------------------------------------------------------------
# the manager
# ---------------------------------------------------------------------------
class CheckpointManager:
    """Owns the checkpoint directory of one runtime.

    Never constructed directly by users — pass a
    :class:`~repro.ops.policy.CheckpointPolicy` to
    :class:`~repro.runtime.cucc.CuCCRuntime` instead.
    """

    def __init__(self, runtime, policy: CheckpointPolicy):
        # weak: the runtime owns this manager (``runtime.ops``); a strong
        # back-reference is a cycle that keeps every node replica of a
        # finished run alive until a cyclic GC pass happens to run
        self.runtime = weakref.proxy(runtime)
        self.policy = policy
        #: caller-supplied context stored verbatim in every checkpoint
        #: (the CLI records the workload name/size so a resume can refuse
        #: a mismatched workload)
        self.app: dict = {}
        #: write ordinal (continues from the checkpoint on resume)
        self.seq = 0
        #: files written by *this* process (drives ``halt_after``)
        self.written = 0
        self.paths: list[Path] = []
        self._last_write_t: float | None = None

    # -- hooks the runtime calls ---------------------------------------
    def on_stage(
        self, stage: str, pending: dict, ckpt=None, recovered: bool = False
    ) -> None:
        """Mid-launch stage point: ``pending`` is the launch's resumable
        state, ``ckpt`` its in-memory pre-launch snapshot (or None).

        A launch resumed mid-flight never re-reaches the stage point it
        was restored from (the runtime skips the completed phases
        structurally), so every call here captures genuinely new state —
        ``halt_after=1`` restart drills ratchet forward one checkpoint
        per process."""
        if self._due(recovered):
            self.write(stage, pending=pending, ckpt=ckpt)

    def on_launch_end(self, record) -> None:
        if self._due(recovered=record.recoveries > 0):
            self.write("launch-end")

    # -- policy evaluation ---------------------------------------------
    def _due(self, recovered: bool) -> bool:
        mode = self.policy.mode
        if mode == "phase-boundary":
            return True
        if mode == "interval":
            now = self.runtime.cluster.max_clock
            return (
                self._last_write_t is None
                or now - self._last_write_t >= self.policy.interval_s
            )
        return recovered  # on-recovery

    # -- writing --------------------------------------------------------
    def write(self, stage: str, pending: dict | None = None, ckpt=None) -> Path:
        """Serialize the runtime to a numbered checkpoint file now.

        Also refreshes ``latest.rckp``, prunes per the policy's ``keep``,
        and raises :class:`~repro.errors.CheckpointHalt` when the
        policy's ``halt_after`` quota is reached.
        """
        self.seq += 1
        meta = capture_meta(
            self.runtime, stage, self.seq, pending=pending, app=self.app
        )
        segments = list(self.runtime.memory.export_rank_states())
        if ckpt is not None and pending is not None:
            segments += [
                (name, PENDING_RANK, arr) for name, arr in ckpt.data.items()
            ]
        path = (
            Path(self.policy.directory) / f"ckpt-{self.seq:06d}{CKPT_SUFFIX}"
        )
        write_checkpoint(path, meta, segments)
        self._last_write_t = self.runtime.cluster.max_clock
        self.written += 1
        self.paths.append(path)
        self._prune()
        tracer = self.runtime.tracer
        if tracer.enabled:
            tracer.instant(
                "checkpoint",
                SpanKind.CKPT,
                self.runtime.cluster.max_clock,
                stage=stage,
                seq=self.seq,
                path=str(path),
            )
        if METRICS.enabled:
            METRICS.inc("ops.checkpoints", stage=stage)
        if (
            self.policy.halt_after is not None
            and self.written >= self.policy.halt_after
        ):
            raise CheckpointHalt(
                f"halted after checkpoint {self.written} as requested "
                f"(halt_after={self.policy.halt_after}); resume from "
                f"{path}",
                path=str(path),
            )
        return path

    def _prune(self) -> None:
        if self.policy.keep <= 0:
            return
        directory = Path(self.policy.directory)
        numbered = sorted(
            p
            for p in directory.glob("ckpt-*" + CKPT_SUFFIX)
            if p.name != LATEST_NAME
        )
        for stale in numbered[: -self.policy.keep]:
            stale.unlink(missing_ok=True)
