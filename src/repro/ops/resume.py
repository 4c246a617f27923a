"""Restart: rebuild a runtime from a durable checkpoint and continue.

:func:`resume_runtime` is the inverse of the
:class:`~repro.ops.manager.CheckpointManager`'s capture: it reads one
``.rckp`` file and reconstructs

* the cluster — hardware and network specs, topology (by kind, verified
  against the stored signature), tuning cache, the exact set of alive
  nodes with their ranks, born ranks, simulated clocks and straggler
  multipliers, and the cumulative communication accounting;
* an equivalent :class:`~repro.runtime.cucc.CuCCRuntime` — model
  params, recovery policy and feature flags come from the checkpoint,
  not from the caller;
* device memory — every buffer reallocated and every born rank's
  replica restored byte-for-byte (mid-launch checkpoints legitimately
  hold divergent replicas);
* the fault injector — cursors, fired set, RNG bit-generator state and
  event log, so the remaining fault schedule delivers bit-identically;
* the execution cursor — completed launches are replayed as
  zero-cost fast-forwards (their records reappear in
  ``runtime.launches`` with the recorded PhaseTimes floats), and a
  launch interrupted mid-flight re-enters the three-phase driver at the
  exact stage it halted.

The determinism contract: interrupt a run at *any* stage point, resume
from the file, and the final buffers, op counters and PhaseTimes are
bit-identical to the uninterrupted run — ``tests/test_ops_resume.py``
enforces this differentially at every halt point.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultInjector, event_from_dict
from repro.cluster.topology import make_topology
from repro.errors import CheckpointError, LaunchError
from repro.hw.cpu import CPUSpec
from repro.hw.specs import NetworkSpec
from repro.interp.counters import OpCounters
from repro.interp.machine import check_backend
from repro.ops.checkpoint import read_checkpoint
from repro.ops.manager import PENDING_RANK
from repro.runtime.memory_manager import Checkpoint
from repro.runtime.program import LaunchRecord, PhaseTimes

__all__ = [
    "ResumeState",
    "resume_runtime",
    "resume_on_cucc",
    "record_from_dict",
]


class ResumeState:
    """The execution cursor a resumed runtime carries until caught up.

    ``completed`` holds the serialized records of launches that finished
    before the checkpoint (consumed FIFO as the caller replays its
    launch sequence); ``pending`` the mid-flight state of a launch
    interrupted between phases (or ``None``).
    """

    def __init__(self, completed, pending, path, app=None):
        self.completed: list[dict] = list(completed)
        self.pending: dict | None = pending
        self.path = str(path)
        #: app-level context stored in the checkpoint (workload name...)
        self.app: dict = dict(app or {})

    @property
    def exhausted(self) -> bool:
        return not self.completed and self.pending is None


def record_from_dict(d: dict, config, plan) -> LaunchRecord:
    """Rebuild a completed launch's record from its serialized form.

    ``config`` and ``plan`` come from the replaying caller (the plan is
    re-finalized at resume time; every numeric field of the record is
    restored from the checkpoint, not recomputed).
    """
    ph = d["phases"]
    return LaunchRecord(
        kernel_name=d["kernel"],
        config=config,
        plan=plan,
        phases=PhaseTimes(
            partial=ph["partial"],
            allgather=ph["allgather"],
            callback=ph["callback"],
            overhead=ph["overhead"],
            recovery=ph["recovery"],
            allgather_algos=tuple(ph["algos"]),
        ),
        partial_counters=[OpCounters(**c) for c in d["partial_counters"]],
        callback_counters=OpCounters(**d["callback_counters"]),
        comm_bytes=int(d["comm_bytes"]),
        fault_events=[event_from_dict(e) for e in d["fault_events"]],
        retries=int(d["retries"]),
        recoveries=int(d["recoveries"]),
    )


def _rebuild_cluster(cmeta: dict, path) -> Cluster:
    """Reconstruct the checkpoint's cluster, including dead positions."""
    from repro.tuning.cache import TuningCache

    spec = CPUSpec(**cmeta["node_spec"])
    network = NetworkSpec(**cmeta["network"])
    born = int(cmeta["born_nodes"])
    topo = make_topology(cmeta["topology_kind"], born, network=network)
    if topo.signature != cmeta["topology_signature"]:
        raise CheckpointError(
            f"topology {cmeta['topology_kind']!r} rebuilt as "
            f"{topo.signature!r} but the checkpoint recorded "
            f"{cmeta['topology_signature']!r} (a custom topology cannot "
            f"be reconstructed from its kind alone)",
            path=str(path),
        )
    tuning = (
        TuningCache(entries=dict(cmeta["tuning"]))
        if cmeta["tuning"] is not None
        else None
    )
    cluster = Cluster(
        spec,
        born,
        network=network,
        name=cmeta["name"],
        topology=topo,
        tuning=tuning,
    )
    present = {int(n["born_rank"]): n for n in cmeta["nodes"]}
    lost = [n for n in cluster.nodes if n.born_rank not in present]
    for n in lost:
        n.fail("lost before the checkpoint was taken")
    if lost:
        cluster.remove_dead()
    for node in cluster.nodes:
        st = present[node.born_rank]
        if node.rank != int(st["rank"]):
            raise CheckpointError(
                f"rank layout mismatch: born rank {node.born_rank} "
                f"reconstructs as rank {node.rank}, checkpoint recorded "
                f"rank {int(st['rank'])}",
                path=str(path),
            )
        node.clock.reset(float(st["clock"]))
        node.compute_multiplier = float(st["compute_multiplier"])
        node.network_multiplier = float(st["network_multiplier"])
    cluster.comm.comm_seconds = float(cmeta["comm_seconds"])
    cluster.comm.comm_bytes = int(cmeta["comm_bytes"])
    return cluster


def resume_runtime(
    path, checkpoint=None, drift_guard=None, trace=False, profile=False,
    backend=None, jit_cache=None,
):
    """Rebuild a :class:`~repro.runtime.cucc.CuCCRuntime` from a
    checkpoint file, ready to continue the interrupted run.

    ``checkpoint`` (a :class:`~repro.ops.policy.CheckpointPolicy`)
    re-arms durable checkpointing in the resumed process — write
    numbering continues from the file's ordinal.  ``drift_guard``,
    ``trace`` and ``profile`` are process-local observers and may differ
    from the original run; everything that affects simulated state is
    restored from the file.

    ``backend=None`` (the default) resumes on the backend the
    checkpoint recorded — a JIT run resumes on JIT — falling back to
    ``"auto"`` for checkpoints written before the backend was recorded.
    An explicit ``backend`` overrides the record (safe either way: both
    backends are bit-identical by the differential gate).  ``jit_cache``
    (a :class:`~repro.interp.jit.cache.CompileCache` or path) seeds the
    resumed runtime's compile cache; caches are process-local and never
    part of checkpointed state.

    The caller then replays its launch sequence: launches completed
    before the checkpoint fast-forward (identical records, zero clock
    movement), the interrupted launch resumes mid-flight, and later
    launches run normally.
    """
    from repro.runtime.cucc import STATE_OPTIONS, CuCCRuntime

    meta, data = read_checkpoint(path)
    cluster = _rebuild_cluster(meta["cluster"], path)
    r = meta["runtime"]
    options = {
        name: cls(**r[name]) if cls else r[name]
        for name, cls in STATE_OPTIONS.items()
        if name in r
    }
    if backend is None:
        backend = options.get("backend", "auto")
        try:
            check_backend(backend, hooked=bool(profile or options["sanitize"]))
        except LaunchError:
            # a recorded hard-jit backend cannot carry profile/sanitize
            # hooks; auto keeps the run going — bit-identical either way
            backend = "auto"
    options["backend"] = backend
    rt = CuCCRuntime(
        cluster,
        **options,
        trace=trace,
        profile=profile,
        checkpoint=checkpoint,
        drift_guard=drift_guard,
        jit_cache=jit_cache,
    )
    inj_state = meta["injector"]
    if inj_state is not None:
        inj = FaultInjector.from_state(inj_state)
        inj.tracer = rt.tracer
        rt.injector = inj
        cluster.comm.injector = inj
    for name, info in sorted(meta["memory"]["buffers"].items()):
        rt.memory.alloc(name, int(info["size"]), np.dtype(info["dtype"]))
    for (name, born), arr in data.items():
        if born != PENDING_RANK:
            rt.memory.import_rank_state(name, born, arr)
    pending = meta["pending"]
    if pending is not None and pending.get("ckpt") is not None:
        ck = pending["ckpt"]
        pending = dict(pending)
        pending["_ckpt_obj"] = Checkpoint(
            label=ck["label"],
            sim_time=ck["sim_time"],
            data={
                n: data[(n, PENDING_RANK)].copy() for n in ck["buffers"]
            },
        )
    rt._resume = ResumeState(
        meta["launches"], pending, path, app=meta.get("app")
    )
    if rt.ops is not None:
        rt.ops.seq = int(meta["seq"])
        rt.ops.app.update(meta.get("app") or {})
        rt.ops._last_write_t = float(meta["sim_time"])
    return rt


def resume_on_cucc(spec, path, verify=True, **kwargs):
    """Resume a single-workload run from a checkpoint (the restart-side
    twin of :func:`repro.bench.harness.run_on_cucc`).

    ``spec`` must be the same workload the checkpoint was taken from —
    buffers are *not* re-uploaded (the checkpoint holds the state),
    only the kernel is recompiled and the launch sequence replayed.
    ``kwargs`` forward to :func:`resume_runtime`.
    """
    rt = resume_runtime(path, **kwargs)
    stored = rt._resume.app.get("workload")
    if stored is not None and stored != spec.name:
        raise CheckpointError(
            f"checkpoint was taken from workload {stored!r}, refusing to "
            f"resume workload {spec.name!r} onto it",
            path=str(path),
        )
    missing = [n for n in spec.arrays if n not in rt.memory.buffer_names]
    if missing:
        raise CheckpointError(
            f"checkpoint holds no state for buffer(s) {missing} of "
            f"workload {spec.name!r}",
            path=str(path),
        )
    return rt.run(spec, verify=verify)
