"""PGAS (UPC++-style) migration baseline — the paper's sections 3.1 / 7.3.

The PGAS migration of a GPU kernel (paper Listing 3) keeps the
block-wrapped CPU code, but:

* buffers the kernel *writes* become PGAS global arrays.  Listing 3
  allocates them in one place (``pgas::global_ptr<char> dest(N)`` —
  affinity on rank 0), so every store becomes a fine-grained
  ``remote_put`` whose payload lands on rank 0: an *incast* that
  serializes at the owner's injection rate.  This is the naive but
  faithful migration the paper evaluates — "Listing 3 introduces 1200
  remote memory accesses, where each access is only 1 byte";
* read-only buffers stay ordinary replicated local arrays (Listing 3
  passes ``src`` as a plain ``char*``), costing nothing extra;
* loads from a written global array also go through the runtime.

Two structural consequences drive the gap the paper reports: the
per-element **fragmentation** of the communication (vs. one collective),
and the owner-side serialization that does **not** shrink as nodes are
added — which is why the CuCC/PGAS ratio grows with cluster size
(Figure 10) and why some PGAS workloads slow down at scale (Figure 4).

Functionally the global arrays are a real shared address space (that is
what PGAS provides), so results are exact; ownership only affects cost
accounting, which the instrumented executor measures from the actual
accesses each node issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.writes import collect_writes
from repro.cluster.cluster import Cluster
from repro.hw.perfmodel import DEFAULT_PARAMS, ModelParams, cpu_node_time
from repro.interp.counters import OpCounters
from repro.interp.grid import LaunchConfig
from repro.interp.machine import BlockExecutor
from repro.ir.expr import Expr
from repro.ir.stmt import Kernel
from repro.obs.tracer import SpanKind, Tracer
from repro.runtime.memory_manager import DeviceHeap
from repro.transform.vectorize import analyze_vectorizability

__all__ = ["PGASRuntime", "PGASLaunchRecord", "PGAS_LOCAL_ACCESS_S"]

#: software cost of one *local-affinity* global-array access through the
#: PGAS runtime (pointer translation + affinity check), per core
PGAS_LOCAL_ACCESS_S = 2.0e-8


class _PGASBlockExecutor(BlockExecutor):
    """Block executor that meters accesses to PGAS global arrays.

    ``global_buffers`` maps each global (written) buffer's *parameter
    name* to its owner rank; accesses from other ranks are remote.
    """

    def __init__(
        self, *args, rank: int, global_params: dict[str, int], **kwargs
    ):
        super().__init__(*args, **kwargs)
        self._rank = rank
        self._globals = global_params
        self.local_ops = 0.0
        self.remote_ops = 0.0
        self.remote_bytes = 0.0

    def _on_global_access(self, ptr: Expr, idx, mask, is_store, elem_size) -> None:
        owner = self._globals.get(getattr(ptr, "name", None))
        if owner is None:
            return  # read-only replicated buffer: plain local access
        n_active = float(np.count_nonzero(mask))
        if owner == self._rank:
            self.local_ops += n_active
        else:
            self.remote_ops += n_active
            self.remote_bytes += n_active * elem_size


@dataclass
class PGASLaunchRecord:
    """Trace entry for one PGAS kernel launch."""

    kernel_name: str
    config: LaunchConfig
    time: float
    per_node_compute: list[float]
    local_ops: float
    remote_ops: float
    remote_bytes: float
    incast_time: float

    @property
    def comm_fraction(self) -> float:
        return self.incast_time / self.time if self.time > 0 else 0.0


class PGASRuntime(DeviceHeap):
    """UPC++-style distributed execution of migrated GPU kernels.

    GPU blocks are split in contiguous ranges across nodes (paper
    Listing 3 lines 16-19); written buffers are global arrays with
    affinity on rank 0.
    """

    def __init__(
        self,
        cluster: Cluster,
        params: ModelParams = DEFAULT_PARAMS,
        bounds_check: bool = True,
        trace: bool | Tracer = False,
    ):
        super().__init__()
        self.cluster = cluster
        self.params = params
        self.bounds_check = bounds_check
        #: span tracer (see repro.obs); shared with the communicator so
        #: the final barrier shows up as a collective span
        self.tracer: Tracer = Tracer.from_option(trace)
        cluster.comm.tracer = self.tracer
        self.launches: list[PGASLaunchRecord] = []

    # -- launch ----------------------------------------------------------------
    def launch(
        self, kernel: Kernel, grid, block, args: dict[str, object]
    ) -> PGASLaunchRecord:
        config = LaunchConfig.make(grid, block)
        n = self.cluster.num_nodes
        run_args = self.bind(kernel, args)

        # written buffers become rank-0-affinity global arrays
        written = {rec.buffer for rec in collect_writes(kernel)}
        global_params = {
            p.name: 0 for p in kernel.params
            if p.is_pointer and p.name in written
        }
        vectorized = analyze_vectorizability(kernel).vectorizable

        B = config.num_blocks
        q = math.ceil(B / n)
        net = self.cluster.network
        start = max(node.clock.now for node in self.cluster.nodes)
        lspan = (
            self.tracer.begin(f"launch {kernel.name}", SpanKind.LAUNCH, start)
            if self.tracer.enabled
            else None
        )
        per_node_compute: list[float] = []
        tot_local = tot_remote = tot_rbytes = 0.0
        for node in self.cluster.nodes:
            node.clock.wait_until(start)
            lo, hi = node.rank * q, min((node.rank + 1) * q, B)
            counters = OpCounters()
            ex = _PGASBlockExecutor(
                kernel,
                config,
                run_args,
                counters,
                bounds_check=self.bounds_check,
                rank=node.rank,
                global_params=global_params,
            )
            ex.run_blocks(range(lo, hi))
            nblocks = hi - lo
            compute = cpu_node_time(
                node.spec,
                counters,
                nblocks,
                vectorized=vectorized,
                params=self.params,
            )
            local_t = ex.local_ops * PGAS_LOCAL_ACCESS_S / max(1, node.spec.cores)
            if lspan is not None:
                t0 = node.clock.now
                self.tracer.add(
                    f"pgas rank {node.born_rank}",
                    SpanKind.EXEC,
                    t0,
                    t0 + compute + local_t,
                    rank=node.born_rank,
                    phase="pgas",
                    blocks=nblocks,
                    dur_s=compute + local_t,
                )
            node.clock.advance(compute + local_t)
            per_node_compute.append(compute)
            tot_local += ex.local_ops
            tot_remote += ex.remote_ops
            tot_rbytes += ex.remote_bytes

        # incast: every remote access serializes at the owner's NIC
        incast = (
            tot_remote / net.rma_rate_per_node
            + tot_rbytes / net.beta_bytes_per_s
            + (net.rma_alpha_s if tot_remote else 0.0)
        )
        if incast:
            end_compute = max(node.clock.now for node in self.cluster.nodes)
            if lspan is not None:
                self.tracer.add(
                    "incast",
                    SpanKind.COLLECTIVE,
                    end_compute,
                    end_compute + incast,
                    remote_ops=tot_remote,
                    remote_bytes=tot_rbytes,
                    dur_s=incast,
                )
            for node in self.cluster.nodes:
                node.clock.wait_until(end_compute + incast)
            self.cluster.comm.comm_seconds += incast
            self.cluster.comm.comm_bytes += int(tot_rbytes)
        self.cluster.comm.barrier()
        end = max(node.clock.now for node in self.cluster.nodes)
        if lspan is not None:
            lspan.args.update(
                kernel=kernel.name,
                dur_s=end - start,
                remote_ops=tot_remote,
                remote_bytes=tot_rbytes,
            )
            self.tracer.end(lspan, end)
        record = PGASLaunchRecord(
            kernel_name=kernel.name,
            config=config,
            time=end - start,
            per_node_compute=per_node_compute,
            local_ops=tot_local,
            remote_ops=tot_remote,
            remote_bytes=tot_rbytes,
            incast_time=incast,
        )
        self.launches.append(record)
        return record
