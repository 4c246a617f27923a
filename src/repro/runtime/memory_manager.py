"""Cluster device-memory manager: the CUDA memory API over N nodes.

CuCC maps GPU global memory to a buffer *replicated* in every node's
private memory.  The replication invariant — all nodes hold identical
copies between kernel launches — is what the three-phase workflow
restores after every distributed launch, and what host-side transfers
must establish:

* ``memcpy_h2d`` writes the host data into every node's copy (physically
  a broadcast; by default it is not charged to the simulated clock, as
  the paper's figures measure kernel execution);
* ``memcpy_d2h`` reads node 0's copy, optionally verifying that all
  replicas agree (a strong consistency check used throughout the tests).

The replication invariant doubles as a built-in recovery point: because
every node holds a full copy of every buffer between launches (and of all
written regions after phase-2 Allgather), a :class:`Checkpoint` needs
only *one* canonical copy per buffer — not per node — to restore any
surviving subset of nodes after a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.errors import DeviceMemoryError, LaunchError

__all__ = ["ClusterMemory", "Checkpoint", "DeviceHeap"]


class DeviceHeap:
    """The CUDA memory API over one flat memory space — what the GPU
    model and the PGAS runtime (global arrays) expose to a host."""

    def __init__(self) -> None:
        self._memory: dict[str, np.ndarray] = {}

    def alloc(self, name: str, size: int, dtype) -> str:
        if name in self._memory:
            raise DeviceMemoryError(f"buffer {name!r} already allocated")
        self._memory[name] = np.zeros(int(size), dtype=np.dtype(dtype))
        return name

    def free(self, name: str) -> None:
        if name not in self._memory:
            raise DeviceMemoryError(f"unknown buffer {name!r}")
        del self._memory[name]

    def memcpy_h2d(self, name: str, host: np.ndarray) -> None:
        buf = self._buffer(name)
        host = np.ascontiguousarray(host).reshape(-1)
        if host.dtype != buf.dtype or host.size != buf.size:
            raise DeviceMemoryError(f"memcpy_h2d {name!r}: shape/dtype mismatch")
        buf[:] = host

    def memcpy_d2h(self, name: str) -> np.ndarray:
        return self._buffer(name).copy()

    def _buffer(self, name: str) -> np.ndarray:
        try:
            return self._memory[name]
        except KeyError:
            raise DeviceMemoryError(f"unknown buffer {name!r}") from None

    def bind(self, kernel, args: dict[str, object]) -> dict[str, object]:
        """A launch's kernel arguments, every pointer parameter's buffer
        name resolved to its array."""
        run_args: dict[str, object] = {}
        for p in kernel.params:
            if p.name not in args:
                raise LaunchError(f"missing argument {p.name!r}")
            v = args[p.name]
            if p.is_pointer:
                if not isinstance(v, str):
                    raise LaunchError(
                        f"pointer argument {p.name!r} must be a buffer name"
                    )
                v = self._buffer(v)
            run_args[p.name] = v
        return run_args


@dataclass(frozen=True)
class Checkpoint:
    """Lightweight snapshot of replicated buffers at an invariant point.

    Because the replication invariant guarantees all replicas are
    identical when the checkpoint is taken, one host-side copy per buffer
    suffices; :meth:`ClusterMemory.restore` writes it back into every
    node currently in the cluster — including a cluster that has shrunk
    since the snapshot.
    """

    label: str
    sim_time: float
    data: dict[str, np.ndarray]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.data.values())


class ClusterMemory:
    """Replicated device-buffer allocator over a simulated cluster."""

    def __init__(self, cluster: Cluster, charge_transfers: bool = False):
        self.cluster = cluster
        #: charge host<->device transfers to the simulated clocks
        self.charge_transfers = charge_transfers
        self._sizes: dict[str, tuple[int, np.dtype]] = {}

    def alloc(self, name: str, size: int, dtype) -> str:
        """Allocate a zeroed buffer of ``size`` elements on every node."""
        dtype = np.dtype(dtype)
        if name in self._sizes:
            raise DeviceMemoryError(f"buffer {name!r} already allocated")
        if size <= 0:
            raise DeviceMemoryError(f"buffer {name!r}: size must be positive")
        for node in self.cluster.nodes:
            node.alloc(name, size, dtype)
        self._sizes[name] = (int(size), dtype)
        return name

    def free(self, name: str) -> None:
        self._require(name)
        for node in self.cluster.nodes:
            node.free(name)
        del self._sizes[name]

    def _require(self, name: str) -> None:
        if name not in self._sizes:
            raise DeviceMemoryError(f"unknown buffer {name!r}")

    def memcpy_h2d(self, name: str, host: np.ndarray) -> None:
        """Copy host data into every node's replica of ``name``."""
        self._require(name)
        size, dtype = self._sizes[name]
        host = np.ascontiguousarray(host).reshape(-1)
        if host.dtype != dtype:
            raise DeviceMemoryError(
                f"memcpy_h2d {name!r}: host dtype {host.dtype} != {dtype}"
            )
        if host.size != size:
            raise DeviceMemoryError(
                f"memcpy_h2d {name!r}: host size {host.size} != {size}"
            )
        for node in self.cluster.nodes:
            node.buffer(name)[:] = host
        if self.charge_transfers:
            from repro.cluster.collectives import bcast_cost

            dur = bcast_cost(self.cluster.network, self.cluster.num_nodes, host.nbytes)
            start = max(n.clock.now for n in self.cluster.nodes)
            for n in self.cluster.nodes:
                n.clock.wait_until(start + dur)

    def memcpy_d2h(self, name: str, check_consistency: bool = False) -> np.ndarray:
        """Read back a buffer (node 0's replica).

        ``check_consistency=True`` asserts every node holds bit-identical
        data — the invariant the CuCC workflow must maintain.
        """
        self._require(name)
        ref = self.cluster.nodes[0].buffer(name)
        if check_consistency:
            for node in self.cluster.nodes[1:]:
                if not np.array_equal(node.buffer(name), ref, equal_nan=True):
                    bad = np.flatnonzero(
                        ~_eq_nan(node.buffer(name), ref)
                    )
                    raise DeviceMemoryError(
                        f"replicas of {name!r} diverge between rank 0 and rank "
                        f"{node.rank} at {bad.size} elements "
                        f"(first at index {int(bad[0])})"
                    )
        return ref.copy()

    # -- checkpoint / restore (fault recovery) ------------------------------
    def checkpoint(
        self, names: list[str] | None = None, label: str = ""
    ) -> Checkpoint:
        """Snapshot buffers at a replication-invariant point.

        ``names`` defaults to every allocated buffer.  The snapshot reads
        rank 0's replica (the invariant makes all replicas identical at
        valid checkpoint times) into host memory, so it survives the
        death of any — even all — of the nodes it was taken from.
        """
        names = self.buffer_names if names is None else names
        for n in names:
            self._require(n)
        ref = self.cluster.nodes[0]
        return Checkpoint(
            label=label,
            sim_time=self.cluster.max_clock,
            data={n: ref.buffer(n).copy() for n in names},
        )

    def restore(self, ckpt: Checkpoint) -> None:
        """Write a checkpoint back into every current node's replica.

        Buffers freed since the snapshot are skipped; shrunken clusters
        restore onto the survivors only.  Simulated clocks are *not*
        touched — time already burned stays charged, which is how
        recovery cost shows up in modeled time.
        """
        for name, arr in ckpt.data.items():
            if name not in self._sizes:
                continue
            for node in self.cluster.nodes:
                node.buffer(name)[:] = arr

    # -- durable-checkpoint support -----------------------------------------
    def export_rank_states(
        self, names: list[str] | None = None
    ) -> list[tuple[str, int, np.ndarray]]:
        """Per-rank raw buffer state as ``(buffer, born_rank, array)``.

        Unlike :meth:`checkpoint` (one canonical copy, valid only at
        replication-invariant points) this captures *every* replica, so a
        durable checkpoint taken mid-launch — after the partial phase,
        when replicas legitimately diverge — still restores exactly.
        Arrays are views; callers serialize them before mutating buffers.
        """
        names = self.buffer_names if names is None else names
        for n in names:
            self._require(n)
        return [
            (name, node.born_rank, node.buffer(name))
            for name in names
            for node in self.cluster.nodes
        ]

    def import_rank_state(
        self, name: str, born_rank: int, data: np.ndarray
    ) -> None:
        """Write one rank's replica of ``name`` (inverse of
        :meth:`export_rank_states`); unknown buffers or absent ranks are
        an error — a resume must account for every byte it was given."""
        self._require(name)
        size, dtype = self._sizes[name]
        arr = np.frombuffer(data, dtype=dtype) if data.dtype != dtype else data
        if arr.size != size:
            raise DeviceMemoryError(
                f"import_rank_state {name!r}: got {arr.size} elements, "
                f"buffer holds {size}"
            )
        for node in self.cluster.nodes:
            if node.born_rank == born_rank:
                node.buffer(name)[:] = arr
                return
        raise DeviceMemoryError(
            f"import_rank_state {name!r}: no node with born rank {born_rank}"
        )

    def replicate_to(self, nodes) -> None:
        """Copy rank 0's replica of every buffer onto ``nodes`` (grow
        recovery: replacement nodes join with empty memory and must be
        brought back to the replication invariant).  Buffers are
        allocated on the target nodes as needed."""
        src = self.cluster.nodes[0]
        for name, (size, dtype) in self._sizes.items():
            data = src.buffer(name)
            for node in nodes:
                if not node.has_buffer(name):
                    node.alloc(name, size, dtype)
                node.buffer(name)[:] = data

    def consistent(self, name: str) -> bool:
        """Whether all replicas of ``name`` agree."""
        self._require(name)
        ref = self.cluster.nodes[0].buffer(name)
        return all(
            np.array_equal(n.buffer(name), ref, equal_nan=True)
            for n in self.cluster.nodes[1:]
        )

    def size_of(self, name: str) -> int:
        self._require(name)
        return self._sizes[name][0]

    def dtype_of(self, name: str) -> np.dtype:
        self._require(name)
        return self._sizes[name][1]

    @property
    def buffer_names(self) -> list[str]:
        return sorted(self._sizes)

    def total_bytes_per_node(self) -> int:
        return sum(s * d.itemsize for s, d in self._sizes.values())


def _eq_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    eq = a == b
    if a.dtype.kind == "f":
        eq |= np.isnan(a) & np.isnan(b)
    return eq
