"""Cluster composition: nodes + network + communicator."""

from __future__ import annotations

from repro.cluster.comm import Communicator
from repro.cluster.node import Node
from repro.cluster.topology import Topology, make_topology
from repro.errors import ClusterError
from repro.hw.cpu import CPUSpec
from repro.hw.specs import CLUSTERS, CPU_NODES, INFINIBAND_100G, NetworkSpec

__all__ = ["Cluster", "make_cluster"]


class Cluster:
    """A simulated distributed-memory CPU cluster.

    All nodes are homogeneous (as in the paper's two clusters).  The
    cluster owns the communicator; runtimes allocate buffers through
    :mod:`repro.runtime.memory_manager` on top of it.
    """

    def __init__(
        self,
        node_spec: CPUSpec,
        num_nodes: int,
        network: NetworkSpec = INFINIBAND_100G,
        name: str | None = None,
        topology: Topology | str | None = None,
        tuning=None,
    ):
        if num_nodes < 1:
            raise ClusterError(f"cluster needs >= 1 node, got {num_nodes}")
        self.name = name or f"{num_nodes}x {node_spec.name}"
        self.node_spec = node_spec
        self.network = network
        if isinstance(topology, str):
            topology = make_topology(topology, num_nodes, network=network)
        self.nodes = [Node(r, node_spec) for r in range(num_nodes)]
        self.comm = Communicator(
            self.nodes, network, topology=topology, tuning=tuning
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.node_spec.cores

    @property
    def peak_tflops(self) -> float:
        return self.num_nodes * self.node_spec.peak_tflops

    @property
    def max_clock(self) -> float:
        """Simulated time at the slowest node — the cluster's makespan."""
        return max(n.clock.now for n in self.nodes)

    @property
    def alive_nodes(self) -> list:
        return [n for n in self.nodes if n.alive]

    def remove_dead(self) -> list:
        """Shrink the cluster over the surviving nodes.

        Drops every dead node, re-ranks the survivors contiguously
        (``born_rank`` keeps the original identity) and rebuilds the
        communicator over them (see :meth:`Communicator.over` for what
        carries over).  Returns the removed nodes.  Raises
        :class:`ClusterError` when nothing survives.
        """
        dead = [n for n in self.nodes if not n.alive]
        if not dead:
            return []
        survivors = [n for n in self.nodes if n.alive]
        if not survivors:
            raise ClusterError("all nodes failed; nothing to recover onto")
        for i, n in enumerate(survivors):
            n.rank = i
        self.nodes = survivors
        self.comm = self.comm.over(survivors)
        return dead

    def grow(self, born_ranks) -> list:
        """Rejoin replacement nodes at freed physical positions.

        The inverse of :meth:`remove_dead`: each ``born_rank`` must be a
        physical position not currently occupied (typically one a dead
        node freed).  Replacement nodes start with empty memory and a
        clock synchronized to the cluster makespan (a node cannot join
        in the past), and the whole cluster is re-ranked in born-rank
        order — growing back to full width therefore restores the exact
        original rank layout, and with it the original partition widths.
        The communicator is rebuilt over the new node set exactly as
        shrink recovery does (:meth:`Communicator.over`).

        Returns the new nodes.  Raises :class:`ClusterError` on a
        position that is still occupied.
        """
        born_ranks = sorted(int(r) for r in born_ranks)
        if not born_ranks:
            return []
        taken = {n.born_rank for n in self.nodes}
        clash = [r for r in born_ranks if r in taken]
        if clash:
            raise ClusterError(
                f"cannot grow onto occupied position(s) {clash}"
            )
        if len(set(born_ranks)) != len(born_ranks):
            raise ClusterError(f"duplicate grow position(s) in {born_ranks}")
        start = self.max_clock
        fresh = []
        for br in born_ranks:
            node = Node(br, self.node_spec, born_rank=br)
            node.clock.reset(start)
            fresh.append(node)
        self.nodes = sorted(self.nodes + fresh, key=lambda n: n.born_rank)
        for i, n in enumerate(self.nodes):
            n.rank = i
        self.comm = self.comm.over(self.nodes)
        return fresh

    def reset_clocks(self) -> None:
        for n in self.nodes:
            n.clock.reset()
        self.comm.comm_seconds = 0.0
        self.comm.comm_bytes = 0

    def __repr__(self) -> str:
        return (
            f"Cluster({self.name!r}, {self.num_nodes} nodes, "
            f"{self.total_cores} cores, {self.peak_tflops:.2f} TFLOP/s)"
        )


def make_cluster(
    kind: str,
    num_nodes: int,
    cores_per_node: int | None = None,
    network: NetworkSpec | None = None,
    topology: Topology | str | None = None,
    tuning=None,
) -> Cluster:
    """Build one of the paper's clusters by name.

    ``kind`` is ``"simd-focused"`` or ``"thread-focused"`` (Table 1).
    ``cores_per_node`` optionally caps each node's core count (the
    section 8.2 experiment caps the Thread-Focused node at 64 cores).
    ``num_nodes`` may not exceed the physical cluster size.
    ``topology`` is a :class:`~repro.cluster.topology.Topology` or a kind
    name (``"flat"``, ``"fat-tree"``, ``"ring"``, ``"torus"``); ``tuning``
    an optional :class:`repro.tuning.TuningCache`.
    """
    key = kind.lower()
    if key not in CLUSTERS:
        raise ClusterError(
            f"unknown cluster {kind!r}; available: {sorted(CLUSTERS)}"
        )
    spec = CLUSTERS[key]
    if num_nodes > spec.max_nodes:
        raise ClusterError(
            f"{spec.name} cluster has {spec.max_nodes} nodes; "
            f"requested {num_nodes}"
        )
    node = spec.node
    if cores_per_node is not None:
        node = node.limited_to_cores(cores_per_node)
    return Cluster(
        node,
        num_nodes,
        network=network or spec.network,
        name=f"{spec.name} x{num_nodes}",
        topology=topology,
        tuning=tuning,
    )
