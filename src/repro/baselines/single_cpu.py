"""Single-CPU migration baseline (CuPBoP-equivalent).

The paper builds CuCC on top of CuPBoP and uses CuPBoP's single-node
execution as the baseline: all GPU blocks run on one CPU node with the
same block-wrapping transformation, no communication.  Here this is
exactly the CuCC runtime on a one-node cluster — which is also how the
paper frames it ("the single-node performance is equivalent to that of
CuPBoP", section 5).
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.hw.cpu import CPUSpec
from repro.hw.specs import INFINIBAND_100G
from repro.runtime.cucc import CuCCRuntime

__all__ = ["SingleCPURuntime"]


class SingleCPURuntime(CuCCRuntime):
    """CuPBoP-style execution of a migrated GPU program on one CPU node."""

    def __init__(self, node_spec: CPUSpec, **runtime_options):
        """``runtime_options`` forward to :class:`CuCCRuntime`."""
        cluster = Cluster(
            node_spec, 1, network=INFINIBAND_100G,
            name=f"single {node_spec.name}",
        )
        super().__init__(cluster, **runtime_options)
