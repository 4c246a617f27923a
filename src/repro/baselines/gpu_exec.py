"""GPU execution baseline.

Executes the *original* (untransformed) GPU kernel functionally with the
SPMD interpreter over a single memory space, and models its runtime with
the GPU roofline/wave model.  This is the comparison side of the paper's
Figures 11 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.simtime import SimClock
from repro.hw.gpu import GPUSpec
from repro.hw.perfmodel import DEFAULT_PARAMS, ModelParams, gpu_time
from repro.interp.counters import OpCounters
from repro.interp.grid import LaunchConfig
from repro.interp.machine import BlockExecutor
from repro.ir.stmt import Kernel
from repro.runtime.memory_manager import DeviceHeap

__all__ = ["GPUDevice", "GPULaunchRecord"]


@dataclass
class GPULaunchRecord:
    """Trace entry for one GPU kernel launch."""

    kernel_name: str
    config: LaunchConfig
    time: float
    counters: OpCounters


class GPUDevice(DeviceHeap):
    """A simulated GPU: one memory space, wave-scheduled blocks."""

    def __init__(
        self,
        spec: GPUSpec,
        params: ModelParams = DEFAULT_PARAMS,
        bounds_check: bool = True,
    ):
        super().__init__()
        self.spec = spec
        self.params = params
        self.bounds_check = bounds_check
        self.clock = SimClock()
        self.launches: list[GPULaunchRecord] = []

    # -- launch --------------------------------------------------------------
    def launch(
        self, kernel: Kernel, grid, block, args: dict[str, object]
    ) -> GPULaunchRecord:
        """Run all blocks of a launch; advance the device clock."""
        config = LaunchConfig.make(grid, block)
        run_args = self.bind(kernel, args)
        working_set = sum(
            run_args[p.name].nbytes for p in kernel.params if p.is_pointer
        )
        counters = OpCounters()
        ex = BlockExecutor(
            kernel, config, run_args, counters, bounds_check=self.bounds_check
        )
        ex.run_blocks(range(config.num_blocks))
        t = gpu_time(
            self.spec,
            counters,
            config.num_blocks,
            config.threads_per_block,
            working_set_bytes=working_set,
            params=self.params,
        )
        self.clock.advance(t)
        record = GPULaunchRecord(
            kernel_name=kernel.name, config=config, time=t, counters=counters
        )
        self.launches.append(record)
        return record
