"""The JIT-backed block executor.

:class:`JITBlockExecutor` is a drop-in :class:`~repro.interp.machine.
BlockExecutor` whose ``run_span`` calls the compiled closure instead of
walking the IR tree.  Everything else — argument binding, lane setup,
shared/local index helpers, bounds-check diagnostics — is inherited, so
the two backends share one implementation of every semantic edge the
closure delegates back to (``ctx._safe_indices`` and friends).

Compiled programs are memoized per specialization key for the process
lifetime, optionally backed by a persistent
:class:`~repro.interp.jit.cache.CompileCache`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InterpError, LaunchError
from repro.interp.counters import OpCounters
from repro.interp.grid import LaunchConfig
from repro.interp.jit.cache import CompileCache
from repro.interp.jit.compiler import (
    JITProgram,
    compile_closure,
    generate_source,
    program_key,
)
from repro.interp.machine import BlockExecutor
from repro.ir.stmt import Kernel

__all__ = ["JITBlockExecutor", "get_program", "clear_memo", "compile_stats"]

#: process-lifetime memo: specialization key -> compiled program
_memo: dict[str, JITProgram] = {}

#: observability for tests and the CLI gate
compile_stats = {
    "compiles": 0,
    "memo_hits": 0,
    "cache_hits": 0,
    "cache_rejects": 0,
}


def clear_memo() -> None:
    """Drop all memoized programs (tests use this to force recompiles)."""
    _memo.clear()


def get_program(
    kernel: Kernel,
    block,
    bounds_check: bool = True,
    cache: CompileCache | None = None,
) -> JITProgram:
    """Fetch-or-compile the specialization of ``kernel`` for this block
    shape.  Lookup order: per-object key memo (the structural
    fingerprint walks the whole IR — too slow to recompute per launch),
    in-process program memo, persistent cache (integrity-checked), fresh
    codegen.  Raises :class:`~repro.errors.JITUnsupported` when codegen
    declines."""
    bkey = (tuple(int(b) for b in block), bool(bounds_check))
    keys = getattr(kernel, "_jit_keys", None)
    if keys is None:
        keys = {}
        kernel._jit_keys = keys
    key = keys.get(bkey)
    if key is None:
        key = keys[bkey] = program_key(kernel, block, bounds_check)
    prog = _memo.get(key)
    if prog is not None:
        compile_stats["memo_hits"] += 1
        return prog
    if cache is not None:
        before = cache.rejected
        entry = cache.lookup(key)
        compile_stats["cache_rejects"] += cache.rejected - before
        if entry is not None:
            prog = JITProgram(
                key, kernel.name, entry["source"], entry["mask_free"],
                entry["features"], from_cache=True,
            )
            compile_stats["cache_hits"] += 1
    if prog is None:
        prog = JITProgram(key, kernel.name, *generate_source(kernel))
        compile_stats["compiles"] += 1
        if cache is not None:
            cache.record(
                key, prog.source, prog.mask_free, kernel.name, prog.features
            )
            if cache.path is not None:
                cache.save()
    prog.fn = compile_closure(prog.source, kernel.name)
    _memo[key] = prog
    return prog


class JITBlockExecutor(BlockExecutor):
    """Executes blocks through the compiled closure.

    Accepts neither ``sanitize`` nor ``profile`` — those hooks observe
    the tree-walking interpreter; :func:`repro.interp.machine.run_grid`
    routes hooked launches to the interpreter instead.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        args: dict[str, object],
        counters: OpCounters | None = None,
        bounds_check: bool = True,
        cache: CompileCache | None = None,
    ):
        # compile before binding args so an unsupported kernel falls back
        # without side effects
        self.program = get_program(
            kernel, config.block, bounds_check, cache=cache
        )
        super().__init__(
            kernel, config, args, counters, bounds_check=bounds_check
        )

    def run_span(self, block_ids) -> None:
        """Execute a set of blocks in one vectorized pass (compiled)."""
        block_ids = np.asarray(block_ids, dtype=np.int64).reshape(-1)
        if block_ids.size == 0:
            return
        if block_ids.size > 1 and not self._span_ok:
            raise InterpError(
                f"kernel {self.kernel.name!r} uses shared memory; blocks "
                "must run one at a time"
            )
        if block_ids.min() < 0 or block_ids.max() >= self.config.num_blocks:
            raise LaunchError(
                f"block ids out of range for grid {self.config.grid}"
            )
        self._setup_lanes(block_ids)
        self.program.fn(self, self.counters)
