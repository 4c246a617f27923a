"""The Allgather distributable analysis (paper section 6).

Two stages, mirroring the paper's compiler/runtime split:

**Static analysis** (:func:`analyze_kernel`) checks the three sufficient
conditions of section 6.2 on every global write site:

1. treating block index and block size as constants, the write index is
   affine in the thread index with a block-invariant coefficient and
   intercept;
2. enclosing conditionals are uniform, thread-symmetric, or *tail
   divergent*;
3. treating thread index and block size as constants, the write index is
   affine in the (1-D) block index with a positive coefficient.

and emits :class:`~repro.analysis.metadata.KernelMetadata` (the paper's
``tail_divergent`` / ``mem_ptr`` / ``unit_size`` block in Figure 6).

**Launch-time finalization** (:func:`finalize_plan`) substitutes the
concrete grid, block size and scalar arguments into the symbolic record,
resolves which blocks the tail guards demote to *callback blocks*,
numerically verifies that each regular block's write footprint is a dense
interval exactly ``unit_elems`` long (the balanced / disjoint / no-gap
criteria of the formal definition), and produces the three-phase
:class:`~repro.analysis.metadata.DistributionPlan`.

Both stages are *sufficient, not necessary* (section 6.2): any failure
degrades to a replicated plan — every node executes every block, which is
always correct and never communicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.affine import (
    CTAID_SYMBOLS,
    TID_SYMBOLS,
    Poly,
    param_symbol,
)
from repro.analysis.guards import Guard, GuardKind
from repro.analysis.metadata import (
    BufferPlan,
    DistributionPlan,
    KernelMetadata,
    Verdict,
)
from repro.analysis.writes import WriteRecord, collect_writes
from repro.interp.grid import LaunchConfig
from repro.ir.stmt import Kernel

__all__ = ["KernelAnalysis", "analyze_kernel", "finalize_plan"]

#: Cap on enumerated (loop-combination x lane) footprint points per record
#: during launch-time verification.
MAX_FOOTPRINT_POINTS = 1 << 22

#: Cap on finalized plans remembered per analysed kernel (oldest evicted).
MAX_PLANS = 64


@dataclass
class KernelAnalysis:
    """Static analysis result: paper-visible metadata plus the raw
    write records the runtime needs for launch-time finalization."""

    kernel: Kernel
    metadata: KernelMetadata
    records: list[WriteRecord]
    #: finalized plans, see :func:`finalize_plan` (bounded FIFO)
    plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def distributable(self) -> bool:
        return self.metadata.distributable


def _check_record(rec: WriteRecord) -> tuple[str | None, Poly | None, bool]:
    """Static checks for one write record.

    Returns ``(failure_reason, unit_elems_poly, is_tail_guarded)``;
    ``failure_reason`` is ``None`` when all conditions hold.
    """
    if rec.is_atomic:
        return (f"atomic write to {rec.buffer!r} (cross-block races)", None, False)
    if rec.in_while:
        return (f"write to {rec.buffer!r} inside a while loop", None, False)
    if not rec.analyzable_loops:
        return (
            f"write to {rec.buffer!r} inside a loop with thread-variant or "
            "data-dependent trip count",
            None,
            False,
        )
    idx = rec.index
    if idx is None:
        return (
            f"write index into {rec.buffer!r} is indirect or non-affine",
            None,
            False,
        )
    idx_syms = idx.symbols()
    index_vars = TID_SYMBOLS | CTAID_SYMBOLS
    if not idx.is_linear_in(index_vars):
        return (
            f"write index into {rec.buffer!r} is nonlinear in thread/block indices",
            None,
            False,
        )
    # condition 1: affine in the thread index with invariant coefficients
    for s in idx_syms & TID_SYMBOLS:
        if idx.coeff(s).symbols() & (index_vars | _loop_syms(idx)):
            return (
                f"thread-index coefficient of the write into {rec.buffer!r} "
                "is not block-invariant",
                None,
                False,
            )
    # condition 3: affine in the (linear) block index with a positive
    # coefficient.  Multi-dimensional grids are accepted when the axis
    # coefficients are consistent with x-fastest linearization, i.e. the
    # index is affine in blockIdx.y*gridDim.x + blockIdx.x (+ z term)
    # with the x coefficient — the idiom 2-D kernels use explicitly.
    c_bid = idx.coeff("ctaid.x") if "ctaid.x" in idx_syms else Poly()
    if "ctaid.x" in idx_syms:
        for axis in ("ctaid.x", "ctaid.y", "ctaid.z"):
            if axis in idx_syms and (
                idx.coeff(axis).symbols() & (index_vars | _loop_syms(idx))
            ):
                return (
                    f"block-index coefficient of the write into "
                    f"{rec.buffer!r} is not invariant",
                    None,
                    False,
                )
        if not c_bid.provably_positive():
            return (
                f"write interval of {rec.buffer!r} does not grow with the "
                "block index (non-positive coefficient)",
                None,
                False,
            )
        gx = Poly.sym("nctaid.x")
        gy = Poly.sym("nctaid.y")
        if "ctaid.y" in idx_syms and idx.coeff("ctaid.y") != c_bid * gx:
            return (
                f"write index into {rec.buffer!r} does not advance linearly "
                "with the linearized block id (blockIdx.y stride mismatch)",
                None,
                False,
            )
        if "ctaid.z" in idx_syms and idx.coeff("ctaid.z") != c_bid * gx * gy:
            return (
                f"write index into {rec.buffer!r} does not advance linearly "
                "with the linearized block id (blockIdx.z stride mismatch)",
                None,
                False,
            )
    else:
        return (
            f"write interval of {rec.buffer!r} does not advance with the "
            "block index (blocks overlap)",
            None,
            False,
        )
    # condition 2: enclosing conditionals
    tail = False
    for g in rec.guards:
        if g.kind is GuardKind.OPAQUE:
            return (
                f"write to {rec.buffer!r} guarded by a data-dependent condition",
                None,
                False,
            )
        if g.kind is GuardKind.BLOCK_VARIANT:
            return (
                f"write to {rec.buffer!r} guarded by a block-variant condition",
                None,
                False,
            )
        if g.kind is GuardKind.TAIL:
            tail = True
        if g.kind in (GuardKind.UNIFORM, GuardKind.THREAD_SYMMETRIC) and g.poly is None:
            return (
                f"write to {rec.buffer!r} guarded by an unevaluable condition",
                None,
                False,
            )
    return (None, c_bid, tail)


def _loop_syms(p: Poly) -> set[str]:
    return {s for s in p.symbols() if s.startswith("loop:")}


def analyze_kernel(kernel: Kernel) -> KernelAnalysis:
    """Run the static Allgather distributable analysis on a kernel."""
    records = collect_writes(kernel)
    meta = KernelMetadata(kernel_name=kernel.name, verdict=Verdict.DISTRIBUTABLE)
    units: dict[str, Poly] = {}
    for rec in records:
        reason, c_bid, tail = _check_record(rec)
        if reason is not None:
            meta.verdict = Verdict.NOT_DISTRIBUTABLE
            if reason not in meta.reasons:
                meta.reasons.append(reason)
            continue
        meta.tail_divergent |= tail
        if rec.buffer in units:
            if units[rec.buffer] != c_bid:
                meta.verdict = Verdict.NOT_DISTRIBUTABLE
                r = (
                    f"writes to {rec.buffer!r} advance at different rates "
                    "per block"
                )
                if r not in meta.reasons:
                    meta.reasons.append(r)
        else:
            units[rec.buffer] = c_bid  # type: ignore[assignment]
            meta.elem_sizes[rec.buffer] = rec.elem_size
    if meta.verdict is Verdict.DISTRIBUTABLE:
        meta.mem_ptrs = sorted(units)
        meta.unit_elems = {b: units[b] for b in meta.mem_ptrs}
    else:
        meta.mem_ptrs = []
        meta.unit_elems = {}
        meta.tail_divergent = False
    return KernelAnalysis(kernel=kernel, metadata=meta, records=records)


# ---------------------------------------------------------------------------
# launch-time finalization
# ---------------------------------------------------------------------------

def _symbol_values(
    config: LaunchConfig, scalar_args: dict[str, object]
) -> dict[str, object]:
    gx, gy, gz = config.grid
    bx, by, bz = config.block
    vals: dict[str, object] = {
        "ntid.x": bx,
        "ntid.y": by,
        "ntid.z": bz,
        "nctaid.x": gx,
        "nctaid.y": gy,
        "nctaid.z": gz,
    }
    for name, v in scalar_args.items():
        fv = float(v)
        if fv.is_integer():
            vals[param_symbol(name)] = int(fv)
    return vals


def _replicated(config: LaunchConfig, num_nodes: int, reason: str) -> DistributionPlan:
    return DistributionPlan(
        num_blocks=config.num_blocks,
        num_nodes=num_nodes,
        replicated=True,
        reason=reason,
    )


def _missing_symbols(polys: list[Poly], values: dict[str, object]) -> set[str]:
    need: set[str] = set()
    for p in polys:
        need |= p.symbols()
    return {
        s
        for s in need
        if s not in values and not s.startswith("loop:") and s not in TID_SYMBOLS
        and s not in CTAID_SYMBOLS
    }


def finalize_plan(
    analysis: KernelAnalysis,
    config: LaunchConfig,
    scalar_args: dict[str, object],
    num_nodes: int,
) -> DistributionPlan:
    """Concretize the static analysis into a three-phase execution plan.

    Any check that cannot be confirmed numerically degrades to a
    replicated plan (still correct, no communication).

    The (frozen) plan is a pure function of its arguments and is kept on
    ``analysis`` per ``(config, num_nodes, typed scalar args)``: a repeat
    launch — the next served job, the next iteration — reuses it, and a
    post-crash replan at a smaller node count is just another key.
    Unhashable scalar arguments bypass the memo.
    """
    key = (
        config,
        num_nodes,
        tuple((n, type(v), v) for n, v in scalar_args.items()),
    )
    try:
        plan = analysis.plans.get(key)
    except TypeError:
        return _build_plan(analysis, config, scalar_args, num_nodes)
    if plan is None:
        plan = _build_plan(analysis, config, scalar_args, num_nodes)
        if len(analysis.plans) >= MAX_PLANS:
            del analysis.plans[next(iter(analysis.plans))]
        analysis.plans[key] = plan
    return plan


def _build_plan(
    analysis: KernelAnalysis,
    config: LaunchConfig,
    scalar_args: dict[str, object],
    num_nodes: int,
) -> DistributionPlan:
    meta = analysis.metadata
    B = config.num_blocks
    if num_nodes <= 1:
        return _replicated(config, num_nodes, "single node")
    if not meta.distributable:
        return _replicated(
            config, num_nodes, meta.reasons[0] if meta.reasons else "not distributable"
        )
    gx, gy, gz = config.grid
    if gy > 1 or gz > 1:
        # higher grid dimensions are fine only when every write really
        # advances with them (the static linearization check passed on
        # the axes the index mentions; an axis the index does NOT
        # mention means blocks along it write the same interval)
        for rec in analysis.records:
            syms = rec.index.symbols() if rec.index is not None else set()
            if (gy > 1 and "ctaid.y" not in syms) or (
                gz > 1 and "ctaid.z" not in syms
            ):
                return _replicated(
                    config,
                    num_nodes,
                    f"blocks along higher grid dimensions overlap on "
                    f"{rec.buffer!r}",
                )
    if not analysis.records:
        # no global writes at all: splitting is trivially consistent
        p_size = B // num_nodes
        if p_size == 0:
            return _replicated(config, num_nodes, "fewer blocks than nodes")
        return DistributionPlan(
            num_blocks=B,
            num_nodes=num_nodes,
            replicated=False,
            full_blocks=B,
            p_size=p_size,
            buffers=(),
        )

    values = _symbol_values(config, scalar_args)
    all_polys = [r.index for r in analysis.records if r.index is not None]
    all_polys += [g.poly for r in analysis.records for g in r.guards if g.poly]
    missing = _missing_symbols(all_polys, values)
    if missing:
        return _replicated(
            config,
            num_nodes,
            f"non-integral or unavailable parameters in index/guards: "
            f"{sorted(missing)}",
        )

    # ---- resolve tail guards: longest prefix of fully-passing blocks ----
    full = np.ones(B, dtype=bool)
    bids = np.arange(B, dtype=np.int64)
    worst_tid = {
        "tid.x": config.block[0] - 1,
        "tid.y": config.block[1] - 1,
        "tid.z": config.block[2] - 1,
    }
    seen_tail = set()
    for rec in analysis.records:
        for g in rec.guards:
            if g.kind is not GuardKind.TAIL or g in seen_tail:
                continue
            seen_tail.add(g)
            # TAIL implies positive thread coefficients: the worst thread
            # is the last one on each axis
            v = dict(values)
            v.update(worst_tid)
            v["ctaid.x"] = bids % config.grid[0]
            v["ctaid.y"] = (bids // config.grid[0]) % config.grid[1]
            v["ctaid.z"] = bids // (config.grid[0] * config.grid[1])
            full &= np.asarray(g.evaluate(v))
    full_blocks = B if full.all() else int(np.argmin(full))

    p_size = full_blocks // num_nodes
    if p_size == 0:
        return _replicated(
            config, num_nodes, "fewer fully-covered blocks than nodes"
        )

    # ---- enumerate block 0's write footprint per buffer -----------------
    tx, ty, tz = config.thread_coords()
    lane_values = dict(values)
    lane_values.update(
        {"tid.x": tx, "tid.y": ty, "tid.z": tz, "ctaid.x": 0, "ctaid.y": 0,
         "ctaid.z": 0}
    )
    footprints: dict[str, list[np.ndarray]] = {}
    unit_vals: dict[str, int] = {}
    for rec in analysis.records:
        unit = int(meta.unit_elems[rec.buffer].eval(values))
        if rec.buffer in unit_vals and unit_vals[rec.buffer] != unit:
            return _replicated(
                config, num_nodes, f"inconsistent unit size for {rec.buffer!r}"
            )
        unit_vals[rec.buffer] = unit
        loop_syms = {lp.symbol for lp in rec.loops}
        static_guards = [
            g for g in rec.guards if not (g.poly.symbols() & loop_syms)
        ]
        loop_guards = [g for g in rec.guards if g.poly.symbols() & loop_syms]
        mask = np.ones(config.threads_per_block, dtype=bool)
        active = True
        for g in static_guards:
            gv = g.evaluate(lane_values)
            if np.ndim(gv) == 0:
                if not bool(gv):
                    active = False
                    break
            else:
                mask &= np.asarray(gv, dtype=bool)
        if not active or not mask.any():
            continue
        # enumerate loop-iteration combinations
        ranges: list[range] = []
        shaping = rec.index.symbols() | {
            s for g in loop_guards for s in g.poly.symbols()
        }
        for lp in rec.loops:
            trips = _trip_range(lp, values)
            if lp.symbol in shaping:
                ranges.append(trips)
            else:
                # loop does not shape the write; one iteration reproduces
                # the footprint (repeated identical writes)
                ranges.append(range(min(1, len(trips))))
        combos = math.prod(len(r) for r in ranges) if ranges else 1
        if combos * int(mask.sum()) > MAX_FOOTPRINT_POINTS:
            return _replicated(
                config, num_nodes, "write footprint too large to verify"
            )
        if combos == 0:
            continue
        pieces = footprints.setdefault(rec.buffer, [])
        for combo in _product(ranges):
            v = dict(lane_values)
            for lp, lv in zip(rec.loops, combo):
                v[lp.symbol] = lv
            m = mask
            for g in loop_guards:
                gv = np.asarray(g.evaluate(v), dtype=bool)
                m = m & np.broadcast_to(gv, m.shape)
            if not m.any():
                continue
            idx = np.asarray(rec.index.eval(v))
            idx = np.broadcast_to(idx, m.shape)
            pieces.append(idx[m])

    # ---- density / disjointness verification ----------------------------
    plans = []
    for buf, pieces in footprints.items():
        offs = np.unique(np.concatenate(pieces))
        unit = unit_vals[buf]
        if unit <= 0:
            return _replicated(
                config, num_nodes, f"non-positive unit size for {buf!r}"
            )
        base = int(offs[0])
        dense = len(offs) == unit and int(offs[-1]) - base == unit - 1
        if not dense:
            return _replicated(
                config,
                num_nodes,
                f"block write footprint of {buf!r} is not a dense interval "
                f"of length {unit}",
            )
        plans.append(
            BufferPlan(
                buffer=buf,
                elem_size=meta.elem_sizes[buf],
                unit_elems=unit,
                base_elem=base,
            )
        )
    plans.sort(key=lambda p: p.buffer)
    return DistributionPlan(
        num_blocks=B,
        num_nodes=num_nodes,
        replicated=False,
        full_blocks=full_blocks,
        p_size=p_size,
        buffers=tuple(plans),
    )


def _trip_range(lp, values) -> range:
    start = int(lp.start.eval(values))
    stop = int(lp.stop.eval(values))
    step = int(lp.step.eval(values))
    if step == 0:
        return range(0)
    return range(start, stop, step)


def _product(ranges: list[range]):
    if not ranges:
        yield ()
        return
    import itertools

    yield from itertools.product(*ranges)
