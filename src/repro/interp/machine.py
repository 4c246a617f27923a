"""Vectorized SPMD interpreter: executes GPU blocks as NumPy lane vectors.

This module is the functional stand-in for the CPU code CuCC's compiler
generates.  The paper's transformation wraps a GPU block into a CPU
function whose inner thread loop is vectorized with SIMD instructions
(Listing 2); here the "SIMD lanes" are NumPy vectors spanning all
threads of the block, and divergence is handled with boolean masks:

* ``if``/``else`` execute both arms under complementary masks;
* ``return`` retires lanes for the rest of the kernel;
* ``break``/``continue`` retire lanes for the rest of the loop/iteration;
* loops with thread-invariant bounds run as ordinary Python loops, while
  thread-variant bounds iterate until every lane's trip count is done;
* ``__syncthreads()`` is trivially satisfied because statements execute
  in lockstep across the whole block (kernels where threads reach
  textually different barriers are UB in CUDA and unsupported here).

**Block spans.** Blocks are independent even at statement granularity
(barriers are intra-block), so the executor can evaluate a *span* of
consecutive blocks in a single vectorized pass: ``blockIdx`` becomes a
lane vector, and each block in the span gets its own segment of every
``__shared__`` array (shared indices are bounds-checked against the
per-block extent before being offset into the segment).  This changes
nothing semantically — it is the interpreter's analogue of loop fusion —
but makes realistic problem sizes tractable in pure Python.

Every executed operation is metered into :class:`~repro.interp.counters.
OpCounters`, including 64-byte-line-granular memory traffic (so strided
and coalesced access are distinguished); the hardware models convert
these counts into simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import InterpError, LaunchError
from repro.interp.counters import OpCounters
from repro.interp.grid import LaunchConfig
from repro.interp.intrinsics import apply_intrinsic
from repro.ir.expr import (
    BinOp,
    Call,
    Cast,
    Const,
    Expr,
    Load,
    Param,
    Select,
    SReg,
    SRegKind,
    UnOp,
    Var,
)
from repro.ir.stmt import (
    AllocLocal,
    AllocShared,
    Assign,
    Atomic,
    Break,
    Continue,
    For,
    If,
    Kernel,
    Return,
    Stmt,
    Store,
    SyncThreads,
    While,
)
from repro.ir.types import AddressSpace, DType, PointerType, common_type
from repro.ir.visitor import contains, iter_stmts

__all__ = [
    "BlockExecutor",
    "check_backend",
    "make_executor",
    "run_grid",
    "span_eligible",
    "apply_atomic_op",
]

#: Safety cap on data-dependent loop iterations per loop execution.
MAX_LOOP_ITERS = 50_000_000

#: Default block-span width used by ``run_grid`` for eligible kernels.
DEFAULT_SPAN = 256


def span_eligible(kernel: Kernel) -> bool:
    """Whether a kernel may be executed in multi-block spans.

    Always true: blocks never interact at statement granularity, shared
    memory is segmented per block within a span, and barriers are no-ops
    under lockstep execution.  Kept as an explicit predicate (and tested)
    in case future IR features break the property.
    """
    return True


def _c_int_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C integer division (truncate toward zero); division by zero -> 0.

    Inactive lanes may legitimately divide by zero (the guard is the
    mask), so zero divisors must not blow up.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        safe_b = np.where(b != 0, b, 1)
        q = np.floor_divide(a, safe_b)
        q = np.where(b != 0, q, 0)
        r = a - q * b
        needs_adjust = (r != 0) & ((a < 0) != (b < 0)) & (b != 0)
    return q + needs_adjust.astype(np.asarray(q).dtype)


def _c_int_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C integer remainder (sign follows the dividend)."""
    q = _c_int_div(a, b)
    return np.where(b != 0, a - q * b, 0).astype(np.result_type(a, b), copy=False)


def apply_atomic_op(
    arr: np.ndarray,
    safe_l: np.ndarray,
    val_l: np.ndarray,
    op: str,
    cmp_l: np.ndarray | None = None,
    old: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> None:
    """Apply one atomic instruction's updates for the active lanes.

    ``safe_l``/``val_l``/``cmp_l`` are already reduced to the active
    lanes; ``old`` is the span-wide pre-gathered old-value array to
    refine when the result is observed (``None`` when it is not), with
    ``mask`` the active-lane mask it is indexed through.

    When several active lanes hit the same location AND the old value is
    observed, a vectorized pre-gather would hand every colliding lane
    the same "old"; CUDA guarantees each lane sees the value left by
    some serial interleaving.  Fall back to a per-lane loop (lane order
    is one valid interleaving).  Shared between the interpreter and the
    JIT backend so both apply bit-identical updates by construction.
    """
    serial = (
        old is not None
        and safe_l.size > 1
        and np.unique(safe_l).size < safe_l.size
    )
    if serial:
        act = np.flatnonzero(mask)
        with np.errstate(all="ignore"):
            for i, a_idx in enumerate(safe_l):
                cur = arr[a_idx]
                old[act[i]] = cur
                if op == "add":
                    arr[a_idx] = cur + val_l[i]
                elif op == "sub":
                    arr[a_idx] = cur - val_l[i]
                elif op == "min":
                    arr[a_idx] = np.minimum(cur, val_l[i])
                elif op == "max":
                    arr[a_idx] = np.maximum(cur, val_l[i])
                elif op == "exch":
                    arr[a_idx] = val_l[i]
                elif op == "cas":
                    if cur == cmp_l[i]:
                        arr[a_idx] = val_l[i]
                else:  # pragma: no cover - guarded by Atomic.__post_init__
                    raise InterpError(f"unsupported atomic {op!r}")
    elif op == "add":
        np.add.at(arr, safe_l, val_l)
    elif op == "sub":
        np.subtract.at(arr, safe_l, val_l)
    elif op == "min":
        np.minimum.at(arr, safe_l, val_l)
    elif op == "max":
        np.maximum.at(arr, safe_l, val_l)
    elif op == "exch":
        arr[safe_l] = val_l
    elif op == "cas":
        for i, a_idx in enumerate(safe_l):
            if arr[a_idx] == cmp_l[i]:
                arr[a_idx] = val_l[i]
    else:  # pragma: no cover - guarded by Atomic.__post_init__
        raise InterpError(f"unsupported atomic {op!r}")


class LaneGeometry(NamedTuple):
    """The lane layout of one span: every array read-only, shared by
    every launch of the kernel that runs the same blocks."""

    #: ``threadIdx`` / ``blockIdx`` per lane: the ``tpb``-long thread
    #: template tiled ``span`` times, each block coordinate repeated
    #: ``tpb`` times
    lane_sregs: dict[SRegKind, np.ndarray]
    #: the compact form of ``blockIdx``: one coordinate per block
    block_sregs: dict[SRegKind, np.ndarray]
    lane_ids: np.ndarray
    #: block position of each lane within the span; ``None`` for span 1
    block_lane_pos: np.ndarray | None


class LaneMemo:
    """Lane geometry by block-id vector, kept on the kernel object the
    way compile products are: it is a pure function of the launch
    configuration and the block ids, and a served kernel sees the same
    few of each for its whole life.  The thread half depends on the span
    length alone and is shared between spans.  Bounded by array bytes —
    past the budget the memo starts over."""

    BUDGET = 32 << 20

    def __init__(self) -> None:
        self._threads: dict[tuple, tuple] = {}
        self._spans: dict[tuple, LaneGeometry] = {}
        self._nbytes = 0

    def _keep(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            if a.flags.writeable:  # a shared vector is counted once
                a.flags.writeable = False
                self._nbytes += a.nbytes

    def get(self, config: LaunchConfig, block_ids: np.ndarray) -> LaneGeometry:
        key = (config, block_ids.tobytes())
        geo = self._spans.get(key)
        if geo is not None:
            return geo
        if self._nbytes > self.BUDGET:
            self._threads.clear()
            self._spans.clear()
            self._nbytes = 0
        span, tpb = block_ids.shape[0], config.threads_per_block
        threads = self._threads.get((config.block, span))
        if threads is None:
            # a coordinate along an extent-1 axis is 0 on every lane:
            # one shared vector stands for all of them (read-only)
            zeros = np.zeros(span * tpb, dtype=np.int32)
            tid = tuple(
                np.tile(t, span) if extent > 1 else zeros
                for t, extent in zip(config.thread_coords(), config.block)
            )
            lane_ids = np.arange(span * tpb, dtype=np.int64)
            pos = (
                np.repeat(np.arange(span, dtype=np.int64), tpb)
                if span > 1 else None
            )
            self._keep(zeros, *tid, lane_ids, *(() if pos is None else (pos,)))
            threads = self._threads[config.block, span] = (
                zeros, tid, lane_ids, pos
            )
        zeros, tid, lane_ids, pos = threads
        gx, gy, _gz = config.grid
        bid = (
            (block_ids % gx).astype(np.int32),
            ((block_ids // gx) % gy).astype(np.int32),
            (block_ids // (gx * gy)).astype(np.int32),
        )
        ctaid = tuple(
            np.repeat(b, tpb) if extent > 1 else zeros
            for b, extent in zip(bid, config.grid)
        )
        self._keep(*bid, *ctaid)
        kinds = (SRegKind.CTAID_X, SRegKind.CTAID_Y, SRegKind.CTAID_Z)
        geo = self._spans[key] = LaneGeometry(
            lane_sregs={
                SRegKind.TID_X: tid[0],
                SRegKind.TID_Y: tid[1],
                SRegKind.TID_Z: tid[2],
                **dict(zip(kinds, ctaid)),
            },
            block_sregs=dict(zip(kinds, bid)),
            lane_ids=lane_ids,
            block_lane_pos=pos,
        )
        return geo


@dataclass
class _LoopFrame:
    """Per-loop bookkeeping for break masks."""

    break_mask: np.ndarray = None  # type: ignore[assignment]


class BlockExecutor:
    """Executes GPU blocks of one kernel launch against a memory space.

    Args:
        kernel: the IR kernel to run.
        config: launch geometry.
        args: mapping of parameter name to value — a 1-D NumPy array of
            the pointer's element dtype for pointer params (this *is* the
            memory the kernel reads/writes), or a scalar for value params.
        counters: optional accumulator for dynamic op counts.
        bounds_check: verify active-lane memory indices are in range
            (clear error messages instead of silent wraparound).
        sanitize: attach the dynamic sanitizer — ``True`` creates a fresh
            :class:`~repro.sanitize.dynamic.DynamicSanitizer`; passing an
            existing instance shares it (the runtime does this so one
            launch accumulates a single report across node executors).
            Sanitizer hooks never touch ``counters``, so modeled times
            are identical with and without it; memory faults are recorded
            as findings (and clamped) instead of raising.
        profile: per-line count attribution — a line sink (something with
            ``line(loc) -> OpCounters``, see
            :mod:`repro.obs.profiler`), a whole
            :class:`~repro.obs.profiler.Profiler` (a ``grid`` phase sink
            is taken from it), or falsy (default) for no attribution.
            Every count booked into ``counters`` is mirrored into the
            bucket of the statement's source line, so per-line counts
            sum exactly to the aggregate; the aggregate itself (and
            therefore modeled time) is untouched.
    """

    def __init__(
        self,
        kernel: Kernel,
        config: LaunchConfig,
        args: dict[str, object],
        counters: OpCounters | None = None,
        bounds_check: bool = True,
        sanitize: object = False,
        profile: object = None,
    ):
        self.kernel = kernel
        self.config = config
        self.counters = counters
        self.bounds_check = bounds_check
        self._san = None
        if sanitize:
            # deferred import: repro.sanitize.dynamic imports nothing from
            # the interpreter, but keeping it out of module scope means a
            # sanitize=False run never pays for the subsystem
            from repro.sanitize.dynamic import DynamicSanitizer

            self._san = (
                sanitize
                if isinstance(sanitize, DynamicSanitizer)
                else DynamicSanitizer(kernel.name)
            )
        self._prof = None
        self._prof_line = None  # current statement's per-line bucket
        if profile:
            # duck-typed: a Profiler grows a standalone "grid" phase
            # sink; anything else is used as the sink directly (the
            # runtime passes one per-phase sink shared across ranks)
            sinkf = getattr(profile, "sink", None)
            self._prof = (
                sinkf(kernel, "grid") if sinkf is not None else profile
            )
        self._span_ok = span_eligible(kernel)
        self._span_len = 1
        self._block_lane_pos: np.ndarray | None = None
        self._shared_seg: dict[str, int] = {}

        self._buffers: dict[str, np.ndarray] = {}
        self._scalars: dict[str, object] = {}
        self._bind_args(args)

        memo = kernel.__dict__.get("_lane_memo")
        if memo is None:
            memo = kernel._lane_memo = LaneMemo()
        self._lane_memo = memo
        self._static_sregs = {
            SRegKind.NTID_X: np.int32(config.block[0]),
            SRegKind.NTID_Y: np.int32(config.block[1]),
            SRegKind.NTID_Z: np.int32(config.block[2]),
            SRegKind.NCTAID_X: np.int32(config.grid[0]),
            SRegKind.NCTAID_Y: np.int32(config.grid[1]),
            SRegKind.NCTAID_Z: np.int32(config.grid[2]),
        }

        # per-run lane state, set by _setup_lanes()
        self.nlanes = 0
        self._lane_sregs: dict[SRegKind, np.ndarray] = {}
        self._env: dict[str, object] = {}
        self._var_types: dict[str, DType] = {}
        self._shared: dict[str, np.ndarray] = {}
        self._ret_mask: np.ndarray = np.zeros(0, dtype=bool)
        self._frames: list[_LoopFrame] = []
        self._cur_n = 0.0

    @property
    def sanitizer(self):
        """The attached dynamic sanitizer, or ``None``."""
        return self._san

    # ------------------------------------------------------------------
    # argument binding
    # ------------------------------------------------------------------
    def _bind_args(self, args: dict[str, object]) -> None:
        for p in self.kernel.params:
            if p.name not in args:
                raise LaunchError(
                    f"kernel {self.kernel.name!r}: missing argument {p.name!r}"
                )
            v = args[p.name]
            if p.is_pointer:
                elem = p.type.elem  # type: ignore[union-attr]
                if not isinstance(v, np.ndarray) or v.ndim != 1:
                    raise LaunchError(
                        f"argument {p.name!r} must be a 1-D NumPy array"
                    )
                if v.dtype != elem.np:
                    raise LaunchError(
                        f"argument {p.name!r}: dtype {v.dtype} does not match "
                        f"declared element type {elem.name} ({elem.np})"
                    )
                self._buffers[p.name] = v
            else:
                if isinstance(v, np.ndarray) and v.ndim != 0:
                    raise LaunchError(
                        f"argument {p.name!r} is a scalar parameter but got an array"
                    )
                self._scalars[p.name] = p.type.np.type(v)  # type: ignore[union-attr]
        extra = set(args) - {p.name for p in self.kernel.params}
        if extra:
            raise LaunchError(
                f"kernel {self.kernel.name!r}: unknown arguments {sorted(extra)}"
            )

    # ------------------------------------------------------------------
    # lane setup + public entry points
    # ------------------------------------------------------------------
    def _setup_lanes(self, block_ids: np.ndarray) -> None:
        span = block_ids.shape[0]
        tpb = self.config.threads_per_block
        self.nlanes = span * tpb
        self._span_len = span
        self._shared_seg = {}
        geo = self._lane_memo.get(self.config, block_ids)
        self._block_lane_pos = geo.block_lane_pos
        self._lane_ids = geo.lane_ids
        self._lane_sregs = geo.lane_sregs
        self._block_sregs = geo.block_sregs
        self._local: dict[str, np.ndarray] = {}
        self._local_seg: dict[str, int] = {}
        self._env = {}
        self._var_types = {}
        self._shared = {}
        self._ret_mask = np.zeros(self.nlanes, dtype=bool)
        self._frames = []
        if self._san is not None:
            self._san.on_span(
                span=span,
                tpb=tpb,
                lane_thread=np.tile(np.arange(tpb, dtype=np.int64), span),
                lane_block=np.repeat(block_ids, tpb),
            )

    def run_span(self, block_ids) -> None:
        """Execute a set of blocks in one vectorized pass."""
        block_ids = np.asarray(block_ids, dtype=np.int64).reshape(-1)
        if block_ids.size == 0:
            return
        if block_ids.size > 1 and not self._span_ok:
            raise InterpError(
                f"kernel {self.kernel.name!r} uses shared memory; blocks must "
                "run one at a time"
            )
        if block_ids.min() < 0 or block_ids.max() >= self.config.num_blocks:
            raise LaunchError(
                f"block ids out of range for grid {self.config.grid}"
            )
        self._setup_lanes(block_ids)
        mask = np.ones(self.nlanes, dtype=bool)
        with np.errstate(all="ignore"):
            self._exec_body(self.kernel.body, mask)

    def run_block(self, linear_bid: int) -> None:
        """Execute all threads of one GPU block to completion."""
        self.run_span(np.array([linear_bid], dtype=np.int64))

    def run_blocks(self, linear_bids, span: int | None = None) -> None:
        """Execute a sequence of blocks, in spans when the kernel allows.

        ``span=None`` picks :data:`DEFAULT_SPAN` for span-eligible kernels
        and 1 otherwise.
        """
        ids = np.fromiter((int(b) for b in linear_bids), dtype=np.int64)
        if span is None:
            span = DEFAULT_SPAN if self._span_ok else 1
        span = max(1, span) if self._span_ok else 1
        for lo in range(0, ids.size, span):
            self.run_span(ids[lo : lo + span])

    # ------------------------------------------------------------------
    # counting helpers
    # ------------------------------------------------------------------
    def _count(self, kind: str, amount: float) -> None:
        if self.counters is not None and amount:
            setattr(self.counters, kind, getattr(self.counters, kind) + amount)
            line = self._prof_line
            if line is not None:
                setattr(line, kind, getattr(line, kind) + amount)

    def _count_lines(self, idx, mask: np.ndarray, elem_size: int) -> None:
        """Meter 64-byte-line-granular traffic of one access statement.

        Uses a span estimate rather than an exact distinct-line count:
        ``min(active lanes, touched address span / 64 + 1)`` — exact for
        contiguous, strided-sparse and broadcast patterns (the ones real
        kernels have), cheap to compute per statement.
        """
        if self.counters is None or not self._cur_n:
            return
        idx = np.asarray(idx)
        if idx.ndim == 0:
            n = 1.0
        else:
            if idx.shape != mask.shape:
                idx = np.broadcast_to(idx, mask.shape)
            sel = idx[mask]
            if sel.size == 0:
                return
            lo = int(sel.min()) * elem_size
            hi = int(sel.max()) * elem_size
            span_lines = (hi - lo) // 64 + 1
            n = float(min(self._cur_n, span_lines))
        self.counters.global_line_bytes += 64.0 * n
        if self._prof_line is not None:
            self._prof_line.global_line_bytes += 64.0 * n

    # ------------------------------------------------------------------
    # expression evaluation (vectorized over lanes)
    # ------------------------------------------------------------------
    def _eval(self, e: Expr, mask: np.ndarray):
        if isinstance(e, Const):
            return e.type.np.type(e.value)
        if isinstance(e, SReg):
            v = self._lane_sregs.get(e.kind)
            return v if v is not None else self._static_sregs[e.kind]
        if isinstance(e, Param):
            if e.is_pointer:
                raise InterpError(
                    f"pointer parameter {e.name!r} evaluated as a scalar"
                )
            return self._scalars[e.name]
        if isinstance(e, Var):
            if e.is_pointer:
                raise InterpError(f"pointer variable {e.name!r} evaluated as a scalar")
            try:
                return self._env[e.name]
            except KeyError:
                raise InterpError(
                    f"read of unassigned variable {e.name!r} in kernel "
                    f"{self.kernel.name!r}"
                ) from None
        if isinstance(e, BinOp):
            return self._eval_binop(e, mask)
        if isinstance(e, UnOp):
            v = self._eval(e.operand, mask)
            if e.op == "-":
                self._count(
                    "flops" if e.dtype.is_float else "int_ops", self._cur_n
                )
                return np.negative(v)
            if e.op == "!":
                self._count("int_ops", self._cur_n)
                return ~self._truthy(v)
            # '~'
            self._count("int_ops", self._cur_n)
            return np.invert(np.asarray(v).astype(e.dtype.np, copy=False))
        if isinstance(e, Cast):
            v = self._eval(e.value, mask)
            self._count("int_ops", self._cur_n)
            return np.asarray(v).astype(e.type.np, copy=False)
        if isinstance(e, Load):
            return self._eval_load(e, mask)
        if isinstance(e, Call):
            args = [self._eval(a, mask) for a in e.args]
            out_dt = e.dtype
            args = [np.asarray(a).astype(out_dt.np, copy=False) for a in args]
            if e.name in ("min", "max", "abs") and not out_dt.is_float:
                self._count("int_ops", self._cur_n)
            elif e.name in ("min", "max", "abs", "fabs", "floor", "ceil"):
                self._count("flops", self._cur_n)
            else:
                self._count("special_ops", self._cur_n)
            return apply_intrinsic(e.name, args, out_dt.np)
        if isinstance(e, Select):
            # C evaluates only the taken side; under lanes, each side is
            # evaluated with its own refined mask so guarded indexing
            # (`t < n ? x[t] : 0`) cannot fault on untaken lanes
            c = self._truthy(self._eval(e.cond, mask))
            t = self._eval(e.if_true, mask & c)
            f = self._eval(e.if_false, mask & ~c)
            dt = e.dtype.np
            self._count("int_ops", self._cur_n)
            return np.where(
                c,
                np.asarray(t).astype(dt, copy=False),
                np.asarray(f).astype(dt, copy=False),
            )
        raise InterpError(f"cannot evaluate {type(e).__name__}")  # pragma: no cover

    @staticmethod
    def _truthy(v) -> np.ndarray:
        v = np.asarray(v)
        return v if v.dtype == np.bool_ else v != 0

    def _eval_binop(self, e: BinOp, mask: np.ndarray):
        op = e.op
        if op in ("&&", "||"):
            # short-circuit semantics at lane granularity: the RHS is
            # evaluated under the lanes the LHS leaves live, so idioms
            # like `i < n && x[i] > 0` cannot fault on untaken lanes
            lt = self._truthy(self._eval(e.lhs, mask))
            self._count("int_ops", self._cur_n)
            if op == "&&":
                rt = self._truthy(self._eval(e.rhs, mask & lt))
                return lt & rt
            rt = self._truthy(self._eval(e.rhs, mask & ~lt))
            return lt | rt
        l = self._eval(e.lhs, mask)
        r = self._eval(e.rhs, mask)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            ct = common_type(e.lhs.dtype, e.rhs.dtype)
            la = np.asarray(l).astype(ct.np, copy=False)
            ra = np.asarray(r).astype(ct.np, copy=False)
            self._count("flops" if ct.is_float else "int_ops", self._cur_n)
            fn = {
                "==": np.equal,
                "!=": np.not_equal,
                "<": np.less,
                "<=": np.less_equal,
                ">": np.greater,
                ">=": np.greater_equal,
            }[op]
            return fn(la, ra)
        rt = e.dtype
        if op in ("<<", ">>"):
            la = np.asarray(l).astype(rt.np, copy=False)
            ra = np.asarray(r).astype(np.int64, copy=False)
            self._count("int_ops", self._cur_n)
            # the int64 shift count widens the result under NumPy's
            # promotion rules; C wraps at the declared type's width
            out = (la << ra) if op == "<<" else (la >> ra)
            return out.astype(rt.np, copy=False)
        # arithmetic: +, -, *, /, %
        la = np.asarray(l).astype(rt.np, copy=False)
        ra = np.asarray(r).astype(rt.np, copy=False)
        if rt.is_float:
            if op == "+":
                out = la + ra
            elif op == "-":
                out = la - ra
            elif op == "*":
                out = la * ra
            else:  # '/'
                self._count("div_ops", self._cur_n)
                return la / ra
            self._count("flops", self._cur_n)
            return out
        # integer arithmetic with C semantics
        self._count("int_ops", self._cur_n)
        if op == "+":
            return la + ra
        if op == "-":
            return la - ra
        if op == "*":
            return la * ra
        if op == "/":
            return _c_int_div(la, ra).astype(rt.np, copy=False)
        return _c_int_mod(la, ra).astype(rt.np, copy=False)

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------
    def _resolve_ptr(self, ptr: Expr) -> tuple[np.ndarray, PointerType]:
        t = getattr(ptr, "type", None)
        if not isinstance(t, PointerType):
            raise InterpError("pointer operand is not pointer-typed")
        if isinstance(ptr, Param):
            return self._buffers[ptr.name], t
        if isinstance(ptr, Var):
            store = (
                self._local if t.space is AddressSpace.LOCAL else self._shared
            )
            try:
                return store[ptr.name], t
            except KeyError:
                raise InterpError(
                    f"use of undeclared {t.space.value} array {ptr.name!r}"
                ) from None
        raise InterpError(f"unsupported pointer expression {type(ptr).__name__}")

    def _lane_coords(self, mask: np.ndarray, lane: int) -> tuple[int, int]:
        """(blockIdx.x, threadIdx.x) of a lane, for diagnostics."""
        bid = int(
            np.broadcast_to(self._lane_sregs[SRegKind.CTAID_X], mask.shape)[lane]
        )
        tid = int(
            np.broadcast_to(self._lane_sregs[SRegKind.TID_X], mask.shape)[lane]
        )
        return bid, tid

    def _safe_indices(
        self, idx, mask: np.ndarray, arr: np.ndarray, what: str,
        name: str | None = None,
    ) -> np.ndarray:
        idx = np.asarray(idx).astype(np.int64, copy=False)
        if self.bounds_check or self._san is not None:
            bad = mask & ((idx < 0) | (idx >= arr.shape[0]))
            if np.any(bad):
                lane = int(np.argmax(bad))
                off = int(np.broadcast_to(idx, mask.shape)[lane])
                bid, tid = self._lane_coords(mask, lane)
                msg = (
                    f"kernel {self.kernel.name!r}: out-of-bounds {what}"
                    f"{' of ' + repr(name) if name else ''} at index {off} "
                    f"(buffer length {arr.shape[0]}, blockIdx.x {bid}, "
                    f"threadIdx.x {tid})"
                )
                if self._san is not None:
                    self._san.on_oob("global", msg)
                else:
                    raise InterpError(msg)
        if idx.ndim == 0:
            return idx if 0 <= int(idx) < arr.shape[0] else np.int64(0)
        oob = (idx < 0) | (idx >= arr.shape[0])
        if not oob.any():
            return idx
        return np.where(mask & ~oob, idx, 0)

    def _shared_index(
        self, name: str, idx, mask: np.ndarray
    ) -> np.ndarray:
        """Bounds-check a shared-memory index against the per-block extent
        and offset it into this block's segment of the span-wide array."""
        seg = self._shared_seg.get(name)
        if seg is None:
            raise InterpError(f"use of undeclared shared array {name!r}")
        idx = np.asarray(idx).astype(np.int64, copy=False)
        if self.bounds_check or self._san is not None:
            bad = mask & ((idx < 0) | (idx >= seg))
            if np.any(bad):
                lane = int(np.argmax(bad))
                off = int(np.broadcast_to(idx, mask.shape)[lane])
                bid, tid = self._lane_coords(mask, lane)
                msg = (
                    f"kernel {self.kernel.name!r}: out-of-bounds shared access "
                    f"to {name!r} at index {off} (extent {seg}, blockIdx.x "
                    f"{bid}, threadIdx.x {tid})"
                )
                if self._san is not None:
                    self._san.on_oob("shared", msg)
                elif self.bounds_check:
                    raise InterpError(msg)
        # Out-of-extent indices clamp to element 0 *of this block's own
        # segment* — they can never reach a neighbouring block's segment
        # of the span-wide backing array.
        safe = np.where((idx >= 0) & (idx < seg), idx, 0)
        if self._block_lane_pos is None:
            return safe
        return safe + self._block_lane_pos * seg

    def _local_index(self, name: str, idx, mask: np.ndarray) -> np.ndarray:
        """Bounds-check a per-thread local-array index against its extent
        and offset it into the lane's segment."""
        seg = self._local_seg.get(name)
        if seg is None:
            raise InterpError(f"use of undeclared local array {name!r}")
        idx = np.asarray(idx).astype(np.int64, copy=False)
        if self.bounds_check or self._san is not None:
            bad = mask & ((idx < 0) | (idx >= seg))
            if np.any(bad):
                lane = int(np.argmax(bad))
                off = int(np.broadcast_to(idx, mask.shape)[lane])
                bid, tid = self._lane_coords(mask, lane)
                msg = (
                    f"kernel {self.kernel.name!r}: out-of-bounds local-array "
                    f"access to {name!r} at index {off} (extent {seg}, "
                    f"blockIdx.x {bid}, threadIdx.x {tid})"
                )
                if self._san is not None:
                    self._san.on_oob("local", msg)
                elif self.bounds_check:
                    raise InterpError(msg)
        safe = np.where((idx >= 0) & (idx < seg), idx, 0)
        return np.broadcast_to(safe, (self.nlanes,)) + self._lane_ids * seg

    def _on_global_access(
        self, ptr: Expr, idx, mask: np.ndarray, is_store: bool, elem_size: int
    ) -> None:
        """Hook: called for every global-memory access with the concrete
        element indices.  The PGAS baseline overrides this to classify
        accesses by owner rank."""

    def _count_mem(self, space: AddressSpace, nbytes: float, is_store: bool) -> None:
        if space is AddressSpace.GLOBAL:
            self._count(
                "global_store_bytes" if is_store else "global_load_bytes", nbytes
            )
            self._count("global_stores" if is_store else "global_loads", self._cur_n)
        elif space is AddressSpace.SHARED:
            self._count("shared_bytes", nbytes)
        else:
            self._count("local_bytes", nbytes)

    def _eval_load(self, e: Load, mask: np.ndarray):
        arr, pt = self._resolve_ptr(e.ptr)
        idx = self._eval(e.index, mask)
        if pt.space is AddressSpace.SHARED:
            safe = self._shared_index(e.ptr.name, idx, mask)
        elif pt.space is AddressSpace.LOCAL:
            safe = self._local_index(e.ptr.name, idx, mask)
        else:
            safe = self._safe_indices(
                idx, mask, arr, "load", getattr(e.ptr, "name", None)
            )
        self._count_mem(pt.space, self._cur_n * pt.elem.size, is_store=False)
        if pt.space is AddressSpace.GLOBAL:
            self._count_lines(safe, mask, pt.elem.size)
            self._on_global_access(e.ptr, safe, mask, False, pt.elem.size)
        if self._san is not None:
            if pt.space is AddressSpace.SHARED:
                self._san.on_shared_load(e.ptr.name, safe, mask)
            elif pt.space is AddressSpace.GLOBAL:
                self._san.on_global_load(
                    getattr(e.ptr, "name", "<ptr>"), safe, mask
                )
        return arr[safe]

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------
    def _any(self, mask: np.ndarray) -> bool:
        return bool(mask.any())

    def _exec_body(self, stmts: list[Stmt], mask: np.ndarray) -> np.ndarray:
        """Execute statements under ``mask``; return the fallthrough mask."""
        for s in stmts:
            if not self._any(mask):
                break
            mask = self._exec_stmt(s, mask)
        return mask

    def _exec_stmt(self, s: Stmt, mask: np.ndarray) -> np.ndarray:
        self._cur_n = float(np.count_nonzero(mask))
        if self._prof is not None:
            self._prof_line = self._prof.line(s.loc)
        if self._san is not None:
            # every execution of a statement is a fresh *instance*: loads
            # and the store of one instance are exempt from race checks
            # against each other (lockstep gather-before-scatter), but the
            # same textual statement re-executed (next loop iteration)
            # is not
            self._san.begin_stmt(s)
        if isinstance(s, Assign):
            val = self._eval(s.value, mask)
            dt = s.type if s.type is not None else s.value.dtype
            if s.declare or s.name not in self._var_types:
                self._var_types[s.name] = dt
            dt = self._var_types[s.name]
            val = np.asarray(val).astype(dt.np, copy=False)
            if s.name in self._env and self._cur_n < mask.shape[0]:
                old = self._env[s.name]
                val = np.where(mask, val, np.asarray(old).astype(dt.np, copy=False))
            elif val.ndim and val.base is not None:
                val = val.copy()
            self._env[s.name] = val
            return mask
        if isinstance(s, Store):
            arr, pt = self._resolve_ptr(s.ptr)
            idx = self._eval(s.index, mask)
            val = self._eval(s.value, mask)
            if pt.space is AddressSpace.SHARED:
                safe = self._shared_index(s.ptr.name, idx, mask)
            elif pt.space is AddressSpace.LOCAL:
                safe = self._local_index(s.ptr.name, idx, mask)
            else:
                safe = self._safe_indices(
                    idx, mask, arr, "store", getattr(s.ptr, "name", None)
                )
            val = np.asarray(val).astype(pt.elem.np, copy=False)
            self._count_mem(pt.space, self._cur_n * pt.elem.size, is_store=True)
            if pt.space is AddressSpace.GLOBAL:
                self._count_lines(safe, mask, pt.elem.size)
                self._on_global_access(s.ptr, safe, mask, True, pt.elem.size)
            if self._san is not None:
                old = arr[safe]  # pre-store contents, for value-change checks
                if pt.space is AddressSpace.SHARED:
                    self._san.on_shared_store(s.ptr.name, safe, mask, val, old)
                elif pt.space is AddressSpace.GLOBAL:
                    self._san.on_global_store(
                        getattr(s.ptr, "name", "<ptr>"), safe, mask, val, old,
                        arr.shape[0], arr.dtype,
                    )
            if safe.ndim == 0:
                if mask.any():
                    arr[int(safe)] = val if val.ndim == 0 else val[np.argmax(mask)]
            else:
                val = np.broadcast_to(val, mask.shape)
                arr[safe[mask]] = val[mask]
            return mask
        if isinstance(s, If):
            self._count("branches", self._cur_n)
            cond = self._truthy(self._eval(s.cond, mask))
            t_mask = mask & cond
            f_mask = mask & ~cond
            t_out = (
                self._exec_body(s.then_body, t_mask)
                if self._any(t_mask)
                else t_mask
            )
            f_out = (
                self._exec_body(s.else_body, f_mask)
                if self._any(f_mask)
                else f_mask
            )
            return t_out | f_out
        if isinstance(s, For):
            return self._exec_for(s, mask)
        if isinstance(s, While):
            return self._exec_while(s, mask)
        if isinstance(s, Return):
            self._ret_mask |= mask
            return np.zeros_like(mask)
        if isinstance(s, Break):
            if not self._frames:
                raise InterpError("break outside a loop")
            self._frames[-1].break_mask |= mask
            return np.zeros_like(mask)
        if isinstance(s, Continue):
            if not self._frames:
                raise InterpError("continue outside a loop")
            return np.zeros_like(mask)
        if isinstance(s, SyncThreads):
            # statements execute in lockstep across the block, so the
            # barrier is already satisfied; still metered for the model
            # (one phase per block in the span)
            self._count("barriers", float(self._span_len))
            if self._san is not None:
                self._san.on_barrier(mask, self._ret_mask)
            return mask
        if isinstance(s, Atomic):
            return self._exec_atomic(s, mask)
        if isinstance(s, AllocShared):
            size = self._eval(s.size, mask)
            if np.ndim(size) != 0:
                raise InterpError(
                    f"shared array {s.name!r} extent must be block-invariant"
                )
            self._shared_seg[s.name] = int(size)
            self._shared[s.name] = np.zeros(
                int(size) * self._span_len, dtype=s.elem.np
            )
            if self._san is not None:
                self._san.on_alloc_shared(s.name, int(size))
            return mask
        if isinstance(s, AllocLocal):
            size = self._eval(s.size, mask)
            if np.ndim(size) != 0:
                raise InterpError(
                    f"local array {s.name!r} extent must be launch-invariant"
                )
            self._local_seg[s.name] = int(size)
            self._local[s.name] = np.zeros(
                int(size) * self.nlanes, dtype=s.elem.np
            )
            return mask
        raise InterpError(f"cannot execute {type(s).__name__}")  # pragma: no cover

    # -- loops ----------------------------------------------------------
    def _body_assigns(self, body: list[Stmt], name: str) -> bool:
        return any(
            isinstance(st, Assign) and st.name == name for st in iter_stmts(body)
        )

    def _exec_for(self, s: For, mask: np.ndarray) -> np.ndarray:
        start = self._eval(s.start, mask)
        stop = self._eval(s.stop, mask)
        step = self._eval(s.step, mask)
        invariant = (
            np.ndim(start) == 0
            and np.ndim(stop) == 0
            and np.ndim(step) == 0
            and not self._body_assigns(s.body, s.var)
        )
        frame = _LoopFrame(break_mask=np.zeros_like(mask))
        self._frames.append(frame)
        entry = mask
        try:
            if invariant:
                step_i = int(step)
                if step_i == 0:
                    # zero step is only an error if the loop would actually
                    # iterate; a zero-trip bound (start >= stop ascending)
                    # simply executes no iterations
                    if int(start) < int(stop):
                        raise InterpError(
                            f"loop {s.var!r} has zero step with a nonzero "
                            f"trip count"
                        )
                else:
                    self._var_types[s.var] = s.start.dtype
                    for v in range(int(start), int(stop), step_i):
                        cur = entry & ~frame.break_mask & ~self._ret_mask
                        if not self._any(cur):
                            break
                        self._env[s.var] = s.start.dtype.np.type(v)
                        self._exec_body(s.body, cur)
            else:
                var_dt = s.start.dtype.np
                v = np.broadcast_to(
                    np.asarray(start).astype(var_dt, copy=False), mask.shape
                ).copy()
                step_arr = np.asarray(step)
                step_b = np.broadcast_to(step_arr, mask.shape)
                assigns = self._body_assigns(s.body, s.var)
                self._var_types[s.var] = s.start.dtype
                iters = 0
                while True:
                    # per-lane liveness: lanes whose trip count is zero or
                    # negative (start beyond stop in the step direction)
                    # must execute zero iterations — no first-iteration
                    # leakage.  Zero-step lanes use the ascending test so a
                    # zero-trip bound still terminates immediately.
                    live = np.where(
                        step_b > 0,
                        v < stop,
                        np.where(step_b < 0, v > stop, v < stop),
                    )
                    cur = entry & ~frame.break_mask & ~self._ret_mask & live
                    if not self._any(cur):
                        break
                    if not assigns and bool((step_b[cur] == 0).any()):
                        # would spin to MAX_LOOP_ITERS: the induction
                        # variable can never move for these lanes
                        raise InterpError(
                            f"loop {s.var!r} has zero step with a nonzero "
                            f"trip count for an active lane"
                        )
                    self._env[s.var] = v
                    self._exec_body(s.body, cur)
                    v = (self._to_lanes(self._env[s.var], var_dt) + step_arr).astype(
                        var_dt, copy=False
                    )
                    iters += 1
                    if iters > MAX_LOOP_ITERS:
                        raise InterpError(
                            f"loop over {s.var!r} exceeded {MAX_LOOP_ITERS} iterations"
                        )
        finally:
            self._frames.pop()
        return mask & ~self._ret_mask

    def _to_lanes(self, v, dt) -> np.ndarray:
        return np.broadcast_to(np.asarray(v).astype(dt, copy=False), (self.nlanes,))

    def _exec_while(self, s: While, mask: np.ndarray) -> np.ndarray:
        frame = _LoopFrame(break_mask=np.zeros_like(mask))
        self._frames.append(frame)
        entry = mask
        iters = 0
        try:
            while True:
                cur = entry & ~frame.break_mask & ~self._ret_mask
                if not self._any(cur):
                    break
                self._cur_n = float(np.count_nonzero(cur))
                if self._prof is not None:
                    # body statements moved the bucket; the re-evaluated
                    # loop condition bills the while header's line
                    self._prof_line = self._prof.line(s.loc)
                cond = self._truthy(self._eval(s.cond, cur))
                cur = cur & cond
                if not self._any(cur):
                    break
                self._exec_body(s.body, cur)
                iters += 1
                if iters > MAX_LOOP_ITERS:
                    raise InterpError(
                        f"while loop exceeded {MAX_LOOP_ITERS} iterations"
                    )
        finally:
            self._frames.pop()
        return mask & ~self._ret_mask

    # -- atomics ----------------------------------------------------------
    def _exec_atomic(self, s: Atomic, mask: np.ndarray) -> np.ndarray:
        arr, pt = self._resolve_ptr(s.ptr)
        idx = self._eval(s.index, mask)
        val = np.asarray(self._eval(s.value, mask)).astype(pt.elem.np, copy=False)
        if pt.space is AddressSpace.SHARED:
            safe = self._shared_index(s.ptr.name, idx, mask)
        elif pt.space is AddressSpace.LOCAL:
            safe = self._local_index(s.ptr.name, idx, mask)
        else:
            safe = self._safe_indices(
                idx, mask, arr, "atomic", getattr(s.ptr, "name", None)
            )
        safe_l = np.broadcast_to(safe, mask.shape)[mask]
        val_l = np.broadcast_to(val, mask.shape)[mask]
        self._count("atomics", self._cur_n)
        self._count_mem(pt.space, 2.0 * self._cur_n * pt.elem.size, is_store=True)
        if pt.space is AddressSpace.GLOBAL:
            self._count_lines(safe, mask, pt.elem.size)
            self._on_global_access(s.ptr, safe, mask, True, pt.elem.size)
        if self._san is not None:
            self._san.on_atomic(
                pt.space.name.lower(), getattr(s.ptr, "name", "<ptr>"),
                safe, mask, arr.shape[0], arr.dtype,
            )
        cmp_l = None
        if s.op == "cas":
            cmp_l = np.broadcast_to(
                np.asarray(self._eval(s.compare, mask)).astype(
                    pt.elem.np, copy=False
                ),
                mask.shape,
            )[mask]
        old = None
        if s.result is not None:
            self._var_types[s.result] = pt.elem
            # Old values gathered before this instruction's updates; valid
            # only when no two active lanes target the same location (the
            # colliding case serializes inside apply_atomic_op).
            old = np.broadcast_to(arr[safe], mask.shape).astype(
                pt.elem.np, copy=True
            )
            if s.result in self._env and not mask.all():
                prev = np.asarray(self._env[s.result]).astype(pt.elem.np, copy=False)
                old = np.where(mask, old, prev).astype(pt.elem.np, copy=False)
        apply_atomic_op(arr, safe_l, val_l, s.op, cmp_l=cmp_l, old=old, mask=mask)
        if s.result is not None:
            self._env[s.result] = old
        return mask


def check_backend(backend: str, hooked: bool) -> None:
    """The backend rule: the name must be known, and ``"jit"`` cannot
    carry interpreter-shaped hooks (``hooked``: a sanitizer or profiler
    is attached)."""
    if backend not in ("interp", "jit", "auto"):
        raise LaunchError(
            f"unknown backend {backend!r}; expected 'interp', 'jit' or 'auto'"
        )
    if backend == "jit" and hooked:
        raise LaunchError(
            "backend='jit' does not support sanitize/profile hooks; "
            "they observe the tree-walking interpreter"
        )


def make_executor(
    kernel: Kernel,
    config: LaunchConfig,
    args: dict[str, object],
    counters: OpCounters | None = None,
    bounds_check: bool = True,
    sanitize: object = False,
    profile: object = None,
    backend: str = "interp",
    jit_cache: object = None,
) -> BlockExecutor:
    """Build the executor ``backend`` selects for one launch: the JIT
    tier unless the backend is ``"interp"``, a hook is attached, or (under
    ``"auto"``) the codegen declines the kernel; else the interpreter."""
    hooked = bool(sanitize or profile)
    check_backend(backend, hooked)
    if backend != "interp" and not hooked:
        from repro.interp.jit import JITBlockExecutor, JITUnsupported

        try:
            return JITBlockExecutor(
                kernel, config, args, counters, bounds_check=bounds_check,
                cache=jit_cache,
            )
        except JITUnsupported:
            if backend == "jit":
                raise
    return BlockExecutor(
        kernel, config, args, counters, bounds_check=bounds_check,
        sanitize=sanitize, profile=profile,
    )


def run_grid(
    kernel: Kernel,
    config: LaunchConfig,
    args: dict[str, object],
    counters: OpCounters | None = None,
    block_ids=None,
    bounds_check: bool = True,
    span: int | None = None,
    sanitize: object = False,
    profile: object = None,
    backend: str = "interp",
) -> BlockExecutor:
    """Execute a kernel launch (all blocks, or ``block_ids``) sequentially.

    This is the single-memory-space reference execution used for the GPU
    functional model and the single-CPU baseline.  Returns the executor so
    callers can inspect state.  ``sanitize`` enables the dynamic sanitizer
    (pass ``True`` or a shared ``DynamicSanitizer``); findings accumulate
    on ``executor.sanitizer.report``.  ``profile`` attributes counts per
    source line (a :class:`~repro.obs.profiler.Profiler` or a line sink;
    see :class:`BlockExecutor`).  ``backend`` selects the execution tier
    (see :func:`make_executor`): ``"interp"`` (this module's tree-walker,
    the reference), ``"jit"`` (the :mod:`repro.interp.jit` codegen tier,
    bit-identical by contract), or ``"auto"`` (JIT when the kernel
    compiles and no interpreter-shaped hook — sanitizer, profiler — is
    attached).
    """
    ex = make_executor(
        kernel, config, args, counters, bounds_check=bounds_check,
        sanitize=sanitize, profile=profile, backend=backend,
    )
    ids = range(config.num_blocks) if block_ids is None else block_ids
    ex.run_blocks(ids, span=span)
    return ex
