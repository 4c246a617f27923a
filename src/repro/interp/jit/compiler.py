"""Kernel-IR → specialized NumPy closure compiler (the JIT tier).

One Python source string is generated per ``(kernel, block shape,
dtype signature)`` and ``compile()``d once; the resulting module-level
function ``_jit_span(ctx, counters)`` replaces
:meth:`repro.interp.machine.BlockExecutor._exec_body` for one span.
The contract is **bit-identical observables**: output buffers, every
:class:`~repro.interp.counters.OpCounters` field (including the
64-byte-line traffic estimate), and error behaviour all match the
tree-walking interpreter, so the hardware-model clocks are unchanged
and the interpreter remains the executable specification.

How the equivalence is kept:

* Expressions are emitted in the interpreter's evaluation order (LHS
  before RHS, index before value), each non-leaf bound to a temp, so
  faults fire in the same order with the same messages.
* Every ``astype`` the interpreter performs is either emitted verbatim
  or elided only when the value's runtime dtype provably equals the
  target (an identity ``astype(copy=False)`` returns the same object,
  so elision is unobservable).
* Op counts accumulate into local floats (``_c_flops += n3``) flushed
  into the shared ``OpCounters`` at the end; all amounts are integral
  and far below 2**53, so float accumulation is exact and
  order-insensitive.
* Divergence handling mirrors the interpreter's mask algebra; where
  the static analysis (:mod:`repro.interp.jit.divergence`) proves a
  branch lane-invariant *and* the condition evaluates to a scalar, a
  plain Python ``if`` replaces the masked arms ("mask-free" code).
* Anything the compiler cannot prove it mirrors exactly raises
  :class:`~repro.errors.JITUnsupported`, and ``backend="auto"`` falls
  back to the interpreter.

The generated module is self-contained given a small fixed namespace
(:func:`base_namespace`): NumPy, the shared helpers from
:mod:`repro.interp.machine`, and the intrinsic table.  Constants and
dtype objects are materialized as module-level assignments inside the
source itself, so a cached source string recompiles without rerunning
codegen.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from repro.errors import InterpError, JITError, JITUnsupported
from repro.interp.counters import OpCounters
from repro.interp.intrinsics import INTRINSIC_IMPLS
from repro.interp.jit.divergence import DivergenceFacts, analyze_divergence
from repro.interp.jit.memory import MemoryEmitter
from repro.interp.jit.plan import (
    FEATURES,
    SPARSE_OCCUPANCY,
    TILE,
    UNIFORM,
    Fact,
    LoopCtx,
    Mask,
    MergeLedger,
    MergePlan,
    Val,
    affine,
    can_shrink,
    geom_of,
    has_break_at_level,
    loop_assigned,
    sparse_plan,
    tri_all,
)
from repro.interp.machine import MAX_LOOP_ITERS, _c_int_div, _c_int_mod, apply_atomic_op
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
    "CODEGEN_VERSION",
    "JITProgram",
    "program_key",
    "generate_source",
    "compile_closure",
    "base_namespace",
]

#: Bumped whenever generated code changes shape — part of the cache key,
#: so stale persistent-cache entries can never be replayed.
CODEGEN_VERSION = 3

_COUNTER_FIELDS = tuple(f.name for f in fields(OpCounters))

_BOOL = np.dtype(bool)
_I64 = np.dtype(np.int64)

_LANE_SREGS = {
    SRegKind.TID_X: "tid_x",
    SRegKind.TID_Y: "tid_y",
    SRegKind.TID_Z: "tid_z",
    SRegKind.CTAID_X: "ctaid_x",
    SRegKind.CTAID_Y: "ctaid_y",
    SRegKind.CTAID_Z: "ctaid_z",
}
_STATIC_SREGS = {
    SRegKind.NTID_X: "ntid_x",
    SRegKind.NTID_Y: "ntid_y",
    SRegKind.NTID_Z: "ntid_z",
    SRegKind.NCTAID_X: "nctaid_x",
    SRegKind.NCTAID_Y: "nctaid_y",
    SRegKind.NCTAID_Z: "nctaid_z",
}

_SREG_GEOM = {
    SRegKind.TID_X: TILE,
    SRegKind.CTAID_X: UNIFORM,
    SRegKind.CTAID_Y: UNIFORM,
    SRegKind.CTAID_Z: UNIFORM,
}

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


class _Undef:
    """Sentinel for registers that have no value yet (mirrors a missing
    ``_env`` key in the interpreter)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<undef>"


_UNDEF = _Undef()


def _undef_read(kname: str, name: str):
    raise InterpError(
        f"read of unassigned variable {name!r} in kernel {kname!r}"
    )


def base_namespace() -> dict:
    """The fixed globals every generated module executes under.

    Everything else a program needs (dtype objects, hoisted constants,
    intrinsic aliases) is emitted as module-level assignments *inside*
    the generated source, so a source string cached on disk is
    recompilable without rerunning codegen.
    """
    return {
        "np": np,
        "InterpError": InterpError,
        "SRegKind": SRegKind,
        "INTRINSIC_IMPLS": INTRINSIC_IMPLS,
        "_c_int_div": _c_int_div,
        "_c_int_mod": _c_int_mod,
        "_atomic": apply_atomic_op,
        "_UNDEF": _UNDEF,
        "_undef_read": _undef_read,
    }


@dataclass
class JITProgram:
    """A compiled kernel specialization."""

    key: str
    kernel_name: str
    source: str
    mask_free: bool
    #: how many sites each strategy of :data:`plan.FEATURES` was printed
    #: at (static counts: which branch runs is the span's to decide)
    features: dict[str, int] = field(default_factory=dict)
    fn: object | None = None
    from_cache: bool = False


def program_key(kernel: Kernel, block, bounds_check: bool) -> str:
    """Cache key of one specialization: structural IR fingerprint (which
    embeds the dtype signature), block shape, bounds-check mode, codegen
    version.

    The fingerprint is the dataclass ``repr`` of the whole kernel, *not*
    its pretty-printed text: the printer is a faithful rendering of
    semantics but not of op accounting — e.g. ``UnOp('-', Const(1))``
    and ``Const(-1)`` both print as ``-1`` yet the interpreter counts an
    extra int op for the former, so keying on the text once served a
    stale specialization to a simplified kernel (caught by the
    differential gate; see tests/test_interp_bugfixes.py)."""
    h = hashlib.sha256()
    h.update(
        f"v{CODEGEN_VERSION}|block={tuple(int(b) for b in block)}"
        f"|bc={bool(bounds_check)}|".encode()
    )
    h.update(repr(kernel).encode())
    return f"{kernel.name}@{h.hexdigest()[:20]}"


def compile_closure(source: str, kernel_name: str):
    """``compile()`` + ``exec()`` one generated module, returning its
    ``_jit_span`` entry point."""
    ns = base_namespace()
    try:
        code = compile(source, f"<jit:{kernel_name}>", "exec")
        exec(code, ns)
        return ns["_jit_span"]
    except (SyntaxError, KeyError) as e:  # pragma: no cover - codegen bug
        raise JITError(
            f"generated source for kernel {kernel_name!r} failed to "
            f"compile: {e}"
        ) from e


# ---------------------------------------------------------------------------
# codegen
# ---------------------------------------------------------------------------
class Generated(NamedTuple):
    """What :func:`generate_source` returns."""

    source: str
    mask_free: bool
    features: dict[str, int]


def generate_source(
    kernel: Kernel, facts: DivergenceFacts | None = None
) -> Generated:
    """Generate the specialized module source for ``kernel``.

    Returns ``(source, mask_free, features)`` where ``mask_free``
    records that the emitted code never materialized a statement-level
    divergence mask — the "straight-line" fast path — and ``features``
    counts the sites each planned strategy was printed at.  Raises
    :class:`~repro.errors.JITUnsupported` for kernels the codegen cannot
    mirror exactly.
    """
    if facts is None:
        facts = analyze_divergence(kernel)
    return _Codegen(kernel, facts).generate()


class _Codegen(MemoryEmitter):
    def __init__(self, kernel: Kernel, facts: DivergenceFacts):
        self.k = kernel
        self.facts = facts
        # lists are slots filled or rewritten later: preheaders, and
        # merges awaiting the ledger
        self.lines: list[str | list[str]] = []
        self.ind = 3  # def (1) + try (2) + errstate-with (3)
        self._ids = itertools.count()
        # pools rendered as module-level assignments
        self.dtypes: dict[str, str] = {}  # np name -> DT_<name> var
        self.consts: dict[tuple, str] = {}  # (np name, repr) -> K<i>
        self.const_lines: list[str] = []
        # preamble demand sets
        self.used_sregs: dict[SRegKind, str] = {}
        self.used_scalars: set[str] = set()
        self.used_buffers: set[str] = set()
        self.used_counters: set[str] = set()
        self.need_span = False
        self.need_ret = False
        self.need_tpb = False
        self.intrinsics: set[str] = set()  # declared ``_in_<name>`` aliases
        # static var state
        self.var_types: dict[str, DType] = {}
        self.assigned: set[str] = set()  # definitely assigned here
        self.tri: dict[str, bool | None] = {}
        self.geom: dict[str, str] = {}  # lane-geometry hint of a variable
        self.shared_decls: set[str] = set()
        self.local_decls: set[str] = set()
        self.loops: list[LoopCtx] = []  # enclosing loops, innermost last
        # False while emitting operands that outlive a buffer mutation
        # (atomic operands, loop bounds): those must not be slice views
        self.views = True
        self.masked = False  # emitted any statement-level divergence?
        # common-subexpression pool: structural key -> bound temp name.
        # Entries are scoped to the runtime suite they were emitted in
        # (cse_scope) and killed when a mentioned variable is reassigned
        # (cse_kill); values must be pure given their inputs — casts,
        # sanitized indices, line-traffic amounts.  Counter *adds* are
        # never CSE'd, only the value computations feeding them.
        self.cse: dict[tuple, str] = {}
        # plans (repro.interp.jit.plan): strategy counts, the read /
        # merge ledger, whether an index is being evaluated for deferral,
        # and the "every lane" count merges compare against (the gathered
        # lane count inside a sparse loop)
        self.features = dict.fromkeys(FEATURES, 0)
        self.ledger = MergeLedger()
        self.lazy = False
        self.nlf = "_nlf"
        self.counts: list[tuple[str, str]] = []  # emit_n (name, line)

    # -- small emission helpers ----------------------------------------
    def w(self, line: str) -> None:
        self.lines.append(" " * (4 * self.ind) + line if line else "")

    @contextmanager
    def indent(self):
        self.ind += 1
        try:
            yield
        finally:
            self.ind -= 1

    def tmp(self, prefix: str = "t") -> str:
        return f"{prefix}{next(self._ids)}"

    def bind(self, code: str, prefix: str = "t") -> str:
        t = self.tmp(prefix)
        self.w(f"{t} = {code}")
        return t

    def dt(self, np_dtype) -> str:
        """Module-level ``np.dtype`` object for astype targets."""
        name = np.dtype(np_dtype).name
        if name not in self.dtypes:
            var = f"DT_{name}"
            self.dtypes[name] = var
            self.const_lines.append(f"{var} = np.dtype({name!r})")
            self.const_lines.append(f"T_{name} = {var}.type")
        return self.dtypes[name]

    def ctor(self, np_dtype) -> str:
        """Scalar constructor (``DT.type``) for the dtype."""
        self.dt(np_dtype)
        return f"T_{np.dtype(np_dtype).name}"

    def const(self, dtype: DType, value) -> str:
        return self.const_code(dtype.np, f"{self.ctor(dtype.np)}({value!r})")

    def const_code(self, np_dtype, code: str) -> str:
        """Module-level constant for ``code`` (source over other module
        constants only), pooled per dtype and source."""
        key = (np.dtype(np_dtype).name, code)
        if key not in self.consts:
            var = self.consts[key] = f"K{len(self.consts)}"
            self.const_lines.append(f"{var} = {code}")
        return self.consts[key]

    def count(self, field: str, amount_code: str) -> None:
        if field not in _COUNTER_FIELDS:  # pragma: no cover - codegen bug
            raise JITError(f"unknown counter field {field!r}")
        self.used_counters.add(field)
        self.w(f"_c_{field} += {amount_code}")

    def emit_n(self, mask_var: str) -> str:
        """Bind the active count of a mask, remembering the line so
        :meth:`generate` can drop a count nothing turned out to meter."""
        n = self.bind(f"float(np.count_nonzero({mask_var}))", "n")
        self.counts.append((n, self.lines[-1]))
        return n

    def narrowed(self, var: str, parent: Mask) -> Mask:
        """The statement-level mask ``var``, a subset of ``parent``."""
        return Mask(var, self.emit_n(var), False, parent, len(self.loops))

    def mask(self, m: Mask) -> str:
        """Bind an expression-level mask on its first reader."""
        if m.lazy is not None:
            cond, m.lazy = m.lazy, None
            self.w(f"{m.var} = {self.mask(m.parent)} & {cond}")
        return m.var

    def force(self, *vals: Val) -> None:
        """Print the deferred lines of index values here (once per
        branch that reads them; the temps are branch-local)."""
        for v in vals:
            for line in v.pending:
                self.w(line)

    def chain(self, arms) -> None:
        """Print ``(condition, emit)`` arms as an if/elif/else chain; an
        arm whose condition is ``"True"`` closes it (bare if first)."""
        for i, (cond, emit) in enumerate(arms):
            last = cond == "True"
            if last and not i:
                emit()
                return
            self.w("else:" if last else f"{'elif' if i else 'if'} {cond}:")
            with self.indent():
                emit()
            if last:
                return

    @contextmanager
    def cse_scope(self):
        """Scope CSE entries to a runtime suite: anything pooled while
        emitting inside (an ``if`` arm, a loop body) is dropped on exit —
        its temps are not defined on other paths."""
        snap = dict(self.cse)
        try:
            yield
        finally:
            self.cse = snap

    @contextmanager
    def retained(self):
        """Operands emitted inside are held across a later mutation of
        the buffers (atomic operands, loop bounds): no slice views."""
        prev, self.views = self.views, False
        try:
            yield
        finally:
            self.views = prev

    def cse_kill(self, *names: str) -> None:
        """Drop pooled entries that mention a reassigned variable."""
        if not names or not self.cse:
            return
        pat = re.compile(
            r"\b(?:%s)\b" % "|".join(f"v_{re.escape(n)}" for n in names)
        )
        for key in [
            k for k in self.cse
            if any(isinstance(p, str) and pat.search(p) for p in k)
        ]:
            del self.cse[key]

    def cast(self, v: Val, target) -> Val:
        """The interpreter's ``np.asarray(x).astype(dt, copy=False)``,
        elided when the runtime dtype already matches (identity astype
        returns the same object — unobservable), pooled per (value,
        target)."""
        target = np.dtype(target)
        if v.np == target:
            return v
        code = f"np.asarray({v.code}).astype({self.dt(target)}, copy=False)"
        if v.code in self.consts.values():
            # a cast of a module constant is a module constant
            return Val(self.const_code(target, code), target, True)
        # a fact lives in one integer ring; only the base itself widens
        # exactly (``(long)gid``) without a range obligation
        fact = v.fact if target == _I64 and v.fact and v.fact.bare(v.code) else None
        key = ("cast", v.code, target.name)
        t = self.cse.get(key)
        if t is None and self.lazy and fact and v.tri is not True:
            t = self.tmp()  # a deferred index: unpooled, branch-local
            return Val(t, target, v.tri, fact, (f"{t} = {code}",))
        if t is None:
            self.force(v)
            t = self.cse[key] = self.bind(code)
        return Val(t, target, v.tri, fact)

    def truthy(self, v: Val) -> Val:
        if v.np == _BOOL:
            return v
        key = ("truthy", v.code)
        t = self.cse.get(key)
        if t is None:
            t = self.bind(f"({v.code} != 0)")
            self.cse[key] = t
        return Val(t, _BOOL, v.tri)

    def refine(self, m: Mask, cond_code: str) -> Mask:
        """Expression-level mask refinement (Select arms, ``&&``/``||``
        RHS).  Stays lane-shaped: always ANDed onto the statement mask.
        No active count is attached — refined masks never meter — and
        nothing is printed until a load in the arm reads it
        (:meth:`mask`)."""
        return Mask(
            self.tmp("m"), "", False, m, len(self.loops), lazy=cond_code
        )

    # -- unsupported ----------------------------------------------------
    def fail(self, why: str) -> JITUnsupported:
        return JITUnsupported(f"kernel {self.k.name!r}: {why}")

    # -- static prepass -------------------------------------------------
    def _prepass(self) -> None:
        # a declaration inside a loop or branch would re-lay the segment
        # mid-span, under every pooled or hoisted segment index
        top = {id(s) for s in self.k.body}
        for s in iter_stmts(self.k.body):
            if isinstance(s, (AllocShared, AllocLocal)) and id(s) not in top:
                raise self.fail(
                    f"{type(s).__name__} of {s.name!r} is not at the top "
                    "level of the kernel body"
                )
        sites: dict[str, DType] = {}

        def record(name: str, dtp: DType, what: str) -> None:
            prev = sites.get(name)
            if prev is None:
                sites[name] = dtp
            elif prev != dtp:
                raise self.fail(
                    f"variable {name!r} is {what} with conflicting types "
                    f"{prev.name} vs {dtp.name}"
                )

        for s in iter_stmts(self.k.body):
            if isinstance(s, Assign):
                record(
                    s.name,
                    s.type if s.type is not None else s.value.dtype,
                    "declared",
                )
            elif isinstance(s, For):
                record(s.var, s.start.dtype, "used as a loop variable")
            elif isinstance(s, Atomic) and s.result is not None:
                pt = getattr(s.ptr, "type", None)
                if not isinstance(pt, PointerType):
                    raise self.fail("atomic on a non-pointer operand")
                record(s.result, pt.elem, "used as an atomic result")
            elif isinstance(s, (Break, Continue)):
                pass
        self.var_types = sites

    # -- pointer operands ----------------------------------------------
    def ptr(self, ptr: Expr) -> tuple[AddressSpace, str, DType, str | None]:
        t = getattr(ptr, "type", None)
        if not isinstance(t, PointerType):
            raise self.fail("pointer operand is not pointer-typed")
        if isinstance(ptr, Param):
            if t.space is not AddressSpace.GLOBAL:
                raise self.fail(
                    f"pointer parameter {ptr.name!r} in space {t.space.value}"
                )
            self.used_buffers.add(ptr.name)
            return t.space, f"b_{ptr.name}", t.elem, ptr.name
        if isinstance(ptr, Var):
            if t.space is AddressSpace.SHARED:
                if ptr.name not in self.shared_decls:
                    raise self.fail(
                        f"use of shared array {ptr.name!r} before its "
                        "declaration"
                    )
                return t.space, f"sh_{ptr.name}", t.elem, ptr.name
            if t.space is AddressSpace.LOCAL:
                if ptr.name not in self.local_decls:
                    raise self.fail(
                        f"use of local array {ptr.name!r} before its "
                        "declaration"
                    )
                return t.space, f"lo_{ptr.name}", t.elem, ptr.name
            raise self.fail(f"pointer variable {ptr.name!r} in global space")
        raise self.fail(f"unsupported pointer expression {type(ptr).__name__}")

    # -- expressions ----------------------------------------------------
    def ex(self, e: Expr, m: Mask, n: str) -> Val:
        if isinstance(e, Const):
            return Val(self.const(e.type, e.value), np.dtype(e.type.np), True)
        if isinstance(e, SReg):
            if e.kind in _LANE_SREGS:
                var = f"sr_{_LANE_SREGS[e.kind]}"
                self.used_sregs[e.kind] = var
                geom = _SREG_GEOM.get(e.kind, "")
                return Val(var, np.dtype(np.int32), False, Fact(var, geom=geom))
            var = f"sg_{_STATIC_SREGS[e.kind]}"
            self.used_sregs[e.kind] = var
            return Val(var, np.dtype(np.int32), True)
        if isinstance(e, Param):
            if e.is_pointer:
                raise self.fail(
                    f"pointer parameter {e.name!r} evaluated as a scalar"
                )
            self.used_scalars.add(e.name)
            return Val(f"p_{e.name}", np.dtype(e.type.np), True)
        if isinstance(e, Var):
            if e.is_pointer:
                raise self.fail(
                    f"pointer variable {e.name!r} evaluated as a scalar"
                )
            dt = self.var_types.get(e.name)
            if dt is None:
                # never assigned anywhere: the interpreter faults on
                # every execution
                self.w(f"_undef_read(KNAME, {e.name!r})")
                return Val(f"v_{e.name}", np.dtype(e.type.np), None)
            if e.name not in self.assigned:
                self.w(f"if v_{e.name} is _UNDEF:")
                with self.indent():
                    self.w(f"_undef_read(KNAME, {e.name!r})")
            self.ledger.read(e.name, m)
            var, npdt, tri = f"v_{e.name}", np.dtype(dt.np), self.tri.get(e.name)
            base = (
                tri is False and e.name in self.assigned
                and npdt.kind == "i" and npdt.itemsize >= 4
            )
            fact = Fact(var, geom=self.geom.get(e.name, "")) if base else None
            return Val(var, npdt, tri, fact)
        if isinstance(e, BinOp):
            return self.ex_binop(e, m, n)
        if isinstance(e, UnOp):
            v = self.ex(e.operand, m, n)
            if e.op == "-":
                self.count("flops" if e.dtype.is_float else "int_ops", n)
                return Val(self.bind(f"np.negative({v.code})"), v.np, v.tri)
            if e.op == "!":
                self.count("int_ops", n)
                tv = self.truthy(v)
                return Val(self.bind(f"~({tv.code})"), _BOOL, v.tri)
            # '~'
            self.count("int_ops", n)
            cv = self.cast(v, e.dtype.np)
            return Val(
                self.bind(f"np.invert({cv.code})"), np.dtype(e.dtype.np), v.tri
            )
        if isinstance(e, Cast):
            v = self.ex(e.value, m, n)
            self.count("int_ops", n)
            return self.cast(v, e.type.np)
        if isinstance(e, Load):
            return self.ex_load(e, m, n)
        if isinstance(e, Call):
            vals = [self.ex(a, m, n) for a in e.args]
            out = e.dtype
            args = [self.cast(v, out.np) for v in vals]
            if e.name in ("min", "max", "abs") and not out.is_float:
                self.count("int_ops", n)
            elif e.name in ("min", "max", "abs", "fabs", "floor", "ceil"):
                self.count("flops", n)
            else:
                self.count("special_ops", n)
            if e.name not in INTRINSIC_IMPLS:
                raise self.fail(f"unknown intrinsic {e.name!r}")
            impl = f"_in_{e.name}"
            if e.name not in self.intrinsics:
                self.intrinsics.add(e.name)
                self.const_lines.append(
                    f"{impl} = INTRINSIC_IMPLS[{e.name!r}]"
                )
            arglist = ", ".join(a.code for a in args)
            # apply_intrinsic always casts its result: intrinsics on
            # np scalars can promote (rsqrt -> float64), so never elide
            t = self.bind(
                f"np.asarray({impl}({arglist}))"
                f".astype({self.dt(out.np)}, copy=False)"
            )
            return Val(t, np.dtype(out.np), tri_all(*[v.tri for v in vals]))
        if isinstance(e, Select):
            cv = self.truthy(self.ex(e.cond, m, n))
            mt = self.refine(m, cv.code)
            tv = self.ex(e.if_true, mt, n)
            mf = self.refine(m, f"~({cv.code})")
            fv = self.ex(e.if_false, mf, n)
            dt = np.dtype(e.dtype.np)
            self.count("int_ops", n)
            ta = self.cast(tv, dt)
            fa = self.cast(fv, dt)
            t = self.bind(f"np.where({cv.code}, {ta.code}, {fa.code})")
            return Val(t, dt, tri_all(cv.tri, tv.tri, fv.tri))
        raise self.fail(f"cannot evaluate {type(e).__name__}")

    def ex_binop(self, e: BinOp, m: Mask, n: str) -> Val:
        op = e.op
        if op in ("&&", "||"):
            lv = self.truthy(self.ex(e.lhs, m, n))
            lt = lv.code if lv.code.isidentifier() else self.bind(lv.code)
            self.count("int_ops", n)
            if op == "&&":
                m2 = self.refine(m, lt)
                rv = self.truthy(self.ex(e.rhs, m2, n))
                t = self.bind(f"{lt} & {rv.code}")
            else:
                m2 = self.refine(m, f"~{lt}")
                rv = self.truthy(self.ex(e.rhs, m2, n))
                t = self.bind(f"{lt} | {rv.code}")
            return Val(t, _BOOL, tri_all(lv.tri, rv.tri))
        lv = self.ex(e.lhs, m, n)
        rv = self.ex(e.rhs, m, n)
        if op in _CMP_OPS:
            ct = common_type(e.lhs.dtype, e.rhs.dtype)
            la = self.cast(lv, ct.np)
            ra = self.cast(rv, ct.np)
            self.count("flops" if ct.is_float else "int_ops", n)
            t = self.bind(f"({la.code} {op} {ra.code})")
            return Val(t, _BOOL, tri_all(lv.tri, rv.tri))
        rt = e.dtype
        rtnp = np.dtype(rt.np)
        tri = tri_all(lv.tri, rv.tri)
        if op in ("<<", ">>"):
            la = self.cast(lv, rtnp)
            ra = self.cast(rv, _I64)
            self.count("int_ops", n)
            # the int64 shift count widens under NumPy promotion; wrap
            # back to the declared C type like the interpreter does
            t = self.bind(
                f"({la.code} {op} {ra.code})"
                f".astype({self.dt(rtnp)}, copy=False)"
            )
            return Val(t, rtnp, tri)
        la = self.cast(lv, rtnp)
        ra = self.cast(rv, rtnp)
        if rt.is_float:
            if op == "/":
                self.count("div_ops", n)
            else:
                self.count("flops", n)
            t = self.bind(f"({la.code} {op} {ra.code})")
            return Val(t, rtnp, tri)
        self.count("int_ops", n)
        if op in ("+", "-", "*"):
            fact, t = affine(op, la, ra), self.tmp()
            line = f"{t} = ({la.code} {op} {ra.code})"
            if self.lazy and fact and tri is not True:
                return Val(t, rtnp, tri, fact, la.pending + ra.pending + (line,))
            self.force(la, ra)
            self.w(line)
            return Val(t, rtnp, tri, fact)
        elif op == "/":
            # _c_int_div output dtype equals its (already-cast) operand
            # dtype, so the interpreter's trailing astype is an identity
            t = self.bind(f"_c_int_div({la.code}, {ra.code})")
        elif op == "%":
            t = self.bind(f"_c_int_mod({la.code}, {ra.code})")
        else:
            raise self.fail(f"unknown binary operator {op!r}")
        return Val(t, rtnp, tri)

    # -- statements -----------------------------------------------------
    def body(self, stmts: list[Stmt], m: Mask) -> Mask | None:
        """Emit a statement list under mask ``m``; returns the fall-
        through mask, or ``None`` after an unconditional lane exit.

        The interpreter re-checks ``mask.any()`` before *every*
        statement; masks only change at exit points (Return / Break /
        Continue, possibly nested in an If), so one check after each
        shrink point is equivalent."""
        for i, s in enumerate(stmts):
            m2 = self.stmt(s, m)
            if m2 is None:
                return None
            if m2 is not m:
                rest = stmts[i + 1 :]
                if not rest:
                    return m2
                out = self.tmp("mb")
                self.w(f"{out} = {m2.var}")
                self.w(f"if {m2.var}.any():")
                with self.indent():
                    tail = self.body(rest, m2)
                    if tail is not None:
                        self.w(f"{out} = {tail.var}")
                    else:
                        self.w(f"{out} = np.zeros(nl, dtype=bool)")
                return self.narrowed(out, m)
            m = m2
        return m

    def stmt(self, s: Stmt, m: Mask) -> Mask | None:
        if isinstance(s, Assign):
            return self.stmt_assign(s, m)
        if isinstance(s, Store):
            return self.stmt_store(s, m)
        if isinstance(s, If):
            return self.stmt_if(s, m)
        if isinstance(s, For):
            return self.stmt_for(s, m)
        if isinstance(s, While):
            return self.stmt_while(s, m)
        if isinstance(s, Return):
            self.need_ret = True
            self.masked = True
            self.w(f"_ret |= {m.var}")
            return None
        if isinstance(s, Break):
            if not self.loops:
                raise self.fail("break outside a loop")
            self.masked = True
            self.w(f"{self.loops[-1].bk} |= {m.var}")
            return None
        if isinstance(s, Continue):
            if not self.loops:
                raise self.fail("continue outside a loop")
            self.masked = True
            return None
        if isinstance(s, SyncThreads):
            self.need_span = True
            self.count("barriers", "_spanf")
            return m
        if isinstance(s, Atomic):
            return self.stmt_atomic(s, m)
        if isinstance(s, AllocShared):
            sv = self.ex(s.size, m, m.n)
            t = self.bind(sv.code, "sz")
            self.w(f"if np.ndim({t}) != 0:")
            with self.indent():
                self.w(
                    "raise InterpError(\"shared array "
                    f"{s.name!r} extent must be block-invariant\")"
                )
            self.w(f"ctx._shared_seg[{s.name!r}] = int({t})")
            self.w(
                f"sh_{s.name} = np.zeros(int({t}) * ctx._span_len, "
                f"dtype={self.dt(s.elem.np)})"
            )
            self.w(f"ctx._shared[{s.name!r}] = sh_{s.name}")
            self.shared_decls.add(s.name)
            return m
        if isinstance(s, AllocLocal):
            sv = self.ex(s.size, m, m.n)
            t = self.bind(sv.code, "sz")
            self.w(f"if np.ndim({t}) != 0:")
            with self.indent():
                self.w(
                    "raise InterpError(\"local array "
                    f"{s.name!r} extent must be launch-invariant\")"
                )
            self.w(f"ctx._local_seg[{s.name!r}] = int({t})")
            self.w(
                f"lo_{s.name} = np.zeros(int({t}) * nl, "
                f"dtype={self.dt(s.elem.np)})"
            )
            self.w(f"ctx._local[{s.name!r}] = lo_{s.name}")
            self.local_decls.add(s.name)
            return m
        raise self.fail(f"cannot execute {type(s).__name__}")

    def stmt_assign(self, s: Assign, m: Mask) -> Mask:
        val = self.ex(s.value, m, m.n)
        dt = self.var_types[s.name]
        vc = self.cast(val, dt.np)
        tv = self.bind(vc.code, "av")
        definitely = s.name in self.assigned
        maybe = s.name in self.tri or definitely or not self._top_scope(s.name)
        old = f"v_{s.name}"
        copy = [
            f"if {tv}.ndim and {tv}.base is not None:",
            f"    {tv} = {tv}.copy()",
        ]
        if m.full or not maybe:
            lines, new_tri = copy, vc.tri
        else:
            guard = "" if definitely else f"{old} is not _UNDEF and "
            lines = [
                f"if {guard}{m.n} < {self.nlf}:",
                f"    {tv} = np.where({m.var}, {tv}, {old})",
                "el" + copy[0],
                copy[1],
            ]
            # lane-shaped in, lane-shaped out, merged or not
            new_tri = False if vc.tri is False else None
        pad = " " * (4 * self.ind)
        slot = [pad + line for line in lines]
        if lines is not copy and self.ledger.candidate(m, vc.tri):
            self.ledger.plans.append(
                MergePlan(s.name, m, slot, [pad + line for line in copy])
            )
        self.lines.append(slot)
        self.w(f"v_{s.name} = {tv}")
        self.assigned.add(s.name)
        self.tri[s.name] = new_tri
        self.geom[s.name] = geom_of(vc.fact)
        self.cse_kill(s.name)
        return m

    def _top_scope(self, name: str) -> bool:
        """Whether an assignment to ``name`` here is provably the first
        execution ever to touch it (no loop around us, no earlier
        assignment emitted)."""
        return not self.loops and name not in self.tri

    def stmt_store(self, s: Store, m: Mask) -> Mask:
        space, arr, elem, name = self.ptr(s.ptr)
        iv = self.ex(s.index, m, m.n)
        vv = self.ex(s.value, m, m.n)
        if space is AddressSpace.SHARED:
            ix = self.seg_index("shared", name, iv, m)
        elif space is AddressSpace.LOCAL:
            ix = self.seg_index("local", name, iv, m)
        else:
            ix = self.safe_index(iv, m, arr, "store", name)
        vc = self.cast(vv, elem.np)
        tv = vc.code if vc.code.isidentifier() else self.bind(vc.code)
        self.mem_counts(space, elem.size, m.n, is_store=True)
        if space is AddressSpace.GLOBAL:
            self.count_lines(ix, m, elem.size, m.n)
        safe = ix.safe
        self.w(f"if np.ndim({safe}) == 0:")
        with self.indent():
            if m.full:
                self.w(
                    f"{arr}[int({safe})] = {tv} if np.ndim({tv}) == 0 "
                    f"else {tv}[0]"
                )
            else:
                self.w(
                    f"{arr}[int({safe})] = {tv} if np.ndim({tv}) == 0 "
                    f"else {tv}[np.argmax({m.var})]"
                )
        self.w("else:")
        with self.indent():
            if m.full:
                self.w(f"{arr}[{safe}] = np.broadcast_to({tv}, {m.var}.shape)")
            else:
                vb = self.bind(f"np.broadcast_to({tv}, {m.var}.shape)", "vb")
                self.w(f"{arr}[{safe}[{m.var}]] = {vb}[{m.var}]")
        return m

    def stmt_atomic(self, s: Atomic, m: Mask) -> Mask:
        space, arr, elem, name = self.ptr(s.ptr)
        iv = self.ex(s.index, m, m.n)
        with self.retained():
            vv = self.cast(self.ex(s.value, m, m.n), elem.np)
        if space is AddressSpace.SHARED:
            ix = self.seg_index("shared", name, iv, m)
        elif space is AddressSpace.LOCAL:
            ix = self.seg_index("local", name, iv, m)
        else:
            ix = self.safe_index(iv, m, arr, "atomic", name)
        safe = ix.safe
        if m.full:
            safe_l = self.bind(
                f"np.broadcast_to({safe}, {m.var}.shape)", "al"
            )
            val_l = self.bind(f"np.broadcast_to({vv.code}, {m.var}.shape)", "al")
        else:
            safe_l = self.bind(
                f"np.broadcast_to({safe}, {m.var}.shape)[{m.var}]", "al"
            )
            val_l = self.bind(
                f"np.broadcast_to({vv.code}, {m.var}.shape)[{m.var}]", "al"
            )
        self.count("atomics", m.n)
        self.mem_counts(space, elem.size, m.n, is_store=True, factor=2.0)
        if space is AddressSpace.GLOBAL:
            self.count_lines(ix, m, elem.size, m.n)
        cmp_l = "None"
        if s.op == "cas":
            with self.retained():
                cv = self.cast(self.ex(s.compare, m, m.n), elem.np)
            if m.full:
                cmp_l = self.bind(
                    f"np.broadcast_to({cv.code}, {m.var}.shape)", "al"
                )
            else:
                cmp_l = self.bind(
                    f"np.broadcast_to({cv.code}, {m.var}.shape)[{m.var}]",
                    "al",
                )
        old = "None"
        if s.result is not None:
            old = self.bind(
                f"np.broadcast_to({arr}[{safe}], {m.var}.shape)"
                f".astype({self.dt(elem.np)}, copy=True)",
                "old",
            )
            rv = f"v_{s.result}"
            if not m.full:
                if s.result in self.assigned:
                    self.w(f"if not {m.var}.all():")
                else:
                    self.w(f"if {rv} is not _UNDEF and not {m.var}.all():")
                with self.indent():
                    # stored result values always carry the element
                    # dtype, so the interpreter's prev-cast is identity
                    self.w(
                        f"{old} = np.where({m.var}, {old}, {rv})"
                        f".astype({self.dt(elem.np)}, copy=False)"
                    )
        self.w(
            f"_atomic({arr}, {safe_l}, {val_l}, {s.op!r}, "
            f"cmp_l={cmp_l}, old={old if s.result is not None else 'None'}, "
            f"mask={m.var})"
        )
        if s.result is not None:
            self.w(f"v_{s.result} = {old}")
            self.assigned.add(s.result)
            self.tri[s.result] = False
            self.cse_kill(s.result)
        return m

    # -- control flow ---------------------------------------------------
    def _merge_scope(self, snap_a, snap_t, a_assigned, a_tri) -> None:
        """Join two emission paths' static var state (then/else arms,
        dual loop forms): definite = intersection, tri = agree-or-None."""
        b_assigned, b_tri = self.assigned, self.tri
        self.assigned = snap_a | (a_assigned & b_assigned)
        merged = dict(snap_t)
        for name in set(a_tri) | set(b_tri):
            ta = a_tri.get(name, snap_t.get(name))
            tb = b_tri.get(name, snap_t.get(name))
            merged[name] = ta if ta == tb else None
        self.tri = merged

    def stmt_if(self, s: If, m: Mask) -> Mask:
        self.count("branches", m.n)
        cv = self.truthy(self.ex(s.cond, m, m.n))
        c = cv.code
        scalar_if = cv.tri is True and id(s) in self.facts.invariant_conds
        shrink_t = can_shrink(s.then_body)
        shrink_e = can_shrink(s.else_body)
        kills_t = loop_assigned(s.then_body)
        kills_e = loop_assigned(s.else_body)
        snap_a, snap_t = set(self.assigned), dict(self.tri)
        if scalar_if:
            out = self.tmp("mi") if (shrink_t or shrink_e) else None
            self.w(f"if {c}:")
            with self.indent(), self.cse_scope():
                t_out = self.body(s.then_body, m)
                if out:
                    self.w(
                        f"{out} = {t_out.var}"
                        if t_out is not None
                        else f"{out} = np.zeros(nl, dtype=bool)"
                    )
                elif not s.then_body:
                    self.w("pass")
            a_assigned, a_tri = set(self.assigned), dict(self.tri)
            self.assigned, self.tri = set(snap_a), dict(snap_t)
            if s.else_body or out:
                self.w("else:")
                with self.indent(), self.cse_scope():
                    f_out = self.body(s.else_body, m)
                    if out:
                        self.w(
                            f"{out} = {f_out.var}"
                            if f_out is not None
                            else f"{out} = np.zeros(nl, dtype=bool)"
                        )
                    elif not s.else_body:  # pragma: no cover
                        self.w("pass")
            self._merge_scope(snap_a, snap_t, a_assigned, a_tri)
            # exactly one arm ran, but we can't tell which: pooled values
            # that mention an arm-assigned variable are stale either way
            self.cse_kill(*kills_t, *kills_e)
            if out:
                return self.narrowed(out, m)
            return m
        # masked arms
        self.masked = True
        mt = self.bind(f"{m.var} & {c}", "mt")
        need_f = bool(s.else_body) or shrink_t or shrink_e
        mf = self.bind(f"{m.var} & ~({c})", "mf") if need_f else None
        t_out_var = mt
        f_out_var = mf
        self.w(f"if {mt}.any():")
        with self.indent(), self.cse_scope():
            t_res = self.body(s.then_body, self.narrowed(mt, m))
            if not s.then_body:
                self.w("pass")
            if shrink_t or shrink_e:
                t_out_var = self.tmp("mo")
                self.w(
                    f"{t_out_var} = {t_res.var}"
                    if t_res is not None
                    else f"{t_out_var} = np.zeros(nl, dtype=bool)"
                )
        # both arms run at runtime: the else arm must not reuse pre-if
        # values of anything the then arm may have reassigned
        self.cse_kill(*kills_t)
        if shrink_t or shrink_e:
            # arm skipped at runtime -> its out-mask is the (empty) arm mask
            self.w(f"else:")
            with self.indent():
                self.w(f"{t_out_var} = {mt}")
        a_assigned, a_tri = set(self.assigned), dict(self.tri)
        self.assigned, self.tri = set(snap_a), dict(snap_t)
        if s.else_body:
            self.w(f"if {mf}.any():")
            with self.indent(), self.cse_scope():
                f_res = self.body(s.else_body, self.narrowed(mf, m))
                if shrink_t or shrink_e:
                    f_out_var = self.tmp("mo")
                    self.w(
                        f"{f_out_var} = {f_res.var}"
                        if f_res is not None
                        else f"{f_out_var} = np.zeros(nl, dtype=bool)"
                    )
            self.cse_kill(*kills_e)
            if shrink_t or shrink_e:
                self.w(f"else:")
                with self.indent():
                    self.w(f"{f_out_var} = {mf}")
        self._merge_scope(snap_a, snap_t, a_assigned, a_tri)
        if not (shrink_t or shrink_e):
            # t_out | f_out == m when no lane can exit in either arm
            return m
        out = self.bind(f"{t_out_var} | {f_out_var}", "mo")
        return self.narrowed(out, m)

    def stmt_for(self, s: For, m: Mask) -> Mask:
        with self.retained():
            sv = self.ex(s.start, m, m.n)
            pv = self.ex(s.stop, m, m.n)
            ev = self.ex(s.step, m, m.n)
        sc = sv.code if sv.code.isidentifier() else self.bind(sv.code)
        pc = pv.code if pv.code.isidentifier() else self.bind(pv.code)
        ec = ev.code if ev.code.isidentifier() else self.bind(ev.code)
        assigns = any(
            isinstance(st, Assign) and st.name == s.var
            for st in iter_stmts(s.body)
        )
        ret_in = contains(s.body, Return)
        bk = None
        if has_break_at_level(s.body):
            bk = self.bind("np.zeros(nl, dtype=bool)", "bk")
        carried = loop_assigned(s.body)
        self.loops.append(LoopCtx(bk, frozenset(carried | {s.var})))
        tri3 = tri_all(sv.tri, pv.tri, ev.tri)
        # bounds are evaluated on pre-loop values (above); everything the
        # body assigns is loop-carried and of unknown shape from here on
        for name in carried:
            if name in self.tri:
                self.tri[name] = None
        # kill before the scope snapshot: restoring the pool at loop exit
        # must not resurrect values the loop body reassigned
        self.cse_kill(s.var, *carried)
        snap_a, snap_t = set(self.assigned), dict(self.tri)
        try:
            if not assigns and tri3 is True:
                with self.cse_scope():
                    self._for_invariant(s, m, sc, pc, ec, bk, ret_in)
            elif assigns or tri3 is False:
                with self.cse_scope():
                    self._for_variant(s, m, sc, pc, ec, bk, ret_in, assigns)
            else:
                # scalar-ness of the bounds is observable (the interpreter
                # picks different store/merge paths), so dispatch at
                # runtime exactly like it does
                self.masked = True
                self.w(
                    f"if np.ndim({sc}) == 0 and np.ndim({pc}) == 0 "
                    f"and np.ndim({ec}) == 0:"
                )
                with self.indent(), self.cse_scope():
                    self._for_invariant(s, m, sc, pc, ec, bk, ret_in)
                a_assigned, a_tri = set(self.assigned), dict(self.tri)
                self.assigned, self.tri = set(snap_a), dict(snap_t)
                self.w("else:")
                with self.indent(), self.cse_scope():
                    self._for_variant(s, m, sc, pc, ec, bk, ret_in, assigns)
                self._merge_scope(snap_a, snap_t, a_assigned, a_tri)
        finally:
            self.loops.pop()
        # 0-trip loops make body effects non-definite
        self.assigned = set(snap_a)
        for name in set(self.tri) - set(snap_t):
            self.tri[name] = None
        for name in snap_t:
            if self.tri.get(name) != snap_t[name]:
                self.tri[name] = None
        if ret_in:
            out = self.bind(f"{m.var} & ~_ret", "mo")
            return self.narrowed(out, m)
        return m

    def _loop_body_mask(
        self, m: Mask, bk: str | None, ret_in: bool
    ) -> Mask:
        """Per-iteration active mask: entry minus broken minus returned.
        Elided entirely when no lane can leave mid-loop (the recomputed
        mask would equal the entry mask every iteration)."""
        if bk is None and not ret_in:
            return m
        terms = m.var
        if bk is not None:
            terms += f" & ~{bk}"
        if ret_in:
            terms += " & ~_ret"
        cur = self.bind(terms, "mc")
        self.w(f"if not {cur}.any():")
        with self.indent():
            self.w("break")
        return self.narrowed(cur, m)

    def _for_invariant(
        self, s: For, m: Mask, sc: str, pc: str, ec: str,
        bk: str | None, ret_in: bool,
    ) -> None:
        fs = self.bind(f"int({ec})", "fs")
        self.w(f"if {fs} == 0:")
        with self.indent():
            self.w(f"if int({sc}) < int({pc}):")
            with self.indent():
                self.w(
                    "raise InterpError(\"loop "
                    f"{s.var!r} has zero step with a nonzero trip count\")"
                )
        self.w("else:")
        with self.indent():
            # the preheader: facts about bases the body leaves alone are
            # spliced in here as its accesses ask for them
            loop = self.loops[-1]
            loop.slot, loop.ind = [], self.ind
            loop.mask = m.var if bk is None and not ret_in else None
            self.lines.append(loop.slot)
            it = self.tmp("i")
            self.w(f"for {it} in range(int({sc}), int({pc}), {fs}):")
            with self.indent():
                mb = self._loop_body_mask(m, bk, ret_in)
                ctor = self.ctor(s.start.dtype.np)
                self.w(f"v_{s.var} = {ctor}({it})")
                self.assigned.add(s.var)
                self.tri[s.var] = True
                self.body(s.body, mb)
            # the other (run-time dispatched) form hosts nothing
            loop.slot = loop.mask = None

    def _for_variant(
        self, s: For, m: Mask, sc: str, pc: str, ec: str,
        bk: str | None, ret_in: bool, assigns: bool,
    ) -> None:
        self.masked = True
        T = self.dt(s.start.dtype.np)
        vv = self.bind(
            f"np.broadcast_to(np.asarray({sc}).astype({T}, copy=False), "
            f"{m.var}.shape).copy()",
            "vv",
        )
        sa = self.bind(f"np.asarray({ec})", "sa")
        sb = self.bind(f"np.broadcast_to({sa}, {m.var}.shape)", "sb")
        it = self.bind("0", "it")
        self.w("while True:")
        with self.indent():
            lv = self.bind(
                f"np.where({sb} > 0, {vv} < {pc}, "
                f"np.where({sb} < 0, {vv} > {pc}, {vv} < {pc}))",
                "lv",
            )
            terms = f"{m.var}"
            if bk is not None:
                terms += f" & ~{bk}"
            if ret_in:
                terms += " & ~_ret"
            cur = self.bind(f"{terms} & {lv}", "mc")
            self.w(f"if not {cur}.any():")
            with self.indent():
                self.w("break")
            if not assigns:
                self.w(f"if bool(({sb}[{cur}] == 0).any()):")
                with self.indent():
                    self.w(
                        "raise InterpError(\"loop "
                        f"{s.var!r} has zero step with a nonzero trip "
                        "count for an active lane\")"
                    )
            mb = self.narrowed(cur, m)
            self.w(f"v_{s.var} = {vv}")
            self.assigned.add(s.var)
            self.tri[s.var] = False
            self.body(s.body, mb)
            self.w(
                f"{vv} = (np.broadcast_to(np.asarray(v_{s.var})"
                f".astype({T}, copy=False), (nl,)) + {sa})"
                f".astype({T}, copy=False)"
            )
            self._tick(it, f"loop over {s.var!r}")

    def _tick(self, it: str, what: str) -> None:
        self.w(f"{it} += 1")
        self.w(f"if {it} > {MAX_LOOP_ITERS}:")
        with self.indent():
            self.w(
                f"raise InterpError(\"{what} exceeded "
                f"{MAX_LOOP_ITERS} iterations\")"
            )

    def stmt_while(self, s: While, m: Mask) -> Mask:
        self.masked = True
        ret_in = contains(s.body, Return)
        bk = None
        if has_break_at_level(s.body):
            bk = self.bind("np.zeros(nl, dtype=bool)", "bk")
        kills = loop_assigned(s.body)
        sparse = None
        if bk is None and not ret_in:
            sparse = sparse_plan(s, self.assigned, _LANE_SREGS)
        self.loops.append(LoopCtx(bk, frozenset(kills)))
        snap_a, snap_t = set(self.assigned), dict(self.tri)
        # condition and body may read loop-carried values
        for name in kills:
            if name in self.tri:
                self.tri[name] = None
        # as in stmt_for: kill loop-carried names before the scope snapshot
        self.cse_kill(*kills)
        it = self.bind("0", "it")
        try:
            self.w("while True:")
            with self.indent(), self.cse_scope():
                mc = self._loop_body_mask(m, bk, ret_in)
                cv = self.truthy(self.ex(s.cond, mc, mc.n))
                cur = self.bind(f"{mc.var} & {cv.code}", "mc")
                self.w(f"if not {cur}.any():")
                with self.indent():
                    self.w("break")
                mb = self.narrowed(cur, mc)
                if sparse is not None:
                    self._while_sparse(s, sparse, mc, mb, it)
                self.body(s.body, mb)
                self._tick(it, "while loop")
        finally:
            self.loops.pop()
        self.assigned = set(snap_a)
        for name in set(self.tri) - set(snap_t):
            self.tri[name] = None
        for name in snap_t:
            if self.tri.get(name) != snap_t[name]:
                self.tri[name] = None
        if ret_in:
            out = self.bind(f"{m.var} & ~_ret", "mo")
            return self.narrowed(out, m)
        return m

    def _while_sparse(
        self, s: While, plan, mc: Mask, mb: Mask, it: str
    ) -> None:
        """Finish a register-only loop on its active lanes.

        Printed at the top of a dense iteration, after its mask ``mb``
        is known: at low occupancy, gather every register the loop
        touches at the active lanes, run the remaining iterations on
        those (same condition and body, same ``n`` metering — the
        condition still bills the entry count, the body the live
        gathered lanes), then copy each written register and scatter
        the gathered values back.  :func:`plan.sparse_plan` holds the
        proof that retired lanes stay retired; the copy keeps a register
        that aliases another (``a = b``) from writing through."""
        self.features["sparse_loop"] += 1
        self.w(f"if {mb.n} <= {self.nlf} * {SPARSE_OCCUPANCY}:")
        state = set(self.assigned), dict(self.tri), dict(self.geom)
        with self.indent(), self.cse_scope():
            self.cse = {}  # nothing pooled at full width fits gathered lanes
            sx = self.bind(f"np.flatnonzero({mb.var})", "sx")
            saved: dict[str, str] = {}
            names = {f"v_{r}": self.tri.get(r) for r in plan.reads + plan.writes}
            for kind in plan.sregs:
                var = self.used_sregs[kind] = f"sr_{_LANE_SREGS[kind]}"
                names[var] = False
            for name, tri in names.items():
                saved[name] = self.bind(name, "f")
                if tri is False:
                    self.w(f"{name} = {name}[{sx}]")
                elif tri is None:
                    self.w(f"{name} = {name}[{sx}] if np.ndim({name}) else {name}")
            depth = len(self.loops)
            mk = Mask(self.tmp("mk"), self.tmp("n"), False, mb, depth)
            self.w(f"{mk.n} = {mb.n}")
            self.w(f"{mk.var} = np.ones({sx}.size, dtype=bool)")
            outer, self.nlf = self.nlf, self.bind(mb.n, "kf")
            self.w("while True:")
            with self.indent():
                self.body(s.body, mk)
                self._tick(it, "while loop")
                cv = self.truthy(self.ex(s.cond, mk, mc.n))
                self.w(f"{mk.var} = {mk.var} & {cv.code}")
                self.w(f"if not {mk.var}.any():")
                with self.indent():
                    self.w("break")
                self.w(f"{mk.n} = float(np.count_nonzero({mk.var}))")
            self.nlf = outer
            written = {f"v_{r}" for r in plan.writes}
            for name, full in saved.items():
                if name in written:
                    out = self.bind(f"np.array(np.broadcast_to({full}, (nl,)))")
                    self.w(f"{out}[{sx}] = {name}")
                    full = out
                self.w(f"{name} = {full}")
            self.w("break")
        self.assigned, self.tri, self.geom = state

    # -- top level ------------------------------------------------------
    def generate(self) -> Generated:
        self._prepass()
        m0 = Mask("m0", "_nlf", True)
        self.body(self.k.body, m0)
        self.features["direct_merge"] = self.ledger.resolve()
        body: list[str] = []
        for line in self.lines:
            body.extend(line) if isinstance(line, list) else body.append(line)
        # an active count nothing meters (a Return-only arm, the tail
        # mask of the last statement) is dropped; it is never the only
        # line of a suite
        text = "\n".join(body)
        dead = {
            line for n, line in self.counts
            if len(re.findall(rf"\b{n}\b", text)) == 1
        }
        body = [line for line in body if line not in dead] or [
            " " * (4 * self.ind) + "pass"
        ]
        header: list[str] = [
            f"# JIT specialization of kernel {self.k.name!r} "
            f"(codegen v{CODEGEN_VERSION})",
            f"KNAME = {self.k.name!r}",
        ]
        header.extend(self.const_lines)
        header.append("")
        header.append("")
        header.append("def _jit_span(ctx, counters):")
        pre: list[str] = [
            "nl = ctx.nlanes",
            "_nlf = float(nl)",
            "m0 = np.ones(nl, dtype=bool)",
        ]
        if self.need_span:
            pre.append("_spanf = float(ctx._span_len)")
        if self.need_tpb:
            pre.append("_tpb = ctx.config.threads_per_block")
        for kind in sorted(self.used_sregs, key=lambda k: k.name):
            var = self.used_sregs[kind]
            table = (
                "_lane_sregs" if kind in _LANE_SREGS else "_static_sregs"
            )
            pre.append(f"{var} = ctx.{table}[SRegKind.{kind.name}]")
        for name in sorted(self.used_scalars):
            pre.append(f"p_{name} = ctx._scalars[{name!r}]")
        for name in sorted(self.used_buffers):
            pre.append(f"b_{name} = ctx._buffers[{name!r}]")
        if self.need_ret:
            pre.append("_ret = np.zeros(nl, dtype=bool)")
        for name in sorted(self.var_types):
            pre.append(f"v_{name} = _UNDEF")
        for field in _COUNTER_FIELDS:
            if field in self.used_counters:
                pre.append(f"_c_{field} = 0.0")
        out = header + ["    " + p for p in pre]
        out.append("    try:")
        out.append("        with np.errstate(all=\"ignore\"):")
        out.extend(body)
        out.append("    finally:")
        out.append("        if counters is not None:")
        flushed = False
        for field in _COUNTER_FIELDS:
            if field in self.used_counters:
                out.append(
                    f"            counters.{field} += _c_{field}"
                )
                flushed = True
        if not flushed:
            out.append("            pass")
        return Generated("\n".join(out) + "\n", not self.masked, self.features)
