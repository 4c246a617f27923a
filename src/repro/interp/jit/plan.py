"""The JIT's lowered records: what codegen decided, apart from how the
decision is printed.

:mod:`repro.interp.jit.compiler` walks the IR and prints NumPy source;
the values it threads through that walk (:class:`Val`, :class:`Mask`,
:class:`Fact`) and the per-site decisions it takes (:class:`AccessPlan`,
:class:`MergePlan`, :class:`SparsePlan`) live here, so a decision can be
stated, counted (:data:`FEATURES`) and tested without matching generated
Python.  This is the first slice of the lowered form ROADMAP item 1 asks
for: accesses and merges are planned here and printed by
:mod:`~repro.interp.jit.memory` / the compiler; loop nests and masks are
still decided where they are printed.

Every plan is a *licence*, never an assumption: each fast form sits
behind a run-time proof (a scalar interval check, a preheader flag over
the actual lane values, an occupancy count) whose ``else`` is the
unchanged per-access code, so a wrong hint costs time and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.ir.expr import (
    BinOp,
    Call,
    Cast,
    Const,
    Expr,
    Load,
    Param,
    SReg,
    SRegKind,
    Var,
)
from repro.ir.stmt import (
    Assign,
    Atomic,
    Break,
    Continue,
    For,
    If,
    Return,
    Stmt,
    While,
)
from repro.ir.visitor import contains, iter_stmts, walk_expr

__all__ = [
    "FEATURES",
    "SPARSE_OCCUPANCY",
    "AccessPlan",
    "Fact",
    "Idx",
    "LoopCtx",
    "Mask",
    "MergeLedger",
    "MergePlan",
    "Proof",
    "SparsePlan",
    "TILE",
    "UNIFORM",
    "Val",
    "affine",
    "affine_index",
    "can_shrink",
    "geom_of",
    "has_break_at_level",
    "loop_assigned",
    "plan_access",
    "sparse_plan",
    "tri_all",
]

#: The strategies a compiled program can record having used (static
#: counts of emitted sites, see ``JITProgram.features``).
FEATURES = (
    "tile", "repeat", "slice", "hoisted_index", "sparse_loop", "direct_merge",
)

#: A register-only divergent loop finishes on gathered lanes once at most
#: this share of the span is still active (a power of two: the emitted
#: test ``n <= nl * SPARSE_OCCUPANCY`` is exact in floats).
SPARSE_OCCUPANCY = 0.125

#: Lane geometry of a fact's base (``BlockExecutor._setup_lanes``):
#: ``threadIdx.x`` repeats a run of consecutive ints (``np.tile``),
#: ``blockIdx.*`` is constant across each block (``np.repeat``).
TILE, UNIFORM = "tile", "uniform"

_EXACT_CALLS = frozenset({"min", "max", "abs", "fabs", "floor", "ceil"})


# ---------------------------------------------------------------------------
# values threaded through emission
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fact:
    """Index fact: the value equals ``scale * base + offset`` on every
    lane as exact integers, modulo the width of the value's dtype.

    ``base`` is the name of a lane-shaped int32/int64 variable or
    special register; ``scale`` and ``offset`` are Python-``int`` source
    text built from ``int(<0-d value>)`` atoms.  NumPy's fixed-width
    ``+ - *`` are the ring operations, so the congruence survives any
    wrapped intermediate: once the *exact* value is shown to fit the
    dtype on every lane, it is the value the vector code computed.

    ``geom`` says how the base lies across the span — true by
    construction for a special register, a hint (checked by a preheader
    flag before anything relies on it) for a variable."""

    base: str
    scale: str = "1"
    offset: str = "0"
    geom: str = ""

    def bare(self, code: str) -> bool:
        """Whether the fact says "this value *is* the base ``code``"."""
        return (self.base, self.scale, self.offset) == (code, "1", "0")


@dataclass(frozen=True)
class Val:
    """An emitted expression: its code (a name or atomic expression),
    its *runtime* NumPy dtype, its scalar-ness tri-state (``True`` =
    provably 0-d, ``False`` = provably lane-shaped, ``None`` = unknown
    at compile time), its index fact when it has one, and — for a
    deferred index — the lines that compute ``code``, not yet printed
    (:meth:`_Codegen.force` prints them in the branch that reads it)."""

    code: str
    np: object
    tri: bool | None
    fact: Fact | None = None
    pending: tuple[str, ...] = ()


@dataclass(frozen=True)
class Idx:
    """A sanitized index as the access sites consume it: the variable
    holding it, whether it is statically 0-d, and — when an index fact
    proved it — ``(flag, lo, hi)``: at run time, if ``flag`` then the
    active lanes' indices span exactly ``[lo, hi]`` (Python ints).
    ``expand``: ``(fn, reps)`` for a tiled / block-uniform load — when
    ``reps`` is nonzero at run time, ``safe`` indexes one period (one
    element per block) and ``np.<fn>(value, reps)`` is the lane vector."""

    safe: str
    uniform: bool = False
    act: tuple[str, str, str] | None = None
    expand: tuple[str, str] | None = None


class Proof(NamedTuple):
    """Names bound by :meth:`MemoryEmitter.prove` (all Python scalars at
    run time).  ``ok``: the exact index fits its dtype and lies in
    ``[0, extent)`` on *every* lane, ``[lo, hi]`` being its exact range
    — so the sanitized index is the index.  ``s``/``o``: the fact's
    scale and offset as bound ints or literals.  ``unit``: the hoisted
    "base is ``lo, lo+1, ...``" flag, or ``None`` if not asked for or
    the scale is not 1.  ``act``: the :class:`Idx` triple, or ``None``."""

    ok: str
    lo: str
    hi: str
    s: str
    o: str
    unit: str | None
    act: tuple[str, str, str] | None


@dataclass
class LoopCtx:
    """One enclosing loop of the emission point: its break mask, the
    variables its body reassigns and, for the invariant-bounds form, the
    preheader ``slot`` (a line list spliced in before the ``for``) that
    per-span facts about loop-invariant bases are hoisted to.  ``mask``
    is the body mask when that is the entry mask on every iteration."""

    bk: str | None
    kills: frozenset
    slot: list | None = None
    ind: int = 0
    mask: str | None = None
    memo: dict = field(default_factory=dict)


@dataclass
class Mask:
    """An emitted lane mask: the bool-array variable, the name of its
    float active-count (valid only for statement-level masks), whether
    it is provably all-true, the mask it was narrowed from, and the loop
    depth it was bound at (a mask bound inside a loop is a different
    set of lanes every iteration).  ``lazy`` holds the condition of an
    expression-level refinement (``var = parent & lazy``) until
    something reads the mask; most never are."""

    var: str
    n: str
    full: bool
    parent: Mask | None = None
    depth: int = 0
    lazy: str | None = None

    def within(self, other: Mask) -> bool:
        """Whether this mask was narrowed (zero or more times) from
        ``other`` — so its lanes are a subset of ``other``'s as long as
        ``other`` has not been rebound in between."""
        m = self
        while m is not None:
            if m is other:
                return True
            m = m.parent
        return False


def tri_all(*tris) -> bool | None:
    if any(t is False for t in tris):
        return False
    if all(t is True for t in tris):
        return True
    return None


def affine(op: str, a: Val, b: Val) -> Fact | None:
    """Index fact of ``a op b`` for ``+ - *`` on two ints of one dtype:
    a fact on one side and a proved-0-d value on the other compose; two
    lane-shaped sides (two bases) do not."""
    if a.fact is not None and b.tri is True:
        f, k = a.fact, f"int({b.code})"
    elif b.fact is not None and a.tri is True and op != "-":
        f, k = b.fact, f"int({a.code})"
    elif b.fact is not None and a.tri is True:
        f = b.fact  # k - f
        scale = "-1" if f.scale == "1" else f"-({f.scale})"
        return replace(
            f, scale=scale, offset=f"int({a.code}) - ({f.offset})"
        )
    else:
        return None
    if op == "*":
        scale = k if f.scale == "1" else f"({f.scale}) * {k}"
        offset = "0" if f.offset == "0" else f"({f.offset}) * {k}"
        return replace(f, scale=scale, offset=offset)
    if op == "-":
        k = f"-{k}"
    return replace(f, offset=k if f.offset == "0" else f"{f.offset} + {k}")


def geom_of(f: Fact | None) -> str:
    """The geometry hint a variable assigned a value with fact ``f``
    carries: uniformity survives any affine map, a tile of consecutive
    ints only a unit scale."""
    if f is None or not (f.geom == UNIFORM or f.scale == "1"):
        return ""
    return f.geom


# ---------------------------------------------------------------------------
# access plans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AccessPlan:
    """How one memory access is printed.

    ``bounds``: ``proven`` (scalar interval proof in front of the vector
    ladder) or ``ladder`` (the per-access vector check alone).
    ``load``: ``slice`` (a unit-stride base enumerates a ``slice``),
    ``tile`` (one period of a tiled unit-stride base, ``np.tile``d),
    ``repeat`` (one element per block of a block-uniform base,
    ``np.repeat``ed) or ``gather`` (fancy-index by the lane vector).
    ``index``: ``inline`` (computed where the IR has it), ``deferred``
    (counted there, computed only in the branch that reads it) or
    ``hoisted`` (a loop-invariant segment index, widened once in the
    preheader)."""

    bounds: str = "ladder"
    load: str = "gather"
    index: str = "inline"


def plan_access(
    iv: Val, hosted: bool, *, load: bool, segment: bool, views: bool
) -> AccessPlan:
    """Plan one access through index ``iv``.  ``hosted``: some enclosing
    preheader can host the fact's per-span reductions.  ``views``: the
    loaded value may be a view of the buffer (nothing mutates the buffer
    while it is held)."""
    f = iv.fact
    if f is None or not hosted:
        return AccessPlan()
    index = "deferred" if iv.pending else "inline"
    if segment:
        return AccessPlan(
            "proven", "gather", "hoisted" if f.scale == "1" else index
        )
    how = "gather"
    if load:
        if f.geom == UNIFORM:
            how = "repeat"
        elif f.geom == TILE and f.scale == "1":
            how = "tile"
        elif views and f.scale == "1":
            how = "slice"
    return AccessPlan("proven", how, index)


def affine_index(e: Expr, assigned: set[str]) -> bool:
    """Whether evaluating index ``e`` can be deferred: a tree of
    ``+ - *`` and casts over constants, parameters, special registers
    and definitely-assigned scalars — nothing that can fault, meter
    under a refined mask or read memory, so *when* it is computed is
    unobservable."""
    for n in walk_expr(e):
        if isinstance(n, (Const, SReg, Cast)):
            continue
        if isinstance(n, (Param, Var)):
            if n.is_pointer or (isinstance(n, Var) and n.name not in assigned):
                return False
        elif not (isinstance(n, BinOp) and n.op in ("+", "-", "*")):
            return False
    return True


# ---------------------------------------------------------------------------
# where-merge elimination
# ---------------------------------------------------------------------------
@dataclass
class MergePlan:
    """One masked assignment's merge: ``where`` keeps
    ``np.where(mask, new, old)``; ``direct`` stores the new value as is
    (the target is dead outside the mask).  ``slot`` is the printed
    merge, spliced into the output; :meth:`MergeLedger.resolve` swaps
    in ``direct`` once every read of the target has been seen."""

    target: str
    mask: Mask
    slot: list[str]
    direct: list[str]


class MergeLedger:
    """Every register read, by the mask it is read under, and every
    merge that could be dropped.

    A masked assignment ``x = v`` under ``m`` may skip its merge when no
    lane outside ``m`` ever observes ``x`` again.  Sufficient, and what
    is checked: ``v`` is provably lane-shaped (so the stored shape does
    not change), ``m`` was bound outside every loop (it names one set of
    lanes for the whole span), and *every* read of ``x`` in the kernel —
    before or after, conservative — is under ``m`` or a mask narrowed
    from it.  Lanes outside ``m`` then hold unspecified values that only
    ever feed other unobserved lanes: loads and stores select by mask,
    bounds proofs and ladders are evaluated on the run-time values, and
    a merge's *old* operand is not an observation."""

    def __init__(self) -> None:
        self.reads: dict[str, list[Mask]] = {}
        self.plans: list[MergePlan] = []

    def read(self, name: str, mask: Mask) -> None:
        seen = self.reads.setdefault(name, [])
        if not seen or seen[-1] is not mask:
            seen.append(mask)

    @staticmethod
    def candidate(mask: Mask, tri: bool | None) -> bool:
        return tri is False and not mask.full and mask.depth == 0

    def resolve(self) -> int:
        """Rewrite every droppable merge in place; return how many."""
        done = 0
        for p in self.plans:
            if all(m.within(p.mask) for m in self.reads.get(p.target, ())):
                p.slot[:] = p.direct
                done += 1
        return done


# ---------------------------------------------------------------------------
# sparse divergent loops
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SparsePlan:
    """A ``while`` whose condition and body touch only registers, so it
    can finish on the gathered active lanes: the registers it reads, the
    ones it writes, and the lane-shaped special registers it reads."""

    reads: tuple[str, ...]
    writes: tuple[str, ...]
    sregs: tuple[SRegKind, ...]


def sparse_plan(
    s: While, assigned: set[str], lane_sregs
) -> SparsePlan | None:
    """Plan ``s`` as a sparse loop, or ``None`` if it must stay dense.

    Obligations: the body is straight-line assignments (no memory, no
    barrier, no exit, no nested control flow whose arms might not run);
    every operation is lane-wise exact (IEEE basic arithmetic, integer
    ops, ``min``/``max``/``abs``/``floor``/``ceil`` — not the
    transcendental intrinsics, whose SIMD kernels need not round alike
    at every vector position); every register touched is definitely
    assigned at entry, so a retired lane keeps its value and the
    condition, a pure function of registers, stays false for it — the
    mask can only shrink."""
    if not all(isinstance(st, Assign) for st in s.body):
        return None
    reads: dict[str, None] = {}
    sregs: dict[SRegKind, None] = {}
    for e in [s.cond, *(st.value for st in s.body)]:
        for n in walk_expr(e):
            if isinstance(n, Load) or (
                isinstance(n, Call) and n.name not in _EXACT_CALLS
            ):
                return None
            if isinstance(n, Var):
                reads[n.name] = None
            elif isinstance(n, SReg) and n.kind in lane_sregs:
                sregs[n.kind] = None
    writes = dict.fromkeys(st.name for st in s.body)
    if not (set(reads) | set(writes)) <= assigned:
        return None
    return SparsePlan(tuple(reads), tuple(writes), tuple(sregs))


# ---------------------------------------------------------------------------
# structural queries
# ---------------------------------------------------------------------------
def can_shrink(body: list[Stmt]) -> bool:
    """Whether executing ``body`` can retire lanes from the fall-through
    mask: a Return anywhere (loops propagate it), or a Break/Continue
    that is not captured by a loop inside the body itself."""
    for s in body:
        if isinstance(s, (Return, Break, Continue)):
            return True
        if isinstance(s, If):
            if can_shrink(s.then_body) or can_shrink(s.else_body):
                return True
        elif isinstance(s, (For, While)):
            if contains(s.body, Return):
                return True
    return False


def has_break_at_level(body: list[Stmt]) -> bool:
    """A Break binding to *this* loop level (not captured by a nested
    loop)."""
    for s in body:
        if isinstance(s, Break):
            return True
        if isinstance(s, If):
            if has_break_at_level(s.then_body) or has_break_at_level(
                s.else_body
            ):
                return True
    return False


def loop_assigned(body: list[Stmt]) -> set[str]:
    out: set[str] = set()
    for st in iter_stmts(body):
        if isinstance(st, Assign):
            out.add(st.name)
        elif isinstance(st, For):
            out.add(st.var)
        elif isinstance(st, Atomic) and st.result is not None:
            out.add(st.result)
    return out
