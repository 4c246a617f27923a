"""Static lane-divergence facts feeding the JIT's mask-free proof.

The codegen emits straight-line (unmasked) NumPy for a control construct
only when two independent arguments agree:

1. **Affine proof** (this module): the branch condition / loop bounds
   evaluate, via :func:`repro.analysis.affine.eval_sym` and the guard
   classifier that :mod:`repro.sanitize.static_race` is built on, to
   polynomials free of ``tid.*`` and ``ctaid.*`` symbols — no lane can
   disagree with any other lane *by construction*.
2. **Shape soundness** (checked by the codegen on the evaluated value):
   the condition actually evaluated to a 0-d scalar at specialization
   time.  This is the load-bearing check — an expression like
   ``tid.x * 0 + n`` is affine-invariant but still evaluates to a lane
   *vector*, and scalar Python ``if`` on it would be wrong.

The facts here are therefore a *restriction* on top of the shape check,
never a substitute: a condition the affine analysis cannot see through
(float compares, loads) takes the masked fallback even if it happens to
be uniform at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.affine import CTAID_SYMBOLS, TID_SYMBOLS, Poly, eval_sym
from repro.analysis.guards import guards_of_condition
from repro.interp.jit.plan import loop_assigned
from repro.ir.stmt import (
    Assign,
    Atomic,
    Break,
    Continue,
    For,
    If,
    Kernel,
    Return,
    Stmt,
    While,
)

__all__ = ["DivergenceFacts", "analyze_divergence", "LANE_SYMBOLS"]

#: Symbols whose presence in a polynomial makes it lane-dependent.
LANE_SYMBOLS = TID_SYMBOLS | CTAID_SYMBOLS


@dataclass(frozen=True)
class DivergenceFacts:
    """What the affine analysis proved about one kernel.

    ``invariant_conds``/``invariant_loops`` hold ``id()`` keys of the
    ``If``/``While`` (resp. ``For``) statements whose conditions (resp.
    bounds) are provably lane-invariant.  ``id()`` keys are valid only
    for the lifetime of the analyzed kernel object, which the compiler
    holds for the duration of codegen.
    """

    invariant_conds: frozenset[int]
    invariant_loops: frozenset[int]
    has_lane_exits: bool
    proved_mask_free: bool


def _lane_invariant_poly(p: Poly | None) -> bool:
    return p is not None and not (p.symbols() & LANE_SYMBOLS)


def _lane_invariant_cond(cond, env) -> bool:
    """A condition is lane-invariant when every conjunct's polynomial is
    known and free of lane symbols (mirrors the static-race classifier:
    UNIFORM guards are exactly the lane-invariant ones)."""
    try:
        guards = guards_of_condition(cond, env)
    except Exception:  # pragma: no cover - classifier never raises today
        return False
    return bool(guards) and all(_lane_invariant_poly(g.poly) for g in guards)


def analyze_divergence(kernel: Kernel) -> DivergenceFacts:
    """One forward pass over the kernel body, tracking a symbolic
    environment exactly the way ``static_race`` does."""
    inv_conds: set[int] = set()
    inv_loops: set[int] = set()
    all_branch_invariant = True
    all_loops_invariant = True
    lane_exits = False
    loop_seq = 0

    def walk(body: list[Stmt], env: dict[str, Poly | None]) -> None:
        nonlocal all_branch_invariant, all_loops_invariant, lane_exits, loop_seq
        for s in body:
            if isinstance(s, Assign):
                env[s.name] = eval_sym(s.value, env)
            elif isinstance(s, Atomic):
                if s.result is not None:
                    env[s.result] = None
            elif isinstance(s, (Return, Break, Continue)):
                lane_exits = True
            elif isinstance(s, If):
                if _lane_invariant_cond(s.cond, env):
                    inv_conds.add(id(s))
                else:
                    all_branch_invariant = False
                before = dict(env)
                walk(s.then_body, env)
                env_else = dict(before)
                walk(s.else_body, env_else)
                # conservative join: anything either arm may have changed
                # is unknown afterwards
                for name in set(env) | set(env_else):
                    if env.get(name) != env_else.get(name):
                        env[name] = None
            elif isinstance(s, For):
                # bounds are evaluated once at entry, so the pre-loop
                # environment applies to them; the body sees an opaque
                # loop symbol for the induction variable
                bounds_inv = all(
                    _lane_invariant_poly(eval_sym(e, env))
                    for e in (s.start, s.stop, s.step)
                )
                if bounds_inv:
                    inv_loops.add(id(s))
                else:
                    all_loops_invariant = False
                for name in loop_assigned(s.body):
                    env[name] = None
                loop_seq += 1
                env[s.var] = (
                    Poly.sym(f"loop#{loop_seq}:{s.var}") if bounds_inv else None
                )
                walk(s.body, env)
                for name in loop_assigned(s.body):
                    env[name] = None
            elif isinstance(s, While):
                # the condition re-evaluates every iteration, so kill
                # body-assigned names *before* classifying it
                for name in loop_assigned(s.body):
                    env[name] = None
                if _lane_invariant_cond(s.cond, env):
                    inv_conds.add(id(s))
                else:
                    all_branch_invariant = False
                walk(s.body, env)
                for name in loop_assigned(s.body):
                    env[name] = None

    walk(kernel.body, {})
    return DivergenceFacts(
        invariant_conds=frozenset(inv_conds),
        invariant_loops=frozenset(inv_loops),
        has_lane_exits=lane_exits,
        proved_mask_free=(
            all_branch_invariant and all_loops_invariant and not lane_exits
        ),
    )
