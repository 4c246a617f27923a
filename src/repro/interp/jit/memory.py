"""Memory-access emitter of the JIT: prints what an
:class:`~repro.interp.jit.plan.AccessPlan` decided.

Mixed into :class:`repro.interp.jit.compiler._Codegen`, which supplies
the line writer, temp and constant pools, CSE pool, loop stack and
counters.  Everything here mirrors one interpreter helper —
``_safe_indices``, ``_shared_index`` / ``_local_index``, ``_count_lines``,
``_eval_load`` — with the per-access vector code as the last ``else`` of
every faster form.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np

from repro.interp.jit.plan import (
    AccessPlan,
    Idx,
    LoopCtx,
    Mask,
    Proof,
    Val,
    affine_index,
    plan_access,
)
from repro.ir.expr import Expr, Load
from repro.ir.types import AddressSpace

_I64 = np.dtype(np.int64)
_I64_MAX = int(np.iinfo(np.int64).max)

_INT_LITERAL = re.compile(r"-?\d+$").match


class MemoryEmitter:
    # -- preheader hoisting ----------------------------------------------
    def hoist(self, base: str, mask: str | None = None) -> LoopCtx | None:
        """The outermost enclosing preheader at which ``base`` (and the
        mask variable, if given) already hold the values they have at
        the emission point — where their per-span facts are computed."""
        name = base[2:] if base.startswith("v_") else None
        best = None
        for loop in reversed(self.loops):
            if name in loop.kills or (mask is not None and loop.mask != mask):
                break
            if loop.slot is not None:
                best = loop
        return best

    def hoisted(self, loop: LoopCtx, code: str) -> str:
        """``code`` evaluated once in ``loop``'s preheader."""
        name = loop.memo.get(code)
        if name is None:
            name = loop.memo[code] = self.tmp("h")
            loop.slot.append(" " * (4 * loop.ind) + f"{name} = {code}")
        return name

    def span_of(self, loop: LoopCtx, src: str) -> tuple[str, str]:
        """Hoisted Python-int min and max of the lane vector ``src``."""
        return (
            self.hoisted(loop, f"int({src}.min())"),
            self.hoisted(loop, f"int({src}.max())"),
        )

    def interval(self, s: str, o: str, blo: str, bhi: str) -> tuple[str, str]:
        """Exact ``[lo, hi]`` of ``s * b + o`` for ``b`` in
        ``[blo, bhi]``: affine, so the extremes sit at the ends."""
        if s == "1":
            if o == "0":
                return blo, bhi
            return self.bind(f"{blo} + {o}", "lo"), self.bind(f"{bhi} + {o}", "hi")
        lo = self.bind(f"{s} * {blo} + {o}", "lo")
        hi = self.bind(f"{s} * {bhi} + {o}", "hi")
        self.w(f"if {lo} > {hi}:")
        with self.indent():
            self.w(f"{lo}, {hi} = {hi}, {lo}")
        return lo, hi

    def prove(
        self, iv: Val, m: Mask, extent: str, loop: LoopCtx,
        slices: bool = False, active: bool = False,
    ) -> Proof:
        """Emit the scalar interval proof for an index fact hosted by
        ``loop`` (``hoist(iv.fact.base)``).

        With ``active``, also bound the *active* lanes' indices; that
        flag holds as well when only inactive lanes leave
        ``[0, extent)`` (the tail span of a boundary-guarded kernel),
        and takes a loop-invariant body mask so the active lanes' base
        range can be hoisted too.  With ``slices``, also hoist the
        unit-stride flag — only alongside ``act``, so the line meter
        never has to look at a slice."""
        f = iv.fact
        blo, bhi = self.span_of(loop, f.base)
        s = f.scale if _INT_LITERAL(f.scale) else self.bind(f.scale, "s")
        o = f.offset if _INT_LITERAL(f.offset) else self.bind(f.offset, "o")
        lo, hi = self.interval(s, o, blo, bhi)
        info = np.iinfo(iv.np)
        ok = self.bind(
            f"0 <= {lo} and {hi} < {extent} and {hi} <= {info.max}", "ok"
        )
        act = None
        if active and m.full:
            act = (ok, lo, hi)
        elif active:
            aloop = self.hoist(f.base, m.var)
            if aloop is not None:
                sel = self.hoisted(aloop, f"{f.base}[{m.var}]")
                alo, ahi = self.interval(s, o, *self.span_of(aloop, sel))
                aok = self.bind(
                    f"{ok} or ({info.min} <= {lo} and {hi} <= {info.max} "
                    f"and 0 <= {alo} and {ahi} < {extent})",
                    "ok",
                )
                act = (aok, alo, ahi)
        unit = None
        if slices and s == "1" and act:
            # nl increasing ints whose ends are nl - 1 apart: consecutive
            unit = self.hoisted(
                loop,
                f"{bhi} - {blo} == nl - 1 and "
                f"bool(({f.base}[1:] > {f.base}[:-1]).all())",
            )
        return Proof(ok, lo, hi, s, o, unit, act)

    def widened(self, iv: Val) -> str:
        """Source of a lane-shaped index as int64 (not pooled: it is
        emitted inside one arm of a run-time branch)."""
        if iv.np == _I64:
            return iv.code
        return f"{iv.code}.astype({self.dt(_I64)}, copy=False)"

    # -- lane geometry ---------------------------------------------------
    def tpb(self) -> str:
        self.need_tpb = True
        return "_tpb"

    def tiled(self, loop: LoopCtx, base: str, unit: str | None) -> str:
        """Hoisted flag: ``base`` repeats one run of consecutive ints
        (period ``max - min + 1``: ``blockDim.x`` for ``threadIdx.x``,
        never assumed).  True by construction for a special register."""
        if base.startswith("sr_"):
            return "True"
        blo, bhi = self.span_of(loop, base)
        period = f"({bhi} - {blo} + 1)"
        return self.hoisted(
            loop,
            (f"not {unit} and " if unit else "")
            + f"nl % {period} == 0 and bool(({base}.reshape(-1, {period}) "
            f"== np.arange({blo}, {bhi} + 1)).all())",
        )

    def uniform(self, loop: LoopCtx, base: str) -> tuple[str, str]:
        """Hoisted ``(flag, compact)``: ``base`` is constant across each
        block, ``compact`` holding its one int64 value per block.  True
        by construction for ``blockIdx.*``, whose compact form is the
        span's block-coordinate vector."""
        tpb = self.tpb()
        if base.startswith("sr_"):  # sr_ctaid_x -> SRegKind.CTAID_X
            return "True", self.hoisted(
                loop,
                f"ctx._block_sregs[SRegKind.{base[3:].upper()}]"
                f".astype({self.dt(_I64)})",
            )
        flag = self.hoisted(
            loop,
            f"bool(({base}.reshape(-1, {tpb}) == {base}[::{tpb}, None]).all())",
        )
        return flag, self.hoisted(
            loop, f"{base}[::{tpb}].astype({self.dt(_I64)})"
        )

    # -- global indices --------------------------------------------------
    def safe_index(
        self, iv: Val, m: Mask, arr: str, what: str, name: str | None,
        load: bool = False,
    ) -> Idx:
        """Global-memory index sanitation.  Fast path: no lane (active
        or not) out of bounds — the interpreter would return the index
        unchanged (``_safe_indices`` is the identity on fully in-bounds
        input).  Any OOB lane delegates to ``ctx._safe_indices`` for the
        exact raise/clamp behaviour and message (statement masks are
        nonempty, so a 0-d OOB index always trips the check).

        An index fact turns the per-access vector check into a scalar
        one (:meth:`prove`) with the vector ladder as its ``else``; what
        the proved index of a load then becomes — the ``slice`` a
        unit-stride base enumerates, one period of a tiled base, one
        element per block of a block-uniform base — is the
        :class:`AccessPlan`'s to say.

        Results pool per (index, buffer, mask): a repeated access
        through the same index recomputes nothing.  ``what``/``name``
        only color the error message, and a raise always comes from the
        *first* occurrence (evaluation order is the interpreter's), so
        they are deliberately not part of the key."""
        # no fact, or no preheader to host it: the per-access code stands
        loop = self.hoist(iv.fact.base) if iv.fact is not None else None
        plan = plan_access(
            iv, loop is not None, load=load, segment=False, views=self.views
        )
        key = ("sidx", iv.code, arr, m.var, plan.load)
        hit = self.cse.get(key)
        if hit is not None:
            return hit
        slow = f"ctx._safe_indices(%s, {m.var}, {arr}, {what!r}, {name!r})"
        if plan.bounds == "ladder":
            ix = Idx(self._index_ladder(iv, m, arr, slow), iv.tri is True)
        else:
            ix = self._proven_index(iv, m, arr, slow, loop, plan)
        self.cse[key] = ix
        return ix

    def _proven_index(
        self, iv: Val, m: Mask, arr: str, slow: str, loop: LoopCtx,
        plan: AccessPlan,
    ) -> Idx:
        p = self.prove(
            iv, m, f"{arr}.shape[0]", loop, active=True,
            slices=self.views and plan.load in ("slice", "tile"),
        )
        safe = self.tmp("ix")
        wide = self.widened(iv)
        period = f"{safe} = slice({p.lo}, {p.hi} + 1)"

        def gather() -> None:
            self.force(iv)
            self.w(f"{safe} = {wide}")

        # what the proved index becomes, first arm that holds: geometric
        # forms only alongside ``act``, like slices, so the line meter
        # never sees one; the lane-vector gather closes the chain
        arms = []
        expand = None
        if p.unit:  # the whole span is one run: a view, not a 1x tile
            arms.append((p.unit, lambda: self.w(period)))
        if plan.load in ("tile", "repeat") and p.act:
            reps = self.tmp("g")
            expand = (plan.load, reps)
            self.w(f"{reps} = 0")
            if plan.load == "tile":
                flag = self.tiled(loop, iv.fact.base, p.unit)
                lines = [period, f"{reps} = nl // ({p.hi} - {p.lo} + 1)"]
            else:
                flag, compact = self.uniform(loop, iv.fact.base)
                # compact arithmetic is int64: a scale or offset beyond
                # it (the exact index still fits) keeps the lane vector
                conds = [flag] if flag != "True" else []
                conds += [
                    f"-{_I64_MAX} <= {k} <= {_I64_MAX}"
                    for k in (p.s, p.o) if not _INT_LITERAL(k)
                ]
                flag = " and ".join(conds) or "True"
                cix = compact if p.s == "1" else f"{p.s} * {compact}"
                if p.o != "0":
                    cix += f" + {p.o}"
                lines = [f"{safe} = {cix}", f"{reps} = {self.tpb()}"]
            arms.append((flag, lambda: [self.w(line) for line in lines]))
        if arms:
            self.features[plan.load] += 1
        self.w(f"if {p.ok}:")
        with self.indent():
            self.chain(arms + [("True", gather)])
        if p.act and p.act[0] != p.ok:
            # active lanes in bounds, some inactive lane not: the
            # ladder's where-zero arm with both reductions proved
            self.w(f"elif {p.act[0]}:")
            with self.indent():
                self.force(iv)
                self.w(f"{safe} = np.where({m.var}, {wide}, 0)")
        self.w("else:")
        with self.indent(), self.cse_scope():
            self._index_ladder(iv, m, arr, slow, safe)
        return Idx(safe, iv.tri is True, p.act, expand)

    def _index_ladder(
        self, iv: Val, m: Mask, arr: str, slow: str,
        safe: str | None = None,
    ) -> str:
        """The per-access vector check (two compares, ``|``, ``.any()``)
        into ``safe``, a fresh name unless given.  A provably 0-d index
        (integral by IR typing, so ``int()`` of it is exact) is decided
        as a Python int, with no int64 cast."""
        if iv.tri is True:
            safe = safe or self.tmp("ix")
            u = self.bind(f"int({iv.code})", "u")
            self.w(
                f"{safe} = {u} if 0 <= {u} < {arr}.shape[0] "
                f"else {slow % iv.code}"
            )
            return safe
        self.force(iv)
        i1 = self.cast(replace(iv, pending=()), _I64)
        safe = safe or self.tmp("ix")
        slow = slow % i1.code
        ob = self.tmp("ob")
        self.w(f"if np.ndim({i1.code}):")
        with self.indent():
            self.w(f"{ob} = ({i1.code} < 0) | ({i1.code} >= {arr}.shape[0])")
            self.w(f"if not {ob}.any():")
            with self.indent():
                self.w(f"{safe} = {i1.code}")
            # OOB on inactive lanes only is the steady state of every
            # boundary-guarded kernel; the interpreter where-zeros those
            # lanes without raising, inlined here.  An *active* OOB lane
            # delegates for the exact raise/clamp/sanitize behaviour.
            self.w(f"elif not ({m.var} & {ob}).any():")
            with self.indent():
                self.w(
                    f"{safe} = np.where({m.var} & ~{ob}, {i1.code}, 0)"
                )
            self.w("else:")
            with self.indent():
                self.w(f"{safe} = {slow}")
        self.w("else:")
        with self.indent():
            self.w(
                f"{safe} = {i1.code} if 0 <= int({i1.code}) < "
                f"{arr}.shape[0] else {slow}"
            )
        return safe

    # -- shared / local segments -----------------------------------------
    def seg_index(self, kind: str, name: str, iv: Val, m: Mask) -> Idx:
        """Shared/local segment index via the inherited helper, pooled
        per (index, array, mask) — the segment layout is fixed for the
        span, so repeats are pure.  With an index fact proving every
        lane inside ``[0, seg)`` the helper's clamp is the identity and
        only its segment offset remains; for a unit scale the widened
        base *plus* that offset is loop-invariant and moves to the
        preheader whole.

        Pooling and hoisting both lean on :meth:`_prepass`: arrays are
        declared at the top level of the kernel body, so the
        declaration has run, once, before any preheader of a loop that
        reaches the array."""
        key = ("segidx", kind, iv.code, name, m.var)
        hit = self.cse.get(key)
        if hit is not None:
            return hit
        safe = self.tmp("ix")
        call = f"{safe} = ctx._{kind}_index({name!r}, {iv.code}, {m.var})"
        loop = self.hoist(iv.fact.base) if iv.fact is not None else None
        plan = plan_access(
            iv, loop is not None, load=False, segment=True, views=self.views
        )
        if plan.bounds == "ladder":
            self.force(iv)
            self.w(call)
        else:
            seg = self.hoisted(loop, f"ctx._{kind}_seg[{name!r}]")
            off = self.hoisted(
                loop,
                f"ctx._lane_ids * {seg}" if kind == "local" else
                f"None if ctx._block_lane_pos is None "
                f"else ctx._block_lane_pos * {seg}",
            )
            p = self.prove(iv, m, seg, loop)
            if plan.index == "hoisted":
                wide = self.hoisted(
                    loop,
                    f"{iv.fact.base}.astype({self.dt(_I64)}, copy=False)",
                )
                self.features["hoisted_index"] += 1
            else:
                wide = self.widened(iv)
            if kind == "local":
                full = f"{wide} + {off}"
            else:
                full = f"{wide} if {off} is None else {wide} + {off}"
            self.w(f"if {p.ok}:")
            with self.indent():
                if plan.index == "hoisted":
                    full = self.hoisted(loop, full)
                    self.w(
                        f"{safe} = {full}" if p.o == "0"
                        else f"{safe} = {full} + {p.o}"
                    )
                else:
                    self.force(iv)
                    self.w(f"{safe} = {full}")
            self.w("else:")
            with self.indent():
                self.force(iv)
                self.w(call)
        ix = Idx(safe)
        self.cse[key] = ix
        return ix

    # -- metering --------------------------------------------------------
    def count_lines(self, ix: Idx, m: Mask, elem_size: int, n: str) -> None:
        """Mirror ``BlockExecutor._count_lines``: 64-byte-line span
        estimate over the *active* lanes.  Statement masks are nonempty
        by construction so the ``_cur_n`` guard is vacuous.  The
        *amount* is pooled per (index, mask, element size): repeated
        traffic through the same addresses still adds to the counter
        every time, but the min/max reductions run once — or not at
        all, when an index fact already knows the active lanes' range."""
        self.used_counters.add("global_line_bytes")
        if ix.uniform:
            self.w("_c_global_line_bytes += 64.0")
            return
        key = ("lineamt", ix.safe, m.var, elem_size, n)
        amt = self.cse.get(key)
        if amt is None:
            amt = self.tmp("lb")
            if ix.act is not None:
                ok, lo, hi = ix.act
                self.w(f"if {ok}:")
                with self.indent():
                    self._count_lines_span(
                        amt, f"{lo} * {elem_size}", f"{hi} * {elem_size}", n
                    )
                self.w("else:")
                with self.indent():
                    self._count_lines_scan(amt, ix.safe, m, elem_size, n)
            else:
                self._count_lines_scan(amt, ix.safe, m, elem_size, n)
            self.cse[key] = amt
        self.w(f"_c_global_line_bytes += {amt}")

    def _count_lines_scan(
        self, amt: str, safe: str, m: Mask, elem_size: int, n: str
    ) -> None:
        """The per-access form: gather the active lanes, reduce twice."""
        la = self.tmp("la")
        self.w(f"{la} = np.asarray({safe})")
        self.w(f"if {la}.ndim == 0:")
        with self.indent():
            self.w(f"{amt} = 64.0")
        self.w("else:")
        with self.indent():
            ls = self.tmp("ls")
            self.w(
                f"{ls} = {la} if {la}.shape == {m.var}.shape "
                f"else np.broadcast_to({la}, {m.var}.shape)"
            )
            if not m.full:
                self.w(f"{ls} = {ls}[{m.var}]")
                self.w(f"if {ls}.size:")
                with self.indent():
                    self._count_lines_minmax(amt, ls, elem_size, n)
                self.w("else:")
                with self.indent():
                    self.w(f"{amt} = 0.0")
            else:
                self._count_lines_minmax(amt, ls, elem_size, n)

    def _count_lines_minmax(
        self, amt: str, ls: str, elem_size: int, n: str
    ) -> None:
        lo = self.bind(f"int({ls}.min()) * {elem_size}", "lo")
        hi = self.bind(f"int({ls}.max()) * {elem_size}", "hi")
        self._count_lines_span(amt, lo, hi, n)

    def _count_lines_span(self, amt: str, lo: str, hi: str, n: str) -> None:
        self.w(f"{amt} = 64.0 * float(min({n}, ({hi} - {lo}) // 64 + 1))")

    def mem_counts(
        self, space: AddressSpace, elem_size: int, n: str, is_store: bool,
        factor: float = 1.0,
    ) -> None:
        scale = f"{factor} * " if factor != 1.0 else ""
        if space is AddressSpace.GLOBAL:
            b = "global_store_bytes" if is_store else "global_load_bytes"
            c = "global_stores" if is_store else "global_loads"
            self.count(b, f"{scale}{n} * {float(elem_size)}")
            self.count(c, n)
        elif space is AddressSpace.SHARED:
            self.count("shared_bytes", f"{scale}{n} * {float(elem_size)}")
        else:
            self.count("local_bytes", f"{scale}{n} * {float(elem_size)}")

    # -- loads -----------------------------------------------------------
    def ex_index(self, e: Expr, m: Mask, n: str) -> Val:
        """Evaluate a load's index: counted here, in the interpreter's
        order, but — when nothing about it can fault — with its
        lane-shaped arithmetic left pending on the returned value, for
        whichever branch of the access turns out to read it."""
        self.lazy = affine_index(e, self.assigned)
        try:
            return self.ex(e, m, n)
        finally:
            self.lazy = False

    def ex_load(self, e: Load, m: Mask, n: str) -> Val:
        space, arr, elem, name = self.ptr(e.ptr)
        self.mask(m)  # an arm mask is bound here, on its first reader
        iv = self.ex_index(e.index, m, n)
        if space is AddressSpace.SHARED:
            ix = self.seg_index("shared", name, iv, m)
            tri = False if iv.tri is False else None
        elif space is AddressSpace.LOCAL:
            ix = self.seg_index("local", name, iv, m)
            tri = False
        else:
            ix = self.safe_index(iv, m, arr, "load", name, load=True)
            tri = iv.tri
        self.mem_counts(space, elem.size, n, is_store=False)
        if space is AddressSpace.GLOBAL:
            self.count_lines(ix, m, elem.size, n)
        t = self.bind(f"{arr}[{ix.safe}]")
        if ix.expand:
            fn, reps = ix.expand
            self.w(f"if {reps}:")
            with self.indent():
                self.w(f"{t} = np.{fn}({t}, {reps})")
        return Val(t, np.dtype(elem.np), tri)
