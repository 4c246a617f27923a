"""Per-line kernel profiler: hotspot attribution over the interpreter.

The interpreter already meters every executed operation into one
aggregate :class:`~repro.interp.counters.OpCounters`.  This module adds
the *where*: a :class:`Profiler` hands the interpreter a per-phase
``_LineSink`` whose ``line(loc)`` method returns a per-source-line
``OpCounters`` bucket, and the interpreter mirrors every count it books
into the bucket of the statement currently executing.  ``loc`` is the
1-based source line the CUDA frontend stamped on the IR statement
(threaded parser → IR → simplify); DSL-built IR has ``loc None`` and
aggregates under a single ``None`` bucket.

Attribution rules (see DESIGN.md section 11):

* counts are attributed to the line of the *innermost executing
  statement* — ops evaluated for an ``if`` condition bill the ``if``
  line, the loop-condition re-evaluation of a ``while`` bills the loop
  header line on every iteration;
* divergent lanes follow the interpreter's own accounting: a statement
  executed under a mask with ``k`` active lanes contributes ``k``, so
  per-line counts sum *exactly* (field by field) to the aggregate
  counters of the run — an invariant the test suite pins with a
  hypothesis property;
* phases are kept apart (``partial`` vs ``callback``) and ranks are
  merged: every node executor of one phase feeds the same sink, giving
  cluster-wide per-line totals.

On top of the raw buckets a :class:`KernelProfile` offers *self/total*
rollups for control-flow nests (``total`` adds every line nested under a
statement of that line), a text hotspot table with the kernel source
inlined, and a roofline placement of the whole kernel via the same
constants :func:`repro.hw.perfmodel.cpu_node_time` prices with.

Everything here is **opt-in and pay-for-use**: the interpreter's profile
hook is two attribute checks when disabled, the runtime only imports
this module when constructed with ``profile=True``, and the overhead
benchmark gates that a profiler-off run stays bit-identical.
"""

from __future__ import annotations

from dataclasses import fields as _dc_fields

from repro.hw.perfmodel import DEFAULT_PARAMS, ModelParams
from repro.interp.counters import OpCounters
from repro.ir.stmt import Kernel, Stmt

__all__ = ["Profiler", "KernelProfile", "roofline_placement"]

#: counter fields compared / summed by the profile (all of them)
_FIELDS = tuple(f.name for f in _dc_fields(OpCounters))


class _LineSink:
    """What the interpreter holds: per-line OpCounters buckets of one
    kernel × phase.  ``line(loc)`` is the only method on the hot path."""

    __slots__ = ("lines",)

    def __init__(self, lines: dict):
        self.lines = lines

    def line(self, loc) -> OpCounters:
        c = self.lines.get(loc)
        if c is None:
            c = self.lines[loc] = OpCounters()
        return c


def _line_descendants(body: list[Stmt]) -> dict[int, set[int]]:
    """For every source line hosting a control-flow statement, the set of
    *other* lines nested under it (transitively) — the self→total map."""
    desc: dict[int, set[int]] = {}

    def walk(stmts: list[Stmt]) -> set:
        lines: set = set()
        for s in stmts:
            sub: set = set()
            for blk in s.blocks():
                sub |= walk(blk)
            if s.loc is not None and sub:
                desc.setdefault(s.loc, set()).update(sub - {s.loc})
            if s.loc is not None:
                lines.add(s.loc)
            lines |= sub
        return lines

    walk(body)
    return desc


def roofline_placement(
    counters: OpCounters,
    spec,
    vectorized: bool,
    simd_enabled: bool = True,
    params: ModelParams = DEFAULT_PARAMS,
) -> dict:
    """Where a kernel sits on ``spec``'s roofline, from its dynamic counts.

    Mirrors the rate/bandwidth constants of
    :func:`repro.hw.perfmodel.cpu_node_time`: the attainable compute peak
    (SIMD or scalar issue, scaled by the migration efficiency) and the
    streaming bandwidth cap decide the ridge point; the kernel's
    arithmetic intensity (weighted ops per line-granular DRAM byte)
    places it left (memory-bound) or right (compute-bound) of it.
    """
    if vectorized and simd_enabled:
        core_rate = (spec.peak_flops / spec.cores) * spec.simd_efficiency
    else:
        core_rate = spec.scalar_ops_per_sec_core * params.cpu_scalar_eff
    core_rate *= params.cpu_migration_eff
    peak_ops = core_rate * spec.cores
    bw = spec.mem_bw_gbs * 1e9 * params.cpu_mem_eff
    per_core_stream = (
        params.vector_stream_bw_per_core
        if vectorized and simd_enabled
        else params.scalar_stream_bw_per_core
    )
    bw = min(bw, spec.cores * per_core_stream)
    traffic = counters.global_line_bytes or counters.global_bytes
    ops = counters.weighted_ops
    intensity = ops / traffic if traffic > 0 else float("inf")
    ridge = peak_ops / bw if bw > 0 else float("inf")
    return {
        "intensity_ops_per_byte": intensity,
        "ridge_ops_per_byte": ridge,
        "bound": "compute" if intensity >= ridge else "memory",
        "peak_gops": peak_ops / 1e9,
        "stream_gbs": bw / 1e9,
        "vectorized": bool(vectorized and simd_enabled),
    }


class KernelProfile:
    """Per-line × per-phase dynamic counts of one kernel."""

    def __init__(self, kernel: Kernel, vectorized: bool | None = None):
        self.kernel = kernel
        #: SIMD verdict of the kernel (for the roofline); ``None`` unknown
        self.vectorized = vectorized
        #: phase name -> {source line (or None) -> OpCounters}
        self.phases: dict[str, dict] = {}

    # -- recording ------------------------------------------------------
    def sink(self, phase: str) -> _LineSink:
        """The line sink interpreter executors of ``phase`` feed."""
        return _LineSink(self.phases.setdefault(phase, {}))

    # -- aggregation ----------------------------------------------------
    def lines(self, phase: str | None = None) -> dict:
        """Merged per-line counters (one phase, or all phases)."""
        keys = [phase] if phase is not None else list(self.phases)
        out: dict = {}
        for k in keys:
            for loc, c in self.phases.get(k, {}).items():
                bucket = out.get(loc)
                if bucket is None:
                    bucket = out[loc] = OpCounters()
                bucket.add(c)
        return out

    def total(self, phase: str | None = None) -> OpCounters:
        """Sum of every per-line bucket — equals the aggregate counters."""
        out = OpCounters()
        for c in self.lines(phase).values():
            out.add(c)
        return out

    def rollups(self, phase: str | None = None) -> list[tuple]:
        """``(loc, self_counters, total_counters)`` per line, hotspots
        first (by self weighted ops, then DRAM bytes, then line).

        ``total`` folds in every line nested under a control-flow
        statement on ``loc`` (loop bodies under their loop header), so a
        loop's ``total`` shows the cost of the whole nest while ``self``
        isolates the header's own work.
        """
        per_line = self.lines(phase)
        desc = _line_descendants(self.kernel.body)
        out = []
        for loc, own in per_line.items():
            tot = own.copy()
            if loc is not None:
                for d in desc.get(loc, ()):
                    sub = per_line.get(d)
                    if sub is not None:
                        tot.add(sub)
            out.append((loc, own, tot))
        out.sort(
            key=lambda r: (
                -r[1].weighted_ops,
                -r[1].global_line_bytes,
                r[0] if r[0] is not None else -1,
            )
        )
        return out

    # -- presentation ---------------------------------------------------
    def source_line(self, loc) -> str:
        if loc is None:
            return "<no source loc>"
        src = self.kernel.source
        if src:
            lines = src.splitlines()
            if 1 <= loc <= len(lines):
                return lines[loc - 1].strip()
        return "?"

    def hotspot_table(self, phase: str | None = None, top: int | None = None) -> str:
        """The per-source-line hotspot table (text)."""
        from repro.bench.harness import format_table

        rolled = self.rollups(phase)
        if top is not None:
            rolled = rolled[:top]
        grand = self.total(phase)
        ops_total = grand.weighted_ops
        mem_total = grand.global_line_bytes

        def pct(v: float, total: float) -> str:
            return f"{100.0 * v / total:.1f}%" if total > 0 else "-"

        rows = []
        for loc, own, tot in rolled:
            rows.append(
                [
                    loc if loc is not None else "-",
                    self.source_line(loc)[:48],
                    f"{own.weighted_ops:,.0f}",
                    pct(own.weighted_ops, ops_total),
                    pct(tot.weighted_ops, ops_total),
                    f"{own.global_line_bytes:,.0f}",
                    pct(own.global_line_bytes, mem_total),
                ]
            )
        rows.append(
            [
                "TOTAL",
                f"({len(self.lines(phase))} lines)",
                f"{ops_total:,.0f}",
                pct(ops_total, ops_total),
                "",
                f"{mem_total:,.0f}",
                pct(mem_total, mem_total),
            ]
        )
        return format_table(
            ["line", "source", "w.ops", "self", "total", "dram B", "mem"],
            rows,
        )

    def phase_split(self) -> dict[str, float]:
        """Weighted-ops share per phase (``{"partial": 0.8, ...}``)."""
        totals = {ph: self.total(ph).weighted_ops for ph in self.phases}
        s = sum(totals.values())
        return {ph: (v / s if s > 0 else 0.0) for ph, v in totals.items()}


class Profiler:
    """Collects :class:`KernelProfile`\\ s across launches of a runtime."""

    def __init__(self):
        self.profiles: dict[str, KernelProfile] = {}

    @classmethod
    def from_option(cls, profile) -> "Profiler":
        """The ``profile=`` shorthand: a profiler is adopted as-is
        (shared across runtimes), anything else builds a fresh one."""
        return profile if isinstance(profile, cls) else cls()

    def ensure(self, kernel: Kernel, vectorized: bool | None = None) -> KernelProfile:
        prof = self.profiles.get(kernel.name)
        if prof is None:
            prof = self.profiles[kernel.name] = KernelProfile(kernel, vectorized)
        if vectorized is not None:
            prof.vectorized = vectorized
        return prof

    def sink(self, kernel: Kernel, phase: str, vectorized: bool | None = None):
        """The per-line sink for one kernel × phase (creates on demand).
        All rank executors of the phase share it, merging across ranks."""
        return self.ensure(kernel, vectorized).sink(phase)

    def total(self, kernel_name: str) -> OpCounters:
        prof = self.profiles.get(kernel_name)
        return prof.total() if prof is not None else OpCounters()

    def hotspot_digest(self, top: int = 3) -> list[dict]:
        """Machine-readable top lines per kernel (for BENCH_*.json)."""
        out = []
        for name, prof in self.profiles.items():
            grand = prof.total().weighted_ops
            for loc, own, _tot in prof.rollups()[:top]:
                out.append(
                    {
                        "kernel": name,
                        "line": loc,
                        "source": prof.source_line(loc),
                        "ops_share": (
                            own.weighted_ops / grand if grand > 0 else 0.0
                        ),
                    }
                )
        return out

    def report(
        self,
        spec=None,
        simd_enabled: bool = True,
        params: ModelParams = DEFAULT_PARAMS,
        top: int | None = None,
    ) -> str:
        """Text report: per kernel, roofline placement + hotspot table."""
        if not self.profiles:
            return "profiler: no kernels profiled"
        sections = []
        for name, prof in self.profiles.items():
            lines = [f"== kernel {name} =="]
            if spec is not None and prof.vectorized is not None:
                r = roofline_placement(
                    prof.total(), spec, prof.vectorized,
                    simd_enabled=simd_enabled, params=params,
                )
                lines.append(
                    f"roofline: {r['bound']}-bound — intensity "
                    f"{r['intensity_ops_per_byte']:.3g} ops/B vs ridge "
                    f"{r['ridge_ops_per_byte']:.3g} ops/B "
                    f"(peak {r['peak_gops']:.1f} Gops/s, "
                    f"stream {r['stream_gbs']:.1f} GB/s, "
                    f"{'SIMD' if r['vectorized'] else 'scalar'})"
                )
            split = prof.phase_split()
            if split:
                lines.append(
                    "phase split (w.ops): "
                    + "  ".join(
                        f"{ph} {100 * v:.1f}%" for ph, v in split.items()
                    )
                )
            lines.append(prof.hotspot_table(top=top))
            sections.append("\n".join(lines))
        return "\n\n".join(sections)
