"""Span-based tracing over simulated clocks.

A :class:`Tracer` collects :class:`Span` records — named, kinded
intervals of *simulated* time (:class:`~repro.cluster.simtime.SimClock`
seconds), optionally pinned to one rank — plus zero-duration instant
events (fault injections, recovery decisions).  The runtime opens one
``launch`` span per kernel launch; phases, per-rank block execution,
collectives and their individual send rounds, autotune trials and fault
events all nest under it, giving the per-rank / per-round structure the
paper's Figures 8-10 are built from.

Tracing is **zero-overhead when disabled**: every recording method
checks :attr:`Tracer.enabled` first and returns immediately, and hot
call sites guard argument construction behind the same flag.  The
module-level :data:`NULL_TRACER` is the shared disabled instance that
every component holds by default, so a runtime constructed without
``trace=True`` takes exactly the untraced code path — identical modeled
times, identical buffers.

Span timestamps come exclusively from simulated clocks; wall-clock time
never enters a span, which is what makes exported traces byte-identical
across runs of the same seeded workload.
"""

from __future__ import annotations

__all__ = ["Span", "SpanKind", "Tracer", "NULL_TRACER"]


class SpanKind:
    """Span categories (the ``cat`` field of the Chrome trace export)."""

    COMPILE = "compile"  # compiler pipeline work (analysis, vectorization)
    LAUNCH = "launch"  # one kernel launch, all phases
    PHASE = "phase"  # partial / allgather / callback (cluster scope)
    EXEC = "exec"  # one rank's block execution inside a phase
    COLLECTIVE = "collective"  # one collective operation (cluster scope)
    ROUND = "round"  # one send round of a collective schedule
    FAULT = "fault"  # injected fault / recovery decision (instant)
    TUNE = "tune"  # one autotuner trial
    COUNTER = "counter"  # Perfetto counter-track sample (profiler)
    CKPT = "ckpt"  # durable checkpoint written (instant; repro.ops)
    SERVE = "serve"  # one served job, queue-to-finish (repro.serve)
    SLO = "slo"  # SLO warn/breach instant (repro.obs.slo)

    ALL = (COMPILE, LAUNCH, PHASE, EXEC, COLLECTIVE, ROUND, FAULT, TUNE,
           COUNTER, CKPT, SERVE, SLO)


class Span:
    """One traced interval (or instant) of simulated time."""

    __slots__ = ("id", "name", "kind", "t0", "t1", "rank", "parent",
                 "instant", "args")

    def __init__(
        self,
        id: int,
        name: str,
        kind: str,
        t0: float,
        t1: float | None,
        rank: int | None,
        parent: int | None,
        instant: bool = False,
        args: dict | None = None,
    ):
        self.id = id
        self.name = name
        self.kind = kind
        self.t0 = t0
        self.t1 = t1
        #: born rank the span belongs to; ``None`` = cluster scope
        self.rank = rank
        #: id of the enclosing span (``None`` at top level)
        self.parent = parent
        self.instant = instant
        self.args = args or {}

    @property
    def duration(self) -> float:
        return 0.0 if self.t1 is None else self.t1 - self.t0

    def __repr__(self) -> str:
        tail = "instant" if self.instant else f"{self.duration * 1e6:.3f} us"
        who = f" rank {self.rank}" if self.rank is not None else ""
        return f"Span({self.kind}:{self.name!r}{who}, {tail})"


class Tracer:
    """Collects spans; every method is a no-op when ``enabled`` is False.

    Two recording styles:

    * :meth:`begin` / :meth:`end` for spans that enclose other spans
      (the runtime's ``launch`` spans) — ``begin`` pushes onto the open
      stack so everything recorded until ``end`` nests under it;
    * :meth:`add` for spans whose start *and* end are already known
      (simulation computes durations before charging clocks), parented
      under the innermost open span;
    * :meth:`instant` for zero-duration events (faults, recoveries).
    """

    __slots__ = ("enabled", "spans", "_stack")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @classmethod
    def from_option(cls, trace) -> "Tracer":
        """The ``trace=`` shorthand every runtime and the server accept:
        a tracer is adopted as-is (shared across runtimes), any other
        truthy value builds a fresh one, a falsy one attaches the
        disabled :data:`NULL_TRACER`."""
        if isinstance(trace, cls):
            return trace
        return cls() if trace else NULL_TRACER

    # -- recording -----------------------------------------------------
    def begin(
        self, name: str, kind: str, t0: float, rank: int | None = None,
        **args,
    ) -> Span | None:
        """Open a span; subsequent records nest under it until :meth:`end`."""
        if not self.enabled:
            return None
        span = Span(len(self.spans), name, kind, t0, None, rank,
                    self._stack[-1].id if self._stack else None, args=args)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span | None, t1: float) -> None:
        """Close an open span at simulated time ``t1``."""
        if not self.enabled or span is None:
            return
        span.t1 = t1
        while self._stack:
            top = self._stack.pop()
            if top.id == span.id:
                break
            top.t1 = t1  # abandoned child (exception unwound past it)

    def add(
        self, name: str, kind: str, t0: float, t1: float,
        rank: int | None = None, **args,
    ) -> Span | None:
        """Record a complete span under the innermost open span."""
        if not self.enabled:
            return None
        span = Span(len(self.spans), name, kind, t0, t1, rank,
                    self._stack[-1].id if self._stack else None, args=args)
        self.spans.append(span)
        return span

    def instant(
        self, name: str, kind: str, t: float, rank: int | None = None,
        **args,
    ) -> Span | None:
        """Record a zero-duration event under the innermost open span."""
        if not self.enabled:
            return None
        span = Span(len(self.spans), name, kind, t, t, rank,
                    self._stack[-1].id if self._stack else None,
                    instant=True, args=args)
        self.spans.append(span)
        return span

    # -- introspection -------------------------------------------------
    def by_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.spans)} spans)"


#: the shared disabled tracer every component holds by default — one
#: instance, so ``tracer is NULL_TRACER`` identifies "tracing off"
NULL_TRACER = Tracer(enabled=False)
