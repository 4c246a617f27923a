"""Declarative service-level objectives for the serving loop.

An :class:`SLOPolicy` states what the service promises — per-job queue
wait and latency ceilings, and an end-of-run pool-utilization floor —
and an :class:`SLOMonitor` evaluates it *online* as the serving loop
places jobs, with windowed burn-rate accounting:

* each latency-class objective keeps a sliding window of the last
  ``window`` jobs and marks each as violating or not;
* the **burn rate** is the violating fraction divided by the error
  ``budget`` (the fraction of jobs the policy tolerates missing the
  objective).  Burn >= 1 means the budget is being consumed exactly as
  fast as it accrues — a ``warn``; burn >= ``breach_burn`` (default 2x)
  is a hard ``breach``;
* events are emitted on upward level transitions only (ok -> warn,
  warn -> breach), so a sustained violation storm produces one warn and
  one breach, not one event per job.

The monitor is pure bookkeeping over simulated timestamps — evaluation
order is the deterministic placement order of the serving loop, so the
event stream is byte-stable per seed.  Breaches surface in the
:class:`~repro.serve.accounting.ServeReport`, in the trace (``slo``
instants), in metrics, in the flight recorder, and as a non-zero
``repro serve --slo`` exit status.

Loaded lazily via ``repro.obs.__getattr__``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ServeError

__all__ = ["SLOPolicy", "SLOEvent", "SLOMonitor"]

#: escalation order of monitor levels
_LEVELS = {"ok": 0, "warn": 1, "breach": 2}


@dataclass(frozen=True)
class SLOPolicy:
    """What the service promises (simulated seconds throughout)."""

    #: per-job queue-wait ceiling (arrival -> admission), or None
    max_wait_s: float | None = None
    #: per-job latency ceiling (arrival -> finish), or None
    max_latency_s: float | None = None
    #: end-of-run pool-utilization floor in [0, 1], or None
    min_utilization: float | None = None
    #: sliding-window length (jobs) for burn-rate accounting
    window: int = 8
    #: error budget: tolerated violating fraction of the window
    budget: float = 0.25
    #: burn rate at which a warn hardens into a breach
    breach_burn: float = 2.0

    def __post_init__(self):
        if self.window < 1:
            raise ServeError(f"SLO window must be >= 1, got {self.window}")
        if not 0 < self.budget <= 1:
            raise ServeError(
                f"SLO budget must be in (0, 1], got {self.budget}"
            )
        if self.breach_burn < 1:
            raise ServeError(
                f"SLO breach burn must be >= 1, got {self.breach_burn}"
            )
        if all(o is None for o in (self.max_wait_s, self.max_latency_s,
                                   self.min_utilization)):
            raise ServeError(
                "SLO policy needs at least one objective "
                "(wait, latency or utilization)"
            )

    @classmethod
    def parse(cls, spec: "str | SLOPolicy") -> "SLOPolicy":
        """Parse a CLI spec like
        ``"wait<=2e-5,latency<=1e-4,utilization>=0.5,window=8,budget=0.25"``
        (a policy passes through as-is).

        ``wait``/``latency`` take ``<=`` ceilings (seconds),
        ``utilization`` (alias ``util``) a ``>=`` floor; ``window``,
        ``budget`` and ``burn`` tune the burn-rate accounting.
        """
        if isinstance(spec, cls):
            return spec
        kw: dict = {}
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            for op in ("<=", ">=", "="):
                if op in token:
                    name, _, value = token.partition(op)
                    break
            else:
                raise ServeError(
                    f"bad SLO term {token!r}: expected name<=value, "
                    f"name>=value or name=value"
                )
            name = name.strip().lower()
            try:
                num = float(value)
            except ValueError:
                raise ServeError(
                    f"bad SLO value in {token!r}: {value!r} is not a number"
                ) from None
            if name == "wait":
                kw["max_wait_s"] = num
            elif name == "latency":
                kw["max_latency_s"] = num
            elif name in ("utilization", "util"):
                kw["min_utilization"] = num
            elif name == "window":
                kw["window"] = int(num)
            elif name == "budget":
                kw["budget"] = num
            elif name == "burn":
                kw["breach_burn"] = num
            else:
                raise ServeError(
                    f"unknown SLO objective {name!r}; known: wait, "
                    f"latency, utilization, window, budget, burn"
                )
        return cls(**kw)

    def describe(self) -> str:
        parts = []
        if self.max_wait_s is not None:
            parts.append(f"wait<={self.max_wait_s:g}s")
        if self.max_latency_s is not None:
            parts.append(f"latency<={self.max_latency_s:g}s")
        if self.min_utilization is not None:
            parts.append(f"utilization>={self.min_utilization:g}")
        parts.append(f"window={self.window}")
        parts.append(f"budget={self.budget:g}")
        parts.append(f"burn={self.breach_burn:g}")
        return " ".join(parts)


@dataclass(frozen=True)
class SLOEvent:
    """One structured warn/breach instant (simulated seconds)."""

    t: float
    level: str  # "warn" | "breach"
    objective: str  # "wait" | "latency" | "utilization"
    value: float  # the observation that crossed the line
    threshold: float
    burn: float  # burn rate at emission (budget multiples)
    job_id: str | None = None

    def describe(self) -> str:
        who = f" (job {self.job_id})" if self.job_id else ""
        cmp = ">=" if self.objective == "utilization" else "<="
        return (
            f"[{self.t * 1e6:10.3f} us] SLO {self.level.upper()}: "
            f"{self.objective} {self.value:g} vs {cmp} {self.threshold:g}, "
            f"burn {self.burn:.2f}x budget{who}"
        )


class SLOMonitor:
    """Online evaluator of one :class:`SLOPolicy` over a serve run."""

    def __init__(self, policy: SLOPolicy):
        self.policy = policy
        self.events: list[SLOEvent] = []
        self._windows: dict[str, deque] = {
            "wait": deque(maxlen=policy.window),
            "latency": deque(maxlen=policy.window),
        }
        self._levels = {"wait": "ok", "latency": "ok", "utilization": "ok"}

    @property
    def warned(self) -> bool:
        return any(e.level == "warn" for e in self.events)

    @property
    def breached(self) -> bool:
        return any(e.level == "breach" for e in self.events)

    def _transition(
        self, objective: str, level: str, t: float, value: float,
        threshold: float, burn: float, job_id: str | None,
    ) -> list[SLOEvent]:
        """Emit events for an upward level change; record the new level
        either way (de-escalation is silent but re-arms emission)."""
        new: list[SLOEvent] = []
        if _LEVELS[level] > _LEVELS[self._levels[objective]]:
            # escalating straight to breach still logs the warn->breach
            # story as one breach event — the warn threshold was never
            # the steady state
            new.append(SLOEvent(
                t=t, level=level, objective=objective, value=value,
                threshold=threshold, burn=burn, job_id=job_id,
            ))
            self.events.extend(new)
        self._levels[objective] = level
        return new

    def observe(
        self, t: float, job_id: str, wait_s: float, latency_s: float,
    ) -> list[SLOEvent]:
        """Feed one placed job (at its finish instant ``t``); returns
        any newly emitted events."""
        p = self.policy
        out: list[SLOEvent] = []
        for objective, value, threshold in (
            ("wait", wait_s, p.max_wait_s),
            ("latency", latency_s, p.max_latency_s),
        ):
            if threshold is None:
                continue
            win = self._windows[objective]
            win.append(1 if value > threshold else 0)
            burn = (sum(win) / len(win)) / p.budget
            level = (
                "breach" if burn >= p.breach_burn
                else "warn" if burn >= 1.0 else "ok"
            )
            if value > threshold or level == "ok":
                out += self._transition(
                    objective, level, t, value, threshold, burn, job_id,
                )
        return out

    def finalize(self, t: float, utilization: float) -> list[SLOEvent]:
        """End-of-run check of the utilization floor at makespan ``t``."""
        p = self.policy
        if p.min_utilization is None or utilization >= p.min_utilization:
            return []
        burn = (
            p.min_utilization / utilization
            if utilization > 0 else float(p.breach_burn)
        )
        level = "breach" if burn >= p.breach_burn else "warn"
        return self._transition(
            "utilization", level, t, utilization, p.min_utilization, burn,
            None,
        )
