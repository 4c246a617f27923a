"""Host-clock spans recorded from outside ``src/repro``.

The traced pass installs a wrapper around each public entry point of a
layer *where its consumers bind it* (a ``from x import f`` in module
``m`` is wrapped as ``m.f``; a method is wrapped on its class; a catalog
entry in its dict).  A wrapper opens a span, calls through, closes the
span; nothing inside ``src/repro`` knows it is being timed.  Spans stay
in memory and are written as Chrome trace JSON when the child ends.

A span is ``[stem, start, end, parent, op]``: ``stem`` is
``<layer>.<name>`` (the per-layer metrics ``<stem>_s`` and
``<stem>_calls`` are derived from it), ``parent`` the index of the span
that was open when this one began (-1 for a root), ``op`` the id of the
benchmark operation it ran under — spans of one op share it.

**Self time** of a span is its duration minus the durations of its
direct children.  The benchmark is single-threaded, so children nest
strictly inside their parent and never overlap each other; the self
times of a tree therefore sum to the root's duration exactly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter
from functools import wraps
from typing import Callable, NamedTuple

STEM, START, END, PARENT, OP = range(5)

#: stem of the root span the harness opens around one timed round; its
#: self time is the round's unattributed remainder
ROUND = "bench.round"


class Recorder:
    """In-memory span store with an open-span stack and named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        #: id of the benchmark op in progress (0 = outside any op)
        self.op = 0
        self.op_labels: dict[int, str] = {}
        self.counts: Counter = Counter()

    def begin(self, stem: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([stem, self.clock(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError("span closed out of order")

    def new_op(self, label: str) -> int:
        self.op = len(self.op_labels) + 1
        self.op_labels[self.op] = label
        return self.op


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def aggregate(spans: list[list], lo: int, hi: int,
              selfs: list[float]) -> tuple[dict, dict]:
    """Per-stem self-time sums and call counts over ``spans[lo:hi]``."""
    sums: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(lo, hi):
        stem = spans[i][STEM]
        sums[stem] = sums.get(stem, 0.0) + selfs[i]
        calls[stem] = calls.get(stem, 0) + 1
    return sums, calls


def chrome_trace(rec: Recorder) -> dict:
    """Chrome trace-event document (complete ``X`` events, microseconds)."""
    t0 = rec.spans[0][START] if rec.spans else 0.0
    events = []
    for i, (stem, start, end, parent, op) in enumerate(rec.spans):
        events.append({
            "name": stem, "cat": stem.split(".", 1)[0], "ph": "X",
            "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"id": i, "parent": parent, "op": op,
                     "op_label": rec.op_labels.get(op, "")},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(rec: Recorder, path) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(rec), f)


# ---------------------------------------------------------------------
# the span table
# ---------------------------------------------------------------------
class Target(NamedTuple):
    """One wrapped binding.

    ``attr`` is a dotted attribute path inside ``module``
    (``CuCCRuntime.launch``) or a dict item (``PERF_WORKLOADS[FIR]``).
    ``stem_of(args)`` overrides ``stem`` per call; ``pre(args, kwargs)``
    runs before the call and its value reaches
    ``post(pre_value, args, kwargs, result)``, which returns counter
    increments; ``op_of(args)`` starts a new op for the call's duration.
    """

    module: str
    attr: str
    stem: str
    stem_of: Callable | None = None
    pre: Callable | None = None
    post: Callable | None = None
    op_of: Callable | None = None


_CUDA_WORKLOADS = ("binomial", "ep", "fir", "ga", "kmeans", "nbody",
                   "transpose", "vecadd")
_CATALOG = {
    "PERF_WORKLOADS": ("NBody", "MatMul", "Transpose", "FIR", "KMeans",
                       "BinomialOption", "EP", "GA"),
    "EXTRA_WORKLOADS": ("VecAdd",),
}


def _exec_stem(args):
    # JITBlockExecutor inherits run_blocks; only it carries a program
    return "jit.exec" if hasattr(args[0], "program") else "interp.exec"


def _exec_lanes(_pre, args, _kwargs, _result):
    ex = args[0]
    layer = "jit" if hasattr(ex, "program") else "interp"
    return {f"{layer}.lanes": len(args[1]) * ex.config.threads_per_block}


def _comm_bytes_pre(args, _kwargs):
    return args[0].comm_bytes


def _comm_bytes_post(pre, args, _kwargs, _result):
    return {"cluster.comm_bytes": args[0].comm_bytes - pre}


def _launch_post(_pre, _args, _kwargs, record):
    found = record.sanitizer_report
    return {
        "runtime.recoveries": record.recoveries,
        "runtime.retries": record.retries,
        "sanitize.findings": len(found.findings) if found is not None else 0,
    }


def _static_findings(_pre, _args, _kwargs, report):
    return {"sanitize.findings": len(report.findings)}


def _trials_pre(_args, _kwargs):
    from repro.obs.metrics import METRICS

    return METRICS.total("tuning.autotune_trials")


def _trials_post(pre, _args, _kwargs, _result):
    return {"tuning.trials": int(_trials_pre(None, None) - pre)}


def _job_label(args):
    return args[1].job_id


def span_table() -> tuple[Target, ...]:
    """Every binding the traced pass wraps.  An entry that does not
    resolve is a hard error in :func:`install`: a rename inside
    ``src/repro`` must be noticed here, not silently lose a layer."""
    t: list[Target] = []
    # workloads + frontend: each catalog builder, and the parser as each
    # workload module binds it (MatMul's front end is the Python DSL)
    for catalog, names in _CATALOG.items():
        for name in names:
            t.append(Target("repro.workloads", f"{catalog}[{name}]",
                            "workloads.build"))
    for mod in _CUDA_WORKLOADS:
        t.append(Target(f"repro.workloads.{mod}", "parse_kernel",
                        "frontend.parse"))
    t.append(Target("repro.workloads.matmul", "build_kernel",
                    "frontend.parse"))
    t.append(Target("repro.workloads.base", "WorkloadSpec.verify",
                    "workloads.verify"))
    # compiler passes, as the runtime binds them
    cucc = "repro.runtime.cucc"
    t += [
        Target(cucc, "simplify_kernel", "transform.simplify"),
        Target(cucc, "analyze_kernel", "analysis.analyze"),
        Target(cucc, "analyze_vectorizability", "transform.vectorize"),
        Target(cucc, "generate_kernel_module", "transform.codegen"),
        Target(cucc, "generate_host_module", "transform.codegen"),
        Target(cucc, "finalize_plan", "analysis.finalize_plan"),
        Target(cucc, "CuCCRuntime.__init__", "runtime.init"),
        Target(cucc, "CuCCRuntime.compile", "runtime.compile"),
        Target(cucc, "CuCCRuntime.launch", "runtime.launch",
               post=_launch_post),
    ]
    mem = "repro.runtime.memory_manager"
    t += [
        Target(mem, "ClusterMemory.alloc", "runtime.alloc"),
        Target(mem, "ClusterMemory.memcpy_h2d", "runtime.memcpy_h2d"),
        Target(mem, "ClusterMemory.memcpy_d2h", "runtime.memcpy_d2h"),
    ]
    # kernel execution: one wrapper, layer chosen by the executor's type
    t.append(Target("repro.interp.machine", "BlockExecutor.run_blocks",
                    "interp.exec", stem_of=_exec_stem, post=_exec_lanes))
    t.append(Target("repro.interp.jit.executor", "get_program",
                    "jit.codegen"))
    # cluster + tuning
    t.append(Target("repro.cluster.cluster", "Cluster.__init__",
                    "cluster.make_cluster"))
    for meth in ("allgather_in_place", "allgather_out_of_place",
                 "allgatherv_in_place"):
        t.append(Target("repro.cluster.comm", f"Communicator.{meth}",
                        "cluster.allgather", pre=_comm_bytes_pre,
                        post=_comm_bytes_post))
    t.append(Target("repro.api", "autotune", "tuning.autotune",
                    pre=_trials_pre, post=_trials_post))
    # serve: _execute is private, but it is the one per-job boundary —
    # wrapping it is what gives the spans of one job a shared op id
    srv = "repro.serve.server"
    t += [
        Target(srv, "CuCCServer.run", "serve.run"),
        Target(srv, "CuCCServer._execute", "serve.job", op_of=_job_label),
    ]
    # obs exports
    t += [
        Target("repro.obs.export", "write_chrome_trace", "obs.trace_export"),
        Target("repro.obs.netflow", "NetFlowLedger.dump", "obs.netflow_dump"),
        Target("repro.obs.metrics", "MetricsRegistry.snapshot_json",
               "obs.metrics_snapshot"),
        Target("repro.serve.accounting", "ServeReport.format_report",
               "obs.report_format"),
    ]
    # ops + sanitize
    t += [
        Target("repro.ops.manager", "write_checkpoint", "ops.ckpt_write"),
        Target("repro.ops.resume", "resume_runtime",
               "ops.resume_runtime"),
        Target("repro.sanitize", "sanitize_kernel", "sanitize.static",
               post=_static_findings),
    ]
    return tuple(t)


def _resolve(target: Target):
    """``(holder, key, is_item)`` such that the binding is
    ``holder[key]`` (dict item) or ``getattr(holder, key)``."""
    holder = importlib.import_module(target.module)
    path = target.attr
    if path.endswith("]"):
        name, _, key = path[:-1].partition("[")
        catalog = getattr(holder, name)
        if key not in catalog:
            raise LookupError(f"{target.module}:{path} does not resolve")
        return catalog, key, True
    *parents, leaf = path.split(".")
    for p in parents:
        holder = getattr(holder, p)
    if not inspect.isfunction(inspect.getattr_static(holder, leaf, None)):
        raise LookupError(
            f"{target.module}:{path} does not resolve to a plain function"
        )
    return holder, leaf, False


def _wrap(fn, target: Target, rec: Recorder):
    stem, stem_of, pre, post, op_of = target[2:]

    @wraps(fn)
    def wrapper(*args, **kwargs):
        outer_op = rec.op
        if op_of is not None:
            rec.new_op(op_of(args))
        before = pre(args, kwargs) if pre is not None else None
        idx = rec.begin(stem_of(args) if stem_of is not None else stem)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
            rec.op = outer_op
        if post is not None:
            rec.counts.update(post(before, args, kwargs, result))
        return result

    wrapper.__wallclock_wrapped__ = fn
    return wrapper


def install(rec: Recorder, table: tuple[Target, ...] | None = None) -> list:
    """Wrap every binding of ``table``; returns the undo list for
    :func:`uninstall`.  Raises :class:`LookupError` on a stale entry."""
    undo: list = []
    try:
        for target in table if table is not None else span_table():
            holder, key, is_item = _resolve(target)
            fn = holder[key] if is_item else inspect.getattr_static(holder, key)
            if hasattr(fn, "__wallclock_wrapped__"):
                raise LookupError(
                    f"{target.module}:{target.attr} is wrapped twice"
                )
            wrapped = _wrap(fn, target, rec)
            if is_item:
                holder[key] = wrapped
            else:
                setattr(holder, key, wrapped)
            undo.append((holder, key, is_item, fn))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list) -> None:
    """Restore every original binding (function identity included)."""
    for holder, key, is_item, fn in reversed(undo):
        if is_item:
            holder[key] = fn
        else:
            setattr(holder, key, fn)
