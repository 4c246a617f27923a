"""One workload in one process: set up, measure, write the result JSON.

Started by ``run.py`` (never by hand) with ``PYTHONPATH`` pointing at
``src`` and the BLAS/OpenMP thread counts pinned to 1.  Modes:

``setup``     set up and exit — one more ``setup_s`` sample;
``untraced``  set up, timed rounds with tracing off, post checks — the
              end-to-end metrics;
``traced``    set up, a few untraced rounds (the overhead baseline), the
              same rounds under ``spans.py``'s wrappers, then the counted
              pass — the per-layer metrics;
``counted``   set up and the counted pass only.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

_T_ENTER = time.monotonic()

import counted  # noqa: E402
import schema  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402


def iqr_rel(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _cpu_s() -> float:
    """User + system CPU seconds, own and waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _gc_collections() -> int:
    return sum(g["collections"] for g in gc.get_stats())


def run_round(wl, ctx, i: int, rec=None) -> dict:
    """One timed round; returns its wall time and ledgers."""
    from repro.interp.jit import compile_stats

    inputs = wl.prepare(i)
    ctx.start_round()
    if rec is not None:
        lo = len(rec.spans)
        rec.counts.clear()
        root = rec.begin(spans.ROUND)
    jit0 = dict(compile_stats)
    cpu0, gc0, t0 = _cpu_s(), _gc_collections(), time.perf_counter()
    wl.round(i, inputs)
    wall = time.perf_counter() - t0
    out = {
        "wall": wall,
        "cpu": _cpu_s() - cpu0,
        "gc": _gc_collections() - gc0,
        "ok": ctx.ok, "failed": ctx.failed, "sim_s": ctx.sim_s,
        "op_walls": ctx.op_walls,
    }
    if rec is not None:
        rec.end(root)
        out["span_range"] = (lo, len(rec.spans))
        out["span_counts"] = dict(rec.counts)
        for key in ("compiles", "memo_hits"):
            out["span_counts"][f"jit.{key}"] = compile_stats[key] - jit0[key]
    wl.after_round(i)  # may add legs (twin), counts and failures
    out["failed"] = ctx.failed
    out["legs"], out["counts"] = ctx.legs, ctx.counts
    return out


def run_rounds(wl, ctx, seconds: float, min_rounds: int,
               rec=None) -> list[dict]:
    """Start a new round while the budget lasts (and until the floor)."""
    rounds: list[dict] = []
    t0 = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(wl, ctx, len(rounds), rec))
    return rounds


def med(rounds: list[dict], key) -> float:
    return statistics.median(key(r) for r in rounds)


def end_to_end(rounds, setup_s: float) -> tuple[dict, dict]:
    walls = [r["wall"] for r in rounds]
    wall_s = statistics.median(walls)
    attempted = sum(r["ok"] + r["failed"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    peak_kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    metrics = {
        "wall_s": wall_s,
        "ops_per_s": med(rounds, lambda r: r["ok"]) / wall_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "setup_s": setup_s,
        "sim_time_s": rounds[0]["sim_s"],
        "fail_share": failed / attempted if attempted else 1.0,
    }
    details = {
        "wall_s.samples": walls,
        "wall_s.count": len(walls),
        "wall_s.min": min(walls),
        "wall_s.iqr_rel": iqr_rel(walls),
        "sim_time_s.rounds": [r["sim_s"] for r in rounds],
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, details


def per_layer(rec, untraced, traced, extra) -> tuple[dict, dict]:
    """Fold the traced rounds into the per-layer metrics (medians over
    rounds of per-round sums; counts must repeat, so the first is used)."""
    m = dict.fromkeys(schema.PER_LAYER_NAMES, 0.0)
    details: dict = {}
    selfs = spans.self_times(rec.spans)
    per_round = [
        spans.aggregate(rec.spans, *r["span_range"], selfs) for r in traced
    ]
    stems = sorted({s for sums, _ in per_round for s in sums})
    self_s = {
        s: statistics.median(sums.get(s, 0.0) for sums, _ in per_round)
        for s in stems
    }
    calls = per_round[0][1]
    # time rows: "<stem>_s" (launch and serve.run are named *_self_s)
    rename = {"runtime.launch": "runtime.launch_self_s",
              "serve.run": "serve.run_self_s"}
    for stem, value in self_s.items():
        key = rename.get(stem, f"{stem}_s")
        if key in m:
            m[key] = value
        else:
            details[f"{stem}_s"] = value
    m["serve.run_self_s"] += self_s.get("serve.job", 0.0)  # per-job glue
    for stem, n in calls.items():
        if f"{stem}_calls" in m:
            m[f"{stem}_calls"] = n
        else:
            details[f"{stem}_calls"] = n
    # counters the wrappers and the workload read off results
    first = traced[0]
    for key, value in {**first["span_counts"], **first["counts"]}.items():
        if key in m:
            m[key] = value
        else:
            details[key] = value
    wall_t = med(traced, lambda r: r["wall"])
    wall_u = med(untraced, lambda r: r["wall"])
    lanes = first["span_counts"]
    for layer in ("interp", "jit"):
        busy = self_s.get(f"{layer}.exec", 0.0)
        if busy:
            m[f"{layer}.lanes_per_s"] = lanes.get(f"{layer}.lanes", 0) / busy
    if self_s.get("cluster.allgather"):
        m["cluster.bytes_per_s"] = (
            m["cluster.comm_bytes"] / self_s["cluster.allgather"]
        )
    if m["serve.jobs"]:
        m["serve.jobs_per_s"] = m["serve.jobs"] / wall_t
    # per-kernel JIT time: jit.exec self time grouped by the op's label
    prefix = "jit.exec_s."
    for key in [k for k in m if k.startswith(prefix)]:
        label = key[len(prefix):]
        m[key] = statistics.median(
            sum(selfs[i] for i in range(*r["span_range"])
                if rec.spans[i][spans.STEM] == "jit.exec"
                and rec.op_labels.get(rec.spans[i][spans.OP]) == label)
            for r in traced
        )
    # legs -> ratios and whole-leg times
    def leg(key):
        vals = [r["legs"][key] for r in traced if key in r["legs"]]
        return statistics.median(vals) if vals else 0.0

    if leg("twin"):
        m["obs.hooks_on_ratio"] = leg("run") / leg("twin")
    if leg("plain"):
        m["obs.profile_on_ratio"] = leg("profiled") / leg("plain")
        m["sanitize.dynamic_ratio"] = leg("sanitized") / leg("plain")
    m["ops.halt_s"], m["ops.resume_s"] = leg("halt"), leg("resume")
    for key in ("crash", "checkpointed", "export"):
        if leg(key):
            details[f"leg.{key}_s"] = leg(key)
    # process / harness
    m["proc.cpu_s"] = med(traced, lambda r: r["cpu"])
    m["proc.gc_collections"] = med(traced, lambda r: r["gc"])
    m["bench.trace_overhead_ratio"] = wall_t / wall_u
    m["bench.round_iqr_rel"] = iqr_rel([r["wall"] for r in untraced])
    attempted = sum(r["ok"] + r["failed"] for r in untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)
    m["sim_time_s"] = traced[0]["sim_s"]
    m["fail_share"] = failed / attempted if attempted else 1.0
    m.update(extra)
    unattributed = self_s.get(spans.ROUND, 0.0)
    details.update({
        "traced.wall_s": wall_t,
        "untraced.wall_s": wall_u,
        "traced.rounds": len(traced),
        "untraced.rounds": len(untraced),
        "traced.spans": len(rec.spans),
        "bench.unattributed_s": unattributed,
        "bench.unattributed_share": unattributed / wall_t,
        "attempted": attempted,
        "failed": failed,
    })
    return m, details


def counted_pass(wl, ctx) -> dict:
    """Two reduced rounds under ``sys.setprofile``; the per-layer call
    counts must be exactly equal, or the proxy is not noise-free."""
    zero = {f"calls.{layer}": 0 for layer in counted.LAYERS}
    go = wl.counted_round()
    if go is None:
        return zero
    ctx.start_round()  # detach the ledgers of the last timed round
    go()  # the reduced inputs' own warm-up (first-use caches)
    a, b = counted.count_calls(go), counted.count_calls(go)
    if a != b:
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        raise SystemExit(f"counted pass not deterministic: {diff}")
    return {**zero, **{f"calls.{k}": v for k, v in a.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(suite.BY_NAME))
    ap.add_argument("--mode", required=True,
                    choices=("setup", "untraced", "traced", "counted"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="parent's time.monotonic() just before the spawn")
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, default=None)
    a = ap.parse_args(argv)

    t_import = time.perf_counter()
    import repro.api  # noqa: F401  (part of setup_s, like a user's script)

    import_s = time.perf_counter() - t_import
    traced = a.mode == "traced"
    ctx = suite.Ctx(a.seed, a.work, traced=traced)
    wl = suite.BY_NAME[a.workload](ctx)
    wl.setup()
    setup_s = time.monotonic() - a.t0
    result: dict = {
        "workload": a.workload, "mode": a.mode, "seed": a.seed,
        "setup_s": setup_s,
        "setup": {"spawn_s": _T_ENTER - a.t0, "import_s": import_s},
    }
    if a.mode == "untraced":
        rounds = run_rounds(wl, ctx, a.seconds, wl.min_rounds)
        ctx.start_round()
        wl.post()
        rounds[-1]["failed"] += ctx.failed
        metrics, details = end_to_end(rounds, setup_s)
        result.update(metrics=metrics, details=details)
    elif a.mode == "traced":
        # 30% of the budget untraced (overhead baseline), 50% traced,
        # the rest for the counted pass
        untraced = run_rounds(wl, ctx, 0.3 * a.seconds, 1)
        rec = spans.Recorder()
        ctx.rec = rec
        undo = spans.install(rec)
        try:
            # from round 0 again: the exact metrics are read off the
            # first traced round, which must not depend on how many
            # untraced rounds the budget allowed
            traced_rounds = run_rounds(wl, ctx, 0.5 * a.seconds, 2, rec)
        finally:
            spans.uninstall(undo)
            ctx.rec = None
        extra = {
            "api.import_s": import_s,
            **ctx.setup_metrics,
            **wl.extra_metrics(traced_rounds),
            **counted_pass(wl, ctx),
        }
        metrics, details = per_layer(rec, untraced, traced_rounds, extra)
        result.update(metrics=metrics, details=details)
        if a.trace_out is not None:
            spans.write_chrome_trace(rec, a.trace_out)
    elif a.mode == "counted":
        result.update(metrics=counted_pass(wl, ctx), details={})
    result["failures"] = ctx.failures[:20]
    a.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
