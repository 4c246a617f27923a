"""Self-tests of the wall-clock benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/wallclock`` (the
file is not named ``bench_*.py``, which ``pyproject.toml`` would collect
as a pytest-benchmark file, and ``testpaths`` keeps it out of tier-1).
"""

from __future__ import annotations

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import coldstart  # noqa: E402
import compare  # noqa: E402
import counted  # noqa: E402
import run  # noqa: E402
import schema  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


# -- span arithmetic ---------------------------------------------------
def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_on_a_synthetic_tree():
    # round [0,10] > a [1,7] > (b [2,4], c [4,6]) ; d [8,9]
    rec = spans.Recorder(clock=_fake_clock([0, 1, 2, 4, 4, 6, 7, 8, 9, 10]))
    root = rec.begin(spans.ROUND)
    a = rec.begin("x.a")
    b = rec.begin("x.b")
    rec.end(b)
    c = rec.begin("x.b")
    rec.end(c)
    rec.end(a)
    d = rec.begin("y.d")
    rec.end(d)
    rec.end(root)
    selfs = spans.self_times(rec.spans)
    assert selfs == [3, 2, 2, 2, 1]  # round, a, b, c, d
    assert sum(selfs) == 10  # self times sum to the root's duration
    sums, calls = spans.aggregate(rec.spans, 0, len(rec.spans), selfs)
    assert sums == {spans.ROUND: 3, "x.a": 2, "x.b": 4, "y.d": 1}
    assert calls == {spans.ROUND: 1, "x.a": 1, "x.b": 2, "y.d": 1}
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0, 1, 1, 0]


def test_spans_of_one_op_share_its_id_and_trace_round_trips(tmp_path):
    rec = spans.Recorder()
    rec.new_op("first")
    i = rec.begin("x.a")
    j = rec.begin("x.b")
    rec.end(j)
    rec.end(i)
    rec.new_op("second")
    rec.end(rec.begin("x.a"))
    assert [s[spans.OP] for s in rec.spans] == [1, 1, 2]
    path = tmp_path / "t.json"
    spans.write_chrome_trace(rec, path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["args"]["op_label"] for e in events] == ["first", "first", "second"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# -- span table against this checkout ----------------------------------
def _binding(target):
    holder, key, is_item = spans._resolve(target)
    return holder[key] if is_item else inspect.getattr_static(holder, key)


def test_every_span_target_resolves_and_wrappers_are_removed():
    table = spans.span_table()
    before = [_binding(t) for t in table]
    undo = spans.install(spans.Recorder(), table)
    assert len(undo) == len(table)
    assert all(hasattr(_binding(t), "__wallclock_wrapped__") for t in table)
    spans.uninstall(undo)
    for t, fn in zip(table, before):
        assert _binding(t) is fn, f"{t.module}:{t.attr} not restored"
        assert not hasattr(fn, "__wallclock_wrapped__")


def test_a_stale_span_target_is_a_hard_error():
    stale = (spans.Target("repro.runtime.cucc", "CuCCRuntime.lunch", "x.y"),)
    with pytest.raises(LookupError):
        spans.install(spans.Recorder(), stale)
    gone = (spans.Target("repro.workloads", "PERF_WORKLOADS[Nope]", "x.y"),)
    with pytest.raises(LookupError):
        spans.install(spans.Recorder(), gone)


def test_wrapped_call_records_span_counts_and_result():
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        from repro import api
        from repro.bench import harness

        spec = api.PERF_WORKLOADS["FIR"]("small", seed=3)
        res = harness.run_on_cucc(spec, api.make_cluster("simd-focused", 4))
    finally:
        spans.uninstall(undo)
    stems = {s[spans.STEM] for s in rec.spans}
    assert {"workloads.build", "frontend.parse", "runtime.compile",
            "runtime.launch", "jit.exec", "cluster.allgather",
            "workloads.verify"} <= stems
    assert "interp.exec" not in stems
    # 4 partial blocks (one per node) + 4 callback blocks run once
    assert rec.counts["jit.lanes"] == spec.num_blocks * 256
    assert rec.counts["cluster.comm_bytes"] > 0
    assert res.time > 0 and not rec.stack


# -- counted pass -------------------------------------------------------
def test_call_counts_bucket_by_callee_and_repeat_exactly():
    from repro import api

    def go():
        api.parse_cuda(
            "__global__ void k(float *x) { x[threadIdx.x] = 1.0f; }"
        )

    go()
    a, b = counted.count_calls(go), counted.count_calls(go)
    assert a == b
    assert a["frontend"] > 0 and a["total"] >= a["frontend"]
    assert a["jit"] == 0 and a["serve"] == 0
    assert counted.layer_of_file("/x/src/repro/interp/jit/compiler.py") == "jit"
    assert counted.layer_of_file("/x/src/repro/interp/machine.py") == "interp"
    assert counted.layer_of_file("<jit:fir>") == "jit"
    assert counted.layer_of_file("/usr/lib/python3/json/decoder.py") is None


def test_importtime_shares_are_disjoint():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:        50 |        150 |   numpy",
        "import time:        30 |         30 |       numpy.testing",
        "import time:        70 |        100 |     scipy._lib",
        "import time:        20 |        120 |   scipy.special",
        "import time:        10 |        280 | repro.api",
        "import time:         5 |          5 | repro",
    ])
    share = coldstart.package_seconds(log)
    assert share == pytest.approx(
        {"numpy": 150e-6, "scipy": 120e-6, "total": 285e-6}
    )


# -- schema, BENCHMARK.json, result documents ---------------------------
def test_benchmark_json_matches_the_schema_and_the_contract():
    doc = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert doc == schema.benchmark_json()
    assert list(doc) == ["command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"]
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in doc["end_to_end"]
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * doc["run_seconds"] < 3420


def test_workload_classes_match_the_schema():
    import suite

    assert [c.name for c in suite.ALL] == [w.name for w in schema.WORKLOADS]


def _fake_results(wall, sim=1.5, calls=7):
    return {"workloads": {"w": {
        "end_to_end": {"wall_s": wall, "ops_per_s": 10 / wall,
                       "peak_rss_mb": 100.0, "setup_s": 1.0,
                       "sim_time_s": sim, "fail_share": 0.0},
        "end_to_end_details": {"wall_s.iqr_rel": 0.01},
        "per_layer": {"runtime.launch_calls": calls, "jit.exec_s": wall / 2},
    }}}


def test_compare_verdicts(tmp_path):
    base = _fake_results(1.0)
    rows, bad = compare.compare(base, _fake_results(1.05))
    assert bad == 0 and {r[-1] for r in rows} == {"ok"}
    rows, bad = compare.compare(base, _fake_results(1.2))
    worse = {r[1] for r in rows if r[-1] == "worse"}
    assert worse == {"wall_s", "ops_per_s"} and bad == 2
    noisy = _fake_results(1.2)
    noisy["workloads"]["w"]["end_to_end_details"]["wall_s.iqr_rel"] = 0.3
    rows, bad = compare.compare(base, noisy)
    assert bad == 0
    assert {r[1] for r in rows if r[-1] == "unresolved"} == {"wall_s", "ops_per_s"}
    rows, bad = compare.compare(base, _fake_results(1.0, sim=1.5000001, calls=8))
    assert {r[1] for r in rows if r[-1] == "differs"} == {
        "sim_time_s", "runtime.launch_calls"}
    assert bad == 2
    # the command line: exit status and a JSON round trip through files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(_fake_results(1.2)))
    assert run.main(["compare", str(a), str(a)]) == 0
    assert run.main(["compare", str(a), str(b)]) == 1


def test_result_lines_round_trip_and_name_only_declared_metrics():
    rounds = [
        {"wall": w, "ok": 4, "failed": 0, "sim_s": 0.25, "cpu": w, "gc": 1}
        for w in (1.0, 1.1, 0.9)
    ]
    metrics, details = child.end_to_end(rounds, setup_s=0.5)
    assert metrics["wall_s"] == 1.0 and metrics["ops_per_s"] == 4.0
    assert details["wall_s.count"] == 3 and details["wall_s.min"] == 0.9
    doc = {"metrics": metrics, "details": details}
    line = run.driver_line(doc, [m.name for m in schema.END_TO_END])
    assert json.loads(json.dumps(line)) == line
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["attempted"] == 12 and line["failed"] == 0
    declared = {m["name"] for m in schema.benchmark_json()["end_to_end"]}
    assert set(line["metrics"]) == declared
    assert all(NAME.match(n) for n in line["metrics"])
    assert line["metrics"]["wall_s"] == {"value": 1.0, "unit": "s"}


def test_per_layer_fold_names_exactly_the_declared_metrics():
    rec = spans.Recorder(clock=_fake_clock([0, 1, 3, 4, 9, 10]))
    root = rec.begin(spans.ROUND)
    rec.new_op("NBody")
    jit = rec.begin("jit.exec")
    rec.end(jit)
    other = rec.begin("runtime.alloc")  # not a declared metric: details
    rec.end(other)
    rec.end(root)
    rnd = {"wall": 10.0, "cpu": 9.0, "gc": 2, "ok": 5, "failed": 0,
           "sim_s": 0.5, "legs": {"plain": 2.0, "profiled": 3.0,
                                  "sanitized": 4.0},
           "counts": {"serve.jobs": 5}, "span_range": (0, 3),
           "span_counts": {"jit.lanes": 40, "jit.memo_hits": 1}}
    extra = {"api.import_s": 0.3, "calls.total": 12}
    m, details = child.per_layer(rec, [dict(rnd, wall=8.0)], [rnd], extra)
    assert tuple(m) == schema.PER_LAYER_NAMES
    assert m["jit.exec_s"] == 2 and m["jit.exec_s.NBody"] == 2
    assert m["jit.exec_calls"] == 1 and m["jit.lanes_per_s"] == 20
    assert m["obs.profile_on_ratio"] == 1.5 and m["sanitize.dynamic_ratio"] == 2
    assert m["bench.trace_overhead_ratio"] == 1.25 and m["calls.total"] == 12
    assert m["serve.jobs_per_s"] == 0.5 and m["sim_time_s"] == 0.5
    assert details["runtime.alloc_s"] == 5
    assert details["bench.unattributed_s"] == 3  # 10 - 2 - 5
    line = run.driver_line({"metrics": m, "details": details},
                           schema.PER_LAYER_NAMES)
    assert json.loads(json.dumps(line)) == line and line["attempted"] == 10
