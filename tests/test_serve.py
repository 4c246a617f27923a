"""The serving subsystem: queue, packing, pipelining, and the contract.

The headline property (ISSUE acceptance): serving N jobs concurrently —
pipelined or not, with or without injected faults — produces per-job
results bit-identical to running the same jobs serially in submission
order.  Everything else here supports that: the submission queue's
fairness order, the packer's disjoint leases, the overlap-timing math,
the shared-cache behaviour, and the per-job observability labels.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trace_schema import validate_chrome_trace

from repro.errors import ServeError
from repro.serve import (
    AdmissionPacker,
    CuCCServer,
    JobRequest,
    PhaseProfile,
    ServeConfig,
    SubmissionQueue,
    parse_mix,
    percentile,
    resolve_workload,
    serve_requests,
    serve_serially,
    synth_requests,
    verify_against_serial,
)
from repro.serve.pipeline import schedule_fresh, schedule_overlapped

CRASH = "crash:rank=1,phase=allgather"


# -- queue and arrival synthesis ----------------------------------------


def test_parse_mix_weights_and_bare_names():
    assert parse_mix("FIR:2,KMeans:1") == {"FIR": 2.0, "KMeans": 1.0}
    assert parse_mix("FIR,KMeans") == {"FIR": 1.0, "KMeans": 1.0}
    # case-insensitive, canonicalized, repeated names accumulate
    assert parse_mix("fir:1,FIR:2") == {"FIR": 3.0}


@pytest.mark.parametrize("bad", ["", "NoSuchKernel:1", "FIR:x", "FIR:-1"])
def test_parse_mix_rejects(bad):
    with pytest.raises(ServeError):
        parse_mix(bad)


def test_resolve_workload_case_insensitive():
    name, build = resolve_workload("kmeans")
    assert name == "KMeans" and callable(build)
    with pytest.raises(ServeError, match="unknown workload"):
        resolve_workload("warp_shuffle_9000")


def test_request_validation():
    with pytest.raises(ServeError):
        JobRequest("j", "FIR", nodes=0)
    with pytest.raises(ServeError):
        JobRequest("j", "FIR", arrival_s=-1.0)
    with pytest.raises(ServeError):
        JobRequest("j", "FIR", size="huge")


def test_queue_orders_by_arrival_then_submission():
    q = SubmissionQueue()
    q.submit(workload="FIR", arrival_s=2.0)
    q.submit(workload="KMeans", arrival_s=1.0)
    q.submit(workload="EP", arrival_s=1.0)  # same arrival: FIFO
    ids = [r.job_id for r in q.requests()]
    assert ids == ["job-0001", "job-0002", "job-0000"]
    assert len(q) == 3
    with pytest.raises(ServeError, match="duplicate"):
        q.submit(JobRequest("job-0000", "FIR"))


def test_synth_requests_deterministic_per_seed():
    a = synth_requests("FIR:2,KMeans:1", rate=1e6, jobs=16, seed=3)
    b = synth_requests("FIR:2,KMeans:1", rate=1e6, jobs=16, seed=3)
    c = synth_requests("FIR:2,KMeans:1", rate=1e6, jobs=16, seed=4)
    assert a == b
    assert a != c
    assert [r.arrival_s for r in a] == sorted(r.arrival_s for r in a)
    assert len({r.workload for r in a}) > 1  # the mix actually mixes


def test_synth_requests_fault_every_marks_every_kth_job():
    reqs = synth_requests("FIR", rate=1e6, jobs=9, seed=0,
                          faults=CRASH, fault_every=3)
    faulted = [r.faults is not None for r in reqs]
    assert faulted == [False, False, True] * 3


def test_synth_requests_duration_bounds_the_trace():
    reqs = synth_requests("FIR", rate=1e6, duration_s=1e-5, seed=0)
    assert reqs and all(r.arrival_s <= 1e-5 for r in reqs)
    with pytest.raises(ServeError):
        synth_requests("FIR", rate=1e6)  # neither jobs nor duration


# -- pipelining math ----------------------------------------------------


def test_schedule_fresh_phases_abut():
    p = PhaseProfile(pre_s=3.0, allgather_s=2.0, post_s=1.0)
    t = schedule_fresh(p, 10.0)
    assert (t.start_s, t.allgather_start_s, t.allgather_end_s,
            t.finish_s) == (10.0, 13.0, 15.0, 16.0)
    assert not t.overlapped and t.window_s == 2.0


def test_schedule_overlapped_full_fit_hides_pre_entirely():
    owner = schedule_fresh(PhaseProfile(1.0, 5.0, 1.0), 0.0)
    succ = schedule_overlapped(PhaseProfile(2.0, 3.0, 1.0), owner)
    # pre (2) fits inside the window (5): starts at window-open, its own
    # allgather still waits for the owner's to leave the wire (rule 3)
    assert succ.start_s == owner.allgather_start_s == 1.0
    assert succ.allgather_start_s == owner.allgather_end_s == 6.0
    # post needs the CPUs back: owner finishes at 7
    assert succ.finish_s == max(9.0, owner.finish_s) + 1.0


def test_schedule_overlapped_partial_fit_suspends_and_resumes():
    owner = schedule_fresh(PhaseProfile(1.0, 2.0, 4.0), 0.0)  # window 2
    succ = schedule_overlapped(PhaseProfile(5.0, 1.0, 1.0), owner)
    # 2 of 5 pre-seconds hide in the window; the remaining 3 resume
    # after the owner's callback ends (t=7), so pre ends at 10
    assert succ.start_s == 1.0
    assert succ.allgather_start_s == 10.0
    assert succ.finish_s == 12.0
    # never better than fresh-at-owner-finish would be, but never
    # worse either: the hidden seconds are pure gain
    fresh = schedule_fresh(PhaseProfile(5.0, 1.0, 1.0), owner.finish_s)
    assert succ.finish_s <= fresh.finish_s


def test_overlap_is_never_slower_than_waiting():
    owner = schedule_fresh(PhaseProfile(2.0, 3.0, 2.0), 0.0)
    for pre in (0.5, 3.0, 9.0):
        prof = PhaseProfile(pre, 1.5, 0.5)
        ov = schedule_overlapped(prof, owner)
        assert ov.finish_s <= schedule_fresh(prof, owner.finish_s).finish_s
        assert ov.allgather_start_s >= owner.allgather_end_s  # one wire


# -- admission and packing ----------------------------------------------


def _timing():
    return schedule_fresh(PhaseProfile(1.0, 1.0, 1.0), 0.0)


def test_packer_leases_are_disjoint_and_bounded():
    p = AdmissionPacker(6)
    a = p.admit("a", 2, _timing())
    b = p.admit("b", 3, _timing())
    assert set(a.node_ids).isdisjoint(b.node_ids)
    assert p.free_nodes == 1
    assert not p.can_admit(2)
    with pytest.raises(Exception):
        p.admit("c", 2, _timing())
    assert p.job_finished(a, "a") == a.node_ids
    assert p.free_nodes == 3


def test_packer_attach_depth_one_and_handoff_shrink():
    p = AdmissionPacker(4)
    lease = p.admit("owner", 4, _timing())
    p.attach(lease, "succ", _timing())
    with pytest.raises(ServeError, match="already has successor"):
        p.attach(lease, "third", _timing())
    # owner finishes: successor takes over, nothing released yet
    assert p.job_finished(lease, "owner") == ()
    assert lease.owner == "succ" and lease.successor is None
    # the successor was narrower: shed the excess width
    assert p.shrink(lease, 2) == (2, 3)
    assert p.free_nodes == 2
    assert p.job_finished(lease, "succ") == (0, 1)
    assert p.free_nodes == 4 and not p.leases


def test_percentile_nearest_rank():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert percentile(vals, 50) == 2.0
    assert percentile(vals, 99) == 4.0
    assert percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


# -- the determinism contract -------------------------------------------


def _mixed_requests(jobs=6, **kw):
    kw.setdefault("nodes", 2)
    return synth_requests("FIR:2,KMeans:1,Transpose:1", rate=2e6,
                          jobs=jobs, seed=0, **kw)


def test_concurrent_serving_bit_identical_to_serial():
    reqs = _mixed_requests()
    serial = serve_serially(reqs, ServeConfig(nodes=6))
    for pipeline in (False, True):
        rep = serve_requests(reqs, ServeConfig(nodes=6, pipeline=pipeline))
        assert verify_against_serial(rep, serial) == []
        # placement invariants: concurrent residents own disjoint subsets
        assert all(r.status == "ok" for r in rep.results)


def test_identity_holds_under_injected_faults():
    reqs = _mixed_requests(jobs=8, faults=CRASH, fault_every=3)
    serial = serve_serially(reqs, ServeConfig(nodes=6))
    rep = serve_requests(reqs, ServeConfig(nodes=6))
    assert verify_against_serial(rep, serial) == []
    faulted = [r for r in rep.results if r.request.faults]
    assert faulted and all(r.status == "ok" for r in faulted)
    assert all(r.record.recoveries > 0 for r in faulted)
    clean = [r for r in rep.results if not r.request.faults]
    assert all(r.record.recoveries == 0 for r in clean)  # isolation


def test_terminal_failure_is_isolated_and_identical_to_serial():
    reqs = [
        JobRequest("ok-0", "FIR", nodes=2, arrival_s=0.0),
        # 1-node job loses its only replica: unrecoverable, stays failed
        JobRequest("doomed", "FIR", nodes=1, arrival_s=0.0,
                   faults="crash:rank=0,phase=partial"),
        JobRequest("ok-1", "KMeans", nodes=2, arrival_s=0.0),
    ]
    serial = serve_serially(reqs, ServeConfig(nodes=5))
    rep = serve_requests(reqs, ServeConfig(nodes=5))
    assert verify_against_serial(rep, serial) == []
    by_id = {r.request.job_id: r for r in rep.results}
    assert by_id["doomed"].status == "failed"
    assert "unrecoverable" in by_id["doomed"].error
    assert by_id["ok-0"].status == by_id["ok-1"].status == "ok"
    assert rep.stats.failed == 1 and rep.stats.completed == 2


def test_fcfs_admission_head_never_overtaken():
    # a wide head that does not fit must hold back later narrow jobs
    # from *leases* (pipelined attach is the only sanctioned backfill)
    reqs = [
        JobRequest("wide", "FIR", nodes=4, arrival_s=1e-7),
        JobRequest("narrow", "KMeans", nodes=1, arrival_s=2e-7),
    ]
    blocker = JobRequest("blocker", "FIR", nodes=3, arrival_s=0.0)
    rep = serve_requests([blocker] + reqs,
                         ServeConfig(nodes=4, pipeline=False))
    by_id = {r.request.job_id: r for r in rep.results}
    # narrow could have run beside the blocker, but FCFS makes it wait
    # for wide's lease to be granted first
    assert by_id["wide"].timing.admit_s >= by_id["blocker"].timing.finish_s
    assert by_id["narrow"].timing.admit_s >= by_id["wide"].timing.admit_s


def test_pipelined_beats_concurrent_beats_serial_under_backlog():
    reqs = _mixed_requests(jobs=12)
    serial = serve_serially(reqs, ServeConfig(nodes=8))
    conc = serve_requests(reqs, ServeConfig(nodes=8, pipeline=False))
    pipe = serve_requests(reqs, ServeConfig(nodes=8, pipeline=True))
    ss, cs, ps = serial.stats, conc.stats, pipe.stats
    assert cs.launches_per_sec > ss.launches_per_sec
    assert ps.launches_per_sec > cs.launches_per_sec
    assert ps.latency_p99_s <= cs.latency_p99_s <= ss.latency_p99_s
    assert ps.overlapped > 0
    # identity still holds in every mode (same jobs, same bits)
    assert verify_against_serial(pipe, serial) == []


def test_server_rejects_bad_submissions():
    # the concurrent server and the serial reference validate alike
    for serve in (serve_requests, serve_serially):
        with pytest.raises(ServeError, match="pool has 2"):
            serve([JobRequest("big", "FIR", nodes=4)], ServeConfig(nodes=2))
        with pytest.raises(ServeError, match="duplicate"):
            serve([JobRequest("x", "FIR"), JobRequest("x", "FIR")],
                  ServeConfig(nodes=4))
        with pytest.raises(ServeError, match="empty"):
            serve([], ServeConfig(nodes=4))
    with pytest.raises(ServeError, match="unknown cluster"):
        CuCCServer(ServeConfig(cluster="abacus"))


def test_serve_serially_leaves_the_callers_config_unchanged():
    # a config reused for a concurrent run afterwards must still pipeline
    import dataclasses

    cfg = ServeConfig(nodes=4)
    before = dataclasses.asdict(cfg)
    serve_serially([JobRequest("a", "FIR")], cfg)
    assert dataclasses.asdict(cfg) == before and cfg.pipeline is True


_REPEAT_SERVES = """
import resource
from repro.serve import CuCCServer, ServeConfig, synth_requests
from repro.serve.server import _retain_heap

reqs = synth_requests("Transpose:1", rate=1e6, jobs=24, nodes=2,
                      size="small", seed=1)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    CuCCServer(ServeConfig(nodes=8)).run(reqs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(int(_retain_heap()), *faults)
"""


def test_a_repeat_serve_recycles_its_buffers_instead_of_refaulting_them():
    """Once warm, a served job's buffers come from the retained heap: a
    small Transpose job faults in ~800 pages when every free is handed
    back to the kernel, and how many is an accident of the heap layout —
    which made host time per job differ between processes."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    retained, *faults = map(int, subprocess.run(
        [sys.executable, "-c", _REPEAT_SERVES],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split())
    if not retained:
        pytest.skip("the C library has no mallopt")
    assert faults[2] < 24 * 50, faults


# -- shared caches ------------------------------------------------------


def test_warm_shared_compile_cache_serves_with_zero_recompiles(tmp_path):
    from repro.interp.jit import CompileCache
    from repro.interp.jit.executor import clear_memo, compile_stats

    reqs = _mixed_requests(jobs=4)
    path = tmp_path / "serve-cache.json"
    cold = CuCCServer(ServeConfig(nodes=4, backend="jit",
                                  jit_cache=CompileCache(path=path)))
    clear_memo()
    cold.run(reqs)
    assert len(cold.jit_cache) > 0
    cold.jit_cache.save()

    clear_memo()  # hits must come from the *persisted* cache
    before = compile_stats["compiles"]
    warm = CuCCServer(ServeConfig(nodes=4, backend="jit", jit_cache=path))
    rep = warm.run(reqs)
    assert compile_stats["compiles"] == before
    assert warm.jit_cache.hits > 0
    assert all(r.status == "ok" for r in rep.results)


def test_shared_tuning_cache_is_consulted_not_written(tmp_path):
    from repro.tuning import TuningCache

    cache = TuningCache()
    before = dict(cache.entries)
    serve_requests(_mixed_requests(jobs=3),
                   ServeConfig(nodes=4, tuning=cache))
    assert cache.entries == before  # select_algorithm never writes


# -- per-job observability ----------------------------------------------


def test_job_spans_and_adopted_spans_carry_job_id(tmp_path):
    from repro.obs.export import write_chrome_trace

    reqs = _mixed_requests(jobs=3)
    server = CuCCServer(ServeConfig(nodes=4, trace=True))
    rep = server.run(reqs)
    spans = server.tracer.spans
    job_spans = [s for s in spans if s.kind == "serve"]
    assert len(job_spans) == 3
    assert {s.args["job_id"] for s in job_spans} == \
        {r.job_id for r in reqs}
    for s in job_spans:
        assert s.args["status"] == "ok"
        assert len(s.args["node_ids"]) == s.args["nodes"]
    # every adopted child span is labelled and remapped onto pool nodes
    children = [s for s in spans if s.kind != "serve"]
    assert children and all("job_id" in s.args for s in children)
    pool_ids = {i for r in rep.results for i in r.node_ids}
    assert {s.rank for s in children if s.rank is not None} <= pool_ids
    path = tmp_path / "serve-trace.json"
    write_chrome_trace(server.tracer, path)
    assert validate_chrome_trace(json.loads(path.read_text())) == []


def test_metrics_labelled_per_job_and_workload():
    from repro.obs.metrics import METRICS

    METRICS.reset()
    serve_requests(_mixed_requests(jobs=3), ServeConfig(nodes=4))
    snap = METRICS.render()
    assert "serve.launches{job=job-0000" in snap
    assert "serve.latency_s{workload=" in snap
    METRICS.reset()


# -- the property, under hypothesis -------------------------------------


@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    jobs=st.integers(2, 5),
    pool=st.integers(2, 6),
    pipeline=st.booleans(),
    fault_every=st.sampled_from([0, 2]),
)
def test_property_concurrent_equals_serial(seed, jobs, pool, pipeline,
                                           fault_every):
    reqs = synth_requests(
        "FIR:1,KMeans:1", rate=2e6, jobs=jobs, nodes=2, seed=seed,
        faults=CRASH if fault_every else None, fault_every=fault_every,
    )
    serial = serve_serially(reqs, ServeConfig(nodes=pool))
    rep = serve_requests(reqs, ServeConfig(nodes=pool, pipeline=pipeline))
    assert verify_against_serial(rep, serial) == []
