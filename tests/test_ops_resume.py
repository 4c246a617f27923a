"""The restart differential gate.

Interrupt a run at *every* checkpoint ordinal (the --halt-after drill),
resume from the file, and require results bit-identical to the
uninterrupted run: final buffers, op counters, PhaseTimes floats, fault
events — and the final checkpoints themselves must ``diff`` clean.
Fault-free and faulted (crash + transient) schedules are both gated.
"""

import numpy as np
import pytest

from repro.bench.harness import run_on_cucc
from repro.cluster import FaultPlan, make_cluster
from repro.errors import CheckpointError, CheckpointHalt
from repro.ops import (
    CheckpointPolicy,
    diff_checkpoints,
    latest_checkpoint,
    resume_on_cucc,
)
from repro.workloads import fir


def _policy(directory, halt_after=None):
    return CheckpointPolicy(directory=str(directory), halt_after=halt_after)


def _baseline(tmp_path, fault_plan=None):
    spec = fir.build("small")
    cluster = make_cluster("simd-focused", 4)
    res = run_on_cucc(
        spec,
        cluster,
        fault_plan=fault_plan,
        checkpoint=_policy(tmp_path / "base"),
        app_meta={"workload": spec.name, "size": "small"},
    )
    outs = {
        o: res.runtime.memory.memcpy_d2h(o, check_consistency=True)
        for o in spec.outputs
    }
    return spec, res, outs


def _assert_identical(spec, base_res, base_outs, res):
    assert res.time == base_res.time
    assert res.record.phases == base_res.record.phases
    assert res.record.retries == base_res.record.retries
    assert res.record.recoveries == base_res.record.recoveries
    assert len(res.record.fault_events) == len(base_res.record.fault_events)
    assert (
        res.record.callback_counters.as_dict()
        == base_res.record.callback_counters.as_dict()
    )
    assert [c.as_dict() for c in res.record.partial_counters] == [
        c.as_dict() for c in base_res.record.partial_counters
    ]
    for name, want in base_outs.items():
        got = res.runtime.memory.memcpy_d2h(name, check_consistency=True)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _interrupt_resume_gate(tmp_path, fault_plan_str=None):
    plan = (
        FaultPlan.parse(fault_plan_str, seed=7) if fault_plan_str else None
    )
    spec, base_res, base_outs = _baseline(tmp_path, fault_plan=plan)
    total = base_res.runtime.ops.written
    assert total >= 3  # allgather, callback, launch-end at minimum
    for k in range(1, total + 1):
        ckdir = tmp_path / f"halt{k}"
        plan_k = (
            FaultPlan.parse(fault_plan_str, seed=7)
            if fault_plan_str
            else None
        )
        with pytest.raises(CheckpointHalt) as ei:
            run_on_cucc(
                spec,
                make_cluster("simd-focused", 4),
                fault_plan=plan_k,
                checkpoint=_policy(ckdir, halt_after=k),
                app_meta={"workload": spec.name, "size": "small"},
            )
        assert str(ei.value.path).endswith(".rckp")
        res = resume_on_cucc(
            spec, latest_checkpoint(ckdir), checkpoint=_policy(ckdir)
        )
        _assert_identical(spec, base_res, base_outs, res)
        assert diff_checkpoints(
            latest_checkpoint(tmp_path / "base"), latest_checkpoint(ckdir)
        ) == []


def test_interrupt_resume_fault_free(tmp_path):
    _interrupt_resume_gate(tmp_path)


def test_interrupt_resume_faulted(tmp_path):
    _interrupt_resume_gate(
        tmp_path, "crash:rank=1,phase=allgather;transient:op=2"
    )


def test_interrupt_resume_callback_crash(tmp_path):
    # past the Allgather nothing is discarded, so the resumed run (whose
    # partial/Allgather times come from the file) books the same recovery
    _interrupt_resume_gate(tmp_path, "crash:rank=1,phase=callback")


#: the on-disk state; a checkpoint written by an older commit resumes
#: only as long as these key sets (and .rckp version) stay put
RUNTIME_KEYS = {
    "params", "recovery", "simd_enabled", "bounds_check",
    "faithful_replication", "sanitize", "allgather_algo", "drift",
    "backend",
}
PENDING_KEYS = {
    "stage", "kernel", "grid", "block", "overhead", "partial_time",
    "partial_counters", "allgather_time", "allgather_algos", "retries",
    "recoveries", "recovery_time", "events_start", "ckpt",
}
PENDING_CKPT_KEYS = {"label", "sim_time", "buffers"}


@pytest.mark.parametrize("faults", [None, "crash:rank=1,phase=allgather"])
def test_pending_dict_key_set_is_pinned(tmp_path, faults):
    from repro.ops.checkpoint import read_checkpoint

    spec = fir.build("small")
    stages = set()
    for k in (1, 2, 3):
        ckdir = tmp_path / f"halt{k}"
        with pytest.raises(CheckpointHalt):
            run_on_cucc(
                spec,
                make_cluster("simd-focused", 4),
                fault_plan=FaultPlan.parse(faults, seed=7) if faults else None,
                checkpoint=_policy(ckdir, halt_after=k),
            )
        meta = read_checkpoint(latest_checkpoint(ckdir))[0]
        assert set(meta["runtime"]) == RUNTIME_KEYS
        pending = meta["pending"]
        if pending is None:
            continue  # a launch-end checkpoint
        stages.add(pending["stage"])
        assert set(pending) == PENDING_KEYS
        if faults:
            assert set(pending["ckpt"]) == PENDING_CKPT_KEYS
        else:
            assert pending["ckpt"] is None  # no injector, no snapshot
    assert stages == {"allgather", "callback"}


def test_checkpointing_is_sim_invisible(tmp_path):
    """Armed-but-not-halting checkpoints charge zero simulated time."""
    spec = fir.build("small")
    bare = run_on_cucc(spec, make_cluster("simd-focused", 4))
    armed = run_on_cucc(
        spec,
        make_cluster("simd-focused", 4),
        checkpoint=_policy(tmp_path),
    )
    assert armed.time == bare.time
    assert armed.record.phases == bare.record.phases
    assert armed.runtime.ops.written >= 3


def test_resume_refuses_wrong_workload(tmp_path):
    spec, _, _ = _baseline(tmp_path)
    from repro.workloads import nbody

    other = nbody.build("small")
    with pytest.raises(CheckpointError, match="workload"):
        resume_on_cucc(other, latest_checkpoint(tmp_path / "base"))


def test_resume_refuses_mismatched_launch(tmp_path):
    """Same workload name, different geometry -> resume mismatch."""
    spec = fir.build("small")
    ckdir = tmp_path / "ck"
    with pytest.raises(CheckpointHalt):
        run_on_cucc(
            spec,
            make_cluster("simd-focused", 4),
            checkpoint=_policy(ckdir, halt_after=1),
            app_meta={"workload": spec.name, "size": "small"},
        )
    bigger = fir.build("paper")
    with pytest.raises(CheckpointError, match="resume mismatch"):
        resume_on_cucc(bigger, latest_checkpoint(ckdir))


def test_resume_keeps_checkpoint_numbering(tmp_path):
    """Re-armed checkpointing continues the ordinal sequence."""
    spec = fir.build("small")
    ckdir = tmp_path / "ck"
    with pytest.raises(CheckpointHalt):
        run_on_cucc(
            spec,
            make_cluster("simd-focused", 4),
            checkpoint=_policy(ckdir, halt_after=2),
            app_meta={"workload": spec.name, "size": "small"},
        )
    before = {p.name for p in ckdir.glob("ckpt-*.rckp")}
    res = resume_on_cucc(
        spec, latest_checkpoint(ckdir), checkpoint=_policy(ckdir)
    )
    after = {p.name for p in ckdir.glob("ckpt-*.rckp")}
    assert before < after
    assert res.runtime.ops.written >= 1


# -- backend continuity across restart (serving satellite) ---------------


def _jit_checkpoint(tmp_path, **run_kwargs):
    spec = fir.build("small")
    ckdir = tmp_path / "jit-ck"
    with pytest.raises(CheckpointHalt):
        run_on_cucc(
            spec,
            make_cluster("simd-focused", 4),
            checkpoint=_policy(ckdir, halt_after=1),
            app_meta={"workload": spec.name, "size": "small"},
            backend="jit",
            **run_kwargs,
        )
    return spec, ckdir


def test_jit_run_resumes_on_jit(tmp_path):
    """The checkpoint records its backend; resume honors it by default."""
    spec, ckdir = _jit_checkpoint(tmp_path)
    base = run_on_cucc(spec, make_cluster("simd-focused", 4), backend="jit")
    res = resume_on_cucc(spec, latest_checkpoint(ckdir))
    assert res.runtime.backend == "jit"
    assert res.time == base.time
    assert res.record.phases == base.record.phases


def test_resume_backend_explicit_override(tmp_path):
    """An explicit backend beats the record — and cannot change results
    (the differential gate makes the backends bit-identical)."""
    spec, ckdir = _jit_checkpoint(tmp_path)
    base = run_on_cucc(spec, make_cluster("simd-focused", 4))
    res = resume_on_cucc(spec, latest_checkpoint(ckdir), backend="interp")
    assert res.runtime.backend == "interp"
    assert res.time == base.time
    assert res.record.phases == base.record.phases


def test_resume_pre_backend_checkpoint_falls_back_to_auto(
    tmp_path, monkeypatch
):
    """Checkpoints written before the backend was recorded resume on
    auto (the old behaviour) instead of crashing on the missing key."""
    import repro.ops.resume as resume_mod

    spec, ckdir = _jit_checkpoint(tmp_path)
    real = resume_mod.read_checkpoint

    def stripped(path):
        meta, data = real(path)
        meta["runtime"].pop("backend", None)
        return meta, data

    monkeypatch.setattr(resume_mod, "read_checkpoint", stripped)
    res = resume_on_cucc(spec, latest_checkpoint(ckdir))
    assert res.runtime.backend == "auto"


def test_resume_threads_jit_cache(tmp_path):
    """A compile cache handed to resume seeds the resumed runtime."""
    from repro.interp.jit import CompileCache
    from repro.interp.jit.executor import clear_memo

    spec, ckdir = _jit_checkpoint(tmp_path)
    cache = CompileCache()
    clear_memo()  # force the resumed compile to go through the cache
    res = resume_on_cucc(spec, latest_checkpoint(ckdir), jit_cache=cache)
    assert res.runtime.backend == "jit"
    assert len(cache) > 0  # the resumed compile populated it
