"""Grow recovery: rejoining nodes, workload rebalance, scheduler level.

After a crash shrinks the cluster, replacement nodes must be able to
rejoin: :func:`repro.ops.grow_cluster` restores the freed born
positions, replicates device state onto them (charging the broadcast to
the simulated clocks), and the next launch plans over the restored
width.  :func:`repro.ops.rebalance_workload` re-grids the workload onto
that width, idempotently.  At the batch-scheduler level,
``return_node`` / ``simulate_partition(return_times=...)`` model the
same recovery for requeued Slurm jobs.
"""

import numpy as np
import pytest

from repro.bench.harness import run_on_cucc
from repro.cluster import FaultPlan, make_cluster
from repro.ops import freed_positions, grow_cluster, rebalance_workload
from repro.slurm import Job, simulate_partition
from repro.transform.regrid import GID_PARAM, regrid_workload
from repro.workloads import fir


def _shrunk_runtime():
    spec = fir.build("small")
    res = run_on_cucc(
        spec,
        make_cluster("simd-focused", 4),
        fault_plan=FaultPlan.parse("crash:rank=1,phase=allgather", seed=3),
    )
    rt = res.runtime
    assert rt.cluster.num_nodes == 3
    return spec, res, rt


def test_grow_restores_freed_positions():
    spec, res, rt = _shrunk_runtime()
    assert freed_positions(rt.cluster) == (1,)
    before = max(n.clock.now for n in rt.cluster.nodes)
    old_comm = rt.cluster.comm
    grown = grow_cluster(rt)
    # the rebuilt communicator carries what shrink recovery carries
    assert rt.cluster.comm is not old_comm
    assert all(
        getattr(rt.cluster.comm, a) is getattr(old_comm, a)
        for a in ("injector", "topology", "tuning", "tracer", "metrics",
                  "netflow", "comm_seconds", "comm_bytes")
    )
    assert [n.born_rank for n in grown] == [1]
    assert [n.rank for n in rt.cluster.nodes] == [0, 1, 2, 3]
    assert freed_positions(rt.cluster) == ()
    # re-replication is charged to every simulated clock
    after = max(n.clock.now for n in rt.cluster.nodes)
    assert after > before
    # the rejoined replica is byte-identical to the survivors
    states = {(n, b): a for n, b, a in rt.memory.export_rank_states()}
    ref_born = rt.cluster.nodes[0].born_rank
    for name in ("coeff", "input", "output"):
        assert np.array_equal(states[(name, 1)], states[(name, ref_born)])


def test_grow_then_launch_uses_restored_width():
    spec, res, rt = _shrunk_runtime()
    grow_cluster(rt)
    compiled = rt.compile(spec.kernel)
    rec = rt.launch(compiled, spec.grid, spec.block, spec.args())
    assert rec.plan.num_nodes == 4
    assert len(rec.partial_counters) == 4
    out = rt.memory.memcpy_d2h("output", check_consistency=True)
    assert out.shape[0] == spec.arrays["output"].size


def test_grow_rejects_taken_position():
    from repro.errors import ClusterError

    _, _, rt = _shrunk_runtime()
    with pytest.raises(ClusterError, match="occupied position"):
        grow_cluster(rt, born_ranks=[0])


def test_rebalance_workload_regrids_to_width():
    spec, _, rt = _shrunk_runtime()
    re3 = rebalance_workload(spec, rt.cluster)
    assert re3 is not None and GID_PARAM in re3.scalars
    grow_cluster(rt)
    re4 = rebalance_workload(re3, rt.cluster)
    # idempotent: kernel untouched, only geometry recomputed
    assert re4.kernel is re3.kernel
    assert re4.scalars[GID_PARAM] == re3.scalars[GID_PARAM]
    assert re4.grid * re4.block >= re3.scalars[GID_PARAM]


def test_regrid_workload_idempotent_direct():
    spec = fir.build("small")
    r1 = regrid_workload(spec, 96)
    r2 = regrid_workload(r1, 96)
    assert (r2.grid, r2.block) == (r1.grid, r1.block)
    assert r2.kernel is r1.kernel


# -- scheduler-level grow recovery ------------------------------------------


def test_job_born_nodes_defaults():
    j = Job(submit_time=0.0, job_id=1, nodes=3, runtime_s=10.0,
            partition="p")
    assert j.born_nodes == 3


def test_return_node_reclaims_for_requeued_job():
    from repro.slurm.scheduler import PartitionScheduler

    sched = PartitionScheduler("p", 3)
    job = Job(submit_time=0.0, job_id=1, nodes=3, runtime_s=50.0,
              partition="p")
    sched.queue.append(job)
    sched.schedule(0.0)
    assert sched.fail_node(10.0) is job
    assert job.nodes == 2 and job.born_nodes == 3
    assert sched.return_node(20.0) is job
    assert job.nodes == 3
    # at born width already: the node joins the free pool
    assert sched.return_node(25.0) is None
    assert sched.num_nodes == 4


def test_simulate_partition_return_times_restore_width():
    # jobA short; jobB has the latest end so both failures kill it,
    # shrinking it to 1 node and leaving it queued.  Two returns grow
    # it back to its born width and let it start.
    def trace():
        return [
            Job(submit_time=0.0, job_id=0, nodes=1, runtime_s=50.0,
                partition="p"),
            Job(submit_time=0.0, job_id=1, nodes=2, runtime_s=200.0,
                partition="p"),
        ]

    done = simulate_partition(
        "p", 3, trace(), failure_times=[10.0, 11.0],
        return_times=[30.0, 40.0]
    )
    jb = next(j for j in done if j.job_id == 1)
    assert jb.requeues == 2
    assert jb.nodes == jb.born_nodes == 2
    assert jb.start_time == 40.0
    # without returns the same trace leaves the job shrunk and waiting
    done = simulate_partition("p", 3, trace(), failure_times=[10.0, 11.0])
    jb = next(j for j in done if j.job_id == 1)
    assert jb.nodes == 1 and jb.start_time == 50.0


def test_simulate_partition_returns_join_free_pool():
    """With no shrunk job waiting, a returned node adds plain capacity:
    a queued job starts at the return instead of the next completion."""
    jobs = [
        Job(submit_time=0.0, job_id=0, nodes=2, runtime_s=100.0,
            partition="p"),
        Job(submit_time=1.0, job_id=1, nodes=1, runtime_s=10.0,
            partition="p"),
    ]
    done = simulate_partition("p", 2, jobs, return_times=[5.0])
    j1 = next(j for j in done if j.job_id == 1)
    assert j1.start_time == 5.0 and j1.requeues == 0
