"""Topology model, tuning cache, selector, autotuner, and their wiring
through the communicator, fault injector, runtime and CLI."""

import json

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    FatTreeTopology,
    FlatTopology,
    RingTopology,
    TorusTopology,
    collectives as coll,
    make_cluster,
    make_topology,
)
from repro.cluster.collectives import ALLGATHER_ALGOS, rank_groups
from repro.cluster.faults import (
    CorruptionFault,
    FaultInjector,
    FaultPlan,
    TransientFault,
)
from repro.errors import (
    ClusterError,
    CollectiveTimeout,
    DataCorruptionError,
    NodeFailure,
)
from repro.hw import INFINIBAND_100G, SIMD_FOCUSED_NODE
from repro.tuning import TuningCache, autotune, payload_bucket, select_algorithm

NET = INFINIBAND_100G


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------
def test_flat_topology_prices_every_pair_identically():
    topo = FlatTopology(4, network=NET)
    assert topo.link(0, 3) == topo.link(1, 2) == (NET.alpha_s,
                                                  NET.beta_bytes_per_s)
    assert topo.groups() == ((0, 1, 2, 3),)


def test_fat_tree_links_and_groups():
    topo = FatTreeTopology(num_nodes=6, nodes_per_switch=2,
                           intra_alpha_s=1e-6, intra_beta_GBs=12.0,
                           inter_alpha_s=3e-6, inter_beta_GBs=10.0)
    assert topo.switch_of(0) == topo.switch_of(1) == 0
    assert topo.switch_of(5) == 2
    assert topo.link(0, 1) == (1e-6, 12.0e9)   # same leaf switch
    assert topo.link(1, 2) == (3e-6, 10.0e9)   # across the spine
    assert topo.groups() == ((0, 1), (2, 3), (4, 5))


def test_fat_tree_uplink_contention_serializes_crossers():
    topo = FatTreeTopology(num_nodes=4, nodes_per_switch=2,
                           inter_alpha_s=1e-6, inter_beta_GBs=10.0,
                           uplinks=1)
    one = topo.round_cost([(0, 2, 1e6)])
    two = topo.round_cost([(0, 2, 1e6), (1, 3, 1e6)])  # same switch uplink
    assert two == pytest.approx(1e-6 + 1e6 / (10.0e9 / 2))
    assert two > one
    # with two uplinks the round is uncontended again
    wide = FatTreeTopology(num_nodes=4, nodes_per_switch=2,
                           inter_alpha_s=1e-6, inter_beta_GBs=10.0,
                           uplinks=2)
    assert wide.round_cost([(0, 2, 1e6), (1, 3, 1e6)]) == pytest.approx(one)


def test_ring_and_torus_hop_pricing():
    ring = RingTopology(6, alpha_s=1e-6, beta_GBs=10.0)
    assert ring.hops(0, 1) == 1 and ring.hops(0, 5) == 1  # wraparound
    assert ring.hops(0, 3) == 3
    a3, b3 = ring.link(0, 3)
    assert a3 == pytest.approx(3e-6) and b3 == pytest.approx(10.0e9 / 3)
    torus = TorusTopology(6, dims=(3, 2))
    assert torus.hops(0, 2) == 1  # x wraps: 0 -> 2 is one hop on a 3-ring
    assert torus.hops(0, 5) == 2  # (0,0) -> (2,1)
    assert torus.groups() == ((0, 1, 2), (3, 4, 5))


def test_topology_validation_errors():
    with pytest.raises(ClusterError):
        FlatTopology(0, network=NET)
    with pytest.raises(ClusterError):
        FlatTopology(2)  # no NetworkSpec
    with pytest.raises(ClusterError):
        FatTreeTopology(num_nodes=4, nodes_per_switch=0)
    with pytest.raises(ClusterError):
        FatTreeTopology(num_nodes=4, nodes_per_switch=2, uplinks=0)
    with pytest.raises(ClusterError):
        TorusTopology(6, dims=(2, 2))  # 4 != 6
    with pytest.raises(ClusterError, match="unknown topology"):
        make_topology("hypercube", 8)


def test_make_topology_kinds_and_signatures():
    sigs = set()
    for kind in ("flat", "fat-tree", "ring", "torus"):
        topo = make_topology(kind, 8, network=NET)
        assert topo.num_nodes == 8
        assert topo.signature not in sigs
        sigs.add(topo.signature)
    # NetworkSpec's fat-tree fields are honoured
    ft = make_topology("fat-tree", 32, network=NET)
    assert ft.nodes_per_switch == NET.switch_radix == 16
    assert ft.link(0, 1) == (NET.intra_alpha_s, NET.intra_beta_GBs * 1e9)


def test_rank_groups_follow_surviving_positions():
    topo = FatTreeTopology(num_nodes=4, nodes_per_switch=2)
    # ranks sit at born positions 0, 1, 3 (position 2 died)
    assert rank_groups(topo, (0, 1, 3)) == ((0, 1), (2,))


# ---------------------------------------------------------------------------
# tuning cache
# ---------------------------------------------------------------------------
def test_payload_bucket_edges():
    assert payload_bucket(0) == payload_bucket(1) == 0
    assert payload_bucket(2) == 1
    assert payload_bucket(1024) == 10
    assert payload_bucket(1025) == 11


def test_tuning_cache_roundtrip(tmp_path):
    topo = FlatTopology(4, network=NET)
    cache = TuningCache(path=tmp_path / "t.json")
    assert cache.lookup(topo, 4, 1000) is None
    cache.record(topo, 4, 1000, "bruck", {"ring": 2.0, "bruck": 1.0})
    path = cache.save()
    again = TuningCache.load(path)
    assert len(again) == 1
    assert again.lookup(topo, 4, 999) == "bruck"  # same 2**10 bucket
    assert again.lookup(topo, 4, 1025) is None    # next bucket
    assert again.lookup(topo, 8, 1000) is None    # different node count
    assert again.lookup(FatTreeTopology(4, nodes_per_switch=2), 4, 1000) is None


def test_tuning_cache_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ClusterError, match="not valid JSON"):
        TuningCache.load(p)
    p.write_text(json.dumps({"version": 99, "entries": {}}))
    with pytest.raises(ClusterError, match="unsupported version"):
        TuningCache.load(p)
    cache = TuningCache()
    with pytest.raises(ClusterError, match="unknown algorithm"):
        cache.record(FlatTopology(2, network=NET), 2, 8, "nope")
    # a cached name that is no longer a zoo member is ignored, not trusted
    cache.entries[TuningCache.key("flat(x)", 2, 8)] = {"algo": "gone"}
    assert TuningCache(cache.entries).lookup(FlatTopology(2, network=NET), 2, 8) is None


def test_tuning_cache_non_object_entry_is_a_miss(tmp_path):
    """A damaged file with a non-object entry loads, and the entry is a
    miss (it used to end in AttributeError on ``list.get``)."""
    topo = FlatTopology(2, network=NET)
    p = tmp_path / "damaged.json"
    p.write_text(json.dumps(
        {"version": 1, "entries": {TuningCache.key(topo.signature, 2, 8): []}}
    ))
    assert TuningCache.load(p).lookup(topo, 2, 8) is None


def test_missing_cache_file_loads_empty(tmp_path):
    cache = TuningCache.load(tmp_path / "absent.json")
    assert len(cache) == 0
    cache.record(FlatTopology(2, network=NET), 2, 64, "ring")
    assert cache.save().exists()


# ---------------------------------------------------------------------------
# selector + autotuner
# ---------------------------------------------------------------------------
def test_selector_prefers_cache_hit_over_model():
    topo = FlatTopology(4, network=NET)
    cache = TuningCache()
    cache.record(topo, 4, 4096, "hierarchical")  # not the model's choice
    assert select_algorithm(topo, 4096, cache=cache) == "hierarchical"
    assert select_algorithm(topo, 4096) != "hierarchical"


def test_selector_single_rank_short_circuits_to_ring():
    assert select_algorithm(FlatTopology(1, network=NET), 1e6) == "ring"


def test_autotune_records_winners_and_is_side_effect_free():
    cl = Cluster(SIMD_FOCUSED_NODE, 4)
    cl.nodes[0].alloc("keep", 16, np.float32)[:] = 7.0
    cl.nodes[2].clock.advance(1.25)
    cl.comm.comm_seconds = 0.5
    cl.comm.comm_bytes = 123
    cache = autotune(cl, payloads=(1 << 10, 1 << 14))
    assert len(cache) == 2
    for entry in cache.entries.values():
        assert entry["algo"] in ALLGATHER_ALGOS
        assert entry["algo"] == min(entry["costs"], key=entry["costs"].get)
        assert set(entry["costs"]) == set(ALLGATHER_ALGOS)
    # the sweep never perturbed the cluster
    assert cl.nodes[2].clock.now == 1.25
    assert cl.nodes[0].clock.now == 0.0
    assert cl.comm.comm_seconds == 0.5
    assert cl.comm.comm_bytes == 123
    assert np.all(cl.nodes[0].buffer("keep") == 7.0)
    assert not any(n.has_buffer("__tuning_scratch__") for n in cl.nodes)


def test_autotune_single_node_is_empty():
    assert len(autotune(Cluster(SIMD_FOCUSED_NODE, 1))) == 0


def test_auto_resolution_hot_loads_tuned_winner(tmp_path):
    """The acceptance flow: tune, persist, reload, and watch "auto"
    follow the cached winner instead of the cost model."""
    cl = Cluster(SIMD_FOCUSED_NODE, 4)
    path = tmp_path / "tuning.json"
    autotune(cl, payloads=(1 << 12,), cache=TuningCache(path=path)).save()
    # doctor the persisted winner to something the model would not pick,
    # proving the cache (not the model) decides
    doc = json.loads(path.read_text())
    for entry in doc["entries"].values():
        entry["algo"] = "hierarchical"
    path.write_text(json.dumps(doc))
    cl2 = Cluster(SIMD_FOCUSED_NODE, 4, tuning=TuningCache.load(path))
    for node in cl2.nodes:
        node.alloc("d", 4096, np.uint8)
    cl2.comm.allgather_in_place("d", 0, 1024, algo="auto")
    assert cl2.comm.last_algorithm == "hierarchical"
    # an explicit algorithm overrides the cache
    cl2.comm.allgather_in_place("d", 0, 1024, algo="bruck")
    assert cl2.comm.last_algorithm == "bruck"


# ---------------------------------------------------------------------------
# satellite bugfixes: argument validation + barrier accounting
# ---------------------------------------------------------------------------
def test_allgather_rejects_negative_and_overflowing_extents():
    cl = Cluster(SIMD_FOCUSED_NODE, 2)
    for node in cl.nodes:
        node.alloc("d", 8, np.int32)
    with pytest.raises(ClusterError, match="negative per-rank extent"):
        cl.comm.allgather_in_place("d", 0, -1)
    with pytest.raises(ClusterError, match="out of range"):
        cl.comm.allgather_in_place("d", 0, 5)  # 2 ranks x 5 > 8
    with pytest.raises(ClusterError, match="out of range"):
        cl.comm.allgather_in_place("d", -3, 2)  # negative base slice
    with pytest.raises(ClusterError, match="negative per-rank extent"):
        cl.comm.allgather_out_of_place("d", "d", -2, copy_GBs=10.0)
    with pytest.raises(ClusterError, match="negative contribution"):
        cl.comm.allgatherv_in_place("d", 0, [3, -1])
    with pytest.raises(ClusterError, match="out of range"):
        cl.comm.allgatherv_in_place("d", 0, [7, 3])
    # nothing above moved bytes or time
    assert cl.comm.comm_bytes == 0 and cl.comm.comm_seconds == 0.0


def test_allgatherv_zero_length_contribution_is_per_rank_noop():
    cl = Cluster(SIMD_FOCUSED_NODE, 3)
    for r, node in enumerate(cl.nodes):
        buf = node.alloc("d", 8, np.int32)
        buf[:] = -1
        if r == 0:
            buf[0:2] = [10, 11]
        elif r == 2:
            buf[2:5] = [30, 31, 32]
    cl.comm.allgatherv_in_place("d", 0, [2, 0, 3])
    for node in cl.nodes:
        assert list(node.buffer("d")[:5]) == [10, 11, 30, 31, 32]
        assert list(node.buffer("d")[5:]) == [-1, -1, -1]
    # an all-zero v-gather is a modeled no-op, like the balanced one
    before = cl.comm.comm_seconds
    assert cl.comm.allgatherv_in_place("d", 0, [0, 0, 0]) == 0.0
    assert cl.comm.comm_seconds == before


def test_barrier_charges_cost_and_synchronizes_clocks():
    """Pins the satellite contract: barrier charges barrier_cost, adds it
    to comm_seconds, and leaves every clock at the common finish time."""
    cl = Cluster(SIMD_FOCUSED_NODE, 4)
    cl.nodes[1].clock.advance(2.0)
    cl.nodes[3].clock.advance(3.5)
    cost = coll.barrier_cost(NET, 4)
    assert cost > 0.0
    cl.comm.barrier()
    assert cl.comm.comm_seconds == pytest.approx(cost)
    for n in cl.nodes:
        assert n.clock.now == pytest.approx(3.5 + cost)
    # repeat from the synchronized state: cost accrues again
    cl.comm.barrier()
    assert cl.comm.comm_seconds == pytest.approx(2 * cost)


# ---------------------------------------------------------------------------
# fault interplay: identical typed errors from every algorithm path
# ---------------------------------------------------------------------------
def _faulty_cluster(n, fault, topology=None):
    cl = Cluster(SIMD_FOCUSED_NODE, n, topology=topology)
    cl.comm.injector = FaultInjector(FaultPlan(faults=(fault,)))
    for r, node in enumerate(cl.nodes):
        node.alloc("d", 4 * n, np.int32)[r * 4:(r + 1) * 4] = r + 1
    return cl


@pytest.mark.parametrize("algo", ALLGATHER_ALGOS)
def test_transient_fault_times_out_every_algorithm(algo):
    cl = _faulty_cluster(4, TransientFault(op=1, timeout_s=1e-3))
    with pytest.raises(CollectiveTimeout):
        cl.comm.allgather_in_place("d", 0, 4, algo=algo)
    # every participant waited out the same timeout
    assert all(n.clock.now == pytest.approx(1e-3) for n in cl.nodes)


@pytest.mark.parametrize("algo", ALLGATHER_ALGOS)
def test_corruption_fault_detected_under_every_algorithm(algo):
    topo = FatTreeTopology(num_nodes=4, nodes_per_switch=2)
    cl = _faulty_cluster(4, CorruptionFault(op=1, rank=1), topology=topo)
    with pytest.raises(DataCorruptionError, match="rank 1"):
        cl.comm.allgather_in_place("d", 0, 4, algo=algo)
    # the source replica stays intact (a retry can repair the damage)
    assert list(cl.nodes[1].buffer("d")[4:8]) == [2, 2, 2, 2]


@pytest.mark.parametrize("algo", ALLGATHER_ALGOS)
def test_dead_participant_fails_every_algorithm(algo):
    cl = _faulty_cluster(4, TransientFault(op=99))
    cl.nodes[2].fail("test crash")
    with pytest.raises(NodeFailure, match="node 2 is down"):
        cl.comm.allgather_in_place("d", 0, 4, algo=algo)


# ---------------------------------------------------------------------------
# runtime + trace wiring
# ---------------------------------------------------------------------------
def _scaled_launch(nodes=4, **runtime_kwargs):
    from repro.frontend import parse_kernel
    from repro.runtime import CuCCRuntime

    rt = CuCCRuntime(Cluster(SIMD_FOCUSED_NODE, nodes), **runtime_kwargs)
    src = """
__global__ void scale(const float *x, float *y, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) y[id] = x[id] * 2.0f;
}
"""
    n = 1024
    rt.memory.alloc("x", n, np.float32)
    rt.memory.alloc("y", n, np.float32)
    rt.memory.memcpy_h2d("x", np.arange(n, dtype=np.float32))
    rec = rt.launch(rt.compile(parse_kernel(src)), 4, 256,
                    {"x": "x", "y": "y", "n": n})
    return rt, rec


def test_launch_records_chosen_algorithm_and_trace_reports_it():
    rt, rec = _scaled_launch()
    assert rec.allgather_algo in ALLGATHER_ALGOS
    assert rec.allgather_algo == rec.phases.allgather_algo
    assert rec.allgather_algo in rec.describe()
    report = rt.report()
    assert "algo" in report.splitlines()[0]
    assert rec.allgather_algo in report


def test_runtime_forced_algorithm_reaches_communicator():
    rt, rec = _scaled_launch(allgather_algo="bruck")
    assert rec.allgather_algo == "bruck"
    out = rt.memory.memcpy_d2h("y", check_consistency=True)
    assert np.array_equal(out, np.arange(1024, dtype=np.float32) * 2.0)


def test_forced_algorithms_all_produce_identical_launch_results():
    outs = []
    for algo in ALLGATHER_ALGOS:
        rt, rec = _scaled_launch(allgather_algo=algo)
        assert rec.allgather_algo == algo
        outs.append(rt.memory.memcpy_d2h("y", check_consistency=True))
    for out in outs[1:]:
        assert np.array_equal(out, outs[0])


def test_model_tracks_runtime_under_forced_algorithm():
    """model_cucc_time and the executing runtime agree phase-for-phase
    for every forced zoo algorithm, not just the auto default."""
    from repro.bench.harness import run_on_cucc
    from repro.bench.profile import model_cucc_time, profile_workload
    from repro.workloads import PERF_WORKLOADS

    prof = profile_workload(PERF_WORKLOADS["FIR"]("small"))
    for algo in ("ring", "bruck"):
        spec = PERF_WORKLOADS["FIR"]("small")
        cl = Cluster(SIMD_FOCUSED_NODE, 4)
        cl.comm  # default flat topology
        from repro.runtime import CuCCRuntime

        rt = CuCCRuntime(cl, allgather_algo=algo)
        for name, arr in spec.arrays.items():
            rt.memory.alloc(name, arr.size, arr.dtype)
            rt.memory.memcpy_h2d(name, arr)
        rec = rt.launch(rt.compile(spec.kernel), spec.grid, spec.block,
                        spec.args())
        model = model_cucc_time(prof, SIMD_FOCUSED_NODE, NET, 4,
                                allgather_algo=algo)
        assert model.allgather == pytest.approx(rec.phases.allgather, rel=0.02)
        assert model.allgather_algo == algo


def test_shrink_recovery_keeps_topology_and_tuning():
    cache = TuningCache()
    topo = FatTreeTopology(num_nodes=4, nodes_per_switch=2)
    cl = Cluster(SIMD_FOCUSED_NODE, 4, topology=topo, tuning=cache)
    for node in cl.nodes:
        node.alloc("d", 12, np.uint8)
    cl.nodes[2].fail("test")
    cl.remove_dead()
    assert cl.comm.topology is topo
    assert cl.comm.tuning is cache
    # positions follow born ranks: survivors 0,1,3 split as (0,1) + (3,)
    assert rank_groups(topo, tuple(n.born_rank for n in cl.nodes)) == (
        (0, 1), (2,),
    )
    cl.comm.allgather_in_place("d", 0, 4, algo="hierarchical")
    assert cl.comm.last_algorithm == "hierarchical"


def test_tuning_cache_save_survives_injected_partial_write(
    tmp_path, monkeypatch
):
    """Saves are atomic: a write that dies mid-flight leaves the previous
    cache intact and no torn temp file behind (the serving loop shares
    one on-disk cache across many jobs)."""
    import repro.ioutil as ioutil

    topo = FlatTopology(4, network=NET)
    cache = TuningCache(path=tmp_path / "t.json")
    cache.record(topo, 4, 1000, "bruck")
    cache.save()
    good = (tmp_path / "t.json").read_text()
    cache.record(topo, 4, 4096, "ring")

    # injection 1: the bytes land but the rename dies
    monkeypatch.setattr(
        ioutil.os, "replace",
        lambda *a: (_ for _ in ()).throw(OSError("disk full")),
    )
    with pytest.raises(OSError):
        cache.save()
    monkeypatch.undo()
    assert (tmp_path / "t.json").read_text() == good
    assert not (tmp_path / "t.json.tmp").exists()

    # injection 2: power loss halfway through writing the temp file
    real = ioutil.Path.write_text

    def torn(self, text, *a, **kw):
        real(self, text[: len(text) // 2])
        raise OSError("power loss mid-write")

    monkeypatch.setattr(ioutil.Path, "write_text", torn)
    with pytest.raises(OSError):
        cache.save()
    monkeypatch.undo()
    assert (tmp_path / "t.json").read_text() == good
    assert not (tmp_path / "t.json.tmp").exists()

    # the survivor still loads as the pre-crash cache
    assert len(TuningCache.load(tmp_path / "t.json")) == 1
