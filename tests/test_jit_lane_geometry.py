"""Lane geometry in the JIT (DESIGN.md §13): adversarial kernels.

The closure knows that ``blockIdx`` is constant across a block and
``threadIdx.x`` repeats across blocks, and spends it: block-uniform and
tiled loads, deferred indices, lazy arm masks, sparse divergent loops,
dropped where-merges.  Each is a licence behind a run-time proof; every
kernel here attacks one way a licence could be wrongly granted.  Both
backends must agree on the buffers, every ``OpCounters`` field and the
exact ``InterpError`` text; *which* strategy was compiled is read off
``JITProgram.features``, never off the generated source.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_jit_index_facts import _SPANS, _run, _xy, agree

import repro.interp.jit.compiler as compiler
import repro.interp.machine as machine
from repro.frontend.parser import parse_kernel
from repro.interp import LaunchConfig, OpCounters, run_grid
from repro.interp.jit import (
    CompileCache,
    clear_memo,
    generate_source,
    get_program,
)
from repro.interp.jit.plan import FEATURES, SPARSE_OCCUPANCY
from repro.ir.expr import SRegKind
from repro.workloads import PERF_WORKLOADS


def features(kernel) -> dict:
    return generate_source(kernel).features


# ---------------------------------------------------------------------------
# tiled and block-uniform loads
# ---------------------------------------------------------------------------

# MatMul's inner product: a[row*kk + i] is block-uniform, b[i*n + col] tiled
_DOT_SRC = """
__global__ void dot(const float* a, const float* b, float* y, int kk, int n) {
    int row = blockIdx.x;
    int col = threadIdx.x;
    float acc = 0.0f;
    for (int i = 0; i < kk; i++) {
        %(pre)s
        acc += a[%(a)s] * b[%(b)s];
        %(post)s
    }
    y[blockIdx.x * blockDim.x * blockDim.y + threadIdx.y * blockDim.x
      + threadIdx.x] = acc;
}"""


def _dot(a="row * kk + i", b="i * n + col", pre="", post=""):
    return parse_kernel(_DOT_SRC % {"a": a, "b": b, "pre": pre, "post": post})


def _dot_arrays(grid, tpb, kk, n, slack=0):
    rng = np.random.default_rng(grid * 7 + tpb)
    return {
        "a": rng.standard_normal(grid * kk + slack).astype(np.float32),
        "b": rng.standard_normal(kk * n + slack).astype(np.float32),
        "y": np.zeros(grid * tpb, np.float32),
    }


@pytest.mark.parametrize("span", _SPANS)
def test_uniform_and_tiled_loads(span):
    k = _dot()
    f = features(k)
    assert f["repeat"] == 1 and f["tile"] == 1
    err, out = agree(k, 6, 16, _dot_arrays(6, 16, 5, 16), {"kk": 5, "n": 16},
                      span=span)
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("span", _SPANS)
def test_scattered_callback_phase_block_ids(span):
    """A rank's callback blocks are neither consecutive nor ordered:
    ``row`` is still constant across each block, ``col`` still tiles."""
    err, out = agree(_dot(), 8, 16, _dot_arrays(8, 16, 4, 16),
                      {"kk": 4, "n": 16}, span=span, block_ids=[6, 1, 2, 5])
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("span", _SPANS)
def test_two_d_block_period_is_ntid_x_not_tpb(span):
    """In an 8x4 block ``threadIdx.x`` repeats every 8 lanes, four times
    per block: one period of ``b`` is 8 cells, not 32."""
    k = _dot()
    err, out = agree(k, 5, (8, 4), _dot_arrays(5, 32, 3, 8),
                      {"kk": 3, "n": 8}, span=span)
    assert err is None and np.any(out["y"])
    # every y row of a block repeats the same 8 dot products
    y = out["y"].reshape(5, 4, 8)
    assert (y == y[:, :1]).all()


@pytest.mark.parametrize("span", _SPANS)
def test_special_registers_as_bases(span):
    """No variable in between: both facts hold by construction."""
    k = _dot(a="blockIdx.x * kk + i", b="i * n + threadIdx.x")
    f = features(k)
    assert f["repeat"] == 1 and f["tile"] == 1
    err, out = agree(k, 4, (4, 2), _dot_arrays(4, 8, 3, 4),
                      {"kk": 3, "n": 4}, span=span)
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("span", _SPANS)
def test_tiled_index_wraps_int32_but_is_exact(span):
    k = _dot(b="col + 2147483647 - 2147483647 + i")
    assert features(k)["tile"] == 1
    err, out = agree(k, 3, 16, _dot_arrays(3, 16, 4, 16, slack=8),
                      {"kk": 4, "n": 16}, span=span)
    assert err is None and np.any(out["y"])


def test_tiled_index_exact_value_leaves_int32():
    """``col + i`` modulo 2**32, but the exact interval is far outside
    the buffer: the proof fails and the lane-vector ladder runs."""
    k = _dot(b="col + 2147483647 + 2147483647 + 2 + i")
    err, out = agree(k, 2, 16, _dot_arrays(2, 16, 3, 16, slack=8),
                      {"kk": 3, "n": 16})
    assert err is None and np.any(out["y"])


def test_uniform_index_scale_beyond_int64():
    """``row * kk * kk * kk`` with ``row`` == 0 on every lane: the exact
    index is ``i``, the int32 ring agrees, but the scale as a Python int
    does not fit the compact int64 arithmetic — the guard keeps the
    lane-vector form."""
    k = parse_kernel("""
__global__ void big(const float* a, float* y, int kk) {
    int row = blockIdx.x;
    float acc = 0.0f;
    for (int i = 0; i < 2; i++) { acc += a[row * kk * kk * kk + i]; }
    y[threadIdx.x] = acc;
}""")
    assert features(k)["repeat"] == 1
    arrays = {"a": np.arange(1, 5, dtype=np.float32), "y": np.zeros(8, np.float32)}
    err, out = agree(k, 1, 8, arrays, {"kk": 2**31 - 1})
    assert err is None and np.any(out["y"])


_TAIL_SRC = """
__global__ void tail(const float* x, float* y, int reps, int lim) {
    int t = threadIdx.x;
    if (t >= lim) return;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) { acc += x[t + r]; }
    y[blockIdx.x * blockDim.x + t] = acc;
}"""


@pytest.mark.parametrize("span", _SPANS)
def test_tile_partially_out_of_bounds_on_inactive_lanes(span):
    """Lanes past ``lim`` would read past the end of ``x``: the bounds
    proof fails for the tile, the active-lane proof holds."""
    k = parse_kernel(_TAIL_SRC)
    assert features(k)["tile"] == 1
    err, out = agree(k, 4, 16, _xy(10 + 4, 64), {"reps": 5, "lim": 10},
                      span=span)
    assert err is None and np.any(out["y"])


def test_tile_out_of_bounds_on_an_active_lane_same_error():
    err, _ = agree(parse_kernel(_TAIL_SRC), 2, 16, _xy(12, 32),
                    {"reps": 5, "lim": 10})
    assert "out-of-bounds load of 'x' at index 12" in err
    assert "threadIdx.x 9" in err


def test_base_reassigned_inside_the_loop_kills_the_fact():
    k = _dot(post="row = row + 1;")
    f = features(k)
    assert f["repeat"] == 0 and f["tile"] == 1
    err, out = agree(k, 4, 8, _dot_arrays(4, 8, 3, 8, slack=3 * 3),
                      {"kk": 3, "n": 8})
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("span", _SPANS)
def test_hinted_variable_not_uniform_at_run_time(span):
    """One lane per block bumps ``row`` under a mask: the hint still
    says block-uniform, the preheader flag says no, the gather runs."""
    k = parse_kernel("""
__global__ void k(const float* a, float* y, int kk) {
    int row = blockIdx.x;
    int col = threadIdx.x;
    if (col == 3) { row = row + 1; }
    if (col > 5) { col = col + 2; }
    float acc = 0.0f;
    for (int i = 0; i < kk; i++) { acc += a[row * kk + i] + a[col + i]; }
    y[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}""")
    f = features(k)
    assert f["repeat"] == 1 and f["tile"] == 1
    arrays = {"a": np.arange(6 * 4 + 10, dtype=np.float32),
              "y": np.zeros(40, np.float32)}
    err, out = agree(k, 5, 8, arrays, {"kk": 4}, span=span)
    assert err is None
    y = out["y"].reshape(5, 8)
    assert not (y[:, 3] == y[:, 2]).all()


@pytest.mark.parametrize("span", _SPANS)
def test_arm_masks_are_bound_only_for_a_load_in_the_arm(span):
    """``c ? x[..] : 0`` reads through the arm's mask (inactive lanes
    index out of bounds); ``c ? a : b`` never needs one."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) {
        acc += (gid + r < n) ? x[gid + r] : ((gid > 3 && r > 0) ? 1.0f : 2.0f);
    }
    y[gid] = acc;
}""")
    err, out = agree(k, 3, 16, _xy(40, 48), {"reps": 4, "n": 40}, span=span)
    assert err is None and np.any(out["y"])


@settings(max_examples=40, deadline=None)
@given(
    grid=st.integers(min_value=1, max_value=6),
    bx=st.sampled_from([1, 4, 8]),
    by=st.sampled_from([1, 2, 3]),
    kk=st.integers(min_value=0, max_value=4),
    span=st.sampled_from([None, 1, 2]),
    pick=st.integers(min_value=0, max_value=2**31 - 1),
    bounds_check=st.booleans(),
)
def test_dot_identical_over_launch_shapes(
    grid, bx, by, kk, span, pick, bounds_check
):
    """Any subset of the blocks, in any order, 1-D or 2-D: whatever
    geometry a span really has is what the flags see."""
    rng = np.random.default_rng(pick)
    ids = rng.permutation(grid)[: rng.integers(1, grid + 1)]
    agree(_dot(), grid, (bx, by), _dot_arrays(grid, bx * by, kk, bx),
          {"kk": kk, "n": bx}, span=span, block_ids=ids.tolist(),
          bounds_check=bounds_check)


def _matmul_call_counts(k: int) -> dict:
    """C-calls in one JIT ``run_grid`` of MatMul with inner dimension
    ``k`` (the idiom of ``test_fir_reductions_do_not_scale...``)."""
    kernel = PERF_WORKLOADS["MatMul"]("small", seed=0).kernel
    n, block = 64, 64
    rng = np.random.default_rng(0)
    args = lambda: {
        "A": rng.standard_normal(n * k).astype(np.float32),
        "B": rng.standard_normal(k * n).astype(np.float32),
        "C": np.zeros(n * n, np.float32), "n": n, "k": k, "chunks": 1,
    }
    launch = lambda: run_grid(
        kernel, LaunchConfig.make(n, block), args(), counters=OpCounters(),
        backend="jit",
    )
    launch()  # compile outside the count
    counts = {"ufunc.reduce": 0, "ndarray.astype": 0}

    def prof(frame, event, arg):
        if event == "c_call":
            name = getattr(arg, "__qualname__", None)
            if name in counts:
                counts[name] += 1

    sys.setprofile(prof)
    try:
        launch()
    finally:
        sys.setprofile(None)
    return counts


def test_matmul_index_work_does_not_scale_with_k():
    """Neither load builds a lane-wide int64 index (an ``astype`` each,
    per iteration, before) nor reduces anything per access: 8 and 32
    inner iterations widen and reduce equally often."""
    few, many = _matmul_call_counts(8), _matmul_call_counts(32)
    assert few == many and few["ndarray.astype"] > 0


# ---------------------------------------------------------------------------
# sparse divergent loops
# ---------------------------------------------------------------------------

# a countdown per lane: x[gid] iterations, register-only body
_COUNTDOWN_SRC = """
__global__ void countdown(const int* x, int* y) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int v = x[gid];
    int w = v;
    int acc = 0;
    while (v > 0) {
        %(body)s
    }
    y[gid] = acc * 1000 + v + w * 7;
}"""


def _countdown(body="v = v - 1; acc = acc + v;"):
    return parse_kernel(_COUNTDOWN_SRC % {"body": body})


def _lanes(nl, active, seed=0):
    """``active`` lanes with 1..6 iterations to run, the rest none."""
    rng = np.random.default_rng(seed)
    x = np.zeros(nl, np.int32)
    x[rng.choice(nl, active, replace=False)] = rng.integers(1, 7, active)
    return {"x": x, "y": np.zeros(nl, np.int32)}


@pytest.mark.parametrize("span", _SPANS)
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_sparse_loop_around_the_occupancy_threshold(delta, span):
    k = _countdown()
    assert features(k)["sparse_loop"] == 1
    nl = 64 if span is None else 16 * span
    active = int(nl * SPARSE_OCCUPANCY) + delta
    err, out = agree(k, 4, 16, _lanes(64, active, seed=delta + 1), span=span)
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("active", [1, 3, 40, 64])
def test_sparse_loop_entered_late_or_never(active):
    """Dense at entry, sparse once enough lanes have retired — or every
    lane at once (no lane ever gathered)."""
    err, out = agree(_countdown(), 4, 16, _lanes(64, active, seed=active))
    assert err is None and np.any(out["y"])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    density=st.sampled_from([0.0, 0.02, 0.1, 0.2, 0.9]),
    span=st.sampled_from([None, 1, 3]),
)
def test_countdown_identical_at_any_occupancy(seed, density, span):
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(96) < density, rng.integers(1, 9, 96), 0)
    agree(_countdown(), 6, 16,
          {"x": x.astype(np.int32), "y": np.zeros(96, np.int32)}, span=span)


def test_sparse_write_does_not_reach_an_aliased_register():
    """``w = v`` shares ``v``'s array; the loop then writes ``v`` on a
    few lanes.  The scatter goes to a copy: ``w`` keeps the old values."""
    arrays = _lanes(64, 3, seed=5)
    err, out = agree(_countdown(), 4, 16, arrays)
    assert err is None
    x, y = arrays["x"], out["y"]
    live = x > 0
    assert ((y[live] - x[live] * 7) % 1000 == 0).all()


@pytest.mark.parametrize("body, why", [
    ("v = v - 1; acc = acc + x[gid];", "a load"),
    ("v = v - 1; if (v == 2) break; acc = acc + v;", "a break"),
    ("v = v - 1; if (v > 1) { acc = acc + v; }", "a nested if"),
    ("v = v - 1; y[gid] = v;", "a store"),
    ("v = v - 1; acc = acc + (int)sqrtf((float)v);", "an inexact call"),
])
def test_loop_that_must_stay_dense(body, why):
    k = _countdown(body)
    assert features(k)["sparse_loop"] == 0, why
    err, out = agree(k, 4, 16, _lanes(64, 3, seed=2))
    assert err is None and np.any(out["y"])


def test_sparse_loop_with_selects_scalars_and_special_registers():
    k = _countdown(
        "v = v - ((threadIdx.x > 5 && v > 2) ? 2 : 1);"
        " acc = max(acc, v) + blockIdx.x;"
    )
    assert features(k)["sparse_loop"] == 1
    err, out = agree(k, 4, 16, _lanes(64, 5, seed=3))
    assert err is None and np.any(out["y"])


def test_sparse_loop_inside_an_outer_loop_reenters_dense():
    """EP's shape: every round starts dense at full width again."""
    k = parse_kernel("""
__global__ void rounds(const int* x, int* y, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int acc = 0;
    for (int r = 0; r < reps; r++) {
        int v = x[gid] - r;
        while (v > 0) { v = v - 2; acc = acc + 1; }
    }
    y[gid] = acc;
}""")
    assert features(k)["sparse_loop"] == 1
    err, out = agree(k, 4, 16, _lanes(64, 6, seed=4), {"reps": 3})
    assert err is None and np.any(out["y"])


def test_sparse_loop_hits_the_iteration_limit_with_the_same_message(
    monkeypatch,
):
    """The limit counts dense and sparse iterations together."""
    monkeypatch.setattr(machine, "MAX_LOOP_ITERS", 9)
    monkeypatch.setattr(compiler, "MAX_LOOP_ITERS", 9)
    clear_memo()
    try:
        k = _countdown("v = v + 1; acc = acc + 1;")
        assert features(k)["sparse_loop"] == 1
        err, _ = agree(k, 4, 16, _lanes(64, 2))
        assert err == "while loop exceeded 9 iterations"
        # dense for four iterations (40 lanes), then sparse (2 lanes)
        x = np.zeros(64, np.int32)
        x[:40], x[7], x[50] = -4, 1, 1
        err, _ = agree(k, 4, 16, {"x": x, "y": np.zeros(64, np.int32)})
        assert err == "while loop exceeded 9 iterations"
    finally:
        clear_memo()


# ---------------------------------------------------------------------------
# where-merge elimination
# ---------------------------------------------------------------------------

_GUARDED_SUM = """
__global__ void k(const float* x, float* y, int reps, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 1.0f;
    if (gid < n) {
        for (int r = 0; r < reps; r++) { acc = acc + x[gid + r]; }
        %(inside)s
    }
    %(after)s
}"""


@pytest.mark.parametrize("span", _SPANS)
def test_target_dead_outside_the_guard_drops_its_merge(span):
    k = parse_kernel(_GUARDED_SUM % {"inside": "y[gid] = acc;", "after": ""})
    # the unmasked ``acc = 1.0f`` is the only read-free write outside
    assert features(k)["direct_merge"] == 1
    err, out = agree(k, 3, 16, _xy(40 + 4, 48), {"reps": 4, "n": 40},
                      span=span)
    assert err is None and np.any(out["y"]) and not np.any(out["y"][40:])


@pytest.mark.parametrize("span", _SPANS)
def test_target_read_under_a_wider_mask_keeps_its_merge(span):
    """``y[gid] = acc`` after the guard reads the lanes the guard
    excluded: they must still hold 1.0."""
    k = parse_kernel(_GUARDED_SUM % {"inside": "", "after": "y[gid] = acc;"})
    assert features(k)["direct_merge"] == 0
    err, out = agree(k, 3, 16, _xy(40 + 4, 48), {"reps": 4, "n": 40},
                      span=span)
    assert err is None and (out["y"][40:] == 1.0).all()


def test_mask_bound_inside_a_loop_keeps_its_merge():
    """Every read of ``acc`` is under the arm's mask — but that mask is
    a different set of lanes each iteration: a lane that sits one out
    must find its old value when it comes back."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) {
        if ((threadIdx.x + r) % 2 == 0) {
            acc = acc + x[gid + r];
            y[gid] = acc;
        }
    }
}""")
    assert features(k)["direct_merge"] == 0
    err, out = agree(k, 2, 16, _xy(32 + 6, 32), {"reps": 6})
    assert err is None and np.any(out["y"])


def test_scalar_valued_assignment_keeps_its_merge():
    """``idx = 3`` under a guard stores a lane vector (merged) where a
    direct store would leave a 0-d scalar, and shape is observable: a
    scattered store through a lane-shaped index lets the last lane win,
    one through a 0-d index the first.  Only a provably lane-shaped
    value may skip its merge (KMeans' ``dist = 0.0f`` keeps it; its
    ``diff`` and ``dist +=`` drop theirs)."""
    k = parse_kernel("""
__global__ void k(int* y, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int idx = gid;
    if (gid < n) {
        idx = 3;
        y[idx] = gid;
    }
}""")
    assert features(k)["direct_merge"] == 0
    err, out = agree(k, 2, 16, {"y": np.zeros(32, np.int32)}, {"n": 20})
    assert err is None and out["y"][3] == 19
    spec = PERF_WORKLOADS["KMeans"]("small", seed=0)
    assert features(spec.kernel)["direct_merge"] == 2


# ---------------------------------------------------------------------------
# what was compiled is on the program, and in the cache
# ---------------------------------------------------------------------------


def test_paper_kernels_record_their_strategies():
    want = {
        "MatMul": {"tile": 1, "repeat": 1},
        "NBody": {"direct_merge": 9},
        "KMeans": {"slice": 1, "direct_merge": 2},
        "BinomialOption": {"hoisted_index": 2, "direct_merge": 1},
        "EP": {"sparse_loop": 1},
        "Transpose": {},
    }
    for name, used in want.items():
        f = features(PERF_WORKLOADS[name]("small", seed=0).kernel)
        assert tuple(f) == FEATURES
        assert {k: v for k, v in f.items() if v} == used, name


def test_features_survive_the_compile_cache(tmp_path):
    kernel = PERF_WORKLOADS["MatMul"]("small", seed=0).kernel
    path = tmp_path / "jit.json"
    clear_memo()
    cold = get_program(kernel, (64, 1, 1), cache=CompileCache(path=path))
    clear_memo()
    warm = get_program(kernel, (64, 1, 1), cache=CompileCache.load(path))
    clear_memo()
    assert warm.from_cache and not cold.from_cache
    assert warm.features == cold.features and warm.features["tile"] == 1


# ---------------------------------------------------------------------------
# intrinsic aliases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("first, second", [
    ("log2f", "logf"), ("logf", "log2f"), ("exp2f", "expf"), ("expf", "exp2f"),
])
@pytest.mark.parametrize("backend", ["jit", "auto"])
def test_intrinsic_whose_name_prefixes_another(first, second, backend):
    """``_in_log`` is a substring of ``_in_log2``: declaring aliases by
    substring search left ``logf`` after ``log2f`` undeclared, a raw
    ``NameError`` at launch."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    y[gid] = %s(x[gid]) + %s(x[gid]);
}""" % (first, second))
    arrays = {"x": np.linspace(0.5, 4.0, 32, dtype=np.float32),
              "y": np.zeros(32, np.float32)}
    want = _run(k, 2, 16, arrays, {}, "interp")
    got = _run(k, 2, 16, arrays, {}, backend)
    assert want[0] is None and got[0] is None and got[2] == want[2]
    assert got[1]["y"].tobytes() == want[1]["y"].tobytes()
    assert np.isfinite(got[1]["y"]).all()


# ---------------------------------------------------------------------------
# lane geometry is memoised, and read-only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["interp", "jit"])
def test_lane_geometry_is_shared_between_launches_and_read_only(backend):
    spec = PERF_WORKLOADS["FIR"]("small", seed=0)
    config = LaunchConfig.make(spec.grid, spec.block)
    runs = [
        run_grid(spec.kernel, config, {**spec.arrays, **spec.scalars},
                 backend=backend, block_ids=[5, 2, 3])
        for _ in range(2)
    ]
    a, b = (r._lane_sregs for r in runs)
    assert all(a[kind] is b[kind] for kind in a)
    for arr in [*a.values(), *runs[0]._block_sregs.values(),
                runs[0]._lane_ids, runs[0]._block_lane_pos]:
        assert not arr.flags.writeable
    assert list(runs[0]._block_sregs[SRegKind.CTAID_X]) == [5, 2, 3]
    with pytest.raises(ValueError, match="read-only"):
        a[SRegKind.TID_X][0] = 7


def test_a_kernel_cannot_write_through_a_special_register():
    """``t = threadIdx.x`` aliases the memoised array; every later write
    to ``t`` builds a new one."""
    k = parse_kernel("""
__global__ void k(int* y) {
    int t = threadIdx.x;
    if (t > 3) { t = t + 100; }
    y[blockIdx.x * blockDim.x + threadIdx.x] = t;
}""")
    for _ in range(2):
        err, out = agree(k, 2, 8, {"y": np.zeros(16, np.int32)})
        assert err is None
        assert list(out["y"][:8]) == [0, 1, 2, 3, 104, 105, 106, 107]


def test_lane_memo_starts_over_past_its_budget(monkeypatch):
    monkeypatch.setattr(machine.LaneMemo, "BUDGET", 1)
    memo = machine.LaneMemo()
    config = LaunchConfig.make(4, 8)
    first = memo.get(config, np.array([0, 1], dtype=np.int64))
    assert memo.get(config, np.array([0, 1], dtype=np.int64)) is first
    memo.get(config, np.array([2, 3], dtype=np.int64))  # over: starts over
    assert memo.get(config, np.array([0, 1], dtype=np.int64)) is not first
