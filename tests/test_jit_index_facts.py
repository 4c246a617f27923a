"""Index facts in the JIT (DESIGN.md §13): adversarial kernels.

An index fact lets the compiled closure replace the per-access vector
bounds check, cache-line meter and gather with scalar interval
arithmetic — but only when that proves exactly what the vector code
would have computed.  Every kernel here attacks one way the proof could
be wrong or go stale; each runs through both backends and must agree on
the buffers, every ``OpCounters`` field and, where the launch faults,
the exact ``InterpError`` text.
"""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InterpError, JITUnsupported
from repro.frontend.parser import parse_kernel
from repro.interp import LaunchConfig, OpCounters, run_grid
from repro.interp.jit import generate_source
from repro.workloads import PERF_WORKLOADS

_HOISTED = re.compile(r"^\s+h\d+ = ", re.M)


def _has_facts(kernel) -> bool:
    """Whether codegen hoisted any per-span fact for ``kernel``."""
    return bool(_HOISTED.search(generate_source(kernel)[0]))


def _run(kernel, grid, block, arrays, scalars, backend, **kw):
    args = {k: v.copy() for k, v in arrays.items()}
    args.update(scalars)
    counters = OpCounters()
    try:
        run_grid(kernel, LaunchConfig.make(grid, block), args,
                 counters=counters, backend=backend, **kw)
        err = None
    except InterpError as e:
        err = str(e)
    return err, {k: args[k] for k in arrays}, counters.as_dict()


def agree(kernel, grid, block, arrays, scalars=None, **kw):
    """Run both backends; assert they agree; return the common error
    text (``None`` for a clean launch) and the interpreter's buffers."""
    scalars = scalars or {}
    ei, bi, ci = _run(kernel, grid, block, arrays, scalars, "interp", **kw)
    ej, bj, cj = _run(kernel, grid, block, arrays, scalars, "jit", **kw)
    assert ei == ej
    if ei is None:
        for name in arrays:
            assert bi[name].tobytes() == bj[name].tobytes(), name
        assert ci == cj
    return ei, bi


_SPANS = [None, 1, 3]

# x[gid + off + r] summed over r: the shape every case below varies
_SUM_SRC = """
__global__ void k(const float* x, float* y, int reps, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    %(guard)s
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) {
        acc += x[%(index)s];
    }
    y[gid] = acc;
}"""


def _sum_kernel(index: str, guard: str = ""):
    return parse_kernel(_SUM_SRC % {"index": index, "guard": guard})


def _xy(nx, ny, seed=0):
    rng = np.random.default_rng(seed)
    return {"x": rng.standard_normal(nx).astype(np.float32),
            "y": np.zeros(ny, np.float32)}


# ---------------------------------------------------------------------------
# int32 wrap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("span", _SPANS)
def test_wrapped_intermediate_exact_result(span):
    """``(gid + 2147483647) - 2147483647 + r``: the intermediate wraps
    on almost every lane, the exact value does not — the proof holds and
    the slice it takes is the right one."""
    k = _sum_kernel("gid + 2147483647 - 2147483647 + r")
    assert _has_facts(k)
    err, out = agree(k, 4, 32, _xy(128 + 5, 128), {"reps": 5, "n": 128},
                      span=span)
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("bounds_check", [True, False])
def test_exact_value_leaves_int32_but_wraps_back_in_bounds(bounds_check):
    """``gid + 2147483647 + 2147483647 + 2 + r`` is ``gid + r`` modulo
    2**32: the vector code reads in bounds, the exact interval is far
    outside — the proof must fail and the fallback must run."""
    k = _sum_kernel("gid + 2147483647 + 2147483647 + 2 + r")
    err, out = agree(k, 2, 32, _xy(64 + 3, 64), {"reps": 3, "n": 64},
                      bounds_check=bounds_check)
    assert err is None and np.any(out["y"])


def test_wrapped_index_out_of_bounds_same_error():
    k = _sum_kernel("gid + 2147483647 + r")
    err, _ = agree(k, 2, 32, _xy(64, 64), {"reps": 2, "n": 64})
    assert "out-of-bounds load of 'x' at index 2147483647" in err
    assert "blockIdx.x 0, threadIdx.x 0" in err


# ---------------------------------------------------------------------------
# scale: negative, zero-stride base, runtime-signed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("span", _SPANS)
def test_negative_scale(span):
    k = _sum_kernel("n - 1 - gid + r")
    assert _has_facts(k)
    err, out = agree(k, 4, 32, _xy(128 + 4, 128), {"reps": 4, "n": 128},
                      span=span)
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("stride", [3, 0, -2])
def test_runtime_scale_of_either_sign(stride):
    """The scale is a kernel argument: its sign is only known at run
    time, so the interval's ends must be ordered there."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps, int stride, int off) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) { acc += x[gid * stride + off + r]; }
    y[gid] = acc;
}""")
    assert _has_facts(k)
    off = 2 * 63 if stride < 0 else 0
    err, out = agree(k, 2, 32, _xy(64 * 3 + 4, 64),
                      {"reps": 4, "stride": stride, "off": off})
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("span", _SPANS)
def test_stride_zero_base(span):
    """``blockIdx.x`` is constant across a block: never unit-stride,
    always a gather."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps) {
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) { acc += x[blockIdx.x * reps + r]; }
    y[blockIdx.x * blockDim.x + threadIdx.x] = acc;
}""")
    assert _has_facts(k)
    err, out = agree(k, 5, 16, _xy(5 * 6, 80), {"reps": 6}, span=span)
    assert err is None and np.any(out["y"])


def test_widened_base_in_int64_arithmetic():
    """``(long)gid * n + r``: the bare base widens exactly, the rest of
    the index lives in the int64 ring."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) { acc += x[(long)gid * n + r]; }
    y[gid] = acc;
}""")
    assert _has_facts(k)
    err, out = agree(k, 2, 16, _xy(32 * 4, 32), {"reps": 3, "n": 4})
    assert err is None and np.any(out["y"])


# ---------------------------------------------------------------------------
# out of bounds: inactive lanes only, an active lane
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("span", _SPANS)
def test_fir_tail_block_oob_on_inactive_lanes_only(span):
    spec = PERF_WORKLOADS["FIR"]("small", seed=1)
    assert _has_facts(spec.kernel)
    # the last block's lanes past n index past the end of `input`
    assert spec.grid * 256 + spec.scalars["num_taps"] > spec.arrays["input"].size
    err, out = agree(spec.kernel, spec.grid, spec.block, spec.arrays,
                      spec.scalars, span=span)
    assert err is None
    np.testing.assert_array_equal(out["output"], spec.reference["output"])


@pytest.mark.parametrize("bounds_check", [True, False])
@pytest.mark.parametrize("span", _SPANS)
def test_oob_on_an_active_lane(span, bounds_check):
    """Same message, same first lane: the raise (or, unchecked, the
    clamp) stays ``ctx._safe_indices``'s."""
    spec = PERF_WORKLOADS["FIR"]("small", seed=1)
    arrays = dict(spec.arrays, input=spec.arrays["input"][:-40])
    err, _ = agree(spec.kernel, spec.grid, spec.block, arrays,
                    spec.scalars, span=span, bounds_check=bounds_check)
    if bounds_check:
        # n + num_taps - 40 = 1992 cells: lane 1961 + tap 31 is first
        assert "out-of-bounds load of 'input' at index 1992" in err
        assert "blockIdx.x 7, threadIdx.x" in err
    else:
        assert err is None


def test_negative_index_on_an_active_lane():
    k = _sum_kernel("gid - 3 + r")
    err, _ = agree(k, 2, 32, _xy(64, 64), {"reps": 2, "n": 64})
    assert "at index -3" in err and "threadIdx.x 0" in err


# ---------------------------------------------------------------------------
# staleness and loop shape
# ---------------------------------------------------------------------------


def test_base_reassigned_inside_the_loop():
    """Nothing may be hoisted for a base the loop body moves."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int p = gid;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) {
        acc += x[p + r];
        p = p + 2;
    }
    y[gid] = acc;
}""")
    assert not _has_facts(k)
    err, out = agree(k, 2, 32, _xy(64 + 3 * 8, 64), {"reps": 8})
    assert err is None and np.any(out["y"])


def test_base_reassigned_in_the_outer_loop_only():
    """MatMul's ``col``: facts go to the inner preheader and are
    recomputed there each outer iteration."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int o = 0; o < 3; o++) {
        int p = gid + o * 7;
        for (int r = 0; r < reps; r++) { acc += x[p + r]; }
    }
    y[gid] = acc;
}""")
    assert _has_facts(k)
    err, out = agree(k, 2, 32, _xy(64 + 14 + 5, 64), {"reps": 5})
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("reps", [0, -4])
def test_zero_trip_loop(reps):
    """The preheader runs even when the loop does not."""
    k = _sum_kernel("gid + r", guard="if (gid >= n) return;")
    err, out = agree(k, 3, 32, _xy(90, 96), {"reps": reps, "n": 90})
    assert err is None and not np.any(out["y"])


@pytest.mark.parametrize("span", _SPANS)
def test_per_iteration_mask_inside_the_loop(span):
    """BinomialOption's ``tid < t``: the mask moves every iteration, so
    the active lanes' range cannot be hoisted — the bounds proof still
    can."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int steps) {
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    float acc = 0.0f;
    for (int t = steps; t > 0; t--) {
        if (tid < t) { acc += x[gid + t]; }
    }
    y[gid] = acc;
}""")
    assert _has_facts(k)
    err, out = agree(k, 3, 16, _xy(48 + 10, 48), {"steps": 10}, span=span)
    assert err is None and np.any(out["y"])


@pytest.mark.parametrize("span", _SPANS)
def test_break_and_return_inside_the_loop(span):
    """A lane can leave mid-loop: the body mask is per-iteration."""
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps, float cut) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) {
        float v = x[gid + r];
        if (v > cut) break;
        if (v < -cut) return;
        acc += v;
    }
    y[gid] = acc;
}""")
    err, out = agree(k, 3, 32, _xy(96 + 12, 96), {"reps": 12, "cut": 1.0},
                      span=span)
    assert err is None and np.any(out["y"])


def test_non_consecutive_blocks_are_not_unit_stride():
    """The callback phase hands a rank scattered block ids: the same
    closure must gather where it sliced."""
    k = _sum_kernel("gid + r")
    err, out = agree(k, 8, 16, _xy(128 + 4, 128), {"reps": 4, "n": 128},
                      block_ids=[6, 1, 2, 5])
    assert err is None and np.any(out["y"])


# ---------------------------------------------------------------------------
# shared and local segments
# ---------------------------------------------------------------------------

_LATTICE_SRC = """
__global__ void k(const float* x, float* y, int steps) {
    __shared__ float lat[%d];
    int tid = threadIdx.x;
    lat[tid] = x[blockIdx.x * blockDim.x + tid];
    __syncthreads();
    for (int t = steps; t > 0; t--) {
        if (tid < t) { lat[tid] = 0.5f * (lat[tid + 1] + lat[tid]); }
        __syncthreads();
    }
    y[blockIdx.x * blockDim.x + tid] = lat[tid];
}"""


@pytest.mark.parametrize("span", _SPANS)
@pytest.mark.parametrize("extent", [17, 16])
def test_shared_tid_plus_one(span, extent):
    """With ``lat[17]`` every lane's ``tid + 1`` is inside the segment;
    with ``lat[16]`` the last lane reaches ``seg`` — inactive there
    (``tid < t``), clamped by ``_shared_index``, so no proof."""
    k = parse_kernel(_LATTICE_SRC % extent)
    assert _has_facts(k)
    err, out = agree(k, 5, 16, _xy(80, 80), {"steps": 15}, span=span)
    assert err is None and np.any(out["y"])


def test_shared_oob_on_an_active_lane_same_error():
    k = parse_kernel(_LATTICE_SRC % 16)
    err, _ = agree(k, 2, 16, _xy(32, 32), {"steps": 16})
    assert "out-of-bounds shared access to 'lat' at index 16" in err
    assert "threadIdx.x 15" in err


@pytest.mark.parametrize("span", _SPANS)
def test_local_array_indexed_by_the_lane(span):
    k = parse_kernel("""
__global__ void k(const float* x, float* y, int reps) {
    float win[8];
    int lane = threadIdx.x % 4;
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    for (int r = 0; r < 8; r++) { win[r] = 0.0f; }
    for (int r = 0; r < reps; r++) { win[lane + r] = x[gid + r]; }
    float acc = 0.0f;
    for (int r = 0; r < 8; r++) { acc += win[r]; }
    y[gid] = acc;
}""")
    err, out = agree(k, 3, 16, _xy(48 + 4, 48), {"reps": 4}, span=span)
    assert err is None and np.any(out["y"])


_DECL_SRC = """
__global__ void k(const float* x, float* y, int reps) {
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + tid;
    float acc = 0.0f;
    for (int r = 0; r < reps; r++) { acc += x[gid + r]; }
    %(top)s
    for (int r = 0; r < reps; r++) {
        %(outer)s
        for (int q = 0; q < 2; q++) {
            %(inner)s
            a[tid] = x[gid + r + q];
            acc += a[tid];
        }
    }
    y[gid] = acc;
}"""


def _decl_kernel(decl: str, where: str):
    places = dict.fromkeys(("top", "outer", "inner"), "")
    places[where] = decl
    return parse_kernel(_DECL_SRC % places)


@pytest.mark.parametrize("where", ["outer", "inner"])
@pytest.mark.parametrize("decl", ["__shared__ float a[16];", "float a[16];"])
def test_array_declared_inside_a_loop_is_left_to_the_interpreter(decl, where):
    """The segment's extent and lane offset are hoisted to the preheader
    of the outermost loop the base is invariant in, so the declaration
    must have run by then.  Codegen refuses a declaration that is not at
    the top level of the kernel body (``_prepass``); ``auto`` falls back
    and the launch is the interpreter's."""
    k = _decl_kernel(decl, where)
    with pytest.raises(JITUnsupported, match="not at the top"):
        generate_source(k)
    want = _run(k, 3, 16, _xy(48 + 5, 48), {"reps": 4}, "interp")
    got = _run(k, 3, 16, _xy(48 + 5, 48), {"reps": 4}, "auto")
    assert want[0] is None and np.any(want[1]["y"])
    assert got[0] is None and got[2] == want[2]
    assert got[1]["y"].tobytes() == want[1]["y"].tobytes()


@pytest.mark.parametrize("span", _SPANS)
@pytest.mark.parametrize("decl", ["__shared__ float a[16];", "float a[16];"])
def test_array_declared_after_an_earlier_loop(decl, span):
    """A top-level declaration between two loops: the segment facts of
    ``a[tid]`` land in the second loop's preheader, after it."""
    k = _decl_kernel(decl, "top")
    src = generate_source(k)[0]
    kind = "shared" if "__shared__" in decl else "local"
    assert src.index(f"ctx._{kind}_seg['a'] =") < src.index(
        f"= ctx._{kind}_seg['a']")
    err, out = agree(k, 3, 16, _xy(48 + 5, 48), {"reps": 4}, span=span)
    assert err is None and np.any(out["y"])


# ---------------------------------------------------------------------------
# a slice load is a view: nothing may keep it across a store
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("span", _SPANS)
def test_in_place_shift_reads_before_it_writes(span):
    k = parse_kernel("""
__global__ void k(float* x, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    for (int r = 0; r < reps; r++) { x[gid] = x[gid + 1]; }
}""")
    assert _has_facts(k)
    x = np.arange(64 + 1, dtype=np.float32)
    err, out = agree(k, 2, 32, {"x": x}, {"reps": 3}, span=span)
    assert err is None
    if span is None:
        # one span, lockstep lanes: each iteration shifts everything
        np.testing.assert_array_equal(out["x"][:61], x[3:64])


def test_loaded_value_assigned_then_buffer_overwritten():
    k = parse_kernel("""
__global__ void k(float* x, float* y, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    for (int r = 0; r < reps; r++) {
        float v = x[gid + r];
        x[gid + r] = 0.0f;
        y[gid] = y[gid] + v;
    }
}""")
    err, out = agree(k, 1, 32, _xy(32 + 3, 32), {"reps": 3})
    assert err is None and np.any(out["y"])


def test_atomic_operand_loaded_from_the_updated_buffer():
    """Colliding lanes with an observed result serialize inside
    ``apply_atomic_op``: each lane's operand is read after earlier
    lanes' updates, so it must be the pre-statement copy."""
    k = parse_kernel("""
__global__ void k(int* x, int* y, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int old = 0;
    for (int r = 0; r < reps; r++) {
        old = atomicAdd(&x[gid / 2 + 8], x[gid + 1]);
        y[gid] = y[gid] + old;
    }
}""")
    x = np.arange(32 + 1, dtype=np.int32)
    err, out = agree(k, 1, 32, {"x": x, "y": np.zeros(32, np.int32)},
                      {"reps": 3})
    assert err is None and np.any(out["y"])


def test_variant_loop_bound_loaded_then_buffer_overwritten():
    k = parse_kernel("""
__global__ void k(int* lim, float* y, int reps) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    for (int r = 0; r < reps; r++) {
        for (int j = 0; j < lim[gid + r]; j++) {
            lim[gid + r] = 0;
            y[gid] = y[gid] + 1.0f;
        }
    }
}""")
    lim = (np.arange(32 + 2, dtype=np.int32) % 4) + 1
    err, out = agree(k, 1, 32, {"lim": lim, "y": np.zeros(32, np.float32)},
                      {"reps": 2})
    assert err is None and np.any(out["y"])


# ---------------------------------------------------------------------------
# property: affine indices around every edge of the proof
# ---------------------------------------------------------------------------

_AFFINE_SRC = """
__global__ void affine(const float* x, float* y, int a, int b, int c,
                       int reps, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid >= n) return;
    float acc = 0.0f;
    for (int i = 0; i < reps; i++) { acc += x[a * gid + b * i + c]; }
    y[gid] = acc;
}"""


@settings(max_examples=60, deadline=None)
@given(
    a=st.sampled_from([-3, -1, 0, 1, 2]),
    b=st.sampled_from([-2, 0, 1, 5]),
    lo_edge=st.sampled_from([-1, 0, 1]),
    hi_edge=st.sampled_from([-1, 0, 1, 40]),
    wrap=st.sampled_from([0, 0, 2**31 - 1, -(2**31)]),
    grid=st.integers(min_value=1, max_value=4),
    block=st.sampled_from([1, 7, 32]),
    tail=st.integers(min_value=0, max_value=9),
    reps=st.integers(min_value=0, max_value=4),
    span=st.sampled_from([None, 1, 2]),
    bounds_check=st.booleans(),
)
def test_affine_index_identical_around_the_edges(
    a, b, lo_edge, hi_edge, wrap, grid, block, tail, reps, span, bounds_check
):
    """``x[a*gid + b*i + c]`` on ragged grids, with ``c`` and the buffer
    length placed so the active lanes' index range ends ``lo_edge``
    cells from 0 and ``hi_edge`` cells from the end (negative: an active
    lane is out of bounds), or with ``c`` at an int32 extreme so the
    index wraps.  Inactive tail lanes land wherever they land."""
    n = max(1, grid * block - tail)
    ends = [a * g + b * i for g in (0, n - 1) for i in (0, max(reps, 1) - 1)]
    c = wrap or lo_edge - min(ends)
    length = max(1, max(ends) + (lo_edge - min(ends)) + 1 + hi_edge)
    rng = np.random.default_rng(grid * 131 + block)
    agree(
        parse_kernel(_AFFINE_SRC), grid, block,
        {"x": rng.standard_normal(length).astype(np.float32),
         "y": np.zeros(grid * block, np.float32)},
        {"a": a, "b": b, "c": c, "reps": reps, "n": n},
        span=span, bounds_check=bounds_check,
    )


# ---------------------------------------------------------------------------
# the hoist happened: per-access reductions do not scale with trip count
# ---------------------------------------------------------------------------


def _fir_call_counts(taps: int, block_ids=None) -> dict:
    """``numpy.ufunc.reduce`` / ``ndarray.astype`` C-calls in one JIT
    ``run_grid`` of small FIR with ``taps`` loop iterations: the
    deterministic call-count idiom of ``bench_obs_overhead``."""
    from repro.workloads.fir import CUDA_SOURCE

    n, block = 2000, 256
    rng = np.random.default_rng(0)
    args = lambda: {
        "input": rng.standard_normal(n + taps).astype(np.float32),
        "coeff": rng.standard_normal(taps).astype(np.float32),
        "output": np.zeros(n, np.float32), "num_taps": taps, "n": n,
    }
    kernel = parse_kernel(CUDA_SOURCE)
    launch = lambda: run_grid(
        kernel, LaunchConfig.make(-(-n // block), block), args(),
        counters=OpCounters(), backend="jit", block_ids=block_ids,
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


def test_fir_reductions_do_not_scale_with_trip_count():
    """Every ``.any()`` / ``.min()`` / ``.max()`` the loop body used to
    run per access (each a ``ufunc.reduce``) now runs in the preheader
    or not at all: 8 taps and 32 taps reduce equally often — even on the
    span that holds the ragged tail block, whose where-zero arm is
    reached by scalar compares.  (The same assertion on the interpreter
    fails by construction and is not made.)"""
    few, many = _fir_call_counts(8), _fir_call_counts(32)
    assert few["ufunc.reduce"] == many["ufunc.reduce"] > 0


def test_fir_full_blocks_widen_no_index_per_access():
    """On the seven full blocks ``gid`` is unit-stride and every lane is
    in bounds: ``input[gid + i]`` is a slice, ``coeff[i]`` a Python-int
    index — no per-access int64 copy either."""
    few = _fir_call_counts(8, block_ids=range(7))
    many = _fir_call_counts(32, block_ids=range(7))
    assert few == many


# ---------------------------------------------------------------------------
# no qualifying access: today's code
# ---------------------------------------------------------------------------


def test_two_bases_keep_the_vector_path():
    """Transpose's ``col * dim + blockIdx.x``: two lane-shaped terms, no
    fact, nothing hoisted, no scalar proof in the source."""
    spec = PERF_WORKLOADS["Transpose"]("small", seed=0)
    src = generate_source(spec.kernel)[0]
    assert not _HOISTED.search(src) and "slice(" not in src
    assert src.count(".any()") == 4  # two accesses, two reductions each
    err, _ = agree(spec.kernel, spec.grid, spec.block, spec.arrays,
                    spec.scalars)
    assert err is None


def test_accesses_outside_every_loop_keep_the_vector_path():
    """No preheader, nothing to hoist to: the guarded saxpy body checks
    ``x[i]`` and ``y[i]`` with the vector ladder, and the store still
    reuses the load's sanitized index."""
    k = parse_kernel("""
__global__ void saxpy(float* x, float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = a * x[i] + y[i]; }
}""")
    src = generate_source(k)[0]
    assert not _HOISTED.search(src) and "slice(" not in src
    assert src.count(".any()") == 2 * 2 + 1  # two ladders, one arm test


def test_uniform_index_meters_one_line_statically():
    """A provably 0-d index touches one line: the constant the
    interpreter's ``idx.ndim == 0`` arm yields, with no run-time shape
    test and no int64 cast."""
    spec = PERF_WORKLOADS["NBody"]("small", seed=0)
    src = generate_source(spec.kernel)[0]
    loop = src[src.index("for i"):]
    body = loop[:loop.index("_c_global_store_bytes")]
    assert body.count("_c_global_line_bytes += 64.0") == 4
    assert "np.asarray" not in body.replace("np.asarray(_in_", "")
