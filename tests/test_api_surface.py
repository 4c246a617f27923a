"""The public API facade and launch-geometry helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import LaunchError
from repro.interp.grid import LaunchConfig, dim3


def test_api_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_api_end_to_end_docstring_flow():
    kernel = api.parse_cuda_kernel(
        """
__global__ void scale(const float *x, float *y, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) y[id] = x[id] * 2.0f;
}
"""
    )
    cluster = api.make_cluster("simd-focused", 2)
    rt = api.CuCCRuntime(cluster)
    compiled = rt.compile(kernel)
    assert compiled.distributable
    n = 700
    rt.memory.alloc("x", n, np.float32)
    rt.memory.alloc("y", n, np.float32)
    host = np.random.default_rng(0).random(n).astype(np.float32)
    rt.memory.memcpy_h2d("x", host)
    rec = rt.launch(compiled, 3, 256, {"x": "x", "y": "y", "n": n})
    out = rt.memory.memcpy_d2h("y", check_consistency=True)
    assert np.array_equal(out, (host * np.float32(2.0)))
    assert rec.time > 0


_NO_SCIPY_UNTIL_ERF = """
import sys
import numpy as np
import repro.api as api
from repro.bench.harness import run_on_cucc
from repro.workloads import PERF_WORKLOADS

run_on_cucc(PERF_WORKLOADS["FIR"]("small", seed=0),
            api.make_cluster("simd-focused", 2))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded

from repro.interp import LaunchConfig, run_grid
from repro.workloads.ai_models import BERT_KERNELS
from repro.workloads.bert_app import _gelu
from repro.workloads.heteromark import build_kernel

gelu = build_kernel(next(z for z in BERT_KERNELS if z.name == "bert_gelu"))
x = 3 * np.random.default_rng(0).standard_normal(256).astype(np.float32)
for backend in ("interp", "jit"):
    y = np.zeros_like(x)
    run_grid(gelu, LaunchConfig.make(2, 128), {"x": x, "y": y, "n": 256},
             backend=backend)
    assert np.array_equal(y, _gelu(x)), backend
assert "scipy.special" in sys.modules
"""


def test_scipy_is_imported_by_the_first_erf_not_by_the_package():
    """``import repro.api`` and a kernel run that never calls ``erf``
    load no SciPy module (it used to be over half the import); the first
    ``erf`` — BERT's GELU, on either backend — resolves it and still
    matches the SciPy reference bit for bit."""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(api.__file__))
    subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_UNTIL_ERF],
        env={**os.environ, "PYTHONPATH": src},
        check=True, timeout=120,
    )


def test_dsl_reexported():
    from repro.ir import F32, I32

    @api.kernel(x=api.ptr(F32), n=I32)
    def zero(b, x, n):
        gid = b.let("gid", b.bid_x * b.bdim_x + b.tid_x)
        with b.if_(gid < n):
            b.store(x, gid, 0.0)

    assert zero.name == "zero"


# ---------------------------------------------------------------------------
# LaunchConfig
# ---------------------------------------------------------------------------
def test_dim3_normalization():
    assert dim3(5) == (5, 1, 1)
    assert dim3((2, 3)) == (2, 3, 1)
    assert dim3((2, 3, 4)) == (2, 3, 4)
    with pytest.raises(LaunchError):
        dim3(0)
    with pytest.raises(LaunchError):
        dim3((4, -1))


@given(
    gx=st.integers(1, 9),
    gy=st.integers(1, 5),
    gz=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_block_coords_roundtrip(gx, gy, gz):
    cfg = LaunchConfig.make((gx, gy, gz), 8)
    for bid in range(cfg.num_blocks):
        coords = cfg.block_coords(bid)
        assert cfg.linear_block_id(coords) == bid
        assert all(0 <= c < g for c, g in zip(coords, cfg.grid))
    with pytest.raises(LaunchError):
        cfg.block_coords(cfg.num_blocks)


def test_thread_coords_cover_block():
    cfg = LaunchConfig.make(1, (4, 3, 2))
    tx, ty, tz = cfg.thread_coords()
    assert len(tx) == 24
    seen = set(zip(tx.tolist(), ty.tolist(), tz.tolist()))
    assert len(seen) == 24
    assert tx.max() == 3 and ty.max() == 2 and tz.max() == 1
    # x-fastest ordering, as in CUDA
    assert list(tx[:4]) == [0, 1, 2, 3]
    assert ty[4] == 1 and tz[12] == 1


def test_counts():
    cfg = LaunchConfig.make((5, 2), (16, 4))
    assert cfg.num_blocks == 10
    assert cfg.threads_per_block == 64
    assert cfg.total_threads == 640
