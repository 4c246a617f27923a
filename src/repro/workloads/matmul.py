"""MatMul: dense matrix multiply, one GPU block per output row.

Block ``r`` computes row ``r`` of ``C = A x B``: threads stride across
the row's columns, accumulating over the inner dimension.  The write
``C[r*N + col]`` is affine and dense per block (unit = N elements), the
``A`` reads broadcast within a block, and the ``B`` reads are coalesced —
a compute-heavy, fully vectorizable Allgather-distributable kernel.
Defined with the Python DSL (the other workloads exercise the CUDA
frontend).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.frontend.dsl import kernel, ptr
from repro.ir.types import F32, I32
from repro.workloads.base import WorkloadSpec

__all__ = ["build", "build_kernel"]


_KERNEL = None


def build_kernel():
    """The matmul kernel IR, built once via the Python DSL: every caller
    gets the same ``Kernel`` object (the DSL's counterpart of the
    parser's same-source-same-object rule)."""
    global _KERNEL
    if _KERNEL is not None:
        return _KERNEL

    @kernel(name="matmul", A=ptr(F32), B=ptr(F32), C=ptr(F32), n=I32, k=I32,
            chunks=I32)
    def matmul(b, A, B, C, n, k, chunks):
        row = b.let("row", b.bid_x)
        with b.for_("cc", 0, chunks) as cc:
            col = b.let("col", cc * b.bdim_x + b.tid_x)
            acc = b.let("acc", 0.0, F32)
            with b.for_("i", 0, k) as i:
                b.assign(acc, acc + b.load(A, row * k + i) * b.load(B, i * n + col))
            b.store(C, row * n + col, acc)

    _KERNEL = matmul
    return matmul


_SIZES = {
    "small": dict(n=64, k=48, block=64),
    "paper": dict(n=512, k=512, block=512),
}


def build(size: str = "small", seed: int = 0) -> WorkloadSpec:
    if size not in _SIZES:
        raise ReproError(f"unknown size {size!r}")
    p = _SIZES[size]
    n, k, block = p["n"], p["k"], p["block"]
    if n % block:
        raise ReproError("n must be a multiple of the block size")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, k)).astype(np.float32)
    B = rng.standard_normal((k, n)).astype(np.float32)
    C_ref = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.float32)
    return WorkloadSpec(
        name="MatMul",
        kernel=build_kernel(),
        grid=n,
        block=block,
        arrays={
            "A": A.reshape(-1).copy(),
            "B": B.reshape(-1).copy(),
            "C": np.zeros(n * n, dtype=np.float32),
        },
        scalars={"n": n, "k": k, "chunks": n // block},
        outputs=("C",),
        reference={"C": C_ref.reshape(-1)},
        rtol=1e-3,
        atol=1e-3,
    )
