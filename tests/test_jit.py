"""Unit tests for the JIT fast-path backend (:mod:`repro.interp.jit`).

Covers the pieces the differential gate does not: the mask-free proof
obligation, specialization keys (including the structural-identity
regression the gate surfaced), the persistent compile cache's integrity
checks, and the ``run_grid``/``CuCCRuntime`` backend wiring.
"""

import numpy as np
import pytest

from repro.errors import JITError, JITUnsupported, LaunchError
from repro.frontend.parser import parse_kernel
from repro.interp import LaunchConfig, OpCounters, run_grid
from repro.interp.jit import (
    CompileCache,
    JITBlockExecutor,
    clear_memo,
    compile_stats,
    diff_grid,
    generate_source,
    get_program,
    program_key,
    source_digest,
)
from repro.ir import F32, I32, IRBuilder

# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

_STRAIGHT_SRC = """
__global__ void straight(float* x, float* y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    y[i] = x[i] * 2.0f + 1.0f;
}"""

_GUARDED_SRC = """
__global__ void guarded(float* x, float* y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = x[i] * 2.0f; }
}"""


def _straight():
    return parse_kernel(_STRAIGHT_SRC)


def _guarded():
    return parse_kernel(_GUARDED_SRC)


# ---------------------------------------------------------------------------
# mask-free proof
# ---------------------------------------------------------------------------


def test_straight_line_kernel_proved_mask_free():
    src, mask_free, _ = generate_source(_straight())
    assert mask_free
    # the proof is structural: no statement-level divergence mask is ever
    # materialized, so the only mask in the module is the all-true m0
    assert "m0 = np.ones" in src
    assert "m1" not in src


def test_guarded_kernel_not_mask_free():
    mask_free = generate_source(_guarded()).mask_free
    assert not mask_free


def test_invariant_loop_stays_mask_free():
    kernel = parse_kernel("""
__global__ void unrolled(float* x, float* y) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int k = 0; k < 4; k = k + 1) { acc = acc + x[i] * k; }
    y[i] = acc;
}""")
    mask_free = generate_source(kernel).mask_free
    assert mask_free


# ---------------------------------------------------------------------------
# specialization keys + memo
# ---------------------------------------------------------------------------


def test_program_memoized_per_key():
    clear_memo()
    k = _straight()
    before = compile_stats["compiles"]
    p1 = get_program(k, (64, 1, 1))
    p2 = get_program(k, (64, 1, 1))
    assert p1 is p2
    assert compile_stats["compiles"] == before + 1


def test_key_varies_with_block_and_bounds_check():
    k = _straight()
    base = program_key(k, (64, 1, 1), True)
    assert program_key(k, (128, 1, 1), True) != base
    assert program_key(k, (64, 1, 1), False) != base


def test_key_is_structural_not_textual():
    """Regression: the gate caught a stale-specialization bug.

    ``simplify_kernel`` folds ``UnOp('-', Const(1))`` into ``Const(-1)``;
    both *print* identically, but the interpreter counts the explicit
    negation as an int op.  A key derived from printed text served the
    unlowered kernel's program (extra op counted) for the simplified
    kernel, shifting CuCC phase times by ~0.5%.  The key must hash the
    IR's structural repr, under which the two differ.
    """
    from repro.ir.expr import Const, UnOp
    from repro.ir.printer import print_kernel
    from repro.transform.simplify import simplify_kernel

    def build():
        b = IRBuilder("negstep")
        out = b.pointer_param("out", I32)
        with b.for_("i", 3, 0, step=UnOp("-", Const(1, I32))) as i:
            b.store(out, i, i)
        return b.finish()

    raw = build()
    lowered = simplify_kernel(raw)
    assert print_kernel(raw) == print_kernel(lowered)  # the trap
    assert repr(raw) != repr(lowered)
    assert program_key(raw, (4, 1, 1), True) != program_key(
        lowered, (4, 1, 1), True
    )
    # and both specializations are bit-identical to the interpreter
    for k in (raw, lowered):
        res = diff_grid(k, 1, 4, {"out": np.zeros(4, np.int32)})
        assert res.identical, res.mismatches


def test_interp_and_jit_count_the_unary_negation_identically():
    """Companion to the keying regression: the folded and unfolded loop
    steps must each agree across backends on the op counters — the
    divergence the gate originally reported was exactly here."""
    from repro.ir.expr import Const, UnOp

    b = IRBuilder("negstep2")
    out = b.pointer_param("out", I32)
    with b.for_("i", 3, 0, step=UnOp("-", Const(1, I32))) as i:
        b.store(out, i, i)
    kernel = b.finish()
    ci, cj = OpCounters(), OpCounters()
    run_grid(kernel, LaunchConfig.make(1, 4),
             {"out": np.zeros(4, np.int32)}, counters=ci, backend="interp")
    run_grid(kernel, LaunchConfig.make(1, 4),
             {"out": np.zeros(4, np.int32)}, counters=cj, backend="jit")
    assert ci.as_dict() == cj.as_dict()


# ---------------------------------------------------------------------------
# persistent compile cache
# ---------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "jit.json"
    cache = CompileCache(path=path)
    clear_memo()
    k = _straight()
    get_program(k, (64, 1, 1), cache=cache)
    assert len(cache) == 1 and path.exists()

    clear_memo()
    reloaded = CompileCache.load(path)
    before = compile_stats["cache_hits"]
    prog = get_program(k, (64, 1, 1), cache=reloaded)
    assert prog.from_cache
    assert compile_stats["cache_hits"] == before + 1
    # the cached program still passes the differential
    res = diff_grid(
        k, 2, 64,
        {"x": np.arange(128, dtype=np.float32),
         "y": np.zeros(128, np.float32)},
    )
    assert res.identical, res.mismatches


def test_corrupted_cache_entry_rejected_and_recompiled(tmp_path):
    """A damaged entry must be a miss, not a trusted program: the cache
    may speed a run up but can never change what it computes."""
    import json

    path = tmp_path / "jit.json"
    cache = CompileCache(path=path)
    clear_memo()
    k = _straight()
    key = program_key(k, (64, 1, 1), True)
    get_program(k, (64, 1, 1), cache=cache)

    # tamper with the stored source without updating the digest
    doc = json.loads(path.read_text())
    doc["entries"][key]["source"] += "\nTAMPERED = True\n"
    path.write_text(json.dumps(doc))

    clear_memo()
    tampered = CompileCache.load(path)
    before = dict(compile_stats)
    prog = get_program(k, (64, 1, 1), cache=tampered)
    assert not prog.from_cache
    assert "TAMPERED" not in prog.source
    assert tampered.rejected == 1
    assert compile_stats["cache_rejects"] == before["cache_rejects"] + 1
    assert compile_stats["compiles"] == before["compiles"] + 1
    # the rejected entry was replaced by the recompiled one
    assert tampered.entries[key]["sha256"] == source_digest(
        tampered.entries[key]["source"]
    )


def test_cache_from_the_previous_codegen_version_is_never_served(
    tmp_path, monkeypatch
):
    """A cache file written by the parent commit holds intact entries
    under ``v<N-1>`` keys.  They are not damage (no reject) and not hits:
    this commit compiles afresh next to them."""
    import repro.interp.jit.compiler as compiler

    monkeypatch.setattr(
        compiler, "CODEGEN_VERSION", compiler.CODEGEN_VERSION - 1
    )
    stale_key = program_key(_straight(), (64, 1, 1), True)
    monkeypatch.undo()
    path = tmp_path / "jit.json"
    old = CompileCache(path=path)
    old.record(
        stale_key,
        "def _jit_span(ctx, counters):\n    raise SystemExit('stale')\n",
        True, "straight",
    )
    old.save()

    clear_memo()
    cache = CompileCache.load(path)
    before = dict(compile_stats)
    prog = get_program(_straight(), (64, 1, 1), cache=cache)
    delta = {k: compile_stats[k] - before[k] for k in compile_stats}
    assert delta["compiles"] == 1
    assert delta["cache_hits"] == 0 and delta["cache_rejects"] == 0
    assert not prog.from_cache and "stale" not in prog.source
    assert prog.key != stale_key and {prog.key, stale_key} <= set(cache.entries)


def test_cache_digest_mismatch_is_detected_even_with_valid_shape(tmp_path):
    cache = CompileCache(path=tmp_path / "c.json")
    cache.record("k1", "SRC", True, "k")
    cache.entries["k1"]["sha256"] = "0" * 64
    assert cache.lookup("k1") is None
    assert cache.rejected == 1 and "k1" not in cache.entries


def test_cache_non_object_entry_is_rejected_and_dropped(tmp_path):
    """A damaged file with a non-object entry loads, and the entry is
    rejected like any other damage (it used to end in AttributeError on
    ``list.get``)."""
    path = tmp_path / "damaged.json"
    path.write_text('{"version": 1, "entries": {"k": []}}')
    cache = CompileCache.load(path)
    assert cache.lookup("k") is None
    assert cache.rejected == 1 and "k" not in cache.entries


def test_cache_version_guard(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"version": 99, "entries": {}}')
    with pytest.raises(JITError, match="unsupported version"):
        CompileCache.load(path)


# ---------------------------------------------------------------------------
# backend wiring
# ---------------------------------------------------------------------------


def _run(kernel, grid, block, args, backend, **kw):
    counters = OpCounters()
    run_grid(kernel, LaunchConfig.make(grid, block), args,
             counters=counters, backend=backend, **kw)
    return counters


def test_run_grid_backend_bit_identity():
    k = _guarded()
    mk = lambda: {"x": np.arange(256, dtype=np.float32),
                  "y": np.zeros(256, np.float32), "n": 200}
    ai, aj = mk(), mk()
    ci = _run(k, 4, 64, ai, "interp")
    cj = _run(k, 4, 64, aj, "jit")
    assert ci.as_dict() == cj.as_dict()
    assert ai["y"].tobytes() == aj["y"].tobytes()


def test_run_grid_rejects_unknown_backend():
    with pytest.raises(LaunchError, match="unknown backend"):
        run_grid(_straight(), LaunchConfig.make(1, 4),
                 {"x": np.zeros(4, np.float32), "y": np.zeros(4, np.float32)},
                 backend="cuda")


def test_jit_backend_rejects_sanitize_hook():
    with pytest.raises(LaunchError, match="sanitize/profile"):
        run_grid(_straight(), LaunchConfig.make(1, 4),
                 {"x": np.zeros(4, np.float32), "y": np.zeros(4, np.float32)},
                 backend="jit", sanitize=True)


def test_auto_backend_with_sanitize_falls_back_to_interp():
    # auto + sanitizer: the hook observes the tree-walker, so the run
    # must go through it (and still work)
    ex = run_grid(_guarded(), LaunchConfig.make(1, 64),
                  {"x": np.zeros(64, np.float32),
                   "y": np.zeros(64, np.float32), "n": 64},
                  backend="auto", sanitize=True)
    assert not isinstance(ex, JITBlockExecutor)


def _conflicting_types_kernel():
    b = IRBuilder("conflict")
    out = b.pointer_param("out", F32)
    x = b.let("x", 1, I32)
    b.assign(x, 1)
    k = b.finish(validate=False)
    # rewrite the second assignment to a float to create the conflict
    from dataclasses import replace

    from repro.ir.expr import Const

    k.body[1] = replace(k.body[1], value=Const(1.5, F32), type=F32)
    return k


def test_unsupported_kernel_raises_under_jit_falls_back_under_auto():
    k = _conflicting_types_kernel()
    with pytest.raises(JITUnsupported, match="conflicting types"):
        get_program(k, (4, 1, 1))


def test_cucc_runtime_backend_validation():
    from repro.cluster import make_cluster
    from repro.errors import LaunchError
    from repro.runtime.cucc import CuCCRuntime

    with pytest.raises(LaunchError, match="unknown backend"):
        CuCCRuntime(make_cluster("simd-focused", 2), backend="fast")
    with pytest.raises(LaunchError, match="sanitize/profile"):
        CuCCRuntime(make_cluster("simd-focused", 2), backend="jit",
                    profile=True)


@pytest.mark.parametrize(
    "options",
    [
        {"backend": "cuda"},
        {"backend": ""},
        {"backend": "jit", "sanitize": True},
        {"backend": "jit", "profile": True},
    ],
)
def test_run_grid_and_runtime_share_the_backend_rule(options):
    from repro.cluster import make_cluster
    from repro.runtime.cucc import CuCCRuntime

    with pytest.raises(LaunchError) as from_grid:
        run_grid(_straight(), LaunchConfig.make(1, 4),
                 {"x": np.zeros(4, np.float32), "y": np.zeros(4, np.float32)},
                 **options)
    with pytest.raises(LaunchError) as from_runtime:
        CuCCRuntime(make_cluster("simd-focused", 2), **options)
    assert str(from_grid.value) == str(from_runtime.value)


# ---------------------------------------------------------------------------
# masked-access counter identity (satellite: _count_lines fix)
# ---------------------------------------------------------------------------


def test_masked_access_line_traffic_counts_active_lanes_only():
    """Partially-masked gather: inactive lanes' addresses must not widen
    the 64-byte-line span estimate, and interp/JIT must agree exactly."""
    kernel = parse_kernel("""
__global__ void gather(float* x, int* idx, float* y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = x[idx[i]]; }
}""")
    nlanes = 64
    idx = np.zeros(nlanes, dtype=np.int32)
    idx[:8] = np.arange(8)          # active lanes touch 8 contiguous cells
    idx[8:] = 4096 - 1              # inactive lanes point far away
    x = np.arange(4096, dtype=np.float32)

    mk = lambda: {"x": x.copy(), "idx": idx.copy(),
                  "y": np.zeros(nlanes, np.float32), "n": 8}
    ci = _run(kernel, 1, nlanes, mk(), "interp")
    cj = _run(kernel, 1, nlanes, mk(), "jit")
    assert ci.as_dict() == cj.as_dict()
    # 8 active lanes over 8 contiguous float32 cells = 32 bytes -> 1 line
    # per access statement; had inactive addresses leaked in, the span
    # would cover ~4096 cells (= 8 lines * 64B, capped by active lanes)
    assert ci.global_line_bytes <= 64.0 * 8 * 3


def test_compile_cache_save_survives_injected_partial_write(
    tmp_path, monkeypatch
):
    """Same atomicity contract as the tuning cache: a torn save must not
    corrupt the shared on-disk compile cache."""
    import repro.ioutil as ioutil

    path = tmp_path / "jit.json"
    cache = CompileCache(path=path)
    clear_memo()
    get_program(_straight(), (64, 1, 1), cache=cache)
    good = path.read_text()

    monkeypatch.setattr(
        ioutil.os, "replace",
        lambda *a: (_ for _ in ()).throw(OSError("disk full")),
    )
    with pytest.raises(OSError):
        cache.save()
    monkeypatch.undo()
    assert path.read_text() == good
    assert not (tmp_path / "jit.json.tmp").exists()
    # the surviving file is a complete, loadable document
    assert len(CompileCache.load(path)) == 1
