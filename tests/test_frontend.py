"""Unit tests for the CUDA-subset lexer, parser and Python DSL."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DSLError, ParseError
from repro.frontend.dsl import kernel as dsl_kernel, ptr
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_cuda, parse_kernel
from repro.interp import LaunchConfig, run_grid
from repro.ir import (
    F32,
    F64,
    I32,
    U32,
    Atomic,
    Cast,
    For,
    If,
    Kernel,
    Select,
    SyncThreads,
    While,
    iter_stmts,
    print_kernel,
)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------
def test_tokenize_basic():
    toks = tokenize("int x = a + 42;")
    kinds = [t.kind for t in toks]
    assert kinds == ["kw", "ident", "op", "ident", "op", "int", "op", "eof"]


def test_tokenize_floats():
    toks = tokenize("1.5f 2.0 .5 1e3 3f")
    assert [t.kind for t in toks[:-1]] == ["float"] * 5


def test_tokenize_hex_and_suffixes():
    toks = tokenize("0xFFu 123ul")
    assert [t.kind for t in toks[:-1]] == ["int", "int"]


def test_tokenize_comments_and_lines():
    toks = tokenize("a // comment\n/* block\ncomment */ b")
    assert [t.text for t in toks[:-1]] == ["a", "b"]
    assert toks[1].line == 3


def test_macro_expansion():
    toks = tokenize("#define N 1200\nint x = N;")
    assert any(t.kind == "int" and t.text == "1200" for t in toks)


def test_unknown_char_reports_location():
    with pytest.raises(ParseError, match="line"):
        tokenize("int x = `;")


# ---------------------------------------------------------------------------
# parser constructs
# ---------------------------------------------------------------------------
def test_parse_multiple_kernels():
    src = """
__global__ void a(float *x) { x[threadIdx.x] = 1.0f; }
__global__ void b(float *x) { x[threadIdx.x] = 2.0f; }
"""
    ks = parse_cuda(src)
    assert [k.name for k in ks] == ["a", "b"]


def test_parse_all_control_flow():
    src = """
__global__ void k(float *y, int n) {
    int i = 0;
    while (i < n) {
        if (i % 2 == 0) { i++; continue; }
        if (i > 100) break;
        i += 3;
    }
    for (int j = n; j > 0; j--) {
        y[j] = (float)j;
    }
    __syncthreads();
    return;
}
"""
    k = parse_kernel(src)
    stmts = list(iter_stmts(k.body))
    assert any(isinstance(s, While) for s in stmts)
    assert any(isinstance(s, For) for s in stmts)
    assert any(isinstance(s, SyncThreads) for s in stmts)


def test_parse_for_variants():
    src = """
__global__ void k(float *y) {
    for (int a = 0; a < 8; a++) y[a] = 0.0f;
    for (int b = 0; b <= 7; b += 2) y[b] = 1.0f;
    for (int c = 8; c >= 1; c--) y[c] = 2.0f;
    for (int d = 0; d < 8; d = d + 3) y[d] = 3.0f;
}
"""
    k = parse_kernel(src)
    fors = [s for s in iter_stmts(k.body) if isinstance(s, For)]
    assert len(fors) == 4


def test_parse_ternary_cast_unary():
    src = """
__global__ void k(float *y, int n) {
    int g = threadIdx.x;
    float v = (g < n) ? (float)g : -1.0f;
    y[g] = !false ? v : 0.0f;
}
"""
    k = parse_kernel(src)
    assert any(
        isinstance(e, Select)
        for s in iter_stmts(k.body)
        for ex in s.exprs()
        for e in [ex]
    ) or "?" in print_kernel(k)


def test_parse_compound_assignment_and_incdec():
    src = """
__global__ void k(int *y) {
    int a = 1;
    a += 2; a -= 1; a *= 3; a /= 2; a <<= 1; a++; a--;
    y[threadIdx.x] = a;
    y[threadIdx.x] += 5;
}
"""
    y = np.zeros(4, dtype=np.int32)
    run_grid(parse_kernel(src), LaunchConfig.make(1, 4), {"y": y})
    a = 1
    a += 2; a -= 1; a *= 3; a //= 2; a <<= 1; a += 1; a -= 1
    assert np.all(y == a + 5)


def test_parse_atomics_with_result():
    src = """
__global__ void k(int *ctr, int *slot) {
    int old = 0;
    old = atomicAdd(&ctr[0], 1);
    slot[threadIdx.x] = old;
    atomicMax(&ctr[1], threadIdx.x);
}
"""
    k = parse_kernel(src)
    atomics = [s for s in iter_stmts(k.body) if isinstance(s, Atomic)]
    assert [a.op for a in atomics] == ["add", "max"]
    assert atomics[0].result == "old"


def test_parse_shared_memory():
    src = """
__global__ void k(float *y) {
    __shared__ float tile[128];
    tile[threadIdx.x] = 1.0f;
    __syncthreads();
    y[threadIdx.x] = tile[127 - threadIdx.x];
}
"""
    y = np.zeros(128, dtype=np.float32)
    run_grid(parse_kernel(src), LaunchConfig.make(1, 128), {"y": y})
    assert np.all(y == 1.0)


def test_parse_intrinsic_mapping():
    src = """
__global__ void k(float *y) {
    float x = 2.0f;
    y[0] = sqrtf(x) + expf(x) + fminf(x, 1.0f) + fabsf(-x) + powf(x, 2.0f);
}
"""
    k = parse_kernel(src)
    text = print_kernel(k)
    for name in ("sqrt", "exp", "min", "fabs", "pow"):
        assert name in text


def test_parse_unsigned_arithmetic():
    src = """
__global__ void k(uint *y) {
    uint s = (uint)threadIdx.x * 2654435761u;
    y[threadIdx.x] = s;
}
"""
    y = np.zeros(8, dtype=np.uint32)
    run_grid(parse_kernel(src), LaunchConfig.make(1, 8), {"y": y})
    ref = (np.arange(8, dtype=np.uint64) * 2654435761) % (1 << 32)
    assert np.array_equal(y, ref.astype(np.uint32))


def test_parse_const_restrict_qualifiers():
    src = "__global__ void k(const float *__restrict__ x, float *y) { y[0] = x[0]; }"
    k = parse_kernel(src)
    assert [p.name for p in k.params] == ["x", "y"]


# ---------------------------------------------------------------------------
# parser error cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "src,msg",
    [
        ("__global__ void k() { undeclared = 1; }", "undeclared"),
        ("__global__ void k(int n) { return n; }", "return"),
        ("__global__ void k(float *y) { y[0] = nosuchfn(1.0f); }",
         "unknown function"),
        ("__global__ void k(int **p) { }", "pointer-to-pointer"),
        ("__global__ void k(float *y) { for (int i = 0; 1 < 2; i++) {} }",
         "loop variable"),
        ("int global_var = 3;", "__global__"),
        ("__global__ void k(float *y) { y[0] = x[0]; }", "undeclared"),
    ],
)
def test_parse_errors(src, msg):
    with pytest.raises(ParseError, match=msg):
        parse_cuda(src)


def test_parse_error_has_location():
    try:
        parse_kernel("__global__ void k(float *y) {\n  y[0] = zzz;\n}")
    except ParseError as e:
        assert "line 2" in str(e)
    else:  # pragma: no cover
        pytest.fail("expected ParseError")


# ---------------------------------------------------------------------------
# same source, same objects
# ---------------------------------------------------------------------------
VEC_COPY = """
__global__ void vec_copy(const char *src, char *dest, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) dest[id] = src[id];
}
"""


def test_same_source_parses_to_the_same_kernel_objects():
    a, b = parse_kernel(VEC_COPY), parse_kernel(VEC_COPY)
    assert a is b and a.source == VEC_COPY
    two = VEC_COPY + VEC_COPY.replace("vec_copy", "vec_copy2")
    first, second = parse_cuda(two), parse_cuda(two)
    assert first is not second  # callers own the list ...
    assert all(x is y for x, y in zip(first, second))  # ... not the IR
    assert [k.name for k in first] == ["vec_copy", "vec_copy2"]
    # a different text is a different kernel, equal IR or not
    other = parse_kernel(VEC_COPY + "\n")
    assert other is not a and other.body == a.body


def test_parse_error_is_raised_again_not_remembered():
    bad = "__global__ void k(float *y) {\n  y[0] = zzz;\n}"
    for _ in range(2):
        with pytest.raises(ParseError, match="undeclared") as e:
            parse_kernel(bad)
        assert (e.value.line, e.value.col) == (2, 10)
    # two kernels where one was asked for: parsed fine, refused every time
    two = VEC_COPY + VEC_COPY.replace("vec_copy", "vec_copy2")
    for _ in range(2):
        with pytest.raises(ParseError, match="exactly 1 kernel"):
            parse_kernel(two)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_parse_memo_stays_bounded(n):
    """A stream of distinct sources (one per served job, say) cannot grow
    the memo; the newest source is always the one remembered."""
    from repro.frontend import parser

    src = f"__global__ void k(int *y) {{ y[0] = {n}; }}"
    k = parse_kernel(src)
    assert len(parser._PARSED) <= parser._PARSED_MAX
    assert parse_kernel(src) is k


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------
def test_dsl_builds_kernel():
    @dsl_kernel(x=ptr(F32), y=ptr(F32), n=I32)
    def scale(b, x, y, n):
        gid = b.let("gid", b.bid_x * b.bdim_x + b.tid_x)
        with b.if_(gid < n):
            b.store(y, gid, b.load(x, gid) * 3.0)

    assert isinstance(scale, Kernel)
    assert scale.name == "scale"
    x = np.arange(10, dtype=np.float32)
    y = np.zeros(10, dtype=np.float32)
    run_grid(scale, LaunchConfig.make(2, 8), {"x": x, "y": y, "n": 10})
    assert np.allclose(y, 3 * x)


def test_dsl_name_override_and_errors():
    @dsl_kernel(name="custom", x=ptr(F32))
    def whatever(b, x):
        b.store(x, b.tid_x, 0.0)

    assert whatever.name == "custom"

    with pytest.raises(DSLError):
        @dsl_kernel(x="not a type")
        def bad(b, x):
            pass

    with pytest.raises(DSLError):
        @dsl_kernel(x=ptr(F32))
        def returns_something(b, x):
            return 42


def test_do_while():
    src = """
__global__ void k(int *y) {
    int t = threadIdx.x;
    int i = 0;
    do { i++; } while (i < t);
    y[t] = i;
}
"""
    y = np.zeros(6, dtype=np.int32)
    run_grid(parse_kernel(src), LaunchConfig.make(1, 6), {"y": y})
    # body runs at least once: i == max(1, t)
    assert list(y) == [max(1, t) for t in range(6)]


def test_else_if_chain():
    src = """
__global__ void k(int *y) {
    int t = threadIdx.x;
    if (t < 2) y[t] = 10;
    else if (t < 4) y[t] = 20;
    else y[t] = 30;
}
"""
    y = np.zeros(6, dtype=np.int32)
    run_grid(parse_kernel(src), LaunchConfig.make(1, 6), {"y": y})
    assert list(y) == [10, 10, 20, 20, 30, 30]
