"""Recursive-descent parser for the CUDA C subset.

Parses ``__global__`` kernel definitions straight into the kernel IR
(:mod:`repro.ir`), which doubles as the AST — the IR was designed to be
exactly the abstraction level the Allgather distributable analysis needs,
so a separate surface AST would only be re-lowered node-for-node.

Supported subset (everything the paper's workloads and kernel zoos use):

* scalar and pointer parameters, ``const``/``__restrict__`` qualifiers;
* declarations with initializers, per-thread local arrays
  (``float acc[8];``), assignment (incl. ``+=`` family, ``++``/``--``),
  expression statements;
* ``if``/``else``, canonical counted ``for`` loops, ``while``,
  ``do``/``while``, ``return``, ``break``, ``continue``;
* full C expression grammar: ternary, logical, bitwise, shifts,
  comparisons, arithmetic, casts, array indexing;
* CUDA builtins (``threadIdx.x`` ...), ``__syncthreads()``,
  ``__shared__`` arrays, ``atomicAdd``-family builtins, and the usual
  math intrinsics (``sqrtf``, ``expf``, ``fminf``, ...).

Everything outside the subset raises :class:`~repro.errors.ParseError`
with a source location.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend.lexer import Token, tokenize
from repro.ir.expr import (
    BinOp,
    Call,
    Cast,
    Const,
    Expr,
    Load,
    Param,
    Select,
    SReg,
    SRegKind,
    UnOp,
    Var,
)
from repro.ir.stmt import (
    AllocLocal,
    AllocShared,
    Assign,
    Atomic,
    Break,
    Continue,
    For,
    If,
    Kernel,
    KernelParam,
    Return,
    Stmt,
    Store,
    SyncThreads,
    While,
)
from repro.ir.types import (
    BOOL,
    F32,
    F64,
    I32,
    I64,
    AddressSpace,
    DType,
    PointerType,
    dtype_from_name,
)
from repro.ir.validate import validate_kernel

__all__ = ["parse_cuda", "parse_kernel"]

_SREGS = {
    ("threadIdx", "x"): SRegKind.TID_X,
    ("threadIdx", "y"): SRegKind.TID_Y,
    ("threadIdx", "z"): SRegKind.TID_Z,
    ("blockIdx", "x"): SRegKind.CTAID_X,
    ("blockIdx", "y"): SRegKind.CTAID_Y,
    ("blockIdx", "z"): SRegKind.CTAID_Z,
    ("blockDim", "x"): SRegKind.NTID_X,
    ("blockDim", "y"): SRegKind.NTID_Y,
    ("blockDim", "z"): SRegKind.NTID_Z,
    ("gridDim", "x"): SRegKind.NCTAID_X,
    ("gridDim", "y"): SRegKind.NCTAID_Y,
    ("gridDim", "z"): SRegKind.NCTAID_Z,
}

#: CUDA math builtins -> IR intrinsic names
_INTRINSIC_MAP = {
    "sqrtf": "sqrt", "sqrt": "sqrt", "__fsqrt_rn": "sqrt",
    "rsqrtf": "rsqrt", "rsqrt": "rsqrt",
    "expf": "exp", "exp": "exp", "__expf": "exp",
    "exp2f": "exp2", "exp2": "exp2",
    "logf": "log", "log": "log", "__logf": "log",
    "log2f": "log2", "log2": "log2",
    "sinf": "sin", "sin": "sin", "__sinf": "sin",
    "cosf": "cos", "cos": "cos", "__cosf": "cos",
    "tanhf": "tanh", "tanh": "tanh",
    "erff": "erf", "erf": "erf",
    "fabsf": "fabs", "fabs": "fabs",
    "floorf": "floor", "floor": "floor",
    "ceilf": "ceil", "ceil": "ceil",
    "powf": "pow", "pow": "pow", "__powf": "pow",
    "fmodf": "fmod", "fmod": "fmod",
    "abs": "abs",
    "fminf": "min", "fmin": "min", "min": "min",
    "fmaxf": "max", "fmax": "max", "max": "max",
}

_ATOMICS = {
    "atomicAdd": "add",
    "atomicSub": "sub",
    "atomicMin": "min",
    "atomicMax": "max",
    "atomicExch": "exch",
    "atomicCAS": "cas",
}

_TYPE_KEYWORDS = frozenset(
    {
        "bool", "char", "short", "int", "long", "float", "double",
        "unsigned", "signed", "size_t",
        "uchar", "ushort", "uint", "ulong",
        "int8_t", "int16_t", "int32_t", "int64_t",
        "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    }
)

# binary operator precedence levels for precedence climbing
_BIN_LEVELS: list[list[str]] = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

_ASSIGN_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
               "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        # lexical scopes: name -> declared type (params + locals + shared)
        self.scopes: list[dict[str, DType | PointerType]] = []

    # -- token stream ---------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg + f" (at {t.text!r})", t.line, t.col)

    # -- scopes -------------------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, type_) -> None:
        self.scopes[-1][name] = type_

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # -- types ---------------------------------------------------------------
    def at_type(self) -> bool:
        t = self.peek()
        return t.kind == "kw" and (t.text in _TYPE_KEYWORDS or t.text == "const")

    def parse_scalar_type(self) -> DType:
        words = []
        while self.peek().kind == "kw" and (
            self.peek().text in _TYPE_KEYWORDS or self.peek().text == "const"
        ):
            w = self.next().text
            if w in ("const", "signed"):
                continue
            words.append(w)
        if not words:
            raise self.error("expected a type")
        return dtype_from_name(" ".join(words))

    # -- kernels ---------------------------------------------------------------
    def parse_unit(self) -> list[Kernel]:
        kernels = []
        while self.peek().kind != "eof":
            if self.at("__global__"):
                kernels.append(self.parse_kernel())
            else:
                t = self.peek()
                raise ParseError(
                    f"only __global__ kernel definitions are supported at top "
                    f"level, found {t.text!r}",
                    t.line,
                    t.col,
                )
        return kernels

    def parse_kernel(self) -> Kernel:
        self.expect("__global__")
        self.expect("void")
        name_tok = self.next()
        if name_tok.kind != "ident":
            raise ParseError(
                f"expected kernel name, found {name_tok.text!r}",
                name_tok.line,
                name_tok.col,
            )
        self.expect("(")
        params: list[KernelParam] = []
        self.push_scope()
        if not self.at(")"):
            while True:
                params.append(self.parse_param())
                if not self.accept(","):
                    break
        self.expect(")")
        for p in params:
            self.declare(p.name, p.type)
        self.expect("{")
        body: list[Stmt] = []
        self.push_scope()
        while not self.accept("}"):
            self.parse_stmt(body)
        self.pop_scope()
        self.pop_scope()
        kernel = Kernel(name_tok.text, params, body)
        validate_kernel(kernel)
        return kernel

    def parse_param(self) -> KernelParam:
        base = self.parse_scalar_type()
        is_ptr = False
        while self.accept("*"):
            if is_ptr:
                raise self.error("pointer-to-pointer parameters not supported")
            is_ptr = True
        while self.peek().text in ("const", "__restrict__"):
            self.next()
        t = self.next()
        if t.kind != "ident":
            raise ParseError(f"expected parameter name, found {t.text!r}", t.line, t.col)
        type_: DType | PointerType = (
            PointerType(base, AddressSpace.GLOBAL) if is_ptr else base
        )
        return KernelParam(t.name if hasattr(t, "name") else t.text, type_)

    # -- statements -------------------------------------------------------------
    def parse_stmt(self, out: list[Stmt]) -> None:
        start = len(out)
        line = self.peek().line
        self._parse_stmt_inner(out)
        # stamp the source line on every statement this call produced;
        # nested statements were stamped by their own parse_stmt calls
        for s in out[start:]:
            if s.loc is None:
                s.loc = line

    def _parse_stmt_inner(self, out: list[Stmt]) -> None:
        t = self.peek()
        if t.text == ";":
            self.next()
            return
        if t.text == "{":
            self.next()
            self.push_scope()
            while not self.accept("}"):
                self.parse_stmt(out)
            self.pop_scope()
            return
        if t.text == "__shared__":
            out.append(self.parse_shared_decl())
            return
        if t.text == "if":
            out.append(self.parse_if())
            return
        if t.text == "for":
            out.append(self.parse_for())
            return
        if t.text == "while":
            out.append(self.parse_while())
            return
        if t.text == "do":
            out.append(self.parse_do_while())
            return
        if t.text == "return":
            self.next()
            if not self.accept(";"):
                raise self.error("kernels return void; 'return <expr>' invalid")
            out.append(Return())
            return
        if t.text == "break":
            self.next()
            self.expect(";")
            out.append(Break())
            return
        if t.text == "continue":
            self.next()
            self.expect(";")
            out.append(Continue())
            return
        if t.text == "__syncthreads":
            self.next()
            self.expect("(")
            self.expect(")")
            self.expect(";")
            out.append(SyncThreads())
            return
        if self.at_type():
            self.parse_decl(out)
            self.expect(";")
            return
        # expression statement: assignment, ++/--, or atomic call
        out.append(self.parse_expr_stmt())
        self.expect(";")

    def parse_shared_decl(self) -> AllocShared:
        self.expect("__shared__")
        elem = self.parse_scalar_type()
        name = self.next()
        if name.kind != "ident":
            raise ParseError(
                f"expected shared array name, found {name.text!r}",
                name.line,
                name.col,
            )
        self.expect("[")
        size = self.parse_expr()
        self.expect("]")
        if self.at("["):
            raise self.error(
                "multi-dimensional __shared__ arrays not supported; linearize"
            )
        self.expect(";")
        self.declare(name.text, PointerType(elem, AddressSpace.SHARED))
        return AllocShared(name.text, elem, size)

    def parse_decl(self, out: list[Stmt]) -> None:
        base = self.parse_scalar_type()
        while True:
            if self.at("*"):
                raise self.error("local pointer declarations not supported")
            t = self.next()
            if t.kind != "ident":
                raise ParseError(
                    f"expected variable name, found {t.text!r}", t.line, t.col
                )
            if self.at("["):
                # per-thread local array: `float acc[8];`
                self.expect("[")
                size = self.parse_expr()
                self.expect("]")
                if self.at("["):
                    raise self.error(
                        "multi-dimensional local arrays not supported; linearize"
                    )
                if self.at("="):
                    raise self.error("local array initializers not supported")
                self.declare(t.text, PointerType(base, AddressSpace.LOCAL))
                out.append(AllocLocal(t.text, base, size))
                if not self.accept(","):
                    break
                continue
            if self.accept("="):
                value = self.parse_assign_rhs()
            else:
                value = Const(0, base) if not base.is_float else Const(0.0, base)
            value = _coerce(value, base)
            self.declare(t.text, base)
            out.append(Assign(t.text, value, type=base, declare=True))
            if not self.accept(","):
                break

    def parse_if(self) -> If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body: list[Stmt] = []
        self.push_scope()
        self.parse_stmt(then_body)
        self.pop_scope()
        else_body: list[Stmt] = []
        if self.accept("else"):
            self.push_scope()
            self.parse_stmt(else_body)
            self.pop_scope()
        return If(cond, then_body, else_body)

    def parse_while(self) -> While:
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body: list[Stmt] = []
        self.push_scope()
        self.parse_stmt(body)
        self.pop_scope()
        return While(cond, body)

    def parse_do_while(self) -> While:
        """``do { body } while (cond);`` desugars to
        ``while (true) { body; if (!cond) break; }`` — body executes at
        least once, no statement duplication."""
        self.expect("do")
        body: list[Stmt] = []
        self.push_scope()
        self.parse_stmt(body)
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect(";")
        self.pop_scope()
        body.append(If(UnOp("!", cond), [Break()], []))
        return While(Const(True, BOOL), body)

    def parse_for(self) -> For:
        self.expect("for")
        self.expect("(")
        self.push_scope()
        # init: declaration `int i = e` or assignment `i = e`
        if self.at_type():
            base = self.parse_scalar_type()
            var_tok = self.next()
            var = var_tok.text
            self.expect("=")
            start = _coerce(self.parse_expr(), base)
            self.declare(var, base)
        else:
            var_tok = self.next()
            var = var_tok.text
            declared = self.lookup(var)
            if declared is None or isinstance(declared, PointerType):
                raise ParseError(
                    f"loop variable {var!r} is not a declared integer",
                    var_tok.line,
                    var_tok.col,
                )
            self.expect("=")
            start = _coerce(self.parse_expr(), declared)
        self.expect(";")
        # condition: var </<=/>/>= bound
        cond_var = self.next()
        if cond_var.text != var:
            raise ParseError(
                f"for-loop condition must test the loop variable {var!r}",
                cond_var.line,
                cond_var.col,
            )
        rel = self.next().text
        if rel not in ("<", "<=", ">", ">="):
            raise self.error("for-loop condition must be a comparison")
        bound = self.parse_expr()
        self.expect(";")
        # increment: var++ / var-- / var += e / var -= e / var = var + e
        inc_var = self.next()
        if inc_var.text != var:
            raise ParseError(
                f"for-loop increment must update {var!r}", inc_var.line, inc_var.col
            )
        t = self.next()
        one = Const(1, I32)
        if t.text == "++":
            step: Expr = one
        elif t.text == "--":
            step = UnOp("-", one)
        elif t.text == "+=":
            step = self.parse_expr()
        elif t.text == "-=":
            step = UnOp("-", self.parse_expr())
        elif t.text == "=":
            e = self.parse_expr()
            step = _extract_step(e, var)
            if step is None:
                raise ParseError(
                    f"unsupported for-loop increment for {var!r}", t.line, t.col
                )
        else:
            raise ParseError(
                f"unsupported for-loop increment {t.text!r}", t.line, t.col
            )
        self.expect(")")
        # normalize <= / >= bounds to the IR's exclusive convention
        if rel == "<=":
            stop: Expr = BinOp("+", bound, one)
        elif rel == ">=":
            stop = BinOp("-", bound, one)
        else:
            stop = bound
        body: list[Stmt] = []
        self.parse_stmt(body)
        self.pop_scope()
        return For(var, start, stop, step, body)

    def parse_expr_stmt(self) -> Stmt:
        t = self.peek()
        # atomic builtin as a statement
        if t.kind == "ident" and t.text in _ATOMICS:
            return self.parse_atomic(result=None)
        if t.kind != "ident":
            raise self.error("expected a statement")
        name = t.text
        nxt = self.peek(1).text
        if nxt == "[" or (self.lookup(name) is not None and not isinstance(
            self.lookup(name), PointerType
        )):
            pass  # fall through to target parsing
        # parse target: ident or ident[expr]
        self.next()
        declared = self.lookup(name)
        if declared is None:
            raise ParseError(
                f"assignment to undeclared variable {name!r}", t.line, t.col
            )
        if self.at("["):
            if not isinstance(declared, PointerType):
                raise ParseError(f"{name!r} is not indexable", t.line, t.col)
            self.expect("[")
            index = self.parse_expr()
            self.expect("]")
            ptr = self._name_ref(name, declared)
            op_tok = self.next()
            if op_tok.text == "=":
                value = self.parse_assign_rhs()
            elif op_tok.text in _ASSIGN_OPS:
                value = BinOp(
                    _ASSIGN_OPS[op_tok.text], Load(ptr, index), self.parse_assign_rhs()
                )
            elif op_tok.text == "++":
                value = BinOp("+", Load(ptr, index), Const(1, I32))
            elif op_tok.text == "--":
                value = BinOp("-", Load(ptr, index), Const(1, I32))
            else:
                raise ParseError(
                    f"expected assignment, found {op_tok.text!r}",
                    op_tok.line,
                    op_tok.col,
                )
            return Store(ptr, index, _coerce(value, declared.elem))
        # scalar variable target
        if isinstance(declared, PointerType):
            raise ParseError(
                f"cannot assign to pointer {name!r}", t.line, t.col
            )
        var = Var(name, declared)
        op_tok = self.next()
        if op_tok.text == "=":
            # maybe `old = atomicAdd(...)`
            if self.peek().kind == "ident" and self.peek().text in _ATOMICS:
                return self.parse_atomic(result=name)
            value = self.parse_assign_rhs()
        elif op_tok.text in _ASSIGN_OPS:
            value = BinOp(_ASSIGN_OPS[op_tok.text], var, self.parse_assign_rhs())
        elif op_tok.text == "++":
            value = BinOp("+", var, Const(1, I32))
        elif op_tok.text == "--":
            value = BinOp("-", var, Const(1, I32))
        else:
            raise ParseError(
                f"expected assignment, found {op_tok.text!r}", op_tok.line, op_tok.col
            )
        return Assign(name, _coerce(value, declared), type=declared, declare=False)

    def parse_atomic(self, result: str | None) -> Atomic:
        t = self.next()
        op = _ATOMICS[t.text]
        self.expect("(")
        self.expect("&")
        name_tok = self.next()
        declared = self.lookup(name_tok.text)
        if not isinstance(declared, PointerType):
            raise ParseError(
                f"atomic target {name_tok.text!r} is not an array",
                name_tok.line,
                name_tok.col,
            )
        ptr = self._name_ref(name_tok.text, declared)
        self.expect("[")
        index = self.parse_expr()
        self.expect("]")
        self.expect(",")
        compare = None
        if op == "cas":
            compare = self.parse_expr()
            self.expect(",")
        value = _coerce(self.parse_expr(), declared.elem)
        self.expect(")")
        if result is not None:
            self.declare(result, declared.elem)
        return Atomic(op, ptr, index, value, result=result, compare=compare)

    def parse_assign_rhs(self) -> Expr:
        return self.parse_expr()

    # -- expressions ------------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            a = self.parse_ternary()
            self.expect(":")
            b = self.parse_ternary()
            return Select(cond, a, b)
        return cond

    def parse_binary(self, level: int) -> Expr:
        if level >= len(_BIN_LEVELS):
            return self.parse_unary()
        ops = _BIN_LEVELS[level]
        lhs = self.parse_binary(level + 1)
        while self.peek().text in ops:
            op = self.next().text
            rhs = self.parse_binary(level + 1)
            lhs = BinOp(op, lhs, rhs)
        return lhs

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.text == "-":
            self.next()
            return UnOp("-", self.parse_unary())
        if t.text == "!":
            self.next()
            return UnOp("!", self.parse_unary())
        if t.text == "~":
            self.next()
            return UnOp("~", self.parse_unary())
        if t.text == "+":
            self.next()
            return self.parse_unary()
        if t.text == "(":
            # cast or parenthesized expression
            nxt = self.peek(1)
            if nxt.kind == "kw" and nxt.text in _TYPE_KEYWORDS:
                self.next()
                ty = self.parse_scalar_type()
                if self.at("*"):
                    raise self.error("pointer casts not supported")
                self.expect(")")
                return Cast(ty, self.parse_unary())
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return self.parse_postfix(e)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        t = self.next()
        if t.kind == "int":
            text = t.text.rstrip("uUlL")
            value = int(text, 16) if text.lower().startswith("0x") else int(text)
            return Const(value, I32 if -(2**31) <= value < 2**31 else I64)
        if t.kind == "float":
            is_f32 = t.text[-1] in "fF"
            text = t.text.rstrip("fF")
            return Const(float(text), F32 if is_f32 else F64)
        if t.kind == "kw" and t.text in ("true", "false"):
            return Const(t.text == "true", BOOL)
        if t.kind != "ident":
            raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)
        name = t.text
        # CUDA builtin registers
        if name in ("threadIdx", "blockIdx", "blockDim", "gridDim"):
            self.expect(".")
            axis = self.next()
            key = (name, axis.text)
            if key not in _SREGS:
                raise ParseError(
                    f"unknown builtin {name}.{axis.text}", axis.line, axis.col
                )
            return SReg(_SREGS[key])
        # intrinsic call
        if self.at("(") and name in _INTRINSIC_MAP:
            self.next()
            args = []
            if not self.at(")"):
                while True:
                    args.append(self.parse_expr())
                    if not self.accept(","):
                        break
            self.expect(")")
            return Call(_INTRINSIC_MAP[name], tuple(args))
        if self.at("(") and name in _ATOMICS:
            raise ParseError(
                f"{name} may only appear as a statement or the sole RHS of an "
                "assignment",
                t.line,
                t.col,
            )
        if self.at("("):
            raise ParseError(f"unknown function {name!r}", t.line, t.col)
        declared = self.lookup(name)
        if declared is None:
            raise ParseError(f"use of undeclared identifier {name!r}", t.line, t.col)
        ref = self._name_ref(name, declared)
        return self.parse_postfix(ref)

    def parse_postfix(self, e: Expr) -> Expr:
        while self.at("["):
            if not isinstance(getattr(e, "type", None), PointerType):
                raise self.error("only pointers can be indexed")
            self.next()
            index = self.parse_expr()
            self.expect("]")
            e = Load(e, index)
        return e

    def _name_ref(self, name: str, declared) -> Expr:
        """A reference expression for a declared name (Param or Var)."""
        if name in self.scopes[0]:
            return Param(name, declared)
        return Var(name, declared)


def _coerce(e: Expr, target: DType) -> Expr:
    """Implicit C conversion of an expression to a declared type."""
    if e.dtype == target:
        return e
    if isinstance(e, Const):
        if target.is_float:
            return Const(float(e.value), target)
        if not e.type.is_float:
            return Const(int(e.value), target)
    return Cast(target, e)


def _extract_step(e: Expr, var: str) -> Expr | None:
    """Extract the step from ``var = var + k`` / ``var = var - k`` forms."""
    if isinstance(e, BinOp) and e.op in ("+", "-"):
        if isinstance(e.lhs, Var) and e.lhs.name == var:
            return e.rhs if e.op == "+" else UnOp("-", e.rhs)
        if e.op == "+" and isinstance(e.rhs, Var) and e.rhs.name == var:
            return e.lhs
    return None


#: source text -> its parsed kernels.  Parsing is a pure function of the
#: text and the IR is treated as immutable downstream, so repeat parses
#: (a served job re-building its workload) hand back the same objects —
#: which is what lets the products the runtime and the JIT hang on a
#: ``Kernel`` (compiled passes, specialization keys) be reused across
#: jobs.  Bounded FIFO: a stream of distinct sources cannot grow it.
_PARSED: dict[str, tuple[Kernel, ...]] = {}
_PARSED_MAX = 64


def parse_cuda(source: str) -> list[Kernel]:
    """Parse CUDA source containing one or more ``__global__`` kernels.

    The same source text yields the same ``Kernel`` objects (do not
    mutate them); a source that fails to parse is never remembered, so
    it raises its located :class:`~repro.errors.ParseError` every time.
    """
    kernels = _PARSED.get(source)
    if kernels is None:
        kernels = tuple(_Parser(tokenize(source)).parse_unit())
        for k in kernels:
            k.source = source
        if len(_PARSED) >= _PARSED_MAX:
            del _PARSED[next(iter(_PARSED))]
        _PARSED[source] = kernels
    return list(kernels)


def parse_kernel(source: str) -> Kernel:
    """Parse CUDA source expected to contain exactly one kernel."""
    kernels = parse_cuda(source)
    if len(kernels) != 1:
        raise ParseError(f"expected exactly 1 kernel, found {len(kernels)}")
    return kernels[0]
