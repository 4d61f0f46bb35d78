"""Symbolic tile-body interpreter: AST -> per-tile footprint.

:func:`analyze_method` abstractly executes one tile body over the
symbolic tile ``(TX, TY, TW, TH)`` (grid position ``(TR, TC)``) and
records every buffer access as a :class:`~repro.staticcheck.sym.SymRect`:

* ``ctx.declare_access(reads=..., writes=...)`` region lists, including
  :func:`~repro.kernels.api.halo_region` calls (modeled *unclipped*, as
  the outer envelope ``[x-halo, x+w+halo)`` — a sound superset of the
  clipped dynamic declaration);
* ``ctx.img.cur_view / next_view`` windows and the scalar
  ``cur_img/set_cur`` accessors;
* direct NumPy subscripts of ``ctx.img.cur / nxt`` and of
  ``ctx.data[...]`` arrays.

The interpreter is *conservative*: any value it cannot express as an
affine function of the tile symbols collapses to TOP, and any buffer
touched through an unmodeled path is reported in
:attr:`BodyFootprint.unknown` — downstream this can only produce an
``unknown`` verdict, never a false ``clean``.

Helper methods called as ``self._helper(ctx, ...)`` are inlined with
the caller's symbolic arguments (bounded depth, cycle-guarded), which
is how ``blur``'s ``_declare_tile_access`` and ``heat``'s
``do_tile_delta`` contribute their declarations to the calling body.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field

from repro.staticcheck.sym import TOP, Affine, SymRect, const, is_top, sym

__all__ = ["BodyFootprint", "analyze_method", "analyze_node", "MAX_INLINE_DEPTH"]

MAX_INLINE_DEPTH = 6

# -- symbolic values ---------------------------------------------------------


class _Marker:
    def __init__(self, name):
        self.name = name

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{self.name}>"


SELF = _Marker("self")
CTX = _Marker("ctx")
IMG = _Marker("img")
DATA = _Marker("data")
GRID = _Marker("grid")
TILE = _Marker("tile")
OPAQUE = _Marker("opaque")
VIEW = _Marker("view")

_TILE_ATTRS = {"x": "TX", "y": "TY", "w": "TW", "h": "TH", "row": "TR", "col": "TC"}
_HALO_FNS = {"halo_region", "clipped_halo"}
_NONDET_MODULES = {"random", "time"}
_PASSTHROUGH_BUILTINS = {"list", "sorted", "reversed", "tuple"}


class BufVal:
    def __init__(self, name):
        self.name = name


class RegionVal:
    """A ``(buf, x, y, w, h)``-style region spec as a first-class value."""

    def __init__(self, rect: SymRect):
        self.rect = rect


class TupleVal:
    def __init__(self, items):
        self.items = list(items)


class ListVal:
    def __init__(self, items):
        self.items = list(items)


class FuncVal:
    def __init__(self, node, env):
        self.node = node
        self.env = env


class BoundMethod:
    def __init__(self, owner, attr):
        self.owner = owner
        self.attr = attr


class ModuleVal:
    def __init__(self, name):
        self.name = name


class BuiltinVal:
    def __init__(self, name):
        self.name = name


@dataclass
class BodyFootprint:
    """Everything the interpreter learned about one tile body."""

    reads: list = field(default_factory=list)      # [SymRect]
    writes: list = field(default_factory=list)     # [SymRect]
    declared: set = field(default_factory=set)     # buffers with declare_access cover
    data_reads: list = field(default_factory=list)   # [(key, line)]
    data_stores: list = field(default_factory=list)  # [(key, rmw, line)]
    self_stores: list = field(default_factory=list)  # [line]
    captured: list = field(default_factory=list)     # [(name, line)]
    nondet: list = field(default_factory=list)       # [(what, line)]
    unknown: list = field(default_factory=list)      # [reason]
    file: str = ""

    def rects(self, mode: str):
        return self.reads if mode == "r" else self.writes

    def buffers(self) -> set:
        return {r.buf for r in self.reads} | {r.buf for r in self.writes}


# -- source / AST helpers ----------------------------------------------------

_AST_CACHE: dict = {}


def _fn_ast(fn):
    """(FunctionDef node, file) for a plain function, with real line numbers."""
    key = getattr(fn, "__code__", fn)
    cached = _AST_CACHE.get(key)
    if cached is not None:
        return cached
    lines, start = inspect.getsourcelines(fn)
    src = textwrap.dedent("".join(lines))
    tree = ast.parse(src)
    ast.increment_lineno(tree, start - 1)
    node = tree.body[0]
    result = (node, inspect.getsourcefile(fn) or "<unknown>")
    _AST_CACHE[key] = result
    return result


# -- the interpreter ---------------------------------------------------------


class BodyAnalyzer:
    def __init__(self, kernel_cls, fp: BodyFootprint | None = None):
        self.kernel_cls = kernel_cls
        self.fp = fp or BodyFootprint()
        self._cond = 0
        self._stack: list = []

    # .. entry points ........................................................

    def run_method(self, fn, args, kwargs=None) -> object:
        """Inline one kernel method with pre-bound ``self``-less args."""
        name = getattr(fn, "__name__", "?")
        if name in self._stack or len(self._stack) >= MAX_INLINE_DEPTH:
            return TOP
        node, file = _fn_ast(fn)
        if not self.fp.file:
            self.fp.file = file
        params = [a.arg for a in node.args.args]
        env: dict = {}
        if params:
            env[params[0]] = SELF
        for pname, val in zip(params[1:], args):
            env[pname] = val
        for pname in params[1 + len(args):]:
            env[pname] = TOP
        for k, v in (kwargs or {}).items():
            env[k] = v
        self._stack.append(name)
        try:
            return self._run_block(node.body, env)
        finally:
            self._stack.pop()

    def run_node(self, node, env, args) -> object:
        """Inline a Lambda or nested FunctionDef with evaluated args."""
        if len(self._stack) >= MAX_INLINE_DEPTH:
            return TOP
        params = [a.arg for a in node.args.args]
        local = dict(env)
        for pname, val in zip(params, args):
            local[pname] = val
        for pname in params[len(args):]:
            local[pname] = TOP
        # lambda default args capture loop variables (t=t)
        for pname, default in zip(reversed(params), reversed(node.args.defaults)):
            if local[pname] is TOP:
                local[pname] = self.eval(default, env)
        self._stack.append("<lambda>")
        try:
            if isinstance(node, ast.Lambda):
                return self.eval(node.body, local)
            return self._run_block(node.body, local)
        finally:
            self._stack.pop()

    # .. statements ..........................................................

    def _run_block(self, stmts, env) -> object:
        returns: list = []
        self._exec_block(stmts, env, returns)
        if len(returns) == 1:
            return returns[0]
        return TOP

    def _exec_block(self, stmts, env, returns):
        for stmt in stmts:
            self._exec(stmt, env, returns)

    def _exec(self, stmt, env, returns):
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, ast.Assign):
            before = len(self.fp.data_reads)
            value = self.eval(stmt.value, env)
            rhs_keys = {k for k, _ in self.fp.data_reads[before:]}
            for target in stmt.targets:
                self._assign(target, value, env, rhs_keys)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self.eval(stmt.value, env)
            self._assign(stmt.target, value, env, set())
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt, env)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            self._cond += 1
            self._exec_block(stmt.body, env, returns)
            self._exec_block(stmt.orelse, env, returns)
            self._cond -= 1
        elif isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                itval = self.eval(stmt.iter, env)
                bind = TILE if itval is GRID else TOP
                self._assign(stmt.target, bind, env, set())
            else:
                self.eval(stmt.test, env)
            self._cond += 1
            self._exec_block(stmt.body, env, returns)
            self._exec_block(stmt.orelse, env, returns)
            self._cond -= 1
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                val = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, val, env, set())
            self._exec_block(stmt.body, env, returns)
        elif isinstance(stmt, ast.Return):
            returns.append(TOP if stmt.value is None else self.eval(stmt.value, env))
        elif isinstance(stmt, ast.FunctionDef):
            env[stmt.name] = FuncVal(stmt, env)
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                self.fp.captured.append((name, stmt.lineno))
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env, returns)
            for handler in stmt.handlers:
                self._exec_block(handler.body, env, returns)
            self._exec_block(stmt.orelse, env, returns)
            self._exec_block(stmt.finalbody, env, returns)
        elif isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Assert,
                               ast.Raise, ast.Import, ast.ImportFrom)):
            pass
        else:
            self.fp.unknown.append(
                f"unmodeled statement {type(stmt).__name__} at line {stmt.lineno}"
            )

    def _assign(self, target, value, env, rhs_keys):
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = [e for e in target.elts]
            if isinstance(value, TupleVal) and len(value.items) == len(elts):
                for t, v in zip(elts, value.items):
                    self._assign(t, v, env, rhs_keys)
            else:
                for t in elts:
                    self._assign(t, TOP, env, rhs_keys)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, TOP, env, rhs_keys)
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, env)
            if isinstance(base, BufVal):
                self._note(base.name, target.slice, env, "w", target.lineno)
            elif base is DATA:
                key = self._const_str(target.slice, env)
                if key is not None:
                    self.fp.data_stores.append((key, key in rhs_keys, target.lineno))
                else:
                    self.fp.unknown.append(
                        f"ctx.data store with non-literal key at line {target.lineno}"
                    )
            elif base is not VIEW:
                self.eval(target.slice, env)
        elif isinstance(target, ast.Attribute):
            base = self.eval(target.value, env)
            if base is SELF:
                self.fp.self_stores.append(target.lineno)

    def _aug_assign(self, stmt, env):
        self.eval(stmt.value, env)
        target = stmt.target
        if isinstance(target, ast.Name):
            env[target.id] = TOP
        elif isinstance(target, ast.Subscript):
            base = self.eval(target.value, env)
            if isinstance(base, BufVal):
                self._note(base.name, target.slice, env, "r", target.lineno)
                self._note(base.name, target.slice, env, "w", target.lineno)
            elif base is DATA:
                key = self._const_str(target.slice, env)
                if key is not None:
                    self.fp.data_reads.append((key, target.lineno))
                    self.fp.data_stores.append((key, True, target.lineno))
        elif isinstance(target, ast.Attribute):
            base = self.eval(target.value, env)
            if base is SELF:
                self.fp.self_stores.append(target.lineno)

    # .. expressions .........................................................

    def eval(self, node, env) -> object:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return const(int(node.value))
            if isinstance(node.value, int):
                return const(node.value)
            if isinstance(node.value, str):
                return node.value
            return TOP
        if isinstance(node, ast.Name):
            return self._name(node.id, env)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, env)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, env)
        if isinstance(node, ast.BinOp):
            return self._binop(node, env)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand, env)
            if isinstance(node.op, ast.USub) and isinstance(v, Affine):
                return v.scale(-1)
            return TOP
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
            return TOP
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            self._cond += 1
            self.eval(node.body, env)
            self.eval(node.orelse, env)
            self._cond -= 1
            return TOP
        if isinstance(node, ast.Call):
            return self._call(node, env)
        if isinstance(node, ast.Tuple):
            return TupleVal([self.eval(e, env) for e in node.elts])
        if isinstance(node, ast.List):
            return ListVal([self.eval(e, env) for e in node.elts])
        if isinstance(node, ast.Lambda):
            return FuncVal(node, env)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, (ast.Dict, ast.Set, ast.JoinedStr, ast.FormattedValue)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
            return TOP
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            if any(isinstance(n, ast.Attribute) and n.attr in
                   ("cur", "nxt", "data", "img", "cur_view", "next_view")
                   for n in ast.walk(node)):
                self.fp.unknown.append(
                    f"buffer access inside a comprehension at line {node.lineno} "
                    "is not modeled"
                )
            return TOP
        if isinstance(node, ast.Slice):
            return TOP
        return TOP

    def _name(self, name, env):
        if name in env:
            return env[name]
        if name in _HALO_FNS:
            return BuiltinVal(name)
        if name in _NONDET_MODULES:
            return ModuleVal(name)
        if name in ("np", "numpy", "math"):
            return ModuleVal(name)
        if name in ("min", "max", "abs", "len", "range", "int", "float", "bool",
                    "sum", "enumerate", "zip", "print", *_PASSTHROUGH_BUILTINS):
            return BuiltinVal(name)
        return OPAQUE

    def _attribute(self, node, env):
        base = self.eval(node.value, env)
        attr = node.attr
        if base is TILE:
            if attr in _TILE_ATTRS:
                return sym(_TILE_ATTRS[attr])
            if attr == "as_rect":
                return BoundMethod(TILE, attr)
            return TOP
        if base is CTX:
            if attr == "img":
                return IMG
            if attr == "data":
                return DATA
            if attr in ("dim", "DIM"):
                return sym("DIM")
            if attr == "grid":
                return GRID
            return BoundMethod(CTX, attr)
        if base is IMG:
            if attr == "cur":
                return BufVal("cur")
            if attr == "nxt":
                return BufVal("next")
            return BoundMethod(IMG, attr)
        if base is SELF:
            return BoundMethod(SELF, attr)
        if base is DATA:
            return BoundMethod(DATA, attr)
        if isinstance(base, ModuleVal):
            if base.name in _NONDET_MODULES:
                return BoundMethod(base, attr)
            if base.name in ("np", "numpy") and attr == "random":
                return ModuleVal("np.random")
            if base.name == "np.random":
                return BoundMethod(base, attr)
            return BuiltinVal(f"{base.name}.{attr}")
        if isinstance(base, (BufVal, ListVal)) or base is VIEW or base is GRID:
            return BoundMethod(base, attr)
        return TOP

    def _subscript(self, node, env):
        base = self.eval(node.value, env)
        if base is DATA:
            key = self._const_str(node.slice, env)
            if key is None:
                self.eval(node.slice, env)
                return TOP
            self.fp.data_reads.append((key, node.lineno))
            return BufVal(key)
        if isinstance(base, BufVal):
            self._note(base.name, node.slice, env, "r", node.lineno)
            return TOP
        if isinstance(base, TupleVal):
            idx = self.eval(node.slice, env)
            if isinstance(idx, Affine) and idx.is_const and 0 <= idx.k < len(base.items):
                return base.items[idx.k]
            return TOP
        self.eval(node.slice, env)
        return TOP

    def _binop(self, node, env):
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(left, Affine) and isinstance(right, Affine):
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                if right.is_const:
                    return left.scale(right.k)
                if left.is_const:
                    return right.scale(left.k)
            if left.is_const and right.is_const:
                if isinstance(node.op, ast.FloorDiv) and right.k:
                    return const(left.k // right.k)
                if isinstance(node.op, ast.Mod) and right.k:
                    return const(left.k % right.k)
        return TOP

    # .. calls ...............................................................

    def _call(self, node, env):
        fn = self.eval(node.func, env)
        if isinstance(fn, BoundMethod):
            return self._method_call(fn, node, env)
        if isinstance(fn, BuiltinVal):
            return self._builtin_call(fn, node, env)
        if isinstance(fn, ModuleVal):
            self._eval_args(node, env)
            if "random" in fn.name or fn.name in _NONDET_MODULES:
                self.fp.nondet.append((fn.name, node.lineno))
            return TOP
        if isinstance(fn, FuncVal):
            args = [self.eval(a, env) for a in node.args]
            return self.run_node(fn.node, fn.env, args)
        # unknown callable: evaluate args, flag raw buffer arguments
        args = [self.eval(a, env) for a in node.args]
        kwargs = {kw.arg: self.eval(kw.value, env) for kw in node.keywords}
        self._opaque_buffers(args + list(kwargs.values()), node)
        return TOP

    def _method_call(self, fn: BoundMethod, node, env):
        owner, attr = fn.owner, fn.attr
        if owner is CTX:
            return self._ctx_call(attr, node, env)
        if owner is IMG:
            if attr in ("cur_view", "next_view"):
                return self._view_call(attr, node, env)
            self._eval_args(node, env)
            return TOP
        if owner is TILE and attr == "as_rect":
            return TupleVal([sym("TX"), sym("TY"), sym("TW"), sym("TH")])
        if owner is SELF:
            return self._self_call(attr, node, env)
        if owner is DATA:
            if attr == "get":
                key = node.args and self._const_str_node(node.args[0], env)
                if key:
                    self.fp.data_reads.append((key, node.lineno))
            self._eval_args(node, env)
            return TOP
        if isinstance(owner, ListVal):
            if attr == "append" and node.args:
                owner.items.append(self.eval(node.args[0], env))
                return TOP
            if attr == "extend" and node.args:
                v = self.eval(node.args[0], env)
                if isinstance(v, (ListVal, TupleVal)):
                    owner.items.extend(v.items)
                return TOP
            self._eval_args(node, env)
            return TOP
        if isinstance(owner, BufVal):
            # whole-array method (.any(), .sum(), .fill()...): treat as an
            # unknown-extent read of the buffer
            self._eval_args(node, env)
            self.fp.reads.append(SymRect(owner.name, line=node.lineno,
                                         conditional=self._cond > 0))
            return TOP
        if isinstance(owner, ModuleVal):
            self._eval_args(node, env)
            if "random" in owner.name or owner.name in _NONDET_MODULES:
                self.fp.nondet.append((f"{owner.name}.{attr}", node.lineno))
            return TOP
        self._eval_args(node, env)
        return TOP

    def _ctx_call(self, attr, node, env):
        if attr == "declare_access":
            reads, writes = None, None
            if node.args:
                reads = self.eval(node.args[0], env)
            if len(node.args) > 1:
                writes = self.eval(node.args[1], env)
            for kw in node.keywords:
                if kw.arg == "reads":
                    reads = self.eval(kw.value, env)
                elif kw.arg == "writes":
                    writes = self.eval(kw.value, env)
            self._declare(reads, "r", node.lineno)
            self._declare(writes, "w", node.lineno)
            return TOP
        if attr in ("cur_img", "next_img", "set_cur", "set_next"):
            args = [self.eval(a, env) for a in node.args]
            buf = "cur" if "cur" in attr else "next"
            mode = "w" if attr.startswith("set_") else "r"
            y = args[0] if len(args) > 0 else TOP
            x = args[1] if len(args) > 1 else TOP
            self._record_rect(buf, x, y, const(1), const(1), mode, node.lineno)
            return TOP
        if attr in ("parallel_for", "parallel_reduce", "sequential_for",
                    "task_region", "run_on_master"):
            self.fp.unknown.append(
                f"nested ctx.{attr} inside a tile body at line {node.lineno}"
            )
            self._eval_args(node, env)
            return TOP
        self._eval_args(node, env)
        return TOP

    def _view_call(self, attr, node, env):
        buf = "cur" if attr == "cur_view" else "next"
        args = [self.eval(a, env) for a in node.args]
        mode = "rw"
        kwargs = {}
        for kw in node.keywords:
            v = self.eval(kw.value, env)
            if kw.arg == "mode":
                mode = v if isinstance(v, str) else "rw"
            else:
                kwargs[kw.arg] = v

        def pick(i, name):
            if name in kwargs:
                return kwargs[name]
            return args[i] if i < len(args) else TOP

        y, x = pick(0, "y"), pick(1, "x")
        h, w = pick(2, "h"), pick(3, "w")
        if "r" in mode:
            self._record_rect(buf, x, y, w, h, "r", node.lineno)
        if "w" in mode:
            self._record_rect(buf, x, y, w, h, "w", node.lineno)
        return VIEW

    def _self_call(self, attr, node, env):
        target = getattr(self.kernel_cls, attr, None)
        args = [self.eval(a, env) for a in node.args]
        kwargs = {kw.arg: self.eval(kw.value, env) for kw in node.keywords if kw.arg}
        if target is None or not callable(target):
            self._opaque_buffers(args + list(kwargs.values()), node)
            return TOP
        if isinstance(target, (staticmethod, classmethod)):
            target = target.__func__
        return self.run_method(target, args, kwargs)

    def _builtin_call(self, fn, node, env):
        if fn.name in _HALO_FNS:
            return self._halo_call(node, env)
        args = [self.eval(a, env) for a in node.args]
        for kw in node.keywords:
            self.eval(kw.value, env)
        if fn.name in _PASSTHROUGH_BUILTINS and args:
            if args[0] is GRID or isinstance(args[0], (ListVal, TupleVal)):
                return args[0]
        self._opaque_buffers(args, node)
        return TOP

    def _halo_call(self, node, env):
        args = [self.eval(a, env) for a in node.args]
        kwargs = {kw.arg: self.eval(kw.value, env) for kw in node.keywords if kw.arg}
        names = ("buf", "x", "y", "w", "h", "dim", "halo")
        vals = dict(zip(names, args))
        vals.update(kwargs)
        buf = vals.get("buf")
        halo = vals.get("halo", const(1))
        if not isinstance(buf, str) or not isinstance(halo, Affine) or not halo.is_const:
            self.fp.unknown.append(f"unresolvable halo_region at line {node.lineno}")
            return RegionVal(SymRect("?", line=node.lineno))
        k = const(halo.k)
        x, y = vals.get("x", TOP), vals.get("y", TOP)
        w, h = vals.get("w", TOP), vals.get("h", TOP)

        def a_sub(p, q):
            return TOP if is_top(p) or is_top(q) else p - q

        def a_add(p, q):
            return TOP if is_top(p) or is_top(q) else p + q

        rect = SymRect(
            buf,
            x0=a_sub(x, k), y0=a_sub(y, k),
            x1=a_add(a_add(x, w), k), y1=a_add(a_add(y, h), k),
            line=node.lineno, clipped=True, conditional=self._cond > 0,
        )
        return RegionVal(rect)

    # .. access recording ....................................................

    def _record_rect(self, buf, x, y, w, h, mode, line):
        def a_add(p, q):
            return TOP if is_top(p) or is_top(q) else p + q

        rect = SymRect(buf, x0=x, y0=y, x1=a_add(x, w), y1=a_add(y, h),
                       line=line, conditional=self._cond > 0)
        for m in mode:
            self.fp.rects(m).append(rect)

    def _declare(self, value, mode, line):
        if value is None:
            return
        if not isinstance(value, (ListVal, TupleVal)):
            self.fp.unknown.append(
                f"declare_access with unresolvable region list at line {line}"
            )
            return
        for item in value.items:
            rect = self._region_of(item, line)
            if rect is None:
                self.fp.unknown.append(
                    f"unresolvable region in declare_access at line {line}"
                )
                continue
            self.fp.declared.add(rect.buf)
            self.fp.rects(mode).append(rect)

    def _region_of(self, item, line) -> SymRect | None:
        if isinstance(item, RegionVal):
            return item.rect
        if (isinstance(item, TupleVal) and len(item.items) == 7
                and isinstance(item.items[0], str)):
            # a 3D region: without a z axis only the whole buffer is a
            # sound envelope (its x/y projection would prove false races
            # between z-disjoint slabs)
            self.fp.unknown.append(
                f"3D region on buffer {item.items[0]!r} in declare_access "
                f"at line {line} (the analyzer has no z axis)"
            )
            return SymRect(item.items[0], x0=TOP, y0=TOP, x1=TOP, y1=TOP,
                           line=line, conditional=self._cond > 0)
        if isinstance(item, TupleVal) and len(item.items) == 5:
            buf, x, y, w, h = item.items
            if not isinstance(buf, str):
                return None

            def a_add(p, q):
                return TOP if is_top(p) or is_top(q) else p + q

            def bound(v):
                return v if isinstance(v, Affine) else TOP

            return SymRect(buf, x0=bound(x), y0=bound(y),
                           x1=a_add(bound(x), bound(w)), y1=a_add(bound(y), bound(h)),
                           line=line, conditional=self._cond > 0)
        return None

    def _note(self, buf, slice_node, env, mode, line):
        """A direct NumPy subscript on a raw buffer array."""
        rect = self._rect_from_index(buf, slice_node, env, line)
        self.fp.rects(mode).append(rect)

    def _rect_from_index(self, buf, slice_node, env, line) -> SymRect:
        cond = self._cond > 0

        def interval(n, full_hi):
            """(lo, hi, exact) for one index component."""
            if isinstance(n, ast.Slice):
                lo = const(0) if n.lower is None else self.eval(n.lower, env)
                hi = full_hi if n.upper is None else self.eval(n.upper, env)
                lo = lo if isinstance(lo, Affine) else TOP
                hi = hi if isinstance(hi, Affine) else TOP
                return lo, hi, n.step is None
            v = self.eval(n, env)
            if isinstance(v, Affine):
                return v, v + const(1), True
            return TOP, TOP, False

        full = sym("DIM")
        if isinstance(slice_node, ast.Tuple) and len(slice_node.elts) == 2:
            ynode, xnode = slice_node.elts
            y0, y1, yex = interval(ynode, full)
            x0, x1, xex = interval(xnode, full)
            return SymRect(buf, x0=x0, y0=y0, x1=x1, y1=y1, line=line,
                           clipped=not (yex and xex), conditional=cond)
        y0, y1, yex = interval(slice_node, full)
        return SymRect(buf, x0=const(0), y0=y0, x1=full, y1=y1, line=line,
                       clipped=not yex, conditional=cond)

    # .. misc ................................................................

    def _eval_args(self, node, env):
        args = [self.eval(a, env) for a in node.args]
        kwargs = [self.eval(kw.value, env) for kw in node.keywords]
        self._opaque_buffers(args + kwargs, node)

    def _opaque_buffers(self, values, node):
        for v in values:
            if isinstance(v, BufVal):
                fname = ast.unparse(node.func) if hasattr(ast, "unparse") else "?"
                self._opaque_use(v.name, fname, node.lineno)

    def _opaque_use(self, buf, fname, line):
        """A raw buffer array escaped into an unrecognized call.

        Resolution is deferred to :func:`_resolve_opaque`: escapes of a
        buffer covered by a ``ctx.declare_access`` declaration are
        trusted, the rest degrade the footprint."""
        self.fp.__dict__.setdefault("_opaque", []).append((buf, fname, line))

    def _const_str(self, slice_node, env):
        v = self.eval(slice_node, env)
        return v if isinstance(v, str) else None

    def _const_str_node(self, node, env):
        v = self.eval(node, env)
        return v if isinstance(v, str) else None


def _resolve_opaque(fp: BodyFootprint):
    """Post-pass over raw buffers that escaped into helper calls.

    A buffer covered by a ``ctx.declare_access`` declaration is trusted
    (the declaration *is* the contract; the dynamic cross-validation
    enforces it).  The image planes are always arrays, so an undeclared
    escape makes their footprint unknown.  Other ``ctx.data`` entries
    without a declaration and without subscripted use are treated as
    scalar parameters (``max_iter``-style) — see docs/staticcheck.md.
    """
    for buf, fname, line in fp.__dict__.pop("_opaque", []):
        if buf in fp.declared:
            continue
        if buf in ("cur", "next"):
            rect = SymRect(buf, line=line)
            fp.reads.append(rect)
            fp.writes.append(rect)
            fp.unknown.append(
                f"buffer {buf!r} passed to {fname}() at line {line} without a "
                "ctx.declare_access declaration"
            )
        else:
            fp.data_reads.append((buf, line))


def analyze_method(kernel_cls, fn, item_value) -> BodyFootprint:
    """Analyze one tile/item body given as an unbound kernel method."""
    an = BodyAnalyzer(kernel_cls)
    an.run_method(fn, [CTX, item_value])
    _resolve_opaque(an.fp)
    return an.fp


def analyze_node(kernel_cls, node, ctx_name: str, item_value, file: str = "",
                 extra_env: dict | None = None, pass_item: bool = True) -> BodyFootprint:
    """Analyze an inline body (lambda or nested def) from a variant.

    ``extra_env`` pre-binds enclosing-scope names (grid loop variables
    captured through lambda defaults); ``pass_item`` mirrors how the
    runtime invokes the body (worksharing bodies receive the item, task
    bodies are thunks)."""
    an = BodyAnalyzer(kernel_cls)
    an.fp.file = file
    env = {ctx_name: CTX, "self": SELF}
    env.update(extra_env or {})
    args = [item_value] if pass_item else []
    an.run_node(node, env, args)
    _resolve_opaque(an.fp)
    return an.fp
