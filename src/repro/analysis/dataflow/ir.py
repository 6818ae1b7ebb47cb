"""A small kernel IR lifted from the Python AST.

The dataflow analyses (:mod:`~repro.analysis.dataflow.interp`,
:mod:`~repro.analysis.dataflow.effects`,
:mod:`~repro.analysis.dataflow.surface`) do not want the full Python AST:
they care about *values flowing between names*, *loads and stores on
dotted paths*, and *calls* — nothing else.  Lowering compresses each
function into exactly those shapes:

* expressions become :class:`Const` / :class:`Ref` (a dotted path like
  ``bitmap.words``) / :class:`Index` / :class:`Call` / :class:`BinOp` /
  :class:`UnaryOp` / :class:`Compare` / :class:`TupleExpr`, with anything
  unmodeled folded into :class:`Opaque` *that keeps its lowered children*
  so effect and surface walks never lose loads or calls;
* statements become :class:`SAssign` / :class:`SAug` / :class:`SFor` /
  :class:`SWhile` / :class:`SIf` / :class:`STry` / :class:`SWith` /
  :class:`SReturn` / :class:`SExpr` / :class:`SDef` (nested functions are
  lowered in place and re-attached to the parent).

Lowering is *total*: any module that parses lowers without error; gaps in
modeling degrade to ``Opaque``/``SExpr`` rather than raising, so the
analyzer can never crash on exotic-but-legal kernels.  Every node keeps
its source line for findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

# -- expressions --------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for IR expressions; ``line`` is the 1-based source line."""

    line: int


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (int/float/str/bool/None/...)."""

    value: object


@dataclass(frozen=True)
class Ref(Expr):
    """A dotted load path: ``name`` or ``name.attr1.attr2``."""

    path: tuple[str, ...]

    @property
    def root(self) -> str:
        """The first path segment (the referenced name)."""
        return self.path[0]

    def dotted(self) -> str:
        """The path re-joined with dots."""
        return ".".join(self.path)


@dataclass(frozen=True)
class Index(Expr):
    """A subscript load ``base[index]``."""

    base: Expr
    index: Expr


@dataclass(frozen=True)
class Call(Expr):
    """A call; ``func`` is usually a :class:`Ref` (``np.zeros``,
    ``x.astype``) but may be any expression."""

    func: Expr
    args: tuple[Expr, ...]
    kwargs: tuple[tuple[str | None, Expr], ...]

    def kwarg(self, name: str) -> Expr | None:
        """The value passed for keyword ``name``, if any."""
        for key, value in self.kwargs:
            if key == name:
                return value
        return None


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary operation; ``op`` is the AST op class name (``Add``,
    ``LShift``, ``BitAnd``, ...)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Compare(Expr):
    """A comparison chain; result is always boolean-valued."""

    operands: tuple[Expr, ...]


@dataclass(frozen=True)
class TupleExpr(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Opaque(Expr):
    """Anything unmodeled (lambdas, comprehensions, f-strings, ...).

    Children are kept so effect/surface walks still see every load and
    call reachable inside the unmodeled construct.
    """

    children: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class Attr(Opaque):
    """Attribute access on a non-path base (``x.reshape(3).view``,
    ``(a - b).tocsr``).  Behaves as :class:`Opaque` everywhere except
    the surface analysis, which recovers the method name from ``attr``.
    """

    attr: str = ""


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class Stmt:
    line: int


@dataclass(frozen=True)
class IndexTarget:
    """A subscript store target ``base[index] = ...``; ``path`` is the
    dotted path of the subscripted expression."""

    path: tuple[str, ...]
    index: Expr | None


#: Assignment target forms: a dotted path (name/attribute store), a
#: subscript store, or None for unmodeled targets (starred, nested).
Target = tuple[str, ...] | IndexTarget | None


@dataclass(frozen=True)
class SAssign(Stmt):
    targets: tuple[Target, ...]
    value: Expr


@dataclass(frozen=True)
class SAug(Stmt):
    """Augmented assignment ``target op= value``."""

    target: Target
    op: str
    value: Expr


@dataclass(frozen=True)
class SFor(Stmt):
    names: tuple[str, ...]
    iter: Expr
    body: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


@dataclass(frozen=True)
class SWhile(Stmt):
    test: Expr
    body: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


@dataclass(frozen=True)
class SIf(Stmt):
    test: Expr
    body: tuple[Stmt, ...]
    orelse: tuple[Stmt, ...]


@dataclass(frozen=True)
class STry(Stmt):
    """``try``/``except``/``finally`` collapsed to its blocks; control
    flow inside is approximated by joining all of them."""

    blocks: tuple[tuple[Stmt, ...], ...]


@dataclass(frozen=True)
class SWith(Stmt):
    items: tuple[Expr, ...]
    names: tuple[str, ...]
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class SReturn(Stmt):
    value: Expr | None


@dataclass(frozen=True)
class SExpr(Stmt):
    value: Expr


@dataclass(frozen=True)
class SDef(Stmt):
    """A nested function definition; its IR hangs off the parent."""

    name: str
    func: "FunctionIR"


@dataclass(frozen=True)
class SScopeDecl(Stmt):
    """``nonlocal``/``global`` declaration — the named bindings belong to
    an enclosing scope, which the effect analysis must respect when it
    inlines closures."""

    names: tuple[str, ...]


# -- functions and modules ----------------------------------------------------


@dataclass
class FunctionIR:
    """One lowered function (module-level, method, or nested)."""

    name: str
    qualname: str
    filename: str
    line: int
    params: tuple[str, ...]
    decorators: tuple[str, ...]
    body: tuple[Stmt, ...]
    #: ``@kernel(reads=..., writes=...)`` declarations; ``None`` when the
    #: marker carries no effect contract.
    declared_reads: tuple[str, ...] | None = None
    declared_writes: tuple[str, ...] | None = None
    nested: dict[str, "FunctionIR"] = field(default_factory=dict)

    @property
    def is_kernel(self) -> bool:
        """True when the function carries the ``@kernel`` marker."""
        return "kernel" in self.decorators


@dataclass
class ModuleIR:
    """One lowered module: functions plus its array-namespace view."""

    filename: str
    #: Local names resolving to an array namespace.  Includes both the
    #: numpy aliases (``np``, ``numpy``) and the ``repro.xp`` aliases —
    #: the dtype/effect analyses treat either with NumPy semantics.
    #: :attr:`xp_aliases` distinguishes the backend-portable subset.
    np_aliases: frozenset[str]
    #: Local names bound to the ``repro.xp`` backend namespace
    #: (``from repro import xp``); always a subset of :attr:`np_aliases`.
    xp_aliases: frozenset[str]
    #: Local names bound to numpy attributes by ``from numpy import ...``.
    np_from: dict[str, str]
    #: ``local name -> (module path, original name)`` for repro-internal
    #: ``from repro.x.y import f`` imports (cross-module call resolution).
    repro_imports: dict[str, tuple[str, str]]
    #: Functions by qualified name (``f``, ``Cls.meth``).
    functions: dict[str, FunctionIR]
    source_lines: list[str]


# -- lowering -----------------------------------------------------------------


class _Lowerer:
    def __init__(self, filename: str) -> None:
        self.filename = filename

    # expressions

    def expr(self, node: ast.expr) -> Expr:
        line = getattr(node, "lineno", 1)
        if isinstance(node, ast.Constant):
            return Const(line, node.value)
        if isinstance(node, ast.Name):
            return Ref(line, (node.id,))
        if isinstance(node, ast.Attribute):
            path = _attr_path(node)
            if path is not None:
                return Ref(line, path)
            return Attr(line, (self.expr(node.value),), node.attr)
        if isinstance(node, ast.Subscript):
            return Index(line, self.expr(node.value), self.expr(node.slice))
        if isinstance(node, ast.Call):
            args = tuple(
                self.expr(a)
                for a in node.args
                if not isinstance(a, ast.Starred)
            )
            starred = tuple(
                Opaque(line, (self.expr(a.value),))
                for a in node.args
                if isinstance(a, ast.Starred)
            )
            kwargs = tuple(
                (kw.arg, self.expr(kw.value)) for kw in node.keywords
            )
            return Call(line, self.expr(node.func), args + starred, kwargs)
        if isinstance(node, ast.BinOp):
            return BinOp(
                line,
                type(node.op).__name__,
                self.expr(node.left),
                self.expr(node.right),
            )
        if isinstance(node, ast.UnaryOp):
            return UnaryOp(line, type(node.op).__name__, self.expr(node.operand))
        if isinstance(node, ast.Compare):
            operands = (self.expr(node.left),) + tuple(
                self.expr(c) for c in node.comparators
            )
            return Compare(line, operands)
        if isinstance(node, ast.BoolOp):
            return Opaque(line, tuple(self.expr(v) for v in node.values))
        if isinstance(node, (ast.Tuple, ast.List)):
            return TupleExpr(line, tuple(self.expr(e) for e in node.elts))
        if isinstance(node, ast.IfExp):
            return Opaque(
                line,
                (self.expr(node.test), self.expr(node.body), self.expr(node.orelse)),
            )
        if isinstance(node, ast.Slice):
            parts = tuple(
                self.expr(p)
                for p in (node.lower, node.upper, node.step)
                if p is not None
            )
            return Opaque(line, parts)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            children: list[Expr] = []
            for comp in node.generators:
                children.append(self.expr(comp.iter))
                children.extend(self.expr(c) for c in comp.ifs)
            if isinstance(node, ast.DictComp):
                children.append(self.expr(node.key))
                children.append(self.expr(node.value))
            else:
                children.append(self.expr(node.elt))
            return Opaque(line, tuple(children))
        if isinstance(node, ast.JoinedStr):
            children = [
                self.expr(v.value)
                for v in node.values
                if isinstance(v, ast.FormattedValue)
            ]
            return Opaque(line, tuple(children))
        if isinstance(node, (ast.Dict, ast.Set)):
            parts = []
            if isinstance(node, ast.Dict):
                parts.extend(self.expr(k) for k in node.keys if k is not None)
                parts.extend(self.expr(v) for v in node.values)
            else:
                parts.extend(self.expr(e) for e in node.elts)
            return Opaque(line, tuple(parts))
        if isinstance(node, ast.Lambda):
            return Opaque(line, (self.expr(node.body),))
        if isinstance(node, ast.Starred):
            return Opaque(line, (self.expr(node.value),))
        # NamedExpr, Await, Yield, ...
        children = tuple(
            self.expr(child)
            for child in ast.iter_child_nodes(node)
            if isinstance(child, ast.expr)
        )
        return Opaque(line, children)

    def target(self, node: ast.expr) -> Target:
        if isinstance(node, ast.Name):
            return (node.id,)
        if isinstance(node, ast.Attribute):
            return _attr_path(node)
        if isinstance(node, ast.Subscript):
            path = _attr_path(node.value)
            if path is None and isinstance(node.value, ast.Name):
                path = (node.value.id,)
            if path is None:
                return None
            return IndexTarget(path, self.expr(node.slice))
        return None

    # statements

    def block(self, stmts: list[ast.stmt]) -> tuple[Stmt, ...]:
        return tuple(self.stmt(s) for s in stmts)

    def stmt(self, node: ast.stmt) -> Stmt:
        line = getattr(node, "lineno", 1)
        if isinstance(node, ast.Assign):
            targets = []
            for t in node.targets:
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets.extend(self.target(e) for e in t.elts)
                else:
                    targets.append(self.target(t))
            return SAssign(line, tuple(targets), self.expr(node.value))
        if isinstance(node, ast.AnnAssign):
            value = self.expr(node.value) if node.value else Const(line, None)
            return SAssign(line, (self.target(node.target),), value)
        if isinstance(node, ast.AugAssign):
            return SAug(
                line,
                self.target(node.target),
                type(node.op).__name__,
                self.expr(node.value),
            )
        if isinstance(node, ast.For):
            if isinstance(node.target, (ast.Tuple, ast.List)):
                names = tuple(
                    e.id for e in node.target.elts if isinstance(e, ast.Name)
                )
            elif isinstance(node.target, ast.Name):
                names = (node.target.id,)
            else:
                names = ()
            return SFor(
                line,
                names,
                self.expr(node.iter),
                self.block(node.body),
                self.block(node.orelse),
            )
        if isinstance(node, ast.While):
            return SWhile(
                line,
                self.expr(node.test),
                self.block(node.body),
                self.block(node.orelse),
            )
        if isinstance(node, ast.If):
            return SIf(
                line,
                self.expr(node.test),
                self.block(node.body),
                self.block(node.orelse),
            )
        if isinstance(node, (ast.Try,)):
            blocks = [self.block(node.body)]
            for handler in node.handlers:
                blocks.append(self.block(handler.body))
            if node.orelse:
                blocks.append(self.block(node.orelse))
            if node.finalbody:
                blocks.append(self.block(node.finalbody))
            return STry(line, tuple(blocks))
        if isinstance(node, ast.With):
            items = tuple(self.expr(i.context_expr) for i in node.items)
            names = tuple(
                i.optional_vars.id
                for i in node.items
                if isinstance(i.optional_vars, ast.Name)
            )
            return SWith(line, items, names, self.block(node.body))
        if isinstance(node, ast.Return):
            return SReturn(line, self.expr(node.value) if node.value else None)
        if isinstance(node, (ast.Expr,)):
            return SExpr(line, self.expr(node.value))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return SDef(line, node.name, self.function(node, node.name))
        if isinstance(node, (ast.Raise,)):
            parts = tuple(
                self.expr(p) for p in (node.exc, node.cause) if p is not None
            )
            return SExpr(line, Opaque(line, parts))
        if isinstance(node, ast.Assert):
            parts = (self.expr(node.test),) + (
                (self.expr(node.msg),) if node.msg else ()
            )
            return SExpr(line, Opaque(line, parts))
        if isinstance(node, ast.Delete):
            return SExpr(line, Opaque(line, ()))
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            return SScopeDecl(line, tuple(node.names))
        # Pass, Break, Continue, Import, ...
        return SExpr(line, Opaque(line, ()))

    def function(self, node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str) -> FunctionIR:
        args = node.args
        params = tuple(
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        )
        if args.vararg:
            params += (args.vararg.arg,)
        if args.kwarg:
            params += (args.kwarg.arg,)
        decorators: list[str] = []
        declared_reads: tuple[str, ...] | None = None
        declared_writes: tuple[str, ...] | None = None
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name:
                decorators.append(name)
            if name == "kernel" and isinstance(dec, ast.Call):
                for kw in dec.keywords:
                    value = _const_str_tuple(kw.value)
                    if kw.arg == "reads":
                        declared_reads = value
                    elif kw.arg == "writes":
                        declared_writes = value
        fn = FunctionIR(
            name=node.name,
            qualname=qualname,
            filename=self.filename,
            line=node.lineno,
            params=params,
            decorators=tuple(decorators),
            body=(),
            declared_reads=declared_reads,
            declared_writes=declared_writes,
        )
        body = tuple(self.stmt(stmt) for stmt in node.body)
        # Closures can be declared at any control-flow depth (e.g. inside
        # a ``with tracer.span(...)`` block); register them all.
        for lowered in walk_stmts(body):
            if isinstance(lowered, SDef):
                lowered.func.qualname = f"{qualname}.{lowered.name}"
                fn.nested[lowered.name] = lowered.func
        fn.body = body
        return fn


def _attr_path(node: ast.expr) -> tuple[str, ...] | None:
    """The dotted path of a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _const_str_tuple(node: ast.expr) -> tuple[str, ...] | None:
    """A literal tuple/list of strings, else None."""
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for elt in node.elts:
            if not (
                isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ):
                return None
            out.append(elt.value)
        return tuple(out)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    return None


def collect_np_namespace(
    tree: ast.Module,
) -> tuple[frozenset[str], dict[str, str]]:
    """Per-module NumPy namespace view: (module aliases, from-imports).

    ``import numpy as xp`` adds ``xp`` to the aliases; ``from numpy
    import zeros as z`` maps ``z -> zeros``.  The conventional ``np`` /
    ``numpy`` names are always included so snippets without imports
    still resolve.  Shared by the syntactic rules (SGL001/SGL002 alias
    resolution) and the dataflow lowering.
    """
    np_aliases = {"np", "numpy"}
    np_from: dict[str, str] = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name == "numpy":
                    np_aliases.add(alias.asname or "numpy")
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "numpy":
                for alias in stmt.names:
                    if alias.name != "*":
                        np_from[alias.asname or alias.name] = alias.name
    return frozenset(np_aliases), np_from


def collect_xp_aliases(tree: ast.Module) -> frozenset[str]:
    """Local names bound to the ``repro.xp`` backend namespace.

    Recognizes ``from repro import xp [as alias]`` (the kernel idiom) and
    ``import repro.xp as alias``.  The conventional ``xp`` name is always
    included so snippets without imports still resolve — mirroring
    :func:`collect_np_namespace`'s treatment of ``np``/``numpy``.
    """
    xp_aliases = {"xp"}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.name == "repro.xp" and alias.asname:
                    xp_aliases.add(alias.asname)
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module == "repro":
                for alias in stmt.names:
                    if alias.name == "xp":
                        xp_aliases.add(alias.asname or "xp")
    return frozenset(xp_aliases)


def lower_module(source: str, filename: str) -> ModuleIR:
    """Lower one module's source into :class:`ModuleIR`.

    Collects the NumPy namespace view (aliases and from-imports — the
    per-module alias resolution shared with the syntactic rules) and the
    repro-internal import table used for cross-module call resolution,
    then lowers every module-level function and method.
    """
    tree = ast.parse(source, filename=filename)
    np_aliases, np_from = collect_np_namespace(tree)
    xp_aliases = collect_xp_aliases(tree)
    repro_imports: dict[str, tuple[str, str]] = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom):
            if stmt.module and stmt.module.startswith("repro."):
                for alias in stmt.names:
                    if alias.name != "*":
                        repro_imports[alias.asname or alias.name] = (
                            stmt.module,
                            alias.name,
                        )
    # The dtype/effect analyses model xp calls with NumPy semantics (the
    # contract is the NumPy-compatible array-API subset), so xp aliases
    # join the numpy alias set; the surface analysis consults xp_aliases
    # first to tell portable xp calls from raw-numpy bypasses.
    np_aliases = set(np_aliases) | set(xp_aliases)
    lowerer = _Lowerer(filename)
    functions: dict[str, FunctionIR] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = lowerer.function(node, node.name)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{node.name}.{item.name}"
                    functions[qual] = lowerer.function(item, qual)
    return ModuleIR(
        filename=filename,
        np_aliases=frozenset(np_aliases),
        xp_aliases=xp_aliases,
        np_from=np_from,
        repro_imports=repro_imports,
        functions=functions,
        source_lines=source.splitlines(),
    )


def walk_exprs(expr: Expr):
    """Depth-first iteration over an expression tree (self first)."""
    yield expr
    if isinstance(expr, Index):
        yield from walk_exprs(expr.base)
        yield from walk_exprs(expr.index)
    elif isinstance(expr, Call):
        yield from walk_exprs(expr.func)
        for a in expr.args:
            yield from walk_exprs(a)
        for _, v in expr.kwargs:
            yield from walk_exprs(v)
    elif isinstance(expr, BinOp):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Compare):
        for o in expr.operands:
            yield from walk_exprs(o)
    elif isinstance(expr, (TupleExpr,)):
        for i in expr.items:
            yield from walk_exprs(i)
    elif isinstance(expr, Opaque):
        for c in expr.children:
            yield from walk_exprs(c)


def walk_stmts(body: tuple[Stmt, ...]):
    """Depth-first iteration over statements (nested defs not entered)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, SFor):
            yield from walk_stmts(stmt.body)
            yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, (SWhile, SIf)):
            yield from walk_stmts(stmt.body)
            yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, STry):
            for block in stmt.blocks:
                yield from walk_stmts(block)
        elif isinstance(stmt, SWith):
            yield from walk_stmts(stmt.body)


def stmt_exprs(stmt: Stmt):
    """Every expression directly attached to one statement."""
    if isinstance(stmt, SAssign):
        yield stmt.value
        for t in stmt.targets:
            if isinstance(t, IndexTarget) and t.index is not None:
                yield t.index
    elif isinstance(stmt, SAug):
        yield stmt.value
        if isinstance(stmt.target, IndexTarget) and stmt.target.index is not None:
            yield stmt.target.index
    elif isinstance(stmt, SFor):
        yield stmt.iter
    elif isinstance(stmt, (SWhile, SIf)):
        yield stmt.test
    elif isinstance(stmt, SWith):
        yield from stmt.items
    elif isinstance(stmt, SReturn):
        if stmt.value is not None:
            yield stmt.value
    elif isinstance(stmt, SExpr):
        yield stmt.value
