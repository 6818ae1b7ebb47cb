"""Interprocedural effect analysis: static read/write sets per kernel.

Every function gets an :class:`EffectSummary` — the canonical dotted
paths it reads and writes.  Paths rooted at a parameter stay parameter-
rooted (``bitmap.words``, ``stats.candidate_visits``); locals are
qualified with the owning function (``run_join:result.pair_matches``) so
a caller's summary names exactly the storage its whole call tree
touches.  Summaries compose interprocedurally:

* calls into same-module or ``repro.*``-imported functions substitute the
  callee's parameter-rooted effects through the call's arguments;
* nested closures are inlined at their call sites with free variables
  resolved against the enclosing scope (``nonlocal`` respected), which is
  how ``run_join``'s ``positions_of`` contributes its ``bitmap.words``
  read to the driver's summary.

Two consumers sit on top:

* **SGL013 effect-escape** — a ``@kernel(writes=...)`` declaration is a
  contract; any *store* (attribute/subscript/in-place/mutating-method
  write) to a parameter root outside the declared set is flagged.
  Rebinding a bare name is not a store.
* **Static-vs-dynamic coverage** — the hybrid race gate.  Every access
  the dynamic :class:`~repro.device.simt.ShadowMemory` traces observed
  must be *covered* by the static sets of the kernel entry points that
  produced the trace (superset check); static writes never exercised
  dynamically are reported, not failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.dataflow import ir

#: Methods that mutate their receiver (the write set must include it).
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "fill",
    "sort",
    "resize",
    "partial_sort",
}

#: Write kinds: a *store* hits memory another name can observe; a *bind*
#: only rebinds a local name.
STORE = "store"
BIND = "bind"

_MAX_CALL_DEPTH = 16


@dataclass
class EffectSummary:
    """Static effect set of one function (plus its resolved call tree).

    ``reads``/``writes`` map canonical paths to the first source line that
    produced them; write values carry the kind (:data:`STORE` or
    :data:`BIND`).  ``calls`` collects call targets that could not be
    resolved to a summary (externals like ``np.searchsorted`` — the
    surface analysis owns those).
    """

    reads: dict[str, int] = field(default_factory=dict)
    writes: dict[str, tuple[int, str]] = field(default_factory=dict)
    calls: set[str] = field(default_factory=set)

    def add_read(self, path: str, line: int) -> None:
        """Record a read of ``path``, keeping the first line that saw it."""
        self.reads.setdefault(path, line)

    def add_write(self, path: str, line: int, kind: str) -> None:
        """Record a write; a :data:`STORE` upgrades an earlier :data:`BIND`."""
        existing = self.writes.get(path)
        if existing is None or (existing[1] == BIND and kind == STORE):
            self.writes[path] = (line, kind)

    def store_writes(self) -> dict[str, int]:
        """Writes that hit observable memory (kind == STORE)."""
        return {p: ln for p, (ln, k) in self.writes.items() if k == STORE}


class EffectIndex:
    """Lazy loader + memo of per-module IR and per-function summaries."""

    def __init__(self, src_root: str | Path) -> None:
        self.src_root = Path(src_root)
        self._modules: dict[str, ir.ModuleIR | None] = {}
        self._summaries: dict[tuple[str, str], EffectSummary] = {}
        self._in_progress: set[tuple[str, str]] = set()

    def add_module(self, module_path: str, module: ir.ModuleIR) -> None:
        """Register pre-lowered IR under its dotted module path."""
        self._modules[module_path] = module

    def module(self, module_path: str) -> ir.ModuleIR | None:
        """Return (lazily loading from ``src_root``) the module's IR."""
        if module_path in self._modules:
            return self._modules[module_path]
        rel = Path(*module_path.split("."))
        candidate = self.src_root / rel.with_suffix(".py")
        loaded: ir.ModuleIR | None = None
        if candidate.is_file():
            try:
                loaded = ir.lower_module(
                    candidate.read_text(), str(candidate)
                )
            except SyntaxError:
                loaded = None
        self._modules[module_path] = loaded
        return loaded

    def summary(self, module_path: str, qualname: str) -> EffectSummary | None:
        """Standalone summary of one function, memoized; None if absent
        or currently being summarized (recursion breaker)."""
        key = (module_path, qualname)
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return None
        module = self.module(module_path)
        if module is None:
            return None
        fn = module.functions.get(qualname)
        if fn is None:
            return None
        self._in_progress.add(key)
        try:
            summary = _summarize(fn, module, module_path, self)
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = summary
        return summary


# -- the walker ----------------------------------------------------------------


def _collect_locals(body: tuple[ir.Stmt, ...]) -> tuple[set[str], set[str]]:
    """(names bound in this scope, names declared nonlocal/global)."""
    bound: set[str] = set()
    outer: set[str] = set()
    for stmt in ir.walk_stmts(body):
        if isinstance(stmt, ir.SAssign):
            for target in stmt.targets:
                if isinstance(target, tuple) and len(target) == 1:
                    bound.add(target[0])
        elif isinstance(stmt, ir.SAug):
            if isinstance(stmt.target, tuple) and len(stmt.target) == 1:
                bound.add(stmt.target[0])
        elif isinstance(stmt, ir.SFor):
            bound.update(stmt.names)
        elif isinstance(stmt, ir.SWith):
            bound.update(stmt.names)
        elif isinstance(stmt, ir.SDef):
            bound.add(stmt.name)
        elif isinstance(stmt, ir.SScopeDecl):
            outer.update(stmt.names)
    return bound - outer, outer


class _EffectWalker:
    """Accumulates one function's effects into a shared summary.

    ``env`` maps visible roots to canonical path prefixes; roots outside
    ``env`` are locals/globals of this scope and get qualified with
    ``qual``.  Inlined closures get a child walker whose env extends the
    parent's, which is exactly lexical scoping.
    """

    def __init__(
        self,
        fn: ir.FunctionIR,
        module: ir.ModuleIR,
        module_path: str,
        index: EffectIndex,
        out: EffectSummary,
        env: dict[str, str],
        qual: str,
        nested_scope: dict[str, ir.FunctionIR],
        depth: int,
    ) -> None:
        self.fn = fn
        self.module = module
        self.module_path = module_path
        self.index = index
        self.out = out
        self.env = dict(env)
        self.qual = qual
        self.nested_scope = dict(nested_scope)
        self.nested_scope.update(fn.nested)
        self.depth = depth
        bound, _ = _collect_locals(fn.body)
        for name in bound:
            if name not in fn.params:
                self.env.setdefault(name, f"{qual}:{name}")

    # canonicalization

    def canon(self, path: tuple[str, ...]) -> str:
        prefix = self.env.get(path[0])
        rest = path[1:]
        if prefix is None:
            return f"{self.qual}:" + ".".join(path)
        if rest:
            return prefix + "." + ".".join(rest)
        return prefix

    # statements

    def walk(self) -> None:
        self.block(self.fn.body)

    def block(self, body: tuple[ir.Stmt, ...]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, stmt: ir.Stmt) -> None:
        if isinstance(stmt, ir.SAssign):
            self.expr(stmt.value)
            for target in stmt.targets:
                self.write_target(target, stmt.line)
        elif isinstance(stmt, ir.SAug):
            self.expr(stmt.value)
            target = stmt.target
            if isinstance(target, ir.IndexTarget):
                if target.index is not None:
                    self.expr(target.index)
                path = self.canon(target.path)
                self.out.add_read(path, stmt.line)
                self.out.add_write(path, stmt.line, STORE)
            elif isinstance(target, tuple):
                path = self.canon(target)
                self.out.add_read(path, stmt.line)
                kind = STORE if len(target) > 1 else BIND
                self.out.add_write(path, stmt.line, kind)
        elif isinstance(stmt, ir.SFor):
            self.expr(stmt.iter)
            self.block(stmt.body)
            self.block(stmt.orelse)
        elif isinstance(stmt, (ir.SWhile, ir.SIf)):
            self.expr(stmt.test)
            self.block(stmt.body)
            self.block(stmt.orelse)
        elif isinstance(stmt, ir.STry):
            for block in stmt.blocks:
                self.block(block)
        elif isinstance(stmt, ir.SWith):
            for item in stmt.items:
                self.expr(item)
            self.block(stmt.body)
        elif isinstance(stmt, ir.SReturn):
            if stmt.value is not None:
                self.expr(stmt.value)
        elif isinstance(stmt, ir.SExpr):
            self.expr(stmt.value)
        # SDef bodies are walked when (and only when) the closure is
        # called; SScopeDecl is consumed by _collect_locals.

    def write_target(self, target: ir.Target, line: int) -> None:
        if target is None:
            return
        if isinstance(target, ir.IndexTarget):
            if target.index is not None:
                self.expr(target.index)
            self.out.add_write(self.canon(target.path), line, STORE)
            return
        kind = STORE if len(target) > 1 else BIND
        self.out.add_write(self.canon(target), line, kind)

    # expressions

    def expr(self, expr: ir.Expr) -> None:
        if isinstance(expr, ir.Ref):
            if len(expr.path) >= 2 or expr.path[0] in self.fn.params:
                self.out.add_read(self.canon(expr.path), expr.line)
            return
        if isinstance(expr, ir.Index):
            self.expr(expr.base)
            self.expr(expr.index)
            return
        if isinstance(expr, ir.Call):
            self.call(expr)
            return
        for child in _children(expr):
            self.expr(child)

    # calls

    def call(self, expr: ir.Call) -> None:
        for arg in expr.args:
            self.expr(arg)
        for _, value in expr.kwargs:
            self.expr(value)
        func = expr.func
        if not isinstance(func, ir.Ref):
            self.expr(func)
            return
        path = func.path
        if len(path) == 1:
            if self.resolve_plain_call(path[0], expr):
                return
            self.out.calls.add(path[0])
            return
        # np.<ufunc>.at(target, ...) writes its first argument in place;
        # the target may be a plain reference or a sliced view of one
        # (``np.bitwise_or.at(words[row], ...)`` stores into ``words``).
        if (
            path[0] in self.module.np_aliases
            and path[-1] == "at"
            and expr.args
        ):
            target = expr.args[0]
            while isinstance(target, ir.Index):
                target = target.base
            if isinstance(target, ir.Ref):
                self.out.add_write(self.canon(target.path), expr.line, STORE)
            self.out.calls.add(".".join(path[1:]))
            return
        if path[0] in self.module.np_aliases:
            self.out.calls.add(".".join(path[1:]))
            return
        # Method call: receiver is read; mutating methods also write it.
        receiver = path[:-1]
        method = path[-1]
        canonical = self.canon(receiver)
        self.out.add_read(canonical, expr.line)
        if method in _MUTATING_METHODS:
            self.out.add_write(canonical, expr.line, STORE)
        if path[0] == "self" and len(path) == 2:
            self.resolve_self_call(method, expr)

    def resolve_plain_call(self, name: str, expr: ir.Call) -> bool:
        if self.depth >= _MAX_CALL_DEPTH:
            return False
        nested = self.nested_scope.get(name)
        if nested is not None:
            self.inline_nested(nested, expr)
            return True
        target = self.module.functions.get(name)
        if target is not None:
            summary = self.index.summary(self.module_path, name)
            if summary is not None:
                self.merge_callee(summary, target, expr)
                return True
            return False
        imported = self.module.repro_imports.get(name)
        if imported is not None:
            mod_path, orig = imported
            callee_module = self.index.module(mod_path)
            if callee_module is not None and orig in callee_module.functions:
                summary = self.index.summary(mod_path, orig)
                if summary is not None:
                    self.merge_callee(
                        summary, callee_module.functions[orig], expr
                    )
                    return True
            self.out.calls.add(f"{mod_path}.{orig}")
            return True
        return False

    def resolve_self_call(self, method: str, expr: ir.Call) -> None:
        if "." not in self.fn.qualname or self.depth >= _MAX_CALL_DEPTH:
            return
        cls = self.fn.qualname.split(".")[0]
        qual = f"{cls}.{method}"
        target = self.module.functions.get(qual)
        if target is None:
            return
        summary = self.index.summary(self.module_path, qual)
        if summary is None:
            return
        bindings = self.bind_args(target, expr, implicit_self=True)
        self.substitute(summary, target, bindings, expr.line)

    def inline_nested(self, nested: ir.FunctionIR, expr: ir.Call) -> None:
        """Walk a closure body in the enclosing environment."""
        child_env = dict(self.env)
        bindings = self.bind_args(nested, expr)
        for param in nested.params:
            prefix = bindings.get(param)
            child_env[param] = (
                prefix
                if prefix is not None
                else f"{nested.qualname}:{param}"
            )
        walker = _EffectWalker(
            nested,
            self.module,
            self.module_path,
            self.index,
            self.out,
            child_env,
            nested.qualname,
            self.nested_scope,
            self.depth + 1,
        )
        walker.walk()

    def bind_args(
        self,
        callee: ir.FunctionIR,
        expr: ir.Call,
        implicit_self: bool = False,
    ) -> dict[str, str | None]:
        """param name -> caller canonical prefix (None if not a plain ref)."""
        bindings: dict[str, str | None] = {}
        params = list(callee.params)
        if implicit_self and params and params[0] == "self":
            bindings["self"] = self.canon(("self",))
            params = params[1:]
        for param, arg in zip(params, expr.args):
            bindings[param] = (
                self.canon(arg.path) if isinstance(arg, ir.Ref) else None
            )
        for key, value in expr.kwargs:
            if key is not None and key in callee.params:
                bindings[key] = (
                    self.canon(value.path)
                    if isinstance(value, ir.Ref)
                    else None
                )
        return bindings

    def merge_callee(
        self,
        summary: EffectSummary,
        callee: ir.FunctionIR,
        expr: ir.Call,
    ) -> None:
        bindings = self.bind_args(callee, expr)
        self.substitute(summary, callee, bindings, expr.line)

    def substitute(
        self,
        summary: EffectSummary,
        callee: ir.FunctionIR,
        bindings: dict[str, str | None],
        line: int,
    ) -> None:
        """Rewrite a callee summary through the call-site bindings."""

        def rewrite(path: str) -> str:
            if ":" in path:
                return path  # callee-local, already qualified
            root, _, rest = path.partition(".")
            prefix = bindings.get(root)
            if prefix is None:
                if root in callee.params:
                    return f"{callee.qualname}:{path}"
                return f"{callee.qualname}:{path}"
            return prefix + ("." + rest if rest else "")

        for path in summary.reads:
            self.out.add_read(rewrite(path), line)
        for path, (_, kind) in summary.writes.items():
            self.out.add_write(rewrite(path), line, kind)
        self.out.calls.update(summary.calls)


def _children(expr: ir.Expr):
    if isinstance(expr, ir.BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, ir.UnaryOp):
        return (expr.operand,)
    if isinstance(expr, ir.Compare):
        return expr.operands
    if isinstance(expr, ir.TupleExpr):
        return expr.items
    if isinstance(expr, ir.Opaque):
        return expr.children
    return ()


def _summarize(
    fn: ir.FunctionIR, module: ir.ModuleIR, module_path: str, index: EffectIndex
) -> EffectSummary:
    out = EffectSummary()
    env = {p: p for p in fn.params}
    walker = _EffectWalker(
        fn, module, module_path, index, out, env, fn.qualname, {}, 0
    )
    walker.walk()
    return out


def summarize_function(
    index: EffectIndex, module_path: str, qualname: str
) -> EffectSummary | None:
    """Public entry: standalone effect summary of one function."""
    return index.summary(module_path, qualname)


# -- SGL013: effect escape -----------------------------------------------------


def check_kernel_effects(
    module: ir.ModuleIR,
    module_path: str,
    index: EffectIndex,
    emit,
) -> dict[str, EffectSummary]:
    """Check each declared kernel's stores against its ``writes=`` contract.

    ``emit(rule_id, line, message)`` receives one SGL013 finding per
    undeclared parameter-rooted store.  Returns the summaries (the driver
    reuses them for the coverage report).
    """
    summaries: dict[str, EffectSummary] = {}
    for qualname, fn in module.functions.items():
        if not fn.is_kernel:
            continue
        summary = index.summary(module_path, qualname)
        if summary is None:
            continue
        summaries[qualname] = summary
        if fn.declared_writes is None:
            continue
        declared = set(fn.declared_writes)
        for path, line in sorted(summary.store_writes().items()):
            if ":" in path:
                continue  # private local storage
            root = path.split(".")[0]
            if root not in fn.params and root != "self":
                continue  # module-global helper state, not a param region
            if root in declared:
                continue
            self_note = (
                f"kernel '{qualname}' writes '{path}' but declares "
                f"writes={tuple(sorted(declared))}; widen the @kernel "
                "declaration or stop escaping the declared region"
            )
            emit("SGL013", line, self_note)
    return summaries


# -- static vs dynamic coverage ------------------------------------------------

#: Kernel entry points whose static effect sets must cover each trace.
TRACE_ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "refine": (
        ("repro.core.filtering", "initialize_candidates"),
        ("repro.core.filtering", "refine_candidates"),
    ),
    "join": (("repro.core.join", "run_join"),),
    "tabular": (("repro.core.join", "run_join"),),
}

#: ShadowMemory space -> static canonical path prefixes that realize it.
#: A dynamic access is covered when any prefix matches a static path of
#: the right kind in the trace's entry summaries.
SPACE_PREFIXES: dict[str, tuple[str, ...]] = {
    # refine trace
    "labels.query": ("query.labels",),
    "sig.query": ("query_counts",),
    "sig.data": ("data_counts",),
    "bitmap": ("bitmap.words", "initialize_candidates:bitmap"),
    # join traces (DFS + tabular run through run_join; tabular reads the
    # batch view through the frontier kernel's neighbour gathers)
    "csr.row_offsets": ("run_join:view", "run_join:batch_view.row_offsets", "data"),
    "csr.flat_keys": (
        "run_join:view.flat_keys",
        "run_join:view",
        "run_join:batch_view.flat_keys",
    ),
    "csr.edge_labels": (
        "run_join:view.edge_labels",
        "run_join:view",
        "run_join:batch_view.edge_labels",
    ),
    "join.pair_matches": ("run_join:result.pair_matches",),
    "gmcr.matched": ("gmcr.matched",),
    "join.match_count": ("run_join:result.total_matches",),
    "tabular.frontier": (
        "extend_fused_block:new_table",
        "fused_join:root",
    ),
}


@dataclass
class TraceCoverage:
    """Coverage verdict for one dynamic trace."""

    trace: str
    covered: dict[str, str] = field(default_factory=dict)
    uncovered: list[tuple[str, str]] = field(default_factory=list)
    unexercised_writes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every dynamic access kind has a static counterpart."""
        return not self.uncovered


@dataclass
class CoverageReport:
    """Static-vs-dynamic effect coverage over every trace."""

    traces: dict[str, TraceCoverage] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every trace is covered by the static effect sets."""
        return all(t.ok for t in self.traces.values())

    def format(self) -> str:
        """Render one line per trace plus any uncovered/unexercised detail."""
        lines = []
        for name, tc in sorted(self.traces.items()):
            verdict = "covered" if tc.ok else "NOT COVERED"
            lines.append(
                f"effect-coverage[{name}]: {len(tc.covered)} access kinds "
                f"{verdict}"
            )
            for space, kind in tc.uncovered:
                lines.append(
                    f"  uncovered: {space} ({kind} access has no static "
                    "counterpart)"
                )
            for path in tc.unexercised_writes:
                lines.append(f"  static-only write (not exercised): {path}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready form of the report (mirrors :meth:`format`)."""
        return {
            "ok": self.ok,
            "traces": {
                name: {
                    "ok": tc.ok,
                    "covered": dict(tc.covered),
                    "uncovered": [list(u) for u in tc.uncovered],
                    "unexercised_writes": list(tc.unexercised_writes),
                }
                for name, tc in sorted(self.traces.items())
            },
        }


def _matches(path: str, prefix: str) -> bool:
    return path == prefix or path.startswith(prefix + ".")


def coverage_report(
    traces: dict[str, object], index: EffectIndex
) -> CoverageReport:
    """Cross-check dynamic ShadowMemory traces against static summaries.

    ``traces`` maps trace name -> ShadowMemory (duck-typed: only
    ``access_kinds()`` is used).  Every dynamically accessed space must
    map through :data:`SPACE_PREFIXES` onto a static read (for reads) or
    store (for writes/atomics) of the trace's entry-point summaries.
    """
    report = CoverageReport()
    for name, shadow in traces.items():
        tc = TraceCoverage(trace=name)
        report.traces[name] = tc
        entries = TRACE_ENTRY_POINTS.get(name)
        if entries is None:
            for space, kinds in sorted(shadow.access_kinds().items()):
                for kind in kinds:
                    tc.uncovered.append((space, kind))
            continue
        reads: dict[str, int] = {}
        stores: dict[str, int] = {}
        for mod_path, qualname in entries:
            summary = index.summary(mod_path, qualname)
            if summary is None:
                continue
            reads.update(summary.reads)
            stores.update(summary.store_writes())
        matched_store_prefixes: set[str] = set()
        for space, kinds in sorted(shadow.access_kinds().items()):
            prefixes = SPACE_PREFIXES.get(space, ())
            for kind in kinds:
                pool = reads if kind == "read" else stores
                hit = next(
                    (
                        prefix
                        for prefix in prefixes
                        if any(_matches(p, prefix) for p in pool)
                    ),
                    None,
                )
                if hit is None:
                    tc.uncovered.append((space, kind))
                else:
                    tc.covered[f"{space}/{kind}"] = hit
                    if kind != "read":
                        matched_store_prefixes.add(hit)
        exercised = {
            prefix
            for prefixes in SPACE_PREFIXES.values()
            for prefix in prefixes
        }
        for path in sorted(stores):
            if ":" in path and not any(
                _matches(path, prefix) for prefix in exercised
            ):
                continue  # private scratch storage; not a shared surface
            if not any(
                _matches(path, prefix) for prefix in matched_store_prefixes
            ):
                tc.unexercised_writes.append(path)
    return report
