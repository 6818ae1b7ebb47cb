"""Layer self-time accounting from timing wrappers on public names.

The benchmark attributes a run's wall clock to the repository's modules
without touching ``src/``: :class:`LayerTimer` patches a timing wrapper
onto each public function in :data:`LAYER_TARGETS`, at the module (or
class) where the caller looks it up, and removes it afterwards.  Each
wrapper pushes a frame on one stack, so a layer's *self* time is its
calls' duration minus the part covered by nested wrapped calls, and the
self times of one call tree sum to the duration of its outermost call.

``repro.obs`` tracing stays off while the wrappers are installed:
``run_join`` disables its vectorized fast fold when a tracer is enabled,
so a tracer-on pass would time a different program.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

#: (module, class or ``None``, attribute, layer).  Functions are patched
#: where they are looked up at call time: ``run_join`` and ``build_gmcr``
#: in ``repro.pipeline.stages``, the join kernels in ``repro.core.join``,
#: and methods on their classes.
LAYER_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.pipeline.session", "MatcherSession", "match", "pipeline"),
    ("repro.core.engine", "SigmoEngine", "__init__", "pipeline"),
    ("repro.core.engine", "SigmoEngine", "run", "pipeline"),
    ("repro.pipeline.artifacts", "ArtifactCache", "get", "pipeline"),
    ("repro.pipeline.artifacts", "ArtifactCache", "put", "pipeline"),
    ("repro.core.csrgo", "CSRGO", "from_batch", "convert"),
    ("repro.core.filtering", "IterativeFilter", "initialize", "filter.init"),
    ("repro.core.filtering", "IterativeFilter", "refine", "filter.refine"),
    ("repro.core.signatures", "SignatureState", "run_to", "filter.signatures"),
    ("repro.core.filtering", None, "refine_candidates", "filter.refine_kernel"),
    ("repro.pipeline.stages", None, "build_gmcr", "map"),
    ("repro.pipeline.stages", None, "run_join", "join"),
    ("repro.core.join", None, "compile_plans", "join.plan"),
    ("repro.core.join", None, "build_fused_plan", "join.fused"),
    ("repro.core.join", None, "fused_join", "join.fused"),
    ("repro.core.join", None, "tabular_join_pair", "join.tabular"),
    ("repro.core.join", None, "join_pair", "join.dfs"),
    ("repro.core.join", None, "get_batch_view", "accel.view"),
    ("repro.core.join", None, "get_local_view", "accel.view"),
    ("repro.accel.memo", "ContentMemo", "get", "accel.memo"),
    ("repro.accel.memo", "ContentMemo", "put", "accel.memo"),
)


@dataclass
class TopCall:
    """One outermost wrapped call and the time of each layer under it."""

    name: str
    args: tuple
    result: object
    start: float
    elapsed: float
    self_s: dict[str, float]
    incl_s: dict[str, float]


class LayerTimer:
    """Self and inclusive seconds per layer, accumulated across calls.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.  Single-threaded use only; the
    benchmark's workloads run every pipeline call on one thread (the
    serving layer's event loop runs ``MatcherSession.match``
    synchronously).
    """

    def __init__(self, log_calls: bool = False) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        #: Summed duration of outermost wrapped calls (equals the sum of
        #: all self times when the accounting is sound).
        self.top_s = 0.0
        #: ``xp.<name>`` lookups made through the backend proxy.
        self.proxy_calls = 0
        #: With ``log_calls``: one :class:`TopCall` per outermost call.
        self.log: list[TopCall] | None = [] if log_calls else None
        self._self_mark: dict[str, float] = {}
        self._incl_mark: dict[str, float] = {}

    def reset(self) -> None:
        """Zero the accumulators (wrappers stay installed)."""
        self.self_s.clear()
        self.incl_s.clear()
        self.top_s = 0.0
        self.proxy_calls = 0
        self._self_mark, self._incl_mark = {}, {}
        if self.log is not None:
            self.log.clear()

    def _log_top(self, fn, args, result, start: float, elapsed: float) -> None:
        # Everything accumulated since the previous outermost call
        # belongs to this one.
        self.log.append(
            TopCall(
                fn.__qualname__, args, result, start, elapsed,
                {k: v - self._self_mark.get(k, 0.0) for k, v in self.self_s.items()},
                {k: v - self._incl_mark.get(k, 0.0) for k, v in self.incl_s.items()},
            )
        )
        self._self_mark, self._incl_mark = dict(self.self_s), dict(self.incl_s)

    def _wrap(self, fn, layer: str):
        timer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                child = stack.pop()
                timer.self_s[layer] += elapsed - child
                timer.incl_s[layer] += elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    timer.top_s += elapsed
                    if timer.log is not None:
                        timer._log_top(fn, args, result, start, elapsed)

        return timed

    def _count_proxy(self, lookup):
        timer = self

        @functools.wraps(lookup)
        def counted():
            timer.proxy_calls += 1
            return lookup()

        return counted

    def __enter__(self) -> "LayerTimer":
        # ``repro.xp``'s module ``__getattr__`` resolves every ``xp.<name>``
        # through ``current_backend()``: counting that lookup counts the
        # calls that pay the proxy.
        xp = importlib.import_module("repro.xp")
        self._saved.append((xp, "current_backend", xp.current_backend))
        xp.current_backend = self._count_proxy(xp.current_backend)
        for module_name, class_name, attr, layer in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, layer))
            else:
                patched = self._wrap(original, layer)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()
