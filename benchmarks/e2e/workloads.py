"""The four seeded workloads of the end-to-end benchmark.

Every input is generated; the program under test only ever sees the
generated graphs.  Like the paper's fixed set of 618 ZINC queries, the
query sets of the session and serving workloads (and the serving
workload's pool of request batches) are fixed reference libraries
generated from :data:`LIBRARY_SEED`; ``--seed`` picks the data graphs,
the warm-up batch and the request schedule.  A query
library drawn per seed would make each seed a different workload: a few
large mined patterns dominate join cost, so run-to-run spread would
measure the library instead of the program.  ``selective-filter`` mines
fresh queries from every op's own batch, all from ``--seed``.

Three workloads are *op* workloads: the benchmark runs one batch through
one entry point at a time and never repeats a batch within a process, so
they measure the pipeline rather than its caches.  ``serve-zipf`` is the
one workload that repeats inputs: requests draw their batch from a small
Zipf-weighted pool, so the serving layer's artifact cache and
deduplication are exercised.

Why each workload exists (the layer it stresses):

* ``molecular-screen`` — paper-shaped screening through
  ``MatcherSession.match``: 618 reference queries against a fresh
  50-molecule batch per op, Find All, s=6.  The join (all pairs on the
  fused table) takes about two thirds of an op, the filter most of the
  rest.
* ``selective-filter`` — ``SigmoEngine(q, d).run()`` on label-selective
  random graphs, Find All, s=6: filter-bound (refine is ~95% of an op,
  the join ~2%), and the engine path pays CSR-GO conversion every op.
* ``hot-enum`` — enumeration-bound ``MatcherSession.match``, Find All,
  s=1, on large label-sparse graphs: ~95% join, every pair dispatched
  to the per-pair tabular kernel — the other side of the join dispatch.
* ``serve-zipf`` — ``MatchService`` with the default ``ServeConfig``,
  Find First, s=6, two closed-loop clients sending 10-molecule batches
  drawn Zipf(1.1) from a pool of 20: artifact-cache hits mixed with
  stores and evictions, coalescing, and a per-batch filter cost that
  stays fixed as batches shrink.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.chem.datasets import build_benchmark
from repro.chem.generator import MoleculeGenerator
from repro.core.config import SigmoConfig
from repro.core.engine import SigmoEngine
from repro.core.join import FIND_ALL, FIND_FIRST
from repro.graph.generators import random_connected_graph, random_subgraph_pattern
from repro.pipeline import MatcherSession
from repro.serve import MatchRequest, MatchService, STATUS_COMPLETE

#: Seed used when ``--seed`` is not given; ``expected.json`` holds the
#: reference match counts of this seed.
DEFAULT_SEED = 0
#: Seed of the fixed reference libraries: query sets and the serving pool.
LIBRARY_SEED = 0

#: Sub-stream tags for :func:`derive_seed` (one generator per role).
_WARMUP, _OPS, _CHECK, _POOL, _SCHEDULE = 1, 2, 3, 4, 5


def derive_seed(seed: int, *stream: int) -> int:
    """A 32-bit seed for one independent sub-stream of ``seed``."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def check_sample(seed: int, k: int, n_graphs: int, n: int) -> list[int]:
    """Indices of the ``n`` graphs of op ``k`` re-checked against DFS."""
    rng = np.random.default_rng(derive_seed(seed, _CHECK, k))
    return sorted(int(i) for i in rng.choice(n_graphs, n, replace=False))


def zipf_schedule(n_items: int, exponent: float, seed: int, block: int = 100):
    """Endless Zipf(``exponent``) draws over ``n_items`` (rank 0 hottest).

    Each block of ``block`` draws holds every item exactly as often as
    Zipf apportions it (largest remainders), in a seeded random order.
    The seed thus changes which requests come when, but not the traffic
    mix: with about 100 requests per run, independent draws moved the
    hot batch's share, and with it the cache hit rate and the median
    latency, by a third from seed to seed.
    """
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** exponent
    quotas = block * weights / weights.sum()
    counts = np.floor(quotas).astype(np.int64)
    counts[np.argsort(counts - quotas)[: block - counts.sum()]] += 1
    items = np.repeat(np.arange(n_items), counts)
    rng = np.random.default_rng(seed)
    while True:
        yield from (int(i) for i in rng.permutation(items))


def molecules(seed: int, n: int) -> list:
    """``n`` ZINC-like molecule graphs from one generator stream."""
    return [m.graph() for m in MoleculeGenerator(seed=seed).generate_batch(n)]


def per_graph_counts(result, n_graphs: int) -> np.ndarray:
    """Embeddings (Find All) or matched queries (Find First) per data graph."""
    offsets = np.asarray(result.gmcr.data_graph_offsets, dtype=np.int64)
    owner = np.repeat(np.arange(n_graphs), np.diff(offsets))
    pair_matches = np.asarray(result.join_result.pair_matches, dtype=np.int64)
    counts = np.zeros(n_graphs, dtype=np.int64)
    np.add.at(counts, owner, pair_matches)
    return counts


def _hot_graphs(rng: np.random.Generator, n: int) -> list:
    """Large label-sparse graphs (the ``bench_hotpath`` hot generator)."""
    return [
        random_connected_graph(
            int(rng.integers(150, 250)),
            extra_edges=int(rng.integers(40, 80)),
            n_labels=3,
            rng=rng,
            n_edge_labels=2,
        )
        for _ in range(n)
    ]


def _selective_graphs(rng: np.random.Generator, n: int) -> list:
    """Label-selective random graphs (the ``bench_session`` generator)."""
    return [
        random_connected_graph(
            int(rng.integers(60, 120)),
            extra_edges=int(rng.integers(10, 30)),
            n_labels=12,
            rng=rng,
        )
        for _ in range(n)
    ]


def _mine_queries(rng: np.random.Generator, data: list, n: int, lo: int, hi: int) -> list:
    """``n`` connected patterns of ``lo..hi-1`` nodes cut from ``data``."""
    queries = []
    for _ in range(n):
        host = data[int(rng.integers(len(data)))]
        pattern, _ = random_subgraph_pattern(host, int(rng.integers(lo, hi)), rng)
        queries.append(pattern)
    return queries


@dataclass
class Batch:
    """One op's input: data graphs, plus per-op queries on the engine path."""

    data: list
    queries: list | None = None


class OpWorkload:
    """A workload timed one batch (op) at a time on one entry point."""

    name = ""
    mode = FIND_ALL
    iterations = 6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = SigmoConfig(refinement_iterations=self.iterations)
        self._reference_config = self.config.with_backend("dfs")

    def warmup_batch(self) -> Batch:
        """The set-up batch, never one of the timed batches."""
        raise NotImplementedError

    def batch(self, k: int) -> Batch:
        """Input of timed op ``k``."""
        raise NotImplementedError

    def setup(self, warm: Batch) -> None:
        """Build the entry point and run one warm-up op (timed as ``setup_s``)."""
        self.run(warm)

    def run(self, batch: Batch, config: SigmoConfig | None = None):
        """One op through the workload's entry point."""
        raise NotImplementedError

    def reference(self, batch: Batch) -> np.ndarray:
        """Per-graph counts from the scalar DFS join (``join_backend="dfs"``)."""
        result = self.run(batch, self._reference_config)
        return per_graph_counts(result, len(batch.data))

    def artifact_stats(self) -> tuple[int, int]:
        """(hits, lookups) of the entry point's artifact cache."""
        return 0, 0


class SessionWorkload(OpWorkload):
    """A fixed query library compiled once into a ``MatcherSession``.

    Runs under another config (the DFS reference) go to a separate
    session per config, so they never touch the timed session's caches.
    """

    def __init__(self, seed: int, queries: list) -> None:
        super().__init__(seed)
        self.queries = queries
        self._sessions: dict[SigmoConfig, MatcherSession] = {}

    def setup(self, warm: Batch) -> None:
        self.session = MatcherSession(self.queries, config=self.config)
        super().setup(warm)

    def run(self, batch: Batch, config: SigmoConfig | None = None):
        if config is None:
            session = self.session
        else:
            session = self._sessions.get(config)
            if session is None:
                session = self._sessions[config] = MatcherSession(self.queries, config=config)
        return session.match(batch.data, mode=self.mode)

    def artifact_stats(self) -> tuple[int, int]:
        stats = self.session.artifact_stats
        return stats.hits, stats.hits + stats.misses


def molecular_library() -> list:
    """The 618 reference queries: the paper's query-set size, half mined."""
    return build_benchmark(scale=1.0, n_queries=618, n_data_graphs=200, seed=LIBRARY_SEED).queries


class MolecularScreen(SessionWorkload):
    name = "molecular-screen"
    batch_graphs = 50

    def __init__(self, seed: int) -> None:
        super().__init__(seed, molecular_library())

    def warmup_batch(self) -> Batch:
        return Batch(molecules(derive_seed(self.seed, _WARMUP), self.batch_graphs))

    def batch(self, k: int) -> Batch:
        return Batch(molecules(derive_seed(self.seed, _OPS, k), self.batch_graphs))


class HotEnum(SessionWorkload):
    name = "hot-enum"
    iterations = 1
    batch_graphs = 48

    def __init__(self, seed: int) -> None:
        # The ``bench_hotpath`` hot suite scaled to 48 graphs: 10 patterns
        # of 4-6 nodes cut from a library batch.
        rng = np.random.default_rng(LIBRARY_SEED)
        self._library_batch = _hot_graphs(rng, self.batch_graphs)
        super().__init__(seed, _mine_queries(rng, self._library_batch, 10, 4, 7))

    def warmup_batch(self) -> Batch:
        # The graphs the queries were cut from: never timed.
        return Batch(self._library_batch)

    def batch(self, k: int) -> Batch:
        rng = np.random.default_rng(derive_seed(self.seed, _OPS, k))
        return Batch(_hot_graphs(rng, self.batch_graphs))


class SelectiveFilter(OpWorkload):
    name = "selective-filter"
    batch_graphs = 150

    @staticmethod
    def _batch(seed: int) -> Batch:
        rng = np.random.default_rng(seed)
        data = _selective_graphs(rng, SelectiveFilter.batch_graphs)
        return Batch(data, _mine_queries(rng, data, 60, 6, 9))

    def warmup_batch(self) -> Batch:
        return self._batch(derive_seed(self.seed, _WARMUP))

    def batch(self, k: int) -> Batch:
        return self._batch(derive_seed(self.seed, _OPS, k))

    def run(self, batch: Batch, config: SigmoConfig | None = None):
        return SigmoEngine(batch.queries, batch.data, config or self.config).run(mode=self.mode)


@dataclass
class Request:
    """One served request as the client saw it."""

    pool_index: int
    data: list
    start: float
    wall: float
    response: object
    #: The traced ``MatcherSession.match`` call that served it, if any.
    traced_call: object = None


@dataclass
class ServeWindow:
    """Outcome of one closed-loop serving window."""

    requests: list[Request] = field(default_factory=list)
    wall: float = 0.0


class ServeZipf:
    """Closed-loop clients against ``MatchService`` (default ``ServeConfig``)."""

    name = "serve-zipf"
    mode = FIND_FIRST
    iterations = 6
    clients = 2
    pool_size = 20
    batch_graphs = 10
    zipf_exponent = 1.1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = SigmoConfig(refinement_iterations=self.iterations)
        self.queries = molecular_library()
        # The pool is part of the fixed library: the seed varies the
        # traffic (which batch each request draws), not the batches.
        self.pool = [
            molecules(derive_seed(LIBRARY_SEED, _POOL, i), self.batch_graphs)
            for i in range(self.pool_size)
        ]
        self._warmup = molecules(derive_seed(seed, _WARMUP), self.batch_graphs)
        self.service: MatchService | None = None
        self.key = ""

    def reference_pool_counts(self) -> list[int]:
        """Find First totals of every pool batch from the scalar DFS join."""
        session = MatcherSession(self.queries, config=self.config.with_backend("dfs"))
        flat = [g for batch in self.pool for g in batch]
        counts = per_graph_counts(session.match(flat, mode=self.mode), len(flat))
        return [int(c.sum()) for c in counts.reshape(self.pool_size, self.batch_graphs)]

    async def setup(self) -> None:
        """Start a fresh service, register the queries, serve one warm-up request."""
        if self.service is not None:
            await self.service.stop()
        self.service = MatchService(config=self.config)
        self.key = self.service.register(self.queries)
        await self.service.start()
        response = await self.service.submit(
            MatchRequest(query_key=self.key, data=list(self._warmup), mode=self.mode)
        )
        response.raise_for_status()

    async def stop(self) -> None:
        if self.service is not None:
            await self.service.stop()
            self.service = None

    def artifact_stats(self) -> tuple[int, int]:
        """(hits, lookups) summed over the service's session lanes."""
        hits = lookups = 0
        for lane in self.service.pool.entry(self.key).lanes:
            stats = lane.session.artifact_stats
            hits += stats.hits
            lookups += stats.hits + stats.misses
        return hits, lookups

    async def window(self, seconds: float, on_request=None) -> ServeWindow:
        """Both clients send requests back to back until ``seconds`` pass.

        Each request carries a fresh list of its pool batch's graphs, as
        a remote client's deserialized request would; the service finds
        repeats by content hash.  ``on_request`` runs after every
        response (the traced pass toggles its wrappers there).
        """
        out = ServeWindow()
        schedule = zipf_schedule(
            self.pool_size, self.zipf_exponent, derive_seed(self.seed, _SCHEDULE)
        )
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds

        async def client() -> None:
            while True:
                index = next(schedule)
                data = list(self.pool[index])
                t0 = clock()
                response = await self.service.submit(
                    MatchRequest(query_key=self.key, data=data, mode=self.mode)
                )
                out.requests.append(Request(index, data, t0, clock() - t0, response))
                if on_request is not None:
                    on_request(len(out.requests))
                if clock() >= deadline:
                    return

        await asyncio.gather(*(client() for _ in range(self.clients)))
        out.wall = clock() - start
        return out


def is_complete(response) -> bool:
    """A served request that returned its whole answer."""
    return response.status == STATUS_COMPLETE


#: Workload classes by name, in the order the all-workloads mode runs them.
WORKLOADS = {w.name: w for w in (MolecularScreen, SelectiveFilter, HotEnum, ServeZipf)}
