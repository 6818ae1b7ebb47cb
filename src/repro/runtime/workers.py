"""Where chunk attempts run: in the calling process or in a worker pool.

:func:`~repro.runtime.resilient.run_resilient` plans, leases, injects
faults, retries, splits, checkpoints and records every chunk itself;
only the attempt — the engine segments of one chunk, a
:class:`ChunkRunner` call — runs here.  ``n_workers=1`` runs each attempt
in process; ``n_workers=k`` keeps up to ``k`` attempts running in a
process pool, the paper's static per-GPU blocks (section 5.4) on host
processes.

Transport: the parent exports both CSR-GO batches through
:mod:`repro.cluster.shm` once per run; every worker maps them once, in
its pool initializer, and keeps one
:class:`~repro.pipeline.session.MatcherSession` for its lifetime, so a
job is five integers whatever the batch size.  When the platform cannot
allocate shared memory (``OSError``) the batches are pickled into the
initializer instead.

A worker that dies outright (``FaultPlan(crash_hard=True)`` or a real
segfault) breaks the pool: every attempt still inside it comes back as
:class:`~concurrent.futures.process.BrokenProcessPool` (a
:class:`~concurrent.futures.BrokenExecutor`), and the next submission
starts a fresh pool.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from repro.core.config import SigmoConfig
from repro.core.csrgo import CSRGO
from repro.core.join import JoinBudget
from repro.core.results import MatchRecord
from repro.pipeline.aggregate import ResultFields
from repro.pipeline.session import MatcherSession
from repro.runtime.checkpoint import STATUS_OK, STATUS_TRUNCATED, ChunkPayload


@dataclass(frozen=True)
class Job:
    """One chunk attempt: data graphs ``[start, stop)`` from GMCR pair
    ``next_pair``.  ``die`` makes a pool worker exit outright instead of
    running it (an injected hard crash)."""

    start: int
    stop: int
    next_pair: int = 0
    attempt: int = 0
    die: bool = False


@dataclass(frozen=True)
class Attempted:
    """A finished attempt: the chunk's payload, its budgeted segment
    count and the attempt's wall-clock seconds."""

    payload: ChunkPayload
    n_segments: int
    seconds: float


#: An attempt's outcome as the parent receives it: finished, or the
#: exception that stopped it.
Outcome = Attempted | Exception


class ChunkRunner:
    """Runs chunk attempts against one query batch and one data batch."""

    def __init__(
        self,
        query: CSRGO,
        data: CSRGO,
        config: SigmoConfig,
        mode: str,
        join_budget: JoinBudget | None,
        on_truncate: str,
    ) -> None:
        # Two artifacts (refine + map) are exactly one chunk's worth: a
        # resumed segment recalls its own chunk's, and nothing older
        # stays alive.
        self.session = MatcherSession(query, config=config, max_cached_artifacts=2)
        self.data = data
        self.mode = mode
        self.join_budget = join_budget
        self.on_truncate = on_truncate

    def __call__(self, job: Job) -> Attempted:
        """Run one attempt."""
        started = time.perf_counter()
        payload, n_segments = self._segments(job, self.data.slice_graphs(job.start, job.stop))
        return Attempted(payload, n_segments, time.perf_counter() - started)

    def _segments(self, job: Job, chunk: CSRGO) -> tuple[ChunkPayload, int]:
        """Run one range, re-entering after truncations under ``"resume"``.

        Returns the accumulated payload for the pairs processed in *this*
        attempt (the parent merges any prior checkpointed progress) plus
        the number of budgeted segments it took.  Only a chunk's own
        resumed segments recall its filter/GMCR artifacts, so stage
        counts match a fresh engine per chunk whichever process ran what
        before.
        """
        payload = ChunkPayload(start=job.start, stop=job.stop)
        next_pair = job.next_pair
        n_segments = 0
        while True:
            n_segments += 1
            run = self.session.match(
                chunk,
                mode=self.mode,
                join_budget=self.join_budget,
                join_start_pair=next_pair,
                reuse=n_segments > 1,
            )
            payload.add(
                ResultFields(
                    total_matches=run.total_matches,
                    peak_memory_bytes=run.memory.total,
                    matched_pairs=[(d + job.start, q) for d, q in run.matched_pairs()],
                    embeddings=[
                        MatchRecord(rec.data_graph + job.start, rec.query_graph, rec.mapping)
                        for rec in run.embeddings
                    ],
                    timings=run.timings,
                    stage_counts=run.stage_counts,
                    join_stats=run.join_result.stats,
                )
            )
            if not run.truncated:
                payload.status = STATUS_OK
                payload.next_pair = 0
                return payload, n_segments
            next_pair = run.resume_pair
            if self.on_truncate == "token":
                payload.status = STATUS_TRUNCATED
                payload.next_pair = next_pair
                return payload, n_segments


def _outcome(call: Callable[[], Attempted]) -> Outcome:
    try:
        return call()
    except Exception as exc:  # the parent decides what each error means
        return exc


#: The pool worker's runner, built once per process by :func:`_start_worker`.
_RUNNER: ChunkRunner | None = None


def _start_worker(query, data, options: dict) -> None:
    """Pool initializer: map (or unpickle) the batches, open the session."""
    from repro.cluster.shm import attached_csrgo

    global _RUNNER
    if not isinstance(query, CSRGO):
        query, data = attached_csrgo(query), attached_csrgo(data)
    _RUNNER = ChunkRunner(query, data, **options)


def _worker_attempt(job: Job) -> Attempted:
    """Pool entry point: one attempt on this worker's runner."""
    if job.die:
        os._exit(13)  # simulate the process dying outright
    return _RUNNER(job)


class _Pool:
    """A process pool that is restarted when a worker dies."""

    def __init__(self, n_workers: int, query, data, options: dict) -> None:
        from concurrent.futures import ProcessPoolExecutor

        self._start = partial(
            ProcessPoolExecutor,
            max_workers=n_workers,
            initializer=_start_worker,
            initargs=(query, data, options),
        )
        self._executor = self._start()

    def submit(self, job: Job) -> Callable[[], Outcome]:
        try:
            future = self._executor.submit(_worker_attempt, job)
        except BrokenExecutor:  # a worker died: start a fresh pool
            self._executor.shutdown(wait=False)
            self._executor = self._start()
            future = self._executor.submit(_worker_attempt, job)
        return partial(_outcome, future.result)

    def close(self) -> None:
        self._executor.shutdown()


@contextmanager
def attempt_runner(
    query: CSRGO, data: CSRGO, n_workers: int, **options
) -> Iterator[Callable[[Job], Callable[[], Outcome]]]:
    """Yield ``submit(job) -> wait`` for one run; ``wait()`` returns the
    attempt's outcome.

    ``options`` are :class:`ChunkRunner`'s ``config``, ``mode``,
    ``join_budget`` and ``on_truncate``.  With one worker an attempt runs
    in this process when it is waited for; otherwise it starts at once
    in a pool of ``n_workers`` processes, shut down (and the shared
    batches unlinked) on exit.  The pool's modules load only for pooled
    runs.
    """
    if n_workers == 1:
        runner = ChunkRunner(query, data, **options)
        yield lambda job: partial(_outcome, partial(runner, job))
        return
    from repro.cluster.shm import SharedCSRGO

    with ExitStack() as stack:
        try:
            refs = (
                stack.enter_context(SharedCSRGO(query)).handle,
                stack.enter_context(SharedCSRGO(data)).handle,
            )
        except OSError as exc:  # platform without shared memory
            warnings.warn(
                f"shared-memory transport unavailable ({exc}); "
                "falling back to pickle",
                RuntimeWarning,
                stacklevel=3,
            )
            refs = (query, data)
        pool = _Pool(n_workers, *refs, options)
        stack.callback(pool.close)
        yield pool.submit
