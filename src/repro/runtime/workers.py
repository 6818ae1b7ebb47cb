"""Where chunk attempts run: in the calling process or in a worker pool.

:func:`~repro.runtime.resilient.run_resilient` plans, leases, injects
faults, retries, splits, checkpoints and records every chunk itself;
only the attempt — one pipeline run over one whole chunk, a
:class:`ChunkRunner` call — runs here.  ``n_workers=1`` runs each attempt
in process; ``n_workers=k`` keeps up to ``k`` attempts running in a
process pool, the paper's static per-GPU blocks (section 5.4) on host
processes.

Transport: the parent exports both CSR-GO batches through
:mod:`repro.cluster.shm` once per run; every worker maps them once, in
its pool initializer and keeps them for its lifetime, so a job is four
integers whatever the batch size.  An attempt keeps no artifacts: its
candidate bitmap and GMCR die when it returns.  When the platform cannot
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
from repro.core.results import MatchRecord
from repro.pipeline.stages import PipelineRequest, execute
from repro.runtime.checkpoint import ChunkPayload


@dataclass(frozen=True)
class Job:
    """One chunk attempt: data graphs ``[start, stop)``.  ``die`` makes a
    pool worker exit outright instead of running it (an injected hard
    crash)."""

    start: int
    stop: int
    attempt: int = 0
    die: bool = False


@dataclass(frozen=True)
class Attempted:
    """A finished attempt: the chunk's payload and the attempt's
    wall-clock seconds."""

    payload: ChunkPayload
    seconds: float


#: An attempt's outcome as the parent receives it: finished, or the
#: exception that stopped it.
Outcome = Attempted | Exception


class ChunkRunner:
    """Runs chunk attempts against one query batch and one data batch."""

    def __init__(self, query: CSRGO, data: CSRGO, config: SigmoConfig, mode: str) -> None:
        self.query = query
        self.data = data
        self.config = config
        self.mode = mode

    def __call__(self, job: Job) -> Attempted:
        """Run one attempt: one pipeline run over the whole chunk, with no
        artifact cache, so nothing of it outlives the call."""
        started = time.perf_counter()
        run = execute(
            PipelineRequest(
                query=self.query,
                data=self.data.slice_graphs(job.start, job.stop),
                config=self.config,
                mode=self.mode,
            )
        )
        payload = ChunkPayload(
            start=job.start,
            stop=job.stop,
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
        return Attempted(payload, time.perf_counter() - started)


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

    ``options`` are :class:`ChunkRunner`'s ``config`` and ``mode``.  With one worker an attempt runs
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
