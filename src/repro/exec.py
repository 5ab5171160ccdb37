"""One execution layer for every process pool in the package.

The campaign runner, the engine's batch path, stream job resolution,
the stream pre-draw and the platform runner all fan independent tasks
out over worker processes.  :func:`run_tasks` is the one place that
does it, so each call site only says *what* to run:

* **the serial path** — one worker or a single task runs in-process,
  in task order, and the task reports to the caller's own session;
* **a warm pool** — one process-wide executor, created lazily from an
  explicit ``fork`` context and reused by every call with the same
  pool size.  A different size replaces it, and ``atexit`` shuts it
  down.  Workers are forked from the process state at their first
  use, so caches filled before that (the campaign runner's baseline
  cache) are inherited, and per-process caches filled in a worker
  survive into later calls.  ``fork`` rather than ``spawn`` because a
  spawned worker would import the package and rebuild those caches
  itself; the replaced pool is joined before the next one forks, so no
  pool thread is alive at the fork;
* **chunking** — ordered calls (``ordered=True``) submit about four
  chunks per worker, which amortises task pickling on large batches;
  unordered calls submit one task per future and yield results as
  they complete, so a consumer can persist each one at once;
* **worker telemetry** — each pooled task logs to its own sidecar file
  (:mod:`repro.obs.worker`), merged back in key order once every task
  has finished.  A failing call skips the merge and leaves the
  sidecars for post-mortem reading;
* **lifecycle events** — ``shard_start`` when a task is dispatched,
  ``worker_error`` when one raises, and ``retry`` when tasks are
  re-dispatched after a crash;
* **crash retry** — when a worker process dies (``BrokenProcessPool``),
  the unfinished tasks are re-dispatched on a fresh pool one at a
  time, in task order, so a further crash is blamed on exactly one
  task.  A task gets :data:`MAX_ATTEMPTS` attempts in all; then
  :class:`~repro.errors.WorkerCrashError` names its key.

Tasks must be pure functions of their arguments: a task may run more
than once, and only the result of its last attempt is kept, so results
never depend on the worker count, the chunking or a crash.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError, WorkerCrashError
from repro.obs.session import NULL_TELEMETRY, Telemetry
from repro.obs.worker import (
    close_worker_session,
    merge_sidecars,
    sidecar_dir,
    sidecar_path,
    worker_session,
)

__all__ = ["MAX_ATTEMPTS", "pool_size", "run_tasks", "shutdown"]

#: Attempts one task gets, the first dispatch included, before a worker
#: crash during it raises :class:`~repro.errors.WorkerCrashError`.
MAX_ATTEMPTS = 3

#: Chunks per worker in ordered mode.
_CHUNKS_PER_WORKER = 4

#: ``fn(task, telemetry) -> result``; module-level, so it pickles.
TaskFn = Callable[[Any, Telemetry], Any]

#: One task as shipped to a worker: the task and its sidecar path.
_Job = Tuple[Any, Optional[str]]

#: The warm executor: ``(owner pid, pool size, executor)``.  The pid
#: keeps a forked child from using the copy it inherited.
_warm: Optional[Tuple[int, int, ProcessPoolExecutor]] = None


def pool_size(workers: int, tasks: int) -> int:
    """Processes :func:`run_tasks` uses; ``1`` means in-process."""
    if workers <= 1 or tasks <= 1:
        return 1
    return min(workers, tasks)


def shutdown() -> None:
    """Shut the warm executor down; the next pooled call forks anew."""
    global _warm
    warm, _warm = _warm, None
    if warm is not None and warm[0] == os.getpid():
        warm[2].shutdown(wait=True)


atexit.register(shutdown)


def _executor(size: int) -> ProcessPoolExecutor:
    """The warm executor of ``size`` processes, created on first use."""
    global _warm
    pid = os.getpid()
    if _warm is not None:
        owner, warm_size, executor = _warm
        if owner == pid and warm_size == size:
            return executor
        if owner == pid:
            # waits for queued work of a call still iterating, so no
            # pool thread is alive when the new pool forks
            executor.shutdown(wait=True)
    executor = ProcessPoolExecutor(
        max_workers=size, mp_context=multiprocessing.get_context("fork"),
    )
    _warm = (pid, size, executor)
    return executor


def _discard(executor: ProcessPoolExecutor) -> None:
    """Drop a broken executor so the next call forks a fresh one."""
    global _warm
    if _warm is not None and _warm[2] is executor:
        _warm = None
    executor.shutdown(wait=True)


def _run_chunk(fn: TaskFn, jobs: Sequence[_Job]
               ) -> Tuple[List[Any], Optional[Tuple[int, BaseException]]]:
    """Worker entry point: run ``jobs`` in order, each with its sidecar.

    Returns the results so far and, when a task raised, its offset in
    the chunk and the exception, so the orchestrator can name the task.
    """
    results: List[Any] = []
    for offset, (task, sidecar) in enumerate(jobs):
        wt = worker_session(sidecar)
        try:
            results.append(fn(task, wt))
        except Exception as exc:  # named and re-raised by the caller
            return results, (offset, exc)
        finally:
            close_worker_session(wt)
    return results, None


def run_tasks(fn: TaskFn, tasks: Iterable[Any], *, keys: Iterable[str],
              workers: int, telemetry: Optional[Telemetry] = None,
              ordered: bool = True) -> Iterator[Any]:
    """Run ``fn(task, telemetry)`` for every task; yield the results.

    Args:
        fn: module-level task function.  Its second argument is the
            session the task reports to: the caller's ``telemetry`` on
            the serial path, the task's sidecar session (or the null
            session) on a pool worker.
        tasks: picklable task arguments.
        keys: one distinct, stable name per task.  It names the task's
            sidecar file, its lifecycle events and a crash error.
        workers: process count; ``1`` (or a single task) runs in-process.
        telemetry: the caller's session, or ``None``.
        ordered: yield results in task order (chunked submission) when
            true; in completion order (one task per future) otherwise.

    Raises:
        ConfigurationError: when ``keys`` does not name every task once.
        WorkerCrashError: when worker processes died during all
            :data:`MAX_ATTEMPTS` attempts of one task.

    Any exception a task raises propagates after a ``worker_error``
    event that names the task's key.
    """
    tasks = list(tasks)
    keys = [str(key) for key in keys]
    if len(keys) != len(tasks) or len(set(keys)) != len(keys):
        raise ConfigurationError(
            f"run_tasks needs one distinct key per task: {len(tasks)} "
            f"tasks, {len(set(keys))} distinct of {len(keys)} keys"
        )
    tm = telemetry if telemetry is not None else NULL_TELEMETRY
    size = pool_size(workers, len(tasks))
    if size == 1:
        for key, task in zip(keys, tasks):
            tm.emit("shard_start", key=key, pooled=False)
            try:
                result = fn(task, tm)
            except Exception as exc:
                tm.emit("worker_error", key=key, error=repr(exc))
                raise
            yield result
        return
    wdir = sidecar_dir(tm) if tm.sink.enabled else None
    jobs: List[_Job] = [
        (task, sidecar_path(wdir, key) if wdir is not None else None)
        for task, key in zip(tasks, keys)
    ]
    chunk = (max(1, math.ceil(len(jobs) / (size * _CHUNKS_PER_WORKER)))
             if ordered else 1)
    yield from _Dispatch(fn, keys, jobs, size, tm, ordered).run(chunk)
    if wdir is not None:
        merge_sidecars(tm, wdir, keys)


class _Dispatch:
    """State of one pooled :func:`run_tasks` call."""

    def __init__(self, fn: TaskFn, keys: List[str], jobs: List[_Job],
                 size: int, tm: Telemetry, ordered: bool) -> None:
        self.fn = fn
        self.keys = keys
        self.jobs = jobs
        self.size = size
        self.tm = tm
        self.ordered = ordered
        self.results: Dict[int, Any] = {}
        self.next_out = 0   # ordered mode: first index not yet yielded

    def run(self, chunk: int) -> Iterator[Any]:
        """All tasks in parallel, then any unfinished ones in isolation."""
        n = len(self.jobs)
        for key in self.keys:
            self.tm.emit("shard_start", key=key, pooled=True)
        blocks = [list(range(lo, min(lo + chunk, n)))
                  for lo in range(0, n, chunk)]
        broken = yield from self._parallel(blocks)
        if not broken:
            return
        for index in range(n):
            if index not in self.results:
                yield from self._isolated(index)

    def _submit(self, executor: ProcessPoolExecutor,
                block: List[int]) -> Future:
        return executor.submit(_run_chunk, self.fn,
                               [self.jobs[i] for i in block])

    def _accept(self, block: List[int], outcome) -> Iterator[Any]:
        """Store one chunk's results; yield what may be yielded now."""
        results, failure = outcome
        if failure is not None:
            offset, exc = failure
            self.tm.emit("worker_error", key=self.keys[block[offset]],
                         error=repr(exc))
            raise exc
        for index, result in zip(block, results):
            self.results[index] = result
            if not self.ordered:
                yield result
        if self.ordered:
            while self.next_out in self.results:
                yield self.results[self.next_out]
                self.next_out += 1

    def _parallel(self, blocks: List[List[int]]):
        """Run every block on the warm pool; True when a worker died."""
        executor = _executor(self.size)
        futures: Dict[Future, List[int]] = {}
        try:
            for block in blocks:
                futures[self._submit(executor, block)] = block
            order = futures if self.ordered else as_completed(futures)
            for future in order:
                yield from self._accept(futures[future], future.result())
            return False
        except BrokenProcessPool:
            pass
        finally:
            for future in futures:
                future.cancel()
        # a worker died: keep what finished, re-dispatch the rest
        wait(futures)
        for future, block in futures.items():
            if (not future.cancelled() and future.exception() is None
                    and block[0] not in self.results):
                yield from self._accept(block, future.result())
        _discard(executor)
        unfinished = [key for i, key in enumerate(self.keys)
                      if i not in self.results]
        if unfinished:
            self.tm.emit("retry", keys=unfinished, attempt=2,
                         reason="worker process died")
        return True

    def _isolated(self, index: int) -> Iterator[Any]:
        """Run one unfinished task alone until it succeeds or runs out."""
        key = self.keys[index]
        attempt = 2
        while True:
            executor = _executor(self.size)
            try:
                outcome = self._submit(executor, [index]).result()
            except BrokenProcessPool:
                _discard(executor)
                if attempt >= MAX_ATTEMPTS:
                    error = WorkerCrashError(key, attempt)
                    self.tm.emit("worker_error", key=key, error=repr(error))
                    raise error from None
                attempt += 1
                self.tm.emit("retry", keys=[key], attempt=attempt,
                             reason="worker process died")
                continue
            yield from self._accept([index], outcome)
            return
