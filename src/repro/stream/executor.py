"""Parallel compression executor: a worker pool with ordered reassembly.

The streaming writer produces compression jobs per buffer flush.  After a
session's first buffer, MDZ's cross-buffer state is frozen (the level
model and MT reference are fitted once; only ADP's trial counter
advances), so non-trial buffers can be encoded *out of session* by a
worker process given a small state snapshot (:class:`AxisJobSpec`) — with
byte-identical output.  :class:`ParallelExecutor` fans those jobs across a
``multiprocessing`` pool while preserving three invariants:

* **ordering** — results come back strictly in submission order, so the
  writer can append chunk frames as they complete;
* **backpressure** — at most ``max_pending`` jobs are in flight; a full
  queue blocks the producer (the MD loop) instead of buffering an
  unbounded trajectory in memory;
* **graceful degradation** — ``workers <= 1``, a pool that fails to
  start, or a pool that dies mid-stream all fall back to inline serial
  execution of the same job functions, which keeps the output bytes
  unchanged.

There is one transport: the writer submits one :class:`FlushJobSpec` per
flush through :func:`encode_flush`, and the stacked ``(axes, B, N)``
batch plus each axis's frozen ``(reference, level_fit)`` travel as
ordinary pickled ``apply_async`` arguments — one IPC round trip per
flush.  Every job rebuilds its session from the spec, which costs tens
of microseconds against a millisecond-scale encode, so workers hold no
state between jobs.

Transient failures (a worker killed by the OS, an injected
:class:`OSError`) are retried with capped exponential backoff
(:func:`backoff_delay`) before the pool is abandoned: a failed pool job
is resubmitted up to ``MAX_RETRIES`` times, and inline execution retries
the call the same way, so a fault that clears (freed memory, returned
scratch space) costs a delay instead of the stream.  Every retry and
failure is counted/logged through :mod:`repro.telemetry`
(``stream.executor.job_retries`` / ``job_failed``).
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..cluster.level_detect import LevelFit
from ..core.codec import open_session
from ..core.config import MDZConfig
from ..telemetry import get_recorder
from ..telemetry.logging import get_logger

_log = get_logger("stream.executor")

_DONE = 0  # queue entry already holds its result
_JOB = 1  # queue entry is an outstanding pool job


def backoff_delay(attempt: int, base: float, cap: float) -> float:
    """Capped exponential backoff before retry ``attempt`` (1-based).

    ``min(base * 2 ** (attempt - 1), cap)``: the first retry waits
    ``base`` seconds, each later retry doubles the wait up to ``cap``.
    This is the one formula behind every retry sleep in the streaming
    layer — the executor's job retries and the writer's chunk-commit
    retries both call it, so the documented policy cannot drift from the
    implementation.
    """
    return min(base * 2.0 ** (max(int(attempt), 1) - 1), cap)


@dataclass(frozen=True)
class AxisJobSpec:
    """Everything a worker needs to encode one buffer of one axis.

    ``config`` is the session configuration with ``method`` fixed to the
    method this buffer is coded with, so every config field that shapes
    the encoded bytes reaches the worker as-is.  ``error_bound`` is the
    session's resolved absolute bound.  ``reference`` and ``level_fit``
    are the frozen session state exported by
    :meth:`~repro.core.mdz.MDZAxisCompressor.export_session_state`;
    ``reference`` is shipped only for members whose registry entry sets
    ``needs_reference`` (MT, bitadaptive), keeping per-job pickling cost
    low for the rest.

    ``trace`` and ``telemetry`` carry the observability context across
    the process boundary: ``trace`` is a span-context token from
    :meth:`~repro.telemetry.tracing.TracingRecorder.export_token` (the
    worker's root span re-parents under it), ``telemetry`` asks for a
    metrics-only sideband.  Either makes :func:`encode_axis_buffer`
    return ``(blob, snapshot)`` instead of bare bytes; the writer folds
    the snapshot into the session recorder on collection.  Both default
    off, so the plain path stays a bare-bytes, zero-overhead job.
    """

    config: MDZConfig
    error_bound: float
    n_atoms: int
    reference: np.ndarray | None
    level_fit: LevelFit | None
    trace: tuple | None = None
    telemetry: bool = False


@dataclass(frozen=True)
class FlushJobSpec:
    """All out-of-session axis jobs of one buffer flush.

    Dispatching the flush as a unit means one IPC round trip (one
    ``apply_async``, one result pickle) carries every axis instead of
    one per axis."""

    jobs: tuple[AxisJobSpec, ...]


def _encode(spec: AxisJobSpec, batch: np.ndarray) -> bytes:
    """The bare encode: a fixed-method session seeded with the frozen
    state, reusing the exact serial encode path — which is what makes
    parallel output byte-identical to serial."""
    return open_session(
        spec.config, spec.error_bound, spec.n_atoms, spec.reference,
        spec.level_fit,
    ).compress_batch(batch)


def encode_axis_buffer(spec: AxisJobSpec, batch: np.ndarray):
    """Encode one (B, N) buffer from a frozen state snapshot.

    Runs in worker processes (and inline in serial mode).  With no
    observability context on the spec, returns the compressed bytes.
    With ``spec.trace``/``spec.telemetry`` set, the job runs under its
    own process-local recorder — a worker cannot mutate the session's
    recorder across the process boundary — and returns
    ``(blob, snapshot)``; traced jobs open a root span whose parent is
    the session-side span that dispatched them, so the merged trace
    nests worker work under the flush that produced it.
    """
    if spec.trace is None and not spec.telemetry:
        return _encode(spec, batch)
    from ..telemetry import MetricsRecorder, recording
    from ..telemetry.tracing import TracingRecorder

    recorder = TracingRecorder() if spec.trace is not None else MetricsRecorder()
    # Install through the context-local slot, not the process-global one:
    # inline fallback jobs may run on several threads at once (the HTTP
    # service feeds tenants from a thread pool), and a global set/restore
    # pair interleaved across threads can resurrect another job's
    # recorder as the "previous" value.  The ContextVar scope is private
    # to this thread's context, so concurrent jobs cannot clobber it.
    with recording(recorder):
        if spec.trace is not None:
            parent, attrs = spec.trace
            with recorder.span(
                "stream.worker.encode_axis", parent=parent, **attrs
            ):
                blob = _encode(spec, batch)
        else:
            blob = _encode(spec, batch)
    return blob, recorder.snapshot()


def encode_flush(flush: FlushJobSpec, batches: np.ndarray):
    """Encode every axis job of one flush in a single call.

    ``batches`` is the stacked ``(axes, B, N)`` payload, one row per
    job.  Returns the per-axis results in job order; each is whatever
    :func:`encode_axis_buffer` returns (bytes, or ``(blob, snapshot)``
    with observability enabled).
    """
    return [
        encode_axis_buffer(spec, batches[i])
        for i, spec in enumerate(flush.jobs)
    ]


class ParallelExecutor:
    """FIFO job executor over an optional ``multiprocessing`` pool.

    Parameters
    ----------
    workers:
        Worker process count (``>= 0``).  ``<= 1`` selects inline serial
        execution (no pool, no pickling).
    max_pending:
        Bound on in-flight pool jobs (backpressure).  Must be ``>= 1``
        when given; defaults to ``4 * workers``.

    Usage::

        ex = ParallelExecutor(workers=4)
        ex.submit(fn, arg)            # may block when the queue is full
        ex.push(value)                # inject an already-computed result
        for result in ex.ready():     # completed results, in order
            ...
        for result in ex.drain():     # block for everything else
            ...
        ex.close()
    """

    #: Transient-failure retry policy: a failed job (pool or inline) is
    #: retried up to MAX_RETRIES times, sleeping
    #: ``backoff_delay(attempt, RETRY_BASE_DELAY, RETRY_MAX_DELAY)`` =
    #: ``min(RETRY_BASE_DELAY * 2**(attempt - 1), RETRY_MAX_DELAY)``
    #: before retry ``attempt``.  Deterministic job errors still surface
    #: — they simply fail every attempt and raise from the final inline
    #: run.
    MAX_RETRIES = 2
    RETRY_BASE_DELAY = 0.05
    RETRY_MAX_DELAY = 1.0

    def __init__(self, workers: int = 0, max_pending: int | None = None):
        self.workers = int(workers)
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self._serial = self.workers <= 1
        if max_pending is None:
            self.max_pending = 4 * max(self.workers, 1)
        else:
            self.max_pending = int(max_pending)
            if self.max_pending < 1:
                raise ValueError(
                    f"max_pending must be >= 1, got {max_pending}"
                )
        self._pool = None
        self._broken = False
        # FIFO of [kind, value_or_handle, fn, args]; popped only from
        # the left, which is what guarantees ordered reassembly.
        self._queue: deque[list] = deque()

    # -- lifecycle ------------------------------------------------------

    @property
    def parallel(self) -> bool:
        """True while jobs are actually dispatched to a live pool."""
        return not (self._serial or self._broken)

    def _ensure_pool(self) -> None:
        if self._pool is None and self.parallel:
            try:
                self._pool = multiprocessing.get_context().Pool(
                    processes=self.workers
                )
            except Exception as exc:
                get_recorder().event(
                    "stream.executor.pool_start_failed", repr(exc)
                )
                _log.warning(
                    "worker pool failed to start; encoding inline",
                    exc_info=exc,
                )
                self._abandon_pool()

    def _abandon_pool(self) -> None:
        """Mark the pool dead and re-run every outstanding job inline.

        Handles of a terminated pool never complete, so leaving ``_JOB``
        entries in the queue would hang the next ``drain()``.  The jobs
        are deterministic, so recomputing them preserves the output.
        """
        recorder = get_recorder()
        self._broken = True
        pool, self._pool = self._pool, None
        if pool is not None:
            recorder.count("stream.executor.pool_abandoned")
            try:
                pool.terminate()
                pool.join()
            except Exception as exc:
                # Teardown of an already-dead pool can itself fail; the
                # stream survives either way, but the event must not
                # vanish — production debugging needs to see it happened.
                recorder.event(
                    "stream.executor.pool_teardown_error", repr(exc)
                )
                _log.error("worker pool teardown failed", exc_info=exc)
        if pool is not None:
            _log.warning(
                "worker pool abandoned; remaining jobs run inline"
            )
        rerun = 0
        for entry in self._queue:
            if entry[0] == _JOB:
                entry[1] = self._call_with_retry(entry[2], entry[3])
                entry[0] = _DONE
                entry[2] = entry[3] = None
                rerun += 1
        if recorder.enabled and rerun:
            recorder.count("stream.executor.jobs_rerun_inline", rerun)

    def close(self) -> None:
        """Shut the pool down (pending jobs must be drained first)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()

    def terminate(self) -> None:
        """Abandon everything immediately (crash/abort path)."""
        self._queue.clear()
        self._abandon_pool()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    # -- submission -----------------------------------------------------

    def push(self, value) -> None:
        """Enqueue an already-computed result, preserving FIFO order.

        The writer uses this for buffers that must be encoded in-session
        (first buffer, ADP trials) so their chunks interleave correctly
        with pool-encoded ones.
        """
        get_recorder().count("stream.executor.pushed")
        self._queue.append([_DONE, value, None, None])

    def submit(self, fn, *args) -> None:
        """Enqueue ``fn(*args)``; blocks while ``max_pending`` jobs are
        in flight.  ``fn`` must be a picklable module-level function."""
        recorder = get_recorder()
        if not self.parallel:
            recorder.count("stream.executor.inline")
            self._finish_inline(fn, args)
            return
        self._ensure_pool()
        if not self.parallel:
            recorder.count("stream.executor.inline")
            self._finish_inline(fn, args)
            return
        while self._inflight() >= self.max_pending:
            recorder.count("stream.executor.backpressure_waits")
            self._resolve_oldest_job()
            if not self.parallel:
                # The pool died while we waited; the abandon sweep
                # already re-ran the queue inline — follow it there.
                recorder.count("stream.executor.inline")
                self._finish_inline(fn, args)
                return
        try:
            handle = self._pool.apply_async(fn, args)
        except Exception as exc:
            # Pool died between jobs: degrade to inline execution.
            recorder.event("stream.executor.submit_failed", repr(exc))
            self._abandon_pool()
            recorder.count("stream.executor.inline")
            self._finish_inline(fn, args)
            return
        recorder.count("stream.executor.dispatched")
        self._queue.append([_JOB, handle, fn, args])

    def _finish_inline(self, fn, args) -> None:
        """Run a job inline and enqueue its result."""
        value = self._call_with_retry(fn, args)
        self._queue.append([_DONE, value, None, None])

    # -- collection -----------------------------------------------------

    def ready(self) -> list:
        """Completed results available right now, in submission order.

        Never blocks: stops at the first entry whose job is still running.
        """
        out = []
        while self._queue:
            entry = self._queue[0]
            if entry[0] == _JOB:
                if not entry[1].ready():
                    break
                self._resolve(entry)
            out.append(self._queue.popleft()[1])
        return out

    def drain(self) -> list:
        """Every outstanding result, in order; blocks until all complete."""
        out = []
        while self._queue:
            entry = self._queue[0]
            if entry[0] == _JOB:
                self._resolve(entry)
            out.append(self._queue.popleft()[1])
        return out

    # -- internals ------------------------------------------------------

    def _inflight(self) -> int:
        return sum(1 for entry in self._queue if entry[0] == _JOB)

    def _resolve_oldest_job(self) -> None:
        for entry in self._queue:
            if entry[0] == _JOB:
                self._resolve(entry)
                return

    #: Upper bound on one pool job (a lost task — e.g. a worker killed by
    #: the OS — would otherwise block ``get()`` forever).
    JOB_TIMEOUT = 600.0

    def _resolve(self, entry: list) -> None:
        """Wait for one pool job; retry on failure, then re-run inline.

        A failed ``get()`` (worker death, job exception, timeout) is
        first retried by resubmitting the job to the pool with backoff;
        only after ``MAX_RETRIES`` resubmissions — or when the pool
        cannot accept jobs at all — is the pool abandoned and the job
        re-run inline, where a genuine job error surfaces to the caller
        while a dead pool is survived transparently.
        """
        recorder = get_recorder()
        attempts = 0
        while True:
            try:
                value = entry[1].get(timeout=self.JOB_TIMEOUT)
            except Exception as exc:
                recorder.event("stream.executor.job_failed", repr(exc))
                if self._pool is not None and attempts < self.MAX_RETRIES:
                    recorder.count("stream.executor.job_retries")
                    attempts += 1
                    time.sleep(
                        backoff_delay(
                            attempts,
                            self.RETRY_BASE_DELAY,
                            self.RETRY_MAX_DELAY,
                        )
                    )
                    try:
                        entry[1] = self._pool.apply_async(entry[2], entry[3])
                        continue
                    except Exception as resubmit_exc:
                        recorder.event(
                            "stream.executor.retry_submit_failed",
                            repr(resubmit_exc),
                        )
                # Retries exhausted or the pool is gone.  The abandon
                # sweep resolves this entry along with the rest.
                self._abandon_pool()
                return
            entry[0] = _DONE
            entry[1] = value
            entry[2] = entry[3] = None
            return

    def _call_with_retry(self, fn, args):
        """Run ``fn(*args)`` inline, retrying transient failures.

        Uses the same capped exponential backoff as the pool path
        (:func:`backoff_delay`); the final attempt's exception
        propagates, so deterministic job errors still reach the caller.
        """
        recorder = get_recorder()
        for attempt in range(self.MAX_RETRIES + 1):
            if attempt:
                recorder.count("stream.executor.job_retries")
                time.sleep(
                    backoff_delay(
                        attempt, self.RETRY_BASE_DELAY, self.RETRY_MAX_DELAY
                    )
                )
            try:
                return fn(*args)
            except Exception as exc:
                recorder.event("stream.executor.job_failed", repr(exc))
                if attempt >= self.MAX_RETRIES:
                    raise
