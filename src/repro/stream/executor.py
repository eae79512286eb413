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

The transport is built to beat serial execution, not just match it:

* **shared-memory payloads** — batch arrays travel through a ring of
  ``max_pending`` reusable :mod:`multiprocessing.shared_memory` slots
  (:meth:`ParallelExecutor.acquire_slot`) instead of being pickled into
  the job arguments, so the producer pays one memcpy per flush and the
  worker reads the bytes in place;
* **persistent worker sessions** — each :class:`AxisJobSpec` carries a
  BLAKE2b digest of the frozen session state; workers cache the rebuilt
  :class:`~repro.core.mdz.MDZAxisCompressor` keyed by that digest
  (``stream.executor.state_cache.hit``/``miss``), so the reference
  snapshot and level fit cross the process boundary once per session,
  not once per job.  A digest miss falls back to full-state shipping,
  so correctness never depends on the cache;
* **batched dispatch** — the writer submits one :class:`FlushJobSpec`
  per flush (all axes in a single :func:`encode_flush` call), one IPC
  round trip instead of one per axis.

When shared memory is unavailable (or fails mid-stream) the executor
degrades to pickled payloads, and from there to inline execution —
every rung of the ladder produces the same bytes.

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
import os
import pickle
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

import numpy as np

from ..baselines.api import SessionMeta
from ..cluster.level_detect import LevelFit
from ..core.config import MDZConfig
from ..core.mdz import MDZAxisCompressor
from ..telemetry import get_recorder
from ..telemetry.logging import get_logger

_log = get_logger("stream.executor")

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None

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


# -- shared-memory plumbing ---------------------------------------------
#
# Segments created by this process are remembered here so that inline
# fallback jobs and fork-started workers reuse the mapping instead of
# re-attaching.
#
# Attaching a segment registers it with the attaching process's resource
# tracker.  Pool workers inherit the parent's tracker under every POSIX
# start method (fork, spawn and forkserver all hand down its fd), so the
# registration is a no-op there — and unregistering would remove the
# parent's own entry, making its later unlink print ``KeyError`` tracebacks
# from the tracker.  Only a process that had no tracker when it first
# attached gets a private one, which would unlink the segment (still in
# use by the session) when that process exits; it must unregister.

_LOCAL_SEGMENTS: dict[str, "object"] = {}

#: pid -> True when that process started its own tracker by attaching,
#: so it must unregister what it attaches.
_OWN_TRACKER: dict[int, bool] = {}


def _create_segment(nbytes: int):
    seg = _shm.SharedMemory(create=True, size=max(int(nbytes), 1))
    _LOCAL_SEGMENTS[seg.name] = seg
    return seg


def _destroy_segment(seg) -> None:
    _LOCAL_SEGMENTS.pop(seg.name, None)
    try:
        seg.close()
        seg.unlink()
    except (OSError, FileNotFoundError):  # pragma: no cover - already gone
        pass


def _attach_segment(name: str):
    seg = _LOCAL_SEGMENTS.get(name)
    if seg is not None:
        return seg
    from multiprocessing import resource_tracker

    pid = os.getpid()
    if pid not in _OWN_TRACKER:
        tracker = getattr(resource_tracker, "_resource_tracker", None)
        _OWN_TRACKER[pid] = (
            os.name == "posix" and getattr(tracker, "_fd", None) is None
        )
    seg = _shm.SharedMemory(name=name)
    if _OWN_TRACKER[pid]:
        resource_tracker.unregister(seg._name, "shared_memory")
    _LOCAL_SEGMENTS[name] = seg
    return seg


def shared_array(desc: tuple) -> np.ndarray:
    """View the ``(name, shape, dtype)`` payload segment as an ndarray."""
    name, shape, dtype = desc
    seg = _attach_segment(name)
    return np.ndarray(shape, dtype=dtype, buffer=seg.buf)


def shared_bytes(desc: tuple) -> bytes:
    """Copy the ``(name, nbytes)`` segment contents out as bytes."""
    name, nbytes = desc
    seg = _attach_segment(name)
    return bytes(seg.buf[:nbytes])


class _ShmRing:
    """``capacity`` reusable payload slots, created lazily, grown in place.

    A slot is a shared-memory segment recycled across flushes; it is
    recreated (old segment unlinked first) when a payload outgrows it.
    The ring never holds more than ``capacity`` segments, which bounds
    the shared-memory footprint by the same ``max_pending`` knob that
    bounds in-flight jobs.
    """

    def __init__(self, capacity: int) -> None:
        self._segments: list = [None] * capacity
        self._free: list[int] = list(range(capacity))

    @property
    def idle(self) -> bool:
        """True when no slot is held by an in-flight job."""
        return len(self._free) == len(self._segments)

    def try_acquire(self, nbytes: int):
        """``(index, segment)`` with ``segment.size >= nbytes``, or
        ``None`` when every slot is held."""
        if not self._free:
            return None
        index = self._free.pop()
        seg = self._segments[index]
        if seg is None or seg.size < nbytes:
            if seg is not None:
                _destroy_segment(seg)
            try:
                seg = _create_segment(nbytes)
            except OSError:
                self._free.append(index)
                raise
            self._segments[index] = seg
        return index, seg

    def release(self, index: int) -> None:
        if index not in self._free:
            self._free.append(index)

    def destroy(self) -> None:
        """Unlink every segment (idempotent)."""
        for seg in self._segments:
            if seg is not None:
                _destroy_segment(seg)
        self._segments = [None] * len(self._segments)
        self._free = list(range(len(self._segments)))


@dataclass
class _ShmSlot:
    """One acquired ring slot; released when its job resolves."""

    ring: _ShmRing
    index: int
    segment: object

    def pack(self, array: np.ndarray) -> tuple:
        """Copy ``array`` into the slot; returns its transport descriptor
        ``(name, shape, dtype)`` for :func:`shared_array`."""
        view = np.ndarray(
            array.shape, dtype=array.dtype, buffer=self.segment.buf
        )
        np.copyto(view, array)
        return (self.segment.name, tuple(array.shape), array.dtype.str)


@dataclass(frozen=True)
class AxisJobSpec:
    """Everything a worker needs to encode one buffer of one axis.

    The spec is the frozen session state exported by
    :meth:`~repro.core.mdz.MDZAxisCompressor.export_session_state` plus
    the session configuration.  ``reference`` is shipped only for
    members whose registry entry sets ``needs_reference`` (MT,
    bitadaptive), keeping per-job pickling cost low for the rest.

    ``state_digest`` is the BLAKE2b digest of that frozen state: workers
    cache the rebuilt session under it, so a spec whose digest the worker
    has seen before costs no state transfer or session rebuild at all.
    When the state *does* need to travel, ``state_shm`` names a
    shared-memory segment holding the pickled ``(reference, level_fit)``
    pair — published once per session by the writer — and the inline
    ``reference``/``level_fit`` fields stay ``None``.  Specs carrying
    the state inline (no digest, no segment) remain fully supported;
    that is the fallback when shared memory is unavailable and the
    correctness baseline the cache is checked against.

    ``trace`` and ``telemetry`` carry the observability context across
    the process boundary: ``trace`` is a span-context token from
    :meth:`~repro.telemetry.tracing.TracingRecorder.export_token` (the
    worker's root span re-parents under it), ``telemetry`` asks for a
    metrics-only sideband.  Either makes :func:`encode_axis_buffer`
    return ``(blob, snapshot)`` instead of bare bytes; the writer folds
    the snapshot into the session recorder on collection.  Both default
    off, so the plain path stays a bare-bytes, zero-overhead job.
    """

    method: str
    error_bound: float
    n_atoms: int
    quantization_scale: int
    sequence_mode: str
    lossless_backend: str
    level_seed: int
    reference: np.ndarray | None
    level_fit: LevelFit | None
    entropy_streams: int | None = None
    trace: tuple | None = None
    telemetry: bool = False
    state_digest: str | None = None
    state_shm: tuple | None = None  # (name, nbytes) of pickled state


@dataclass(frozen=True)
class FlushJobSpec:
    """All out-of-session axis jobs of one buffer flush.

    Dispatching the flush as a unit means one IPC round trip (one
    ``apply_async``, one result pickle) carries every axis instead of
    one per axis.  ``shm`` names the shared-memory payload segment
    holding the stacked ``(axes, B, N)`` batch — ``None`` when the
    payload travels pickled (shared memory unavailable)."""

    jobs: tuple[AxisJobSpec, ...]
    shm: tuple | None = None  # (name, shape, dtype) of the stacked payload


# -- worker-side session cache ------------------------------------------
#
# Rebuilding an MDZAxisCompressor per job is pure overhead once the
# session state is frozen: the same reference array and LevelFit are
# unpickled and re-seeded thousands of times over a long trajectory.
# Workers therefore keep the rebuilt sessions in a small per-process LRU
# keyed by the spec's state digest.  The digest covers every field that
# shapes the encoded bytes (see export_session_state), so a cache hit is
# byte-identical to a rebuild by construction, and the methods never
# mutate the frozen state after seeding — VQ/VQT read the cached level
# fit, MT/bitadaptive read the reference — so reuse across jobs is
# safe.

_SESSION_CACHE_MAX = 8
_SESSIONS: "OrderedDict[str, MDZAxisCompressor]" = OrderedDict()


def _build_session(spec: AxisJobSpec) -> MDZAxisCompressor:
    config = MDZConfig(
        error_bound=spec.error_bound,
        error_bound_mode="absolute",
        quantization_scale=spec.quantization_scale,
        sequence_mode=spec.sequence_mode,
        method=spec.method,
        lossless_backend=spec.lossless_backend,
        level_seed=spec.level_seed,
        entropy_streams=spec.entropy_streams,
    )
    session = MDZAxisCompressor(config)
    session.begin(spec.error_bound, SessionMeta(n_atoms=spec.n_atoms))
    reference, level_fit = spec.reference, spec.level_fit
    if spec.state_shm is not None:
        reference, level_fit = pickle.loads(shared_bytes(spec.state_shm))
    session.seed_session(reference, level_fit)
    return session


def _session_for(spec: AxisJobSpec) -> MDZAxisCompressor:
    """The cached session for ``spec``, rebuilding on digest miss."""
    digest = spec.state_digest
    if digest is None:
        return _build_session(spec)
    recorder = get_recorder()
    session = _SESSIONS.get(digest)
    if session is not None:
        _SESSIONS.move_to_end(digest)
        recorder.count("stream.executor.state_cache.hit")
        return session
    recorder.count("stream.executor.state_cache.miss")
    session = _build_session(spec)
    _SESSIONS[digest] = session
    while len(_SESSIONS) > _SESSION_CACHE_MAX:
        _SESSIONS.popitem(last=False)
    return session


def _encode(spec: AxisJobSpec, batch: np.ndarray) -> bytes:
    """The bare encode: a fixed-method session seeded with the frozen
    state (cached per digest), reusing the exact serial encode path —
    which is what makes parallel output byte-identical to serial."""
    return _session_for(spec).compress_batch(batch)


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


def encode_flush(flush: FlushJobSpec, batches):
    """Encode every axis job of one flush in a single call.

    ``batches`` is the stacked ``(axes, B, N)`` payload — ``None`` when
    it travels through the shared-memory slot named by ``flush.shm``,
    in which case the worker reads the slot in place (the executor does
    not recycle a slot until its job resolves, and no method retains a
    view of the batch past the encode).  Returns the per-axis results
    in job order; each is whatever :func:`encode_axis_buffer` returns
    (bytes, or ``(blob, snapshot)`` with observability enabled).
    """
    if batches is None:
        batches = shared_array(flush.shm)
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
        Bound on in-flight pool jobs and shared-memory payload slots
        (backpressure).  Must be ``>= 1`` when given; defaults to
        ``4 * workers``.

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
        self._ring: _ShmRing | None = None
        self._shm_broken = _shm is None
        self._published: list = []  # session-lifetime state segments
        # FIFO of [kind, value_or_handle, fn, args, slot]; popped only
        # from the left, which is what guarantees ordered reassembly.
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
        Payload slots are released as their jobs re-run; the ring itself
        is unlinked only once idle (a producer caught mid-backpressure
        may still hold a packed, not-yet-submitted slot) — otherwise it
        is left for ``close()``/``terminate()``, which the writer
        lifecycle always reaches.
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
                self._release_entry_slot(entry)
                entry[2] = entry[3] = None
                rerun += 1
        if recorder.enabled and rerun:
            recorder.count("stream.executor.jobs_rerun_inline", rerun)
        if self._ring is not None and self._ring.idle:
            self._ring.destroy()
            self._ring = None

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment
        (pending jobs must be drained first)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            pool.join()
        self._destroy_shared()

    def terminate(self) -> None:
        """Abandon everything immediately (crash/abort path); shared
        memory is unlinked unconditionally."""
        self._queue.clear()
        self._abandon_pool()
        self._destroy_shared()

    def _destroy_shared(self) -> None:
        if self._ring is not None:
            self._ring.destroy()
            self._ring = None
        for seg in self._published:
            _destroy_segment(seg)
        self._published.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    # -- shared-memory transport ----------------------------------------

    def acquire_slot(self, nbytes: int) -> _ShmSlot | None:
        """An ``nbytes``-capable payload slot, or ``None`` to fall back
        to pickled payloads (serial mode, dead pool, or shared memory
        unavailable).

        Blocks — resolving the oldest in-flight job, exactly like
        ``submit``'s backpressure — while all ``max_pending`` slots are
        held, so the ring bound and the job bound are the same knob.
        The caller must pass the returned slot to :meth:`submit`, which
        releases it when the job resolves (including every degraded
        path: abandon-sweep rerun and inline fallback).
        """
        recorder = get_recorder()
        if not self.parallel or self._shm_broken:
            return None
        self._ensure_pool()
        if not self.parallel:
            return None
        if self._ring is None:
            self._ring = _ShmRing(self.max_pending)
        while True:
            try:
                got = self._ring.try_acquire(nbytes)
            except OSError as exc:
                recorder.event(
                    "stream.executor.shm_unavailable", repr(exc)
                )
                self._shm_broken = True
                return None
            if got is not None:
                index, segment = got
                return _ShmSlot(ring=self._ring, index=index, segment=segment)
            if self._inflight() == 0:
                # Every slot held but nothing in flight to free one — a
                # slot leaked (a failure between acquire and submit).
                # Fall back to the pickled path rather than spin.
                recorder.event(
                    "stream.executor.shm_unavailable", "ring exhausted"
                )
                return None
            recorder.count("stream.executor.backpressure_waits")
            self._resolve_oldest_job()
            if not self.parallel:
                return None

    def publish(self, payload: bytes) -> tuple | None:
        """Place session-lifetime ``payload`` bytes in a shared segment.

        Used by the writer to ship the pickled frozen session state once
        per (session, digest) instead of once per job.  The segment is
        owned by the executor and unlinked at ``close``/``terminate``.
        Returns the ``(name, nbytes)`` descriptor for
        :func:`shared_bytes`, or ``None`` when jobs will not cross a
        process boundary (the spec should then carry the state inline).
        """
        if not self.parallel or self._shm_broken:
            return None
        self._ensure_pool()
        if not self.parallel:
            return None
        try:
            seg = _create_segment(len(payload))
        except OSError as exc:
            get_recorder().event(
                "stream.executor.shm_unavailable", repr(exc)
            )
            self._shm_broken = True
            return None
        seg.buf[: len(payload)] = payload
        self._published.append(seg)
        get_recorder().count("stream.executor.shm_bytes", len(payload))
        return (seg.name, len(payload))

    # -- submission -----------------------------------------------------

    def push(self, value) -> None:
        """Enqueue an already-computed result, preserving FIFO order.

        The writer uses this for buffers that must be encoded in-session
        (first buffer, ADP trials) so their chunks interleave correctly
        with pool-encoded ones.
        """
        get_recorder().count("stream.executor.pushed")
        self._queue.append([_DONE, value, None, None, None])

    def submit(self, fn, *args, slot: _ShmSlot | None = None) -> None:
        """Enqueue ``fn(*args)``; blocks while ``max_pending`` jobs are
        in flight.  ``fn`` must be a picklable module-level function.
        ``slot`` is the payload slot the arguments reference, released
        when the job resolves (on every path, including degradation)."""
        recorder = get_recorder()
        if not self.parallel:
            recorder.count("stream.executor.inline")
            self._finish_inline(fn, args, slot)
            return
        self._ensure_pool()
        if not self.parallel:
            recorder.count("stream.executor.inline")
            self._finish_inline(fn, args, slot)
            return
        while self._inflight() >= self.max_pending:
            recorder.count("stream.executor.backpressure_waits")
            self._resolve_oldest_job()
            if not self.parallel:
                # The pool died while we waited; the abandon sweep
                # already re-ran the queue inline — follow it there.
                recorder.count("stream.executor.inline")
                self._finish_inline(fn, args, slot)
                return
        try:
            handle = self._pool.apply_async(fn, args)
        except Exception as exc:
            # Pool died between jobs: degrade to inline execution.
            recorder.event("stream.executor.submit_failed", repr(exc))
            self._abandon_pool()
            recorder.count("stream.executor.inline")
            self._finish_inline(fn, args, slot)
            return
        recorder.count("stream.executor.dispatched")
        self._queue.append([_JOB, handle, fn, args, slot])

    def _finish_inline(self, fn, args, slot) -> None:
        """Run a job inline and enqueue its result; the slot is released
        even when the job raises (the payload was consumed either way)."""
        try:
            value = self._call_with_retry(fn, args)
        finally:
            if slot is not None:
                slot.ring.release(slot.index)
        self._queue.append([_DONE, value, None, None, None])

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

    def _release_entry_slot(self, entry: list) -> None:
        slot, entry[4] = entry[4], None
        if slot is not None:
            slot.ring.release(slot.index)

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
                if entry[0] == _JOB:  # pragma: no cover - defensive
                    entry[1] = self._call_with_retry(entry[2], entry[3])
                    entry[0] = _DONE
                    self._release_entry_slot(entry)
                    entry[2] = entry[3] = None
                return
            entry[0] = _DONE
            entry[1] = value
            self._release_entry_slot(entry)
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
