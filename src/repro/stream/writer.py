"""Incremental ``MDZ2`` writer with a snapshot-at-a-time ``feed`` API.

This is the in-situ half of the streaming subsystem: an MD engine hands
over one ``(atoms, axes)`` snapshot per dump step, the writer buffers
``buffer_size`` of them, and every full buffer is compressed per axis and
appended to the container as self-delimiting chunk frames.  Nothing is
ever held beyond the current buffer plus the bounded executor queue, so
memory stays flat over arbitrarily long trajectories, and a crash at any
point leaves a file whose fully written chunks are recoverable
(:mod:`repro.stream.format`).

Error bounds: a value-range-relative bound is resolved against the value
range of the *first* buffer of each axis (the whole trajectory is never
visible at once).  The resolved absolute bounds travel in the header, so
decompression is exact with respect to them regardless of later drift —
drifting values simply fall into the quantizer's out-of-scope side
channel.

Compression jobs are distributed through a
:class:`~repro.stream.executor.ParallelExecutor`: the first buffer and
ADP trial buffers run in-session (they establish or update cross-buffer
state), everything else is dispatched as one batched job per flush —
the batch crosses the process boundary through a shared-memory slot and
workers reuse cached sessions keyed by a state digest — and is
byte-identical to serial execution by construction.

Crash safety: chunk frames are committed atomically against a *fence* —
the end of the last fully written frame.  A chunk write that fails with
:class:`OSError` (torn write, ENOSPC) is rolled back by seeking to the
fence and truncating, then retried with capped exponential backoff; the
file therefore never accumulates a partial frame in front of later data,
and an archive abandoned at any instant is salvageable from its fence.
Fault counters and events flow through :mod:`repro.telemetry`
(``stream.writer.write_retries`` / ``rollbacks`` /
``write_failed``).
"""

from __future__ import annotations

import io
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from ..baselines.api import SessionMeta
from ..core.config import MDZConfig
from ..core.mdz import MDZAxisCompressor
from ..core.registry import DEFAULT_MEMBERS
from ..exceptions import CompressionError
from ..telemetry import QualityAuditor, get_recorder
from . import format as fmt
from .executor import (
    AxisJobSpec,
    FlushJobSpec,
    ParallelExecutor,
    backoff_delay,
    encode_flush,
)


@dataclass
class StreamStats:
    """Running statistics of one streaming compression session."""

    snapshots: int = 0
    buffers: int = 0
    chunks: int = 0
    raw_bytes: int = 0
    bytes_written: int = 0
    compress_seconds: float = 0.0
    #: Bytes per coordinate in the *source* data (set from the first
    #: snapshot's dtype).  ``raw_bytes`` counts the source footprint, so
    #: a float64 producer is no longer under-counted as float32.
    source_itemsize: int = 4
    #: Sampled quality audits run / bound violations they caught (see
    #: :class:`repro.telemetry.quality.QualityAuditor`).
    audits: int = 0
    audit_violations: int = 0

    @property
    def compression_ratio(self) -> float:
        """Raw source footprint over container bytes written so far."""
        return self.raw_bytes / max(self.bytes_written, 1)

    def to_dict(self) -> dict:
        """JSON-serializable form of the session statistics.

        Used by the service's session-close endpoint and
        ``mdz stream --metrics-json`` so every surface reports the same
        fields (the derived ``compression_ratio`` included) instead of
        plucking attributes ad hoc.
        """
        return {
            "snapshots": self.snapshots,
            "buffers": self.buffers,
            "chunks": self.chunks,
            "raw_bytes": self.raw_bytes,
            "bytes_written": self.bytes_written,
            "compress_seconds": self.compress_seconds,
            "compression_ratio": self.compression_ratio,
            "source_itemsize": self.source_itemsize,
            "audits": self.audits,
            "audit_violations": self.audit_violations,
        }


@dataclass
class _PendingChunk:
    buffer_index: int
    axis: int
    rows: int


class StreamingWriter:
    """Append-only ``MDZ2`` writer: ``feed`` snapshots, ``close`` to seal.

    Parameters
    ----------
    target:
        Output path or a writable binary file object (no seeking needed —
        a pipe or socket works).
    config:
        MDZ configuration; ``config.buffer_size`` sets the flush cadence.
    workers:
        Worker processes for the compression pool; ``0``/``1`` = serial.
    executor:
        Inject a pre-built :class:`ParallelExecutor` (ownership stays with
        the caller); overrides ``workers``.
    sync:
        ``fsync`` the output after every committed chunk.  Off by default
        (the OS flushes on close); turn on for in-situ runs where a node
        crash must not lose chunks the writer already reported durable.

    Example
    -------
    >>> with StreamingWriter("run.mdz", MDZConfig(buffer_size=10)) as w:
    ...     for snapshot in simulation:          # (atoms, 3) arrays
    ...         w.feed(snapshot)
    ... # doctest: +SKIP
    """

    #: Chunk-commit retry policy: a failed frame write is rolled back to
    #: the fence and retried up to WRITE_RETRIES times, sleeping
    #: ``backoff_delay(attempt, RETRY_BASE_DELAY, RETRY_MAX_DELAY)`` =
    #: ``min(RETRY_BASE_DELAY * 2**(attempt - 1), RETRY_MAX_DELAY)``
    #: before retry ``attempt`` (capped exponential backoff, same
    #: formula as the executor's job retries).
    WRITE_RETRIES = 3
    RETRY_BASE_DELAY = 0.01
    RETRY_MAX_DELAY = 0.5

    def __init__(
        self,
        target: str | Path | BinaryIO,
        config: MDZConfig | None = None,
        workers: int = 0,
        executor: ParallelExecutor | None = None,
        sync: bool = False,
    ) -> None:
        self.config = config if config is not None else MDZConfig()
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._fh: BinaryIO = open(target, "wb")
            self._owns_fh = True
        else:
            self._path = None
            self._fh = target
            self._owns_fh = False
        if executor is not None:
            self._executor = executor
            self._owns_executor = False
        else:
            self._executor = ParallelExecutor(workers=workers)
            self._owns_executor = True
        self.stats = StreamStats()
        # Sampled round-trip auditing; deterministic by buffer index so
        # serial and parallel runs audit identical chunks.
        self.auditor = QualityAuditor(self.config.audit_interval)
        # Shared-memory handles of published session state, per digest
        # (None = publish declined; the spec then carries state inline).
        self._state_handles: dict[str, tuple | None] = {}
        self._buffer: list[np.ndarray] = []
        self._pending: deque[_PendingChunk] = deque()
        self._chunks: list[fmt.ChunkEntry] = []
        self._sessions: list[MDZAxisCompressor] | None = None
        self._bounds: list[float] = []
        self._shape: tuple[int, int] | None = None  # (atoms, axes)
        self._buffer_index = 0
        self._offset = 0  # also the commit fence: end of last good frame
        self._rolling = 0  # chained payload CRC32 across committed chunks
        self._sync = bool(sync)
        self._closed = False

    # -- feeding --------------------------------------------------------

    def feed(self, snapshot: np.ndarray) -> None:
        """Buffer one ``(atoms, axes)`` (or ``(atoms,)``) snapshot.

        Triggers a buffer flush — and, in parallel mode, chunk writes for
        any jobs that completed in the background — when due.
        """
        if self._closed:
            raise CompressionError("writer is closed")
        arr = np.asarray(snapshot, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise CompressionError(
                f"expected an (atoms, axes) snapshot, got shape "
                f"{np.shape(snapshot)}"
            )
        if not np.isfinite(arr).all():
            raise CompressionError("input contains non-finite values")
        if self._shape is None:
            if arr.size == 0:
                raise CompressionError("cannot compress empty snapshots")
            self._shape = arr.shape
            # Record the producer's true itemsize before the float64
            # working coercion: raw_bytes must reflect the source
            # footprint, not a hardcoded float32 convention.
            source_dtype = getattr(snapshot, "dtype", None)
            self.stats.source_itemsize = (
                int(source_dtype.itemsize)
                if source_dtype is not None
                else int(arr.dtype.itemsize)
            )
        elif arr.shape != self._shape:
            raise CompressionError(
                f"snapshot shape {arr.shape} does not match the stream's "
                f"{self._shape}"
            )
        self._buffer.append(arr)
        self.stats.snapshots += 1
        self.stats.raw_bytes += arr.size * self.stats.source_itemsize
        recorder = get_recorder()
        if recorder.enabled:
            # Rolling-window throughput for /metrics and `mdz top`:
            # together with stream.chunk_bytes this gives raw-in vs
            # compressed-out rates without touching StreamStats.
            recorder.count("stream.raw_bytes", arr.size * self.stats.source_itemsize)
            recorder.count("stream.snapshots")
        if len(self._buffer) >= self.config.buffer_size:
            self._flush()
        else:
            self._collect(block=False)

    def feed_many(self, snapshots: Iterable[np.ndarray]) -> None:
        """Feed an iterable of snapshots (or a ``(T, N, axes)`` array)."""
        for snapshot in snapshots:
            self.feed(snapshot)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> StreamStats:
        """Flush the partial buffer, seal the footer, release resources.

        Idempotent: later calls return the final stats unchanged.  A
        never-fed stream cannot be finalized; when the writer opened the
        output path itself, the useless partial file is removed before
        the error propagates, so no unreadable 0-byte container is left
        behind.
        """
        if self._closed:
            return self.stats
        if self._buffer:
            self._flush()
        if self._sessions is None:
            self._release()
            self._discard_partial_file()
            raise CompressionError("cannot finalize an empty stream")
        start = time.perf_counter()
        with get_recorder().timer("stream.close_drain"):
            self._collect(block=True)
        self.stats.compress_seconds += time.perf_counter() - start
        self._offset += fmt.write_footer(
            self._fh, self._chunks, self.stats.snapshots, self._offset
        )
        self._fh.flush()
        self.stats.bytes_written = self._offset
        self._release()
        return self.stats

    def abort(self) -> None:
        """Stop without writing the footer (simulates/handles a crash).

        The file keeps every chunk written so far and remains readable
        with ``StreamingReader(..., recover=True)``.
        """
        if self._closed:
            return
        if self._owns_executor:
            self._executor.terminate()
        self._fh.flush()
        self._release()

    def __enter__(self) -> "StreamingWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exception, leave a recoverable (footer-less) file rather
        # than sealing a stream the producer considers incomplete.
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- internals ------------------------------------------------------

    def _release(self) -> None:
        self._closed = True
        self._buffer.clear()
        self.auditor.clear()
        # A closed writer is often kept around (a retired service
        # session); drop the per-axis encoder state and the chunk index.
        self._sessions = None
        self._chunks = []
        if self._owns_executor:
            self._executor.close()
        if self._owns_fh:
            self._fh.close()

    def _discard_partial_file(self) -> None:
        """Remove an owned output file that never received valid content."""
        if not (self._owns_fh and self._path is not None):
            return
        try:
            self._path.unlink()
        except OSError as exc:
            get_recorder().event("stream.writer.unlink_failed", repr(exc))

    def _start(self, batch: np.ndarray) -> None:
        """First flush: resolve bounds, open sessions, write the header."""
        n_atoms, n_axes = self._shape
        self._bounds = []
        self._sessions = []
        for a in range(n_axes):
            axis = batch[:, :, a]
            bound = self.config.absolute_bound(
                float(axis.max() - axis.min())
            )
            session = MDZAxisCompressor(self.config)
            session.begin(bound, SessionMeta(n_atoms=n_atoms))
            self._bounds.append(bound)
            self._sessions.append(session)
        header = {
            "atoms": n_atoms,
            "axes": n_axes,
            "buffer_size": self.config.buffer_size,
            "error_bounds": self._bounds,
            "scale": self.config.quantization_scale,
            "sequence": self.config.sequence_mode,
            "method": self.config.method,
            "lossless": self.config.lossless_backend,
        }
        # Same rule as io/container.py: only a non-default ADP pool is
        # recorded, so default streams stay byte-identical to the seed.
        if (
            self.config.method == "adp"
            and self.config.adp_members != DEFAULT_MEMBERS
        ):
            header["members"] = list(self.config.adp_members)
        self._offset += fmt.write_magic(self._fh)
        self._offset += fmt.write_header(self._fh, header)

    def _flush(self) -> None:
        recorder = get_recorder()
        start = time.perf_counter()
        batch = np.stack(self._buffer)  # (B, N, axes)
        self._buffer.clear()
        if self._sessions is None:
            self._start(batch)
        rows = batch.shape[0]
        with recorder.span("stream.flush", buffer=self._buffer_index):
            # One contiguous (axes, B, N) block: per-axis contiguous
            # views for the in-session path, and the ready-to-ship
            # payload for dispatched axes (copied once into a
            # shared-memory slot, or pickled whole as the fallback).
            axes_block = np.ascontiguousarray(np.moveaxis(batch, 2, 0))
            dispatch: list[tuple[int, AxisJobSpec]] = []
            for a in range(batch.shape[2]):
                session = self._sessions[a]
                axis_batch = axes_block[a]
                # Sampled buffers keep a copy of their original values
                # until the encoded chunk lands (see _collect); the stash
                # is the only extra memory auditing costs.
                self.auditor.stash(self._buffer_index, a, axis_batch)
                method = session.pending_method()
                if method is None:
                    # First buffer or ADP trial: must run in-session, where
                    # it establishes the reference/level model or re-picks
                    # the method for the following buffers.  Flush any
                    # dispatchable axes accumulated so far first, so the
                    # executor queue stays aligned with self._pending.
                    self._dispatch(dispatch, axes_block)
                    with recorder.span(
                        "stream.encode.axis",
                        axis=a,
                        buffer=self._buffer_index,
                        mode="session",
                    ):
                        blob = session.compress_batch(axis_batch)
                    self._executor.push(blob)
                else:
                    dispatch.append(
                        (a, self._job_spec(a, session, method, recorder))
                    )
                    session.note_external_buffer()
                self._pending.append(
                    _PendingChunk(
                        buffer_index=self._buffer_index, axis=a, rows=rows
                    )
                )
            self._dispatch(dispatch, axes_block)
        self._buffer_index += 1
        self.stats.buffers += 1
        self._collect(block=False)
        elapsed = time.perf_counter() - start
        self.stats.compress_seconds += elapsed
        if recorder.enabled:
            recorder.observe("stream.flush", elapsed)

    def _job_spec(
        self, axis: int, session: MDZAxisCompressor, method: str, recorder
    ) -> AxisJobSpec:
        """Build the out-of-session job spec for one axis.

        The frozen session state travels by the cheapest available
        route: it is pickled and published to a shared-memory segment
        once per state digest (workers cache the rebuilt session under
        the digest, so most jobs transfer nothing at all); when
        publishing is declined — serial mode, shared memory unavailable
        — the spec carries the state inline exactly as before.
        """
        reference, level_fit, digest = session.export_session_state(method)
        if digest not in self._state_handles:
            self._state_handles[digest] = self._executor.publish(
                pickle.dumps(
                    (reference, level_fit), pickle.HIGHEST_PROTOCOL
                )
            )
        handle = self._state_handles[digest]
        return AxisJobSpec(
            method=method,
            error_bound=session.error_bound,
            n_atoms=self._shape[0],
            quantization_scale=self.config.quantization_scale,
            sequence_mode=self.config.sequence_mode,
            lossless_backend=self.config.lossless_backend,
            level_seed=self.config.level_seed,
            # State ships through the published segment when available;
            # the reference is None unless the method's registry entry
            # needs it (export_session_state already applies that rule).
            reference=None if handle is not None else reference,
            level_fit=None if handle is not None else level_fit,
            entropy_streams=self.config.entropy_streams,
            # Span token: the worker's root span re-parents under this
            # flush (None on non-tracing recorders).
            trace=recorder.export_token(
                axis=axis, buffer=self._buffer_index, mode="worker"
            ),
            telemetry=recorder.enabled,
            state_digest=digest,
            state_shm=handle,
        )

    def _dispatch(
        self, dispatch: list[tuple[int, AxisJobSpec]], axes_block: np.ndarray
    ) -> None:
        """Submit accumulated axis jobs as one batched flush job.

        One :class:`FlushJobSpec` carries every dispatched axis of the
        flush — a single IPC round trip.  The payload travels through a
        shared-memory ring slot when the executor can provide one
        (``stream.executor.shm_bytes`` counts the copied bytes); the
        fallback ships the stacked array pickled, and serial mode runs
        the same job inline.  ``dispatch`` is consumed.
        """
        if not dispatch:
            return
        axes = [a for a, _ in dispatch]
        jobs = tuple(spec for _, spec in dispatch)
        dispatch.clear()
        if axes == list(range(axes_block.shape[0])):
            payload = axes_block  # whole flush: already the right block
        else:
            payload = np.ascontiguousarray(axes_block[axes])
        slot = self._executor.acquire_slot(payload.nbytes)
        if slot is not None:
            desc = slot.pack(payload)
            get_recorder().count(
                "stream.executor.shm_bytes", payload.nbytes
            )
            self._executor.submit(
                encode_flush, FlushJobSpec(jobs=jobs, shm=desc), None,
                slot=slot,
            )
        else:
            self._executor.submit(
                encode_flush, FlushJobSpec(jobs=jobs), payload
            )

    def _collect(self, block: bool) -> None:
        """Append chunk frames for every completed compression job."""
        recorder = get_recorder()
        results = self._executor.drain() if block else self._executor.ready()
        for result in results:
            # A batched flush job resolves to the list of its per-axis
            # results; an in-session push is a single payload.
            for blob in result if type(result) is list else (result,):
                if type(blob) is tuple:
                    # Observability sideband from an out-of-session job:
                    # (bytes, recorder snapshot).  Fold the worker's
                    # metrics, spans, and provenance into the session
                    # recorder; the spans were already parented under our
                    # flush span via the job-spec token.
                    blob, sideband = blob
                    merge = getattr(recorder, "merge", None)
                    if merge is not None:
                        merge(sideband)
                meta = self._pending.popleft()
                written = self._commit_chunk(meta, blob)
                self.stats.chunks += 1
                if recorder.enabled:
                    recorder.count("stream.chunks_written")
                    recorder.count("stream.chunk_bytes", written)
                original = self.auditor.pop(meta.buffer_index, meta.axis)
                if original is not None:
                    report = self.auditor.audit(
                        self._sessions[meta.axis],
                        blob,
                        original,
                        buffer_index=meta.buffer_index,
                        axis=meta.axis,
                    )
                    self.stats.audits += 1
                    if not report.within_bound:
                        self.stats.audit_violations += 1
        if recorder.enabled:
            # Chunks compressed (or in flight) but not yet on disk.
            recorder.gauge("stream.queue_depth", len(self._pending))
        self.stats.bytes_written = self._offset

    def _commit_chunk(self, meta: _PendingChunk, payload: bytes) -> int:
        """Atomically append one chunk frame; returns bytes written.

        ``self._offset`` is the commit fence: it only advances when a
        frame lands completely.  A failed attempt (torn write, injected
        ``OSError``, ENOSPC) is rolled back by truncating to the fence
        and retried with capped exponential backoff; when the target
        cannot seek (pipe, socket) the rollback is impossible, so the
        error propagates immediately — the salvage scan still recovers
        everything up to the fence.

        Raises :class:`CompressionError` (chaining the last ``OSError``)
        after ``WRITE_RETRIES`` failed attempts, leaving the file rolled
        back to the fence, i.e. a valid recoverable archive.
        """
        recorder = get_recorder()
        last_exc: OSError | None = None
        for attempt in range(self.WRITE_RETRIES + 1):
            if attempt:
                recorder.count("stream.writer.write_retries")
                recorder.event(
                    "stream.writer.retry",
                    f"chunk (buffer {meta.buffer_index}, axis {meta.axis}) "
                    f"attempt {attempt + 1}: {last_exc!r}",
                )
                time.sleep(
                    backoff_delay(
                        attempt, self.RETRY_BASE_DELAY, self.RETRY_MAX_DELAY
                    )
                )
            try:
                entry, written = fmt.write_chunk(
                    self._fh,
                    meta.buffer_index,
                    meta.axis,
                    meta.rows,
                    payload,
                    self._offset,
                    self._rolling,
                )
                self._fh.flush()
                if self._sync:
                    self._fsync()
            except OSError as exc:
                last_exc = exc
                if not self._rollback_to_fence():
                    break  # unseekable target: cannot safely retry
                continue
            self._chunks.append(entry)
            self._offset += written
            self._rolling = entry.rolling
            return written
        recorder.event("stream.writer.write_failed", repr(last_exc))
        raise CompressionError(
            f"chunk (buffer {meta.buffer_index}, axis {meta.axis}) could "
            f"not be written after {self.WRITE_RETRIES + 1} attempts: "
            f"{last_exc}"
        ) from last_exc

    def _rollback_to_fence(self) -> bool:
        """Truncate the output back to the last committed frame.

        Returns False when the target does not support seek/truncate
        (pipes, sockets) or the rollback itself failed — in both cases a
        retry would append after garbage, so the caller must give up.
        """
        try:
            self._fh.seek(self._offset)
            self._fh.truncate()
        except (OSError, ValueError, AttributeError, io.UnsupportedOperation):
            return False
        get_recorder().count("stream.writer.rollbacks")
        return True

    def _fsync(self) -> None:
        """Force the committed frame to stable storage (``sync=True``)."""
        fileno = getattr(self._fh, "fileno", None)
        if fileno is None:
            return
        try:
            os.fsync(fileno())
        except (OSError, ValueError, io.UnsupportedOperation):
            pass  # in-memory targets have no backing descriptor
