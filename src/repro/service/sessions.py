"""Token-keyed multi-tenant streaming sessions over ``StreamingWriter``.

One session = one tenant's in-progress ``MDZ2`` archive: a
:class:`~repro.stream.writer.StreamingWriter` spooling to a private file,
a private :class:`~repro.telemetry.tracing.TracingRecorder` (so tenants
never see each other's metrics or spans), and an ``asyncio.Lock`` that
serializes feeds *within* the session while distinct sessions run
concurrently.  Feeds execute on worker threads via ``asyncio.to_thread``
with the session recorder installed through the context-local slot
(:func:`repro.telemetry.recording`) — the contextvar layer is what makes
two interleaved tenants' telemetry not clobber each other.

Lifecycle: ``open`` -> (``closed`` | ``aborted`` | ``expired``).

* ``close`` drains the writer through its commit fence and seals the
  footer — the archive is ``mdz verify``-clean from that instant;
* ``abort`` (client gave up) and idle ``expiry`` (client disconnected
  and never came back) stop without a footer: the spool file keeps every
  committed chunk and stays salvageable via
  ``StreamingReader(salvage=True)`` — a mid-session disconnect never
  costs data the writer already acknowledged;
* :meth:`SessionManager.shutdown` walks every live session through
  ``close`` so a graceful server stop leaves only verify-clean archives.
"""

from __future__ import annotations

import asyncio
import secrets
import time
from dataclasses import dataclass
from pathlib import Path

from ..core.config import MDZConfig
from ..exceptions import CompressionError
from ..stream.writer import StreamingWriter, StreamStats
from ..telemetry import recording
from ..telemetry.tracing import TracingRecorder
from .errors import bad_request, conflict, gone, not_found

#: Session states.
OPEN, CLOSED, ABORTED, EXPIRED = "open", "closed", "aborted", "expired"

#: MDZConfig fields a session-create request may set, with coercions.
_CONFIG_FIELDS = {
    "error_bound": float,
    "error_bound_mode": str,
    "buffer_size": int,
    "quantization_scale": int,
    "sequence_mode": str,
    "method": str,
    "adp_members": lambda v: tuple(
        part.strip() for part in v.split(",") if part.strip()
    ) if isinstance(v, str) else tuple(str(m) for m in v),
    "lossless_backend": str,
    "level_seed": int,
    "entropy_streams": int,
    "audit_interval": int,
}


def config_from_request(payload: dict) -> MDZConfig:
    """Build an :class:`MDZConfig` from a session-create JSON body.

    Unknown keys and uncoercible values are structured 400s; internally
    inconsistent settings surface as ``ConfigurationError`` from the
    config itself (mapped to ``invalid_config`` at the boundary).
    """
    kwargs = {}
    for key, value in payload.items():
        coerce = _CONFIG_FIELDS.get(key)
        if coerce is None:
            raise bad_request(
                f"unknown session config key {key!r}",
                f"allowed: {', '.join(sorted(_CONFIG_FIELDS))}",
                code="bad_config_key",
            )
        try:
            kwargs[key] = coerce(value)
        except (TypeError, ValueError) as exc:
            raise bad_request(
                f"config key {key!r} has uncoercible value {value!r}",
                str(exc),
                code="bad_config_value",
            ) from exc
    return MDZConfig(**kwargs)


@dataclass
class Session:
    """One tenant's streaming-compression session."""

    token: str
    path: str
    writer: StreamingWriter
    recorder: TracingRecorder
    lock: asyncio.Lock
    created: float
    last_active: float
    state: str = OPEN
    stats: StreamStats | None = None

    def describe(self) -> dict:
        """JSON summary used by the create/feed/list responses."""
        live = self.writer.stats if self.stats is None else self.stats
        return {
            "token": self.token,
            "state": self.state,
            "snapshots": live.snapshots,
            "buffers": live.buffers,
            "chunks": live.chunks,
            "bytes_written": live.bytes_written,
        }


class SessionManager:
    """Creates, serves, expires, and finalizes streaming sessions.

    Parameters
    ----------
    spool_dir:
        Directory for per-session archive files (``<token>.mdz``).
    ttl:
        Idle seconds after which an open session is expired (its writer
        aborted, its file left salvageable).
    clock:
        Monotonic time source, injectable for deterministic expiry tests.
    """

    def __init__(
        self,
        spool_dir,
        ttl: float = 300.0,
        clock=time.monotonic,
        on_retire=None,
    ):
        self.spool_dir = Path(spool_dir)
        self.ttl = float(ttl)
        self._clock = clock
        self._sessions: dict[str, Session] = {}
        #: Called with each session as it leaves ``open`` (closed,
        #: aborted, or expired) — the server folds durable telemetry
        #: (quality counters) out of the tenant recorder there, since
        #: per-session series vanish from ``/metrics`` at retirement.
        self._on_retire = on_retire

    def _retire(self, session: Session) -> None:
        if self._on_retire is not None:
            self._on_retire(session)
        # The record stays for /stats and /trace but is never traced
        # into again: keep its spans and provenance as one packed blob.
        session.recorder.pack()

    # -- queries --------------------------------------------------------

    def counts(self) -> dict:
        """Session-state census for the stats endpoint."""
        counts = {OPEN: 0, CLOSED: 0, ABORTED: 0, EXPIRED: 0}
        for session in self._sessions.values():
            counts[session.state] += 1
        return counts

    def live(self) -> list[Session]:
        return [s for s in self._sessions.values() if s.state == OPEN]

    def get(self, token: str, *, require_state: str | None = None) -> Session:
        """Look up one session, mapping dead states to structured errors."""
        session = self._sessions.get(token)
        if session is None:
            raise not_found(f"no session {token!r}")
        if session.state == EXPIRED:
            raise gone(f"session {token!r} expired after {self.ttl:.0f}s idle")
        if session.state == ABORTED:
            raise gone(f"session {token!r} was aborted")
        if require_state is not None and session.state != require_state:
            raise conflict(
                f"session {token!r} is {session.state}, "
                f"needs to be {require_state}"
            )
        return session

    # -- lifecycle ------------------------------------------------------

    def create(self, config: MDZConfig) -> Session:
        token = secrets.token_hex(16)
        path = str(self.spool_dir / f"{token}.mdz")
        now = self._clock()
        session = Session(
            token=token,
            path=path,
            writer=StreamingWriter(path, config),
            recorder=TracingRecorder(),
            lock=asyncio.Lock(),
            created=now,
            last_active=now,
        )
        self._sessions[token] = session
        return session

    async def feed(self, session: Session, batch) -> dict:
        """Append one snapshot — or a ``(T, N, axes)`` batch — to a session.

        Runs the CPU-bound compression on a worker thread with the
        session's private recorder installed; the session lock serializes
        feeds of one tenant without stalling the others.
        """
        async with session.lock:
            if session.state != OPEN:
                # State may have flipped while we waited on the lock
                # (expiry sweep, concurrent close).
                self.get(session.token, require_state=OPEN)
            session.last_active = self._clock()
            await asyncio.to_thread(self._feed_sync, session, batch)
            session.last_active = self._clock()
            return session.describe()

    @staticmethod
    def _feed_sync(session: Session, batch) -> None:
        with recording(session.recorder):
            if batch.ndim == 3:
                session.writer.feed_many(batch)
            else:
                session.writer.feed(batch)

    async def close(self, session: Session) -> StreamStats:
        """Finalize a session through the writer's commit fence."""
        async with session.lock:
            if session.state != OPEN:
                self.get(session.token, require_state=OPEN)
            try:
                stats = await asyncio.to_thread(self._close_sync, session)
            except CompressionError:
                # "cannot finalize an empty stream": the writer already
                # released itself and discarded the useless spool file —
                # record that so later requests get a clean 410.
                session.state = ABORTED
                self._retire(session)
                raise
            session.stats = stats
            session.state = CLOSED
            self._retire(session)
            return stats

    @staticmethod
    def _close_sync(session: Session) -> StreamStats:
        with recording(session.recorder):
            return session.writer.close()

    async def abort(self, session: Session) -> None:
        """Drop a session; the spool file stays salvageable."""
        async with session.lock:
            if session.state == OPEN:
                await asyncio.to_thread(session.writer.abort)
                session.state = ABORTED
                self._retire(session)

    def forget(self, token: str) -> None:
        """Remove a session record entirely (after an explicit DELETE)."""
        self._sessions.pop(token, None)

    # -- expiry and shutdown --------------------------------------------

    def idle_tokens(self, now: float | None = None) -> list[str]:
        """Tokens of open sessions idle past the TTL."""
        now = self._clock() if now is None else now
        return [
            s.token
            for s in self._sessions.values()
            if s.state == OPEN and now - s.last_active > self.ttl
        ]

    async def expire_idle(self, now: float | None = None) -> list[str]:
        """Expire every open session idle past the TTL.

        The writer is *aborted*, not closed: an expired tenant
        disconnected mid-stream, and sealing a footer would promote a
        half-finished trajectory to "complete".  The footer-less spool
        file keeps every committed chunk and is salvage-readable.
        """
        expired = []
        for token in self.idle_tokens(now):
            session = self._sessions.get(token)
            if session is None:
                continue
            async with session.lock:
                if session.state != OPEN:
                    continue
                await asyncio.to_thread(session.writer.abort)
                session.state = EXPIRED
                self._retire(session)
                expired.append(token)
        return expired

    async def shutdown(self) -> dict:
        """Finalize every live session for a graceful server stop.

        Each open writer is driven through ``close()`` — partial buffer
        flushed, executor drained, footer sealed behind the commit fence
        — so no tenant is left holding a torn archive.  A never-fed
        session has nothing to seal and is aborted instead (its empty
        spool file is removed by the writer).
        """
        finalized: list[str] = []
        aborted: list[str] = []
        for session in self.live():
            async with session.lock:
                if session.state != OPEN:
                    continue
                try:
                    stats = await asyncio.to_thread(self._close_sync, session)
                except CompressionError:
                    # "cannot finalize an empty stream": never-fed
                    # session; the writer already discarded its file.
                    session.state = ABORTED
                    self._retire(session)
                    aborted.append(session.token)
                    continue
                session.stats = stats
                session.state = CLOSED
                self._retire(session)
                finalized.append(session.token)
        return {"finalized": finalized, "aborted": aborted}
