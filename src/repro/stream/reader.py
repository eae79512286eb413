"""Reader for ``MDZ2`` streaming containers.

Supports three access patterns:

* :meth:`StreamingReader.read_all` — sequential full decode, sessions
  carried across buffers exactly like the writer's;
* :meth:`StreamingReader.read_buffer` — random access to one buffer;
  buffer 0 is decoded first only when a member reads the session
  reference (:attr:`repro.core.codec.CodecHeader.needs_head`);
* :meth:`StreamingReader.iter_buffers` — incremental consumption with
  bounded memory (the analysis-side half of the in-situ pipeline).

Opened with ``recover=True``, a footer-less file (crashed writer,
truncated copy) is re-indexed by a linear scan and every *complete*
buffer — all axes present and CRC-intact — is readable up to the first
damaged frame.

Opened with ``salvage=True``, damaged frames are *skipped* instead of
ending the scan: quarantined chunks are excluded from the index, every
decodable buffer anywhere in the file is readable, and
:meth:`StreamingReader.salvage_report` accounts for exactly which
snapshot indices were lost.  The salvage guarantees (what "lost" means)
are documented in ``docs/architecture.md``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.codec import CodecHeader, ContainerReader
from ..exceptions import ContainerFormatError
from . import format as fmt


@dataclass(frozen=True)
class BufferStatus:
    """Salvage-time status of one buffer of the stream.

    ``rows_assumed`` is True when every chunk of the buffer was lost and
    the row count is the header's ``buffer_size`` (exact for all buffers
    except a partial final one, which a salvage report flags through
    ``SalvageReport.truncated_tail`` anyway).
    """

    index: int
    rows: int
    rows_assumed: bool
    present_axes: tuple[int, ...]
    decodable: bool
    #: Global snapshot range ``[start, stop)`` this buffer covers.
    snapshot_range: tuple[int, int]

    def to_json(self) -> dict:
        """JSON-serializable form used by ``mdz verify --json``."""
        return {
            "buffer": self.index,
            "rows": self.rows,
            "rows_assumed": self.rows_assumed,
            "present_axes": list(self.present_axes),
            "decodable": self.decodable,
            "snapshots": list(self.snapshot_range),
        }


@dataclass
class SalvageReport:
    """Exact accounting of what a salvage read can and cannot recover.

    The contract: every snapshot the stream ever contained is either

    * *readable* — its buffer is decodable and its global index appears
      in one of the ``buffers`` entries with ``decodable=True``; or
    * *lost* — its global index is listed in ``lost_snapshots``; or
    * part of the *unaccounted tail* — only when ``truncated_tail`` is
      True (footer-less files, where frames after the last surviving
      byte are unknowable).

    There is no fourth state: ``readable_snapshots +
    len(lost_snapshots)`` equals the stream's snapshot count whenever
    the footer survived (``expected_snapshots`` is then that count).
    """

    path: str | None
    footer_intact: bool
    #: The footer's snapshot-count claim; None when the footer was lost.
    expected_snapshots: int | None
    readable_snapshots: int
    #: Global indices of snapshots in undecodable buffers, ascending.
    lost_snapshots: list[int]
    buffers: list[BufferStatus]
    quarantined: list[fmt.Quarantine]
    #: True when the stream may have continued past the surviving bytes
    #: (no footer), i.e. zero or more trailing snapshots are unaccounted.
    truncated_tail: bool

    @property
    def intact(self) -> bool:
        """True when nothing was lost and the footer survived."""
        return (
            self.footer_intact
            and not self.lost_snapshots
            and not self.quarantined
        )

    def to_json(self) -> dict:
        """JSON-serializable form (written by ``mdz repair --report``)."""
        return {
            "path": self.path,
            "footer_intact": self.footer_intact,
            "expected_snapshots": self.expected_snapshots,
            "readable_snapshots": self.readable_snapshots,
            "lost_snapshots": self.lost_snapshots,
            "truncated_tail": self.truncated_tail,
            "intact": self.intact,
            "buffers": [b.to_json() for b in self.buffers],
            "quarantined": [q.to_json() for q in self.quarantined],
        }


class StreamingReader(ContainerReader):
    """Random-access and sequential decoder for one ``MDZ2`` stream.

    Parameters
    ----------
    source:
        Container bytes, or a path to read them from.
    recover:
        Accept files without an intact footer by scanning for surviving
        chunk frames.  Off by default so silent truncation is an error.
    salvage:
        Implies ``recover``; additionally *skip* damaged chunk frames
        (quarantine) instead of stopping at the first one, making every
        decodable buffer in the file readable and
        :meth:`salvage_report` available with full loss accounting.

    Raises
    ------
    ContainerFormatError
        For empty input, a bad magic, a damaged header, a header that
        fails :meth:`CodecHeader.from_json` validation, or (strict mode)
        a missing footer.  When ``source`` is a path, the message names
        it.
    OSError
        When the path cannot be read.
    """

    def __init__(
        self,
        source: bytes | str | Path,
        recover: bool = False,
        salvage: bool = False,
    ) -> None:
        if isinstance(source, (str, Path)):
            self._path: str | None = str(source)
            self._blob = Path(source).read_bytes()
        else:
            self._path = None
            self._blob = bytes(source)
        self._salvage = bool(salvage)
        try:
            self._layout = fmt.parse_stream(
                self._blob, recover=recover or salvage, salvage=salvage
            )
            self.header = CodecHeader.from_json(self._layout.header)
        except struct.error as exc:
            # Defensive: framing bugs must never leak struct internals.
            raise self._named(
                ContainerFormatError(f"not a valid MDZ2 stream: {exc}")
            ) from exc
        except ContainerFormatError as exc:
            raise self._named(exc) from exc
        self.atoms = self.header.atoms
        self.axes = self.header.axes
        self.buffer_size = self.header.buffer_size
        self.error_bounds = self.header.error_bounds
        self.method = self.header.method
        self.sequence = self.header.sequence
        self._chunk_map: dict[tuple[int, int], fmt.ChunkEntry] = {}
        for entry in self._layout.chunks:
            self._chunk_map[(entry.buffer_index, entry.axis)] = entry
        #: Number of *complete* buffers (every axis chunk present) and
        #: the snapshots they cover.
        self.n_buffers = 0
        while all(
            (self.n_buffers, a) in self._chunk_map for a in range(self.axes)
        ):
            self.n_buffers += 1
        self.snapshots = sum(self._rows(b) for b in range(self.n_buffers))

    def _named(self, exc: ContainerFormatError) -> ContainerFormatError:
        """Prefix a format error with the source path, when one exists."""
        if self._path is None:
            return exc
        return ContainerFormatError(f"{self._path}: {exc}")

    # -- structure ------------------------------------------------------

    @property
    def recovered(self) -> bool:
        """True when the index was rebuilt by the recovery scan."""
        return not self._layout.complete

    @property
    def chunks(self) -> list[fmt.ChunkEntry]:
        """Index entries of every readable chunk, in file order."""
        return list(self._layout.chunks)

    # -- decoding -------------------------------------------------------

    def _payload(self, buffer_index: int, axis: int) -> bytes:
        entry = self._chunk_map.get((buffer_index, axis))
        if entry is None:
            raise ContainerFormatError(
                f"chunk (buffer {buffer_index}, axis {axis}) is missing "
                "from the stream"
            )
        return fmt.chunk_payload(self._blob, entry)

    def _rows(self, buffer_index: int) -> int:
        return self._chunk_map[(buffer_index, 0)].rows

    def _pieces(self):
        for entry in self._layout.chunks:
            yield entry.axis, entry.rows, fmt.chunk_payload(self._blob, entry)

    # Named in this class's own namespace: per-class instrumentation
    # (mdzbench/tracer.py) wraps ``StreamingReader.read_buffer`` there.
    read_buffer = ContainerReader.read_buffer

    def iter_buffers(self) -> Iterator[np.ndarray]:
        """Yield every complete buffer in order, with persistent sessions."""
        sessions = self.header.sessions()
        for b in range(self.n_buffers):
            yield self._decode([b], sessions)

    def read_all(self) -> np.ndarray:
        """Decode every readable buffer into one ``(T, N, axes)`` array:
        the complete-buffer prefix, or in salvage mode every *decodable*
        buffer, each read alone, so the time axis may skip lost
        snapshots (:meth:`salvage_report` maps rows back)."""
        if not self._salvage:
            return super().read_all()
        return self._decode(
            [s.index for s in self._buffer_statuses() if s.decodable]
        )

    # -- salvage --------------------------------------------------------

    def _buffer_statuses(self) -> list[BufferStatus]:
        """Per-buffer presence/decodability over every *known* buffer.

        A buffer is known when any chunk or quarantined frame names its
        index; buffers in between with nothing surviving are included
        with ``rows_assumed=True`` (the header's ``buffer_size``).
        """
        known_rows: dict[int, int] = {}
        present: dict[int, set[int]] = {}
        for entry in self._layout.chunks:
            known_rows.setdefault(entry.buffer_index, entry.rows)
            present.setdefault(entry.buffer_index, set()).add(entry.axis)
        for q in self._layout.quarantined:
            if q.buffer_index is not None and q.rows is not None:
                known_rows.setdefault(q.buffer_index, q.rows)
        n_known = max(known_rows, default=-1) + 1
        buffer0_complete = len(present.get(0, ())) == self.axes
        statuses: list[BufferStatus] = []
        start = 0
        for b in range(n_known):
            rows = known_rows.get(b)
            assumed = rows is None
            if assumed:
                rows = self.buffer_size
            axes_present = tuple(sorted(present.get(b, ())))
            complete = len(axes_present) == self.axes
            decodable = complete and (
                b == 0 or not self.header.needs_head or buffer0_complete
            )
            statuses.append(
                BufferStatus(
                    index=b,
                    rows=rows,
                    rows_assumed=assumed,
                    present_axes=axes_present,
                    decodable=decodable,
                    snapshot_range=(start, start + rows),
                )
            )
            start += rows
        return statuses

    def salvage_report(self) -> SalvageReport:
        """Account for every snapshot: readable, lost, or unaccounted tail.

        Available in any mode (on an intact stream it reports zero
        losses); meaningful primarily with ``salvage=True``, where
        quarantined chunks make buffers undecodable.  See
        :class:`SalvageReport` for the exact guarantees.
        """
        statuses = self._buffer_statuses()
        lost: list[int] = []
        readable = 0
        for status in statuses:
            if status.decodable:
                readable += status.rows
            else:
                lost.extend(range(*status.snapshot_range))
        known = statuses[-1].snapshot_range[1] if statuses else 0
        expected = (
            self._layout.snapshots if self._layout.complete else None
        )
        if expected is not None and expected > known:
            # Footer claims snapshots no surviving or quarantined frame
            # covers (should not happen — the footer indexes everything —
            # but account rather than under-report).
            lost.extend(range(known, expected))
        return SalvageReport(
            path=self._path,
            footer_intact=self._layout.complete,
            expected_snapshots=expected,
            readable_snapshots=readable,
            lost_snapshots=lost,
            buffers=statuses,
            quarantined=list(self._layout.quarantined),
            truncated_tail=not self._layout.complete,
        )

    def iter_salvaged(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(buffer_index, first_snapshot, array)`` per decodable buffer.

        Decodes every buffer the salvage scan left intact — including
        buffers *after* a damaged region (stateful methods re-prime from
        buffer 0 per buffer, so a mid-stream gap does not poison what
        follows).  ``first_snapshot`` is the buffer's global snapshot
        offset from :meth:`salvage_report`.
        """
        for status in self._buffer_statuses():
            if status.decodable:
                yield (
                    status.index,
                    status.snapshot_range[0],
                    self._decode([status.index]),
                )
