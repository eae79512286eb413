"""The ``.mdz`` container formats.

Two container generations share this read API:

* ``MDZ1`` — the original monolithic layout, written in one piece by
  :func:`write_container`.  All little-endian, sections framed by
  :mod:`repro.serde`::

      magic   : 4 bytes  b"MDZ1"
      header  : JSON     the codec header (:class:`CodecHeader`) plus
                          {snapshots, dtype}
      index   : JSON     byte offsets of every (buffer, axis) payload within
                          the payload area, buffer-major
      payload : BYTES    concatenation of the per-buffer per-axis blobs

* ``MDZ2`` — the append-only chunked streaming layout produced by
  :class:`repro.stream.writer.StreamingWriter` (see
  :mod:`repro.stream.format`).

:func:`read_container`, :func:`read_container_batch`, and
:func:`read_container_info` sniff the magic and dispatch, so every
consumer (CLI, benchmarks, analysis) handles both generations.

Everything else — the codec header and its validation, sessions,
bounds, decoding and the random-access rule — lives in
:mod:`repro.core.codec`; this module only frames bytes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..core.codec import (
    CodecHeader,
    ContainerInfo,
    ContainerReader,
    payload_tag,
    require,
)
from ..core.config import MDZConfig
from ..telemetry import QualityAuditor
from ..exceptions import (
    CompressionError,
    ContainerFormatError,
    DecompressionError,
)
from ..serde import BlobReader, BlobWriter

MAGIC = b"MDZ1"


def container_version(blob: bytes) -> int:
    """The format generation of a container blob: 1 or 2.

    Raises :class:`ContainerFormatError` for empty input or when the
    blob carries neither magic.  ``MDZ2`` files lead with their raw
    magic; ``MDZ1`` blobs frame it as the first :mod:`repro.serde`
    section.
    """
    from ..stream.format import is_stream_container

    if len(blob) == 0:
        raise ContainerFormatError(
            "container is empty (zero-length input)"
        )
    if is_stream_container(blob):
        return 2
    try:
        magic = BlobReader(blob).read_bytes()
    except DecompressionError as exc:
        raise ContainerFormatError(
            f"not an .mdz container: {exc}"
        ) from exc
    if magic != MAGIC:
        raise ContainerFormatError(
            f"bad container magic {magic!r}; expected {MAGIC!r} or MDZ2"
        )
    return 1


def write_container(positions: np.ndarray, config: MDZConfig) -> bytes:
    """Compress a (snapshots, atoms, axes) array into a container."""
    positions = np.asarray(positions)
    if positions.ndim != 3:
        raise CompressionError(
            f"expected a (snapshots, atoms, axes) array, got {positions.shape}"
        )
    t_count, n_atoms, n_axes = positions.shape
    if t_count == 0 or n_atoms == 0:
        raise CompressionError("cannot compress an empty trajectory")
    work = positions.astype(np.float64)
    header = CodecHeader.from_config(config, work)
    sessions = header.sessions(config)
    bs = config.buffer_size
    auditor = QualityAuditor(config.audit_interval)
    blobs: list[bytes] = []
    offsets: list[int] = []
    cursor = 0
    for t0 in range(0, t_count, bs):
        chunk = work[t0 : t0 + bs]
        buffer_index = t0 // bs
        for a in range(n_axes):
            blob = sessions[a].compress_batch(chunk[:, :, a])
            if auditor.want(buffer_index):
                auditor.audit(
                    sessions[a],
                    blob,
                    chunk[:, :, a],
                    buffer_index=buffer_index,
                    axis=a,
                )
            offsets.append(cursor)
            cursor += len(blob)
            blobs.append(blob)
    writer = BlobWriter()
    writer.write_bytes(MAGIC)
    framing = {"snapshots": t_count, "dtype": positions.dtype.str}
    writer.write_json({**header.to_json(), **framing})
    payload = b"".join(blobs)
    writer.write_json(
        {
            "offsets": offsets,
            "total": cursor,
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        }
    )
    writer.write_bytes(payload)
    return writer.getvalue()


@dataclass(frozen=True)
class _Container(ContainerReader):
    """A parsed, validated ``MDZ1`` blob: header, index and payload area."""

    header: CodecHeader
    snapshots: int
    offsets: list[int]
    payload: bytes

    @property
    def n_buffers(self) -> int:
        return len(self.offsets) // self.header.axes

    def _rows(self, buffer_index: int) -> int:
        bs = self.header.buffer_size
        return min(bs, self.snapshots - buffer_index * bs)

    def _payload(self, buffer_index: int, axis: int) -> bytes:
        i = buffer_index * self.header.axes + axis
        end = self.offsets[i + 1] if i + 1 < len(self.offsets) else None
        return self.payload[self.offsets[i] : end]

    def _pieces(self):
        for b in range(self.n_buffers):
            for a in range(self.header.axes):
                yield a, self._rows(b), self._payload(b, a)


def _open_container(blob: bytes) -> _Container:
    reader = BlobReader(blob)
    reader.read_bytes()  # the magic, checked by container_version()
    try:
        raw_header = reader.read_json()
        index = reader.read_json()
        payload = reader.read_bytes()
    except DecompressionError as exc:
        # Framing-level failures (short frames, wrong tags) mean the file
        # itself is damaged, not one compressed payload inside it.
        raise ContainerFormatError(
            f"truncated or malformed container: {exc}"
        ) from exc
    header = CodecHeader.from_json(raw_header)
    snapshots = require(raw_header, "snapshots")
    if not isinstance(index, dict):
        raise ContainerFormatError("container index is not a JSON object")
    total = require(index, "total", minimum=0, what="index")
    if total != len(payload):
        raise ContainerFormatError(
            f"payload length {len(payload)} does not match index total "
            f"{total}"
        )
    if "crc32" in index:
        expected_crc = require(index, "crc32", minimum=0, what="index")
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != expected_crc:
            raise ContainerFormatError(
                f"payload checksum mismatch (stored {expected_crc:#010x}, "
                f"computed {actual:#010x}): the container is corrupted"
            )
    offsets = require(index, "offsets", list, what="index")
    expected = -(-snapshots // header.buffer_size) * header.axes
    if len(offsets) != expected:
        raise ContainerFormatError(
            f"index holds {len(offsets)} payload offsets; {snapshots} "
            f"snapshots in buffers of {header.buffer_size} over "
            f"{header.axes} axes need {expected}"
        )
    if not all(
        type(o) is int and lo <= o <= total
        for lo, o in zip([0] + offsets, offsets)
    ):
        raise ContainerFormatError(
            f"index offsets are not ascending within the {total}-byte "
            "payload"
        )
    return _Container(header, snapshots, offsets, payload)


def _open(blob: bytes) -> ContainerReader:
    """A reader over either generation, dispatched on the magic."""
    if container_version(blob) == 2:
        from ..stream.reader import StreamingReader

        return StreamingReader(blob)
    return _open_container(blob)


def read_container(blob: bytes) -> np.ndarray:
    """Decompress a full container (``MDZ1`` or ``MDZ2``) to float64."""
    return _open(blob).read_all()


def read_container_info(blob: bytes) -> ContainerInfo:
    """Inspect a container: header fields plus the per-buffer method tags."""
    return _open(blob).container_info()


def read_container_batch(blob: bytes, batch_index: int) -> np.ndarray:
    """Decode one buffer (all axes) from a container; buffer 0 first
    only when :attr:`~repro.core.codec.CodecHeader.needs_head`."""
    return _open(blob).read_buffer(batch_index)


def verify_container(blob: bytes) -> dict:
    """Integrity audit of a container of either generation, no decoding.

    Dispatches on the magic: ``MDZ2`` blobs go through
    :func:`repro.stream.format.verify_stream` (per-chunk CRCs, rolling
    checksum chain, footer/index agreement); ``MDZ1`` blobs are checked
    for frame structure, index/payload agreement, and the whole-payload
    CRC32.  Both generations validate the codec header
    (:meth:`CodecHeader.from_json`) and check the first payload's shape
    record against it (:func:`~repro.core.codec.payload_tag`); no values
    are decoded.

    Returns a JSON-serialisable report.  Common keys:

    * ``format`` — ``"MDZ1"`` or ``"MDZ2"``;
    * ``intact`` — ``True`` only when every check passed;
    * ``errors`` — human-readable failure descriptions (empty if intact).

    Never raises for damaged input: structural failures are folded into
    the report (``intact=False``).  Only a zero-length blob still raises
    :class:`ContainerFormatError`, mirroring :func:`container_version`.
    """
    version = container_version(blob)
    if version == 2:
        from ..stream.format import verify_stream

        return verify_stream(blob)
    report: dict = {
        "format": "MDZ1",
        "intact": False,
        "header": False,
        "chunks": 0,
        "snapshots": 0,
        "errors": [],
    }
    try:
        container = _open_container(blob)
        report["header"] = True
        report["snapshots"] = container.snapshots
        report["chunks"] = len(container.offsets)
        _, rows, first = next(container._pieces())
        payload_tag(first, rows, container.header.atoms)
    except DecompressionError as exc:
        report["errors"].append(str(exc))
        return report
    report["intact"] = True
    return report
