"""The codec core behind both container generations.

``MDZ1`` (:mod:`repro.io.container`) and ``MDZ2`` (:mod:`repro.stream`)
run the same per-axis sessions and only frame the blobs differently.
Every decision they share lives here once: the codec header
(:class:`CodecHeader`: its one builder, its one validating parser, the
sessions it implies and the random-access rule), bound resolution, and
the decode paths (:class:`ContainerReader`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
import numpy as np

from ..baselines.api import SessionMeta
from ..exceptions import (
    ConfigurationError,
    ContainerFormatError,
    DecompressionError,
)
from ..serde import BlobReader
from ..sz.lossless import lossless_decompress
from .config import MDZConfig
from .mdz import MDZAxisCompressor
from .methods import METHOD_NAMES
from .registry import DEFAULT_MEMBERS, needs_head, validate_members


def require(obj: dict, key: str, kind=int, minimum: int = 1, what="header"):
    """``obj[key]``, which must have type ``kind`` (ints: ``>= minimum``);
    :class:`ContainerFormatError` otherwise."""
    if key not in obj:
        raise ContainerFormatError(f"{what} is missing field {key!r}")
    value = obj[key]
    if type(value) is not kind or (kind is int and value < minimum):
        need = f"an integer >= {minimum}" if kind is int else kind.__name__
        raise ContainerFormatError(
            f"{what} field {key!r} must be {need}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class CodecHeader:
    """The codec fields of an ``MDZ1`` or ``MDZ2`` header.

    ``members`` is the ADP pool, ``None`` when the header omits it.
    """

    atoms: int
    axes: int
    buffer_size: int
    error_bounds: tuple[float, ...]
    scale: int
    sequence: str
    method: str
    lossless: str
    members: tuple[str, ...] | None = None

    @classmethod
    def from_config(
        cls, config: MDZConfig, block: np.ndarray
    ) -> "CodecHeader":
        """The header an encoder with ``config`` writes, bounds resolved
        over ``block`` (:func:`resolve_bounds`)."""
        bounds = tuple(resolve_bounds(block, config))
        return cls(
            atoms=block.shape[1],
            axes=len(bounds),
            buffer_size=config.buffer_size,
            error_bounds=bounds,
            scale=config.quantization_scale,
            sequence=config.sequence_mode,
            method=config.method,
            lossless=config.lossless_backend,
            members=config.adp_members if config.method == "adp" else None,
        )

    def to_json(self) -> dict:
        """The stored header dict.  Only a non-default ADP pool is
        recorded, so default-pool archives stay byte-identical to the
        seed (pinned by ``tools/legacy_digests.py``)."""
        header = asdict(self)
        header["error_bounds"] = list(self.error_bounds)
        if header.pop("members") not in (None, DEFAULT_MEMBERS):
            header["members"] = list(self.members)
        return header

    @classmethod
    def from_json(cls, obj) -> "CodecHeader":
        """Parse a stored header; :class:`ContainerFormatError` unless
        every codec field is present and valid (``docs/formats.md``).
        Other keys (``MDZ1``'s ``snapshots``/``dtype``) are ignored."""
        if not isinstance(obj, dict):
            raise ContainerFormatError("header is not a JSON object")
        names = ("atoms", "axes", "buffer_size", "scale")
        ints = {name: require(obj, name) for name in names}
        bounds = require(obj, "error_bounds", list)
        if len(bounds) != ints["axes"] or not all(
            type(b) in (int, float) and math.isfinite(b) and b > 0
            for b in bounds
        ):
            raise ContainerFormatError(
                f"header field 'error_bounds' must list {ints['axes']} "
                f"finite positive bounds (one per axis), got {bounds!r}"
            )
        members = obj.get("members")
        if members is not None:
            members = tuple(require(obj, "members", list))
        header = cls(
            **ints,
            error_bounds=tuple(float(b) for b in bounds),
            sequence=require(obj, "sequence", str),
            method=require(obj, "method", str),
            lossless=require(obj, "lossless", str),
            members=members,
        )
        try:
            header.config()
            if members is not None:
                validate_members(members)
        except (ConfigurationError, TypeError) as exc:
            raise ContainerFormatError(f"invalid header: {exc}") from exc
        return header

    def config(self) -> MDZConfig:
        """The decode configuration (bounds reach sessions via ``begin``)."""
        return MDZConfig(
            error_bound=1.0,
            error_bound_mode="absolute",
            buffer_size=self.buffer_size,
            quantization_scale=self.scale,
            sequence_mode=self.sequence,
            method=self.method,
            adp_members=self.members or DEFAULT_MEMBERS,
            lossless_backend=self.lossless,
        )

    def sessions(self, config: MDZConfig | None = None) -> list:
        """One fresh session per axis.  Encoders pass their own config:
        its unrecorded fields (``level_seed``, ...) shape the bytes."""
        config = config or self.config()
        return [open_session(config, b, self.atoms) for b in self.error_bounds]

    @property
    def needs_head(self) -> bool:
        """True when buffer ``k > 0`` decodes only after buffer 0: the
        method, or a member of the ADP pool, reads the session reference
        (registry ``needs_reference``: MT and bitadaptive)."""
        return needs_head(self.method, self.members or DEFAULT_MEMBERS)


def resolve_bounds(block: np.ndarray, config: MDZConfig) -> list[float]:
    """Absolute per-axis bounds of a ``(rows, atoms, axes)`` block: the
    whole trajectory for ``MDZ1``, the first buffer for ``MDZ2``."""
    return [
        config.absolute_bound(float(axis.max() - axis.min()))
        for axis in np.moveaxis(block, 2, 0)
    ]


def open_session(
    config: MDZConfig, error_bound: float, atoms: int,
    reference: np.ndarray | None = None, level_fit=None,
) -> MDZAxisCompressor:
    """A begun per-axis session, seeded with frozen state when given."""
    session = MDZAxisCompressor(config)
    session.begin(error_bound, SessionMeta(n_atoms=atoms))
    session.seed_session(reference, level_fit)
    return session


def payload_tag(blob: bytes, rows: int, atoms: int) -> str:
    """A payload's method name, after checking the ``shape`` record its
    method payload opens with against ``(rows, atoms)`` — no values are
    decoded.  Raises :class:`ContainerFormatError` on a mismatch."""
    reader = BlobReader(lossless_decompress(blob))
    try:
        method_id = int(reader.read_json()["m"])
        shape = BlobReader(reader.read_bytes()).read_json()["shape"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContainerFormatError(f"malformed payload: {exc!r}") from exc
    if shape != [rows, atoms]:
        raise ContainerFormatError(
            f"payload holds a {shape} buffer; the header expects "
            f"[{rows}, {atoms}]"
        )
    return METHOD_NAMES.get(method_id, f"?{method_id}")


@dataclass(frozen=True)
class ContainerInfo(CodecHeader):
    """A container's codec header plus its structure (no values decoded).

    ``methods_per_axis`` counts, per axis, the buffers coded with each
    method — ADP's per-axis choices (Table VI), inspected post hoc.
    """

    snapshots: int = 0
    n_buffers: int = 0
    payload_bytes: int = 0
    methods_per_axis: tuple[dict[str, int], ...] = ()


class ContainerReader:
    """The decode paths both generations share.

    A framing sets ``header``, ``snapshots`` and ``n_buffers`` (complete
    buffers) and provides ``_payload(buffer, axis)``, ``_rows(buffer)``
    and ``_pieces()`` (every stored ``(axis, rows, payload)``).
    """

    header: CodecHeader

    def decode_buffer(
        self, index: int, out: np.ndarray, sessions: list | None = None
    ) -> None:
        """Decode buffer ``index`` into ``out`` (``(rows, atoms, axes)``).

        Sequential reads pass their ``sessions``; without them the buffer
        is read alone, from buffer 0 first only when :attr:`needs_head
        <CodecHeader.needs_head>`.  DecompressionError on a bad shape.
        """
        if sessions is None:
            sessions = self.header.sessions()
            if index > 0 and self.header.needs_head:
                for axis, session in enumerate(sessions):
                    session.decompress_batch(self._payload(0, axis))
        for axis, session in enumerate(sessions):
            values = session.decompress_batch(self._payload(index, axis))
            if values.shape != out.shape[:2]:
                raise DecompressionError(
                    f"buffer {index} axis {axis} decodes to {values.shape}; "
                    f"the header expects {out.shape[:2]}"
                )
            out[:, :, axis] = values

    def _decode(self, buffers, sessions: list | None = None) -> np.ndarray:
        """Decode ``buffers`` into one ``(rows, atoms, axes)`` array."""
        rows = [self._rows(b) for b in buffers]
        out = np.empty(
            (sum(rows), self.header.atoms, self.header.axes), dtype=np.float64
        )
        start = 0
        for b, n in zip(buffers, rows):
            self.decode_buffer(b, out[start : start + n], sessions)
            start += n
        return out

    def read_all(self) -> np.ndarray:
        """Decode every complete buffer, sessions carried across them."""
        return self._decode(range(self.n_buffers), self.header.sessions())

    def read_buffer(self, index: int) -> np.ndarray:
        """Decode one complete buffer to a ``(rows, atoms, axes)`` array;
        ContainerFormatError outside the complete-buffer prefix."""
        if not 0 <= index < self.n_buffers:
            raise ContainerFormatError(
                f"buffer {index} out of range (container has "
                f"{self.n_buffers} complete buffers)"
            )
        return self._decode([index])

    def container_info(self) -> ContainerInfo:
        """Header fields plus the per-axis method tags of every payload."""
        methods: list[dict[str, int]] = [{} for _ in range(self.header.axes)]
        payload_bytes = 0
        for axis, rows, blob in self._pieces():
            payload_bytes += len(blob)
            name = payload_tag(blob, rows, self.header.atoms)
            methods[axis][name] = methods[axis].get(name, 0) + 1
        return ContainerInfo(
            **vars(self.header),
            snapshots=self.snapshots,
            n_buffers=self.n_buffers,
            payload_bytes=payload_bytes,
            methods_per_axis=tuple(methods),
        )
