"""Shared fixtures: small, fast synthetic streams for every test module."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def crystal_stream(rng) -> np.ndarray:
    """A (20, 300) stream with discrete levels + small vibration.

    Mimics the Copper-B regime: level structure in space, decorrelated
    vibration in time.
    """
    levels = rng.integers(0, 10, 300) * 1.8
    vibration = rng.normal(0.0, 0.04, (20, 300))
    return (levels[None, :] + vibration).astype(np.float64)


@pytest.fixture
def smooth_stream(rng) -> np.ndarray:
    """A (20, 300) stream that is very smooth in time (Pt/LJ regime)."""
    base = rng.uniform(0.0, 50.0, 300)
    drift = np.cumsum(rng.normal(0.0, 0.005, (20, 300)), axis=0)
    return (base[None, :] + drift).astype(np.float64)


@pytest.fixture
def random_stream(rng) -> np.ndarray:
    """A (20, 300) stream with no structure (protein/solvent regime)."""
    return np.cumsum(rng.normal(0.0, 0.5, (20, 300)), axis=0) + rng.uniform(
        0, 30, 300
    )


@pytest.fixture
def trajectory(rng) -> np.ndarray:
    """A small (12, 150, 3) trajectory for container-level tests."""
    levels = rng.integers(0, 8, (150, 3)) * 2.0
    vib = rng.normal(0.0, 0.03, (12, 150, 3))
    drift = np.cumsum(rng.normal(0.0, 0.002, (12, 1, 3)), axis=0)
    return levels[None, :, :] + vib + drift


def absolute_bound(stream: np.ndarray, epsilon: float = 1e-3) -> float:
    """Value-range-relative bound -> absolute, as the harness does."""
    return float(epsilon) * float(stream.max() - stream.min())


def _rewrite_header(blob: bytes, edit) -> bytes:
    """Re-frame a container of either generation with an edited header.

    ``edit(header_dict)`` mutates the stored header in place.  ``MDZ2``
    streams are rewritten frame by frame (fresh offsets, header CRC,
    rolling checksums and footer), so only the header content is wrong.
    """
    import io

    from repro.serde import BlobReader, BlobWriter
    from repro.stream import format as fmt

    if fmt.is_stream_container(blob):
        layout = fmt.parse_stream(blob)
        header = dict(layout.header)
        edit(header)
        out = io.BytesIO()
        offset = fmt.write_magic(out)
        offset += fmt.write_header(out, header)
        entries, rolling = [], 0
        for entry in layout.chunks:
            new, written = fmt.write_chunk(
                out,
                entry.buffer_index,
                entry.axis,
                entry.rows,
                fmt.chunk_payload(blob, entry),
                offset,
                rolling,
            )
            entries.append(new)
            rolling = new.rolling
            offset += written
        fmt.write_footer(out, entries, layout.snapshots, offset)
        return out.getvalue()
    reader = BlobReader(blob)
    magic = reader.read_bytes()
    header = reader.read_json()
    index = reader.read_json()
    payload = reader.read_bytes()
    edit(header)
    writer = BlobWriter()
    writer.write_bytes(magic)
    writer.write_json(header)
    writer.write_json(index)
    writer.write_bytes(payload)
    return writer.getvalue()


@pytest.fixture
def rewrite_header():
    """``rewrite_header(blob, edit)``: a container with an edited header."""
    return _rewrite_header
