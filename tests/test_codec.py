"""Tests for the codec core shared by ``MDZ1`` and ``MDZ2``.

* header validation: one parser rejects every malformed codec header,
  with the same message on every read surface and in ``verify``;
* the random-access rule: a buffer read equals its slice of the full
  decode, and decodes buffer 0 first only for members that read the
  session reference;
* salvage follows the same rule.
"""

from __future__ import annotations

import io
import re

import numpy as np
import pytest

from repro.core.codec import CodecHeader
from repro.core.config import MDZConfig
from repro.exceptions import ContainerFormatError, DecompressionError
from repro.io.container import (
    read_container,
    read_container_batch,
    read_container_info,
    verify_container,
    write_container,
)
from repro.serde import BlobReader, BlobWriter
from repro.stream import StreamingReader, stream_compress
from repro.stream import format as fmt
from repro.telemetry import MetricsRecorder, recording

MEMBERS = ("vq", "vqt", "mt", "interp", "bitadaptive")
#: Members whose buffers decode without buffer 0.
ISOLATED = ("vq", "vqt", "interp")


def _encode(trajectory: np.ndarray, generation: str, config: MDZConfig):
    if generation == "MDZ1":
        return write_container(trajectory, config)
    sink = io.BytesIO()
    stream_compress(trajectory, sink, config=config)
    return sink.getvalue()


def _drop(key):
    return lambda header: header.pop(key)


def _set(key, value):
    return lambda header: header.__setitem__(key, value)


#: (edit, message pattern) per malformed-header case.
CASES = {
    "missing-scale": (_drop("scale"), "missing field 'scale'"),
    "missing-buffer_size": (
        _drop("buffer_size"),
        "missing field 'buffer_size'",
    ),
    "short-error_bounds": (
        lambda h: h.__setitem__("error_bounds", h["error_bounds"][:-1]),
        "'error_bounds' must list 3 finite positive bounds",
    ),
    "buffer_size-0": (
        _set("buffer_size", 0),
        "'buffer_size' must be an integer >= 1",
    ),
    "atoms-off-by-one": (
        lambda h: h.__setitem__("atoms", h["atoms"] + 1),
        "the header expects",
    ),
    "unknown-method": (_set("method", "nope"), "'nope'"),
}

READERS = {
    "read_container": read_container,
    "read_container_batch": lambda blob: read_container_batch(blob, 1),
    "read_container_info": read_container_info,
}


class TestHeaderValidation:
    @pytest.mark.parametrize("generation", ["MDZ1", "MDZ2"])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize(
        "entry", sorted(READERS) + ["verify_container"]
    )
    def test_malformed_header_fails_cleanly(
        self, trajectory, rewrite_header, generation, case, entry
    ):
        edit, pattern = CASES[case]
        config = MDZConfig(buffer_size=4, method="mt")
        blob = rewrite_header(_encode(trajectory, generation, config), edit)
        if entry == "verify_container":
            report = verify_container(blob)
            assert report["format"] == generation
            assert report["intact"] is False
            assert any(re.search(pattern, e) for e in report["errors"]), (
                report["errors"]
            )
            return
        # A header the parser rejects is a malformed container; a header
        # that only disagrees with its payloads (atoms) surfaces when a
        # payload decodes to the wrong shape.
        decodes = case == "atoms-off-by-one" and entry != "read_container_info"
        expected = DecompressionError if decodes else ContainerFormatError
        with pytest.raises(expected, match=pattern):
            READERS[entry](blob)

    def test_round_trip_of_the_header_dict(self):
        config = MDZConfig(method="adp", adp_members=("mt", "interp"))
        block = np.zeros((2, 7, 2))
        header = CodecHeader.from_config(config, block)
        assert header.to_json()["members"] == ["mt", "interp"]
        assert CodecHeader.from_json(header.to_json()) == header
        default = CodecHeader.from_config(MDZConfig(), block)
        assert "members" not in default.to_json()

    @pytest.mark.parametrize(
        "edit",
        [
            _set("error_bounds", [0.1, float("nan"), 0.1]),
            _set("error_bounds", [0.1, -0.1, 0.1]),
            _set("error_bounds", [0.1, "0.1", 0.1]),
            _set("axes", 0),
            _set("atoms", True),
            _set("members", ["mt", "nope"]),
            _set("lossless", 1),
            _set("scale", 2),
        ],
    )
    def test_more_rejections(self, edit):
        block = np.zeros((2, 7, 3))
        header = CodecHeader.from_config(MDZConfig(), block).to_json()
        edit(header)
        with pytest.raises(ContainerFormatError):
            CodecHeader.from_json(header)


def _rewrite_mdz1(blob: bytes, edit) -> bytes:
    """An ``MDZ1`` blob whose header and index ``edit(header, index)``
    mutated in place."""
    reader = BlobReader(blob)
    sections = [reader.read_bytes(), reader.read_json(), reader.read_json()]
    payload = reader.read_bytes()
    edit(sections[1], sections[2])
    writer = BlobWriter()
    writer.write_bytes(sections[0])
    writer.write_json(sections[1])
    writer.write_json(sections[2])
    writer.write_bytes(payload)
    return writer.getvalue()


def _swap_offsets(header, index):
    index["offsets"][1], index["offsets"][2] = (
        index["offsets"][2], index["offsets"][1],
    )


class TestMDZ1Index:
    @pytest.mark.parametrize(
        "edit, pattern",
        [
            (lambda h, i: i["offsets"].pop(), "holds 8 payload offsets"),
            (lambda h, i: h.__setitem__("snapshots", 13), "need 12"),
            (lambda h, i: h.pop("snapshots"), "missing field 'snapshots'"),
            (_swap_offsets, "not ascending"),
            (lambda h, i: i.__setitem__("crc32", "x"), "'crc32' must be"),
        ],
    )
    def test_malformed_index_fails_cleanly(self, trajectory, edit, pattern):
        blob = write_container(trajectory, MDZConfig(buffer_size=4))
        bad = _rewrite_mdz1(blob, edit)
        with pytest.raises(ContainerFormatError, match=pattern):
            read_container(bad)
        report = verify_container(bad)
        assert report["intact"] is False
        assert any(re.search(pattern, e) for e in report["errors"])


def _decode_calls(read) -> int:
    with recording(MetricsRecorder()) as rec:
        read()
    return rec.snapshot()["timers"]["mdz.decompress_batch"]["count"]


class TestRandomAccess:
    @pytest.mark.parametrize("generation", ["MDZ1", "MDZ2"])
    @pytest.mark.parametrize("method", MEMBERS + ("adp",))
    def test_every_buffer_read_equals_its_slice(
        self, trajectory, generation, method
    ):
        config = MDZConfig(buffer_size=4, method=method)
        blob = _encode(trajectory, generation, config)
        full = read_container(blob)
        for b in range(3):
            piece = read_container_batch(blob, b)
            assert np.array_equal(piece, full[4 * b : 4 * b + 4])

    @pytest.mark.parametrize("generation", ["MDZ1", "MDZ2"])
    @pytest.mark.parametrize("method", MEMBERS + ("adp",))
    def test_head_is_decoded_only_when_needed(
        self, trajectory, generation, method
    ):
        blob = _encode(
            trajectory, generation, MDZConfig(buffer_size=4, method=method)
        )
        axes = trajectory.shape[2]
        calls = _decode_calls(lambda: read_container_batch(blob, 2))
        assert calls == (axes if method in ISOLATED else 2 * axes)

    def test_isolated_adp_pool_skips_the_head(self, trajectory):
        config = MDZConfig(
            buffer_size=4, method="adp", adp_members=ISOLATED
        )
        blob = write_container(trajectory, config)
        calls = _decode_calls(lambda: read_container_batch(blob, 2))
        assert calls == trajectory.shape[2]
        assert np.array_equal(
            read_container_batch(blob, 2), read_container(blob)[8:12]
        )


class TestSalvageRule:
    def _corrupt_head(self, trajectory, method):
        blob = _encode(
            trajectory, "MDZ2", MDZConfig(buffer_size=4, method=method)
        )
        entry = fmt.parse_stream(blob).chunks[0]
        assert (entry.buffer_index, entry.axis) == (0, 0)
        bad = bytearray(blob)
        bad[entry.offset + entry.length // 2] ^= 0xFF
        return blob, bytes(bad)

    def test_vqt_loses_only_buffer_zero(self, trajectory):
        blob, bad = self._corrupt_head(trajectory, "vqt")
        reader = StreamingReader(bad, salvage=True)
        report = reader.salvage_report()
        assert report.lost_snapshots == [0, 1, 2, 3]
        assert report.readable_snapshots == 8
        assert np.array_equal(reader.read_all(), read_container(blob)[4:])

    def test_default_adp_loses_every_buffer(self, trajectory):
        _, bad = self._corrupt_head(trajectory, "adp")
        report = StreamingReader(bad, salvage=True).salvage_report()
        assert report.lost_snapshots == list(range(12))
        assert report.readable_snapshots == 0
