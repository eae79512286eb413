"""Tests for hierarchical tracing: spans, provenance, export, workers."""

import io
import json
import threading

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.core.mdz import MDZ
from repro.stream import stream_compress
from repro.telemetry import (
    MetricsRecorder,
    TracingRecorder,
    get_recorder,
    recording,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_provenance,
)
from repro.telemetry.recorder import _NULL_SPAN


@pytest.fixture
def trajectory(rng) -> np.ndarray:
    levels = rng.integers(0, 8, 60) * 2.0
    return levels[None, :, None] + rng.normal(0, 0.03, (12, 60, 3))


def _by_id(spans):
    out = {s["span_id"]: s for s in spans}
    # Span ids must be unique even after merging worker-side snapshots
    # produced in the *same* process (inline executor fallback).
    assert len(out) == len(spans)
    return out


class TestSpanPrimitives:
    def test_nesting_links_parent(self):
        rec = TracingRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        spans = _by_id(rec.snapshot()["spans"])
        inner = next(s for s in spans.values() if s["name"] == "inner")
        outer = next(s for s in spans.values() if s["name"] == "outer")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None

    def test_no_negative_durations_and_containment(self):
        rec = TracingRecorder()
        with rec.span("a"):
            with rec.span("b"):
                with rec.span("c"):
                    pass
        spans = _by_id(rec.snapshot()["spans"])
        for span in spans.values():
            assert span["duration"] >= 0.0
            parent = spans.get(span["parent_id"])
            if parent is not None:
                # Same process, same clock: children are contained.
                assert parent["start"] <= span["start"]
                assert (
                    span["start"] + span["duration"]
                    <= parent["start"] + parent["duration"] + 1e-9
                )

    def test_no_orphans_within_one_recorder(self):
        rec = TracingRecorder()
        with rec.span("root"):
            with rec.span("mid"):
                with rec.span("leaf"):
                    pass
            with rec.span("mid2"):
                pass
        spans = _by_id(rec.snapshot()["spans"])
        for span in spans.values():
            assert span["parent_id"] is None or span["parent_id"] in spans

    def test_stack_unwinds_on_exception(self):
        from repro.telemetry.tracing import current_span_id

        rec = TracingRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("root"):
                raise RuntimeError("boom")
        assert current_span_id() is None
        span = rec.snapshot()["spans"][0]
        assert "error" in span["attrs"]

    def test_explicit_parent_overrides_stack(self):
        rec = TracingRecorder()
        with rec.span("root"):
            with rec.span("detached", parent="ffff-99"):
                pass
        spans = rec.snapshot()["spans"]
        detached = next(s for s in spans if s["name"] == "detached")
        assert detached["parent_id"] == "ffff-99"

    def test_attrs_are_bounded(self):
        from repro.telemetry.tracing import MAX_ATTR_CHARS, MAX_ATTRS

        rec = TracingRecorder()
        many = {f"k{i}": i for i in range(MAX_ATTRS * 2)}
        with rec.span("s", big="x" * (MAX_ATTR_CHARS * 3), **many):
            pass
        attrs = rec.snapshot()["spans"][0]["attrs"]
        assert len(attrs) <= MAX_ATTRS
        assert len(attrs["big"]) == MAX_ATTR_CHARS

    def test_span_cap_drops_and_counts(self):
        rec = TracingRecorder(max_spans=3)
        for _ in range(5):
            with rec.span("s"):
                pass
        snap = rec.snapshot()
        assert len(snap["spans"]) == 3
        assert snap["counters"]["trace.spans_dropped"] == 2

    def test_pack_keeps_snapshot_content(self):
        rec = TracingRecorder()
        with rec.span("buffer", provenance=True, axis=0):
            with rec.span("stage"):
                rec.annotate(method="vq", sizes={"vq": 10})
        before = rec.snapshot()
        rec.pack()
        assert rec._spans == [] and rec._provenance == []
        after = rec.snapshot()
        assert after["spans"] == before["spans"]
        assert after["provenance"] == before["provenance"]
        with rec.span("late"):
            pass
        names = [span["name"] for span in rec.snapshot()["spans"]]
        assert names == ["stage", "buffer", "late"]
        rec.reset()
        assert rec.snapshot()["spans"] == []

    def test_null_recorder_span_is_shared_noop(self):
        rec = get_recorder()
        handle = rec.span("anything", pointless=1)
        assert handle is _NULL_SPAN
        with handle:
            handle.annotate(ignored=True)
        assert rec.export_token(x=1) is None

    def test_annotate_prefers_provenance_span_and_absorb_wins(self):
        rec = TracingRecorder()
        with rec.span("buffer", provenance=True):
            with rec.span("stage"):
                rec.annotate(reached="provenance")
            with rec.span("trial", absorb=True):
                rec.annotate(swallowed=True)
        record = rec.snapshot()["provenance"][0]
        assert record["reached"] == "provenance"
        assert "swallowed" not in record

    def test_annotate_without_spans_is_harmless(self):
        rec = TracingRecorder()
        rec.annotate(orphan=True)
        assert rec.snapshot()["provenance"] == []


class TestPipelineTracing:
    def test_compress_emits_provenance_per_buffer(self, trajectory):
        rec = TracingRecorder()
        with recording(rec):
            MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        snap = rec.snapshot()
        records = snap["provenance"]
        assert len(records) == 9  # 3 buffers x 3 axes
        for record in records:
            assert record["method"] in ("vq", "vqt", "mt")
            assert record["raw_values"] == 4 * 60
            assert 0 < record["compressed_bytes"]
            assert record["duration"] >= 0
        # ADP trial buffers carry the trial outcome.
        trials = [r for r in records if r.get("adp_trial")]
        assert trials
        for record in trials:
            assert set(record["adp_sizes"]) == {"vq", "vqt", "mt"}
            assert record["adp_chosen"] == record["method"]
        # Non-trial buffers carry the entropy fan-out annotation.
        plain = [r for r in records if not r.get("adp_trial")]
        for record in plain:
            assert record["entropy_streams"] >= 1
            assert record["lossless_out"] == record["compressed_bytes"]

    def test_stream_spans_nest_flush_over_buffers(self, trajectory):
        rec = TracingRecorder()
        with recording(rec):
            stream_compress(trajectory, io.BytesIO(), MDZConfig(buffer_size=4))
        spans = _by_id(rec.snapshot()["spans"])
        flushes = [s for s in spans.values() if s["name"] == "stream.flush"]
        assert len(flushes) == 3
        buffers = [
            s for s in spans.values() if s["name"] == "mdz.compress.buffer"
        ]
        assert len(buffers) == 9
        for span in spans.values():
            assert span["duration"] >= 0.0
            assert span["parent_id"] is None or span["parent_id"] in spans

    def test_plain_metrics_recorder_collects_no_spans(self, trajectory):
        rec = MetricsRecorder()
        with recording(rec):
            MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        snap = rec.snapshot()
        assert "spans" not in snap
        assert snap["counters"]["mdz.buffers"] == 9


class TestCrossProcess:
    def test_workers_byte_identical_and_reparented(self, trajectory):
        serial_sink, parallel_sink = io.BytesIO(), io.BytesIO()
        serial_rec, parallel_rec = TracingRecorder(), TracingRecorder()
        with recording(serial_rec):
            stream_compress(
                trajectory, serial_sink, MDZConfig(buffer_size=2), workers=0
            )
        with recording(parallel_rec):
            stream_compress(
                trajectory, parallel_sink, MDZConfig(buffer_size=2), workers=2
            )
        assert serial_sink.getvalue() == parallel_sink.getvalue()

        snap = parallel_rec.snapshot()
        spans = _by_id(snap["spans"])
        session_pid = snap["trace"]["pid"]
        worker_roots = [
            s
            for s in spans.values()
            if s["name"] == "stream.worker.encode_axis"
        ]
        assert worker_roots
        for root in worker_roots:
            # Re-parented under a session-side flush span.
            parent = spans[root["parent_id"]]
            assert parent["pid"] == session_pid
            assert parent["name"] == "stream.flush"
            assert root["attrs"]["buffer"] == parent["attrs"]["buffer"]
        # At least some jobs ran in actual worker processes, and their
        # nested stage spans came along in the merge.
        foreign = [s for s in spans.values() if s["pid"] != session_pid]
        if foreign:  # pool may legitimately degrade inline on tiny boxes
            names = {s["name"] for s in foreign}
            assert "mdz.compress.buffer" in names
        # Provenance covers every (buffer, axis) chunk exactly once.
        keys = {
            (r["buffer"], r["axis"])
            for r in snap["provenance"]
            if "buffer" in r
        }
        assert len(keys) == len(snap["provenance"]) == 6 * 3

    def test_worker_metrics_sideband_merges(self, trajectory):
        rec = MetricsRecorder()
        with recording(rec):
            stream_compress(
                trajectory, io.BytesIO(), MDZConfig(buffer_size=2), workers=2
            )
        snap = rec.snapshot()
        # Out-of-session jobs' stage counters made it back to the session.
        assert snap["counters"]["mdz.buffers"] == 6 * 3
        assert snap["counters"]["stream.chunks_written"] == 6 * 3


class TestExport:
    def test_chrome_trace_is_valid_and_nested(self, tmp_path, trajectory):
        rec = TracingRecorder()
        with recording(rec):
            stream_compress(trajectory, io.BytesIO(), MDZConfig(buffer_size=4))
        trace = write_chrome_trace(tmp_path / "trace.json", rec.snapshot())
        validate_chrome_trace(trace)
        reloaded = json.loads((tmp_path / "trace.json").read_text())
        validate_chrome_trace(reloaded)
        xs = [e for e in reloaded["traceEvents"] if e["ph"] == "X"]
        assert xs
        ts = [e["ts"] for e in xs]
        assert ts == sorted(ts)
        assert min(ts) == 0.0
        names = {e["name"] for e in xs}
        assert {"stream.flush", "mdz.compress.buffer"} <= names

    def test_provenance_jsonl_round_trips(self, tmp_path, trajectory):
        rec = TracingRecorder()
        with recording(rec):
            MDZ(MDZConfig(buffer_size=4)).compress(trajectory)
        path = tmp_path / "prov.jsonl"
        n = write_provenance(path, rec.snapshot())
        lines = path.read_text().splitlines()
        assert len(lines) == n == 9
        for line in lines:
            record = json.loads(line)
            assert "method" in record and "span_id" in record

    def test_validator_rejects_malformed_traces(self):
        validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "a", "ph": "Z", "pid": 1, "tid": 1, "ts": 0}
                    ]
                }
            )
        with pytest.raises(ValueError, match="monotonicity"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "a", "ph": "X", "pid": 1, "tid": 1,
                         "ts": 5.0, "dur": 1.0},
                        {"name": "b", "ph": "X", "pid": 1, "tid": 1,
                         "ts": 1.0, "dur": 1.0},
                    ]
                }
            )
        with pytest.raises(ValueError, match="unmatched"):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 0}
                    ]
                }
            )

    def test_empty_snapshot_exports_cleanly(self):
        rec = TracingRecorder()
        trace = to_chrome_trace(rec.snapshot())
        validate_chrome_trace(trace)


class TestConcurrentMerge:
    def test_merge_is_atomic_under_concurrent_snapshots(self):
        """A snapshot taken mid-merge must never see torn aggregates.

        Each worker snapshot carries a counter increment and a timer
        observation in lockstep; if merge released the lock between the
        counter fold and the timer fold, a concurrent reader would see
        them disagree.
        """
        worker = MetricsRecorder()
        worker.count("jobs", 1)
        worker.observe("job.time", 0.001)
        worker.event("job.done", "ok")
        worker_snap = worker.snapshot()

        session = MetricsRecorder()
        stop = threading.Event()
        tears = []

        def reader():
            while not stop.is_set():
                snap = session.snapshot()
                jobs = snap["counters"].get("jobs", 0)
                timed = snap["timers"].get("job.time", {"count": 0})["count"]
                if jobs != timed:
                    tears.append((jobs, timed))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for _ in range(300):
            session.merge(worker_snap)
        stop.set()
        for t in threads:
            t.join()
        assert not tears, f"torn merge observed: {tears[:3]}"
        final = session.snapshot()
        assert final["counters"]["jobs"] == 300
        assert final["timers"]["job.time"]["count"] == 300

    def test_concurrent_merges_from_many_threads(self):
        worker = MetricsRecorder()
        worker.count("n", 1)
        worker.observe("t", 0.5)
        snap = worker.snapshot()
        session = TracingRecorder()
        span_snap = None
        with session.span("s"):
            pass
        span_snap = session.snapshot()

        def fold():
            for _ in range(50):
                session.merge(snap)
                session.merge(span_snap)

        threads = [threading.Thread(target=fold) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = session.snapshot()
        assert final["counters"]["n"] == 200
        assert final["timers"]["t"]["count"] == 200
        assert final["timers"]["t"]["seconds"] == pytest.approx(100.0)
