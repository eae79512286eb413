"""Degraded-path coverage for the executor's shared-memory transport.

The transport has a degradation ladder — pool + shared-memory payloads,
pool + pickled payloads, inline execution — and every rung must produce
byte-identical archives.  These tests force each rung: a pool that dies
mid-backpressure-wait, shared memory that is unavailable or exhausted,
and state digests that miss the worker cache, plus the lifecycle
guarantee that no ``/dev/shm`` segment outlives ``close``/``terminate``/
``abort``.
"""

from __future__ import annotations

import dataclasses
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.config import MDZConfig
from repro.stream import (
    AxisJobSpec,
    FlushJobSpec,
    ParallelExecutor,
    StreamingWriter,
    backoff_delay,
    encode_flush,
    stream_compress,
)
from repro.stream import executor as executor_mod
from repro.telemetry import MetricsRecorder, recording


def _trajectory(snapshots=24, atoms=120, seed=3):
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 6, (atoms, 3)) * 2.0
    return (
        levels[None] + rng.normal(0, 0.03, (snapshots, atoms, 3))
    ).astype(np.float32)


def _compress(traj, workers=0, executor=None, buffer_size=4):
    config = MDZConfig(
        buffer_size=buffer_size, error_bound=1e-3, error_bound_mode="absolute"
    )
    sink = io.BytesIO()
    with StreamingWriter(
        sink, config, workers=workers, executor=executor
    ) as writer:
        writer.feed_many(traj)
    return sink.getvalue()


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _double(x):
    return 2 * x


def _run_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter; its resource tracker (and so
    any tracker complaint) writes to the captured stderr."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


class _FailingHandle:
    """A pool result that never completes and fails when awaited.

    ``ready()`` is False so the non-blocking collect pass skips the job;
    the failure is only discovered when someone *waits* on it — which is
    exactly what the backpressure loop does when the queue is full."""

    def ready(self):
        return False

    def get(self, timeout=None):
        raise RuntimeError("worker died")


class _DyingPool:
    """Accepts submissions but every job is lost — the executor's retry
    path resubmits into the same void until it abandons the pool."""

    def apply_async(self, fn, args):
        return _FailingHandle()

    def terminate(self):
        pass

    def join(self):
        pass


class TestValidation:
    def test_explicit_max_pending_zero_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            ParallelExecutor(workers=2, max_pending=0)

    def test_negative_max_pending_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            ParallelExecutor(workers=2, max_pending=-3)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelExecutor(workers=-1)

    def test_explicit_max_pending_one_honored(self):
        # Regression: the old falsy test replaced 0 with the default and
        # would also have replaced nothing else — but an explicit small
        # bound must stick.
        ex = ParallelExecutor(workers=4, max_pending=1)
        assert ex.max_pending == 1
        ex.close()

    def test_default_max_pending(self):
        ex = ParallelExecutor(workers=3)
        assert ex.max_pending == 12
        ex.close()
        serial = ParallelExecutor(workers=0)
        assert serial.max_pending == 4
        serial.close()


class TestBackoffDelay:
    def test_first_retry_waits_base(self):
        assert backoff_delay(1, 0.05, 1.0) == pytest.approx(0.05)

    def test_doubles_per_retry(self):
        assert backoff_delay(2, 0.05, 1.0) == pytest.approx(0.10)
        assert backoff_delay(3, 0.05, 1.0) == pytest.approx(0.20)

    def test_capped(self):
        assert backoff_delay(30, 0.05, 1.0) == 1.0

    def test_matches_documented_policy(self):
        # The docstrings promise min(base * 2**(attempt-1), cap); keep
        # the helper pinned to that exact formula.
        for attempt in range(1, 8):
            assert backoff_delay(attempt, 0.01, 0.5) == min(
                0.01 * 2 ** (attempt - 1), 0.5
            )


class TestPoolDeathDegradation:
    def test_pool_death_mid_backpressure_wait(self, monkeypatch):
        """A pool that loses every job while submit blocks on a full
        queue must degrade to inline execution, byte-identically."""
        traj = _trajectory()
        serial = _compress(traj, workers=0)

        monkeypatch.setattr(
            ParallelExecutor, "RETRY_BASE_DELAY", 0.001, raising=True
        )
        ex = ParallelExecutor(workers=2, max_pending=1)
        ex._pool = _DyingPool()  # pool "started", then every worker dies
        with recording(MetricsRecorder()) as rec:
            blob = _compress(traj, executor=ex)
        ex.close()

        assert blob == serial
        counters = rec.snapshot()["counters"]
        # The second dispatch hit max_pending=1, waited on the first
        # job, watched it fail, and the abandon sweep re-ran it inline.
        assert counters["stream.executor.backpressure_waits"] >= 1
        assert counters["stream.executor.pool_abandoned"] == 1
        assert counters["stream.executor.jobs_rerun_inline"] >= 1
        assert counters["stream.executor.job_retries"] >= 1

    def test_slot_released_by_abandon_sweep(self):
        """Payload slots held by queued jobs are freed when the pool is
        abandoned, and the ring is unlinked once idle."""
        ex = ParallelExecutor(workers=2, max_pending=2)
        ex.RETRY_BASE_DELAY = 0.001
        ex._pool = _DyingPool()
        before = _shm_entries()
        slot = ex.acquire_slot(1024)
        assert slot is not None
        ex.submit(_double, 21, slot=slot)
        ex._abandon_pool()
        assert not ex.parallel
        assert ex.drain() == [42]
        assert _shm_entries() == before  # ring idle -> unlinked
        ex.close()

    def test_dead_pool_at_acquire_returns_none(self):
        ex = ParallelExecutor(workers=2)
        ex._broken = True
        assert ex.acquire_slot(1024) is None
        assert ex.publish(b"state") is None
        ex.close()


class TestShmLifecycle:
    def test_no_leak_after_close(self):
        before = _shm_entries()
        traj = _trajectory()
        serial = _compress(traj, workers=0)
        parallel = _compress(traj, workers=2)
        assert parallel == serial
        assert _shm_entries() == before

    def test_no_leak_after_terminate(self):
        before = _shm_entries()
        ex = ParallelExecutor(workers=2, max_pending=2)
        slot = ex.acquire_slot(4096)
        handle = ex.publish(b"frozen session state")
        assert slot is not None and handle is not None
        assert _shm_entries() != before
        ex.submit(_double, 1, slot=slot)
        ex.terminate()
        assert _shm_entries() == before

    def test_no_leak_after_writer_abort(self):
        before = _shm_entries()
        traj = _trajectory()
        config = MDZConfig(
            buffer_size=4, error_bound=1e-3, error_bound_mode="absolute"
        )
        writer = StreamingWriter(io.BytesIO(), config, workers=2)
        writer.feed_many(traj[:12])
        writer.abort()
        assert _shm_entries() == before

    def test_parallel_run_leaves_tracker_quiet(self):
        """Once the parent runs a resource tracker, forked workers share
        it: attaching must not unregister the parent's segments, or the
        parent's unlink makes the tracker print ``KeyError: '/psm_...'``
        tracebacks.  The first run starts the tracker, the second forks
        workers that inherit it."""
        before = _shm_entries()
        result = _run_python(
            """
            import io
            import numpy as np
            from repro.core.config import MDZConfig
            from repro.stream import stream_compress

            rng = np.random.default_rng(3)
            levels = rng.integers(0, 6, (120, 3)) * 2.0
            traj = levels[None] + rng.normal(0, 0.03, (24, 120, 3))
            config = MDZConfig(
                buffer_size=4, error_bound=1e-3, error_bound_mode="absolute"
            )
            for _ in range(2):
                stats = stream_compress(traj, io.BytesIO(), config, workers=2)
                print(stats.chunks)
            """
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["18", "18"]
        assert "resource_tracker" not in result.stderr
        assert "KeyError" not in result.stderr
        assert _shm_entries() == before

    def test_attach_from_process_without_tracker_keeps_segment(self):
        """A process that starts its own tracker by attaching unregisters,
        so its exit neither unlinks nor reports the session's segment."""
        seg = executor_mod._create_segment(16)
        try:
            seg.buf[:4] = b"mdz2"
            result = _run_python(
                f"""
                from repro.stream import executor
                print(executor.shared_bytes(({seg.name!r}, 4)).decode())
                """
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == "mdz2"
            assert result.stderr == ""
            if os.path.isdir("/dev/shm"):
                assert seg.name.lstrip("/") in _shm_entries()
        finally:
            executor_mod._destroy_segment(seg)

    def test_slot_grows_for_larger_payload(self):
        before = _shm_entries()
        ring = executor_mod._ShmRing(1)
        index, seg = ring.try_acquire(100)
        assert seg.size >= 100
        ring.release(index)
        index, grown = ring.try_acquire(10 * seg.size)
        assert grown.size >= 10 * seg.size
        ring.release(index)
        ring.destroy()
        assert _shm_entries() == before

    def test_shm_unavailable_falls_back_to_pickle(self, monkeypatch):
        """When segment creation fails, the stream continues on pickled
        payloads with identical bytes."""
        traj = _trajectory()
        serial = _compress(traj, workers=0)

        def _no_shm(nbytes):
            raise OSError("shm exhausted")

        monkeypatch.setattr(executor_mod, "_create_segment", _no_shm)
        with recording(MetricsRecorder()) as rec:
            parallel = _compress(traj, workers=2)
        assert parallel == serial
        snap = rec.snapshot()
        assert "stream.executor.shm_bytes" not in snap["counters"]
        assert any(
            event["name"] == "stream.executor.shm_unavailable"
            for event in snap["events"]
        )


def _state_spec(traj, digest_override=None):
    """An AxisJobSpec (inline state) for axis 0 of ``traj`` plus the
    follow-up batch it should encode, and the serial reference bytes."""
    config = MDZConfig(
        buffer_size=4, error_bound=1e-3, error_bound_mode="absolute"
    )
    from repro.baselines.api import SessionMeta
    from repro.core.mdz import MDZAxisCompressor

    axis = np.ascontiguousarray(traj[:, :, 0].astype(np.float64))
    session = MDZAxisCompressor(config)
    session.begin(1e-3, SessionMeta(n_atoms=traj.shape[1]))
    session.compress_batch(axis[:4])  # establishes the frozen state
    session.compress_batch(axis[4:8])  # second buffer: ADP trial
    method = session.pending_method()
    assert method is not None
    reference, level_fit, digest = session.export_session_state(method)
    spec = AxisJobSpec(
        method=method,
        error_bound=1e-3,
        n_atoms=traj.shape[1],
        quantization_scale=config.quantization_scale,
        sequence_mode=config.sequence_mode,
        lossless_backend=config.lossless_backend,
        level_seed=config.level_seed,
        reference=reference,
        level_fit=level_fit,
        entropy_streams=config.entropy_streams,
        state_digest=digest_override or digest,
    )
    expected = session.compress_batch(axis[8:12])
    return spec, axis[8:12], expected


class TestStateDigestCache:
    def test_digest_miss_falls_back_to_full_state(self):
        """A digest the worker cache has never seen rebuilds the session
        from the shipped state — bytes identical to in-session encode."""
        traj = _trajectory()
        spec, batch, expected = _state_spec(
            traj, digest_override="no-such-digest-" + os.urandom(4).hex()
        )
        executor_mod._SESSIONS.clear()
        with recording(MetricsRecorder()) as rec:
            [blob] = encode_flush(FlushJobSpec(jobs=(spec,)), batch[None])
        assert blob == expected
        counters = rec.snapshot()["counters"]
        assert counters["stream.executor.state_cache.miss"] == 1
        assert "stream.executor.state_cache.hit" not in counters

    def test_digest_hit_reuses_cached_session(self):
        traj = _trajectory()
        spec, batch, expected = _state_spec(traj)
        executor_mod._SESSIONS.clear()
        with recording(MetricsRecorder()) as rec:
            [first] = encode_flush(FlushJobSpec(jobs=(spec,)), batch[None])
            [second] = encode_flush(FlushJobSpec(jobs=(spec,)), batch[None])
        assert first == expected
        assert second == expected
        counters = rec.snapshot()["counters"]
        assert counters["stream.executor.state_cache.miss"] == 1
        assert counters["stream.executor.state_cache.hit"] == 1

    def test_no_digest_skips_cache(self):
        traj = _trajectory()
        spec, batch, expected = _state_spec(traj)
        spec = dataclasses.replace(spec, state_digest=None)
        executor_mod._SESSIONS.clear()
        with recording(MetricsRecorder()) as rec:
            [blob] = encode_flush(FlushJobSpec(jobs=(spec,)), batch[None])
        assert blob == expected
        counters = rec.snapshot()["counters"]
        assert "stream.executor.state_cache.miss" not in counters
        assert len(executor_mod._SESSIONS) == 0

    def test_cache_is_bounded(self):
        traj = _trajectory()
        spec, batch, expected = _state_spec(traj)
        executor_mod._SESSIONS.clear()
        for i in range(executor_mod._SESSION_CACHE_MAX + 3):
            fake = dataclasses.replace(spec, state_digest=f"digest-{i}")
            [blob] = encode_flush(FlushJobSpec(jobs=(fake,)), batch[None])
            assert blob == expected
        assert len(executor_mod._SESSIONS) == executor_mod._SESSION_CACHE_MAX


class TestBatchedDispatch:
    def test_one_ipc_round_trip_per_flush(self):
        """All axes of a flush travel as one submission."""
        traj = _trajectory(snapshots=16)
        with recording(MetricsRecorder()) as rec:
            parallel = _compress(traj, workers=2)
        counters = rec.snapshot()["counters"]
        # 4 buffers, ADP trials on the first two -> 2 dispatched flushes,
        # each one job covering 3 axes.
        assert counters["stream.executor.dispatched"] == 2
        assert counters["stream.executor.shm_bytes"] > 0
        assert parallel == _compress(traj, workers=0)

    def test_backpressure_one_slot(self):
        """max_pending=1 recycles a single payload slot across flushes."""
        traj = _trajectory(snapshots=40)
        serial = _compress(traj, workers=0)
        ex = ParallelExecutor(workers=2, max_pending=1)
        assert _compress(traj, executor=ex) == serial
        ex.close()

    def test_float64_source_byte_identical(self):
        traj = _trajectory().astype(np.float64)
        assert _compress(traj, workers=2) == _compress(traj, workers=0)
