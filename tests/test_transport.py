"""Coverage for the executor's transport and its degraded paths.

Pool jobs carry the stacked batch and each axis's frozen state as plain
pickled arguments; the only fallback is inline execution, and both must
produce byte-identical archives.  These tests force the fallback (a pool
that dies mid-backpressure-wait), pin that a job rebuilt from its spec
encodes exactly like the in-session encoder, and check that a parallel
run creates no ``/dev/shm`` segment and leaves the resource tracker
quiet.
"""

from __future__ import annotations

import dataclasses
import io
import multiprocessing.shared_memory
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
    FlushJobSpec,
    ParallelExecutor,
    StreamingWriter,
    backoff_delay,
    encode_flush,
)
from repro.telemetry import MetricsRecorder, get_recorder, recording


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


def _forbid_segments(monkeypatch):
    """Make creating or attaching any shared-memory segment fail."""

    def _refuse(*args, **kwargs):
        raise AssertionError("the executor must not use shared memory")

    monkeypatch.setattr(
        multiprocessing.shared_memory, "SharedMemory", _refuse
    )


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

    def test_abandon_sweep_reruns_queued_job_inline(self):
        """Jobs queued on a pool that is abandoned are re-run inline and
        come back in order."""
        ex = ParallelExecutor(workers=2, max_pending=2)
        ex.RETRY_BASE_DELAY = 0.001
        ex._pool = _DyingPool()
        ex.submit(_double, 21)
        ex._abandon_pool()
        assert not ex.parallel
        assert ex.drain() == [42]
        ex.close()


class TestShmLifecycle:
    """A parallel run creates no shared-memory segment at all, so none
    can outlive ``close``/``terminate``/``abort``."""

    def test_no_leak_after_close(self, monkeypatch):
        before = _shm_entries()
        traj = _trajectory()
        serial = _compress(traj, workers=0)
        _forbid_segments(monkeypatch)
        parallel = _compress(traj, workers=2)
        assert parallel == serial
        assert _shm_entries() == before

    def test_no_leak_after_terminate(self, monkeypatch):
        before = _shm_entries()
        _forbid_segments(monkeypatch)
        ex = ParallelExecutor(workers=2, max_pending=2)
        ex.submit(_double, 1)
        ex.terminate()
        assert _shm_entries() == before

    def test_no_leak_after_writer_abort(self, monkeypatch):
        before = _shm_entries()
        _forbid_segments(monkeypatch)
        traj = _trajectory()
        config = MDZConfig(
            buffer_size=4, error_bound=1e-3, error_bound_mode="absolute"
        )
        writer = StreamingWriter(io.BytesIO(), config, workers=2)
        writer.feed_many(traj[:12])
        writer.abort()
        assert _shm_entries() == before

    def test_parallel_run_leaves_tracker_quiet(self):
        """Two back-to-back ``workers=2`` runs in a fresh interpreter
        leave no ``resource_tracker`` output (such as ``KeyError:
        '/psm_...'`` tracebacks) on stderr and no segment behind."""
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


class TestJobSpec:
    def test_rebuilt_session_matches_in_session(self):
        """A worker rebuilds its session from the spec alone; the bytes
        equal those of the in-session encoder for the same buffer."""
        traj = _trajectory()
        config = MDZConfig(
            buffer_size=4, error_bound=1e-3, error_bound_mode="absolute"
        )
        writer = StreamingWriter(io.BytesIO(), config)
        writer.feed_many(traj[:8])  # first buffer, then one ADP trial
        axis = np.ascontiguousarray(traj[8:12, :, 0].astype(np.float64))
        session = writer._sessions[0]
        method = session.pending_method()
        assert method is not None
        spec = writer._job_spec(0, session, method, get_recorder())
        assert spec.config == dataclasses.replace(config, method=method)
        [blob] = encode_flush(FlushJobSpec(jobs=(spec,)), axis[None])
        assert blob == session.compress_batch(axis)
        writer.abort()


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
        assert parallel == _compress(traj, workers=0)

    def test_backpressure_one_slot(self):
        """max_pending=1 keeps one job in flight across flushes."""
        traj = _trajectory(snapshots=40)
        serial = _compress(traj, workers=0)
        ex = ParallelExecutor(workers=2, max_pending=1)
        assert _compress(traj, executor=ex) == serial
        ex.close()

    def test_float64_source_byte_identical(self):
        traj = _trajectory().astype(np.float64)
        assert _compress(traj, workers=2) == _compress(traj, workers=0)
