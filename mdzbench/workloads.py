"""The three benchmark workloads and the measurements they take.

Each workload is a closed loop: one caller issues the next operation
only after the previous one returned.  Every operation is checked, and a
failed check or a raised error counts the operation as failed.

* :class:`OneShot` (``oneshot-pt``) -- MDZ1 through ``MDZ.compress`` /
  ``MDZ.decompress`` / ``MDZ.decompress_batch`` on all of pt.
* :class:`Stream` (``stream-copper``) -- MDZ2 through ``StreamingWriter``
  (serial) and ``stream_compress(workers=2)``, read back with
  ``StreamingReader``, on all of copper-b.
* :class:`Service` (``service-helium``) -- ``CompressionService`` in its
  own process, driven over ``min(2, cpu_count)`` keep-alive connections
  with seeded 100-snapshot windows of helium-b.

The workload seed picks the random-read buffers and the service windows;
dataset contents are fixed by the registry spec seeds.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from repro import MDZ, MDZConfig, StreamingReader, StreamingWriter
from repro import stream_compress
from repro import datasets
from repro.io.container import read_container_info, verify_container
from repro.service import ServiceClient
from repro.service.payload import decode_array

from tracer import layer_metrics, merge_totals

EPSILON = 1e-3
BUFFER_SIZE = 10
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Slack on the stored bound, as in the fig15 check.
BOUND_RTOL = 1e-9
#: Service windows and feeds.
WINDOW = 100
FEED = 10
#: Per-request cap on 429 retries before it counts as a failure.
RETRY_BUDGET = 50

perf = time.perf_counter


def _config() -> MDZConfig:
    return MDZConfig(error_bound=EPSILON, buffer_size=BUFFER_SIZE)


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return _pct(values, 50)


def _rate(mb_per_call: float, seconds) -> float:
    """MB/s over every call of the run: total MB over total time.

    The host's speed drifts between discrete levels during a run; a
    total-over-total rate moves smoothly with the mix of levels, where a
    median over a few long calls jumps from one level to the next.
    """
    return mb_per_call * len(seconds) / sum(seconds)


def _within(decoded: np.ndarray, original: np.ndarray, bounds) -> bool:
    if decoded.shape != original.shape:
        return False
    err = np.abs(decoded - original.astype(np.float64))
    return all(
        float(err[..., a].max()) <= bound * (1.0 + BOUND_RTOL)
        for a, bound in enumerate(bounds)
    )


class Checks:
    """Operations attempted and failed; one check per operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool = True, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


class Workload:
    """Shared closed-loop runner: set up, repeat cycles, tear down."""

    name = ""
    dataset = ""

    def __init__(self, root: Path, seed: int, tracer=None) -> None:
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.checks = Checks()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.cycle_walls: list[float] = []
        #: Cycles run, the warm-up included.
        self.cycles_run = 0
        #: Operations attempted before the timed cycles began.
        self.ops_before = 0
        self.setup_times: list[float] = []
        self.data: np.ndarray | None = None
        self._order: list[int] = []

    @property
    def raw_mb(self) -> float:
        return self.data.size * 4 / 1e6

    def setup(self) -> None:
        """One timed set-up; it replaces the previous one."""
        self._stop_session()
        start = perf()
        self.data = datasets.load_dataset(self.dataset).positions
        self._start_session()
        self.setup_times.append(perf() - start)

    def _start_session(self) -> None:
        """Session or service start; one-shot and stream have none."""

    def _stop_session(self) -> None:
        """Undo :meth:`_start_session`, untimed."""

    def warm_up(self) -> None:
        """One untimed cycle, so lazy imports and first-use costs (the
        first worker pool, the resource tracker) stay out of the samples.
        Its checks still count."""
        self._run_cycle()
        self.samples.clear()
        self.cycle_walls.clear()

    def measure(self, seconds: float) -> None:
        self.ops_before = self.checks.attempted
        deadline = perf() + seconds
        while True:
            self._run_cycle()
            if perf() + 0.5 * _median(self.cycle_walls) >= deadline:
                break

    def _run_cycle(self) -> None:
        if self.tracer is not None:
            self.tracer.cycle += 1
        self.cycles_run += 1
        start = perf()
        try:
            self.cycle()
        except Exception:
            self.checks.fail(traceback.format_exc(limit=3))
            traceback.print_exc()
        self.cycle_walls.append(perf() - start)

    def cycle(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    def _read_indices(self, n_buffers: int, count: int) -> list[int]:
        """The next ``count`` buffers of a seeded stream of permutations.

        Buffers differ in decode cost (their ADP method), so every buffer
        is read equally often and the seed only sets the order.
        """
        while len(self._order) < count:
            self._order.extend(int(i) for i in self.rng.permutation(n_buffers))
        picked, self._order = self._order[:count], self._order[count:]
        return picked

    def _random_reads(self, read, decoded: np.ndarray, indices) -> None:
        for index in indices:
            start = perf()
            part = read(index)
            self.samples["random_read"].append(perf() - start)
            lo = index * BUFFER_SIZE
            self.checks.op(
                np.array_equal(part, decoded[lo:lo + part.shape[0]]),
                f"random read of buffer {index} differs from full decode",
            )

    def end_to_end(self) -> dict[str, float]:
        raise NotImplementedError

    def compress_wall(self) -> float:
        """Wall time of the compress calls the traced run attributes."""
        return float(sum(self.samples["compress"]))

    def layer_metrics(self) -> dict[str, float]:
        totals, counters = self._trace_totals()
        out = layer_metrics(totals, counters, len(self.cycle_walls),
                            len(self.setup_times), self.compress_wall())
        out.update(self.extra_layer_metrics())
        return out

    def _trace_totals(self) -> tuple[dict, dict]:
        """Span totals and counters of every traced process."""
        return self.tracer.totals(), dict(self.tracer.counters)

    def extra_layer_metrics(self) -> dict[str, float]:
        return {
            "service.create_p50_ms": 0.0,
            "service.feed_p50_ms": 0.0,
            "service.close_p50_ms": 0.0,
            "service.archive_p50_ms": 0.0,
            "service.verify_p50_ms": 0.0,
            "service.rejected_429": 0.0,
        }

    def _common(self) -> dict[str, float]:
        """Metrics every in-process workload reports the same way."""
        s = self.samples
        ms = 1e3
        return {
            "setup_s": _median(self.setup_times),
            "compress_mb_s": _rate(self.raw_mb, s["compress"]),
            "decompress_mb_s": _rate(self.raw_mb, s["decompress"]),
            "random_read_p50_ms": _pct(s["random_read"], 50) * ms,
            "random_read_p90_ms": _pct(s["random_read"], 90) * ms,
            "req_s":
                (self.checks.attempted - self.ops_before)
                / sum(self.cycle_walls),
            "session_p50_ms": _median(s["session"]) * ms,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


# -- oneshot-pt -------------------------------------------------------------

_POOL_DATA: dict = {}


def _pool_init(name: str) -> None:
    _POOL_DATA["data"] = datasets.load_dataset(name).positions


def _pool_ready() -> bool:
    return "data" in _POOL_DATA


def _pool_compress() -> tuple[int, str]:
    blob = MDZ(_config()).compress(_POOL_DATA["data"])
    return len(blob), hashlib.blake2b(blob, digest_size=16).hexdigest()


class OneShot(Workload):
    """All of pt through the one-shot MDZ1 front end.

    A cycle: ``compress`` (+ ``verify_container``: the session), a full
    ``decompress``, random ``decompress_batch`` reads, a second session
    (which must give the same bytes), two concurrent ``compress`` calls
    in a two-process pool, more random reads.  Two sessions per cycle
    double the samples behind the compress-latency metrics.  The pool
    gives ``parallel_compress_mb_s``: the one-shot path has no intra-call
    parallelism, so two cores serve two callers.  Splitting the reads
    samples more moments of the run, so their quantiles depend less on
    how the host's speed drifts.  The pool is the benchmark's load generator, so its
    start-up is not part of ``setup_s``, and its workers are never traced.
    """

    name = "oneshot-pt"
    dataset = "pt"
    reads = 15

    def __init__(self, root, seed, tracer=None):
        super().__init__(root, seed, tracer)
        self.pool = ProcessPoolExecutor(
            2, mp_context=get_context("spawn"), initializer=_pool_init,
            initargs=(self.dataset,),
        )
        for future in [self.pool.submit(_pool_ready) for _ in range(2)]:
            future.result()
        self.blob_size = 0

    def _start_session(self) -> None:
        self.mdz = MDZ(_config())

    def _compress(self, expected: bytes | None = None) -> bytes:
        """One session: ``compress`` (its only feed) and ``verify``."""
        s, checks = self.samples, self.checks
        start = perf()
        blob = self.mdz.compress(self.data)
        s["compress"].append(perf() - start)
        checks.op(expected is None or blob == expected,
                  "in-process compress is not deterministic")
        report = verify_container(blob)
        s["session"].append(perf() - start)
        checks.op(report["intact"], f"MDZ1 verify: {report['errors']}")
        return blob

    def cycle(self) -> None:
        s, checks = self.samples, self.checks
        blob = self._compress()
        self.blob_size = len(blob)

        start = perf()
        decoded = self.mdz.decompress(blob)
        s["decompress"].append(perf() - start)
        bounds = read_container_info(blob).error_bounds
        checks.op(_within(decoded, self.data, bounds),
                  "MDZ1 decode exceeds its stored bound")

        n_buffers = -(-self.data.shape[0] // BUFFER_SIZE)
        self._random_reads(
            lambda i: self.mdz.decompress_batch(blob, i), decoded,
            self._read_indices(n_buffers, self.reads // 2),
        )
        self._compress(expected=blob)

        digest = hashlib.blake2b(blob, digest_size=16).hexdigest()
        start = perf()
        futures = [self.pool.submit(_pool_compress) for _ in range(2)]
        results = [f.result() for f in futures]
        s["parallel"].append(perf() - start)
        for size, other in results:
            checks.op(other == digest and size == len(blob),
                      "pool compress differs from in-process compress")

        self._random_reads(
            lambda i: self.mdz.decompress_batch(blob, i), decoded,
            self._read_indices(n_buffers, self.reads - self.reads // 2),
        )

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        out = self._common()
        out.update({
            "parallel_compress_mb_s": _rate(2 * self.raw_mb, s["parallel"]),
            "compression_ratio": self.data.size * 4 / self.blob_size,
            # One-shot takes the whole trajectory in one call, so each
            # session has exactly one feed: the compress call.
            "first_feed_p50_ms": _median(s["compress"]) * 1e3,
            "feed_p50_ms": _median(s["compress"]) * 1e3,
            "feed_p90_ms": _pct(s["compress"], 90) * 1e3,
        })
        return out


# -- stream-copper ----------------------------------------------------------

class Stream(Workload):
    """All of copper-b through the MDZ2 streaming writer and reader.

    A cycle: a serial ``StreamingWriter`` session fed 10 snapshots per
    ``feed_many`` call, then closed and verified (the session); a full
    ``read_all``; random ``read_buffer`` reads; the same stream through
    ``stream_compress(workers=2)``, which must be byte-identical; more
    random reads.  Splitting the reads samples more moments of the run,
    so their quantiles depend less on how the host's speed drifts.
    """

    name = "stream-copper"
    dataset = "copper-b"
    reads = 28

    def __init__(self, root, seed, tracer=None):
        super().__init__(root, seed, tracer)
        self.blob_size = 0

    def cycle(self) -> None:
        s, checks = self.samples, self.checks
        data = self.data
        start = perf()
        target = io.BytesIO()
        writer = StreamingWriter(target, config=_config(), workers=0)
        for t0 in range(0, data.shape[0], BUFFER_SIZE):
            fed = perf()
            writer.feed_many(data[t0:t0 + BUFFER_SIZE])
            s["first_feed" if t0 == 0 else "feed"].append(perf() - fed)
            checks.op()
        writer.close()
        checks.op()
        blob = target.getvalue()
        s["compress"].append(perf() - start)
        report = verify_container(blob)
        s["session"].append(perf() - start)
        checks.op(report["intact"], f"MDZ2 verify: {report['errors']}")
        self.blob_size = len(blob)

        start = perf()
        reader = StreamingReader(blob)
        decoded = reader.read_all()
        s["decompress"].append(perf() - start)
        checks.op(_within(decoded, data, reader.error_bounds),
                  "MDZ2 decode exceeds its stored bound")

        def read(i):
            return StreamingReader(blob).read_buffer(i)

        self._random_reads(
            read, decoded,
            self._read_indices(reader.n_buffers, self.reads // 2),
        )

        start = perf()
        parallel = io.BytesIO()
        stream_compress(data, parallel, config=_config(), workers=2)
        s["parallel"].append(perf() - start)
        checks.op(parallel.getvalue() == blob,
                  "workers=2 archive differs from the serial archive")

        self._random_reads(
            read, decoded,
            self._read_indices(reader.n_buffers,
                               self.reads - self.reads // 2),
        )

    def compress_wall(self) -> float:
        return float(sum(self.samples["compress"]) +
                     sum(self.samples["parallel"]))

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        out = self._common()
        out.update({
            "parallel_compress_mb_s": _rate(self.raw_mb, s["parallel"]),
            "compression_ratio": self.data.size * 4 / self.blob_size,
            "first_feed_p50_ms": _median(s["first_feed"]) * 1e3,
            "feed_p50_ms": _median(s["feed"]) * 1e3,
            "feed_p90_ms": _pct(s["feed"], 90) * 1e3,
        })
        return out


# -- service-helium ---------------------------------------------------------

class _Server:
    """One ``server.py`` process; stopped by closing its stdin."""

    def __init__(self, root: Path, spans: Path | None):
        """Start the service; it is traced when ``spans`` is given."""
        self.spool = root / ".mdzbench_out" / f"spool-{os.getpid()}"
        shutil.rmtree(self.spool, ignore_errors=True)
        command = [sys.executable, str(Path(__file__).with_name("server.py")),
                   "--spool", str(self.spool)]
        if spans is not None:
            command += ["--spans", str(spans)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("service process exited before listening")
        self.port = int(json.loads(line)["port"])

    def stop(self) -> dict:
        """Shut the service down and wait for it; returns its report."""
        try:
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            out = ""
        finally:
            shutil.rmtree(self.spool, ignore_errors=True)
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


class Service(Workload):
    """Seeded helium-b windows through the HTTP session API.

    Each connection repeats: create, 10 feeds of 10 snapshots, close,
    archive, ``/v1/verify`` (the session), then ``/v1/decompress`` of
    the archive.  ``parallel_compress_mb_s`` is the raw MB all connections
    fed per second of the loop.

    The windows are the 8 disjoint 100-snapshot slices of helium-b in a
    seeded order, repeated; every connection walks the same order, so
    every run compresses the same mix of content, the seed only sets the
    order, and the connections' sessions stay in step instead of drifting
    in and out of each other's way from run to run.

    The loop runs in three segments.  After each, every buffer of one
    downloaded archive per window seen so far is read with
    ``read_buffer`` in seeded order: the reads run outside the loop so
    client-side decoding never stalls a connection, and three read
    phases sample more moments of the run than one.
    """

    name = "service-helium"
    dataset = "helium-b"
    segments = 3

    def __init__(self, root, seed, tracer=None):
        super().__init__(root, seed, tracer)
        self.server: _Server | None = None
        self.report: dict = {}
        self.route_ms: dict[str, list[float]] = defaultdict(list)
        self.requests = 0
        self.rejected = 0
        self.raw_bytes = 0
        self.archive_bytes = 0
        self.loop_wall = 0.0
        self._windows: dict[int, list[int]] = {}
        #: One downloaded archive and its decode per window.
        self._archives: dict[int, tuple[bytes, np.ndarray]] = {}

    @property
    def raw_mb(self) -> float:
        return WINDOW * self.data.shape[1] * self.data.shape[2] * 4 / 1e6

    def _start_session(self) -> None:
        spans = None
        if self.tracer is not None:
            spans = (self.root / ".mdzbench_out"
                     / f"spans-{self.name}-seed{self.seed}-server.json")
        self.server = _Server(self.root, spans)

    def _stop_session(self) -> None:
        if self.server is not None:
            self.report = self.server.stop()
            self.server = None

    def close(self) -> None:
        self._stop_session()

    def warm_up(self) -> None:
        """One untimed session per connection (see Workload.warm_up)."""
        asyncio.run(self._load(0.0))
        for values in (self.samples, self.route_ms):
            values.clear()
        self.cycle_walls.clear()
        self.requests = self.rejected = 0
        self.raw_bytes = self.archive_bytes = 0
        self._archives.clear()

    def measure(self, seconds: float) -> None:
        n_buffers = WINDOW // BUFFER_SIZE
        for _ in range(self.segments):
            start = perf()
            asyncio.run(self._load(seconds / self.segments))
            self.loop_wall += perf() - start
            for first in sorted(self._archives):
                blob, decoded = self._archives[first]
                self._random_reads(
                    lambda i: StreamingReader(blob).read_buffer(i), decoded,
                    self._read_indices(n_buffers, n_buffers),
                )

    async def _load(self, seconds: float) -> None:
        """Every connection runs sessions until ``seconds`` have passed;
        each runs at least one."""
        deadline = perf() + seconds
        connections = min(2, os.cpu_count() or 1)
        if not self._windows:
            order = self.rng.permutation(self.data.shape[0] // WINDOW)
            for c in range(connections):
                self._windows[c] = [int(w) for w in order]
        await asyncio.gather(
            *(self._connection(c, deadline) for c in range(connections))
        )

    async def _request(self, client, route: str, method: str, path: str,
                       body: bytes = b"", headers=None):
        """One request with 429-aware retries; ``None`` when it failed."""
        start = perf()
        for _ in range(RETRY_BUDGET):
            response = await client.request(method, path, headers, body)
            if response.status != 429:
                break
            self.rejected += 1
            await asyncio.sleep(
                min(float(response.headers.get("retry-after", "0.05")), 0.05)
            )
        elapsed = perf() - start
        self.requests += 1
        ok = 200 <= response.status < 300
        self.checks.op(ok, f"{method} {route} -> {response.status}")
        self.route_ms[route].append(elapsed * 1e3)
        return (response if ok else None), elapsed

    async def _connection(self, conn: int, deadline: float) -> None:
        async with ServiceClient("127.0.0.1", self.server.port) as client:
            while True:
                if self.tracer is not None:
                    self.tracer.cycle += 1
                self.cycles_run += 1
                windows = self._windows[conn]
                windows.append(windows.pop(0))
                start = perf()
                try:
                    await self._session(client, windows[-1] * WINDOW)
                except Exception:
                    self.checks.fail(traceback.format_exc(limit=3))
                    traceback.print_exc()
                self.cycle_walls.append(perf() - start)
                if perf() >= deadline:
                    break

    async def _session(self, client, first: int) -> None:
        s, checks = self.samples, self.checks
        window = np.ascontiguousarray(self.data[first:first + WINDOW])
        start = perf()
        body = json.dumps(
            {"error_bound": EPSILON, "buffer_size": BUFFER_SIZE}
        ).encode()
        created, _ = await self._request(
            client, "create", "POST", "/v1/sessions", body,
            {"Content-Type": "application/json"},
        )
        if created is None:
            return
        token = created.json()["token"]
        compress = 0.0
        for t0 in range(0, WINDOW, FEED):
            part = window[t0:t0 + FEED]
            fed, elapsed = await self._request(
                client, "feed", "POST", f"/v1/sessions/{token}/feed",
                part.tobytes(),
                {"X-MDZ-Dtype": part.dtype.name,
                 "X-MDZ-Shape": ",".join(map(str, part.shape))},
            )
            if fed is None:
                return
            s["first_feed" if t0 == 0 else "feed"].append(elapsed)
            compress += elapsed
        closed, elapsed = await self._request(
            client, "close", "POST", f"/v1/sessions/{token}/close")
        if closed is None:
            return
        compress += elapsed
        archive, _ = await self._request(
            client, "archive", "GET", f"/v1/sessions/{token}/archive")
        if archive is None:
            return
        blob = archive.body
        verified, _ = await self._request(
            client, "verify", "POST", "/v1/verify", blob)
        if verified is None:
            return
        s["session"].append(perf() - start)
        s["compress"].append(compress)
        report = verified.json()
        checks.op(
            report.get("intact") is True
            and archive.headers.get("x-mdz-snapshots") == str(WINDOW),
            f"archive not intact or short: {report.get('errors')}",
        )
        self.raw_bytes += window.nbytes
        self.archive_bytes += len(blob)

        decompressed, elapsed = await self._request(
            client, "decompress", "POST", "/v1/decompress", blob)
        if decompressed is None:
            return
        s["decompress"].append(elapsed)
        decoded = decode_array(decompressed.headers, decompressed.body)
        bounds = StreamingReader(blob).error_bounds
        checks.op(_within(decoded, window, bounds),
                  "service decode misses a snapshot or exceeds its bound")
        self._archives.setdefault(first, (blob, decoded))

    def end_to_end(self) -> dict[str, float]:
        s = self.samples
        out = self._common()
        out.update({
            "req_s": self.requests / self.loop_wall,
            "parallel_compress_mb_s":
                self.raw_bytes / 1e6 / self.loop_wall,
            "compression_ratio": self.raw_bytes / max(self.archive_bytes, 1),
            "first_feed_p50_ms": _median(s["first_feed"]) * 1e3,
            "feed_p50_ms": _median(s["feed"]) * 1e3,
            "feed_p90_ms": _pct(s["feed"], 90) * 1e3,
            "peak_rss_mb": float(self.report.get("peak_rss_mb", 0.0)),
        })
        return out

    def _trace_totals(self) -> tuple[dict, dict]:
        totals, counters = super()._trace_totals()
        for key, value in self.report.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        return merge_totals(totals, self.report.get("totals", {})), counters

    def extra_layer_metrics(self) -> dict[str, float]:
        out = super().extra_layer_metrics()
        for route in ("create", "feed", "close", "archive", "verify"):
            out[f"service.{route}_p50_ms"] = _median(self.route_ms[route])
        out["service.rejected_429"] = self.rejected / max(
            len(self.cycle_walls), 1)
        return out


WORKLOADS = {cls.name: cls for cls in (OneShot, Stream, Service)}
