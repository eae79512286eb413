"""Layer spans recorded from outside the program.

The traced run wraps the public functions of each ``repro`` layer listed
in :data:`TARGETS`.  Nothing under ``src/`` changes: module-level
functions are replaced in every loaded ``repro`` module that binds them
(``from x import f`` copies the binding, so patching only the defining
module would miss callers), and methods are replaced on their class.

A span records its id, its parent span, the workload cycle it ran in,
its name, its start and end, and the time covered by wrapped children,
so self time is ``end - start - children``.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the run.

Wrappers are only ever installed for the traced run.  Forked worker
processes inherit them, so every wrapper first checks the process id
and calls straight through in any process but the one that installed
it: parallel workers stay untraced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


def _lossless_bytes(tracer, args, kwargs, result, before):
    tracer.count("lossless_in", len(args[0]))
    tracer.count("lossless_out", len(result))


def _adp_state(args, kwargs):
    selector = args[0]
    return len(selector.history), selector.current


def _adp_trial(tracer, args, kwargs, result, before):
    selector = args[0]
    trials_before, method_before = before
    if len(selector.history) > trials_before:
        tracer.count("adp_trials")
        if method_before is not None and selector.current != method_before:
            tracer.count("adp_switches")


def _stream_closed(tracer, args, kwargs, result, before):
    tracer.count("stream_bytes_written", result.bytes_written)


#: (span name, module, attribute path, before-hook, after-hook).
TARGETS = (
    ("datasets.load", "repro.datasets.registry", "load_dataset", None, None),
    ("cluster.detect_levels", "repro.cluster.level_detect", "detect_levels",
     None, None),
    ("core.compress_batch", "repro.core.mdz",
     "MDZAxisCompressor.compress_batch", None, None),
    ("core.decompress_batch", "repro.core.mdz",
     "MDZAxisCompressor.decompress_batch", None, None),
    ("core.adp_encode", "repro.core.adaptive", "ADPSelector.encode",
     _adp_state, _adp_trial),
    ("sz.huffman_encode", "repro.sz.huffman", "HuffmanCodec.encode",
     None, None),
    ("sz.huffman_decode", "repro.sz.huffman", "HuffmanCodec.decode",
     None, None),
    ("sz.lossless_compress", "repro.sz.lossless", "lossless_compress",
     None, _lossless_bytes),
    ("sz.lossless_decompress", "repro.sz.lossless", "lossless_decompress",
     None, None),
    ("telemetry.audit", "repro.telemetry.quality", "QualityAuditor.audit",
     None, None),
    ("io.write_container", "repro.io.container", "write_container",
     None, None),
    ("io.read_container", "repro.io.container", "read_container",
     None, None),
    ("io.read_container_batch", "repro.io.container", "read_container_batch",
     None, None),
    ("stream.feed", "repro.stream.writer", "StreamingWriter.feed",
     None, None),
    ("stream.close", "repro.stream.writer", "StreamingWriter.close",
     None, _stream_closed),
    ("stream.read_all", "repro.stream.reader", "StreamingReader.read_all",
     None, None),
    ("stream.read_buffer", "repro.stream.reader",
     "StreamingReader.read_buffer", None, None),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.cycle = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._undo: list = []

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [next(tracer._ids), 0.0]
            state = before(args, kwargs) if before else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(
                    (frame[0], parent, tracer.cycle, name, start, end,
                     frame[1])
                )
            if after:
                after(tracer, args, kwargs, result, state)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; import the modules that bind them first."""
        for module in ("repro.io.container", "repro.stream",
                       "repro.datasets", "repro.telemetry"):
            importlib.import_module(module)
        for name, module_name, attr, before, after in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__,
                                                 before, after))
                else:
                    new = self.wrap(name, raw, before, after)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, before, after)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total`` and ``self``."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0}
        )
        for _, _, _, name, start, end, children in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - children
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span, then the counters, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "cycle", "name", "start", "end", "children")
        path.write_text(json.dumps({
            "fields": fields,
            "spans": self.spans,
            "counters": dict(self.counters),
        }))


def merge_totals(*parts: dict) -> dict:
    """Sum :meth:`Tracer.totals` results from several processes."""
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


def layer_metrics(totals: dict, counters: dict, cycles: int, setups: int,
                  compress_wall: float) -> dict[str, float]:
    """The span-derived per-layer metrics, per workload cycle.

    ``compress_wall`` is the wall time of the workload's traced compress
    calls, the base of ``cluster.fit_share``.
    """
    def row(name):
        return totals.get(name, {"calls": 0, "total": 0.0, "self": 0.0})

    per = 1.0 / max(cycles, 1)
    trials = counters.get("adp_trials", 0)
    lossless_out = counters.get("lossless_out", 0)
    fit = row("cluster.detect_levels")
    return {
        "datasets.load_s": row("datasets.load")["total"] / max(setups, 1),
        "cluster.detect_levels_s": fit["total"] * per,
        "cluster.detect_levels_calls": fit["calls"] * per,
        "cluster.fit_share": (
            fit["total"] / compress_wall if compress_wall > 0 else 0.0
        ),
        "core.compress_batch_self_s": row("core.compress_batch")["self"] * per,
        "core.decompress_batch_self_s":
            row("core.decompress_batch")["self"] * per,
        "core.buffers": row("core.compress_batch")["calls"] * per,
        "core.adp_encode_self_s": row("core.adp_encode")["self"] * per,
        "core.adp_trials": trials * per,
        "core.adp_switch_ratio": (
            counters.get("adp_switches", 0) / trials if trials else 0.0
        ),
        "sz.huffman_encode_s": row("sz.huffman_encode")["total"] * per,
        "sz.huffman_encode_calls": row("sz.huffman_encode")["calls"] * per,
        "sz.huffman_decode_s": row("sz.huffman_decode")["total"] * per,
        "sz.huffman_decode_calls": row("sz.huffman_decode")["calls"] * per,
        "sz.lossless_compress_s": row("sz.lossless_compress")["total"] * per,
        "sz.lossless_decompress_s":
            row("sz.lossless_decompress")["total"] * per,
        "sz.lossless_ratio": (
            counters.get("lossless_in", 0) / lossless_out
            if lossless_out else 0.0
        ),
        "telemetry.audit_s": row("telemetry.audit")["total"] * per,
        "telemetry.audits": row("telemetry.audit")["calls"] * per,
        "io.write_container_self_s": row("io.write_container")["self"] * per,
        "io.read_container_self_s": row("io.read_container")["self"] * per,
        "io.read_container_batch_s":
            row("io.read_container_batch")["total"] * per,
        "stream.feed_self_s": row("stream.feed")["self"] * per,
        "stream.close_s": row("stream.close")["total"] * per,
        "stream.read_all_self_s": row("stream.read_all")["self"] * per,
        "stream.read_buffer_s": row("stream.read_buffer")["total"] * per,
        "stream.bytes_written":
            counters.get("stream_bytes_written", 0) * per,
    }
