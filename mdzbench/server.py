"""The service under test, in its own process.

Run by the ``service-helium`` workload; not meant to be started by hand.
Starts a :class:`repro.service.CompressionService` on an ephemeral
localhost port with its spool directory inside the checkout, prints
``{"port": N}`` once it accepts connections, and serves until its stdin
reaches end of file.  It then shuts the service down gracefully and
prints one JSON line with its peak RSS and, when traced, the per-layer
span totals.  ``--spans FILE`` turns tracing on and is where the spans
are written.

    python3 mdzbench/server.py --spool DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))


async def _serve(spool: str) -> None:
    from repro.service import CompressionService, ServiceConfig

    service = CompressionService(
        ServiceConfig(port=0, spool_dir=spool, session_ttl=600.0)
    )
    await service.start()
    print(json.dumps({"port": service.port}), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.read
        )
    finally:
        await service.shutdown()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    asyncio.run(_serve(args.spool))
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0
    }
    if tracer is not None:
        tracer.uninstall()
        result["totals"] = tracer.totals()
        result["counters"] = dict(tracer.counters)
        tracer.dump(Path(args.spans))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
