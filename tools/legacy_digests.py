#!/usr/bin/env python
"""Pin legacy-member archive bytes of both container generations.

Refactors must not change a single byte of any archive produced by the
legacy members (VQ / VQT / MT and the default ADP pool).  This tool
compresses one deterministic synthetic trajectory under the 12 canonical
configurations — every legacy method crossed with three framing
variants — once as an ``MDZ1`` container (``write_container``) and once
as a serial ``MDZ2`` stream (``stream_compress``), and records the
BLAKE2b digest of each of the 24 archives::

    python tools/legacy_digests.py --write    # rewrite tests/data/legacy_digests.json
    python tools/legacy_digests.py --check    # exit 1 on any byte drift (CI)

The JSON file is committed; ``tests/test_registry.py`` re-derives the
digests in-process so a drift breaks the tier-1 suite, and the CI
entropy-smoke job runs ``--check`` so it also fails fast with a
one-line diff of which configuration moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

DIGEST_PATH = Path("tests") / "data" / "legacy_digests.json"

#: The 12 canonical container configurations: every legacy method crossed
#: with three framing variants (sequence ordering, entropy fan-out, and
#: the trailing dictionary coder).
VARIANTS = {
    "seq2-zlib": dict(sequence_mode="seq2", lossless_backend="zlib",
                      entropy_streams=None),
    "seq1-h1-zlib": dict(sequence_mode="seq1", lossless_backend="zlib",
                         entropy_streams=1),
    "seq2-lzma": dict(sequence_mode="seq2", lossless_backend="lzma",
                      entropy_streams=None),
}
METHODS = ("vq", "vqt", "mt", "adp")


def pinned_trajectory() -> np.ndarray:
    """The deterministic (16, 120, 3) trajectory every digest derives from.

    Level-structured space plus smooth temporal drift, so VQ, VQT, and MT
    all see the regime they were built for and ADP's trials exercise all
    three members.
    """
    rng = np.random.default_rng(20260807)
    levels = rng.integers(0, 9, (120, 3)) * 1.7
    vibration = rng.normal(0.0, 0.03, (16, 120, 3))
    drift = np.cumsum(rng.normal(0.0, 0.004, (16, 1, 3)), axis=0)
    return levels[None, :, :] + vibration + drift


def _stream_bytes(trajectory: np.ndarray, config) -> bytes:
    """A serial ``MDZ2`` stream of ``trajectory``, in memory."""
    from repro.stream.pipeline import stream_compress

    sink = io.BytesIO()
    stream_compress(trajectory, sink, config=config)
    return sink.getvalue()


def compute() -> dict:
    """``{config key: blake2b hexdigest}`` over the 12 configurations.

    ``MDZ1`` keys are ``method/variant``; ``MDZ2`` keys carry an
    ``mdz2/`` prefix.
    """
    from repro.core.config import MDZConfig
    from repro.io.container import write_container

    trajectory = pinned_trajectory()
    digests: dict[str, str] = {}
    for method in METHODS:
        for variant, fields in VARIANTS.items():
            config = MDZConfig(
                error_bound=1e-3,
                buffer_size=5,
                method=method,
                **fields,
            )
            key = f"{method}/{variant}"
            for prefix, blob in (
                ("", write_container(trajectory, config)),
                ("mdz2/", _stream_bytes(trajectory, config)),
            ):
                digests[prefix + key] = hashlib.blake2b(
                    blob, digest_size=16
                ).hexdigest()
    return digests


def load(root: Path) -> dict:
    return json.loads((root / DIGEST_PATH).read_text())


def render(digests: dict) -> str:
    return json.dumps(
        {
            "comment": (
                "BLAKE2b-128 of write_container() (MDZ1) and serial "
                "stream_compress() (mdz2/ keys) output on the pinned "
                "trajectory (tools/legacy_digests.py); regenerate only "
                "when an intentional format change lands"
            ),
            "digests": digests,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="rewrite the committed digest file")
    mode.add_argument("--check", action="store_true",
                      help="exit 1 when any archive's bytes drifted")
    args = parser.parse_args(argv)
    target = args.root / DIGEST_PATH
    current = compute()
    if args.write:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(render(current))
        print(f"wrote {target} ({len(current)} configurations)")
        return 0
    if not target.exists():
        print(f"{target} missing; run `python tools/legacy_digests.py "
              "--write`", file=sys.stderr)
        return 1
    pinned = load(args.root)["digests"]
    drifted = sorted(
        key for key in pinned
        if current.get(key) != pinned[key]
    ) + sorted(set(current) - set(pinned))
    if drifted:
        for key in drifted:
            print(
                f"archive bytes drifted for {key}: "
                f"pinned {pinned.get(key, '<absent>')} != "
                f"current {current.get(key, '<absent>')}",
                file=sys.stderr,
            )
        return 1
    print(f"all {len(pinned)} legacy archive digests match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
