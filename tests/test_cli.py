"""Tests for the ``mdz`` command-line interface."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io.dump import DumpFrame, frames_to_array, read_dump, write_dump


@pytest.fixture
def npy_trajectory(tmp_path, rng):
    path = tmp_path / "traj.npy"
    data = (
        rng.integers(0, 6, (60, 3)) * 2.0
        + rng.normal(0, 0.03, (15, 60, 3))
    ).astype(np.float32)
    np.save(path, data)
    return path, data


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compress_defaults(self):
        args = build_parser().parse_args(["compress", "a.npy", "b.mdz"])
        assert args.error_bound == 1e-3
        assert args.buffer_size == 10
        assert args.method == "adp"


class TestCompressDecompress:
    def test_round_trip(self, tmp_path, npy_trajectory, capsys):
        path, data = npy_trajectory
        container = tmp_path / "traj.mdz"
        restored = tmp_path / "restored.npy"
        assert main(["compress", str(path), str(container)]) == 0
        assert container.stat().st_size < data.nbytes
        assert main(["decompress", str(container), str(restored)]) == 0
        out = np.load(restored)
        for a in range(3):
            axis = data[:, :, a].astype(np.float64)
            bound = 1e-3 * (axis.max() - axis.min())
            assert np.abs(out[:, :, a] - axis).max() <= bound * (1 + 1e-9)
        stdout = capsys.readouterr().out
        assert "CR" in stdout

    def test_fixed_method_and_absolute_bound(self, tmp_path, npy_trajectory):
        path, data = npy_trajectory
        container = tmp_path / "t.mdz"
        code = main(
            [
                "compress",
                str(path),
                str(container),
                "--method",
                "vq",
                "--bound-mode",
                "absolute",
                "--error-bound",
                "0.01",
            ]
        )
        assert code == 0
        restored = tmp_path / "r.npy"
        assert main(["decompress", str(container), str(restored)]) == 0
        out = np.load(restored)
        assert np.abs(out - data.astype(np.float64)).max() <= 0.01 * (1 + 1e-9)

    def test_dump_input(self, tmp_path, rng):
        frames = [
            DumpFrame(
                timestep=i,
                box=np.column_stack([np.zeros(3), np.full(3, 10.0)]),
                positions=rng.uniform(0, 10, (40, 3)),
            )
            for i in range(6)
        ]
        dump_path = tmp_path / "run.dump"
        write_dump(dump_path, frames)
        container = tmp_path / "run.mdz"
        assert main(["compress", str(dump_path), str(container)]) == 0

    def test_lammpstrj_round_trip(self, tmp_path, rng):
        frames = [
            DumpFrame(
                timestep=i,
                box=np.column_stack([np.zeros(3), np.full(3, 10.0)]),
                positions=(
                    rng.integers(0, 5, (40, 3)) * 2.0
                    + rng.normal(0, 0.02, (40, 3))
                ),
            )
            for i in range(8)
        ]
        dump_path = tmp_path / "run.lammpstrj"
        write_dump(dump_path, frames)
        container = tmp_path / "run.mdz"
        restored = tmp_path / "restored.npy"
        assert main(["compress", str(dump_path), str(container)]) == 0
        assert main(["decompress", str(container), str(restored)]) == 0
        data = frames_to_array(read_dump(dump_path))
        out = np.load(restored)
        assert out.shape == data.shape
        for a in range(3):
            axis = data[:, :, a]
            bound = 1e-3 * (axis.max() - axis.min())
            assert np.abs(out[:, :, a] - axis).max() <= bound * (1 + 1e-9)

    def test_unknown_format_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "traj.xyz"
        bad.write_text("not a trajectory")
        assert main(["compress", str(bad), str(tmp_path / "o.mdz")]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["compress", str(tmp_path / "nope.npy"), str(tmp_path / "o.mdz")]
        )
        assert code == 1

    def test_crafted_header_fails_cleanly(
        self, tmp_path, npy_trajectory, rewrite_header
    ):
        """A header with a valid frame but a missing field is reported as
        a malformed container, not a crash."""
        path, _ = npy_trajectory
        container = tmp_path / "traj.mdz"
        assert main(["compress", str(path), str(container)]) == 0
        container.write_bytes(
            rewrite_header(container.read_bytes(), lambda h: h.pop("scale"))
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "decompress",
             str(container), str(tmp_path / "out.npy")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src)},
        )
        assert done.returncode == 1
        assert "error: [container_malformed]" in done.stderr
        assert "Traceback" not in done.stderr


class TestStream:
    def test_stream_round_trip(self, tmp_path, npy_trajectory, capsys):
        path, data = npy_trajectory
        container = tmp_path / "traj.mdz"
        restored = tmp_path / "restored.npy"
        code = main(
            ["stream", str(path), str(container), "--buffer-size", "5"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "streamed 15 snapshots" in stdout
        assert "3 buffers" in stdout
        assert main(["decompress", str(container), str(restored)]) == 0
        out = np.load(restored)
        assert out.shape == data.shape
        for a in range(3):
            axis = data[:, :, a].astype(np.float64)
            bound = 1e-3 * (axis.max() - axis.min())
            assert np.abs(out[:, :, a] - axis).max() <= bound * (1 + 1e-9)

    def test_stream_container_is_mdz2(self, tmp_path, npy_trajectory):
        from repro.io.container import container_version

        path, _ = npy_trajectory
        container = tmp_path / "t.mdz"
        assert main(["stream", str(path), str(container)]) == 0
        assert container_version(container.read_bytes()) == 2

    def test_stream_metrics_json_embeds_stream_stats(
        self, tmp_path, npy_trajectory
    ):
        """--metrics-json carries StreamStats.to_dict(), not ad-hoc keys."""
        import json

        from repro.stream.writer import StreamStats

        path, _ = npy_trajectory
        container = tmp_path / "t.mdz"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "stream", str(path), str(container),
                "--buffer-size", "5", "--metrics-json", str(metrics),
            ]
        )
        assert code == 0
        snapshot = json.loads(metrics.read_text())
        stream = snapshot["stream"]
        assert set(stream) == set(StreamStats().to_dict())
        assert stream["snapshots"] == 15
        assert stream["bytes_written"] == container.stat().st_size
        assert stream["compression_ratio"] > 1.0

    def test_stream_info(self, tmp_path, npy_trajectory, capsys):
        path, _ = npy_trajectory
        container = tmp_path / "t.mdz"
        main(["stream", str(path), str(container), "--buffer-size", "5"])
        capsys.readouterr()
        assert main(["info", str(container)]) == 0
        out = capsys.readouterr().out
        assert "snapshots=15" in out
        assert "buffers=3" in out


class TestInfoAndBench:
    def test_info_reports_structure(self, tmp_path, npy_trajectory, capsys):
        path, data = npy_trajectory
        container = tmp_path / "t.mdz"
        main(["compress", str(path), str(container), "--buffer-size", "5"])
        capsys.readouterr()
        assert main(["info", str(container)]) == 0
        out = capsys.readouterr().out
        assert "snapshots=15" in out
        assert "buffers=3" in out
        assert "axis 0:" in out

    def test_bench_lists_compressors(self, tmp_path, npy_trajectory, capsys):
        path, _ = npy_trajectory
        code = main(
            ["bench", str(path), "--compressors", "mdz,tng,zstd"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("mdz", "tng", "zstd"):
            assert name in out

    def test_bench_unknown_compressor_fails_cleanly(
        self, tmp_path, npy_trajectory, capsys
    ):
        path, _ = npy_trajectory
        code = main(
            ["bench", str(path), "--compressors", "mdz,nonexistent"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown compressor(s): nonexistent" in err
        assert "registered:" in err
        assert "mdz" in err


class TestStatsAndTrace:
    def test_stats_reports_percentiles(self, npy_trajectory, capsys):
        path, _ = npy_trajectory
        assert main(["stats", str(path), "--buffer-size", "5"]) == 0
        out = capsys.readouterr().out
        assert "p50 ms" in out and "p95 ms" in out and "p99 ms" in out
        assert "mdz.compress_batch" in out

    def test_trace_writes_valid_trace_and_provenance(
        self, tmp_path, npy_trajectory, capsys
    ):
        import json

        from repro.telemetry import validate_chrome_trace

        path, _ = npy_trajectory
        trace_path = tmp_path / "trace.json"
        prov_path = tmp_path / "prov.jsonl"
        code = main(
            [
                "trace",
                str(path),
                "-o",
                str(trace_path),
                "--provenance",
                str(prov_path),
                "--buffer-size",
                "5",
            ]
        )
        assert code == 0
        validate_chrome_trace(json.loads(trace_path.read_text()))
        records = [
            json.loads(line)
            for line in prov_path.read_text().splitlines()
        ]
        assert len(records) == 9  # 3 buffers x 3 axes
        assert all("method" in r for r in records)
        out = capsys.readouterr().out
        assert " spans -> " in out

    def test_stats_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.npy")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_trace_missing_input_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["trace", str(tmp_path / "nope.npy"), "-o", str(tmp_path / "t.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "t.json").exists()

    def test_stats_unreadable_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "garbage.npy"
        bad.write_bytes(b"this is not a numpy file")
        code = main(["stats", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_trace_unreadable_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "garbage.npy"
        bad.write_bytes(b"\x93NUMPY but truncated")
        code = main(
            ["trace", str(bad), "-o", str(tmp_path / "t.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
