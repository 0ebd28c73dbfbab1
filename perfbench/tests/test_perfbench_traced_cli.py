"""The traced CLI prints what the plain CLI prints and sees each layer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import self_seconds, top_level_seconds

HERE = Path(__file__).resolve().parent.parent
ARGS = ["figure4", "ialu", "--compiler", "--workloads", "li",
        "--policies", "lut-4", "full-ham", "original"]


def run(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    return subprocess.run(argv, env=env, check=True, capture_output=True,
                          cwd=tmp_path, timeout=300).stdout


def test_traced_run_is_byte_identical_and_covers_the_layers(tmp_path):
    plain = run([sys.executable, "-m", "repro", *ARGS,
                 "--cache-dir", str(tmp_path / "a")], tmp_path)
    out = tmp_path / "spans.json"
    traced = run([sys.executable, str(HERE / "traced_cli.py"), "--out",
                  str(out), "--", *ARGS, "--cache-dir", str(tmp_path / "b")],
                 tmp_path)
    assert traced == plain

    dump = json.loads(out.read_text())
    own = self_seconds(dump["spans"])
    for name in ("cli.main", "cpu.simulate", "streams.record", "batch.pack",
                 "batch.sidecar_write", "batch.load", "batch.drive",
                 "batch.kernel.lut", "batch.kernel.full-ham",
                 "batch.kernel.original", "batch.kernel.stats",
                 "core.make_policy", "core.build_lut", "compiler.swap",
                 "workloads.build", "analysis.stats", "analysis.render"):
        assert name in own, name
    assert sum(own.values()) == pytest.approx(
        top_level_seconds(dump["spans"]))
    counts = dump["counts"]
    assert counts["cpu.simulate.calls"] == 2  # li and its swapped rewrite
    assert counts["streams.bytes_written"] > 0

    off = tmp_path / "off.json"
    untraced = run([sys.executable, str(HERE / "traced_cli.py"), "--off",
                    "--out", str(off), "--", *ARGS,
                    "--cache-dir", str(tmp_path / "b")], tmp_path)
    assert untraced == plain
    assert json.loads(off.read_text())["spans"] == []
