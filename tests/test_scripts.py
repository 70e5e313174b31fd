"""Tests for the standalone reproduction script."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = os.path.join(
    os.path.dirname(__file__), "..", "scripts", "reproduce_all.py"
)


class TestReproduceAll:
    def test_single_experiment_tiny(self, tmp_path):
        out = str(tmp_path / "results")
        proc = subprocess.run(
            [
                sys.executable, SCRIPT,
                "--scale", "tiny",
                "--out", out,
                "--only", "fig10_progressive_dblp",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert "fig10_progressive_dblp" in manifest["experiments"]
        output = manifest["experiments"]["fig10_progressive_dblp"]["output"]
        text = Path(output).read_text()
        assert "progressive bounds" in text
        assert "PrunedDP++" in text

    def test_filter_matches_nothing(self, tmp_path):
        out = str(tmp_path / "empty")
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--scale", "tiny", "--out", out,
             "--only", "zzz-no-such"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["experiments"] == {}
