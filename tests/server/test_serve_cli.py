"""``repro serve`` as a real subprocess: signals around start-up.

A supervisor learns that the server is up from its ``serving ...``
banner and may send SIGTERM the moment it reads that line.  The signal
handlers must already be installed by then, so the server drains and
exits 0 instead of dying with -15.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import repro
from repro.graph import generators
from repro.graph.io import save_graph


def test_sigterm_right_after_banner_drains(tmp_path):
    stem = str(tmp_path / "graph")
    save_graph(
        generators.random_graph(
            20, 40, num_query_labels=2, label_frequency=2, seed=3
        ),
        stem,
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--graph", stem, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving "), banner
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "drained:" in out
