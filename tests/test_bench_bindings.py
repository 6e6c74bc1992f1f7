"""The benchmark tracer (perfbench/spans.py) wraps hazardlens functions by
module attribute; a refactor that drops one of those names fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs(tmp_path):
    # a subprocess, because install() patches the package for the life of
    # the process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    code = "import pathlib, sys, spans; spans.install(spans.Tracer(pathlib.Path(sys.argv[1])))"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
