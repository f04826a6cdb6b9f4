"""The package runs without SciPy and never imports it.

SciPy's import alone costs about a second, several times the rest of
``import repro``; these checks keep a stray import from bringing that
cold start back.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Blocks SciPy, then imports every experiment module, fits a drift line
#: and runs ``repro list`` as ``python -m repro`` would.
BLOCKED_SCRIPT = """
import importlib, runpy, sys
sys.modules["scipy"] = None
import repro, repro.cli
from repro.analysis.drift import fit_boot_time_drift
from repro.experiments.registry import EXPERIMENTS
for spec in EXPERIMENTS.values():
    importlib.import_module(spec.driver.__module__)
    importlib.import_module(spec.render.__module__)
fit_boot_time_drift([0.0, 3600.0, 7200.0], [100.0, 100.004, 100.007])
sys.argv = ["repro", "list"]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

IMPORTED_SCRIPT = """
import sys
import repro.cli
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


def test_runs_with_scipy_blocked():
    result = _run(BLOCKED_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert "fig5" in result.stdout


def test_cli_import_loads_no_scipy():
    result = _run(IMPORTED_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
