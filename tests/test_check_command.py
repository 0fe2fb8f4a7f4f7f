"""The checks that CI runs on the installed command, run here on the module."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_check_command_passes_on_the_module():
    # ci/check_command.py runs every command in a fresh process, as CI's
    # "Installed command" step does with the `qimgload` entry point
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    script = ROOT / "ci" / "check_command.py"
    done = subprocess.run([sys.executable, str(script), sys.executable, "-m", "qimgload.cli"],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
