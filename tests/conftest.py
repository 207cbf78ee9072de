"""Import gnk from this checkout's ``src/`` without an install or PYTHONPATH,
in the test process and in the CLI subprocesses the tests start."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
