"""Training is bitwise what it was: a smoke-shape run checked against its committed lines.

tests/fingerprint.json holds the sha256 lines that `tools/fingerprint.py --seed 1
--epochs 2 --one-process` prints, and the environment they hold for: the bits
depend on numpy and on the OpenBLAS core and build (the synthetic data's blur
is numpy's own). Under another environment the test skips, naming what differs.
A change that moves trained bits on purpose says so and re-records the file in
the same commit:

    PYTHONPATH=src python tests/test_fingerprint.py > tests/fingerprint.json
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vesseldistill.train import _openblas

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("fingerprint.json")
COMMAND = ["tools/fingerprint.py", "--seed", "1", "--epochs", "2", "--one-process"]


def environment():
    found = {"numpy": np.__version__}
    for what in ("corename", "config"):
        fn = _openblas(f"get_{what}", ctypes.c_char_p, [])
        found[f"openblas_{what}"] = None if fn is None else fn().decode().strip()
    return found


def fingerprint():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, *COMMAND], cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=600, check=True)
    return run.stdout.splitlines()


def test_training_matches_the_committed_fingerprint():
    record = json.loads(RECORD.read_text())
    differs = {k: f"{v!r} here, {record['environment'].get(k)!r} recorded"
               for k, v in environment().items() if record["environment"].get(k) != v}
    if differs:
        pytest.skip(f"the fingerprint holds for another environment: {differs}")
    assert fingerprint() == record["lines"]


if __name__ == "__main__":
    print(json.dumps({"command": COMMAND, "environment": environment(), "lines": fingerprint()},
                     indent=2))
