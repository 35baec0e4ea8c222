"""The demos print exactly what they printed when their output was pinned.

Demo 03 prints timings, so only its exit code is checked, by CI.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_terms_and_strategies.py": "929506f981b279102887139641504fae43ab7391154a3c11c682430f6e8a4ca5",
    "02_rotation_graphs.py": "520d9b9cc41617a21d608a7cea486afd2a6af1f3f9db286a4e2b8d03e4e4d00e",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_prints_pinned_bytes(demo, tmp_path):
    # demo 02 writes its DOT file to the working directory
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo]
