"""The runnable examples run to completion.

Each example runs as its own subprocess in a scratch working directory
(examples may write files there) and must exit 0.
``examples/qpe_noisy_backend.py`` is left out: its noisy simulations take
over ten seconds.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

EXAMPLES = [
    "bernstein_vazirani_oracles.py",
    "grover_annotations.py",
    "quickstart.py",
    "vqe_maxcut.py",
    "remote_compile.py",
]


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_exits_cleanly(example, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
