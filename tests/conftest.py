import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import hyperspec
from hyperspec import fano, iterated_fano


def run_fresh(args, timeout):
    """Run ``python *args`` in a fresh interpreter that imports this
    checkout's ``hyperspec``; a call still running after ``timeout`` seconds
    is killed and fails the test with TimeoutExpired."""
    src = str(Path(hyperspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=env)


@pytest.fixture(scope="session")
def fano_h():
    return fano()


@pytest.fixture(scope="session")
def itf2():
    """The 9-uniform composed instance; built once, spectrum cache shared."""
    return iterated_fano(2)
