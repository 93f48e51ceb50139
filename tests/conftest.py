import importlib.util
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="session")
def workloads():
    """bench/workloads.py, the benchmark's input builder, loaded read-only."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module
