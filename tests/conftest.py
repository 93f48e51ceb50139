import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Hypothesis draws the same examples on every run, so a run of the suite
# is repeatable; per-test @settings inherit this from the loaded profile.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def load_bench(stem):
    """bench/<stem>.py, loaded read-only as the module bench_<stem>."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    """bench/workloads.py, the benchmark's input builder, loaded read-only."""
    return load_bench("workloads")
