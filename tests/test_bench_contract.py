"""What bench/ reads of the package: the names its tracer wraps and the
caches its untimed runs clear. A name dropped from the package fails here,
not only in a `bench/run.py --trace 1` run."""

import pytest

from dafstream import harness
from dafstream.channel import ChannelModel
from dafstream.trace import constant_trace
from dafstream.windowing import derive_params

from conftest import load_bench


@pytest.fixture(scope="module")
def tracer():
    """bench/tracer.py, the per-layer tracer, loaded read-only."""
    return load_bench("tracer")


def test_every_traced_name_is_its_owners_own(tracer):
    for owner, attr, name in tracer._targets():
        assert attr in owner.__dict__, name


def test_a_removed_tracer_leaves_no_wrapper(tracer):
    t = constant_trace(60, 6 * 1024, frame_rate=30)
    params = derive_params(t, "DAF-L", 24, code_rate=0.8)
    trace = tracer.Tracer()
    try:
        trace.install()
        assert len(tracer.leftover_wrappers()) == len(tracer._targets())
        harness.run_session(t, params, ChannelModel(kind="single", loss_rate=0.1), 0)
    finally:
        trace.remove()
    assert tracer.leftover_wrappers() == []
    assert trace.sessions == 1 and trace.nesting_errors == 0


def test_cold_caches_returns_its_four_counters(workloads):
    counters = workloads.cold_caches()
    assert sorted(counters) == ["robust_soliton_hits", "robust_soliton_misses",
                                "slope_plan_hits", "slope_plan_misses"]
    assert all(isinstance(v, int) and v >= 0 for v in counters.values())
