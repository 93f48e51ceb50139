import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"

SPEC = [{"name": "sessions_per_s", "better": "higher"},
        {"name": "session_p50_s", "better": "lower"},
        {"name": "setup_s", "better": "lower"}]


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(correct=True, **values):
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}


def pair(base, change):
    return {"base": base, "change": change}


class TestSummarize:
    def test_wins_follow_each_metrics_better_direction(self, ab_bench, capsys):
        pairs = [pair(run(sessions_per_s=30.0, session_p50_s=0.013, setup_s=0.0),
                      run(sessions_per_s=33.0, session_p50_s=0.011, setup_s=0.0)),
                 pair(run(sessions_per_s=31.0, session_p50_s=0.012, setup_s=0.0),
                      run(sessions_per_s=30.0, session_p50_s=0.010, setup_s=0.0)),
                 pair(run(sessions_per_s=32.0, session_p50_s=0.014, setup_s=0.0),
                      run(sessions_per_s=34.0, session_p50_s=0.015, setup_s=0.0))]
        rows = {r["metric"]: r for r in ab_bench.summarize(pairs, SPEC)}
        assert rows["sessions_per_s"]["wins"] == 2 and rows["sessions_per_s"]["pairs"] == 3
        assert rows["session_p50_s"]["wins"] == 2
        assert rows["setup_s"]["wins"] == 0  # ties count for neither side
        assert rows["sessions_per_s"]["relative"] == pytest.approx(33.0 / 31.0 - 1)
        assert rows["session_p50_s"]["relative"] == pytest.approx(0.011 / 0.013 - 1)
        assert math.isnan(rows["setup_s"]["relative"])  # no change relative to 0
        out = capsys.readouterr().out
        assert "+6.45%" in out and "-15.38%" in out
        assert "skipped" not in out

    def test_pairs_with_a_failed_run_are_skipped(self, ab_bench, capsys):
        good = pair(run(sessions_per_s=30.0, session_p50_s=0.02),
                    run(sessions_per_s=40.0, session_p50_s=0.01))
        pairs = [good,
                 pair(run(sessions_per_s=50.0, session_p50_s=0.01),
                      run(False, sessions_per_s=10.0, session_p50_s=0.05)),
                 pair(run(False), run(sessions_per_s=10.0, session_p50_s=0.05))]
        rows = {r["metric"]: r for r in ab_bench.summarize(pairs, SPEC)}
        assert rows["sessions_per_s"] == {
            "metric": "sessions_per_s", "base": 30.0, "change": 40.0,
            "relative": pytest.approx(1 / 3), "base_iqr": 0.0, "wins": 1, "pairs": 1}
        assert rows["session_p50_s"]["wins"] == 1 and "setup_s" not in rows
        assert "2 of 3 pairs skipped" in capsys.readouterr().out

    def test_metrics_worse_past_their_bound_are_marked(self, ab_bench, capsys):
        spec = [{"name": "sessions_per_s", "better": "higher", "bound": 0.2},
                {"name": "session_p50_s", "better": "lower", "bound": 0.2},
                {"name": "setup_s", "better": "lower", "bound": 0.25},
                {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
                {"name": "first_result_s", "better": "lower"}]
        pairs = [pair(run(sessions_per_s=100.0, session_p50_s=0.010, setup_s=0.10,
                          peak_rss_mb=40.0, first_result_s=1.0),
                      run(sessions_per_s=79.0, session_p50_s=0.0121, setup_s=0.124,
                          peak_rss_mb=30.0, first_result_s=9.0))]
        rows = ab_bench.summarize(pairs, spec)
        assert [r["relative"] < 0 for r in rows] == [True, False, False, True, False]
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}
        assert lines["sessions_per_s"].endswith("0 of 1  worse past its bound 20.0%")
        assert lines["session_p50_s"].endswith("0 of 1  worse past its bound 20.0%")
        for name in ("setup_s", "peak_rss_mb", "first_result_s"):  # inside, better, no bound
            assert lines[name].endswith("of 1"), name

    def test_gain_holds_and_unresolved_marks(self, ab_bench, capsys):
        spec = [{"name": "sessions_per_s", "better": "higher", "bound": 0.2},
                {"name": "session_p50_s", "better": "lower", "bound": 0.2},
                {"name": "setup_s", "better": "lower", "bound": 0.25},
                {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
        pairs = [pair(run(sessions_per_s=100.0 + i, session_p50_s=(0.01, 0.02)[i % 2],
                          setup_s=1.0 + 0.01 * i, peak_rss_mb=(40.0, 60.0)[i % 2]),
                      run(sessions_per_s=120.0 + i, session_p50_s=(0.01, 0.02)[i % 2],
                          setup_s=1.0 + 0.01 * i - (0.001 if i else -0.001),
                          peak_rss_mb=(10.0, 15.0)[i % 2]))
                 for i in range(10)]

        def marks(pairs):
            ab_bench.summarize(pairs, spec)
            lines = capsys.readouterr().out.splitlines()[1:]
            return {line.split()[0]: line.split(" of ")[-1].split("  ")[1:] for line in lines}

        assert marks(pairs) == {
            "sessions_per_s": ["gain holds"],  # 10 of 10, 20 apart against a 4.5 IQR
            "session_p50_s": ["unresolved"],  # a 0.01 IQR on a 0.015 median, runs overlap
            "setup_s": [],                     # 9 of 10, but 0.001 apart against a 0.045 IQR
            "peak_rss_mb": ["gain holds"]}     # IQR past its bound, yet every run better
        assert marks(pairs[:9])["sessions_per_s"] == []  # fewer than 10 pairs claim nothing
