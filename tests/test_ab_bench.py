import importlib.util
import json
import math
import statistics
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


class TestOut:
    @pytest.fixture
    def fake_runs(self, ab_bench, monkeypatch):
        """main with no git archive and no bench run: each side's runs give
        canned metrics (the change 10% faster), counted in `calls`. The base
        side is the tree `extract` was given, whatever the checkout's name."""
        calls, base = [], []

        def extract(root, ref, into):
            base.append(into)
            into.mkdir()

        def run_bench(tree, workload, seconds, seed):
            calls.append((tree, workload))
            p50 = 0.010 if tree == base[0] else 0.009
            return run(session_p50_s=p50 + 0.0001 * len(calls), sessions_per_s=1 / p50)

        monkeypatch.chdir(TOOL.parents[1])
        monkeypatch.setattr(ab_bench, "same_benchmark", lambda root, ref: None)
        monkeypatch.setattr(ab_bench, "extract", extract)
        monkeypatch.setattr(ab_bench, "run_bench", run_bench)
        return calls

    def test_out_holds_every_run_and_the_summary_rows(self, ab_bench, fake_runs, tmp_path,
                                                      capsys):
        out = tmp_path / "ab.json"
        code = ab_bench.main(["--workload", "readme-300", "--pairs", "2", "--seconds", "1",
                              "--workdir", str(tmp_path), "--out", str(out)])
        assert code == 0 and len(fake_runs) == 4
        report = json.loads(out.read_text(encoding="utf-8"))
        assert (report["base"], report["seconds"], report["seed"]) == ("HEAD", 1.0, 0)
        pairs = report["workloads"]["readme-300"]["pairs"]
        assert [sorted(p) for p in pairs] == [["base", "change"]] * 2
        assert pairs[0]["base"]["metrics"]["session_p50_s"]["value"] == pytest.approx(0.0101)
        summary = {r["metric"]: r for r in report["workloads"]["readme-300"]["summary"]}
        assert sorted(summary) == ["session_p50_s", "sessions_per_s"]
        p50 = summary["session_p50_s"]
        assert p50["wins"] == 2 and p50["pairs"] == 2
        assert p50["base"] == pytest.approx(statistics.median([0.0101, 0.0104]))
        assert "session_p50_s" in capsys.readouterr().out  # still printed as before

    def test_out_in_a_missing_directory_is_refused_before_any_run(self, ab_bench, fake_runs,
                                                                  tmp_path):
        with pytest.raises(SystemExit) as exit_:
            ab_bench.main(["--pairs", "1", "--out", str(tmp_path / "no" / "ab.json")])
        assert exit_.value.code == 2 and fake_runs == []
