from pathlib import Path

import pytest

from dafstream import cli
from dafstream.cli import main
from dafstream.config import (channel_from_config, parse_config,
                              params_from_config, sweep_grid_from_config,
                              trace_from_config)
from dafstream.errors import ConfigError

DATA = Path(__file__).parent / "data"

#: (command, the keys of tests/data/readme.cfg to set) of config mistakes
#: that once ended in a traceback; a key set to None is removed
MISTAKES = [
    (["run"], {"delay_s": "nan"}),
    (["run"], {"delay_s": "inf"}),
    (["run"], {"code_rate": None, "data_rate_kbps": "nan"}),
    (["run"], {"code_rate": None, "data_rate_kbps": "inf"}),
    (["run"], {"trace.fps": "nan"}),
    (["run"], {"trace.fps": "inf"}),
    (["run"], {"trace.fps": "0.5"}),
    (["run"], {"trace.gop": "0"}),
    (["run"], {"trace.packet_bytes": "0"}),
    (["run"], {"trace.period_frames": "0"}),
    (["run"], {"trace.amp_bytes": "20000"}),
    (["run"], {"trace.frames": "0"}),
    (["run"], {"trace.frames": "0", "trace.first_frame_bytes": None}),
    (["run"], {"channel.kind": "mobile-relay", "channel.period_s": "nan"}),
    (["sweep", "--reps", "0"], {}),
    (["sweep", "--reps", "-1"], {}),
    (["run", "--seed", "-1"], {}),
    (["run", "--seed", "18446744073709551616"], {}),
    (["sweep", "--seed", "-3", "--reps", "1"], {}),
    (["sweep", "--seed", "18446744073709551615", "--reps", "2"], {}),
    (["run"], {"channel.seed": "-1"}),
    (["run"], {"trace.frames": "40", "delay_s": "1.0"}),
    (["optimize"], {"trace.frames": "40", "delay_s": "1.0"}),
    (["optimize"], {"trace.frames": "40", "delay_s": "1.0", "mode": "DAF-L"}),
    (["run"], {"trace.frames": "40", "delay_s": "1.0", "mode": "DAF-L"}),
    (["run"], {"trace.frames": "40", "delay_s": "1.0", "mode": "S-LT"}),
    (["run"], {"trace.frames": "40", "delay_s": "1.0", "mode": "Expand"}),
]
#: (command, the option naming the output) of every output path the CLI writes
OUTPUTS = [
    (["run"], "--out"),
    (["sweep", "--reps", "1"], "--out"),
    (["optimize"], "--out"),
    (["optimize", "--out", "asp.csv"], "--plan-out"),
    (["golden"], "--out"),
]
GOOD = """
# demo configuration
trace.kind = burst
trace.frames = 120
trace.fps = 30
trace.packet_bytes = 512
trace.low_bytes = 2000
trace.high_bytes = 6000
trace.period_frames = 40
mode = DAF-L
delay_s = 0.5
dt_frames = 1
code_rate = 0.8
channel.kind = chain
channel.plr = 0.05
channel.hops = 2
"""


class TestParseConfig:
    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg["mode"] == "DAF-L"
        trace = trace_from_config(cfg)
        assert trace.num_frames == 120
        assert trace.payload_bytes == 512
        params = params_from_config(cfg, trace)
        assert params.window_frames == 14
        channel = channel_from_config(cfg)
        assert channel.kind == "chain" and channel.hops == 2

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config("mode = DAF\nwat = 7\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("mode = DAF\nmode = Block\n")

    def test_both_rates_rejected(self):
        cfg = parse_config(GOOD + "data_rate_kbps = 3166\n")
        trace = trace_from_config(cfg)
        with pytest.raises(ConfigError, match="exactly one"):
            params_from_config(cfg, trace)

    def test_csv_trace_needs_path(self):
        with pytest.raises(ConfigError, match="trace.path"):
            trace_from_config({"trace.kind": "csv"})

    def test_sweep_grid_needs_code_rate(self):
        cfg = parse_config(GOOD.replace("code_rate = 0.8", "data_rate_kbps = 3166"))
        with pytest.raises(ConfigError, match="'code_rate'"):
            sweep_grid_from_config(cfg)

    def test_sweep_grid_bad_list_value(self):
        cfg = parse_config(GOOD + "sweep.code_rates = 0.8, fast\n")
        with pytest.raises(ConfigError, match="'sweep.code_rates': cannot parse"):
            sweep_grid_from_config(cfg)

    def test_delay_rounds_down_to_whole_frames(self):
        # 1.83 s at 30 fps is 54.9 frames
        cfg = parse_config(GOOD.replace("delay_s = 0.5", "delay_s = 1.83"))
        assert params_from_config(cfg, trace_from_config(cfg)).delay_frames == 54

    def test_sweep_grid_lists(self):
        cfg = parse_config(GOOD + "sweep.modes = DAF, Block\n"
                           "sweep.code_rates = 0.8,0.9\n")
        modes, rates, delays = sweep_grid_from_config(cfg)
        assert modes == ["DAF", "Block"]
        assert rates == [0.8, 0.9]
        assert delays == [0.5]


class TestCli:
    @pytest.fixture
    def cfg_path(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text(GOOD)
        return str(path)

    def test_run_command(self, cfg_path, capsys):
        assert main(["run", "-c", cfg_path, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "idr=" in out and "fdr=" in out

    def test_run_writes_csv(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "result.csv"
        assert main(["run", "-c", cfg_path, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mode,seed,idr,fdr,in_time,late,never"
        assert lines[1].startswith("DAF-L,0,")

    def test_sweep_command(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-c", cfg_path, "--reps", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "mode,code_rate,delay_s,channel,idr,fdr"
        assert len(lines) == 2
        assert "IDR" in capsys.readouterr().out

    def test_sweep_without_code_rate_exit_code(self, tmp_path, capsys):
        path = tmp_path / "rate.cfg"
        path.write_text(GOOD.replace("code_rate = 0.8", "data_rate_kbps = 3166"))
        assert main(["sweep", "-c", str(path), "--reps", "1"]) == 2
        assert "error: missing config key 'code_rate'" in capsys.readouterr().err

    def test_bad_dt_frames_exit_code(self, tmp_path, capsys):
        path = tmp_path / "step.cfg"
        path.write_text(GOOD.replace("dt_frames = 1", "dt_frames = one"))
        for argv in (["run", "-c", str(path)], ["sweep", "-c", str(path), "--reps", "1"]):
            assert main(argv) == 2
            assert "error: config key 'dt_frames': cannot parse 'one'" in capsys.readouterr().err

    def test_optimize_matches_golden_csv(self, tmp_path, capsys):
        # the README example config; the CSV, the slope plan (float64 slopes
        # at 9 decimals) and the three stderr variance lines are compared
        # byte for byte
        out, plan = tmp_path / "asp.csv", tmp_path / "plan.csv"
        assert main(["optimize", "-c", str(DATA / "readme.cfg"), "--out", str(out),
                     "--plan-out", str(plan)]) == 0
        assert out.read_bytes() == (DATA / "readme_optimize.csv").read_bytes()
        assert plan.read_bytes() == (DATA / "readme_plan.csv").read_bytes()
        assert capsys.readouterr().err == (DATA / "readme_optimize.stderr").read_text()

    def test_optimize_command(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "asp.csv"
        assert main(["optimize", "-c", cfg_path, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "frame,P_uniform,P_slope,P_perframe"
        assert len(lines) == 121  # one line per frame at dt=1

    def test_golden_command(self, capsys):
        assert main(["golden"]) == 0
        out = capsys.readouterr().out
        assert "00 00 00 01 00 01 00 00 00 00 00 00 01 04 00" in out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("mode = NoSuchScheme\ntrace.kind = constant\n"
                        "trace.frames = 10\ntrace.bytes_per_frame = 1000\n"
                        "delay_s = 0.5\ncode_rate = 0.8\n")
        assert main(["run", "-c", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infeasible_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("trace.kind = constant\ntrace.frames = 10\n"
                        "trace.bytes_per_frame = 1000\nmode = DAF\n"
                        "delay_s = 0.03\ncode_rate = 0.8\n")
        assert main(["run", "-c", str(path)]) == 2

    def test_window_wider_than_wsize_exit_code(self, tmp_path, capsys):
        # 11-frame windows of 7,000 16-byte packets each
        path = tmp_path / "wide.cfg"
        path.write_text("trace.kind = constant\ntrace.frames = 12\ntrace.packet_bytes = 16\n"
                        "trace.bytes_per_frame = 112000\nmode = DAF-L\n"
                        "delay_s = 0.4\ncode_rate = 0.9\n")
        assert main(["run", "-c", str(path)]) == 2
        assert "widest window holds 77000 packets" in capsys.readouterr().err

    def test_unparsable_first_frame_bytes_exit_code(self, tmp_path, capsys):
        path = tmp_path / "sine.cfg"
        path.write_text("trace.kind = sinusoidal\ntrace.frames = 60\ntrace.mean_bytes = 9500\n"
                        "trace.amp_bytes = 5500\ntrace.period_frames = 30\n"
                        "trace.first_frame_bytes = big\nmode = DAF-L\n"
                        "delay_s = 0.5\ncode_rate = 0.8\n")
        assert main(["run", "-c", str(path)]) == 2
        assert ("error: config key 'trace.first_frame_bytes': cannot parse 'big'"
                in capsys.readouterr().err)

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["run", "-c", str(path)]) == 2
        assert f"error: cannot read config file {str(path)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,edits", MISTAKES)
    def test_config_mistake_exit_code(self, tmp_path, capsys, command, edits):
        lines = [line for line in (DATA / "readme.cfg").read_text().splitlines()
                 if line.split("=", 1)[0].strip() not in edits]
        lines += [f"{key} = {value}" for key, value in edits.items() if value is not None]
        path = tmp_path / "mistake.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert main([command[0], "-c", str(path), *command[1:]]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_optimize_short_trace_refused_before_either_optimizer(self, tmp_path, capsys,
                                                                  monkeypatch):
        # DAF-L at W = 29 derives and runs on 57 frames, but both optimizers
        # need 2W = 58 frames
        text = (DATA / "readme.cfg").read_text()
        path = tmp_path / "short.cfg"
        path.write_text(text.replace("trace.frames = 300", "trace.frames = 57")
                        .replace("mode = DAF ", "mode = DAF-L ")
                        .replace("delay_s = 0.8", "delay_s = 1.0"))
        assert main(["run", "-c", str(path)]) == 0
        capsys.readouterr()

        def never(*args):
            raise AssertionError("an optimizer started")

        monkeypatch.setattr(cli, "optimize_slopes", never)
        monkeypatch.setattr(cli, "optimize_per_frame", never)
        assert main(["optimize", "-c", str(path), "--out", str(tmp_path / "asp.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: the optimizers need a trace of at least 58 frames for window 29 (got 57)\n")
        assert not (tmp_path / "asp.csv").exists()

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    @pytest.mark.parametrize("command,option", OUTPUTS)
    def test_bad_output_path_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                     command, option, target):
        def never(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("run_session", "sweep", "optimize_slopes", "optimize_per_frame"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.setattr(cli.protocol, "encode_header", never)
        monkeypatch.chdir(tmp_path)
        config = [] if command[0] == "golden" else ["-c", str(DATA / "readme.cfg")]
        assert main([command[0], *config, *command[1:], option, target]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {target!r}: ")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_exit_code(self, tmp_path, capsys):
        target = tmp_path / ("x" * 300)  # a name longer than file systems take
        assert main(["golden", "--out", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(target)!r}: ")

    def test_missing_trace_csv_exit_code(self, tmp_path, capsys):
        csv_path = tmp_path / "absent.csv"
        path = tmp_path / "csv.cfg"
        path.write_text(f"trace.kind = csv\ntrace.path = {csv_path}\nmode = DAF-L\n"
                        "delay_s = 0.5\ncode_rate = 0.8\n")
        assert main(["run", "-c", str(path)]) == 2
        assert f"error: cannot read trace.path {str(csv_path)!r}" in capsys.readouterr().err
