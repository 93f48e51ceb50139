"""Command-line front end: optimize / run / sweep / golden."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import protocol
from .config import (channel_from_config, load_config, params_from_config,
                     step_from_config, sweep_grid_from_config, trace_from_config)
from .errors import ConfigError, DafError
from .harness import rows_to_csv, run_session, summarize, sweep
from .sampling import (asp_from_matrix, optimize_per_frame, optimize_slopes, short_trace,
                       slope_matrix)


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    trace = trace_from_config(cfg)
    params = params_from_config(cfg, trace)
    W, dt = params.window_frames, params.step_frames
    if lack := short_trace(trace.num_frames, W):  # derive_params checks this for DAF only
        raise ConfigError(f"the optimizers need {lack}")

    slope_plan = optimize_slopes(trace, W, dt)
    frame_plan = optimize_per_frame(trace, W, dt)
    ds, w = slope_plan.domain_trace, slope_plan.window
    uniform = slope_matrix(ds, w, np.zeros_like(slope_plan.slopes))
    profiles = {"P_uniform": asp_from_matrix(uniform, ds, w),
                "P_slope": slope_plan.asp(),
                "P_perframe": frame_plan.asp()}
    lines = ["frame," + ",".join(profiles)]
    columns = [p.normalized() for p in profiles.values()]
    for i in range(len(columns[0])):
        frame = 1 + i * dt  # first original frame of the (super)frame
        lines.append(f"{frame}," + ",".join(f"{col[i]:.9f}" for col in columns))
    csv_text = "\n".join(lines) + "\n"

    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.plan_out:
        _write(args.plan_out, "window_start_frame,slope\n" + "".join(
            f"{1 + i * dt},{slope:.9f}\n" for i, slope in enumerate(slope_plan.slopes)))
    for name, prof in profiles.items():
        print(f"{name}: stable variance {prof.stable_variance():.6e}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    trace = trace_from_config(cfg)
    params = params_from_config(cfg, trace)
    channel = channel_from_config(cfg)
    result = run_session(trace, params, channel, args.seed)
    m = result.metrics()
    print(f"mode={params.mode.value} seed={args.seed} "
          f"idr={m.idr:.4f} fdr={m.fdr:.4f} "
          f"in_time={result.in_time} late={result.late} never={result.never}")
    if args.out:
        _write(args.out, "mode,seed,idr,fdr,in_time,late,never\n"
               f"{params.mode.value},{args.seed},{m.idr:.6f},{m.fdr:.6f},"
               f"{result.in_time},{result.late},{result.never}\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    trace = trace_from_config(cfg)
    channel = channel_from_config(cfg)
    modes, rates, delays = sweep_grid_from_config(cfg)
    rows = sweep(trace, modes, rates, delays, [channel], repetitions=args.reps,
                 base_seed=args.seed, step_frames=step_from_config(cfg))
    csv_text = rows_to_csv(rows)
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    sys.stdout.write(summarize(rows))
    return 0


def _cmd_golden(args) -> int:
    encoded = protocol.encode_header(protocol.GOLDEN_HEADER)
    print("header fields: StartP=1 WSize=1 SlopeF=0.0 PacketID=1 P=1024")
    print("encoded bytes:", encoded.hex(" "))
    ok = encoded == protocol.GOLDEN_BYTES
    print("matches committed golden vector:", "yes" if ok else "NO")
    if args.out:
        _write(args.out, encoded)
    return 0 if ok else 1


def _check_output(path: str):
    """Refuse an output path that cannot be a file, before any work."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path!r}: no directory {parent!r}")


def _write(path: str, data: str | bytes):
    """Write bytes, or text as UTF-8, to a file; an OSError is a ConfigError."""
    try:
        with open(path, "wb") as fh:
            fh.write(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daf",
        description="Delay-aware sliding-window fountain coding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="emit ASP profiles (uniform/slope/per-frame) as CSV")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--plan-out", default=None,
                   help="also write the optimized slope factors per window")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("run", help="run a single coding session")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a parameter grid and report medians")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("golden", help="print the committed wire-format test vector")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_golden)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in (args.out, getattr(args, "plan_out", None)):
            if path:
                _check_output(path)
        return args.func(args)
    except DafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
