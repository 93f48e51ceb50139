#!/usr/bin/env python3
"""dafstream benchmark: closed-loop sessions through the public API.

    python3 bench/run.py --workload readme-300 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
One single-threaded caller runs sessions back to back (closed loop). Each
cell (one scheme at one operating point) is visited with the seed-invariant
caches cleared, then runs `reps` sessions, as one cell of `sweep` does.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs half the time
with spans around every layer call and half without, and prints per-layer
metrics. The last line of stdout is one JSON object; lines before it, all
starting with "#", are information only. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_right
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 15

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Allowed |sum of layer self times - sum of sessions| in the traced self-check.
SELF_CHECK_TOL_S = 1e-6


def use_checkout_source():
    """Put this checkout's src/ first on the import path.

    BLAS is held to one thread so the process stays single-threaded; set
    before numpy is first imported.
    """
    if not (SRC / "dafstream" / "__init__.py").is_file():
        sys.exit(f"bench: no dafstream package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def check_source():
    import dafstream
    if SRC.resolve() not in Path(dafstream.__file__).resolve().parents:
        sys.exit(f"bench: dafstream imported from {dafstream.__file__}, not {SRC}")


def info(*parts):
    print("#", *parts, flush=True)


# -- machine speed --------------------------------------------------------------

#: Iterations of one calibration loop, and the loop time that defines the
#: reference speed. Timed metrics are reported in seconds at that speed.
CAL_ITERS = 4000
CAL_REF_S = 0.0025
_MASK = (1 << 64) - 1


def _calibration_loop(iters: int = CAL_ITERS) -> float:
    x = 0x9E3779B97F4A7C15
    cdf = [i / 64 for i in range(1, 65)]
    seen = set()
    start = time.perf_counter()
    for _ in range(iters):
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        seen.add(bisect_right(cdf, (((x * 0x2545F4914F6CDD1D) & _MASK) >> 11) * 2.0 ** -53))
        if len(seen) > 40:
            seen.clear()
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop shaped like the per-packet work
    (xorshift, bisect, set), median of three.

    On a shared host the CPU's speed can drift by tens of percent within
    seconds to minutes; the loop drifts with it, so dividing by it cancels
    most of the drift. It does not call dafstream, so no change to the
    package moves it.
    """
    return statistics.median(_calibration_loop() for _ in range(3))


class SpeedSampler:
    """Times a block of code, and runs a short calibration loop from a timer
    signal while it runs.

    Calibrations between timed blocks miss the drift inside a long block; the
    ticks sample it every TICK_S. Their cost is measured and taken out of the
    block's time. bench/README.md gives the spreads with and without them.
    """

    TICK_S = 0.05
    TICK_ITERS = CAL_ITERS // 4

    def __init__(self):
        self.ticks: list[float] = []   # loop times, scaled to CAL_ITERS
        self.spent_s = 0.0
        self.seconds = 0.0             # the last block's time, less the ticks

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.ticks.append(_calibration_loop(self.TICK_ITERS) * (CAL_ITERS / self.TICK_ITERS))
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self.ticks, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = end - self._start - self.spent_s
        return False

    def scale(self, before: float, after: float) -> float:
        """Factor to the reference speed: CAL_REF_S over the mean of the
        calibrations on each side of the block and its ticks."""
        speed = [before, after] + self.ticks
        return CAL_REF_S / (sum(speed) / len(speed))


# -- set-up -------------------------------------------------------------------

def setup_probe(workload: str, seed: int):
    """Child process: time the import and the input build, nothing else."""
    before = calibrate()
    with SpeedSampler() as sampler:
        import workloads
        workloads.build(workload, seed)
    after = calibrate()
    check_source()
    print(json.dumps({"setup_s": sampler.seconds, "scale": sampler.scale(before, after)}))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(raw s, scale) of each probe, as the probe measured them."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["scale"]))
    return samples


# -- checking results -----------------------------------------------------------

def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def digest(result) -> str:
    return hashlib.sha256(result.canonical_bytes()).hexdigest()


def check_result(inp, mode: str, result) -> str | None:
    """Invariants every session must meet, recomputed from its arrays."""
    import numpy as np
    trace = inp.trace
    m = result.metrics()  # raises unless 0 <= IDR <= FDR <= 1
    k = trace.total_packets
    if result.in_time + result.late + result.never != k - len(result.wcp):
        return "in_time + late + never != packets outside the padding"
    frame_of = np.repeat(np.arange(1, trace.num_frames + 1), trace.packets_per_frame)
    dt = result.decode_time[1:]
    real = np.ones(k, dtype=bool)
    real[np.fromiter(result.wcp, dtype=np.int64, count=len(result.wcp)) - 1] = False
    finite = np.isfinite(dt)
    in_time = finite & (dt <= result.frame_deadline[frame_of])
    counted = (int((real & in_time).sum()), int((real & finite & ~in_time).sum()),
               int((real & ~finite).sum()))
    if counted != (result.in_time, result.late, result.never):
        return f"classification {counted} != reported {(result.in_time, result.late, result.never)}"
    if mode == "Block" and m.idr != m.fdr:
        return "Block session with IDR != FDR"
    return None


class Ledger:
    """Attempted and failed sessions, and digests seen so far in this run."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.seen: dict[tuple, str] = {}

    def fail(self, what: str):
        self.failed += 1
        print(f"bench: FAILED {what}", file=sys.stderr, flush=True)

    def run(self, inp, mode, params, session_seed, payloads):
        """One session; returns (result, description), result None if it raised."""
        from dafstream import harness
        self.attempted += 1
        what = f"{self.workload} seed={inp.seed} {mode} session={session_seed}"
        try:
            result = harness.run_session(inp.trace, params, inp.channel, session_seed,
                                         payloads=payloads)
        except Exception:
            self.fail(what + " raised:\n" + traceback.format_exc())
            return None, None
        return result, what

    def check(self, inp, mode, session_seed, result, what) -> bool:
        import workloads
        try:
            problem = check_result(inp, mode, result)
        except ValueError as exc:  # SessionResult.metrics() rejects the ratios
            problem = str(exc)
        got = digest(result)
        key = (inp.seed, mode, session_seed)
        if problem is None and self.seen.get(key, got) != got:
            problem = "canonical_bytes differ from an earlier run of the same session"
        if problem is None and inp.seed == workloads.DEFAULT_SEED:
            if got != self.reference[self.workload][mode][session_seed]:
                problem = "canonical_bytes digest differs from reference.json"
        self.seen.setdefault(key, got)
        if problem is not None:
            self.fail(f"{what}: {problem}")
        return problem is None


# -- the closed loop ------------------------------------------------------------------

class Phase:
    """Samples of one timed phase, per cell: (raw seconds, scale to the
    reference speed)."""

    def __init__(self):
        self.first_result: dict[str, list] = {}   # derive_params + first session
        self.latency: dict[str, list] = {}        # later sessions of a visit
        self.calibration: list[float] = []
        self.completed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.idr: dict[str, list[float]] = {}
        self.fdr: dict[str, list[float]] = {}
        self.caches: dict[str, int] = {}

    def pooled(self, field: str, scaled: bool = True) -> list[float]:
        return [raw * scale if scaled else raw
                for samples in getattr(self, field).values() for raw, scale in samples]

    def median_of_cells(self, field: str, scaled: bool = True) -> float:
        """Median over cells of each cell's median; cells differ in cost, so a
        pooled median would sit between their modes."""
        return statistics.median(
            statistics.median(raw * scale if scaled else raw for raw, scale in samples)
            for samples in getattr(self, field).values())

    def sessions_per_s(self, scaled: bool = True) -> float:
        """Completed sessions over the time spent in them (calibration
        pauses and result checks excluded)."""
        return self.completed / (sum(self.pooled("first_result", scaled))
                                 + sum(self.pooled("latency", scaled)))


def timed_phase(inp, seconds: float, ledger: Ledger, tracer=None) -> Phase:
    """Run whole passes (every cell once) until `seconds` have passed, so
    every phase holds the same mix of schemes.

    The calibration loop runs between sessions, outside the timed spans, and
    from SpeedSampler ticks inside them; a session's time, less the ticks'
    cost, is scaled by the mean of the calibrations on each side and its ticks.
    """
    import workloads
    spec = inp.spec
    ph = Phase()
    sampler = SpeedSampler()
    start_cpu = time.process_time()
    start = time.perf_counter()
    ph.calibration.append(calibrate())
    visit = 0
    while time.perf_counter() - start < seconds:
        for cell in inp.cells:
            for key, n in workloads.cold_caches().items():
                ph.caches[key] = ph.caches.get(key, 0) + n
            params = None
            for i in range(spec.reps):
                session_seed = (visit * spec.reps + i) % workloads.SESSION_SEEDS
                if tracer is not None:
                    tracer.first = i == 0
                with sampler:
                    if params is None:
                        params = workloads.params_for(spec, inp.trace, cell.mode)
                    result, what = ledger.run(inp, cell.mode, params, session_seed, inp.payloads)
                ph.calibration.append(calibrate())
                if result is None:
                    continue
                samples = ph.latency if i else ph.first_result
                samples.setdefault(cell.mode, []).append(
                    (sampler.seconds, sampler.scale(ph.calibration[-2], ph.calibration[-1])))
                ph.completed += 1
                if ledger.check(inp, cell.mode, session_seed, result, what):
                    m = result.metrics()
                    ph.idr.setdefault(cell.mode, []).append(m.idr)
                    ph.fdr.setdefault(cell.mode, []).append(m.fdr)
        visit += 1
    ph.wall_s = time.perf_counter() - start
    ph.cpu_s = time.process_time() - start_cpu
    for key, n in workloads.cold_caches().items():
        ph.caches[key] = ph.caches.get(key, 0) + n
    return ph


def reference_checks(inp, ledger: Ledger):
    """Untimed: sessions of the default seed against reference.json, and the
    promise that payload bytes do not change a session's canonical bytes."""
    import workloads
    session_seed = inp.seed % workloads.SESSION_SEEDS
    ref = workloads.build(inp.spec.name, workloads.DEFAULT_SEED)
    for cell in ref.cells:
        result, what = ledger.run(ref, cell.mode, cell.params, session_seed, ref.payloads)
        if result is not None:
            ledger.check(ref, cell.mode, session_seed, result, what + " (reference)")
    if inp.payloads is not None:
        # same key as the timed run of this session, so Ledger.check compares
        # the digests with and without the bytes
        cell = inp.cells[0]
        for payloads, label in ((inp.payloads, "with"), (None, "without")):
            result, what = ledger.run(inp, cell.mode, cell.params, session_seed, payloads)
            if result is not None:
                ledger.check(inp, cell.mode, session_seed, result,
                             f"{what} ({label} payload bytes)")


# -- metrics --------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum if there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(ph: Phase, setup: list, ledger: Ledger) -> dict:
    tail_s, tail_pct, n = tail(ph.pooled("latency"))
    info(f"session latency: {n} samples after the first of each visit; "
         f"tail is p{tail_pct:.2f} ({TAIL_BEYOND} samples beyond it)")
    info(f"first results: {len(ph.pooled('first_result'))} visits over "
         f"{len(ph.first_result)} cells; setup probes: {len(setup)}")
    info(f"failed_share {ledger.failed / ledger.attempted:.6f} "
         f"({ledger.failed} of {ledger.attempted} sessions)")
    info("raw (unscaled) " + json.dumps({
        "setup_s": statistics.median(raw for raw, _ in setup),
        "sessions_per_s": ph.sessions_per_s(scaled=False),
        "first_result_s": ph.median_of_cells("first_result", scaled=False),
        "session_p50_s": ph.median_of_cells("latency", scaled=False),
        "session_tail_s": tail(ph.pooled("latency", scaled=False))[0]}))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(raw * scale for raw, scale in setup), "s"),
        "sessions_per_s": (ph.sessions_per_s(), "1/s"),
        "first_result_s": (ph.median_of_cells("first_result"), "s"),
        "session_p50_s": (ph.median_of_cells("latency"), "s"),
        "session_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "correct_share": ((ledger.attempted - ledger.failed) / ledger.attempted, "share"),
    }


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Layer self times, scaled by the traced phase's median calibration."""
    n = tracer.sessions
    self_s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    scale = CAL_REF_S / statistics.median(traced.calibration)

    def per_session(name):
        return self_s.get(name, 0.0) * scale / n

    def per_call(name):
        return self_s.get(name, 0.0) * scale / max(calls.get(name, 0), 1)

    draws = calls.get("ltcode.draw_encode", 0) + calls.get("ltcode.draw_decode", 0)
    ingests = calls.get("ltcode.ingest", 0)
    solves = calls.get("sampling.optimize_slopes", 0)
    first_sampling = sum(tracer.first_self.get(k, 0.0)
                         for k in ("sampling.optimize_slopes", "sampling.slope_coeffs"))
    caches = traced.caches
    return {
        "ltcode.draw_encode_s": (per_session("ltcode.draw_encode"), "s/session"),
        "ltcode.draw_decode_s": (per_session("ltcode.draw_decode"), "s/session"),
        "ltcode.draw_calls": (draws / n, "count/session"),
        "ltcode.neighbors_drawn": (c["neighbors_drawn"] / n, "count/session"),
        "harness.window_cdf_s": (per_session("harness.window_cdf"), "s/session"),
        "harness.window_cdf_calls": (calls.get("harness.window_cdf", 0) / n, "count/session"),
        "harness.meta_from_header_s": (per_session("harness.meta_from_header"), "s/session"),
        "harness.session_s": (tracer.session_s * scale / n, "s/session"),
        "harness.self_s": (per_session("harness.session"), "s/session"),
        "sampling.optimize_slopes_s": (per_call("sampling.optimize_slopes"), "s/call"),
        "sampling.optimize_slopes_sweeps": (c["sweeps"] / max(solves, 1), "count/call"),
        "sampling.slope_coeffs_s": (per_call("sampling.slope_coeffs"), "s/call"),
        "sampling.d1_mb": (c["d1_bytes"] / 1e6 / max(calls.get("sampling.slope_coeffs", 0), 1),
                           "MB/call"),
        "sampling.first_result_share": (first_sampling / max(tracer.first_session_s, 1e-12),
                                        "share"),
        "ltcode.ingest_s": (per_session("ltcode.ingest"), "s/session"),
        "ltcode.ingest_calls": (ingests / n, "count/session"),
        "ltcode.decoded_per_ingest": (c["released"] / max(ingests, 1), "count/call"),
        "ltcode.cascade_max": (tracer.cascade_max, "count"),
        "ltcode.xor_payload_s": (per_session("ltcode.xor_payload"), "s/session"),
        "ltcode.xor_mb": (c["xor_bytes"] / 1e6 / n, "MB/session"),
        "protocol.encode_packet_s": (per_session("protocol.encode_packet"), "s/session"),
        "protocol.decode_packet_s": (per_session("protocol.decode_packet"), "s/session"),
        "protocol.datagrams": (calls.get("protocol.encode_packet", 0) / n, "count/session"),
        "trace.packetize_s": (per_session("trace.packetize"), "s/session"),
        "windowing.build_schedule_s": (per_session("windowing.build_schedule"), "s/session"),
        "windowing.wcp_packets_s": (per_session("windowing.wcp_packets"), "s/session"),
        "channel.transmit_many_s": (per_session("channel.transmit_many"), "s/session"),
        "channel.delivered_ratio": (c["delivered"] / max(c["sent"], 1), "share"),
        "ltcode.robust_soliton_hits": (caches["robust_soliton_hits"] / n, "count/session"),
        "ltcode.robust_soliton_misses": (caches["robust_soliton_misses"] / n, "count/session"),
        "harness.slope_plan_cache_hits": (caches["slope_plan_hits"] / n, "count/session"),
        "harness.slope_plan_cache_misses": (caches["slope_plan_misses"] / n, "count/session"),
        "trace_overhead": (traced.sessions_per_s() / untraced.sessions_per_s(), "ratio"),
    }


def print_layers(tracer):
    total = tracer.session_s
    info(f"unscaled self time per layer over {tracer.sessions} traced sessions "
         f"(share of harness.session):")
    for name, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        info(f"  {name:<28} {s / tracer.sessions * 1e3:10.3f} ms/session "
             f"{100 * s / total:6.2f}%  {tracer.calls[name] / tracer.sessions:10.1f} calls/session")


# -- main -----------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    use_checkout_source()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_start = os.getloadavg()
    run_start = time.perf_counter()
    check_source()
    import numpy as np
    import tracer as tracing
    import workloads
    if args.workload not in workloads.SPECS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)}")
    setup = measure_setup(args.workload, args.seed)
    inp = workloads.build(args.workload, args.seed)
    ledger = Ledger(args.workload, load_reference())
    correct = True

    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = timed_phase(inp, args.seconds / 2, ledger, tracer=tr)
        finally:
            tr.remove()
    leftover = tracing.leftover_wrappers()
    if leftover:
        print(f"bench: wrappers left installed: {leftover}", file=sys.stderr)
        correct = False
    main_phase = timed_phase(inp, args.seconds / 2 if args.trace else args.seconds, ledger)
    reference_checks(inp, ledger)

    info(f"workload {args.workload} seed {args.seed}: {inp.spec.why}")
    for mode in main_phase.idr:
        info(f"cell {mode}: {len(main_phase.idr[mode])} sessions, "
             f"median IDR {statistics.median(main_phase.idr[mode]):.4f}, "
             f"median FDR {statistics.median(main_phase.fdr[mode]):.4f} (information only)")

    if args.trace:
        metrics = per_layer(tr, traced, main_phase)
        print_layers(tr)
        error_s = tr.self_check_error_s()
        info(f"self-check: |sum of layer self times - sum of sessions| = {error_s:.3e} s, "
             f"child spans outside their parent: {tr.nesting_errors}")
        if error_s > SELF_CHECK_TOL_S or tr.nesting_errors:
            print("bench: trace self-check failed", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(main_phase, setup, ledger)

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    info("env " + json.dumps({
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "timed_wall_s": round(main_phase.wall_s, 4), "timed_cpu_s": round(main_phase.cpu_s, 4),
        "calibration_s": [min(main_phase.calibration), statistics.median(main_phase.calibration),
                          max(main_phase.calibration)],
        "run_wall_s": round(time.perf_counter() - run_start, 4),
        "run_cpu_s": round(time.process_time(), 4),
        "setup_probes_cpu_s": round(children.ru_utime + children.ru_stime, 4)}))
    for name, (value, unit) in metrics.items():
        info(f"{name} = {value:.6g} {unit}")

    correct = correct and ledger.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
