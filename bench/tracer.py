"""Spans around the calls a session makes into each dafstream layer.

The tracer wraps the names that `dafstream.harness` and `dafstream.sampling`
look up at call time (module functions and class methods), records one span
(name, start, end, parent, session id) per call, and restores the original
objects on `remove()`. Nothing inside the package is edited.

Spans of one session are kept in memory until the session's root span closes;
then they are folded into per-layer self times and dropped, so memory stays
bounded by one session. A layer's self time is its span's duration minus the
part its child spans cover. Tracing cost (the wrapper itself and the counter
hooks, which run after a span closes) lands in the parent's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

from dafstream import harness, sampling
from dafstream.ltcode import DecoderState

MARK = "__bench_span__"

ROOT = "harness.session"
META = "harness.meta_from_header"


def _targets():
    """(owner, attribute, span name) of every wrapped call site."""
    codec = harness.SessionCodec
    return [
        (harness, "run_session", ROOT),
        (harness, "draw", "ltcode.draw"),
        (harness, "xor_payload", "ltcode.xor_payload"),
        (DecoderState, "ingest", "ltcode.ingest"),
        (codec, "meta_from_header", META),
        (codec, "_build_cdf", "harness.window_cdf"),
        (harness, "encode_packet", "protocol.encode_packet"),
        (harness, "decode_packet", "protocol.decode_packet"),
        (harness, "packetize", "trace.packetize"),
        (harness, "transmit_many", "channel.transmit_many"),
        (harness, "build_schedule", "windowing.build_schedule"),
        (harness, "wcp_packets", "windowing.wcp_packets"),
        (harness, "optimize_slopes", "sampling.optimize_slopes"),
        (sampling, "slope_coeffs", "sampling.slope_coeffs"),
    ]


class Tracer:
    def __init__(self):
        self.spans: list = []          # spans of the open session
        self.stack: list[int] = []     # indices of open spans
        self.session = 0
        self.sessions = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.cascade_max = 0
        self.session_s = 0.0
        self.nesting_errors = 0
        self.first = False             # set by the caller before a cell's first session
        self.first_self: dict[str, float] = defaultdict(float)
        self.first_session_s = 0.0
        self._installed: list = []

    # -- counters taken where the work happens ------------------------------

    def _count(self, name, args, result):
        c = self.counts
        if name == "ltcode.draw":
            c["neighbors_drawn"] += len(result.neighbors)
        elif name == "ltcode.ingest":
            c["released"] += len(result)
            self.cascade_max = max(self.cascade_max, len(result))
        elif name == "ltcode.xor_payload":
            neighbors, buffer = args
            # computed: every neighbor row read plus the result row written
            c["xor_bytes"] += (len(neighbors) + 1) * buffer.shape[1]
        elif name == "channel.transmit_many":
            c["sent"] += len(result)
            c["delivered"] += int(result.sum())
        elif name == "sampling.optimize_slopes":
            c["sweeps"] += result.iterations
        elif name == "sampling.slope_coeffs":
            # computed from the array shape, not measured
            c["d1_bytes"] += result.d1.nbytes

    # -- installing and removing wrappers -----------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name))
            self._installed.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, fn, name):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        count = self._count

        def wrapper(*args, **kwargs):
            if not stack:
                self.session += 1
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.session)
                if not stack:
                    self._fold()
            count(name, args, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    # -- self times ----------------------------------------------------------

    def _fold(self):
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                _, p_start, p_end, _, _ = spans[parent]
                if start < p_start or end > p_end:
                    self.nesting_errors += 1
                child_s[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            own = end - start - child_s[i]
            if name == "ltcode.draw":
                name = "ltcode.draw_decode" if spans[parent][0] == META else "ltcode.draw_encode"
            self.self_s[name] += own
            self.calls[name] += 1
            if self.first:
                self.first_self[name] += own
        root = spans[0]
        if root[0] == ROOT:
            duration = root[2] - root[1]
            self.sessions += 1
            self.session_s += duration
            if self.first:
                self.first_session_s += duration
        spans.clear()

    def self_check_error_s(self) -> float:
        """|sum of every layer's self time - sum of session spans|. Nonzero
        when a span was recorded outside a session or counted twice."""
        return abs(sum(self.self_s.values()) - self.session_s)


def leftover_wrappers() -> list[str]:
    """Names in the traced namespaces that still hold a tracing wrapper."""
    found = []
    for owner, attr, _ in _targets():
        if hasattr(owner.__dict__.get(attr), MARK):
            found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
