"""Delay-aware sliding-window fountain coding for trace-driven streaming."""

from .channel import ChannelModel, transmit_many
from .errors import (ConfigError, DafError, ProtocolError, SolverError,
                     TraceParseError)
from .harness import Metrics, SessionResult, run_session, sweep
from .ltcode import (CodedPacketMeta, DecoderState, PeelingTables, draw, robust_soliton,
                     xor_payload)
from .protocol import (DafHeader, decode_header, decode_packet, encode_header,
                       encode_packet)
from .sampling import (AspProfile, SlopeCoefficients, asp_from_matrix,
                       optimize_per_frame, optimize_slopes, slope_coeffs,
                       slope_matrix)
from .trace import (VideoTrace, burst_trace, constant_trace, downsample,
                    load_trace, packetize, random_trace, sinusoidal_trace)
from .windowing import (CodingParams, Mode, WindowSchedule, build_schedule,
                        derive_params, wcp_frames, wcp_packets)

__version__ = "0.1.0"
