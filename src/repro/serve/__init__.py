"""repro.serve — persistent async attack-evaluation service.

A long-lived front end for robustness evaluation: requests (victim spec
+ threat model + attack budget) are canonicalized to content addresses,
answered from the artifact store when warm, coalesced when identical
requests are in flight, and otherwise scheduled — training-free work on
an in-process lane, everything else through the supervised worker pool
with deadlines, retries, and the ``error_kind`` taxonomy.  Both lanes run
the same :func:`~repro.eval.lockstep.evaluate_lockstep`, so a result does
not depend on the lane that computed it.
Progress streams as line-delimited JSON over a local socket; tests use
the in-process :class:`LocalClient`.
"""

from .client import LocalClient, ServeClient
from .compute import compute_request
from .protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    normalize_request,
    request_key,
    request_spec,
)
from .request_cache import RequestCache
from .server import run_server
from .service import EvalService, ServeConfig, ServeError

__all__ = [
    "EvalService", "ServeConfig", "ServeError",
    "ProtocolError", "normalize_request", "request_spec", "request_key",
    "encode_message", "decode_message",
    "RequestCache", "compute_request",
    "ServeClient", "LocalClient", "run_server",
]
