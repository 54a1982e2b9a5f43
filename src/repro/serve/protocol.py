"""Wire protocol for the TreeSketch query-serving daemon.

One request per line, one response per line: UTF-8 JSON objects separated
by ``\\n`` (newline-delimited JSON).  A connection is a sequence of
independent request/response pairs -- there is no session state beyond
the TCP stream, so clients may pipeline requests and match responses by
``id``.

Request shape::

    {"op": "eval", "id": 7, "sketch": "xmark", "query": "//a (//p)",
     "deadline_ms": 250}

``op`` is required; everything else depends on the op (see
docs/SERVING.md for the full spec).  ``request_id`` is the optional
end-to-end correlation id: the server generates one when it is absent,
echoes it in every response, and stamps it on the request's server-side
trace spans.  Responses always carry ``ok`` plus the echoed
``id``/``op``/``request_id``; failures carry a structured ``error``::

    {"id": 7, "ok": false, "op": "eval",
     "error": {"code": "overloaded", "message": "queue full (64 pending)"}}

This module is transport-agnostic: it validates and (de)serializes
messages, and both :mod:`repro.serve.server` and
:mod:`repro.serve.client` build on it.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Tuple, Union

from repro.workload.mutations import MutationOp

PROTOCOL_VERSION = 1

#: Supported operations, in documentation order.  ``shard_map`` and
#: ``fleet_stats`` are answered by the supervisor's control endpoint
#: (:mod:`repro.serve.supervisor`); a worker addressed directly answers
#: them with ``unknown_op`` pointing at the supervisor.
OPS = ("eval", "estimate", "explain", "expand", "update", "list_sketches",
       "health", "stats", "shard_map", "fleet_stats")

#: Ops that read a sketch (admission-controlled; the rest are control-plane).
DATA_OPS = frozenset({"eval", "estimate", "explain", "expand"})

#: Ops that mutate a sketch.  Admission-controlled like data ops, but
#: never answered from the cache, never shadow-sampled, and **not
#: idempotent** -- clients must not blind-retry them (see
#: PooledClient.update).
MUTATION_OPS = frozenset({"update"})

#: Ops only the supervisor control endpoint serves.
SUPERVISOR_OPS = frozenset({"shard_map", "fleet_stats"})

#: Structured error codes a response may carry.
ERROR_CODES = (
    "bad_request",        # malformed JSON, wrong types, missing fields
    "unknown_op",         # op not in OPS
    "unknown_sketch",     # sketch name not in the registry
    "immutable_sketch",   # update against a frozen (non-live) sketch
    "bad_query",          # twig text failed to parse
    "deadline_exceeded",  # request ran past its (or the server's) deadline
    "overloaded",         # shed by admission control; retry with backoff
    "expansion_limit",    # expand exceeded max_nodes
    "response_too_large",  # serialized response exceeded MAX_LINE_BYTES
    "internal",           # unexpected server-side failure
)

#: Hard cap on one serialized message (requests *and* responses).
MAX_LINE_BYTES = 1 << 20

#: Cap on a client-supplied correlation id (it is echoed and logged).
MAX_REQUEST_ID_CHARS = 128


class ProtocolError(Exception):
    """A request that cannot be served, tagged with a wire error code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


def _require_str(request: Dict[str, Any], field: str) -> str:
    value = request.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            "bad_request", f"field {field!r} must be a non-empty string"
        )
    return value


def parse_request(line: Union[bytes, str]) -> Dict[str, Any]:
    """Decode and validate one request line.

    Returns the request dict; raises :class:`ProtocolError` with
    ``bad_request`` (malformed JSON / bad field types) or ``unknown_op``.
    Op-specific required fields are checked here so the server's dispatch
    can assume a well-formed request.  An ``update`` gets its edit as a
    validated :class:`MutationOp` under ``request["mutation"]``.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("bad_request", "request exceeds MAX_LINE_BYTES")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("bad_request", "request is not valid UTF-8")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"request is not valid JSON: {exc}")
    if not isinstance(request, dict):
        raise ProtocolError("bad_request", "request must be a JSON object")

    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad_request", "field 'op' must be a string")
    if op not in OPS:
        raise ProtocolError(
            "unknown_op", f"unknown op {op!r}; supported: {', '.join(OPS)}"
        )

    req_id = request.get("id")
    if req_id is not None and not isinstance(req_id, (int, str)):
        raise ProtocolError("bad_request", "field 'id' must be an int or string")

    request_id = request.get("request_id")
    if request_id is not None:
        if not isinstance(request_id, str) or not request_id:
            raise ProtocolError(
                "bad_request", "field 'request_id' must be a non-empty string"
            )
        if len(request_id) > MAX_REQUEST_ID_CHARS:
            raise ProtocolError(
                "bad_request",
                f"field 'request_id' exceeds {MAX_REQUEST_ID_CHARS} characters",
            )

    deadline = request.get("deadline_ms")
    if deadline is not None:
        # json reads NaN, Infinity and integers of any size: convert once,
        # so the server's deadline timer only ever sees a finite positive
        # float.
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            deadline = math.nan
        try:
            deadline = float(deadline)
        except OverflowError:  # an integer beyond the float range
            deadline = math.inf
        if not 0 < deadline < math.inf:  # NaN fails every comparison
            raise ProtocolError(
                "bad_request",
                "field 'deadline_ms' must be a finite positive number",
            )
        request["deadline_ms"] = deadline

    if op in DATA_OPS:
        _require_str(request, "query")
        if request.get("sketch") is not None:
            _require_str(request, "sketch")
    if op == "update":
        if request.get("sketch") is not None:
            _require_str(request, "sketch")
        try:
            request["mutation"] = MutationOp.from_json(request)
        except ValueError as exc:
            raise ProtocolError("bad_request", str(exc))
    if op == "explain":
        top_k = request.get("top_k")
        if top_k is not None and (
            not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1
        ):
            raise ProtocolError(
                "bad_request", "field 'top_k' must be a positive integer"
            )
    if op == "expand":
        max_nodes = request.get("max_nodes")
        if max_nodes is not None and (
            not isinstance(max_nodes, int) or isinstance(max_nodes, bool)
            or max_nodes < 1
        ):
            raise ProtocolError(
                "bad_request", "field 'max_nodes' must be a positive integer"
            )
        seed = request.get("seed")
        if seed is not None and (
            not isinstance(seed, int) or isinstance(seed, bool)
        ):
            raise ProtocolError("bad_request", "field 'seed' must be an integer")
    return request


def ok_response(request: Optional[Dict[str, Any]], **payload: Any) -> Dict[str, Any]:
    """A success response echoing the request's ``id``, ``op``, ``request_id``."""
    request = request or {}
    response: Dict[str, Any] = {"id": request.get("id"), "op": request.get("op"),
                                "ok": True}
    if request.get("request_id") is not None:
        response["request_id"] = request["request_id"]
    response.update(payload)
    return response


def error_response(
    request: Optional[Dict[str, Any]], code: str, message: str
) -> Dict[str, Any]:
    """A failure response with a structured ``error`` object."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    request = request or {}
    response: Dict[str, Any] = {
        "id": request.get("id"),
        "op": request.get("op"),
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request.get("request_id") is not None:
        response["request_id"] = request["request_id"]
    return response


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its newline-terminated wire form."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def encode_response(message: Dict[str, Any]) -> Tuple[bytes, Dict[str, Any]]:
    """Serialize a response, enforcing :data:`MAX_LINE_BYTES`.

    Clients frame responses with a 1 MiB ``readline`` -- an oversized
    line would reach them truncated and desynchronize the stream.  A
    response that serializes past the cap is therefore replaced by a
    structured ``response_too_large`` error (echoing the original
    ``id``/``op``), which always fits.  Returns ``(wire bytes, the
    message actually encoded)`` so callers can meter errors correctly.
    """
    data = encode_message(message)
    if len(data) > MAX_LINE_BYTES:
        message = error_response(
            message, "response_too_large",
            f"serialized response is {len(data)} bytes, over the "
            f"{MAX_LINE_BYTES}-byte line cap; for expand, lower max_nodes",
        )
        data = encode_message(message)
    return data, message


def decode_message(line: Union[bytes, str]) -> Dict[str, Any]:
    """Parse one response line (client side); raises ValueError if broken."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError("response must be a JSON object")
    return message
