"""Unit tests for the serving wire protocol and admission control."""

import json

import pytest

from repro import obs
from repro.serve.admission import AdmissionController, Decision
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    decode_message,
    encode_message,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)


class TestParseRequest:
    def test_minimal_valid_requests(self):
        for op in ("health", "stats", "list_sketches"):
            assert parse_request(json.dumps({"op": op}))["op"] == op
        request = parse_request(
            b'{"op": "eval", "id": 3, "sketch": "x", "query": "//a"}\n'
        )
        assert request["query"] == "//a"

    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b'{"op": "eval"')
        assert excinfo.value.code == "bad_request"

    def test_non_object(self):
        for line in ("[1, 2]", '"eval"', "42"):
            with pytest.raises(ProtocolError) as excinfo:
                parse_request(line)
            assert excinfo.value.code == "bad_request"

    def test_not_utf8(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(b"\xff\xfe{}")
        assert excinfo.value.code == "bad_request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "frobnicate"}')
        assert excinfo.value.code == "unknown_op"

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"query": "//a"}')
        assert excinfo.value.code == "bad_request"

    def test_data_ops_require_query(self):
        for op in ("eval", "estimate", "expand"):
            with pytest.raises(ProtocolError) as excinfo:
                parse_request(json.dumps({"op": op}))
            assert excinfo.value.code == "bad_request"

    def test_bad_field_types(self):
        bad = [
            {"op": "eval", "query": "//a", "id": [1]},
            {"op": "eval", "query": "//a", "deadline_ms": -5},
            {"op": "eval", "query": "//a", "deadline_ms": True},
            {"op": "eval", "query": "//a", "deadline_ms": float("nan")},
            {"op": "eval", "query": "//a", "deadline_ms": float("inf")},
            {"op": "eval", "query": "//a", "deadline_ms": 10**400},
            {"op": "eval", "query": "//a", "sketch": ""},
            {"op": "eval", "query": 7},
            {"op": "expand", "query": "//a", "max_nodes": 0},
            {"op": "expand", "query": "//a", "max_nodes": "big"},
            {"op": "expand", "query": "//a", "seed": "x"},
        ]
        for request in bad:
            with pytest.raises(ProtocolError) as excinfo:
                parse_request(json.dumps(request))
            assert excinfo.value.code == "bad_request", request

    def test_oversized_line(self):
        line = b'{"op": "eval", "query": "' + b"a" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(line)
        assert excinfo.value.code == "bad_request"

    def test_error_code_catalogue_is_closed(self):
        with pytest.raises(ValueError):
            ProtocolError("not_a_code", "nope")
        with pytest.raises(ValueError):
            error_response(None, "not_a_code", "nope")
        assert set(OPS) >= {"eval", "estimate", "expand",
                            "list_sketches", "health", "stats"}
        assert "overloaded" in ERROR_CODES and "deadline_exceeded" in ERROR_CODES


class TestResponses:
    def test_ok_echoes_id_and_op(self):
        response = ok_response({"op": "eval", "id": 9}, selectivity=4.0)
        assert response == {"id": 9, "op": "eval", "ok": True,
                            "selectivity": 4.0}

    def test_error_shape(self):
        response = error_response({"op": "eval", "id": 9}, "overloaded", "full")
        assert response["ok"] is False
        assert response["error"] == {"code": "overloaded", "message": "full"}

    def test_encode_decode_round_trip(self):
        message = ok_response({"op": "health", "id": "h1"}, status="ok")
        wire = encode_message(message)
        assert wire.endswith(b"\n") and wire.count(b"\n") == 1
        assert decode_message(wire) == message

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            decode_message(b"[]\n")

    def test_encode_response_within_cap_passes_through(self):
        message = ok_response({"op": "eval", "id": 1}, selectivity=2.0)
        data, sent = encode_response(message)
        assert sent is message
        assert decode_message(data) == message

    def test_encode_response_caps_oversized_payloads(self):
        """An over-cap response becomes a structured error, never a line
        the client's 1 MiB readline would truncate (and desynchronize on)."""
        message = ok_response({"op": "expand", "id": "big"},
                              xml="x" * (MAX_LINE_BYTES + 1024))
        data, sent = encode_response(message)
        assert len(data) <= MAX_LINE_BYTES
        assert data.endswith(b"\n")
        assert sent["ok"] is False
        assert sent["error"]["code"] == "response_too_large"
        assert sent["id"] == "big" and sent["op"] == "expand"
        assert decode_message(data) == sent


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(max_pending=4, degrade_watermark=-1)

    def test_default_watermark_is_half(self):
        assert AdmissionController(max_pending=8).degrade_watermark == 4
        assert AdmissionController(max_pending=1).degrade_watermark == 1

    def test_admit_degrade_shed_progression(self):
        controller = AdmissionController(max_pending=3, degrade_watermark=1)
        assert controller.acquire() is Decision.ADMIT      # depth 1
        assert controller.acquire() is Decision.DEGRADE    # depth 2
        assert controller.acquire() is Decision.DEGRADE    # depth 3
        assert controller.acquire() is Decision.SHED       # full
        assert controller.depth == 3
        controller.release()
        assert controller.acquire() is Decision.DEGRADE    # back to 3
        for _ in range(3):
            controller.release()
        assert controller.depth == 0
        assert controller.acquire() is Decision.ADMIT

    def test_watermark_zero_degrades_everything(self):
        controller = AdmissionController(max_pending=2, degrade_watermark=0)
        assert controller.acquire() is Decision.DEGRADE

    def test_release_underflow(self):
        controller = AdmissionController(max_pending=1)
        with pytest.raises(RuntimeError):
            controller.release()

    def test_info_and_obs(self):
        with obs.observed() as registry:
            controller = AdmissionController(max_pending=1, degrade_watermark=1)
            assert controller.acquire() is Decision.ADMIT
            assert controller.acquire() is Decision.SHED
            controller.release()
        info = controller.info()
        assert info["admitted_total"] == 1
        assert info["shed_total"] == 1
        assert info["depth"] == 0
        flat = obs.report.flatten_snapshot(registry.snapshot())
        assert flat["counters.serve.admitted"] == 1
        assert flat["counters.serve.shed"] == 1
        assert flat["gauges.serve.queue.depth"] == 0
