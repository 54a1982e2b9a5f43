"""Traced daemon launcher: ``python3 perfbench/launcher.py DUMP ARGS...``.

Wraps the daemon's layer entry points (see ``layers.install_serve_layers``)
where the daemon looks them up, keeps the daemon's ``serve.request`` /
``serve.execute`` spans in memory instead of writing one line per span,
then runs the ordinary CLI with ARGS (which should include ``--trace
FILE``).  At exit the spans go to FILE as JSON lines and the layer totals,
plus per-request protocol times keyed by ``request_id``, go to DUMP.
"""

from __future__ import annotations

import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402
import layers  # noqa: E402

#: Daemon spans joined with client latencies by request_id.
KEPT_SPANS = ("serve.request", "serve.execute")


class MemorySink:
    """Trace sink that holds the request spans until the daemon exits."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.events = []
        self.events_written = 0
        self._closed = False

    def emit(self, event) -> None:
        if event["name"] in KEPT_SPANS:
            self.events.append(event)  # list.append is atomic under the GIL

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, separators=(",", ":")))
                handle.write("\n")
        self.events_written = len(self.events)


def main(argv) -> int:
    dump_path, cli_args = argv[0], argv[1:]
    common.ensure_src_on_path()
    from repro import cli, obs

    clock = layers.LayerClock()
    protocol_s = {"decode": {}, "encode": {}}
    lock = threading.Lock()

    def on_decode(args, request, own):
        with lock:
            protocol_s["decode"][request.get("request_id")] = own

    def on_encode(args, result, own):
        with lock:
            protocol_s["encode"][args[0].get("request_id")] = own

    layers.install_serve_layers(clock, on_decode, on_encode)
    obs.JsonLinesSink = MemorySink
    code = cli.main(cli_args)
    with open(dump_path, "w", encoding="utf-8") as handle:
        json.dump({"layers": clock.summary(), "protocol": protocol_s}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
