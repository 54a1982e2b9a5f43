"""Serving workloads: a real ``python -m repro serve`` daemon, driven over
sockets by this process through at most two connections.

The loop is closed: each connection sends its next request only after the
reply to the previous one arrived, like a query optimiser waiting for a
selectivity.  Latency is taken client-side, from the start of the send to
the end of the reply line.  Replies are kept as raw bytes during the timed
phase and decoded and checked afterwards, so checking adds no client time
to the other connection's latency.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402

READY = re.compile(rb"serving \d+ sketch\(es\) on ([0-9.]+):(\d+) \(protocol")
HOT_SHARE = 0.8
#: live: reads sent after each update, on the same connection.
READS_PER_UPDATE = 10
HOT_SIZE = 64
#: live: read queries (each write empties the cache, so reads mostly
#: evaluate; 256 queries keep the read-latency median from resting on a
#: handful of query shapes), of which the first SEL_ERR_QUERIES are scored.
LIVE_READ_QUERIES = 256
SEL_ERR_QUERIES = 64


class Daemon:
    """One daemon process; its output goes to a log file in the work dir."""

    def __init__(self, args: List[str], work: str, tag: str,
                 traced: bool) -> None:
        self.log_path = os.path.join(work, f"{tag}.log")
        self.dump_path = os.path.join(work, f"{tag}-dump.json")
        self.trace_path = os.path.join(work, f"{tag}-trace.jsonl")
        if traced:
            self.cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                        self.dump_path, *args, "--trace", self.trace_path]
        else:
            self.cmd = [sys.executable, "-m", "repro", *args]
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self, timeout: float = 120.0) -> float:
        """Spawn and wait for the readiness line; returns seconds taken."""
        with open(self.log_path, "wb") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(self.cmd, stdout=log,
                                         stderr=subprocess.STDOUT,
                                         env=common.child_env(), cwd=common.ROOT)
        while True:
            with open(self.log_path, "rb") as log:
                match = READY.search(log.read())
            if match:
                elapsed = time.perf_counter() - started
                self.port = int(match.group(2))
                return elapsed
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.log_tail()}")
            if time.perf_counter() - started > timeout:
                self.stop()
                raise RuntimeError("daemon did not become ready in time")
            time.sleep(0.002)

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as log:
            return log.read()[-3000:].decode("utf-8", "replace")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


def start_daemons(args: List[str], work: str, traced: bool,
                  count: int = 3) -> Tuple["Daemon", List[float], List[float]]:
    """Spawn ``count`` daemons in turn; all but the last are stopped.

    Returns the running daemon, the seconds each spawn took to its
    readiness line, and the calibrations bracketing the spawns.
    """
    samples = []
    daemon = None
    before = common.calibrate()
    for index in range(count):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(args, work, f"daemon{index}", traced)
        samples.append(daemon.start())
    return daemon, samples, before + common.calibrate()


# ------------------------------------------------------------ closed loop


class Lane:
    """One connection: sends the next request when the previous replied."""

    def __init__(self, port: int, source: Callable[[], Optional[tuple]]):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.source = source
        self.buf = bytearray()
        self.inflight: Optional[tuple] = None

    def send_next(self, records: list) -> bool:
        item = self.source()
        if item is None:
            return False
        rid, op, meta, payload = item
        started = time.perf_counter()
        try:
            self.sock.sendall(payload)
        except OSError:
            records.append((rid, op, meta, started, time.perf_counter(), None))
            return False
        self.inflight = (rid, op, meta, started)
        return True

    def close(self) -> None:
        self.sock.close()


def closed_loop(lanes: List[Lane]) -> Tuple[list, float]:
    """Run every lane until its source is exhausted; returns the records
    ``(rid, op, meta, sent, replied, line-or-None)`` and the wall time."""
    records: list = []
    selector = selectors.DefaultSelector()
    started = time.perf_counter()
    for lane in lanes:
        if lane.send_next(records):
            selector.register(lane.sock, selectors.EVENT_READ, lane)
    try:
        while selector.get_map():
            events = selector.select(timeout=120)
            if not events:
                raise TimeoutError("no reply from the daemon for 120 s")
            for key, _ in events:
                lane = key.data
                try:
                    chunk = lane.sock.recv(1 << 20)
                except OSError:
                    chunk = b""
                now = time.perf_counter()
                if not chunk:
                    records.append((*lane.inflight, now, None))
                    lane.inflight = None
                    selector.unregister(lane.sock)
                    continue
                lane.buf += chunk
                end = lane.buf.find(b"\n")
                if end < 0:
                    continue
                records.append((*lane.inflight, now, bytes(lane.buf[:end])))
                del lane.buf[:end + 1]
                lane.inflight = None
                if not lane.send_next(records):
                    selector.unregister(lane.sock)
    finally:
        selector.close()
    return records, time.perf_counter() - started


def encode(rid: str, op: str, fields: Dict) -> bytes:
    message = {"op": op, "id": rid, "request_id": rid}
    message.update(fields)
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def call(port: int, op: str, **fields) -> Dict:
    """One untimed request on a fresh connection (stats, final reads)."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(encode("ctl", op, fields))
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            data += chunk
    return json.loads(data)


# ------------------------------------------------------------- accounting


def decode_records(records: list) -> List[Dict]:
    """Decoded replies with latency (ms; +inf when the request failed)."""
    out = []
    for rid, op, meta, sent, replied, line in records:
        reply = None
        if line is not None:
            try:
                reply = json.loads(line)
            except ValueError:
                reply = None
        ok = bool(reply and reply.get("ok"))
        out.append({
            "rid": rid, "op": op, "meta": meta, "reply": reply, "ok": ok,
            "ms": (replied - sent) * 1000.0 if ok else float("inf"),
            "error": (None if ok else
                      ((reply or {}).get("error") or {}).get("code", "connection")),
        })
    return out


def per_op_accounting(decoded: List[Dict]) -> Dict[str, Dict]:
    ops: Dict[str, Dict] = {}
    for item in decoded:
        entry = ops.setdefault(item["op"], {"attempted": 0, "failed": 0,
                                            "errors": {}})
        entry["attempted"] += 1
        if not item["ok"]:
            entry["failed"] += 1
            code = item["error"]
            entry["errors"][code] = entry["errors"].get(code, 0) + 1
    for entry in ops.values():
        entry["failed_share"] = entry["failed"] / entry["attempted"]
    return ops


def serving_metrics(decoded: List[Dict], scaled_wall: float,
                    setups: List[float], setup_scale: float, report: Dict,
                    rss: float):
    """End-to-end metrics of a daemon run at reference speed (``decoded``
    latencies and ``scaled_wall`` are already scaled), and the per-op
    latencies behind them."""
    lat_ms: Dict[str, List[float]] = {}
    for item in decoded:
        lat_ms.setdefault(item["op"], []).append(item["ms"])
    metrics = {
        "setup_s": common.median(setups) * setup_scale,
        "build_s": common.median([sum(it) for it in report["scaled_iterations"]]),
        "peak_rss_mb": rss,
        "rps": sum(1 for item in decoded if item["ok"]) / scaled_wall,
    }
    metrics.update(common.read_latency(lat_ms))
    return metrics, lat_ms


def sliced_loop(lanes: List[Lane], quota: Dict, per_slice: int,
                more: Callable[[float], bool]) -> Tuple[List[Dict], float, List]:
    """Run ``lanes`` in slices of ``per_slice`` requests (counted by the
    sources through ``quota``), calibrating between slices, while
    ``more(elapsed wall seconds)`` holds.

    Each slice's latencies and wall time are scaled by the calibrations
    on either side of it, so a drift in host speed moves only the slices
    it overlaps.  Returns the decoded replies, the scaled wall time and
    ``(wall, scale, replies)`` per slice.
    """
    decoded, slices = [], []
    scaled_wall = elapsed = 0.0
    before = common.calibrate()
    while True:
        quota["left"] = per_slice
        records, wall = closed_loop(lanes)
        after = common.calibrate()
        scale = common.speed_scale(before + after)
        before = after
        part = decode_records(records)
        for item in part:
            item["raw_ms"] = item["ms"]
            item["ms"] *= scale
        decoded += part
        scaled_wall += wall * scale
        elapsed += wall
        slices.append((wall, scale, len(part)))
        if not more(elapsed):
            return decoded, scaled_wall, slices


def serve_layer_metrics(daemon: Daemon, stats: Dict,
                        decoded: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics of a traced daemon run (see CATALOGUE.md)."""
    with open(daemon.dump_path, encoding="utf-8") as handle:
        dump = json.load(handle)
    totals = dump["layers"]["totals"]
    samples = dump["layers"]["samples"]
    decode_s = dump["protocol"]["decode"]
    encode_s = dump["protocol"]["encode"]
    spans: Dict[str, Dict[str, float]] = {}
    with open(daemon.trace_path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            rid = (event.get("attrs") or {}).get("request_id")
            if rid is not None:
                spans.setdefault(rid, {})[event["name"]] = event["duration"]

    def mean_ms(layer: str) -> float:
        calls, _, own = totals.get(layer, [0, 0.0, 0.0])
        return own / calls * 1000.0 if calls else 0.0

    waits, wires = [], []
    latency = {item["rid"]: item["raw_ms"] for item in decoded if item["ok"]}
    for rid, named in spans.items():
        request = named.get("serve.request")
        execute = named.get("serve.execute")
        if request is None or execute is None:
            continue
        protocol = decode_s.get(rid, 0.0) + encode_s.get(rid, 0.0)
        waits.append((request - execute - protocol) * 1000.0)
        if rid in latency:
            wires.append(latency[rid] - request * 1000.0)
    metrics = stats["metrics"]
    counters, histograms = metrics["counters"], metrics["histograms"]

    def counter(name: str) -> float:
        return counters.get(name, 0)

    hits, misses = counter("eval.cache.hits"), counter("eval.cache.misses")
    routed, singles = counter("live.routed"), counter("live.singletons")
    remerge = histograms.get("live.remerge_seconds") or {}
    batch = histograms.get("serve.batch.size") or {}
    edit_calls, _, edit_own = totals.get("core.live.edit", [0, 0.0, 0.0])
    expands = [item["reply"]["elements"] for item in decoded
               if item["ok"] and item["op"] == "expand"]
    eval_ms = [s * 1000.0 for s in samples.get("core.evaluate", [])]
    expand_ms = [s * 1000.0 for s in samples.get("core.expand", [])]
    def pct(values, q):
        return common.percentile(values, q) if values else 0.0

    return {
        "serve.protocol.decode_ms": mean_ms("serve.protocol.decode"),
        "serve.protocol.encode_ms": mean_ms("serve.protocol.encode"),
        "serve.server.wait_ms.p50": pct(waits, 50),
        "serve.server.wait_ms.p99": pct(waits, 99),
        "serve.server.batch_size": batch.get("mean", 0.0),
        "client.wire_ms": common.median(wires) if wires else 0.0,
        "core.qcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.qcache.evictions": counter("eval.cache.evictions"),
        "core.qcache.invalidate_ms": mean_ms("core.qcache.invalidate"),
        "core.evaluate.self_ms.p50": pct(eval_ms, 50),
        "core.evaluate.self_ms.p99": pct(eval_ms, 99),
        "core.evaluate.node_visits": (counter("eval.node_visits") / counter("eval.queries")
                                      if counter("eval.queries") else 0.0),
        "core.estimate.self_ms": mean_ms("core.estimate"),
        "core.expand.self_ms.p50": pct(expand_ms, 50),
        "core.expand.self_ms.p99": pct(expand_ms, 99),
        "core.expand.elements": sum(expands) / len(expands) if expands else 0.0,
        "xmltree.serialize.self_ms": mean_ms("xmltree.serialize"),
        "core.live.find_ms": mean_ms("core.live.find"),
        "core.live.reconcile_ms": ((edit_own - remerge.get("sum", 0.0)) / edit_calls * 1000.0
                                   if edit_calls else 0.0),
        "core.live.routed_ratio": routed / (routed + singles) if routed + singles else 0.0,
        "core.live.remerge_ms.p50": remerge.get("p50", 0.0) * 1000.0,
        "core.live.remerge_ms.p99": remerge.get("p99", 0.0) * 1000.0,
        "core.live.remerges": counter("live.remerges"),
        "core.live.remerge_merges": counter("live.remerge_merges"),
        "core.live.snapshot_ms": mean_ms("core.live.snapshot"),
    }


# -------------------------------------------------------------- local side


class LocalAnswers:
    """Answers of a locally loaded ``.tsb``, the oracle for daemon replies."""

    def __init__(self, tsb_path: str) -> None:
        from repro.core.io import load_synopsis

        self.sketch = load_synopsis(tsb_path)
        self._results: Dict[str, object] = {}
        self._selectivity: Dict[str, float] = {}
        self._expanded: Dict[str, int] = {}

    def result(self, text: str):
        from repro.core.evaluate import eval_query
        from repro.query.parser import parse_twig

        result = self._results.get(text)
        if result is None:
            result = self._results[text] = eval_query(self.sketch,
                                                      parse_twig(text))
        return result

    def selectivity(self, text: str) -> float:
        from repro.core.estimate import estimate_selectivity

        value = self._selectivity.get(text)
        if value is None:
            value = self._selectivity[text] = estimate_selectivity(
                self.result(text))
        return value

    def expected_size(self, text: str) -> float:
        from repro.core.expand import expected_size

        return expected_size(self.result(text))

    def expand_elements(self, text: str) -> int:
        from repro.core.expand import expand_result

        value = self._expanded.get(text)
        if value is None:
            value = self._expanded[text] = expand_result(
                self.result(text), max_nodes=200_000, sketch=self.sketch,
                seed=common.EXPAND_SEED).size()
        return value


def check_read(item: Dict, local: LocalAnswers, query: str) -> Optional[str]:
    """Why a successful read reply disagrees with the local oracle, if it does."""
    reply, op = item["reply"], item["op"]
    if op in ("estimate", "eval"):
        want = local.selectivity(query)
        if reply.get("selectivity") != want:
            return (f"{op} {query!r}: daemon {reply.get('selectivity')!r} "
                    f"!= local {want!r}")
        if op == "eval" and "bindings" not in reply:
            return f"eval {query!r}: reply has no bindings"
    elif op == "expand":
        want = local.expand_elements(query)
        if reply.get("elements") != want:
            return (f"expand {query!r}: daemon {reply.get('elements')} "
                    f"elements != local {want}")
        try:
            ET.fromstring(reply["xml"])
        except (ET.ParseError, KeyError, TypeError) as exc:
            return f"expand {query!r}: answer is not parseable XML ({exc})"
    return None


def expand_candidates(queries: List[str], local: "LocalAnswers",
                      minimum: int = 4) -> List[str]:
    """The queries an expand request may use: answers of at most
    EXPAND_MAX_ELEMENTS elements, or the ``minimum`` smallest answers when
    too few are that small."""
    sizes = {q: local.expected_size(q) for q in queries}
    small = [q for q in queries if sizes[q] <= common.EXPAND_MAX_ELEMENTS]
    if len(small) >= minimum:
        return small
    return sorted(queries, key=lambda q: (sizes[q], q))[:minimum]


# ------------------------------------------------------------------ serve

SERVE_SKETCHES = (("xmark", "XMark-TX"), ("imdb", "IMDB-TX"),
                  ("sprot", "SProt-TX"))


def serve_script(seed: int, total: int, sets: Dict, locals_: Dict) -> List[tuple]:
    """The seeded request script: (op, sketch, query) with exact op shares."""
    rng = random.Random(common.derive_seed(seed, "serve/script"))
    ops = []
    for op, share in common.READ_MIX:
        ops += [op] * int(round(total * share))
    rng.shuffle(ops)
    expandable: Dict[Tuple[str, str], List[str]] = {}
    script = []
    for op in ops:
        name = rng.choice(SERVE_SKETCHES)[0]
        temp = "hot" if rng.random() < HOT_SHARE else "cold"
        pool = sets[name][temp]
        if op == "expand":
            key = (name, temp)
            if key not in expandable:
                expandable[key] = expand_candidates(pool[:HOT_SIZE * 2],
                                                    locals_[name])
            pool = expandable[key]
        script.append((op, name, rng.choice(pool)))
    return script


def run_serve(ctx: Dict) -> Dict:
    seed, work, phases = ctx["seed"], ctx["work"], ctx["phases"]
    from buildbench import run_build_child

    docs, sets, fingerprint = {}, {}, {"documents": {}}
    all_queries = []
    with phases("inputs"):
        for name, doc in SERVE_SKETCHES:
            xml = common.document_xml(doc, seed, ctx["scale"])
            info = common.document_info(xml, HOT_SIZE + ctx["cold_size"],
                                        common.derive_seed(seed, f"serve/{doc}"))
            docs[name] = xml
            sets[name] = {"hot": info["queries"][:HOT_SIZE],
                          "cold": info["queries"][HOT_SIZE:]}
            fingerprint["documents"][doc] = {
                k: info[k] for k in ("elements", "stable_bytes", "density")}
            all_queries += info["queries"]
    with phases("build"):
        report = run_build_child({
            "docs": [{"name": name, "xml": docs[name],
                      "tsb": os.path.join(work, f"{name}.tsb")}
                     for name, _ in SERVE_SKETCHES],
            "budget": common.BUDGET_BYTES, "seconds": 0,
            "trace": ctx["trace"], "queries": None,
        }, work, "build")
    with phases("script"):
        locals_ = {name: LocalAnswers(os.path.join(work, f"{name}.tsb"))
                   for name, _ in SERVE_SKETCHES}
        script = serve_script(seed, ctx["requests"], sets, locals_)
    fingerprint["queries_sha1"] = common.sha1_text(all_queries)
    fingerprint["script_sha1"] = common.sha1_text(
        f"{op}\t{name}\t{q}" for op, name, q in script)

    args = ["serve", *[f"{name}={os.path.join(work, name + '.tsb')}"
                       for name, _ in SERVE_SKETCHES],
            "--port", "0", "--cache-size", "256"]
    with phases("setup"):
        daemon, setups, calibrations = start_daemons(args, work, ctx["trace"])
    try:
        with phases("timed"):
            decoded, scaled_wall, slices = _replay_script(
                daemon.port, script, ctx["seconds"])
        stats = call(daemon.port, "stats") if ctx["trace"] else None
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    setup_scale = common.speed_scale(calibrations)
    checks, answers = [], {}
    with phases("checks"):
        for item in decoded:
            if not item["ok"]:
                continue
            name, query = item["meta"]
            problem = check_read(item, locals_[name], query)
            if problem:
                checks.append(f"{name}: {problem}")
            if item["op"] != "expand":
                answers[(name, query)] = item["reply"]["selectivity"]
    metrics, lat_ms = serving_metrics(decoded, scaled_wall, setups,
                                      setup_scale, report, rss)
    result = {
        "metrics": metrics, "decoded": decoded, "checks": checks,
        "fingerprint": fingerprint, "backends": report["backends"],
        "detail": {"setup_samples": setups, "setup_scale": setup_scale,
                   "slices": slices, "requests": len(decoded)},
    }
    if ctx["trace"]:
        from buildbench import build_layer_metrics

        # sel_err: a fixed 200-query sample of the served selectivity
        # queries, scored against exact truth.
        served = sorted(answers)
        rng = random.Random(common.derive_seed(seed, "serve/sample"))
        sample = sorted(rng.sample(served, min(200, len(served))))
        errors = []
        with phases("truth"):
            for name, _ in SERVE_SKETCHES:
                picked = [q for n, q in sample if n == name]
                if picked:
                    truth = common.exact_truths([(docs[name], picked)])[0]
                    errors.append(common.sel_err(
                        truth, [answers[(name, q)] for q in picked]))
        layer = build_layer_metrics(report)
        layer.update(serve_layer_metrics(daemon, stats, decoded))
        layer.update(common.op_latency_layers(lat_ms))
        layer["quality.sel_err"] = sum(errors) / len(errors)
        result["layers"] = layer
    return result


def _replay_script(port: int, script: List[tuple], seconds: float):
    """Replay ``script`` over two connections in ``common.SLICES``
    slices, repeating it until at least ``seconds`` have passed."""
    encoded = []
    for op, name, query in script:
        fields = {"sketch": name, "query": query}
        if op == "expand":
            fields["seed"] = common.EXPAND_SEED
        encoded.append((op, (name, query), fields))
    state = {"next": 0}
    quota = {"left": 0}

    def source():
        if quota["left"] <= 0:
            return None
        quota["left"] -= 1
        index = state["next"]
        state["next"] = index + 1
        op, meta, fields = encoded[index % len(encoded)]
        rid = f"r{index}"
        return rid, op, meta, encode(rid, op, fields)

    def more(elapsed: float) -> bool:
        return state["next"] % len(encoded) != 0 or elapsed < seconds

    lanes = [Lane(port, source), Lane(port, source)]
    try:
        return sliced_loop(lanes, quota, -(-len(encoded) // common.SLICES), more)
    finally:
        for lane in lanes:
            lane.close()


# ------------------------------------------------------------------- live


def _live_oracle(xml_path: str, ops: List[Dict], queries: List[str],
                 final_xml: str) -> Dict:
    """Replay ``ops`` on a local maintainer: the final estimates of
    ``queries``; the final document is written to ``final_xml``."""
    from repro.core.estimate import estimate_selectivity
    from repro.core.evaluate import eval_query
    from repro.core.live import SketchMaintainer
    from repro.query.parser import parse_twig
    from repro.workload.mutations import MutationOp, apply_mutation
    from repro.xmltree.parser import parse_xml_file
    from repro.xmltree.serialize import to_xml

    maintainer = SketchMaintainer(parse_xml_file(xml_path), common.BUDGET_BYTES)
    for op in ops:
        apply_mutation(maintainer, MutationOp.from_json(op))
    sketch = maintainer.snapshot()
    with open(final_xml, "w", encoding="utf-8") as handle:
        handle.write(to_xml(maintainer.tree))
    return {
        "estimates": [estimate_selectivity(eval_query(sketch, parse_twig(q)))
                      for q in queries],
        "remerges": maintainer.remerges,
    }


def _mutation_ops(xml_path: str, count: int, seed: int) -> List[Dict]:
    from repro.workload.mutations import make_mutation_workload
    from repro.xmltree.parser import parse_xml_file

    return [op.to_json() for op in make_mutation_workload(
        parse_xml_file(xml_path), num_ops=count, seed=seed,
        insert_fraction=0.5, max_subtree_nodes=6)]


def run_live(ctx: Dict) -> Dict:
    seed, work, phases = ctx["seed"], ctx["work"], ctx["phases"]
    from buildbench import run_build_child

    with phases("inputs"):
        xml = common.document_xml("SProt-TX", seed, ctx["scale"])
        info = common.document_info(xml, LIVE_READ_QUERIES,
                                    common.derive_seed(seed, "live/queries"))
        queries = info["queries"]
        ops_seed = common.derive_seed(seed, "live/ops")
        key = f"{os.path.basename(xml)}-n{ctx['updates']}-s{ops_seed}"
        ops = common.cached_json("ops", key, lambda: _mutation_ops(
            xml, ctx["updates"], ops_seed))
        final_xml = common.cache_path("oracle", key, ".xml")
        oracle = common.cached_json(
            "oracle", key + "-" + common.sha1_text(queries)[:12],
            lambda: _live_oracle(xml, ops, queries, final_xml))
    with phases("build"):
        report = run_build_child({
            "docs": [{"name": "live", "xml": xml,
                      "tsb": os.path.join(work, "live.tsb")}],
            "budget": common.BUDGET_BYTES, "seconds": ctx["prep_build_s"],
            "trace": ctx["trace"], "queries": None,
        }, work, "build")
    expandable = expand_candidates(
        queries, LocalAnswers(os.path.join(work, "live.tsb")))
    fingerprint = {
        "documents": {"SProt-TX": {k: info[k] for k in
                                   ("elements", "stable_bytes", "density")}},
        "queries_sha1": common.sha1_text(queries),
        "script_sha1": common.sha1_text(json.dumps(op, sort_keys=True)
                                        for op in ops),
    }

    # One connection alternates each update with READS_PER_UPDATE reads,
    # so every seed's run does the same work in the same order.
    reader_rng = random.Random(common.derive_seed(seed, "live/reads"))
    script = []
    for index, op in enumerate(ops):
        rid = f"w{index}"
        script.append((rid, "update", index,
                       encode(rid, "update", dict(op, sketch="live"))))
        for read in range(READS_PER_UPDATE):
            kind = common.pick_mix_op(reader_rng)
            query = reader_rng.choice(expandable if kind == "expand" else queries)
            fields = {"sketch": "live", "query": query}
            if kind == "expand":
                fields["seed"] = common.EXPAND_SEED
            rid = f"q{index}.{read}"
            script.append((rid, kind, ("live", query), encode(rid, kind, fields)))
    state = {"next": 0}
    quota = {"left": 0}

    def source():
        index = state["next"]
        if quota["left"] <= 0 or index >= len(script):
            return None
        quota["left"] -= 1
        state["next"] = index + 1
        return script[index]

    args = ["serve", f"live={xml}", "--live-budget-kb",
            str(common.BUDGET_BYTES / 1024), "--port", "0"]
    with phases("setup"):
        daemon, setups, calibrations = start_daemons(args, work, ctx["trace"])
    try:
        lanes = [Lane(daemon.port, source)]
        try:
            with phases("timed"):
                decoded, scaled_wall, slices = sliced_loop(
                    lanes, quota, -(-len(script) // common.SLICES),
                    lambda _elapsed: state["next"] < len(script))
        finally:
            for lane in lanes:
                lane.close()
        final = [call(daemon.port, "estimate", sketch="live", query=q)
                 for q in queries]
        stats = call(daemon.port, "stats") if ctx["trace"] else None
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    setup_scale = common.speed_scale(calibrations)
    checks = []
    epochs = [item["reply"]["epoch"] for item in decoded
              if item["op"] == "update" and item["ok"]]
    if epochs != list(range(1, len(epochs) + 1)):
        checks.append("update epochs do not rise by exactly one per write")
    final_est = [reply.get("selectivity") for reply in final]
    for query, got, want in zip(queries, final_est, oracle["estimates"]):
        if got != want:
            checks.append(f"final estimate of {query!r}: daemon {got!r} != "
                          f"local replay {want!r}")
    metrics, lat_ms = serving_metrics(decoded, scaled_wall, setups,
                                      setup_scale, report, rss)
    result = {
        "metrics": metrics, "decoded": decoded, "checks": checks,
        "fingerprint": fingerprint, "backends": report["backends"],
        "detail": {"setup_samples": setups, "setup_scale": setup_scale,
                   "slices": slices, "requests": len(decoded),
                   "updates": len(lat_ms.get("update", [])),
                   "update_p50_ms": common.percentile(lat_ms["update"], 50),
                   "update_p99_ms": common.percentile(lat_ms["update"], 99),
                   "oracle_remerges": oracle["remerges"]},
    }
    if ctx["trace"]:
        from buildbench import build_layer_metrics

        # sel_err: the first SEL_ERR_QUERIES read queries after the stream,
        # daemon answers against exact truth on the final document.
        scored = queries[:SEL_ERR_QUERIES]
        with phases("truth"):
            truth = common.exact_truths([(final_xml, scored)])[0]
        layer = build_layer_metrics(report)
        layer.update(serve_layer_metrics(daemon, stats, decoded))
        layer.update(common.op_latency_layers(lat_ms))
        layer["quality.sel_err"] = common.sel_err(truth, final_est[:len(scored)])
        result["layers"] = layer
    return result
