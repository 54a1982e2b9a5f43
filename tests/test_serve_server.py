"""End-to-end tests for the serving daemon: real sockets, real sketches.

Covers the acceptance bar for the serve subsystem: a server loaded with
two sketches answers eval/estimate/health over TCP with results identical
to the in-process functions; under forced queue pressure it degrades
eval to selectivity-only (``degraded: true``) and sheds with structured
``overloaded`` errors, never a hang or a crash, with the ``serve.*``
observability counters pinned.
"""

import contextlib
import json
import socket
import struct
import threading
import time

import pytest

from repro import obs
from repro.core.build import build_treesketch
from repro.core.estimate import estimate_bindings, estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.stable import build_stable
from repro.query.parser import parse_twig
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerError,
    SketchRegistry,
    start_server_thread,
)
from repro.xmltree.tree import XMLTree

QUERIES = ["//a (//p)", "//a[//b] (//p ?)", "//a (//p (//k ?), //n ?)"]


def _tree() -> XMLTree:
    return XMLTree.from_nested(
        (
            "r",
            [
                ("a", [("p", ["k", "k"]), "n"]),
                ("a", [("p", ["k"]), "n", "n"]),
                ("a", [("b", ["t"])]),
            ],
        )
    )


@pytest.fixture(scope="module")
def sketches():
    stable = build_stable(_tree())
    return {
        "lossless": build_treesketch(stable, 100 * 1024),
        "tight": build_treesketch(stable, 220),
    }


@pytest.fixture(scope="module")
def server(sketches):
    registry = SketchRegistry()
    for name, sketch in sketches.items():
        registry.register(name, sketch)
    handle = start_server_thread(registry, ServeConfig(port=0))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    with ServeClient("127.0.0.1", server.port) as client:
        yield client


class TestHappyPath:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert sorted(health["sketches"]) == ["lossless", "tight"]
        assert health["protocol"] == 1

    def test_list_sketches(self, client, sketches):
        listed = {entry["name"]: entry for entry in client.list_sketches()}
        assert set(listed) == {"lossless", "tight"}
        for name, sketch in sketches.items():
            assert listed[name]["nodes"] == sketch.num_nodes
            assert listed[name]["size_bytes"] == sketch.size_bytes()

    def test_estimate_matches_in_process_on_both_sketches(self, client, sketches):
        for name, sketch in sketches.items():
            for text in QUERIES:
                direct = estimate_selectivity(
                    eval_query(sketch, parse_twig(text)))
                assert client.estimate(text, sketch=name) == pytest.approx(direct)

    def test_eval_matches_in_process_on_both_sketches(self, client, sketches):
        for name, sketch in sketches.items():
            for text in QUERIES:
                result = eval_query(sketch, parse_twig(text))
                response = client.eval(text, sketch=name)
                assert response["degraded"] is False
                assert response["sketch"] == name
                assert response["selectivity"] == pytest.approx(
                    estimate_selectivity(result))
                assert response["result"] == {
                    "nodes": result.num_nodes,
                    "edges": result.num_edges,
                    "empty": result.empty,
                }
                assert "q0" in response["bindings"]

    def test_expand_round_trips_xml(self, client):
        from repro.xmltree.parser import parse_xml

        response = client.expand("//a (//p)", sketch="lossless")
        preview = parse_xml(response["xml"])
        assert len(preview) == response["elements"]
        assert preview.root.label == "r"

    def test_pipelined_requests_one_connection(self, client):
        for _ in range(3):
            assert client.health()["status"] == "ok"
            assert client.estimate("//a (//p)", sketch="lossless") >= 0.0

    def test_stats_reports_admission_and_caches(self, client):
        stats = client.stats()
        assert stats["admission"]["depth"] == 0
        names = {entry["name"] for entry in stats["sketches"]}
        assert names == {"lossless", "tight"}


class TestErrorPaths:
    def test_unknown_sketch(self, client):
        response = client.request("estimate", query="//a", sketch="nope")
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown_sketch"
        with pytest.raises(ServerError) as excinfo:
            client.estimate("//a", sketch="nope")
        assert excinfo.value.code == "unknown_sketch"

    def test_ambiguous_sketch_must_be_named(self, client):
        response = client.request("estimate", query="//a")
        assert response["error"]["code"] == "unknown_sketch"

    def test_bad_query(self, client):
        response = client.request("eval", query="((", sketch="lossless")
        assert response["error"]["code"] == "bad_query"

    def test_unknown_op_and_bad_request(self, client):
        assert client.request("frobnicate")["error"]["code"] == "unknown_op"
        response = client.request("eval", sketch="lossless")  # no query
        assert response["error"]["code"] == "bad_request"

    def test_malformed_json_line(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b'{"op": "eval"\n')
            response = json.loads(sock.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_connection_survives_errors(self, client):
        client.request("frobnicate")
        client.request("eval", query="((", sketch="lossless")
        assert client.health()["status"] == "ok"  # same connection, still live


class TestDeadlines:
    def test_deadline_exceeded_is_structured(self, sketches):
        registry = SketchRegistry()
        registry.register("s", sketches["lossless"])
        handle = start_server_thread(
            registry, ServeConfig(port=0, handler_delay_s=0.5))
        try:
            with obs.observed() as metrics:
                with ServeClient("127.0.0.1", handle.port) as client:
                    response = client.request(
                        "eval", query="//a (//p)", deadline_ms=50)
                    assert response["error"]["code"] == "deadline_exceeded"
                    # Control plane is unaffected by data-plane deadlines.
                    assert client.health()["status"] == "ok"
            flat = obs.report.flatten_snapshot(metrics.snapshot())
            assert flat["counters.serve.deadline_exceeded"] == 1
        finally:
            handle.stop()

    def test_abandoned_compute_keeps_its_admission_slot(self, sketches):
        """A deadline abandons the response, not the slot: while the
        worker still grinds on the abandoned request, admission must keep
        shedding -- otherwise sustained timeouts grow the executor queue
        unboundedly behind stuck work."""
        registry = SketchRegistry()
        registry.register("s", sketches["lossless"])
        entry = registry.get("s")
        orig_result = entry.cache.result
        finished = threading.Event()

        def slow_result(query):
            time.sleep(0.75)
            try:
                return orig_result(query)
            finally:
                finished.set()

        entry.cache.result = slow_result
        handle = start_server_thread(
            registry, ServeConfig(port=0, max_pending=1, degrade_watermark=1))
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                response = client.request(
                    "eval", query="//a (//p)", deadline_ms=50)
                assert response["error"]["code"] == "deadline_exceeded"
                # The abandoned computation still holds the only slot.
                probe = client.request("eval", query="//p", deadline_ms=5000)
                assert probe["ok"] is False
                assert probe["error"]["code"] == "overloaded"
                assert finished.wait(10)  # worker eventually completes
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if client.stats()["admission"]["depth"] == 0:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("slot was never released after compute")
                entry.cache.result = orig_result  # back to full speed
                final = client.eval("//a (//p)")
                assert final["degraded"] is False
        finally:
            entry.cache.result = orig_result
            handle.stop()


class TestControlPlaneNonBlocking:
    def test_stats_answers_while_cache_lock_is_held(self, sketches):
        """stats/list_sketches read cache tallies without blocking on the
        single-flight lock a worker holds across a whole eval_query."""
        registry = SketchRegistry()
        registry.register("s", sketches["lossless"])
        cache = registry.get("s").cache
        handle = start_server_thread(registry, ServeConfig(port=0))
        acquired, release = threading.Event(), threading.Event()

        def hold():
            with cache._lock:
                acquired.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        assert acquired.wait(10)
        try:
            with ServeClient("127.0.0.1", handle.port, timeout=5.0) as client:
                stats = client.stats()  # would hang before the fix
                assert stats["ok"] is True
                listed = client.list_sketches()
                assert listed[0]["cache"]["maxsize"] == cache.maxsize
        finally:
            release.set()
            holder.join(10)
            handle.stop()


class TestGracefulDegradation:
    def test_low_watermark_degrades_eval_to_selectivity_only(self, sketches):
        registry = SketchRegistry()
        registry.register("s", sketches["lossless"])
        # degrade_watermark=0 forces every admitted eval onto the cheap path.
        handle = start_server_thread(
            registry, ServeConfig(port=0, degrade_watermark=0))
        try:
            with obs.observed() as metrics:
                with ServeClient("127.0.0.1", handle.port) as client:
                    direct = estimate_selectivity(
                        eval_query(sketches["lossless"], parse_twig("//a (//p)")))
                    # A degraded eval serves cached entries only: before
                    # anything primed the cache it sheds instead of
                    # evaluating (degradation must shed compute).
                    cold = client.request("eval", query="//a (//p)")
                    assert cold["ok"] is False
                    assert cold["error"]["code"] == "overloaded"
                    # estimate is never degraded; it runs fully (and
                    # primes the cache for degraded evals of the hot set)
                    assert client.estimate("//a (//p)") == pytest.approx(direct)
                    response = client.eval("//a (//p)")
                    assert response["degraded"] is True
                    assert response["selectivity"] == pytest.approx(direct)
                    assert "result" not in response  # no full result sketch
                    assert "bindings" not in response
            flat = obs.report.flatten_snapshot(metrics.snapshot())
            assert flat["counters.serve.degraded"] == 1
            assert flat["counters.serve.requests.eval"] == 2
        finally:
            handle.stop()


#: A query the ``fast`` sketch's cache holds (result sketch and
#: selectivity) before the server starts.
CACHED = "//a (//p (//k ?), //n ?)"
#: How long the only worker stays stuck in sketch ``slow``.
STUCK_S = 1.5


class TestCachedAnswersOnTheLoop:
    """Cache hits are answered on the event loop: they never queue behind
    a busy worker, and the loop neither evaluates nor waits for the cache
    lock -- a contended lookup falls back to the pool."""

    @staticmethod
    def _registry(sketches):
        registry = SketchRegistry()
        registry.register("slow", sketches["lossless"])
        registry.register("fast", sketches["tight"])
        fast = registry.get("fast").cache
        fast.result(parse_twig(CACHED))
        fast.selectivity(parse_twig(CACHED))
        return registry

    @staticmethod
    @contextlib.contextmanager
    def _stuck_worker(handle, registry, op):
        """Hold the only worker for STUCK_S in one ``op`` on ``slow``.

        Yields ``(finished, outcome)``: the event set when the stuck
        computation ends, and the dict its reply lands in.
        """
        cache = registry.get("slow").cache
        orig_result = cache.result
        started, finished = threading.Event(), threading.Event()
        outcome = {}

        def slow_result(query):
            started.set()
            time.sleep(STUCK_S)
            try:
                return orig_result(query)
            finally:
                finished.set()

        def occupy():
            with ServeClient("127.0.0.1", handle.port) as client:
                outcome["slow"] = client.request(op, query="//a (//p)",
                                                 sketch="slow")

        cache.result = slow_result
        thread = threading.Thread(target=occupy)
        thread.start()
        try:
            assert started.wait(10), "the slow request never reached a worker"
            yield finished, outcome
        finally:
            thread.join(10)
            cache.result = orig_result
        assert not thread.is_alive()

    def test_cached_reads_answer_while_the_worker_is_busy(self, sketches):
        registry = self._registry(sketches)
        handle = start_server_thread(registry, ServeConfig(port=0, workers=1))
        try:
            with self._stuck_worker(handle, registry, "eval") as (finished,
                                                                  outcome):
                with ServeClient("127.0.0.1", handle.port) as client:
                    estimate = client.estimate(CACHED, sketch="fast")
                    response = client.eval(CACHED, sketch="fast")
                # Neither queued behind the stuck job.
                assert not finished.is_set()
            assert outcome["slow"]["ok"] is True
        finally:
            handle.stop()
        result = eval_query(sketches["tight"], parse_twig(CACHED))
        assert estimate == estimate_selectivity(result)
        assert response["degraded"] is False
        assert response["selectivity"] == estimate_selectivity(result)
        assert response["result"] == {
            "nodes": result.num_nodes,
            "edges": result.num_edges,
            "empty": result.empty,
        }
        assert response["bindings"] == estimate_bindings(result)

    def test_degraded_eval_answers_while_the_worker_is_busy(self, sketches):
        registry = self._registry(sketches)
        handle = start_server_thread(
            registry, ServeConfig(port=0, workers=1, degrade_watermark=0))
        try:
            # Every eval is degraded here, so the worker is held by an
            # expand (never degraded) instead.
            with self._stuck_worker(handle, registry, "expand") as (finished,
                                                                    outcome):
                with obs.observed() as metrics:
                    with ServeClient("127.0.0.1", handle.port) as client:
                        response = client.eval(CACHED, sketch="fast")
                assert not finished.is_set()
            assert outcome["slow"]["ok"] is True
        finally:
            handle.stop()
        result = eval_query(sketches["tight"], parse_twig(CACHED))
        assert response["degraded"] is True
        assert response["selectivity"] == estimate_selectivity(result)
        assert "result" not in response
        counters = metrics.snapshot()["counters"]
        assert counters["serve.degraded"] == 1
        assert counters["serve.cached_answers"] == 1

    def test_a_contended_cache_lock_falls_back_to_the_pool(self, sketches):
        registry = self._registry(sketches)
        cache = registry.get("fast").cache
        acquired, release = threading.Event(), threading.Event()
        outcome = {}

        def hold():
            with cache._lock:
                acquired.set()
                release.wait(10)

        def ask():
            with ServeClient("127.0.0.1", handle.port) as client:
                outcome["estimate"] = client.estimate(CACHED, sketch="fast")

        holder = threading.Thread(target=hold)
        asker = threading.Thread(target=ask)
        with obs.observed() as metrics:
            handle = start_server_thread(registry,
                                         ServeConfig(port=0, workers=1))
            holder.start()
            try:
                assert acquired.wait(10)
                with ServeClient("127.0.0.1", handle.port,
                                 timeout=5.0) as client:
                    asker.start()
                    deadline = time.monotonic() + 5.0
                    while client.stats()["admission"]["depth"] < 1:
                        assert time.monotonic() < deadline, \
                            "the estimate was never admitted"
                        time.sleep(0.01)
                    # The loop declined the lookup instead of waiting for
                    # the lock, so the control plane answers at once while
                    # the estimate waits on the pool.
                    started = time.monotonic()
                    assert client.health()["status"] == "ok"
                    assert time.monotonic() - started < 1.0
                    assert asker.is_alive()
            finally:
                release.set()
                holder.join(10)
                if asker.ident is not None:
                    asker.join(10)
                handle.stop()
            counters = metrics.snapshot()["counters"]
        assert not holder.is_alive() and not asker.is_alive()
        result = eval_query(sketches["tight"], parse_twig(CACHED))
        assert outcome["estimate"] == estimate_selectivity(result)
        assert "serve.cached_answers" not in counters


class TestLoadShedding:
    def test_overloaded_is_shed_not_hung(self, sketches):
        registry = SketchRegistry()
        registry.register("s", sketches["lossless"])
        # One admission slot, held for a while by a slow request.
        handle = start_server_thread(
            registry,
            ServeConfig(port=0, max_pending=1, degrade_watermark=1,
                        handler_delay_s=1.0),
        )
        slow = probe = None
        try:
            with obs.observed() as metrics:
                slow = ServeClient("127.0.0.1", handle.port)
                probe = ServeClient("127.0.0.1", handle.port)
                outcome = {}

                def occupy():
                    outcome["slow"] = slow.request("eval", query="//a (//p)")

                thread = threading.Thread(target=occupy)
                thread.start()
                # stats bypasses admission: poll until the slow request holds
                # the only slot, then the next data-plane request must shed.
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if probe.stats()["admission"]["depth"] >= 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("slow request was never admitted")
                response = probe.request("eval", query="//a (//p)")
                assert response["ok"] is False
                assert response["error"]["code"] == "overloaded"
                assert "retry" in response["error"]["message"]
                # health still answers instantly while the queue is full
                assert probe.health()["status"] == "ok"
                thread.join(timeout=10)
                assert outcome["slow"]["ok"] is True  # admitted one completed
            flat = obs.report.flatten_snapshot(metrics.snapshot())
            assert flat["counters.serve.shed"] == 1
            assert flat["gauges.serve.queue.depth"] == 0
        finally:
            if slow is not None:
                slow.close()
            if probe is not None:
                probe.close()
            handle.stop()


class TestConcurrentClients:
    def test_concurrent_estimates_bitwise_equal_to_scalar(self, sketches):
        """Six clients released together race the same twigs: misses run
        on the pool, repeats come from the cache on the loop, and every
        answer is bitwise the local scalar estimate."""
        sketch = sketches["tight"]  # lossy: non-trivial float estimates
        truth = [
            struct.pack("<d", estimate_selectivity(
                eval_query(sketch, parse_twig(query))))
            for query in QUERIES
        ]
        clients = 6
        barrier = threading.Barrier(clients)
        results, errors = {}, []

        def fire(i):
            try:
                with ServeClient("127.0.0.1", handle.port,
                                 retries=5) as client:
                    barrier.wait(timeout=10)
                    results[i] = [client.estimate(query)
                                  for query in QUERIES]
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=fire, args=(i,))
                   for i in range(clients)]
        with obs.observed() as metrics:
            registry = SketchRegistry()
            registry.register("x", sketch)
            handle = start_server_thread(registry, ServeConfig(port=0))
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
            finally:
                handle.stop()
            counters = metrics.snapshot()["counters"]
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(results) == clients
        for answers in results.values():
            assert [struct.pack("<d", value) for value in answers] == truth
        assert counters.get("serve.errors", 0) == 0
        assert counters["serve.requests.estimate"] == clients * len(QUERIES)


class TestWorkloadReplay:
    def test_cli_workload_against_server(self, tmp_path, capsys):
        from repro.cli import main
        from repro.xmltree.serialize import to_xml

        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(to_xml(_tree()))
        registry = SketchRegistry()
        # The server pins the same sketch the local workload run would build.
        stable = build_stable(_tree())
        registry.register("doc", build_treesketch(stable, 10 * 1024))
        handle = start_server_thread(registry, ServeConfig(port=0))
        try:
            code = main([
                "workload", str(xml_path),
                "--server", f"127.0.0.1:{handle.port}",
                "--queries", "5",
            ])
        finally:
            handle.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert f"served by 127.0.0.1:{handle.port}" in out
        assert "avg selectivity error" in out

    def test_runner_remote_matches_local(self, sketches):
        from repro.workload.runner import run_selectivity, run_selectivity_remote
        from repro.workload.workload import make_workload

        tree = _tree()
        workload = make_workload(tree, num_queries=6, seed=3,
                                 stable=build_stable(tree))
        local = run_selectivity(sketches["lossless"], workload)
        registry = SketchRegistry()
        registry.register("s", sketches["lossless"])
        handle = start_server_thread(registry, ServeConfig(port=0))
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                remote = run_selectivity_remote(client, workload, sketch="s")
        finally:
            handle.stop()
        assert remote.per_query == pytest.approx(local.per_query)

    def test_cli_workload_bad_server_address(self, tmp_path, capsys):
        from repro.cli import main
        from repro.xmltree.serialize import to_xml

        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(to_xml(_tree()))
        assert main(["workload", str(xml_path), "--server", "nope"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
