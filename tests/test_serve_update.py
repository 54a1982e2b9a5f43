"""End-to-end tests for the ``update`` op: live sketches over the wire.

The consistency bar the serving tier signs up for (docs/MAINTENANCE.md):
after an ``update`` response is on the wire, **no request may ever be
answered from a pre-mutation cache entry** -- the mutation epoch bump in
:meth:`repro.serve.registry.LiveSketch.update` is the barrier.  These
tests drive it over real sockets against a single in-process daemon, and
through a real supervisor-forked fleet with the live sketch owned by one
shard; plus the protocol validation, the error mapping (``bad_request``
for unresolvable addresses, ``immutable_sketch`` for frozen entries), and
the periodic cache-checkpoint timer.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.build import build_treesketch
from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.io import save_synopsis
from repro.core.live import SketchMaintainer
from repro.core.stable import build_stable
from repro.query.parser import parse_twig
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerError,
    SketchRegistry,
    start_server_thread,
)
from repro.serve.client import PooledClient
from repro.serve.protocol import ProtocolError, parse_request
from repro.serve.registry import LiveSketch
from repro.workload.mutations import MutationOp, load_ops
from repro.xmltree.serialize import to_xml
from repro.xmltree.tree import XMLTree

pytestmark = pytest.mark.obs

LIVE_BUDGET = 64 * 1024


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


@pytest.fixture
def server():
    """A fresh daemon per test: one live sketch, one frozen sketch."""
    registry = SketchRegistry()
    registry.register_live("live", SketchMaintainer(_tree(), LIVE_BUDGET))
    registry.register("frozen", build_treesketch(build_stable(_tree()), 4096))
    handle = start_server_thread(registry, ServeConfig(port=0))
    try:
        yield registry, handle
    finally:
        handle.stop()


@pytest.fixture
def client(server):
    _, handle = server
    with ServeClient("127.0.0.1", handle.port) as client:
        yield client


def _truth(sketch, text: str) -> float:
    return estimate_selectivity(eval_query(sketch, parse_twig(text)))


def _nested(depth: int):
    """A one-path subtree spec whose deepest label is ``depth`` levels
    below its root."""
    spec = "leaf"
    for _ in range(depth):
        spec = ["p", [spec]]
    return spec


#: Update ops every entry point must reject, as the fields a request
#: carries (everything but ``op``).
INVALID_OPS = [
    {},                                                    # no action
    {"action": "replace"},                                 # unknown action
    {"action": "insert_subtree"},                          # no parent/subtree
    {"action": "insert_subtree", "parent_label": "a",
     "subtree": ["p"]},                                    # malformed spec
    {"action": "insert_subtree", "parent_label": "a", "subtree": "x",
     "parent_ordinal": -1},                                # negative ordinal
    {"action": "insert_subtree", "parent_label": "a", "subtree": "x",
     "parent_ordinal": True},                              # bool is not int
    {"action": "delete_subtree"},                          # no label
    {"action": "delete_subtree", "label": "", "ordinal": 0},  # empty label
    {"action": "insert_subtree", "parent_label": "a"},     # no subtree
    {"action": "insert_subtree", "parent_label": "a",
     "subtree": 5},                                        # not a spec
    {"action": "insert_subtree", "parent_label": "a",
     "subtree": ["p", "k"]},                               # children not a list
    {"action": "insert_subtree", "parent_label": "a",
     "subtree": ["p", [""]]},                              # empty child label
    {"action": "insert_subtree", "parent_label": "a",
     "subtree": _nested(65)},                              # nests 65 deep
    {"action": "insert_subtree", "parent_label": "a", "subtree": "x",
     "parent_ordinal": 2.7},                               # float ordinal
    {"action": "delete_subtree", "label": 7},              # label not a string
    {"action": "delete_subtree", "label": "n", "ordinal": True},
    {"action": "delete_subtree", "label": "n", "ordinal": 1.0},
    {"action": "delete_subtree", "label": "n", "ordinal": "2"},
    {"action": "delete_subtree", "label": "n", "ordinal": None},
]


class TestProtocolValidation:
    def test_valid_insert_and_delete_parse(self):
        insert = parse_request(json.dumps({
            "op": "update", "sketch": "live", "action": "insert_subtree",
            "parent_label": "a", "parent_ordinal": 1,
            "subtree": ["p", ["k", ["q", []]]]}))
        assert insert["action"] == "insert_subtree"
        delete = parse_request(json.dumps({
            "op": "update", "action": "delete_subtree",
            "label": "n", "ordinal": 2}))
        assert delete["label"] == "n"

    def test_valid_op_with_extra_keys_is_accepted(self):
        """Keys that are not the action's fields are ignored, on the wire
        and in a script line alike."""
        doc = {"op": "update", "id": 3, "sketch": "live",
               "action": "delete_subtree", "label": "n", "ordinal": 2,
               "parent_ordinal": -1, "note": "ignored"}
        op = MutationOp(action="delete_subtree", label="n", ordinal=2)
        assert parse_request(json.dumps(doc))["mutation"] == op
        assert MutationOp.from_json(doc) == op
        assert load_ops(json.dumps(doc)) == [op]

    @pytest.mark.parametrize("request_doc", INVALID_OPS)
    def test_invalid_updates_rejected(self, request_doc):
        """One table, four doors: the wire, the constructor, the JSON
        mapping and a script line reject the same ops."""
        with pytest.raises(ProtocolError) as excinfo:
            parse_request(json.dumps({"op": "update", **request_doc}))
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ValueError):
            MutationOp(**{"action": None, **request_doc})  # None: no action
        with pytest.raises(ValueError):
            MutationOp.from_json(request_doc)
        with pytest.raises(ValueError):
            load_ops(json.dumps(request_doc))

    def test_subtree_nesting_limit(self):
        """A spec may nest 64 levels below its root, not 65."""
        assert MutationOp(action="insert_subtree", parent_label="a",
                          subtree=_nested(64))
        with pytest.raises(ValueError, match="nests too deeply"):
            MutationOp(action="insert_subtree", parent_label="a",
                       subtree=_nested(65))


class TestAddressing:
    @pytest.mark.parametrize("action, fields, address", [
        ("insert_subtree", {"parent_label": "a", "parent_ordinal": 2,
                            "subtree": "k"}, ("a", 2)),
        ("delete_subtree", {"label": "n", "ordinal": 2}, ("n", 2)),
    ])
    def test_update_resolves_its_address_once(self, monkeypatch, action,
                                              fields, address):
        """One ``find_labeled`` call per update, on the maintainer.  The
        registry looks the name up in ``repro.core.live`` at call time,
        which is what lets a layer timer patch it."""
        from repro.core import live

        entry = SketchRegistry().register_live(
            "live", SketchMaintainer(_tree(), LIVE_BUDGET))
        calls = []
        original = live.find_labeled

        def counting(maintainer, label, ordinal=0):
            calls.append((maintainer, label, ordinal))
            return original(maintainer, label, ordinal)

        monkeypatch.setattr(live, "find_labeled", counting)
        entry.update(MutationOp(action, **fields))
        assert calls == [(entry.maintainer, *address)]


class TestSingleServer:
    def test_update_never_serves_a_stale_answer(self, server, client):
        registry, _ = server
        entry = registry.get("live")
        query = "//a (//p (//k ?))"
        stale_sketch = entry.sketch
        before = client.estimate(query, sketch="live")
        assert before == _truth(stale_sketch, query)
        assert client.estimate(query, sketch="live") == before

        response = client.update(
            "insert_subtree", sketch="live", parent_label="a",
            parent_ordinal=2, subtree=["p", ["k", "k", "k"]])
        assert response["epoch"] == 1 and response["mutations"] == 1

        after = client.estimate(query, sketch="live")
        assert after == _truth(entry.sketch, query)
        assert after != before  # three new k's must move the estimate
        assert before == _truth(stale_sketch, query)  # truly was an epoch flip

    def test_delete_then_insert_epochs_accumulate(self, server, client):
        registry, _ = server
        first = client.update("delete_subtree", sketch="live",
                              label="n", ordinal=2)
        assert first["epoch"] == 1
        second = client.update("insert_subtree", sketch="live",
                               parent_label="r", subtree="n")
        assert second["epoch"] == 2 and second["mutations"] == 2
        entry = registry.get("live")
        assert entry.cache.epoch == 2
        assert isinstance(entry, LiveSketch)

    def test_frozen_sketch_is_immutable(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.update("insert_subtree", sketch="frozen",
                          parent_label="a", subtree="k")
        assert excinfo.value.code == "immutable_sketch"

    def test_unresolvable_addresses_are_bad_requests(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.update("insert_subtree", sketch="live",
                          parent_label="zz", subtree="k")
        assert excinfo.value.code == "bad_request"
        with pytest.raises(ServerError) as excinfo:
            client.update("delete_subtree", sketch="live",
                          label="a", ordinal=99)
        assert excinfo.value.code == "bad_request"
        # Deleting the document root is invalid, not a crash.
        with pytest.raises(ServerError) as excinfo:
            client.update("delete_subtree", sketch="live",
                          label="r", ordinal=0)
        assert excinfo.value.code == "bad_request"

    def test_list_sketches_reports_live_metadata(self, client):
        client.update("insert_subtree", sketch="live",
                      parent_label="r", subtree="n")
        described = {doc["name"]: doc for doc in client.list_sketches()}
        live = described["live"]
        assert live["live"] is True
        assert live["epoch"] == 1 and live["mutations"] == 1
        assert "debt" in live and "remerges" in live
        frozen = described["frozen"]
        assert frozen["live"] is False and "epoch" not in frozen

    def test_deadline_abandons_the_reply_not_the_mutation(
            self, client, monkeypatch):
        """An update past its deadline is answered ``deadline_exceeded``
        at once, keeps its admission slot until the worker finishes, and
        still applies."""
        original = LiveSketch.update
        slept = threading.Event()

        def slow_update(self, *args, **kwargs):
            time.sleep(0.5)
            slept.set()
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LiveSketch, "update", slow_update)
        response = client.request(
            "update", sketch="live", action="insert_subtree",
            parent_label="r", subtree="n", deadline_ms=50)
        assert response["ok"] is False
        assert response["error"]["code"] == "deadline_exceeded"
        assert "check the epoch" in response["error"]["message"]
        deadline = time.monotonic() + 10.0
        mid_sleep_reads = 0
        while True:
            depth = client.stats()["admission"]["depth"]
            if slept.is_set():
                break
            assert depth == 1  # read mid-sleep: the slot is still held
            assert time.monotonic() < deadline, "the update never ran"
            mid_sleep_reads += 1
            time.sleep(0.02)
        assert mid_sleep_reads >= 1
        deadline = time.monotonic() + 5.0
        while client.stats()["admission"]["depth"] != 0:
            assert time.monotonic() < deadline, "slot never released"
            time.sleep(0.01)
        described = {doc["name"]: doc for doc in client.list_sketches()}
        assert described["live"]["epoch"] == 1

    def test_served_sketch_is_the_cache_binding(self, server, client):
        """``entry.sketch`` is read from the cache, so the sketch an entry
        serves and the epoch it is cached under change in one step."""
        registry, _ = server
        entry = registry.get("live")
        before = entry.sketch
        client.update("insert_subtree", sketch="live",
                      parent_label="r", subtree="n")
        assert entry.sketch is entry.cache.sketch
        assert entry.sketch is not before
        frozen = registry.get("frozen")
        assert frozen.sketch is frozen.cache.sketch


class TestCheckpointTimer:
    def test_sidecar_written_periodically(self, tmp_path):
        """With --cache-checkpoint-s the warm state reaches the sidecar
        while the daemon is still running, not only on graceful stop."""
        path = str(tmp_path / "ckpt.tsb")
        save_synopsis(build_treesketch(build_stable(_tree()), 4096), path)
        registry = SketchRegistry()
        registry.load(path)
        handle = start_server_thread(
            registry, ServeConfig(port=0, cache_checkpoint_s=0.2))
        sidecar = path + ".cache"
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.estimate("//a (//p)", sketch="ckpt")
            deadline = time.monotonic() + 20
            while not os.path.exists(sidecar):
                assert time.monotonic() < deadline, "no checkpoint sidecar"
                time.sleep(0.05)
        finally:
            handle.stop()
        with open(sidecar) as stream:
            doc = json.load(stream)
        assert doc["selectivities"]


# ---------------------------------------------------------------------------
# Fleet end-to-end: the live sketch lives on exactly one shard.
# ---------------------------------------------------------------------------

_CONTROL_RE = re.compile(r"control on ([\d.]+):(\d+) \(protocol")


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_fleet(specs, *extra, workers=2):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *specs,
         "--port", "0", "--workers", str(workers), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env())
    log = []
    deadline = time.monotonic() + 90
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        log.append(line)
        match = _CONTROL_RE.search(line)
        if match:
            drain = threading.Thread(
                target=lambda: log.extend(iter(proc.stdout.readline, "")),
                daemon=True)
            drain.start()
            return proc, (match.group(1), int(match.group(2))), log, drain
    proc.kill()
    raise AssertionError(
        "fleet did not report readiness in time:\n" + "".join(log))


def _stop_fleet(proc, drain):
    """Stop the fleet, let the drain thread read to EOF, close the pipe."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(10)
    drain.join(10)
    assert not drain.is_alive()
    proc.stdout.close()


class TestFleetUpdate:
    def test_pooled_update_routes_to_owning_shard(self, tmp_path):
        xml_path = tmp_path / "doc.xml"
        xml_path.write_text(to_xml(_tree()))
        frozen_path = tmp_path / "frozen.json"
        save_synopsis(build_treesketch(build_stable(_tree()), 4096),
                      str(frozen_path))
        specs = [f"live={xml_path}", f"frozen={frozen_path}"]
        query = "//a (//p (//k ?))"

        # In-process truth: the same document, budget, and edit sequence.
        oracle = SketchMaintainer(_tree(), LIVE_BUDGET)
        before_truth = _truth(oracle.snapshot(), query)
        parent = [n for n in oracle.tree.root.iter_preorder()
                  if n.label == "a"][2]
        oracle.insert_subtree(parent, ("p", ["k", "k", "k"]))
        after_truth = _truth(oracle.snapshot(), query)
        assert after_truth != before_truth

        proc, control, _log, drain = _spawn_fleet(
            specs, "--live-budget-kb", str(LIVE_BUDGET / 1024))
        try:
            with PooledClient(*control) as pool:
                assert pool.estimate(query, sketch="live") == before_truth
                response = pool.update(
                    "insert_subtree", sketch="live", parent_label="a",
                    parent_ordinal=2, subtree=["p", ["k", "k", "k"]])
                assert response["epoch"] == 1
                assert pool.estimate(query, sketch="live") == after_truth
                # The frozen shard still refuses mutations through the pool.
                with pytest.raises(ServerError) as excinfo:
                    pool.update("insert_subtree", sketch="frozen",
                                parent_label="a", subtree="k")
                assert excinfo.value.code == "immutable_sketch"
                described = {doc["name"]: doc
                             for doc in pool.call("list_sketches",
                                                  sketch="live")["sketches"]}
                assert described["live"]["epoch"] == 1
        finally:
            _stop_fleet(proc, drain)
