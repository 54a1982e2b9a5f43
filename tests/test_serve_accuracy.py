"""The accuracy observability plane, end to end over real sockets.

Covers the serving-tier half of the accuracy-plane PR: the ``explain``
op returns an additive error-provenance payload whose contribution terms
fold (left-associated) bitwise to the plain estimate; an error budget
(``ServeConfig.error_budget``) routes shadow-scored samples into the
:class:`repro.obs.accuracy.AccuracyLedger` and surfaces budget states
through ``stats``/``/statusz``/``/metrics``; queued shadow samples that
predate a mutation epoch are dropped as stale (never scored against the
post-mutation synopsis); and with ``adaptive_maintenance`` the measured
burn rate tightens a live sketch's ``debt_threshold`` through its
:class:`repro.core.live.DebtController`.
"""

import threading
import time

import pytest

from repro import obs
from repro.core.build import build_treesketch
from repro.core.live import LiveOptions, SketchMaintainer
from repro.core.stable import build_stable
from repro.datagen import sprot_like
from repro.engine.exact import ExactEvaluator
from repro.obs.accuracy import STATE_BURNING, STATE_OK
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerError,
    SketchRegistry,
    start_server_thread,
)
from repro.serve.registry import LiveSketch
from repro.workload.mutations import apply_mutation, make_mutation_workload
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


def _registry() -> SketchRegistry:
    registry = SketchRegistry()
    registry.register("main", build_treesketch(build_stable(_tree()),
                                               100 * 1024))
    return registry


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def _fold(terms):
    total = 0.0
    for _, term in terms:
        total += term
    return total


# --------------------------------------------------------------- explain op


class TestExplainOp:

    def test_explain_matches_estimate_bitwise(self):
        handle = start_server_thread(_registry(), ServeConfig(port=0))
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                for twig in ["//a", "//a (//p)", "//a[//b]", "//a (//p (//k))"]:
                    estimate = client.estimate(twig)
                    payload = client.explain(twig)
                    assert payload["sketch"] == "main"
                    assert payload["estimate"] == estimate
                    terms = [(c["cluster"], c["term"])
                             for c in payload["contributions"]]
                    assert _fold(terms) == estimate
                    assert payload["touched"] >= 1
                    assert payload["epoch"] == 0
                    assert isinstance(payload["exact_split"], bool)
                    # Frozen sketch, no budget: no debt, no budget state.
                    for report in payload["clusters"]:
                        assert report["debt"] == 0.0
                    assert "budget_state" not in payload
        finally:
            handle.stop()

    def test_top_k_truncates_cluster_reports(self):
        handle = start_server_thread(_registry(), ServeConfig(port=0))
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                full = client.explain("//a (//p (//k))")
                one = client.explain("//a (//p (//k))", top_k=1)
            assert len(full["clusters"]) > 1
            assert len(one["clusters"]) == 1
            # Truncation keeps the top-ranked report.
            assert one["clusters"][0] == full["clusters"][0]
        finally:
            handle.stop()

    def test_bad_top_k_is_a_bad_request(self):
        handle = start_server_thread(_registry(), ServeConfig(port=0))
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                for bad in [0, -3, "five", True]:
                    with pytest.raises(ServerError) as excinfo:
                        client.call("explain", query="//a", top_k=bad)
                    assert excinfo.value.code == "bad_request"
        finally:
            handle.stop()

    def test_unknown_sketch(self):
        handle = start_server_thread(_registry(), ServeConfig(port=0))
        try:
            with ServeClient("127.0.0.1", handle.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.explain("//a", sketch="nope")
                assert excinfo.value.code == "unknown_sketch"
        finally:
            handle.stop()


# ------------------------------------------------------------ error budgets


class TestErrorBudget:

    def test_budget_requires_nothing_extra_when_unset(self):
        handle = start_server_thread(_registry(), ServeConfig(port=0))
        try:
            assert handle.server.ledger is None
            assert handle.server.statusz()["budgets"] is None
        finally:
            handle.stop()

    def test_burning_budget_surfaces_everywhere(self):
        """A reference that contradicts the sketch by 100x drives the
        ledger to ``burning``; the state shows up in stats, /statusz,
        the explain payload, and the one-hot /metrics gauges."""
        with obs.observed() as registry:
            handle = start_server_thread(_registry(), ServeConfig(
                port=0,
                shadow_fraction=1.0,
                shadow_reference=lambda q: 1000.0,
                error_budget=0.25,
                error_budget_window=8,
            ))
            try:
                server = handle.server
                with ServeClient("127.0.0.1", handle.port) as client:
                    for _ in range(3):
                        client.estimate("//a")
                    _wait_until(
                        lambda: server.ledger.state("main") == STATE_BURNING,
                        message="budget to burn")
                    stats = client.stats()
                    payload = client.explain("//a")
                status = server.statusz()
            finally:
                handle.stop()
            snapshot = registry.snapshot()
        assert stats["budgets"]["sketches"]["main"]["state"] == STATE_BURNING
        assert status["budgets"]["target_rel_error"] == 0.25
        assert status["budgets"]["sketches"]["main"]["burn_rate"] > 1.0
        assert payload["budget_state"] == STATE_BURNING
        assert payload["burn_rate"] > 1.0
        assert snapshot["gauges"]["serve.accuracy.budget_state.burning"] == 1
        assert snapshot["gauges"]["serve.accuracy.budget_state.ok"] == 0
        assert snapshot["counters"]["serve.accuracy.budget_transitions"] >= 1
        assert snapshot["counters"]["serve.explains"] == 1

    def test_accurate_serving_stays_ok(self):
        evaluator = ExactEvaluator(_tree())
        handle = start_server_thread(_registry(), ServeConfig(
            port=0,
            shadow_fraction=1.0,
            shadow_reference=lambda q: float(evaluator.selectivity(q)),
            error_budget=0.25,
        ))
        try:
            server = handle.server
            with ServeClient("127.0.0.1", handle.port) as client:
                for twig in ["//a", "//a (//p)", "//a[//b]"]:
                    client.estimate(twig)
                _wait_until(lambda: server.shadow.evaluated_total == 3,
                            message="shadow evaluations")
            assert server.ledger.state("main") == STATE_OK
            assert server.ledger.burn_rate("main") == 0.0
        finally:
            handle.stop()


# ---------------------------------------------------- stale shadow samples


class TestStaleSamples:

    def test_samples_queued_before_a_mutation_are_dropped(self):
        """Satellite 1: a shadow sample enqueued at epoch 0 must not be
        scored after an ``update`` bumps the live sketch to epoch 1.
        ``shadow_eval_delay_s`` holds the drain thread long enough for
        the mutation to land first, making the race deterministic."""
        registry = SketchRegistry()
        registry.register_live("live", SketchMaintainer(_tree(), LIVE_BUDGET))
        with obs.observed() as metrics:
            handle = start_server_thread(registry, ServeConfig(
                port=0,
                shadow_fraction=1.0,
                shadow_reference=lambda q: 1.0,
                shadow_eval_delay_s=0.4,
                error_budget=0.25,
            ))
            try:
                server = handle.server
                with ServeClient("127.0.0.1", handle.port) as client:
                    client.estimate("//a", sketch="live")  # queued @ epoch 0
                    response = client.update(
                        "insert_subtree", sketch="live", parent_label="r",
                        subtree=["a", [["p", ["k"]]]])
                    assert response["epoch"] == 1
                    _wait_until(
                        lambda: server.shadow.stale_dropped_total >= 1,
                        message="stale shadow drop")
                    # The stale sample never reached the ledger.
                    assert server.ledger.info()["sketches"]["live"][
                        "samples"] == 0
                    # Post-mutation samples score normally.
                    client.estimate("//a", sketch="live")
                    _wait_until(
                        lambda: server.ledger.info()["sketches"]["live"][
                            "samples"] == 1,
                        message="fresh sample scored")
                info = server.shadow.info()
            finally:
                handle.stop()
            snapshot = metrics.snapshot()
        assert info["stale_dropped"] == 1
        assert snapshot["counters"]["serve.accuracy.stale_dropped"] == 1

    def test_samples_carry_the_epoch_their_answer_was_read_under(self):
        """An update landing between an answer and its shadow offer must
        not tag the pre-mutation answer with the post-mutation epoch.
        The estimator here invalidates the cache right after computing,
        as if an update ran on the worker at exactly that moment."""
        registry = SketchRegistry()
        registry.register_live("live", SketchMaintainer(_tree(), LIVE_BUDGET))
        cache = registry.get("live").cache
        scalar = cache.selectivity

        def scalar_then_invalidate(query):
            value = scalar(query)
            cache.invalidate()
            return value

        cache.selectivity = scalar_then_invalidate
        handle = start_server_thread(registry, ServeConfig(
            port=0, shadow_fraction=1.0, shadow_reference=lambda q: 1.0))
        try:
            shadow = handle.server.shadow
            offer, epochs = shadow.offer, []

            def recording_offer(sketch, query, estimate, cache=None,
                                epoch=None):
                epochs.append(epoch)
                return offer(sketch, query, estimate, cache=cache,
                             epoch=epoch)

            shadow.offer = recording_offer
            with ServeClient("127.0.0.1", handle.port) as client:
                client.estimate("//a", sketch="live")
                client.eval("//a", sketch="live")
        finally:
            handle.stop()
        assert epochs == [0, 1]

    def _scored_or_stale(self, registry, bump):
        """Queue one shadow sample of ``//a`` on ``live``, run ``bump``
        while the drain thread holds it, and return the sampler's info."""
        handle = start_server_thread(registry, ServeConfig(
            port=0, shadow_fraction=1.0, shadow_reference=lambda q: 1.0,
            shadow_eval_delay_s=0.4))
        try:
            shadow = handle.server.shadow
            with ServeClient("127.0.0.1", handle.port) as client:
                client.estimate("//a", sketch="live")  # queued @ epoch 0
            bump()
            _wait_until(lambda: shadow.evaluated_total
                        + shadow.stale_dropped_total == 1,
                        message="the queued sample to be drained")
            return shadow.info()
        finally:
            handle.stop()

    def test_any_epoch_bump_makes_a_queued_sample_stale(self):
        """The sampler reads the entry's cache epoch itself: a bump that
        no server code path relays (a plain ``invalidate``) still drops
        the sample."""
        registry = SketchRegistry()
        registry.register_live("live", SketchMaintainer(_tree(), LIVE_BUDGET))
        info = self._scored_or_stale(
            registry, lambda: registry.get("live").cache.invalidate())
        assert (info["stale_dropped"], info["evaluated"]) == (1, 0)

    def test_a_forced_remerge_makes_a_queued_sample_stale(self):
        """An adaptive re-merge publishes a new snapshot through the same
        barrier as an update, so the served sketch is the cache's and a
        sample queued before it is dropped."""
        tree = sprot_like(scale=0.3, seed=1)
        ops = make_mutation_workload(tree, num_ops=30, seed=1)
        maintainer = SketchMaintainer(
            tree, 4 * 1024, options=LiveOptions(auto_remerge=False))
        for op in ops:
            apply_mutation(maintainer, op)
        # One tightening (x0.25) puts the largest debt over the bar.
        assert maintainer.max_debt() > 0
        maintainer.options.debt_threshold = 2 * maintainer.max_debt()
        maintainer.enable_adaptive(target_rel_error=0.25, min_samples=1)
        registry = SketchRegistry()
        entry = registry.register_live("live", maintainer)
        before = entry.sketch

        def burn():
            entry.observe_error(1000.0)
            assert maintainer.remerges == 1

        info = self._scored_or_stale(registry, burn)
        assert (info["stale_dropped"], info["evaluated"]) == (1, 0)
        assert entry.cache.epoch == 1
        assert entry.sketch is entry.cache.sketch
        assert entry.sketch is not before


# ------------------------------------------------- adaptive maintenance


class TestAdaptiveMaintenance:

    def test_burning_budget_tightens_the_live_debt_threshold(self):
        """With ``adaptive_maintenance``, sustained measured drift makes
        the DebtController cut ``debt_threshold`` and force a re-merge;
        the snapshot refresh bumps the cache epoch like a mutation."""
        registry = SketchRegistry()
        registry.register_live("live", SketchMaintainer(_tree(), LIVE_BUDGET))
        entry = registry.get("live")
        assert isinstance(entry, LiveSketch)
        base = entry.maintainer.options.debt_threshold
        handle = start_server_thread(registry, ServeConfig(
            port=0,
            shadow_fraction=1.0,
            shadow_reference=lambda q: 1000.0,
            error_budget=0.25,
            error_budget_window=8,
            adaptive_maintenance=True,
        ))
        try:
            server = handle.server
            controller = entry.maintainer.adaptive
            assert controller is not None
            assert controller.target_rel_error == 0.25
            with ServeClient("127.0.0.1", handle.port) as client:
                for _ in range(2 * controller.min_samples):
                    client.estimate("//a", sketch="live")
                _wait_until(lambda: controller.tightened >= 1,
                            message="adaptive tighten")
            assert entry.maintainer.options.debt_threshold < base
            assert server.ledger.state("live") == STATE_BURNING
            doc = entry.describe()
            assert doc["adaptive"]["tightened"] >= 1
        finally:
            handle.stop()

    def test_adaptive_is_off_without_the_flag(self):
        registry = SketchRegistry()
        registry.register_live("live", SketchMaintainer(_tree(), LIVE_BUDGET))
        handle = start_server_thread(registry, ServeConfig(
            port=0,
            shadow_fraction=1.0,
            shadow_reference=lambda q: 1.0,
            error_budget=0.25,
        ))
        try:
            entry = registry.get("live")
            assert entry.maintainer.adaptive is None
        finally:
            handle.stop()
