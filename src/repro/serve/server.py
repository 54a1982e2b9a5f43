"""The asyncio TCP daemon serving approximate XML query answers.

Design, in one paragraph: the event loop owns all I/O and all
bookkeeping (admission, metrics, deadlines); sketch computation --
``eval_query`` / ``estimate_selectivity`` / ``expand_result`` through the
per-sketch :class:`~repro.core.qcache.QueryCache` -- runs on a small
thread pool so a slow query can never stall the control plane (``health``
keeps answering while the workers grind).  Every data-plane request
passes the :class:`~repro.serve.admission.AdmissionController`: beyond
``max_pending`` it is shed with a structured ``overloaded`` error.  An
admitted ``estimate`` or ``eval`` whose answer is already cached is then
answered on the event loop itself -- a non-blocking, never-evaluating
cache lookup, so a hit skips the worker hop and never queues behind a
busy worker; a miss or a cache lock held by a worker hands the request
to the pool.  Above the ``degrade_watermark`` an ``eval`` is answered on
the loop from the query cache only (selectivity with ``degraded: true``,
or ``overloaded`` on a cache miss -- degradation must shed compute, not
just response bytes).  Everything else -- a miss, ``expand``,
``explain`` and the ``update`` mutation -- is exactly one job on the
worker pool, submitted from one place (``_answer_on_pool``) under a
deadline (``deadline_ms`` in the request, else the server default) that
maps to a ``deadline_exceeded`` error when it fires.  A deadline
abandons the response, not the slot: the admission slot is returned
only when the worker actually finishes, so admission always bounds real
in-flight compute and sustained timeouts surface as ``overloaded``
instead of an unbounded executor queue.  Responses are capped at
``protocol.MAX_LINE_BYTES`` like requests; an oversized one is replaced
by a structured ``response_too_large`` error so the client's line
framing never desynchronizes.  The full protocol is specified in
docs/SERVING.md.

The operational telemetry plane rides alongside: ``metrics_port``
starts the HTTP exposition sidecar (``/metrics`` Prometheus text,
``/healthz``, ``/statusz`` -- see :mod:`repro.obs.expo`), every request
carries a ``request_id`` correlation id stamped on its ``serve.request``
/ ``serve.execute`` trace spans, per-op latency percentiles flow through
windowed histograms, and an optional :class:`~repro.serve.shadow.
ShadowSampler` replays a fraction of served answers against a reference
off the hot path to measure live approximation error.

Embedding (what the tests and the CLI do)::

    registry = SketchRegistry()
    registry.load("xmark.json.gz")
    handle = start_server_thread(registry, ServeConfig(port=0))
    try:
        ...  # talk to ("127.0.0.1", handle.port) with repro.serve.client
    finally:
        handle.stop()
"""

from __future__ import annotations

import asyncio
import threading
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.estimate import estimate_bindings
from repro.core.evaluate import ResultSketch
from repro.core.expand import ExpansionLimitError, expand_result
from repro.core.explain import explain_estimate
from repro.obs import get_clock, get_metrics, get_tracer
from repro.obs.accuracy import AccuracyLedger
from repro.query.parser import parse_twig
from repro.query.twig import TwigQuery
from repro.serve import protocol
from repro.serve.admission import AdmissionController, Decision
from repro.serve.protocol import ProtocolError
from repro.serve.registry import LiveSketch, RegisteredSketch, SketchRegistry
from repro.serve.shadow import ShadowSampler
from repro.xmltree.serialize import to_xml

#: Trailing window, in seconds, behind the ``serve.op.latency.<op>``
#: percentiles that ``/statusz`` and ``treesketch top`` show.
LATENCY_WINDOW_S = 60.0


@dataclass
class ServeConfig:
    """Tunables for one :class:`SketchServer` instance.

    ``port=0`` binds an ephemeral port (read it back from
    ``server.address`` after ``start()``).  ``workers`` sizes the
    compute thread pool -- 1 is right for a single-core host and keeps
    sketch computation fully serialized; cached answers never use the
    pool (the event loop reads them from the query cache).
    ``handler_delay_s`` is a test/debug knob: it delays each admitted
    request that reaches the pool while holding its admission slot,
    which makes queue-pressure scenarios (shedding, deadlines)
    reproducible; cached answers and degraded evals skip it.

    Telemetry plane (docs/OBSERVABILITY.md): ``metrics_port`` (non-None)
    starts the HTTP exposition sidecar -- ``/metrics`` (Prometheus
    text), ``/healthz``, ``/statusz`` -- on ``host:metrics_port`` (0 =
    ephemeral; read ``server.metrics_address``).  ``shadow_fraction`` > 0
    with a ``shadow_reference`` estimator (see
    :func:`repro.serve.shadow.load_reference`) enables the online
    accuracy sampler -- **off by default**.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_pending: int = 64
    degrade_watermark: Optional[int] = None
    default_deadline_ms: float = 10_000.0
    max_expand_nodes: int = 200_000
    workers: int = 1
    handler_delay_s: float = 0.0
    metrics_port: Optional[int] = None
    shadow_fraction: float = 0.0
    shadow_reference: Optional[Callable[[TwigQuery], float]] = None
    shadow_max_queue: int = 256
    #: Test/debug knob (cf. ``handler_delay_s``): holds each shadow
    #: sample on the drain thread before scoring it, making
    #: mutation-vs-sample staleness races reproducible.
    shadow_eval_delay_s: float = 0.0
    #: Error budget (docs/OBSERVABILITY.md "Accuracy plane"): a target
    #: relative error enables the :class:`repro.obs.accuracy.AccuracyLedger`
    #: -- shadow-scored samples feed per-sketch trailing-window burn
    #: rates and ok/warn/burning budget states, exported through
    #: ``/metrics`` and ``/statusz``.
    error_budget: Optional[float] = None
    error_budget_window: int = 64
    #: With an error budget set, wire measured drift back into each live
    #: sketch's :class:`repro.core.live.DebtController`, which tightens
    #: and relaxes ``debt_threshold`` instead of trusting the fixed knob.
    adaptive_maintenance: bool = False
    #: Bind the listening socket with SO_REUSEPORT so several worker
    #: processes share one port and the kernel balances connections --
    #: the supervisor's ``--shard-by none`` mode.
    reuse_port: bool = False
    #: Periodic warm-state checkpointing: every ``cache_checkpoint_s``
    #: seconds the registry's ``.tsb.cache`` sidecars are rewritten on
    #: the worker pool (``registry.save_caches``), so a crash loses at
    #: most one interval of cache warmth instead of everything the
    #: graceful-shutdown save would have persisted.  None (default) keeps
    #: the shutdown-only behaviour.
    cache_checkpoint_s: Optional[float] = None


class SketchServer:
    """Line-delimited JSON query server over a :class:`SketchRegistry`."""

    def __init__(self, registry: SketchRegistry,
                 config: Optional[ServeConfig] = None) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.admission = AdmissionController(
            max_pending=self.config.max_pending,
            degrade_watermark=self.config.degrade_watermark,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started_at: Optional[float] = None
        self._exposition = None
        self._ledger: Optional[AccuracyLedger] = None
        if self.config.error_budget is not None:
            self._ledger = AccuracyLedger(
                target_rel_error=self.config.error_budget,
                window=self.config.error_budget_window,
            )
            for name in registry.names():
                self._ledger.track(name)
            self._ledger.subscribe(self._on_accuracy_sample)
            if self.config.adaptive_maintenance:
                for name in registry.names():
                    entry = registry.get(name)
                    if isinstance(entry, LiveSketch):
                        entry.maintainer.enable_adaptive(
                            target_rel_error=self.config.error_budget)
        self._shadow: Optional[ShadowSampler] = None
        if self.config.shadow_fraction > 0:
            if self.config.shadow_reference is None:
                raise ValueError(
                    "shadow_fraction > 0 requires a shadow_reference "
                    "estimator (see repro.serve.shadow.load_reference)"
                )
            self._shadow = ShadowSampler(
                self.config.shadow_reference,
                fraction=self.config.shadow_fraction,
                max_queue=self.config.shadow_max_queue,
                ledger=self._ledger,
                eval_delay_s=self.config.shadow_eval_delay_s,
            )
        self._checkpoint_task: Optional[asyncio.Task] = None
        self.checkpoints = 0  # completed periodic sidecar checkpoints

    # ------------------------------------------------------------- lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def metrics_address(self) -> Tuple[str, int]:
        """``(host, port)`` of the HTTP exposition sidecar."""
        if self._exposition is None:
            raise RuntimeError("metrics sidecar is not running "
                               "(set ServeConfig.metrics_port)")
        return self._exposition.host, self._exposition.port

    @property
    def shadow(self) -> Optional[ShadowSampler]:
        """The accuracy sampler, or None when disabled (the default)."""
        return self._shadow

    @property
    def ledger(self) -> Optional[AccuracyLedger]:
        """The error-budget ledger, or None when no budget is set."""
        return self._ledger

    def _on_accuracy_sample(self, sketch: str, rel_error: float,
                            state: str, burn: float) -> None:
        """Ledger subscriber: route measured drift into the adaptive
        maintenance loop.  Runs on the shadow drain thread."""
        try:
            registered = self.registry.get(sketch)
        except KeyError:
            return
        if not isinstance(registered, LiveSketch):
            return
        if self._ledger is not None:
            self._ledger.note_debt(sketch, registered.maintainer.total_debt())
        registered.observe_error(rel_error)

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        server_kwargs: Dict[str, Any] = {}
        if self.config.reuse_port:
            server_kwargs["reuse_port"] = True
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
            **server_kwargs,
        )
        self._started_at = get_clock().now()
        if self.config.cache_checkpoint_s is not None \
                and self.config.cache_checkpoint_s > 0:
            self._checkpoint_task = asyncio.get_running_loop().create_task(
                self._checkpoint_loop())
        if self._shadow is not None:
            self._shadow.start()
        if self.config.metrics_port is not None:
            from repro.obs.expo import ExpositionServer

            self._exposition = ExpositionServer(
                snapshot_provider=lambda: get_metrics().snapshot(),
                status_provider=self.statusz,
                host=self.config.host,
                port=self.config.metrics_port,
            ).start()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    async def drain(self, timeout: float = 5.0) -> bool:
        """Wait for in-flight data-plane requests to finish (or time out).

        Graceful shutdown calls this after the listener is closed:
        admitted work keeps its slot until the worker actually completes,
        so a zero depth means the compute pipeline is empty.  Returns
        whether the drain completed inside ``timeout``.
        """
        clock = get_clock()
        deadline = clock.now() + timeout
        while self.admission.depth > 0:
            if clock.now() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    async def _checkpoint_loop(self) -> None:
        """Periodically persist query-cache sidecars (ServeConfig knob).

        The save runs on the worker pool -- sidecar writes are file I/O
        and must never stall the event loop.  One failed interval is
        logged via the ``store.cache.save_failed`` counter inside
        ``save_caches`` and the loop keeps going.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.cache_checkpoint_s)
            try:
                saved = await loop.run_in_executor(
                    self._executor, self.registry.save_caches)
            except RuntimeError:
                return  # executor shut down mid-checkpoint
            self.checkpoints += 1
            get_metrics().counter("serve.cache_checkpoints").inc()
            if saved:
                get_metrics().counter(
                    "serve.cache_checkpoint_sidecars").inc(saved)

    async def stop(self) -> None:
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            try:
                await self._checkpoint_task
            except asyncio.CancelledError:
                pass
            self._checkpoint_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._exposition is not None:
            self._exposition.stop()
            self._exposition = None
        if self._shadow is not None:
            self._shadow.stop()
        if self._executor is not None:
            # Abandoned post-deadline work may still be running; don't wait.
            self._executor.shutdown(wait=False)
            self._executor = None

    # ------------------------------------------------------------ connection

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        get_metrics().counter("serve.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.IncompleteReadError):
                    # Oversized line: the stream cannot be resynchronized.
                    writer.write(protocol.encode_message(protocol.error_response(
                        None, "bad_request", "request line too long")))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                writer.write(await self._handle_line(line))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # event loop shutting down mid-connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytes) -> bytes:
        metrics = get_metrics()
        metrics.counter("serve.requests").inc()
        clock = get_clock()
        start = clock.now()
        op: Optional[str] = None
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            request_id = uuid.uuid4().hex
            response: Dict[str, Any] = protocol.error_response(
                None, exc.code, exc.message)
            response["request_id"] = request_id
        else:
            # End-to-end correlation: a client-supplied request_id is
            # honored verbatim; otherwise the server mints one.  It is
            # echoed in the response and stamped on every span this
            # request records, so one id ties the wire exchange to the
            # server-side trace.
            request_id = request.get("request_id")
            if request_id is None:
                request_id = uuid.uuid4().hex
                request["request_id"] = request_id
            op = request["op"]
            metrics.counter(f"serve.requests.{op}").inc()
            try:
                response = await self._dispatch(request)
            except ProtocolError as exc:
                response = protocol.error_response(request, exc.code, exc.message)
            except Exception as exc:  # noqa: BLE001 - fail the request, not the server
                response = protocol.error_response(
                    request, "internal", f"{type(exc).__name__}: {exc}")
        # encode_response enforces MAX_LINE_BYTES (swapping in a
        # response_too_large error), so meter ok-ness on what went out.
        data, response = protocol.encode_response(response)
        ok = bool(response.get("ok"))
        if not ok:
            metrics.counter("serve.errors").inc()
        elapsed = clock.now() - start
        metrics.histogram("serve.request_seconds").observe(elapsed)
        if op is not None:
            metrics.windowed(
                f"serve.op.latency.{op}", window_s=LATENCY_WINDOW_S,
            ).observe(elapsed)
        # record(), not span(): requests interleave on the event loop, so
        # the nesting stack would be corrupted -- correlation is by id.
        get_tracer().record(
            "serve.request", start, elapsed,
            op=op, request_id=request_id, ok=ok,
        )
        return data

    # -------------------------------------------------------------- dispatch

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        if op in protocol.SUPERVISOR_OPS:
            raise ProtocolError(
                "unknown_op",
                f"op {op!r} is answered by the supervisor control "
                "endpoint, not a serving worker (see docs/SERVING.md, "
                "'Scaling out')",
            )
        if op == "health":
            return protocol.ok_response(
                request,
                status="ok",
                protocol=protocol.PROTOCOL_VERSION,
                sketches=self.registry.names(),
                uptime_s=(get_clock().now() - self._started_at
                          if self._started_at is not None else 0.0),
            )
        if op == "list_sketches":
            return protocol.ok_response(
                request, sketches=self.registry.describe_all())
        if op == "stats":
            return protocol.ok_response(
                request,
                admission=self.admission.info(),
                sketches=self.registry.describe_all(),
                metrics=get_metrics().snapshot(),
                accuracy=(self._shadow.info()
                          if self._shadow is not None else None),
                budgets=(self._ledger.info()
                         if self._ledger is not None else None),
            )
        if op == "update":
            return await self._dispatch_update(request)
        return await self._dispatch_data(request)

    def statusz(self) -> Dict[str, Any]:
        """The ``/statusz`` document: one JSON page of operational state.

        Read-only and lock-free (admission/cache tallies fall back to
        GIL-atomic snapshots), so the exposition sidecar can call it from
        its own threads while the data plane is saturated.  This is what
        ``treesketch top`` renders.
        """
        snapshot = get_metrics().snapshot()
        latency = {
            op: {key: summary[key]
                 for key in ("count", "mean", "p50", "p95", "p99")}
            for op in sorted(protocol.DATA_OPS)
            for summary in [snapshot["histograms"].get(
                f"serve.op.latency.{op}")]
            if summary is not None
        }
        return {
            "uptime_s": (get_clock().now() - self._started_at
                         if self._started_at is not None else 0.0),
            "protocol": protocol.PROTOCOL_VERSION,
            "admission": self.admission.info(),
            "sketches": self.registry.describe_all(),
            "latency": latency,
            "accuracy": (self._shadow.info()
                         if self._shadow is not None else None),
            "budgets": (self._ledger.info()
                        if self._ledger is not None else None),
            "counters": {name: value
                         for name, value in snapshot["counters"].items()
                         if name.startswith(("serve.", "eval.cache."))},
        }

    async def _dispatch_update(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One sketch mutation: admission-controlled, on the worker pool.

        Updates take an admission slot like data ops (a mutation is real
        compute: reconcile + possible re-merge + snapshot) and run as one
        pool job under a deadline, like a cache miss.  They skip the
        event-loop cache lookup and the shadow sampler -- both are
        read-path machinery.  Writes against one live sketch serialize
        on the entry's mutation lock, so concurrent updates are safe,
        just not parallel.
        """
        try:
            registered = self.registry.get(request.get("sketch"))
        except KeyError as exc:
            raise ProtocolError("unknown_sketch", exc.args[0])
        if not isinstance(registered, LiveSketch):
            raise ProtocolError(
                "immutable_sketch",
                f"sketch {registered.name!r} is frozen; updates need a "
                "live entry (serve a raw .xml with --live-budget-kb)",
            )
        self._admit()
        payload = await self._answer_on_pool(request, registered)
        if self._ledger is not None:
            self._ledger.note_debt(registered.name, payload["debt"])
        return protocol.ok_response(request, **payload)

    async def _dispatch_data(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Resolve cheaply *before* taking an admission slot: a request for
        # a missing sketch or an unparsable twig is a client error, not load.
        try:
            registered = self.registry.get(request.get("sketch"))
        except KeyError as exc:
            raise ProtocolError("unknown_sketch", exc.args[0])
        try:
            query = parse_twig(request["query"])
        except Exception as exc:
            raise ProtocolError(
                "bad_query", f"cannot parse twig {request['query']!r}: {exc}")

        decision = self._admit()
        degraded = decision is Decision.DEGRADE and request["op"] == "eval"
        # The shadow sample's epoch is read before the answer: an update
        # landing in between can then only make the sample look stale
        # (dropped), never score a pre-mutation answer as post-mutation.
        epoch = registered.cache.epoch
        try:
            payload = self._answer_cached(request, registered, query, degraded)
        except BaseException:
            self.admission.release()
            raise
        if payload is None:
            # Only what the cache cannot answer pays the hop to the
            # worker pool, which takes the admission slot over.
            payload = await self._answer_on_pool(request, registered, query)
        else:
            self.admission.release()
        # Shadow accuracy sampling happens here, on the event loop,
        # *after* the answer is complete and outside the admission-held
        # critical section: offer() is an O(1) accumulator bump plus a
        # non-blocking enqueue; the reference evaluation runs on the
        # sampler's own thread, never a worker slot.
        if (self._shadow is not None
                and request["op"] in ("estimate", "eval")
                and not payload.get("degraded")):
            self._shadow.offer(registered.name, query,
                               payload["selectivity"],
                               cache=registered.cache, epoch=epoch)
        return protocol.ok_response(request, **payload)

    def _admit(self) -> Decision:
        """Take an admission slot, or shed the request as ``overloaded``.

        A returned decision holds a slot: the caller either releases it
        or hands it to :meth:`_answer_on_pool`.
        """
        decision = self.admission.acquire()
        if decision is Decision.SHED:
            raise ProtocolError(
                "overloaded",
                f"admission queue full ({self.admission.max_pending} pending); "
                "retry with backoff",
            )
        return decision

    async def _answer_on_pool(self, request: Dict[str, Any],
                              registered: RegisteredSketch,
                              query: Optional[TwigQuery] = None
                              ) -> Dict[str, Any]:
        """Run one admitted request as one worker-pool job under its
        deadline; owns the admission slot.

        The only place request work reaches the executor: cache misses,
        ``expand``, ``explain`` and ``update`` all come through here.
        """
        deadline_s = request.get("deadline_ms",
                                 self.config.default_deadline_ms) / 1000.0
        submitted: Optional[Future] = None
        try:
            async def _admitted() -> Dict[str, Any]:
                nonlocal submitted
                if self.config.handler_delay_s > 0:
                    await asyncio.sleep(self.config.handler_delay_s)
                # The admission slot travels with the computation: it is
                # returned by the done-callback when the worker actually
                # finishes, even if the deadline below abandons this
                # coroutine first.  Admission therefore bounds real
                # in-flight compute -- under sustained timeouts new
                # requests shed as `overloaded` instead of piling up
                # behind abandoned work in the executor queue.
                submitted = self._executor.submit(
                    self._execute, request, registered, query)
                submitted.add_done_callback(
                    lambda _f: self.admission.release())
                return await asyncio.wrap_future(submitted)

            try:
                return await asyncio.wait_for(_admitted(), timeout=deadline_s)
            except asyncio.TimeoutError:
                get_metrics().counter("serve.deadline_exceeded").inc()
                limit = f"{deadline_s * 1000:.0f} ms deadline"
                if request["op"] == "update":
                    raise ProtocolError(
                        "deadline_exceeded",
                        f"update exceeded its {limit} "
                        "(the mutation may still apply; check the epoch)",
                    )
                raise ProtocolError(
                    "deadline_exceeded", f"request exceeded its {limit}")
        finally:
            if submitted is None:  # never reached the worker pool
                self.admission.release()

    def _answer_cached(self, request: Dict[str, Any],
                       registered: RegisteredSketch, query: TwigQuery,
                       degraded: bool) -> Optional[Dict[str, Any]]:
        """An ``estimate`` / ``eval`` reply built from the query cache on
        the event loop, or None to hand the request to the worker pool.

        The lookup never evaluates and never waits: a miss, or the cache
        lock held by a worker mid-``eval_query``, declines.  A degraded
        eval is cache-only by definition, so it never declines -- it
        answers the cached selectivity flagged ``degraded: true``, or
        ``overloaded`` (degradation must shed compute, not just response
        bytes).  A reply made here records the ``serve.execute`` span the
        pool would have.
        """
        op = request["op"]
        if op not in ("estimate", "eval"):
            return None
        clock = get_clock()
        started = clock.now()
        full = op == "eval" and not degraded
        hit = registered.cache.peek_selectivity(query, with_result=full)
        if hit is None and not degraded:
            return None  # a miss or a busy lock: the pool evaluates
        try:
            if hit is None:
                raise ProtocolError(
                    "overloaded",
                    "server is degraded and this query's selectivity "
                    "is not cached; retry with backoff",
                )
            metrics = get_metrics()
            metrics.counter("serve.cached_answers").inc()
            if not full:
                payload = {"sketch": registered.name, "selectivity": hit}
                if degraded:
                    metrics.counter("serve.degraded").inc()
                    payload["degraded"] = True
                return payload
            selectivity, result = hit
            return _eval_payload(registered.name, selectivity, result)
        finally:
            get_tracer().record(
                "serve.execute", started, clock.now() - started,
                op=op, sketch=registered.name,
                request_id=request.get("request_id"),
            )

    # --------------------------------------------------- worker-thread compute

    def _execute(self, request: Dict[str, Any], registered: RegisteredSketch,
                 query: Optional[TwigQuery]) -> Dict[str, Any]:
        """Sketch computation or one mutation; runs on the worker pool."""
        clock = get_clock()
        started = clock.now()
        try:
            return self._compute(request, registered, query)
        finally:
            # Worker-side half of the request trace, correlated by
            # request_id (record() is stack-free, hence thread-safe here).
            get_tracer().record(
                "serve.execute", started, clock.now() - started,
                op=request["op"], sketch=registered.name,
                request_id=request.get("request_id"),
            )

    def _compute(self, request: Dict[str, Any], registered: RegisteredSketch,
                 query: Optional[TwigQuery]) -> Dict[str, Any]:
        op = request["op"]
        if op == "update":
            # An address that does not resolve (unknown label, ordinal
            # past the end, the document root) is the client's error.
            try:
                payload = registered.update(request["mutation"])
            except KeyError as exc:
                raise ProtocolError("bad_request", exc.args[0])
            except ValueError as exc:
                raise ProtocolError("bad_request", str(exc))
            get_metrics().counter("serve.updates").inc()
            return payload
        cache = registered.cache
        if op == "estimate":
            return {"sketch": registered.name,
                    "selectivity": cache.selectivity(query)}
        if op == "eval":
            result = cache.result(query)
            return _eval_payload(registered.name, cache.selectivity(query),
                                 result)
        if op == "explain":
            # Error provenance (docs/OBSERVABILITY.md "Accuracy plane"):
            # the instrumented DP decomposes the estimate into per-cluster
            # contribution terms and ranks clusters by live error debt.
            result = cache.result(query)
            debt = (registered.maintainer.debt
                    if isinstance(registered, LiveSketch) else None)
            explanation = explain_estimate(
                result, debt=debt, top_k=int(request.get("top_k", 5)))
            get_metrics().counter("serve.explains").inc()
            payload = {"sketch": registered.name,
                       "epoch": registered.cache.epoch}
            payload.update(explanation.to_payload())
            if self._ledger is not None:
                payload["budget_state"] = self._ledger.state(registered.name)
                payload["burn_rate"] = self._ledger.burn_rate(registered.name)
            return payload
        if op == "expand":
            max_nodes = min(
                int(request.get("max_nodes", self.config.max_expand_nodes)),
                self.config.max_expand_nodes,
            )
            result = cache.result(query)
            try:
                nesting = expand_result(
                    result, max_nodes=max_nodes,
                    sketch=registered.sketch, seed=request.get("seed"),
                )
            except ExpansionLimitError:
                raise ProtocolError(
                    "expansion_limit",
                    f"approximate answer exceeds max_nodes={max_nodes}",
                )
            return {
                "sketch": registered.name,
                "elements": nesting.size(),
                "xml": to_xml(nesting),
            }
        raise ProtocolError("unknown_op", f"unhandled op {op!r}")  # unreachable


def _eval_payload(name: str, selectivity: float,
                  result: ResultSketch) -> Dict[str, Any]:
    """The reply of a full (not degraded) ``eval``."""
    return {
        "sketch": name,
        "selectivity": selectivity,
        "degraded": False,
        "result": {
            "nodes": result.num_nodes,
            "edges": result.num_edges,
            "empty": result.empty,
        },
        "bindings": estimate_bindings(result),
    }


# ---------------------------------------------------------------- threading


class ServerHandle:
    """A :class:`SketchServer` running on a dedicated event-loop thread.

    ``start()`` blocks until the socket is bound (so ``port`` is real) or
    startup failed (the failure is re-raised in the caller's thread).
    Used by the test suite and anywhere a blocking program wants a live
    server -- production deployments run ``treesketch serve`` instead.
    """

    def __init__(self, registry: SketchRegistry,
                 config: Optional[ServeConfig] = None) -> None:
        self._registry = registry
        self._config = config
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.metrics_host: Optional[str] = None
        self.metrics_port: Optional[int] = None

    def start(self, timeout: float = 10.0) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread did not start in time")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        server = SketchServer(self._registry, self._config)
        try:
            await server.start()
        except BaseException as exc:  # noqa: BLE001 - report to start()
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self.host, self.port = server.address
        if server._exposition is not None:
            self.metrics_host, self.metrics_port = server.metrics_address
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)


def start_server_thread(registry: SketchRegistry,
                        config: Optional[ServeConfig] = None) -> ServerHandle:
    """Start a server on a background thread; returns the bound handle."""
    return ServerHandle(registry, config).start()
