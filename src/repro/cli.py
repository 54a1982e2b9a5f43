"""Command-line interface: build synopses and query them approximately.

Installed as the ``treesketch`` console script::

    treesketch stats    data.xml
    treesketch stable   data.xml -o stable.json
    treesketch build    data.xml --budget-kb 10 -o sketch.json
    treesketch query    sketch.json "//a[//b] ( //p ( //k ? ), //n ? )"
    treesketch exact    data.xml   "//a[//b] ( //p ( //k ? ), //n ? )"
    treesketch compare  data.xml sketch.json "//a (//p)"
    treesketch workload data.xml --budget-kb 10 --queries 40
    treesketch estimate sketch.json "//a (//p)" --repeat 3
    treesketch convert  sketch.json sketch.tsb
    treesketch inspect  sketch.tsb
    treesketch serve sketch.tsb xmark=xmark.json.gz --port 7077
    treesketch serve live=data.xml --live-budget-kb 10 --port 7077
    treesketch workload data.xml --server 127.0.0.1:7077 --queries 40
    treesketch update 127.0.0.1:7077 --sketch live --action delete_subtree \
        --label item --ordinal 3
    treesketch update --generate 100 --document data.xml -o ops.jsonl

``build`` accepts either raw XML or a saved stable summary, so the
expensive parse/summarize step can be done once.  Synopsis paths ending
in ``.gz`` are read/written gzip-compressed; ``.tsb`` selects the binary
mmap-able store (docs/STORAGE.md) whose load time is O(header) --
``convert`` re-encodes between the formats and ``inspect`` prints any
file's header/section/stat summary.  ``serve`` runs the network
query daemon of :mod:`repro.serve` (docs/SERVING.md); ``workload
--server`` replays the generated workload against such a daemon instead
of evaluating in-process.  ``python -m repro ...`` is equivalent to the
installed script.

Every subcommand accepts ``--stats`` (print the internal metric counters
and span timings after the run) and ``--trace FILE`` (dump the span trace
as JSON lines); see docs/OBSERVABILITY.md.  ``build``, ``workload`` and
``estimate`` additionally accept ``--profile FILE`` (cProfile pstats dump
of the run; inspect with ``python -m pstats FILE``) -- see
docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.build import TSBuildOptions, build_treesketch
from repro.core.estimate import estimate_selectivity
from repro.core.evaluate import eval_query
from repro.core.expand import expand_result
from repro.core.io import load_synopsis, save_synopsis
from repro.core.stable import StableSummary, build_stable
from repro.core.treesketch import TreeSketch
from repro.engine.exact import ExactEvaluator
from repro.metrics.esd import esd_nesting_trees
from repro.query.parser import parse_twig
from repro.xmltree.parser import parse_xml_file
from repro.xmltree.serialize import to_xml
from repro.xmltree.stats import compute_stats


def _load_document(path: str):
    return parse_xml_file(path)


def _load_sketch(path: str) -> TreeSketch:
    synopsis = load_synopsis(path)
    if isinstance(synopsis, StableSummary):
        return TreeSketch.from_stable(synopsis)
    return synopsis


def cmd_stats(args: argparse.Namespace) -> int:
    tree = _load_document(args.document)
    stats = compute_stats(tree)
    print(stats)
    stable = build_stable(tree)
    print(
        f"stable summary: {stable.num_nodes} nodes, {stable.num_edges} edges, "
        f"{stable.size_bytes() / 1024:.1f} KB"
    )
    return 0


def cmd_stable(args: argparse.Namespace) -> int:
    tree = _load_document(args.document)
    stable = build_stable(tree)
    save_synopsis(stable, args.output)
    print(
        f"wrote {args.output}: {stable.num_nodes} nodes, "
        f"{stable.size_bytes() / 1024:.1f} KB (lossless)"
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    value_summaries = None
    if args.source.endswith((".json", ".json.gz", ".tsb")):
        source = load_synopsis(args.source)
        if not isinstance(source, StableSummary):
            print("build expects XML or a *stable* summary synopsis",
                  file=sys.stderr)
            return 2
        if args.values:
            print("--values needs an XML source (values live in the document)",
                  file=sys.stderr)
            return 2
    elif args.values:
        from repro.values import annotate_sketch_values, annotate_stable_values

        tree = parse_xml_file(args.source, keep_values=True)
        source = build_stable(tree, keep_extents=True)
        value_summaries = annotate_stable_values(source, tree)
    else:
        source = build_stable(_load_document(args.source))

    sketch = build_treesketch(
        source, int(args.budget_kb * 1024),
        TSBuildOptions(kernel=args.kernel),
    )
    if value_summaries is not None:
        from repro.values import annotate_sketch_values

        annotate_sketch_values(sketch, value_summaries)
    save_synopsis(sketch, args.output, format=args.format)
    print(
        f"wrote {args.output}: {sketch.num_nodes} nodes, "
        f"{sketch.size_bytes() / 1024:.1f} KB, "
        f"squared error {sketch.squared_error():.1f}"
    )
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """Re-encode a synopsis file; formats are sniffed, never guessed."""
    import os

    from repro.core.io import sniff_format

    try:
        synopsis = load_synopsis(args.input)
    except (OSError, ValueError) as exc:
        print(f"cannot load {args.input!r}: {exc}", file=sys.stderr)
        return 2
    save_synopsis(synopsis, args.output, format=args.format)
    kind = "stable" if isinstance(synopsis, StableSummary) else "treesketch"
    print(
        f"wrote {args.output}: {kind}, {synopsis.num_nodes} nodes, "
        f"{synopsis.num_edges} edges "
        f"({sniff_format(args.input)} {os.path.getsize(args.input)} B -> "
        f"{sniff_format(args.output)} {os.path.getsize(args.output)} B)"
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Header/section/stat summary of any synopsis file.

    The first debugging stop for a store that will not load: corrupt and
    truncated files report *why* (bad magic, checksum mismatch, section
    past EOF) instead of a traceback.
    """
    import os

    from repro.core.io import sniff_format
    from repro.core.store import (
        SynopsisFormatError,
        file_checksum,
        load_cache_sidecar,
        read_tsb_info,
        sidecar_path,
    )

    path = args.file
    try:
        fmt = sniff_format(path)
        if fmt == "tsb":
            info = read_tsb_info(path)
            print(f"{path}: tsb v{info['version']} ({info['kind']}), "
                  f"{info['file_bytes']} bytes, "
                  f"checksum {info['checksum']:#010x}")
            print(f"  root {info['root_id']}, height {info['doc_height']}, "
                  f"{info['nodes']} nodes, {info['edges']} edges")
            print(f"  {'section':<12} {'type':<4} {'offset':>10} "
                  f"{'bytes':>10} {'count':>10}")
            for sec in info["sections"]:
                print(f"  {sec['name']:<12} {sec['typecode']:<4} "
                      f"{sec['offset']:>10} {sec['bytes']:>10} "
                      f"{sec['count']:>10}")
        else:
            print(f"{path}: {fmt}, {os.path.getsize(path)} bytes")
        synopsis = load_synopsis(path)
        kind = ("stable" if isinstance(synopsis, StableSummary)
                else "treesketch")
        line = (f"  {kind}: {synopsis.num_nodes} nodes, "
                f"{synopsis.num_edges} edges, "
                f"{synopsis.size_bytes() / 1024:.1f} KB model size")
        if isinstance(synopsis, TreeSketch):
            line += (f", squared error {synopsis.squared_error():.1f}, "
                     f"{len(synopsis.members)} member sets, "
                     f"{len(synopsis.values)} value summaries")
        print(line)
        sidecar = sidecar_path(path)
        if os.path.exists(sidecar):
            doc = load_cache_sidecar(path, file_checksum(path),
                                     _count_stale=False)
            if doc is None:
                print(f"  sidecar {sidecar}: STALE (ignored at load)")
            else:
                selectivities = doc.get("selectivities") or {}
                print(f"  sidecar {sidecar}: fresh, "
                      f"{len(selectivities)} selectivities")
    except SynopsisFormatError as exc:
        print(f"corrupt store: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"unreadable synopsis: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    sketch = _load_sketch(args.sketch)
    query = parse_twig(args.twig)
    result = eval_query(sketch, query)
    estimate = estimate_selectivity(result)
    print(f"estimated binding tuples: {estimate:,.1f}")
    if args.preview:
        nesting = expand_result(result, max_nodes=args.max_preview_nodes)
        with open(args.preview, "w", encoding="utf-8") as handle:
            handle.write(to_xml(nesting.to_xmltree()))
        print(f"approximate answer ({nesting.size():,} elements) -> {args.preview}")
    return 0


def _render_explanation(payload: dict, twig: str) -> str:
    """Console rendering of one explain payload (local or wire form)."""
    lines = [f"estimate: {payload.get('estimate', 0.0):,.1f}  ({twig})"]
    lines.append(
        "provenance: {touched} cluster(s) touched, "
        "{n} contribution term(s){split}".format(
            touched=payload.get("touched", 0),
            n=len(payload.get("contributions") or []),
            split=("" if payload.get("exact_split")
                   else " (single-term fallback: no additive split)"))
    )
    if payload.get("budget_state") is not None:
        lines.append(
            f"budget: {payload['budget_state']}  "
            f"(burn rate {payload.get('burn_rate', 0.0):.2f})"
        )
    clusters = payload.get("clusters") or []
    if clusters:
        lines.append("")
        lines.append(f"  {'cluster':>8} {'label':<12} {'mass':>10} "
                     f"{'tuples':>14} {'debt':>10} {'error wt':>12}")
        for c in clusters:
            lines.append(
                f"  {c.get('cluster', '?'):>8} {c.get('label', '?'):<12} "
                f"{c.get('mass', 0.0):>10.2f} {c.get('tuples', 0.0):>14,.1f} "
                f"{c.get('debt', 0.0):>10.2f} {c.get('error_weight', 0.0):>12.2f}"
            )
    else:
        lines.append("  (no clusters: empty approximate answer)")
    return "\n".join(lines)


def cmd_explain(args: argparse.Namespace) -> int:
    """Error provenance for one estimate: which synopsis clusters the
    traversal touched, their contribution to the answer, and their live
    error debt (docs/OBSERVABILITY.md, 'Accuracy plane')."""
    if bool(args.sketch) == bool(args.address):
        print("explain needs exactly one of --sketch PATH (local) or "
              "--address HOST:PORT (daemon)", file=sys.stderr)
        return 2
    if args.address:
        from repro.serve.client import ServeClient, ServerError, parse_address

        try:
            host, port = parse_address(args.address)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        client = ServeClient(host, port)
        try:
            payload = client.explain(args.twig, sketch=args.name,
                                     top_k=args.top_k)
        except (ServerError, ConnectionError, OSError) as exc:
            print(f"explain failed: {exc}", file=sys.stderr)
            return 1
        finally:
            client.close()
    else:
        from repro.core.explain import explain_query

        sketch = _load_sketch(args.sketch)
        explanation = explain_query(
            sketch, parse_twig(args.twig), top_k=args.top_k)
        payload = explanation.to_payload()
    print(_render_explanation(payload, args.twig))
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    tree = parse_xml_file(args.document, keep_values=args.values)
    query = parse_twig(args.twig)
    evaluator = ExactEvaluator(tree)
    print(f"exact binding tuples: {evaluator.selectivity(query):,}")
    return 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    from repro.datagen.corpus import available_datasets, write_corpus

    names = args.datasets or None
    try:
        written = write_corpus(args.directory, names=names, scale=args.scale)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workload.runner import run_selectivity, run_selectivity_remote
    from repro.workload.workload import make_workload

    if args.queries < 1:
        print("workload needs --queries >= 1", file=sys.stderr)
        return 2
    tree = _load_document(args.document)
    stable = build_stable(tree)
    workload = make_workload(
        tree, num_queries=args.queries, seed=args.seed, stable=stable
    )

    if args.server:
        # Replay mode: estimates come from a running serve daemon
        # (docs/SERVING.md); ground truth is still computed locally.
        from repro.serve.client import ServeClient, ServerError, parse_address

        try:
            host, port = parse_address(args.server)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        try:
            with ServeClient(host, port) as client:
                name = args.sketch_name
                if name is None:
                    names = [s["name"] for s in client.list_sketches()]
                    name = names[0] if len(names) == 1 else None
                    if name is None and names:
                        print(f"--sketch-name required; server holds {names}",
                              file=sys.stderr)
                        return 2
                quality = run_selectivity_remote(
                    client, workload, sketch=name,
                    request_id_prefix=args.request_prefix)
        except (OSError, ServerError) as exc:
            print(f"server replay failed: {exc}", file=sys.stderr)
            return 1
        print(
            f"workload: {len(workload)} queries over {args.document} "
            f"(seed {args.seed}), served by {host}:{port}"
            + (f" sketch {name!r}" if name else "")
        )
        print(
            f"avg selectivity error {quality.avg_error:.3f}, "
            f"{quality.seconds:.3f}s total"
        )
        return 0

    sketch = build_treesketch(
        stable, int(args.budget_kb * 1024),
        TSBuildOptions(kernel=args.kernel),
    )
    cache = None
    if args.eval_cache > 0:
        from repro.core.qcache import QueryCache

        cache = QueryCache(sketch, maxsize=args.eval_cache)
    quality = run_selectivity(sketch, workload, cache=cache)
    print(
        f"workload: {len(workload)} queries over {args.document} "
        f"(seed {args.seed}), sketch {sketch.size_bytes() / 1024:.1f} KB"
    )
    print(
        f"avg selectivity error {quality.avg_error:.3f}, "
        f"{quality.seconds:.3f}s total"
    )
    if cache is not None:
        info = cache.info()
        print(
            f"eval cache: {info['hits']} hits, {info['misses']} misses, "
            f"{info['evictions']} evictions ({info['size']}/{info['maxsize']} entries)"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro import obs
    from repro.serve.registry import SketchRegistry, parse_spec
    from repro.serve.server import ServeConfig, SketchServer

    if args.workers > 1:
        return _cmd_serve_supervisor(args)
    if not 0 <= args.shard_index < max(1, args.shard_count):
        print(f"--shard-index must be in [0, {args.shard_count})",
              file=sys.stderr)
        return 2

    try:
        parsed = [parse_spec(spec) for spec in args.sketches]
    except ValueError as exc:
        print(f"bad sketch spec: {exc}", file=sys.stderr)
        return 2
    only = None
    if args.shard_count > 1 and args.shard_by == "name":
        from repro.serve import sharding

        only = set(sharding.shard_names(
            [name for name, _ in parsed], args.shard_index, args.shard_count))
    live_budget = (int(args.live_budget_kb * 1024)
                   if args.live_budget_kb else None)
    registry = SketchRegistry(cache_size=args.cache_size or None,
                              live_budget_bytes=live_budget)
    for name, path in parsed:
        if only is not None and name not in only:
            continue
        try:
            entry = registry.load(path, name=name)
        except (OSError, ValueError) as exc:
            print(f"cannot load sketch {path!r}: {exc}", file=sys.stderr)
            return 2
        live = " live," if entry.describe().get("live") else ""
        print(
            f"pinned {entry.name!r}:{live} {entry.sketch.num_nodes} nodes, "
            f"{entry.sketch.size_bytes() / 1024:.1f} KB ({path})"
        )
    shadow_reference = None
    if args.shadow_sample > 0:
        if not args.shadow_reference:
            print("--shadow-sample needs --shadow-reference "
                  "(an XML document for exact truth, or a synopsis)",
                  file=sys.stderr)
            return 2
        from repro.serve.shadow import load_reference

        try:
            shadow_reference = load_reference(args.shadow_reference)
        except (OSError, ValueError, TypeError) as exc:
            print(f"cannot load shadow reference "
                  f"{args.shadow_reference!r}: {exc}", file=sys.stderr)
            return 2
    if args.error_budget is not None and args.shadow_sample <= 0:
        print("--error-budget needs --shadow-sample > 0 (the ledger is "
              "fed by shadow-scored answers)", file=sys.stderr)
        return 2
    if args.adaptive_maintain and args.error_budget is None:
        print("--adaptive-maintain needs --error-budget (the controller "
              "follows the ledger's measured drift)", file=sys.stderr)
        return 2
    # The telemetry plane renders the *active* metrics registry, so the
    # daemon needs a live one even without --stats/--trace.
    if (args.metrics_port is not None or args.shadow_sample > 0) \
            and not obs.enabled():
        obs.enable()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        degrade_watermark=args.degrade_watermark,
        default_deadline_ms=args.deadline_ms,
        max_expand_nodes=args.max_expand_nodes,
        workers=args.threads,
        metrics_port=args.metrics_port,
        shadow_fraction=args.shadow_sample,
        shadow_reference=shadow_reference,
        shadow_eval_delay_s=args.shadow_eval_delay_s,
        error_budget=args.error_budget,
        error_budget_window=args.error_budget_window,
        adaptive_maintenance=args.adaptive_maintain,
        reuse_port=args.reuse_port,
        cache_checkpoint_s=args.cache_checkpoint_s,
    )

    async def _run() -> None:
        server = SketchServer(registry, config)
        await server.start()
        # Signal handlers go in before the readiness lines are printed:
        # supervisors (and the tests) treat those lines as "safe to
        # signal", so the graceful path must already be armed.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # non-Unix loop: fall back to KeyboardInterrupt
        host, port = server.address
        print(f"serving {len(registry)} sketch(es) on {host}:{port} "
              f"(protocol v1, Ctrl-C to stop)", flush=True)
        if args.metrics_port is not None:
            mhost, mport = server.metrics_address
            print(f"telemetry on http://{mhost}:{mport} "
                  "(/metrics /healthz /statusz)", flush=True)
        try:
            if installed:
                await stop.wait()
                print("\nshutting down: draining in-flight requests "
                      f"(up to {args.drain_s:g}s)", flush=True)
                if await server.drain(timeout=args.drain_s):
                    print("drained", flush=True)
                else:
                    print(f"drain timed out with "
                          f"{server.admission.depth} request(s) in flight",
                          flush=True)
            else:
                await server.serve_forever()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    # Persist warm-restart state for .tsb-backed sketches after the
    # drain: the next daemon on these files answers previously-seen
    # selectivity queries from its first request (docs/STORAGE.md).
    saved = registry.save_caches()
    if saved:
        print(f"persisted {saved} cache sidecar(s)", flush=True)
    if obs.enabled():
        # Flush span records now (idempotent; main() closes --trace sinks
        # again) and leave a final metrics snapshot in the log.
        obs.get_tracer().sink.close()
        if not getattr(args, "stats", False):
            print()
            print(obs.report.render_registry(
                obs.get_metrics(), title="final metrics snapshot"))
    return 0


def _cmd_serve_supervisor(args: argparse.Namespace) -> int:
    """``treesketch serve --workers N`` (N >= 2): the sharded fleet.

    The supervisor owns the control endpoint (``health`` / ``shard_map``
    / ``fleet_stats``) on ``--port``; data traffic goes straight to the
    workers, whose addresses clients learn from ``shard_map``
    (:class:`repro.serve.client.PooledClient` automates this).  Serving
    tunables are forwarded to every worker verbatim.
    """
    import signal
    import threading

    from repro import obs
    from repro.serve.supervisor import Supervisor, SupervisorConfig

    if args.metrics_port is not None and not obs.enabled():
        obs.enable()
    worker_args = [
        "--max-pending", str(args.max_pending),
        "--deadline-ms", str(args.deadline_ms),
        "--max-expand-nodes", str(args.max_expand_nodes),
        "--cache-size", str(args.cache_size),
        "--threads", str(args.threads),
    ]
    if args.degrade_watermark is not None:
        worker_args += ["--degrade-watermark", str(args.degrade_watermark)]
    if args.live_budget_kb:
        worker_args += ["--live-budget-kb", str(args.live_budget_kb)]
    if args.cache_checkpoint_s:
        worker_args += ["--cache-checkpoint-s", str(args.cache_checkpoint_s)]
    if args.shadow_sample > 0 and args.shadow_reference:
        worker_args += ["--shadow-sample", str(args.shadow_sample),
                        "--shadow-reference", args.shadow_reference]
        if args.shadow_eval_delay_s > 0:
            worker_args += ["--shadow-eval-delay-s",
                            str(args.shadow_eval_delay_s)]
        if args.error_budget is not None:
            worker_args += ["--error-budget", str(args.error_budget),
                            "--error-budget-window",
                            str(args.error_budget_window)]
            if args.adaptive_maintain:
                worker_args.append("--adaptive-maintain")
    config = SupervisorConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        shard_by=args.shard_by,
        worker_port=args.worker_port,
        metrics_port=args.metrics_port,
        backoff_base_s=args.backoff_base_s,
        backoff_cap_s=args.backoff_cap_s,
        backoff_reset_s=args.backoff_reset_s,
        drain_s=args.drain_s,
        worker_args=tuple(worker_args),
    )
    try:
        supervisor = Supervisor(args.sketches, config)
    except ValueError as exc:
        print(f"bad fleet configuration: {exc}", file=sys.stderr)
        return 2
    try:
        supervisor.start()
    except (RuntimeError, OSError) as exc:
        print(f"fleet failed to start: {exc}", file=sys.stderr)
        supervisor.stop(drain=False)
        return 2
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, frame: stop.set())
    host, port = supervisor.control_address
    print(f"supervising {args.workers} worker(s), "
          f"{len(supervisor.sketch_names)} sketch(es), "
          f"shard_by={args.shard_by}; control on {host}:{port} "
          f"(protocol v1, ops health/shard_map/fleet_stats)", flush=True)
    if args.metrics_port is not None:
        mhost, mport = supervisor.metrics_address
        print(f"fleet telemetry on http://{mhost}:{mport} "
              "(/metrics /healthz /statusz)", flush=True)
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print(f"\nshutting down fleet: draining {args.workers} worker(s) "
          f"(up to {args.drain_s:g}s each)", flush=True)
    if supervisor.stop():
        print("fleet drained", flush=True)
    else:
        print("fleet drain timed out; stragglers killed", flush=True)
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    """Mutate a live sketch on a running daemon, or generate edit scripts.

    Three modes:

    * ``--generate N --document X.xml``: emit a valid N-op mutation
      workload (JSON lines) without touching any server;
    * a single op (``--action`` plus its address flags) against
      ``ADDRESS``;
    * ``--script OPS.jsonl``: replay a generated workload against
      ``ADDRESS`` (``--pooled`` routes via a supervisor control endpoint).
    """
    from repro.workload.mutations import (
        MutationOp,
        dump_ops,
        load_ops,
        make_mutation_workload,
    )

    if args.generate:
        if not args.document:
            print("--generate needs --document (the XML the ops must stay "
                  "valid against)", file=sys.stderr)
            return 2
        tree = parse_xml_file(args.document)
        ops = make_mutation_workload(
            tree, num_ops=args.generate, seed=args.seed,
            insert_fraction=args.insert_fraction)
        text = dump_ops(ops)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.output}: {len(ops)} ops "
                  f"(seed {args.seed}, {args.insert_fraction:g} inserts)")
        else:
            sys.stdout.write(text)
        return 0

    if not args.address:
        print("update needs a server ADDRESS (or --generate)", file=sys.stderr)
        return 2
    if args.script:
        try:
            with open(args.script, "r", encoding="utf-8") as handle:
                ops = load_ops(handle.read())
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read op script {args.script!r}: {exc}",
                  file=sys.stderr)
            return 2
    elif args.action:
        ops = [MutationOp(
            action=args.action, label=args.label, ordinal=args.ordinal,
            parent_label=args.parent_label,
            parent_ordinal=args.parent_ordinal,
            subtree=_parse_subtree_arg(args.subtree))]
    else:
        print("update needs --action, --script, or --generate",
              file=sys.stderr)
        return 2

    from repro.serve.client import (
        PooledClient,
        ServeClient,
        ServerError,
        parse_address,
    )

    try:
        host, port = parse_address(args.address)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    client = None
    try:
        client = (PooledClient(host, port) if args.pooled
                  else ServeClient(host, port))
        response = None
        for i, op in enumerate(ops):
            response = client.update(sketch=args.sketch, **op.to_json())
            if args.verbose:
                print(f"[{i + 1}/{len(ops)}] {op.action} -> "
                      f"epoch {response['epoch']}, debt {response['debt']:.1f}")
        if response is not None:
            print(f"applied {len(ops)} op(s) to "
                  f"{response['sketch']!r}: epoch {response['epoch']}, "
                  f"{response['nodes']} nodes, "
                  f"{response['size_bytes'] / 1024:.1f} KB, "
                  f"debt {response['debt']:.1f}, "
                  f"{response['remerges']} re-merge(s)")
    except (OSError, ServerError) as exc:
        print(f"update failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if client is not None:
            client.close()
    return 0


def _parse_subtree_arg(text: Optional[str]):
    """``--subtree`` accepts a bare label or the JSON nested-list form."""
    if text is None:
        return None
    stripped = text.strip()
    if stripped.startswith("["):
        import json

        return json.loads(stripped)
    return stripped


def _render_statusz(status: dict, source: str) -> str:
    """One console screen of a /statusz document (``treesketch top``)."""
    lines = [
        f"treesketch top — {source}  "
        f"(uptime {status.get('uptime_s', 0.0):.0f}s, "
        f"protocol v{status.get('protocol', '?')})",
        "",
    ]
    admission = status.get("admission") or {}
    lines.append(
        "admission  depth {depth}/{max_pending}  degrade>{degrade_watermark}  "
        "admitted {admitted_total}  shed {shed_total}".format(
            **{k: admission.get(k, "?") for k in (
                "depth", "max_pending", "degrade_watermark",
                "admitted_total", "shed_total")})
    )
    lines.append("")
    lines.append("sketches")
    for entry in status.get("sketches") or []:
        cache = entry.get("cache") or {}
        lines.append(
            f"  {entry.get('name'):<16} {entry.get('nodes', 0):>7} nodes  "
            f"{entry.get('size_bytes', 0) / 1024:>8.1f} KB  "
            f"cache {cache.get('hits', 0)}/{cache.get('misses', 0)} h/m "
            f"({cache.get('size', 0)}/{cache.get('maxsize')})"
        )
    latency = status.get("latency") or {}
    if latency:
        lines.append("")
        lines.append("latency (trailing window, ms)")
        lines.append(f"  {'op':<10} {'count':>7} {'mean':>8} {'p50':>8} "
                     f"{'p95':>8} {'p99':>8}")
        for op in sorted(latency):
            row = latency[op]
            lines.append(
                f"  {op:<10} {row.get('count', 0):>7.0f} "
                + " ".join(f"{row.get(k, 0.0) * 1000:>8.2f}"
                           for k in ("mean", "p50", "p95", "p99"))
            )
    accuracy = status.get("accuracy")
    lines.append("")
    if accuracy:
        mean = accuracy.get("rel_error_mean")
        worst = accuracy.get("rel_error_max")
        lines.append(
            "accuracy   fraction {fraction:g}  sampled {sampled}  "
            "evaluated {evaluated}  dropped {dropped}  stale {stale}  "
            "failed {failed}".format(
                stale=accuracy.get("stale_dropped", 0),
                **{k: accuracy.get(k, 0) for k in (
                    "fraction", "sampled", "evaluated", "dropped", "failed")})
        )
        lines.append(
            "           rel error mean "
            + (f"{mean:.4f}" if mean is not None else "n/a")
            + "  max " + (f"{worst:.4f}" if worst is not None else "n/a")
        )
    else:
        lines.append("accuracy   shadow sampler off")
    budgets = status.get("budgets")
    if budgets:
        lines.append("")
        lines.append(
            "budgets    target rel-err {target:g}  window {window}  "
            "transitions {transitions}".format(
                target=budgets.get("target_rel_error", 0.0),
                window=budgets.get("window", "?"),
                transitions=budgets.get("transitions", 0))
        )
        for name, budget in sorted((budgets.get("sketches") or {}).items()):
            mean = budget.get("window_mean")
            lines.append(
                f"  {name:<16} {budget.get('state', '?'):<8} "
                f"burn {budget.get('burn_rate', 0.0):>6.2f}  "
                f"samples {budget.get('samples', 0):>6}  mean "
                + (f"{mean:.4f}" if mean is not None else "   n/a")
                + f"  debt {budget.get('debt', 0.0):.1f}"
            )
    counters = status.get("counters") or {}
    if counters:
        lines.append("")
        lines.append("counters")
        for name in sorted(counters):
            lines.append(f"  {name:<32} {counters[name]:>12,}")
    return "\n".join(lines)


def _render_fleet_snapshot(snapshot: dict, source: str) -> str:
    """One console screen of a supervisor's merged ``/snapshotz``.

    The fleet endpoint ships a metrics snapshot (counters summed, gauges
    summed, histogram quantiles upper-enveloped across workers), so the
    accuracy panel reads fleet-wide: budget-state gauges are one-hot per
    sketch per worker, hence their sums count sketches in each state.
    """
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    histograms = snapshot.get("histograms") or {}
    lines = [f"treesketch top — fleet {source}  (/snapshotz merge)", ""]
    lines.append(
        "traffic    requests {req:,}  updates {upd:,}  explains {expl:,}  "
        "shed {shed:,}".format(
            req=int(counters.get("serve.requests", 0)),
            upd=int(counters.get("serve.updates", 0)),
            expl=int(counters.get("serve.explains", 0)),
            shed=int(counters.get("serve.shed", 0)))
    )
    lines.append("")
    lines.append(
        "accuracy   sampled {s:,}  evaluated {e:,}  dropped {d:,}  "
        "stale {st:,}  failed {f:,}".format(
            s=int(counters.get("serve.accuracy.sampled", 0)),
            e=int(counters.get("serve.accuracy.evaluated", 0)),
            d=int(counters.get("serve.accuracy.dropped", 0)),
            st=int(counters.get("serve.accuracy.stale_dropped", 0)),
            f=int(counters.get("serve.accuracy.failed", 0)))
    )
    rel = histograms.get("serve.accuracy.rel_error")
    if rel:
        lines.append(
            f"           rel error mean {rel.get('mean', 0.0):.4f}  "
            f"p95<= {rel.get('p95', 0.0):.4f}  max {rel.get('max', 0.0):.4f}"
        )
    if any(f"serve.accuracy.budget_state.{s}" in gauges
           for s in ("ok", "warn", "burning")):
        lines.append("")
        lines.append(
            "budgets    ok {ok:g}  warn {warn:g}  burning {burning:g}  "
            "worst burn {burn:.2f}  transitions {tr:,}".format(
                ok=gauges.get("serve.accuracy.budget_state.ok", 0.0),
                warn=gauges.get("serve.accuracy.budget_state.warn", 0.0),
                burning=gauges.get("serve.accuracy.budget_state.burning", 0.0),
                burn=gauges.get("serve.accuracy.budget_burn_max", 0.0),
                tr=int(counters.get("serve.accuracy.budget_transitions", 0)))
        )
    if "live.debt_total" in gauges or counters.get("live.mutations"):
        lines.append("")
        lines.append(
            "maintain   mutations {mut:,}  remerges {rm:,}  "
            "debt {debt:.1f}".format(
                mut=int(counters.get("live.mutations", 0)),
                rm=int(counters.get("live.remerges", 0)),
                debt=gauges.get("live.debt_total", 0.0))
        )
        if "live.adaptive.threshold" in gauges:
            lines.append(
                "           adaptive threshold {thr:.3f}  "
                "tightened {t:,}  relaxed {r:,}".format(
                    thr=gauges.get("live.adaptive.threshold", 0.0),
                    t=int(counters.get("live.adaptive.tightened", 0)),
                    r=int(counters.get("live.adaptive.relaxed", 0)))
            )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    import json
    import time
    import urllib.request

    from repro.serve.client import parse_address

    try:
        host, port = parse_address(args.address)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    base = f"http://{host}:{port}"
    endpoint = "/snapshotz" if args.fleet else "/statusz"
    render = _render_fleet_snapshot if args.fleet else _render_statusz
    shown = 0
    try:
        while True:
            try:
                with urllib.request.urlopen(
                        f"{base}{endpoint}",
                        timeout=args.http_timeout) as resp:
                    status = json.loads(resp.read().decode("utf-8"))
            except (OSError, ValueError) as exc:
                print(f"cannot poll {base}{endpoint}: {exc}", file=sys.stderr)
                return 1
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(render(status, base), flush=True)
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.qcache import QueryCache

    twigs = list(args.twigs)
    if args.queries_file:
        with open(args.queries_file, "r", encoding="utf-8") as handle:
            twigs.extend(
                line.strip() for line in handle
                if line.strip() and not line.lstrip().startswith("#")
            )
    if not twigs:
        print("estimate needs at least one twig (argument or --queries-file)",
              file=sys.stderr)
        return 2
    sketch = _load_sketch(args.sketch)
    queries = [parse_twig(text) for text in twigs]
    cache = QueryCache(sketch, maxsize=args.cache_size)
    for _ in range(args.repeat):
        for text, query in zip(twigs, queries):
            print(f"{cache.selectivity(query):>16,.1f}  {text}")
    info = cache.info()
    print(
        f"eval cache: {info['hits']} hits, {info['misses']} misses, "
        f"{info['evictions']} evictions ({info['size']}/{info['maxsize']} entries)"
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    tree = _load_document(args.document)
    sketch = _load_sketch(args.sketch)
    query = parse_twig(args.twig)
    evaluator = ExactEvaluator(tree)
    truth = evaluator.evaluate(query)
    result = eval_query(sketch, query)
    estimate = estimate_selectivity(result)
    approx = expand_result(result, max_nodes=args.max_preview_nodes)
    true_count = truth.binding_tuple_count()
    error = abs(estimate - true_count) / max(true_count, 1)
    print(f"exact tuples:     {true_count:,}")
    print(f"estimated tuples: {estimate:,.1f}  (error {error:.1%})")
    print(f"answer ESD:       {esd_nesting_trees(truth, approx):,.1f} (0 = exact)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesketch",
        description="Approximate XML query answers via TreeSketch synopses",
    )
    # Observability flags, shared by every subcommand (docs/OBSERVABILITY.md).
    obs_flags = argparse.ArgumentParser(add_help=False)
    group = obs_flags.add_argument_group("observability")
    group.add_argument(
        "--stats",
        action="store_true",
        help="print internal counters and span timings after the run",
    )
    group.add_argument(
        "--trace",
        metavar="FILE",
        help="write the span trace as JSON lines to FILE",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[obs_flags], **kwargs)

    p = add_parser("stats", help="document and stable-summary statistics")
    p.add_argument("document")
    p.set_defaults(func=cmd_stats)

    p = add_parser("stable", help="build the lossless count-stable summary")
    p.add_argument("document")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_stable)

    p = add_parser("build", help="compress to a TreeSketch under a budget")
    p.add_argument("source",
                   help="XML document or stable summary (.json[.gz]/.tsb)")
    p.add_argument("--budget-kb", type=float, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=("auto", "json", "tsb"),
                   default="auto",
                   help="output format (auto: by extension; see "
                        "docs/STORAGE.md)")
    p.add_argument("--kernel",
                   choices=("auto", "dicts", "arrays"),
                   default="auto",
                   help="TSBUILD partition backend (bit-identical output; "
                        "auto picks dicts or arrays by the summary's edge "
                        "density; see docs/PERFORMANCE.md)")
    p.add_argument("--profile", metavar="FILE",
                   help="dump a cProfile pstats file for the run")
    p.add_argument(
        "--values",
        action="store_true",
        help="annotate the sketch with leaf-value summaries "
             "(enables [path = 'v'] predicates; XML source only)",
    )
    p.set_defaults(func=cmd_build)

    p = add_parser("convert",
                   help="re-encode a synopsis between JSON and binary .tsb")
    p.add_argument("input", help="synopsis file in any format")
    p.add_argument("output", help="destination path")
    p.add_argument("--format", choices=("auto", "json", "tsb"),
                   default="auto",
                   help="output format (auto: by extension)")
    p.set_defaults(func=cmd_convert)

    p = add_parser("inspect",
                   help="header/section/stat summary of a synopsis file")
    p.add_argument("file", help="synopsis file (.json[.gz] or .tsb)")
    p.set_defaults(func=cmd_inspect)

    p = add_parser("query", help="approximate a twig query over a synopsis")
    p.add_argument("sketch", help="synopsis JSON (TreeSketch or stable)")
    p.add_argument("twig", help='e.g. "//a[//b] ( //p ( //k ? ), //n ? )"')
    p.add_argument("--preview", help="write the approximate answer XML here")
    p.add_argument("--max-preview-nodes", type=int, default=2_000_000)
    p.set_defaults(func=cmd_query)

    p = add_parser("explain",
                   help="error provenance for one estimate: top-k "
                        "error-contributing clusters (docs/OBSERVABILITY.md)")
    p.add_argument("twig", help="twig query to explain")
    p.add_argument("--sketch", metavar="PATH",
                   help="local synopsis (.json[.gz]/.tsb) to explain against")
    p.add_argument("--address", metavar="HOST:PORT",
                   help="running daemon to ask instead (explain op)")
    p.add_argument("--name", metavar="SKETCH",
                   help="--address: target sketch (default: the server's "
                        "only sketch)")
    p.add_argument("--top-k", type=int, default=5,
                   help="clusters to report, ranked by error weight "
                        "(default 5)")
    p.set_defaults(func=cmd_explain)

    p = add_parser("exact", help="evaluate a twig query exactly")
    p.add_argument("document")
    p.add_argument("twig")
    p.add_argument("--values", action="store_true",
                   help="keep leaf values (for [path = 'v'] predicates)")
    p.set_defaults(func=cmd_exact)

    p = add_parser("gen-corpus", help="materialize benchmark data sets as XML")
    p.add_argument("directory")
    p.add_argument("datasets", nargs="*",
                   help="data set names (default: all; see repro.datagen)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="size multiplier relative to the benchmark documents")
    p.set_defaults(func=cmd_gen_corpus)

    p = add_parser("compare", help="approximate vs exact, with ESD")
    p.add_argument("document")
    p.add_argument("sketch")
    p.add_argument("twig")
    p.add_argument("--max-preview-nodes", type=int, default=2_000_000)
    p.set_defaults(func=cmd_compare)

    p = add_parser("workload",
                   help="build a sketch and run a selectivity workload over it")
    p.add_argument("document")
    p.add_argument("--budget-kb", type=float, default=10.0)
    p.add_argument("--queries", type=int, default=40,
                   help="number of generated twig queries (default 40)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eval-cache", type=int, default=0, metavar="N",
                   help="canonical-query LRU cache capacity (0 = off)")
    p.add_argument("--server", metavar="HOST:PORT",
                   help="replay the workload against a running serve daemon "
                        "instead of evaluating in-process (docs/SERVING.md)")
    p.add_argument("--sketch-name", metavar="NAME",
                   help="sketch to query in --server mode "
                        "(default: the server's only sketch)")
    p.add_argument("--request-prefix", metavar="PREFIX",
                   help="in --server mode, tag the n-th request with "
                        "request_id PREFIX-n for trace correlation")
    p.add_argument("--kernel",
                   choices=("auto", "dicts", "arrays"),
                   default="auto",
                   help="TSBUILD partition backend for the built sketch "
                        "(bit-identical output; ignored in --server mode)")
    p.add_argument("--profile", metavar="FILE",
                   help="dump a cProfile pstats file for the run")
    p.set_defaults(func=cmd_workload)

    p = add_parser("serve",
                   help="network query daemon over pinned sketches "
                        "(docs/SERVING.md)")
    p.add_argument("sketches", nargs="+", metavar="[NAME=]PATH",
                   help="synopsis (.json[.gz]/.tsb) to pin, or a raw .xml "
                        "document to pin LIVE (needs --live-budget-kb), "
                        "optionally named (default name: file stem)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7077,
                   help="TCP port (0 = ephemeral; default 7077); with "
                        "--workers >= 2 this is the supervisor control "
                        "endpoint and workers get their own data ports")
    p.add_argument("--workers", type=int, default=1,
                   help="serving worker processes (default 1 = in-process "
                        "daemon; >= 2 starts the sharded fleet under a "
                        "supervisor, docs/SERVING.md)")
    p.add_argument("--shard-by", choices=("name", "none"), default="name",
                   help="fleet sharding: 'name' assigns each sketch to one "
                        "worker by consistent hash (default); 'none' loads "
                        "all sketches in every worker and balances "
                        "connections via SO_REUSEPORT")
    p.add_argument("--worker-port", type=int, default=0,
                   help="shared SO_REUSEPORT data port for "
                        "--shard-by none fleets (default 0 = ephemeral)")
    p.add_argument("--threads", type=int, default=1,
                   help="compute threads per worker process (default 1)")
    p.add_argument("--backoff-base-s", type=float, default=0.1,
                   help=argparse.SUPPRESS)
    p.add_argument("--backoff-cap-s", type=float, default=5.0,
                   help=argparse.SUPPRESS)
    p.add_argument("--backoff-reset-s", type=float, default=10.0,
                   help=argparse.SUPPRESS)
    p.add_argument("--shard-index", type=int, default=0,
                   help=argparse.SUPPRESS)  # set by the supervisor
    p.add_argument("--shard-count", type=int, default=1,
                   help=argparse.SUPPRESS)  # set by the supervisor
    p.add_argument("--reuse-port", action="store_true",
                   help=argparse.SUPPRESS)  # set by the supervisor
    p.add_argument("--max-pending", type=int, default=64,
                   help="admission bound; beyond it requests are shed with "
                        "an `overloaded` error (default 64)")
    p.add_argument("--degrade-watermark", type=int, default=None,
                   help="queue depth above which eval degrades to "
                        "selectivity-only (default max-pending/2)")
    p.add_argument("--deadline-ms", type=float, default=10_000.0,
                   help="default per-request deadline (default 10000)")
    p.add_argument("--max-expand-nodes", type=int, default=200_000,
                   help="hard cap on expand answer size (default 200000)")
    p.add_argument("--cache-size", type=int, default=256,
                   help="per-sketch query cache capacity (0 = unbounded)")
    p.add_argument("--live-budget-kb", type=float, default=None,
                   metavar="KB",
                   help="pin raw .xml documents as LIVE sketches built to "
                        "this synopsis budget; live sketches accept the "
                        "update op (docs/MAINTENANCE.md)")
    p.add_argument("--cache-checkpoint-s", type=float, default=None,
                   metavar="SECONDS",
                   help="periodically persist .tsb cache sidecars every "
                        "SECONDS (default: only on graceful shutdown)")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="start an HTTP telemetry sidecar on PORT "
                        "(0 = ephemeral) serving /metrics (Prometheus), "
                        "/healthz and /statusz")
    p.add_argument("--shadow-sample", type=float, default=0.0,
                   metavar="FRACTION",
                   help="replay this fraction of estimate/eval answers "
                        "against a reference off the hot path and record "
                        "serve.accuracy.* metrics (default 0 = off)")
    p.add_argument("--shadow-reference", metavar="PATH",
                   help="reference for --shadow-sample: an XML document "
                        "(exact truth) or a synopsis JSON (stable summary)")
    p.add_argument("--shadow-eval-delay-s", type=float, default=0.0,
                   help=argparse.SUPPRESS)  # test knob: delay shadow scoring
    p.add_argument("--error-budget", type=float, default=None,
                   metavar="REL_ERROR",
                   help="target relative error per sketch: enables the "
                        "accuracy ledger (ok/warn/burning budget states "
                        "from shadow-sampled drift; needs --shadow-sample; "
                        "docs/OBSERVABILITY.md 'Accuracy plane')")
    p.add_argument("--error-budget-window", type=int, default=64,
                   metavar="N",
                   help="trailing shadow samples per sketch behind the "
                        "budget burn rate (default 64)")
    p.add_argument("--adaptive-maintain", action="store_true",
                   help="let measured drift tighten/relax live sketches' "
                        "debt_threshold instead of the fixed knob "
                        "(needs --error-budget and --live-budget-kb)")
    p.add_argument("--drain-s", type=float, default=5.0,
                   help="on SIGTERM/SIGINT, wait up to this long for "
                        "in-flight requests before closing (default 5)")
    p.set_defaults(func=cmd_serve)

    p = add_parser("update",
                   help="mutate a live sketch on a running daemon, or "
                        "generate a mutation workload (docs/MAINTENANCE.md)")
    p.add_argument("address", nargs="?", metavar="HOST:PORT",
                   help="daemon data port (or supervisor control endpoint "
                        "with --pooled); omit in --generate mode")
    p.add_argument("--sketch", metavar="NAME",
                   help="target sketch (default: the server's only sketch)")
    p.add_argument("--action", choices=("insert_subtree", "delete_subtree"),
                   help="apply one mutation")
    p.add_argument("--parent-label", metavar="LABEL",
                   help="insert: label of the attachment-point node")
    p.add_argument("--parent-ordinal", type=int, default=0, metavar="N",
                   help="insert: attach under the N-th preorder node with "
                        "that label (default 0)")
    p.add_argument("--subtree", metavar="SPEC",
                   help="insert: a bare label or JSON "
                        "'[\"label\", [children...]]'")
    p.add_argument("--label", metavar="LABEL",
                   help="delete: label of the subtree root to remove")
    p.add_argument("--ordinal", type=int, default=0, metavar="N",
                   help="delete: the N-th preorder node with that label "
                        "(default 0)")
    p.add_argument("--script", metavar="FILE",
                   help="replay a JSON-lines op script (see --generate)")
    p.add_argument("--pooled", action="store_true",
                   help="ADDRESS is a supervisor control endpoint; route "
                        "each op to the owning worker")
    p.add_argument("--verbose", action="store_true",
                   help="print per-op progress during script replay")
    p.add_argument("--generate", type=int, default=0, metavar="N",
                   help="generate an N-op mutation workload instead of "
                        "talking to a server")
    p.add_argument("--document", metavar="XML",
                   help="--generate: the document the ops must stay valid "
                        "against")
    p.add_argument("--seed", type=int, default=0,
                   help="--generate: RNG seed (default 0)")
    p.add_argument("--insert-fraction", type=float, default=0.5,
                   help="--generate: fraction of inserts vs deletes "
                        "(default 0.5)")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="--generate: write the op script here "
                        "(default stdout)")
    p.set_defaults(func=cmd_update)

    p = add_parser("top",
                   help="live console view of a serve daemon's /statusz "
                        "(or a supervisor's fleet /snapshotz with --fleet)")
    p.add_argument("address", metavar="HOST:PORT",
                   help="the daemon's --metrics-port address (with "
                        "--fleet: the supervisor's)")
    p.add_argument("--fleet", action="store_true",
                   help="poll the supervisor's merged /snapshotz instead "
                        "of a single worker's /statusz, so the accuracy "
                        "panel reads fleet-wide")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--iterations", type=int, default=0, metavar="N",
                   help="stop after N screens (default 0 = until Ctrl-C)")
    p.add_argument("--no-clear", action="store_true",
                   help="append screens instead of clearing the terminal")
    p.add_argument("--http-timeout", type=float, default=5.0,
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_top)

    p = add_parser("estimate",
                   help="estimate twig selectivities over a synopsis, cached")
    p.add_argument("sketch", help="synopsis JSON (TreeSketch or stable)")
    p.add_argument("twigs", nargs="*", help="twig queries")
    p.add_argument("--queries-file", metavar="FILE",
                   help="file with one twig per line (# comments allowed)")
    p.add_argument("--cache-size", type=int, default=256,
                   help="canonical-query LRU capacity (default 256)")
    p.add_argument("--repeat", type=int, default=1,
                   help="evaluate the query list this many times (cache demo)")
    p.add_argument("--profile", metavar="FILE",
                   help="dump a cProfile pstats file for the run")
    p.set_defaults(func=cmd_estimate)

    return parser


def _invoke(args: argparse.Namespace) -> int:
    """Run the subcommand, optionally under cProfile (--profile FILE)."""
    profile_path = getattr(args, "profile", None)
    if not profile_path:
        return args.func(args)
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        code = args.func(args)
    finally:
        profiler.disable()
        try:
            profiler.dump_stats(profile_path)
        except OSError as exc:
            print(f"cannot write profile file: {exc}", file=sys.stderr)
            return 2
        print(f"profile: pstats dump -> {profile_path}", file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if not (getattr(args, "stats", False) or getattr(args, "trace", None)):
        return _invoke(args)

    from repro import obs

    try:
        sink = obs.JsonLinesSink(args.trace) if args.trace else None
    except OSError as exc:
        print(f"cannot open trace file: {exc}", file=sys.stderr)
        return 2
    try:
        with obs.observed(sink=sink) as registry:
            code = _invoke(args)
            if args.stats:
                print()
                print(obs.report.render_registry(registry))
    finally:
        if sink is not None:
            sink.close()
    if args.trace:
        print(f"trace: {sink.events_written} events -> {args.trace}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
