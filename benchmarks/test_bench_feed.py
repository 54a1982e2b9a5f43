"""The perf-trajectory feed: BENCH_build.json / BENCH_eval.json.

Runs the seed ("before") and optimized ("after") implementations of the
two hot paths back to back on the same machine, in the same process, and
records wall-clock plus the observability counters into ``BENCH_*.json``
at the repository root.  Future PRs append to this trajectory rather than
re-claiming speedups in prose; docs/PERFORMANCE.md explains the knobs and
how to reproduce these numbers.

* Construction: TSBUILD on the largest bundled dataset (XMark, the
  biggest count-stable summary of repro.datagen.DATASETS) at the paper's
  10 KB budget, three arms: before = ``TSBuildOptions(reference=True)``
  (the seed scorer and from-scratch CREATEPOOL, verbatim); after = the
  optimized dict path (``kernel="dicts"``); kernel = the flat-array
  scoring kernel (``kernel="arrays"``, what ``"auto"`` picks on XMark).
  Every arm records which backend produced it under its ``"kernel"``
  key.  All sketches are asserted identical; the dict-path speedup must
  hold the >= 1.5x acceptance bar of the perf overhaul, and the arrays
  kernel must be strictly faster than the dict path.

* Maintenance: a 100-edit mutation workload applied to the live sketch
  (``repro.core.live.SketchMaintainer``) versus the cost of rebuilding
  (build_stable + TSBUILD) once per edit -- the ``maintain`` arm, which
  must clear a 10x acceptance bar against 100 rebuilds.

* Serving: a repeated selectivity workload over the built sketch, with
  and without the canonical-query LRU cache; plus a **fleet throughput
  arm** -- the same concurrent estimate workload replayed against a
  single-process daemon and against a 2-worker supervised fleet
  (``treesketch serve --workers 2``), both real subprocesses.  On
  multi-core machines the fleet should win; on the single-core
  containers this repo often runs in it cannot, and the recorded
  ``note`` says so instead of pretending.

* Cold start: the same sketch loaded from JSON vs the binary ``.tsb``
  store (mmap, O(header) -- must clear the 20x acceptance bar), and a
  real daemon's first-request latency before and after a SIGTERM
  restart with the persisted ``.tsb.cache`` sidecar.

``REPRO_BENCH_ROUNDS`` scales the eval-side repetition (default 3).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import re
import signal
import subprocess
import sys
import threading
import time

from benchmarks.conftest import emit
from repro import obs
from repro.core.build import TSBuildOptions, TreeSketchBuilder
from repro.core.qcache import QueryCache
from repro.core.stable import build_stable
from repro.datagen.datasets import DATASETS
from repro.obs import get_clock
from repro.obs.report import flatten_snapshot
from repro.workload.runner import run_selectivity
from repro.workload.workload import make_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DATASET = "XMark"
BUDGET_KB = 10
EVAL_QUERIES = 30
MIN_BUILD_SPEEDUP = 1.5
MIN_MAINTAIN_SPEEDUP = 10.0


def _machine() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def _sketch_state(sketch):
    return (dict(sketch.label), dict(sketch.count), dict(sketch.stats),
            sketch.root_id)


_FLEET_CLIENTS = 4
_FLEET_REQUESTS = 80  # per client thread

_CONTROL_RE = re.compile(r"control on ([\d.]+):(\d+) \(protocol")
_SERVE_RE = re.compile(r"on (\d+\.\d+\.\d+\.\d+):(\d+) \(protocol")


def _spawn(argv, ready_re):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    deadline = time.monotonic() + 90
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = ready_re.search(line)
        if match:
            threading.Thread(  # keep the pipe drained
                target=lambda: [None for _ in iter(proc.stdout.readline, "")],
                daemon=True).start()
            return proc, (match.group(1), int(match.group(2)))
    proc.kill()
    raise AssertionError("serving process did not report readiness")


def _drive(make_client, queries, sketch_names):
    """``_FLEET_CLIENTS`` threads replaying estimates; returns seconds."""
    clock = get_clock()
    barrier = threading.Barrier(_FLEET_CLIENTS)
    errors = []

    def worker(i):
        try:
            client = make_client()
            try:
                barrier.wait(timeout=30)
                for n in range(_FLEET_REQUESTS):
                    query = queries[(i + n) % len(queries)]
                    name = sketch_names[(i + n) % len(sketch_names)]
                    client.estimate(query, sketch=name)
            finally:
                client.close()
        except Exception as exc:  # noqa: BLE001 - surfaced via assert
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(_FLEET_CLIENTS)]
    start = clock.now()
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    seconds = clock.now() - start
    assert not errors, errors
    return seconds


def _fleet_throughput(sketch, queries, tmp_dir):
    """Single-process vs 2-worker fleet on the same concurrent workload."""
    from repro.core.io import save_synopsis
    from repro.serve.client import PooledClient, ServeClient

    path = tmp_dir / "bench_sketch.json"
    save_synopsis(sketch, str(path))
    specs = [f"alpha={path}", f"beta={path}"]
    names = ["alpha", "beta"]
    total = _FLEET_CLIENTS * _FLEET_REQUESTS

    proc, address = _spawn([*specs, "--port", "0"], _SERVE_RE)
    try:
        single_s = _drive(
            lambda: ServeClient(*address, retries=10), queries, names)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(60)

    proc, control = _spawn(
        [*specs, "--port", "0", "--workers", "2"], _CONTROL_RE)
    try:
        fleet_s = _drive(
            lambda: PooledClient(*control, retries=10), queries, names)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(60)

    speedup = single_s / fleet_s
    cpus = os.cpu_count() or 1
    if cpus <= 2 and speedup < 1.2:
        note = (f"measured on {cpus} cpu(s): the workers contend for the "
                "same core(s), so multi-process serving cannot show its "
                "throughput win here; the arm records honest numbers, not "
                "a claim")
    elif speedup < 1.0:
        note = (f"fleet slower ({speedup:.2f}x) despite {cpus} cpus -- "
                "per-request supervisor/pool overhead dominates this "
                "small workload")
    else:
        note = f"measured on {cpus} cpu(s)"
    return {
        "clients": _FLEET_CLIENTS,
        "requests": total,
        "workers_1": {
            "impl": "single-process daemon (treesketch serve)",
            "seconds": round(single_s, 4),
            "rps": round(total / single_s, 1),
        },
        "workers_2": {
            "impl": "2-worker sharded fleet (treesketch serve --workers 2) "
                    "via PooledClient",
            "seconds": round(fleet_s, 4),
            "rps": round(total / fleet_s, 1),
        },
        "speedup": round(speedup, 2),
        "note": note,
    }


MIN_LOAD_SPEEDUP = 20.0


def _cold_start(sketch, query_text, tmp_dir):
    """JSON vs ``.tsb`` load time, and daemon first-request latency.

    Three measurements: (1) best-of-N ``load_synopsis`` wall-clock for
    the same sketch stored as JSON and as a binary ``.tsb`` store (the
    mmap path is O(header), so it must clear ``MIN_LOAD_SPEEDUP``);
    (2) first-request latency of a freshly started daemon with no cache
    sidecar (a full evaluation); (3) the same after a SIGTERM restart,
    where the persisted ``.tsb.cache`` sidecar answers the repeated
    query without evaluating anything.
    """
    from repro.core.io import load_synopsis, save_synopsis
    from repro.serve.client import ServeClient

    clock = get_clock()
    json_path = tmp_dir / "cold_sketch.json"
    tsb_path = tmp_dir / "cold_sketch.tsb"
    save_synopsis(sketch, str(json_path))
    save_synopsis(sketch, str(tsb_path))

    def best_load(path, repeats=7):
        best = float("inf")
        for _ in range(repeats):
            start = clock.now()
            load_synopsis(str(path))
            best = min(best, clock.now() - start)
        return best

    json_load_s = best_load(json_path)
    tsb_load_s = best_load(tsb_path)
    load_speedup = json_load_s / tsb_load_s

    def first_request(expect_seeded):
        proc, address = _spawn([str(tsb_path), "--port", "0"], _SERVE_RE)
        try:
            with ServeClient(*address, retries=10) as client:
                start = clock.now()
                client.estimate(query_text, sketch="cold_sketch")
                latency = clock.now() - start
                cache = client.call("stats")["sketches"][0]["cache"]
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(60)
        assert (cache["seeded"] > 0) == expect_seeded, cache
        return latency

    # Generation one evaluates from scratch and persists its sidecar on
    # the SIGTERM drain; generation two answers the repeat from it.
    cold_latency_s = first_request(expect_seeded=False)
    warm_latency_s = first_request(expect_seeded=True)

    doc = {
        "json_bytes": os.path.getsize(json_path),
        "tsb_bytes": os.path.getsize(tsb_path),
        "load_json": {
            "impl": "load_synopsis on JSON (parse + dict build)",
            "seconds": round(json_load_s, 6),
        },
        "load_tsb": {
            "impl": "load_synopsis on .tsb (mmap, O(header) lazy)",
            "seconds": round(tsb_load_s, 6),
        },
        "load_speedup": round(load_speedup, 1),
        "first_request_cold": {
            "impl": "fresh daemon, no cache sidecar (full evaluation)",
            "seconds": round(cold_latency_s, 6),
        },
        "first_request_warm": {
            "impl": "restarted daemon, persisted .tsb.cache sidecar "
                    "(seeded cache hit, no evaluation)",
            "seconds": round(warm_latency_s, 6),
        },
        "first_request_speedup": round(cold_latency_s / warm_latency_s, 2),
    }
    return doc, load_speedup


def _timed_build(stable, options):
    clock = get_clock()
    with obs.observed() as registry:
        start = clock.now()
        builder = TreeSketchBuilder(stable, options)
        sketch = builder.compress_to(BUDGET_KB * 1024)
        seconds = clock.now() - start
    return sketch, seconds, flatten_snapshot(registry.snapshot())


def test_bench_feed(tmp_path):
    clock = get_clock()
    rounds = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))
    tree = DATASETS[DATASET]()
    stable = build_stable(tree)

    # ------------------------------------------------------------------
    # Construction: seed vs dict path vs array kernel, same machine,
    # same process.
    # ------------------------------------------------------------------
    before_sketch, before_s, before_counters = _timed_build(
        stable, TSBuildOptions(reference=True)
    )
    after_sketch, after_s, after_counters = _timed_build(
        stable, TSBuildOptions(kernel="dicts")
    )
    kernel_sketch, kernel_s, kernel_counters = _timed_build(
        stable, TSBuildOptions(kernel="arrays")
    )
    assert _sketch_state(before_sketch) == _sketch_state(after_sketch), (
        "optimized TSBUILD diverged from the seed implementation"
    )
    assert _sketch_state(before_sketch) == _sketch_state(kernel_sketch), (
        "array-kernel TSBUILD diverged from the seed implementation"
    )
    build_speedup = before_s / after_s
    kernel_speedup = before_s / kernel_s

    def _tsbuild_counters(flat):
        return {k: v for k, v in flat.items()
                if k.startswith("counters.tsbuild.")}

    # ------------------------------------------------------------------
    # Maintenance: 100 edits on the live sketch vs 100 full rebuilds
    # (build_stable + TSBUILD) of the mutated document.
    # ------------------------------------------------------------------
    import random as _random

    from repro.core.live import SketchMaintainer
    from repro.xmltree.tree import XMLTree

    maintain_edits = 100
    live_tree = tree.copy()
    maintainer = SketchMaintainer(live_tree, BUDGET_KB * 1024)
    rng = _random.Random(17)
    donors = [
        ("listitem", [("text", []), ("keyword", [])]),
        ("bidder", [("date", []), ("time", []), ("personref", [])]),
        ("keyword", []),
    ]
    # Pre-select edit targets so only maintenance itself is timed;
    # inserted sub-trees are the only deletion victims, keeping the
    # pre-selected parents valid throughout.
    initial_nodes = list(live_tree.root.iter_preorder())
    edit_parents = [rng.choice(initial_nodes) for _ in range(maintain_edits)]
    start = clock.now()
    edit_inserted = []
    for i in range(maintain_edits):
        if i % 3 != 2 or not edit_inserted:
            edit_inserted.append(maintainer.insert_subtree(
                edit_parents[i], rng.choice(donors)))
        else:
            maintainer.delete_subtree(
                edit_inserted.pop(rng.randrange(len(edit_inserted))))
    maintain_s = clock.now() - start
    start = clock.now()
    TreeSketchBuilder(
        build_stable(XMLTree(live_tree.root))
    ).compress_to(BUDGET_KB * 1024)
    rebuild_s = clock.now() - start
    maintain_speedup = (rebuild_s * maintain_edits) / maintain_s

    build_doc = {
        "benchmark": "tsbuild_construction",
        "dataset": DATASET,
        "budget_kb": BUDGET_KB,
        "elements": len(tree),
        "stable_summary_kb": round(stable.size_bytes() / 1024, 1),
        "machine": _machine(),
        "before": {
            "impl": "seed (TSBuildOptions(reference=True))",
            "kernel": "dicts",
            "seconds": round(before_s, 3),
            "counters": _tsbuild_counters(before_counters),
        },
        "after": {
            "impl": "optimized dict path (merge memo + persistent pool "
                    "state + fast scorer, kernel='dicts')",
            "kernel": "dicts",
            "seconds": round(after_s, 3),
            "counters": _tsbuild_counters(after_counters),
        },
        "kernel": {
            "impl": "array kernel (flat CSR partition state, "
                    "kernel='arrays')",
            "kernel": "arrays",
            "seconds": round(kernel_s, 3),
            "counters": _tsbuild_counters(kernel_counters),
        },
        "maintain": {
            "impl": "live sketch maintenance (SketchMaintainer, "
                    "repro.core.live)",
            "edits": maintain_edits,
            "seconds": round(maintain_s, 3),
            "per_edit_ms": round(maintain_s * 1000 / maintain_edits, 3),
            "rebuild_seconds_each": round(rebuild_s, 3),
            "speedup_vs_rebuilds": round(maintain_speedup, 1),
        },
        "speedup": round(build_speedup, 2),
        "speedup_kernel": round(kernel_speedup, 2),
        "kernel_vs_dicts": round(after_s / kernel_s, 2),
    }
    (REPO_ROOT / "BENCH_build.json").write_text(
        json.dumps(build_doc, indent=2) + "\n"
    )

    # ------------------------------------------------------------------
    # Serving: repeated workload, uncached vs QueryCache.
    # ------------------------------------------------------------------
    workload = make_workload(tree, num_queries=EVAL_QUERIES, seed=7,
                             stable=stable)
    sketch = after_sketch

    with obs.observed() as registry:
        start = clock.now()
        for _ in range(rounds):
            uncached = run_selectivity(sketch, workload)
        uncached_s = clock.now() - start
    uncached_counters = flatten_snapshot(registry.snapshot())

    with obs.observed() as registry:
        cache = QueryCache(sketch, maxsize=4 * EVAL_QUERIES)
        start = clock.now()
        for _ in range(rounds):
            cached = run_selectivity(sketch, workload, cache=cache)
        cached_s = clock.now() - start
    cached_counters = flatten_snapshot(registry.snapshot())

    assert cached.per_query == uncached.per_query, (
        "cached selectivity run changed the workload's answers"
    )
    eval_speedup = uncached_s / cached_s

    eval_doc = {
        "benchmark": "workload_selectivity_serving",
        "dataset": DATASET,
        "budget_kb": BUDGET_KB,
        "queries": EVAL_QUERIES,
        "rounds": rounds,
        "machine": _machine(),
        "before": {
            "impl": "uncached eval_query + estimate_selectivity",
            "seconds": round(uncached_s, 4),
            "counters": {k: v for k, v in uncached_counters.items()
                         if k.startswith(("counters.eval.",
                                          "counters.estimate."))},
        },
        "after": {
            "impl": f"QueryCache(maxsize={4 * EVAL_QUERIES})",
            "seconds": round(cached_s, 4),
            "counters": {k: v for k, v in cached_counters.items()
                         if k.startswith(("counters.eval.",
                                          "counters.estimate."))},
        },
        "speedup": round(eval_speedup, 2),
    }

    # ------------------------------------------------------------------
    # Fleet throughput: 1 serving process vs a 2-worker supervised
    # fleet, same concurrent workload over real sockets.
    # ------------------------------------------------------------------
    wire_queries = [str(q) for q in workload.queries[:10]]
    fleet = _fleet_throughput(sketch, wire_queries, tmp_path)
    eval_doc["fleet"] = fleet

    # ------------------------------------------------------------------
    # Cold start: JSON vs .tsb load, and first-request latency across a
    # real daemon restart with the persisted cache sidecar.
    # ------------------------------------------------------------------
    cold_doc, load_speedup = _cold_start(sketch, wire_queries[0], tmp_path)
    eval_doc["cold_start"] = cold_doc
    (REPO_ROOT / "BENCH_eval.json").write_text(
        json.dumps(eval_doc, indent=2) + "\n"
    )

    emit(
        "bench_feed",
        "\n".join([
            "Perf feed (before -> after -> kernel, same machine & process)",
            f"  build  {DATASET}@{BUDGET_KB}KB: "
            f"{before_s:.2f}s -> {after_s:.2f}s ({build_speedup:.2f}x) "
            f"-> {kernel_s:.2f}s ({kernel_speedup:.2f}x cumulative, "
            f"{after_s / kernel_s:.2f}x over dicts)",
            f"  maintain {maintain_edits} live edits: {maintain_s:.2f}s vs "
            f"{rebuild_s:.2f}s/rebuild "
            f"({maintain_speedup:.0f}x vs {maintain_edits} rebuilds)",
            f"  eval   {EVAL_QUERIES} queries x {rounds} rounds: "
            f"{uncached_s:.3f}s -> {cached_s:.3f}s  ({eval_speedup:.2f}x)",
            f"  fleet  {fleet['requests']} reqs x {fleet['clients']} "
            f"clients: 1 proc {fleet['workers_1']['rps']} rps -> "
            f"2 workers {fleet['workers_2']['rps']} rps "
            f"({fleet['speedup']:.2f}x; {fleet['note']})",
            f"  cold   load json {cold_doc['load_json']['seconds'] * 1e3:.2f}ms"
            f" -> tsb {cold_doc['load_tsb']['seconds'] * 1e3:.2f}ms "
            f"({load_speedup:.0f}x); first request cold "
            f"{cold_doc['first_request_cold']['seconds'] * 1e3:.2f}ms -> warm "
            f"{cold_doc['first_request_warm']['seconds'] * 1e3:.2f}ms "
            f"({cold_doc['first_request_speedup']:.2f}x)",
            "  -> BENCH_build.json, BENCH_eval.json",
        ]),
    )

    assert build_speedup >= MIN_BUILD_SPEEDUP, (
        f"construction speedup {build_speedup:.2f}x fell below the "
        f"{MIN_BUILD_SPEEDUP}x acceptance bar (before {before_s:.2f}s, "
        f"after {after_s:.2f}s)"
    )
    assert maintain_speedup >= MIN_MAINTAIN_SPEEDUP, (
        f"live maintenance must beat {maintain_edits} rebuilds by "
        f">= {MIN_MAINTAIN_SPEEDUP}x (got {maintain_speedup:.1f}x)"
    )
    assert kernel_s < after_s, (
        f"the arrays kernel ({kernel_s:.2f}s) must beat the dict path "
        f"({after_s:.2f}s) on {DATASET}"
    )
    assert eval_speedup > 1.0
    assert load_speedup >= MIN_LOAD_SPEEDUP, (
        f".tsb load speedup {load_speedup:.1f}x fell below the "
        f"{MIN_LOAD_SPEEDUP}x acceptance bar (json "
        f"{cold_doc['load_json']['seconds'] * 1e3:.2f}ms, tsb "
        f"{cold_doc['load_tsb']['seconds'] * 1e3:.2f}ms)"
    )
