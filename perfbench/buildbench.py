"""TSBUILD workloads: XML text -> parse -> stable summary -> TSBUILD at the
10 KB budget -> saved ``.tsb``, timed in a fresh interpreter.

``run_child`` is the build interpreter: ``python3 perfbench/buildbench.py
SPEC OUT`` reads a JSON spec, builds every document in it (repeating the
whole set until ``seconds`` have passed, at least once), checks the
sketches, and writes its measurements to OUT.  The serving workloads use
the same child to make the sketches they serve.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402


class SlicedClock:
    """Reference-speed time of one timed region, calibrated at marks.

    ``mark()`` closes the current slice, calibrates outside the timing and
    opens the next slice; each slice is scaled by the calibrations on its
    two sides (see ``common.calibrate``).
    """

    def __init__(self) -> None:
        self.raw = self.scaled = self.calibration_s = 0.0
        self._calibration = common.calibrate()
        self._start = time.perf_counter()

    def mark(self) -> None:
        now = time.perf_counter()
        calibration = common.calibrate()
        self.calibration_s += time.perf_counter() - now
        self.raw += now - self._start
        self.scaled += (now - self._start) * common.speed_scale(
            self._calibration + calibration)
        self._calibration = calibration
        self._start = time.perf_counter()


def run_child(spec: Dict) -> Dict:
    """Build (and optionally query) the documents in ``spec``."""
    common.ensure_src_on_path()
    from repro import obs
    from repro.core import build, io, stable
    from repro.xmltree import parser

    layer_clock = None
    active: Dict[str, SlicedClock] = {}
    if spec["trace"]:
        import layers

        layer_clock = layers.LayerClock()
        layers.install_build_layers(layer_clock)
    else:
        # Untraced builds calibrate at every pool regeneration (about ten
        # per XMark build), so a long build is scaled slice by slice.
        create_pool = build.create_pool

        def create_pool_marked(*args, **kwargs):
            if "clock" in active:
                active["clock"].mark()
            return create_pool(*args, **kwargs)

        build.create_pool = create_pool_marked

    budget = spec["budget"]
    perf = time.perf_counter
    iterations: List[List[float]] = []
    scaled: List[List[float]] = []
    sketches = {}
    backends = {}
    calibration_s = 0.0
    with obs.observed() as registry:
        kernels = {name: registry.counter(f"tsbuild.kernel_{name}")
                   for name in ("numpy", "arrays", "dicts")}
        cpu_start = time.process_time()
        started = perf()
        while True:
            per_doc, per_doc_scaled = [], []
            for doc in spec["docs"]:
                before = {k: c.value for k, c in kernels.items()}
                clock = active["clock"] = SlicedClock()
                tree = parser.parse_xml_file(doc["xml"])
                summary = stable.build_stable(tree)
                builder = build.TreeSketchBuilder(summary)
                sketch = builder.compress_to(budget)
                io.save_synopsis(sketch, doc["tsb"])
                clock.mark()
                del active["clock"]
                calibration_s += clock.calibration_s
                per_doc.append(clock.raw)
                per_doc_scaled.append(clock.scaled)
                backends[doc["name"]] = [k for k, c in kernels.items()
                                         if c.value > before[k]]
                sketches[doc["name"]] = sketch
                del tree, summary, builder
            iterations.append(per_doc)
            scaled.append(per_doc_scaled)
            if perf() - started >= spec["seconds"]:
                break
        cpu_s = time.process_time() - cpu_start - calibration_s
        counters = registry.snapshot()["counters"]
    out = {
        "iterations": iterations,
        "scaled_iterations": scaled,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": counters,
        "backends": backends,
        "docs": {},
        "checks": [],
    }
    for doc in spec["docs"]:
        sketch = sketches[doc["name"]]
        size = sketch.size_bytes()
        out["docs"][doc["name"]] = {"size_bytes": size,
                                    "nodes": sketch.num_nodes}
        if size > budget:
            out["checks"].append(
                f"{doc['name']}: sketch is {size} bytes, over the "
                f"{budget}-byte budget")
    if layer_clock is not None:
        out["layers"] = layer_clock.summary()
    if spec.get("queries"):
        # Start the timed reads from a collected, frozen heap, so they do
        # not pay for collecting the build's garbage.
        gc.collect()
        gc.freeze()
        _query_phase(spec, sketches, out)
    return out


def _query_phase(spec: Dict, sketches: Dict, out: Dict) -> None:
    """Check the stored sketches, then answer a timed read mix on them.

    The stored sketch must answer every workload query bitwise-identically
    to the same sketch reloaded from JSON (the store's contract).  The
    sketch still in memory after the build does not always agree with its
    own reloaded copy (in the last bits on many queries, by a few percent
    on some), so those differences are counted in ``memory_vs_tsb``
    rather than failed.  The timed reads then draw BUILD_READ_MIX from
    the read queries, in process and without a cache, on the reloaded
    ``.tsb``.
    """
    import random

    from repro.core.estimate import estimate_bindings, estimate_selectivity
    from repro.core.evaluate import eval_query
    from repro.core.io import load_synopsis, save_synopsis
    from repro.query.parser import parse_twig

    estimates = {}
    diffs: Dict[str, float] = {}
    prepared = []
    for doc in spec["docs"]:
        name = doc["name"]
        queries = [parse_twig(text) for text in spec["queries"][name]]
        sketch = sketches[name]
        json_path = doc["tsb"] + ".json"
        save_synopsis(sketch, json_path, format="json")
        from_json = load_synopsis(json_path)
        loaded = load_synopsis(doc["tsb"])
        stored = []
        for query in queries:
            result = eval_query(sketch, query)
            near = estimate_selectivity(result)
            want = estimate_selectivity(eval_query(from_json, query))
            got = estimate_selectivity(eval_query(loaded, query))
            if got != want:
                out["checks"].append(f"{name}: .tsb estimates {got!r} for "
                                     f"{query} but the JSON copy {want!r}")
            if got != near:
                diffs[str(query)] = abs(got - near) / max(1.0, abs(near))
            stored.append(got)
        estimates[name] = stored
        prepared.append((loaded, [parse_twig(text)
                                  for text in spec["read_queries"][name]]))
    out["estimates"] = estimates
    out["memory_vs_tsb"] = {"queries": len(diffs),
                            "max_rel_diff": max(diffs.values(), default=0.0)}

    perf = time.perf_counter
    rng = random.Random(spec["read_seed"])
    lat: Dict[str, List[float]] = {op: [] for op, _ in BUILD_READ_MIX}
    busy = 0.0  # at reference speed, like every latency below
    per_slice = -(-spec["reads"] // common.SLICES)
    before = common.calibrate()
    for start in range(0, spec["reads"], per_slice):
        raw: Dict[str, List[float]] = {op: [] for op in lat}
        for index in range(start, min(spec["reads"], start + per_slice)):
            loaded, queries = prepared[index % len(prepared)]
            op = common.pick_mix_op(rng, BUILD_READ_MIX)
            query = rng.choice(queries)
            t0 = perf()
            result = eval_query(loaded, query)
            estimate_selectivity(result)
            if op == "eval":
                estimate_bindings(result)
            raw[op].append(perf() - t0)
        after = common.calibrate()
        scale = common.speed_scale(before + after)
        before = after
        for op, values in raw.items():
            lat[op] += [v * scale for v in values]
            busy += sum(values) * scale
    out["latencies"] = lat
    out["query_busy_s"] = busy


# ------------------------------------------------------------ parent side


def run_build_child(spec: Dict, work: str, tag: str) -> Dict:
    """Run one fresh build interpreter on ``spec``; returns its report."""
    spec_path = os.path.join(work, f"{tag}-spec.json")
    out_path = os.path.join(work, f"{tag}-out.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), spec_path, out_path],
        env=common.child_env(), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"build interpreter failed ({proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


#: workload -> documents it builds, each repeated until ``--seconds``
#: passed.  build-sparse uses XMark at the TX scale (8): one scale-40
#: build takes 25-50 s here and its time moved by a third between runs
#: even after calibration, while 2 s builds repeated in a run hold steady.
#: build-dense holds IMDB only, to fit the run budget; SProt is built and
#: served by the serve and live workloads.
BUILD_DOCUMENTS = {"build-sparse": ("XMark-TX",), "build-dense": ("IMDB",)}
QUERIES_PER_DOCUMENT = 200
#: Distinct queries the timed reads draw estimates and evals from; the
#: first QUERIES_PER_DOCUMENT are also checked and scored.  Many distinct
#: queries keep the read percentiles from resting on a few query shapes.
READ_QUERIES_PER_DOCUMENT = 1000
#: The in-process read mix of the build workloads: the selectivity path
#: a query optimiser uses.  Expands are left to serve: the cost of the few
#: answers small enough to expand differs so much between seeds that the
#: read rate moved by a fifth between runs with them.
BUILD_READ_MIX = (("estimate", 0.8), ("eval", 0.2))


def run_build(ctx: Dict) -> Dict:
    seed, work, phases = ctx["seed"], ctx["work"], ctx["phases"]
    names = BUILD_DOCUMENTS[ctx["workload"]]
    docs, queries, read_queries, fingerprint = [], {}, {}, {"documents": {}}
    with phases("inputs"):
        for name in names:
            xml = common.document_xml(name, seed, ctx["scale"])
            info = common.document_info(xml, READ_QUERIES_PER_DOCUMENT,
                                        common.derive_seed(seed, f"build/{name}"))
            docs.append({"name": name, "xml": xml,
                         "tsb": os.path.join(work, f"{name}.tsb")})
            read_queries[name] = info["queries"]
            queries[name] = info["queries"][:QUERIES_PER_DOCUMENT]
            fingerprint["documents"][name] = {
                k: info[k] for k in ("elements", "stable_bytes", "density")}
        fingerprint["queries_sha1"] = common.sha1_text(
            q for name in names for q in read_queries[name])
    with phases("setup"):
        before = common.calibrate()
        setups = common.timed_import_setups(3)
        setup_scale = common.speed_scale(before + common.calibrate())
    with phases("build"):
        report = run_build_child({
            "docs": docs, "budget": common.BUDGET_BYTES,
            "seconds": ctx["seconds"], "trace": ctx["trace"],
            "queries": queries, "read_queries": read_queries,
            "reads": ctx["reads"],
            "read_seed": common.derive_seed(seed, "build/reads"),
        }, work, "build")
    lat_ms = {op: [s * 1000.0 for s in values]
              for op, values in report["latencies"].items()}
    per_pass = [sum(it) for it in report["iterations"]]
    metrics = {
        "setup_s": common.median(setups) * setup_scale,
        "build_s": common.median([sum(it) for it in report["scaled_iterations"]]),
        "peak_rss_mb": report["peak_rss_mb"],
        "rps": ctx["reads"] / report["query_busy_s"],
    }
    metrics.update(common.read_latency(lat_ms))
    result = {
        "metrics": metrics, "checks": report["checks"],
        "fingerprint": fingerprint, "backends": report["backends"],
        "per_op": {op: {"attempted": n, "failed": 0, "failed_share": 0.0,
                        "errors": {}}
                   for op, n in [("build", len(per_pass) * len(docs))]
                   + [(op, len(v)) for op, v in lat_ms.items()]},
        "detail": {"setup_samples": setups, "setup_scale": setup_scale,
                   "build_passes": per_pass,
                   "sizes": report["docs"],
                   "memory_vs_tsb": report["memory_vs_tsb"]},
    }
    if ctx["trace"]:
        with phases("truth"):
            truths = common.exact_truths([(doc["xml"], queries[doc["name"]])
                                          for doc in docs])
        errors = [common.sel_err(truth, report["estimates"][doc["name"]])
                  for doc, truth in zip(docs, truths)]
        layers = build_layer_metrics(report)
        layers.update(common.op_latency_layers(lat_ms))
        layers["quality.sel_err"] = sum(errors) / len(errors)
        result["layers"] = layers
    return result


def build_layer_metrics(report: Dict) -> Dict[str, float]:
    """Per-layer metrics of a traced build report (per build pass)."""
    totals = report["layers"]["totals"]
    passes = len(report["iterations"])

    def self_s(layer: str) -> float:
        return totals.get(layer, [0, 0.0, 0.0])[2] / passes

    c = report["counters"]
    pops = c.get("tsbuild.heap_pops", 0)
    memo = c.get("tsbuild.memo_hits", 0) + c.get("tsbuild.memo_misses", 0)
    skey = c.get("tsbuild.skey_cache_hits", 0) + c.get("tsbuild.skey_recomputes", 0)
    build_s = sum(sum(it) for it in report["iterations"]) / passes
    layer_s = {
        "xmltree.parser.self_s": self_s("xmltree.parser"),
        "core.stable.self_s": self_s("core.stable"),
        "core.build.init_s": self_s("core.build.init"),
        "core.pool.self_s": self_s("core.pool"),
        "core.partition.score_s": self_s("core.partition.score"),
        "core.build.drain_self_s": self_s("core.build.drain"),
        "core.partition.apply_s": self_s("core.partition.apply"),
        "core.store.export_s": self_s("core.store.export"),
    }
    metrics = dict(layer_s)
    metrics.update({
        "core.pool.regenerations": c.get("tsbuild.pool_regenerations", 0) / passes,
        "core.pool.skey_hit_ratio": c.get("tsbuild.skey_cache_hits", 0) / skey if skey else 0.0,
        "core.partition.score_calls": totals.get(
            "core.partition.score", [0])[0] / passes,
        "core.partition.memo_hit_ratio": c.get("tsbuild.memo_hits", 0) / memo if memo else 0.0,
        "core.build.heap_pops": pops / passes,
        "core.build.stale_ratio": c.get("tsbuild.stale_recomputations", 0) / pops if pops else 0.0,
        "core.build.merge_yield": c.get("tsbuild.merges_applied", 0) / pops if pops else 0.0,
        "core.build.merges": c.get("tsbuild.merges_applied", 0) / passes,
        "build.cpu_s": report["cpu_s"] / passes,
        "build.coverage": sum(layer_s.values()) / build_s if build_s else 0.0,
        "build.parse_stable_share": ((layer_s["xmltree.parser.self_s"]
                                      + layer_s["core.stable.self_s"]) / build_s
                                     if build_s else 0.0),
    })
    for backend in ("numpy", "arrays", "dicts"):
        metrics[f"tsbuild.kernel_{backend}"] = c.get(f"tsbuild.kernel_{backend}", 0) / passes
    return metrics


def main(argv: List[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    report = run_child(spec)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
