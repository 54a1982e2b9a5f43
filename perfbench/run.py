"""Layered TreeSketch benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload build-sparse --seed 3 --seconds 5 --trace 0

Workloads (why each exists is in perfbench/CATALOGUE.md):

* ``build-sparse`` -- XMark (scale 8) XML -> 10 KB ``.tsb``; auto kernel
  picks the arrays/numpy backend.
* ``build-dense``  -- IMDB (scale 18), auto picks the dict backend.
* ``serve``        -- read-only closed-loop replay against a daemon holding
  the three TX sketches.
* ``live``         -- the same daemon path with writes: one connection
  replays a mutation stream, the other reads.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, the
per-layer split with ``--trace 1``).  The line before it carries the
environment stamp, input fingerprint, backends and per-op accounting.
``--smoke`` shrinks every input (document scale 0.05, a few hundred
requests) for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402

WORKLOADS = ("build-sparse", "build-dense", "serve", "live")

END_TO_END = {
    "setup_s": "s", "build_s": "s", "peak_rss_mb": "MB", "rps": "1/s",
    "read_p50_ms": "ms",
}

PER_LAYER = (
    # build (the timed build on build-*, the sketch preparation elsewhere)
    "xmltree.parser.self_s", "core.stable.self_s", "core.build.init_s",
    "core.pool.self_s", "core.pool.regenerations", "core.pool.skey_hit_ratio",
    "core.partition.score_s", "core.partition.score_calls",
    "core.partition.memo_hit_ratio", "core.build.drain_self_s",
    "core.build.heap_pops", "core.build.stale_ratio", "core.build.merge_yield",
    "core.partition.apply_s", "core.build.merges", "core.store.export_s",
    "build.cpu_s", "build.coverage", "build.parse_stable_share",
    "tsbuild.kernel_numpy", "tsbuild.kernel_arrays", "tsbuild.kernel_dicts",
    # serve and live
    "serve.protocol.decode_ms", "serve.protocol.encode_ms",
    "serve.server.wait_ms.p50", "serve.server.wait_ms.p99",
    "serve.server.batch_size", "client.wire_ms",
    "core.qcache.hit_ratio", "core.qcache.evictions",
    "core.qcache.invalidate_ms",
    "core.evaluate.self_ms.p50", "core.evaluate.self_ms.p99",
    "core.evaluate.node_visits", "core.estimate.self_ms",
    "core.expand.self_ms.p50", "core.expand.self_ms.p99",
    "core.expand.elements", "xmltree.serialize.self_ms",
    "core.live.find_ms", "core.live.reconcile_ms", "core.live.routed_ratio",
    "core.live.remerge_ms.p50", "core.live.remerge_ms.p99",
    "core.live.remerges", "core.live.remerge_merges", "core.live.snapshot_ms",
    # latency per op and of the read tail, and answer quality
    "op.estimate_p50_ms", "op.estimate_p99_ms", "op.eval_p50_ms",
    "op.eval_p99_ms", "op.expand_p50_ms", "op.expand_p99_ms",
    "op.update_p50_ms", "op.update_p99_ms", "op.read_p99_ms",
    "quality.sel_err",
)
#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD = tuple(END_TO_END)


def layer_unit(name: str) -> str:
    if name.startswith("trace.overhead."):
        return END_TO_END[name[len("trace.overhead."):]]
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith(("ratio", "coverage", "share", "yield", "sel_err")):
        return "ratio"
    return "count"


def per_layer_names():
    return list(PER_LAYER) + [f"trace.overhead.{m}" for m in OVERHEAD]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (document scale 0.05)")
    return parser.parse_args(argv)


def run_workload(args, work: str) -> dict:
    ctx = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace), "work": work,
        "scale": 0.05 if args.smoke else 1.0,
        "requests": 300 if args.smoke else 6_000,
        "cold_size": 64 if args.smoke else 1024,
        "updates": 30 if args.smoke else 150,
        "reads": 300 if args.smoke else 1000,
        "prep_build_s": 0.2 if args.smoke else 4.0,
        "phases": common.Phases(),
    }
    if args.workload.startswith("build-"):
        import buildbench

        result = buildbench.run_build(ctx)
    else:
        import servebench

        runner = servebench.run_serve if args.workload == "serve" else servebench.run_live
        result = runner(ctx)
        result["per_op"] = servebench.per_op_accounting(result.pop("decoded"))
    result["detail"]["phases"] = ctx["phases"].seconds
    return result


def finite(value: float) -> float:
    if math.isnan(value):
        raise ValueError("a metric has no samples")
    return value if math.isfinite(value) else 1e9  # a failed request's latency


def result_keys(args):
    """Cache keys of untraced results: this seed's, then the latest."""
    name = args.workload + ("-smoke" if args.smoke else "")
    return f"{name}-s{args.seed}", f"{name}-latest"


def overhead(args, metrics: dict):
    """Traced minus untraced end-to-end numbers (same seed when cached),
    and whether an untraced result was found."""
    baseline = None
    for key in result_keys(args):
        path = common.cache_path("results", key)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                baseline = json.load(handle)
            break
    return {f"trace.overhead.{m}": (metrics[m] - baseline[m] if baseline else 0.0)
            for m in OVERHEAD}, baseline is not None


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *(sys.argv[1:] if argv is None else argv)])
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {common.SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    common.ensure_src_on_path()
    stamp = common.environment_stamp()
    stamp["loadavg_before"] = common.loadavg()
    work = os.path.join(common.WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        result = run_workload(args, work)
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_after"] = common.loadavg()
    e2e = {name: finite(result["metrics"][name]) for name in END_TO_END}
    per_op = result["per_op"]
    attempted = sum(entry["attempted"] for entry in per_op.values())
    failed = sum(entry["failed"] for entry in per_op.values())
    if args.trace:
        layers = result["layers"]
        extra, has_baseline = overhead(args, e2e)
        layers.update(extra)
        metrics = {name: {"value": finite(float(layers.get(name, 0.0))),
                          "unit": layer_unit(name)}
                   for name in per_layer_names()}
        traced = {"traced_end_to_end": e2e, "overhead_baseline": has_baseline}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in e2e.items()}
        for key in result_keys(args):
            with open(common.cache_path("results", key), "w",
                      encoding="utf-8") as handle:
                json.dump(e2e, handle)
        traced = {}
    correct = not result["checks"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "stamp": stamp, "fingerprint": result["fingerprint"],
        "backends": result["backends"], "per_op": per_op,
        "checks_failed": result["checks"][:20],
        "detail": result["detail"],
        **traced,
    }, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
