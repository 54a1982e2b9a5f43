"""Shared plumbing of the layered benchmark: paths, seeded inputs, caches,
fingerprints, the environment stamp, ground truth and small statistics.

Everything the benchmark generates lives inside the checkout: seeded
documents and ground truth are cached per seed under ``.perfbench_cache``
and per-run scratch files (sketches, daemon logs, dumps) under
``.perfbench_work``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench_cache")
WORK = os.path.join(ROOT, ".perfbench_work")

#: The paper's synopsis budget for every sketch the benchmark builds.
BUDGET_BYTES = 10 * 1024
#: Expand requests only use queries whose expected approximate answer has
#: at most this many elements: an interactive answer preview, not a bulk
#: export (a 40k-element expansion costs ~100x an estimate and would turn
#: the serving mix into an expand benchmark).
EXPAND_MAX_ELEMENTS = 2000
#: Fixed expand sampling seed, so daemon answers can be checked locally.
EXPAND_SEED = 7

#: The read mix of every workload: op -> share.
READ_MIX = (("estimate", 0.7), ("eval", 0.2), ("expand", 0.1))

#: name -> (generator function name in repro.datagen.datasets, scale, the
#: seed ``DATASETS`` / ``TX_DATASETS`` use).  Benchmark seed s generates
#: with ``base + 1000 * s``, so seed 0 reproduces the bundled documents.
DOCUMENTS = {
    "XMark": ("xmark_like", 40.0, 22),
    "IMDB": ("imdb_like", 18.0, 21),
    "SProt": ("sprot_like", 14.0, 23),
    "XMark-TX": ("xmark_like", 8.0, 12),
    "IMDB-TX": ("imdb_like", 8.0, 11),
    "SProt-TX": ("sprot_like", 7.0, 13),
}


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts.

    ``PYTHONHASHSEED=0`` makes string-set iteration, and with it every
    build, identical across runs of one seed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def ensure_src_on_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def sha1_text(items: Iterable[str]) -> str:
    digest = hashlib.sha1()
    for item in items:
        digest.update(item.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def derive_seed(seed: int, purpose: str) -> int:
    """A stable per-purpose integer seed derived from the run seed."""
    return int(hashlib.sha1(f"{seed}:{purpose}".encode()).hexdigest()[:12], 16)


# ---------------------------------------------------------------- caching


_REVISION: Optional[str] = None


def source_revision() -> str:
    """Content hash of ``src/repro``: cached inputs and truths are only
    reused for the very source that made them."""
    global _REVISION
    if _REVISION is None:
        digest = hashlib.sha1()
        for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(base, name), "rb") as handle:
                        digest.update(name.encode() + handle.read())
        _REVISION = digest.hexdigest()
    return _REVISION


def cache_path(kind: str, key: str, suffix: str = ".json") -> str:
    directory = os.path.join(CACHE, source_revision()[:16], kind)
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, key + suffix)


def cached_json(kind: str, key: str, compute):
    """``compute()`` once per key; the JSON result is kept in the cache."""
    path = cache_path(kind, key)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    value = compute()
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(value, handle)
    os.replace(tmp, path)
    return value


def document_xml(name: str, seed: int, scale_factor: float = 1.0) -> str:
    """Path of the seeded document ``name`` as XML text (generated once)."""
    func, scale, base = DOCUMENTS[name]
    scale *= scale_factor
    doc_seed = base + 1000 * seed
    path = cache_path("docs", f"{name}-x{scale:g}-d{doc_seed}", ".xml")
    if not os.path.exists(path):
        from repro.datagen import datasets
        from repro.xmltree.serialize import to_xml

        tree = getattr(datasets, func)(scale=scale, seed=doc_seed)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(to_xml(tree))
        os.replace(tmp, path)
    return path


def document_facts(xml_path: str) -> Dict[str, object]:
    """Parsed tree, stable summary and the fingerprint facts of a document."""
    from repro.core.stable import build_stable
    from repro.xmltree.parser import parse_xml_file

    tree = parse_xml_file(xml_path)
    stable = build_stable(tree)
    return {
        "tree": tree,
        "stable": stable,
        "elements": len(tree),
        "stable_bytes": stable.size_bytes(),
        "density": round(stable.num_edges / max(1, len(stable.count)), 3),
    }


def document_info(xml_path: str, count: int, seed: int) -> Dict[str, object]:
    """Fingerprint facts plus ``count`` seeded queries of one document."""
    def compute():
        facts = document_facts(xml_path)
        info = {k: facts[k] for k in ("elements", "stable_bytes", "density")}
        info["queries"] = sample_queries(facts["stable"], count, seed)
        return info

    key = f"{os.path.basename(xml_path)}-q{count}-s{seed}"
    return cached_json("info", key, compute)


def sample_queries(stable, count: int, seed: int) -> List[str]:
    """``count`` distinct positive twig queries (canonical text), seeded."""
    from repro.query.generator import WorkloadGenerator, WorkloadOptions

    options = WorkloadOptions(num_queries=count, seed=seed)
    generator = WorkloadGenerator(stable, options)
    import random

    rng = random.Random(seed)
    seen: Dict[str, None] = {}
    attempts = 0
    while len(seen) < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("query sampling is not converging")
        query = generator.sample_query(rng)
        if query is not None:
            seen.setdefault(str(query), None)
    return list(seen)


# ----------------------------------------------------------- ground truth


def exact_truths(jobs: Sequence[tuple]) -> List[List[int]]:
    """Exact selectivities for ``[(xml_path, [query, ...]), ...]``.

    Ground truth is the costliest untimed step (tens of ms per query on a
    200k-element document), so it is cached per (document, query list).
    """
    from repro.engine.exact import ExactEvaluator
    from repro.query.parser import parse_twig
    from repro.xmltree.parser import parse_xml_file

    results = []
    for xml_path, queries in jobs:
        key = sha1_text([os.path.basename(xml_path)] + list(queries))

        def compute(xml_path=xml_path, queries=queries):
            evaluator = ExactEvaluator(parse_xml_file(xml_path))
            return [evaluator.selectivity(parse_twig(q)) for q in queries]

        results.append(cached_json("truth", key, compute))
    return results


def pick_mix_op(rng, mix=READ_MIX) -> str:
    """One op drawn from ``mix`` (op -> share pairs)."""
    roll = rng.random()
    for op, share in mix:
        if roll < share:
            return op
        roll -= share
    return mix[-1][0]


def sel_err(truths: Sequence[float], estimates: Sequence[float]) -> float:
    """Mean sanity-bounded relative error (repro.metrics.error)."""
    from repro.metrics.error import average_error

    return average_error(list(zip(truths, estimates)))


# ------------------------------------------------------------- statistics


#: Iterations of the calibration loop, and the time it takes at the
#: reference speed all reported times are scaled to.
CALIBRATION_LOOPS = 400_000
REFERENCE_LOOP_S = 0.025
#: Timed reads and serving replays run in this many slices, calibrated
#: in between.
SLICES = 5


def calibrate(samples: int = 5) -> List[float]:
    """Seconds per run of a fixed pure-Python loop, ``samples`` times.

    The benchmark host's speed drifts by up to ±40 % over tens of seconds
    (shared physical cores), which swamps run-to-run comparisons.  Each
    timed phase is bracketed by calibration samples, and its times are
    reported scaled to the reference speed (see ``speed_scale``).
    """
    out = []
    for _ in range(samples):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i
        out.append(time.perf_counter() - started)
    return out


def speed_scale(samples: Sequence[float]) -> float:
    """Factor turning a measured time into reference-speed time."""
    return REFERENCE_LOOP_S / statistics.median(samples)


def _reads(lat_ms: Dict[str, List[float]]) -> List[float]:
    return [v for op in ("estimate", "eval", "expand") for v in lat_ms.get(op, [])]


def read_latency(lat_ms: Dict[str, List[float]]) -> Dict[str, float]:
    """End-to-end read latency: every estimate, eval and expand together."""
    return {"read_p50_ms": percentile(_reads(lat_ms), 50)}


def op_latency_layers(lat_ms: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-op latency percentiles (per-layer metrics ``op.<op>_p50_ms``...)
    and the tail of all reads together, ``op.read_p99_ms``."""
    out = {"op.read_p99_ms": percentile(_reads(lat_ms), 99)}
    for op, values in lat_ms.items():
        if values:
            out[f"op.{op}_p50_ms"] = percentile(values, 50)
            out[f"op.{op}_p99_ms"] = percentile(values, 99)
    return out


class Phases:
    """Wall seconds per named phase of a run (printed on the detail line)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - started)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; failed samples enter as +inf."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


# ------------------------------------------------------ environment stamp


def _source_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    # Not a git checkout: identify the source by content instead.
    return "src-sha1:" + source_revision()


def environment_stamp() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "revision": _source_revision(),
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "platform": platform.platform(),
    }


def loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return float("nan")


def timed_import_setups(count: int) -> List[float]:
    """Seconds from a fresh interpreter's start to ``import repro`` done."""
    code = "import time, repro; print(repr(time.time()))"
    samples = []
    for _ in range(count):
        started = time.time()
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]) - started)
    return samples
