"""Self-time accounting around calls into the library's layers.

The traced run wraps each layer's public entry points (patched where the
caller looks them up) with :meth:`LayerClock.wrap`.  A wrapper keeps no
per-call span: it adds the call's wall time and self time (wall time minus
the time of wrapped calls nested inside it, on the same thread) to its
layer's running totals, which is what keeps the million-call score and
apply layers cheap to trace.  Layers that need percentiles also keep their
per-call self times in memory.  Nothing is written until the process asks
for :meth:`LayerClock.summary`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional


class LayerClock:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: layer -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: layer -> per-call self seconds (layers wrapped with samples=True)
        self.samples: Dict[str, List[float]] = {}

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, layer: str, elapsed: float, own: float,
                keep: bool) -> None:
        with self._lock:
            entry = self.totals.get(layer)
            if entry is None:
                entry = self.totals[layer] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += own
            if keep:
                self.samples.setdefault(layer, []).append(own)

    def wrap(self, layer: str, fn: Callable, samples: bool = False,
             on_call: Optional[Callable] = None) -> Callable:
        """``fn`` with its calls charged to ``layer``.

        ``on_call(args, result, own_seconds)`` runs after each successful
        call, outside the timed region.
        """
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._record(layer, elapsed, elapsed - nested, samples)
            if on_call is not None:
                on_call(args, result, elapsed - nested)
            return result

        return wrapper

    def patch(self, owner, name: str, layer: str, **kwargs) -> None:
        """Replace ``owner.name`` (a module or class attribute) in place."""
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        setattr(owner, name, self.wrap(layer, original, **kwargs))

    def summary(self) -> Dict[str, object]:
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self.totals.items()},
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


def install_build_layers(clock: LayerClock) -> None:
    """Wrap the TSBUILD pipeline's layers (parse through export)."""
    from repro.core import build, io, kernel, partition, stable
    from repro.xmltree import parser

    clock.patch(parser, "parse_xml_file", "xmltree.parser")
    clock.patch(stable, "build_stable", "core.stable")
    clock.patch(build.TreeSketchBuilder, "__init__", "core.build.init")
    clock.patch(build.TreeSketchBuilder, "compress_to", "core.build.drain")
    clock.patch(build, "create_pool", "core.pool")
    for cls in (kernel.KernelPartition, partition.MergePartition):
        clock.patch(cls, "scored_merge", "core.partition.score")
        clock.patch(cls, "eval_block", "core.partition.score")
        clock.patch(cls, "apply_merge", "core.partition.apply")
        clock.patch(cls, "to_treesketch", "core.store.export")
    clock.patch(io, "save_synopsis", "core.store.export")


def install_serve_layers(clock: LayerClock, on_decode, on_encode) -> None:
    """Wrap the daemon's request path, cache and maintenance layers."""
    from repro.core import live, qcache
    from repro.serve import protocol, server

    clock.patch(protocol, "parse_request", "serve.protocol.decode",
                on_call=on_decode)
    clock.patch(protocol, "encode_response", "serve.protocol.encode",
                on_call=on_encode)
    clock.patch(qcache, "eval_query", "core.evaluate", samples=True)
    clock.patch(qcache, "estimate_selectivity", "core.estimate")
    clock.patch(qcache, "estimate_selectivity_batch", "core.estimate")
    clock.patch(server, "estimate_bindings", "core.estimate")
    clock.patch(server, "expand_result", "core.expand", samples=True)
    clock.patch(server, "to_xml", "xmltree.serialize")
    clock.patch(qcache.QueryCache, "invalidate", "core.qcache.invalidate")
    # The registry imports find_labeled from repro.core.live per update.
    clock.patch(live, "find_labeled", "core.live.find")
    clock.patch(live.SketchMaintainer, "insert_subtree", "core.live.edit")
    clock.patch(live.SketchMaintainer, "delete_subtree", "core.live.edit")
    clock.patch(live.SketchMaintainer, "snapshot", "core.live.snapshot")
