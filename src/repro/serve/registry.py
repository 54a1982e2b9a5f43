"""The sketch registry: named, pinned synopses ready to serve.

A serving daemon holds several frozen TreeSketches at once (one per
document or per budget tier) and routes each request by name.  The
registry loads them through :mod:`repro.core.io` (stable summaries are
promoted to their zero-error sketch, so anything `save_synopsis` wrote is
servable, including ``.json.gz``), pins them in memory, and gives each
one a dedicated :class:`repro.core.qcache.QueryCache` -- the per-sketch
canonical-query LRU that makes repeated serving cheap.

Frozen sketches are registered once, before the server starts, and
treated as immutable afterwards; lookups are read-only dict hits and
never lock.  **Live** entries (:class:`LiveSketch`, loaded from a raw
``.xml`` document with a live budget) additionally own a
:class:`repro.core.live.SketchMaintainer` and accept ``update``
mutations: each mutation runs under the entry's lock, materializes a
fresh snapshot, and swaps it in through
:meth:`repro.core.qcache.QueryCache.invalidate` -- the epoch bump that
guarantees a post-mutation request can never be answered from a
pre-mutation cache entry (docs/MAINTENANCE.md).  An entry's ``sketch``
is its cache's binding, so the sketch and the epoch change together.

Binary ``.tsb`` stores (docs/STORAGE.md) get two extras here.  They are
mmap-loaded, so N supervisor-forked workers pinning the same file share
one physical copy of the section buffers through the page cache.  And
their ``.tsb.cache`` sidecar -- selectivities a previous daemon process
persisted on graceful shutdown via :meth:`SketchRegistry.save_caches` --
is restored into the fresh :class:`QueryCache` at load time iff its
checksum still matches the store (``store.cache.restored`` /
``store.cache.ignored_stale`` count the outcomes), which is what makes
a daemon restart warm instead of cold.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple, Union

from repro.core.io import load_synopsis
from repro.core.qcache import QueryCache
from repro.core.stable import StableSummary
from repro.core.store import load_cache_sidecar, save_cache_sidecar
from repro.core.treesketch import TreeSketch
from repro.obs import get_metrics
from repro.workload.mutations import MutationOp, apply_mutation


def name_from_path(path: str) -> str:
    """Default sketch name for a file: basename minus its synopsis suffix."""
    base = os.path.basename(path)
    for suffix in (".json.gz", ".json", ".tsb", ".xml"):
        if base.endswith(suffix):
            return base[: -len(suffix)]
    return os.path.splitext(base)[0] or base


def parse_spec(spec: str) -> Tuple[str, str]:
    """Split one CLI sketch spec ``[NAME=]PATH`` into ``(name, path)``.

    Naming is resolved *before* any file is read, so the sharded serving
    tier can decide ownership of a sketch (``repro.serve.sharding``)
    without loading it -- a worker only pays load time for its own shard.
    """
    name, sep, path = spec.partition("=")
    if not sep:
        return name_from_path(spec), spec
    if not name:
        raise ValueError(f"empty sketch name in spec {spec!r}")
    return name, path


class RegisteredSketch:
    """One pinned sketch: its cache (which binds the synopsis) and its
    provenance.

    ``checksum`` is the ``.tsb`` payload CRC32 for mmap-loaded sketches
    (None for JSON loads) -- the key that scopes this sketch's cache
    sidecar, so a sidecar written against yesterday's synopsis can never
    warm today's.
    """

    __slots__ = ("name", "cache", "path", "checksum")

    def __init__(self, name: str, cache: QueryCache,
                 path: Optional[str] = None,
                 checksum: Optional[int] = None) -> None:
        self.name = name
        self.cache = cache
        self.path = path
        self.checksum = checksum

    @property
    def sketch(self) -> TreeSketch:
        """The synopsis served now: the one the cache is bound to."""
        return self.cache.sketch

    def describe(self) -> Dict[str, object]:
        """Metadata for ``list_sketches`` responses."""
        sketch = self.sketch
        return {
            "name": self.name,
            "path": self.path,
            "nodes": sketch.num_nodes,
            "edges": sketch.num_edges,
            "size_bytes": sketch.size_bytes(),
            "cache": self.cache.info(),
            "checksum": self.checksum,
            "live": False,
        }


class LiveSketch(RegisteredSketch):
    """A mutable registry entry backed by a live sketch maintainer.

    ``sketch`` is always the maintainer's most recent published snapshot
    -- a plain frozen :class:`TreeSketch`, so every read path
    (eval/estimate/expand, the query cache, describe) works unchanged.
    Every write runs under ``_mut_lock`` (serializing concurrent writers)
    and ends in :meth:`_publish`, the one place a new snapshot is served.
    """

    __slots__ = ("maintainer", "_mut_lock")

    def __init__(self, name: str, maintainer, cache: QueryCache,
                 path: Optional[str] = None) -> None:
        super().__init__(name, cache, path=path)
        self.maintainer = maintainer
        self._mut_lock = threading.Lock()

    def update(self, op: MutationOp) -> Dict[str, object]:
        """Apply one validated op; returns the post-mutation wire payload.

        Raises :class:`KeyError` when the op's address does not resolve
        and :class:`ValueError` for an invalid edit (deleting the root)
        -- the server maps both to ``bad_request``.
        """
        with self._mut_lock:
            apply_mutation(self.maintainer, op)
            epoch = self._publish()
            sketch, info = self.sketch, self.maintainer.info()
            return {
                "sketch": self.name,
                "action": op.action,
                "epoch": epoch,
                "mutations": info["mutations"],
                "remerges": info["remerges"],
                "debt": info["debt_total"],
                "nodes": sketch.num_nodes,
                "edges": sketch.num_edges,
                "size_bytes": sketch.size_bytes(),
            }

    def observe_error(self, rel_error: float) -> None:
        """Feed one shadow-measured relative error to the maintainer's
        adaptive ``debt_threshold`` controller (no-op when disabled).

        Runs under the mutation lock -- the controller may trigger a
        re-merge, which must serialize with concurrent updates like any
        other write, and is published like one.
        """
        maintainer = self.maintainer
        if maintainer.adaptive is None:
            return
        with self._mut_lock:
            before = maintainer.remerges
            maintainer.observe_error(rel_error)
            if maintainer.remerges != before:
                self._publish()

    def _publish(self) -> int:
        """Serve the maintainer's current state; returns the new epoch.

        The epoch bump *is* the consistency barrier: ``cache.invalidate``
        rebinds the snapshot, drops the answers cached against the old
        one and bumps the epoch, all under the cache's lock.  A queued
        shadow sample tagged with the old epoch is dropped as stale.  The
        caller holds ``_mut_lock``.
        """
        # Rebinding drops what is usually the last reference to the old
        # snapshot: hold it so it is freed after invalidate has released
        # the cache lock that reads wait on.
        retired = self.cache.sketch
        epoch = self.cache.invalidate(sketch=self.maintainer.snapshot())
        del retired
        return epoch

    def describe(self) -> Dict[str, object]:
        doc = super().describe()
        info = self.maintainer.info()
        doc["live"] = True
        doc["epoch"] = self.cache.epoch
        doc["mutations"] = info["mutations"]
        doc["remerges"] = info["remerges"]
        doc["debt"] = info["debt_total"]
        doc["debt_threshold"] = info["debt_threshold"]
        if info.get("adaptive") is not None:
            doc["adaptive"] = info["adaptive"]
        return doc


class SketchRegistry:
    """Name -> :class:`RegisteredSketch`, with load-time promotion."""

    def __init__(self, cache_size: Optional[int] = 256,
                 live_budget_bytes: Optional[int] = None) -> None:
        self._sketches: Dict[str, RegisteredSketch] = {}
        self.cache_size = cache_size
        #: Synopsis budget for sketches loaded live from raw ``.xml``
        #: documents; None disables live loading (the default).
        self.live_budget_bytes = live_budget_bytes

    def register(self, name: str,
                 synopsis: Union[StableSummary, TreeSketch],
                 path: Optional[str] = None,
                 checksum: Optional[int] = None) -> RegisteredSketch:
        """Pin an in-memory synopsis under ``name``.

        Stable summaries are promoted to their zero-error TreeSketch so
        every registered entry speaks the evaluation interface.
        """
        if not name:
            raise ValueError("sketch name must be non-empty")
        if name in self._sketches:
            raise ValueError(f"sketch {name!r} is already registered")
        if isinstance(synopsis, StableSummary):
            synopsis = TreeSketch.from_stable(synopsis)
        if not isinstance(synopsis, TreeSketch):
            raise TypeError(
                f"unsupported synopsis type {type(synopsis).__name__}"
            )
        entry = RegisteredSketch(
            name, QueryCache(synopsis, maxsize=self.cache_size), path,
            checksum)
        self._sketches[name] = entry
        return entry

    def register_live(self, name: str, maintainer,
                      path: Optional[str] = None) -> LiveSketch:
        """Pin a :class:`repro.core.live.SketchMaintainer` as a mutable entry."""
        if not name:
            raise ValueError("sketch name must be non-empty")
        if name in self._sketches:
            raise ValueError(f"sketch {name!r} is already registered")
        cache = QueryCache(maintainer.snapshot(), maxsize=self.cache_size)
        entry = LiveSketch(name, maintainer, cache, path=path)
        self._sketches[name] = entry
        return entry

    def load(self, path: str, name: Optional[str] = None) -> RegisteredSketch:
        """Load a synopsis file (``.json[.gz]``/``.tsb``/``.xml``) and pin it.

        A ``.tsb`` store additionally restores its checksum-matched cache
        sidecar (if one exists) into the fresh query cache -- the warm-
        restart path.  Stale or corrupt sidecars are ignored, never served.

        A raw ``.xml`` document is pinned **live**: the registry builds a
        :class:`repro.core.live.SketchMaintainer` at
        :attr:`live_budget_bytes` and the entry accepts ``update``
        mutations (requires a live budget; see docs/MAINTENANCE.md).
        """
        if path.endswith(".xml"):
            if self.live_budget_bytes is None:
                raise ValueError(
                    f"cannot pin raw document {path!r}: live loading needs "
                    "a synopsis budget (serve --live-budget-kb)")
            from repro.core.live import SketchMaintainer
            from repro.xmltree.parser import parse_xml_file

            tree = parse_xml_file(path)
            maintainer = SketchMaintainer(tree, self.live_budget_bytes)
            return self.register_live(name or name_from_path(path),
                                      maintainer, path=path)
        synopsis = load_synopsis(path)
        checksum = getattr(synopsis, "tsb_checksum", None)
        entry = self.register(name or name_from_path(path), synopsis,
                              path=path, checksum=checksum)
        if checksum is not None:
            doc = load_cache_sidecar(path, checksum)
            selectivities = (doc or {}).get("selectivities")
            if isinstance(selectivities, dict) and selectivities:
                try:
                    restored = entry.cache.seed_selectivities(selectivities)
                except (TypeError, ValueError):
                    get_metrics().counter("store.cache.ignored_stale").inc()
                else:
                    get_metrics().counter("store.cache.restored").inc(restored)
        return entry

    def get(self, name: Optional[str] = None) -> RegisteredSketch:
        """Look up by name; ``None`` resolves iff exactly one is registered.

        Raises :class:`KeyError` with a client-ready message otherwise
        (the server maps it to an ``unknown_sketch`` error).
        """
        if name is None:
            if len(self._sketches) == 1:
                return next(iter(self._sketches.values()))
            raise KeyError(
                "request must name a sketch: server holds "
                f"{sorted(self._sketches)}"
            )
        entry = self._sketches.get(name)
        if entry is None:
            raise KeyError(
                f"unknown sketch {name!r}; available: {sorted(self._sketches)}"
            )
        return entry

    def save_caches(self) -> int:
        """Persist each ``.tsb``-backed sketch's warm state to its sidecar.

        Called by the serving daemon after draining on graceful shutdown:
        every sketch with a known checksum and at least one answerable
        selectivity gets its ``.tsb.cache`` sidecar written (atomically,
        preserving any merge-memo payload already there).  Live entries
        have no checksum and are skipped -- their answers are only valid
        for the current mutation epoch.  Returns the
        number of sidecars written; failures to write one sidecar are
        counted (``store.cache.save_failed``) but never block shutdown.
        """
        saved = 0
        for name in self.names():
            entry = self._sketches[name]
            if entry.path is None or entry.checksum is None:
                continue
            selectivities = entry.cache.export_selectivities()
            if not selectivities:
                continue
            try:
                save_cache_sidecar(entry.path, entry.checksum,
                                   selectivities=selectivities)
            except OSError:
                get_metrics().counter("store.cache.save_failed").inc()
                continue
            saved += 1
        if saved:
            get_metrics().counter("store.cache.saved").inc(saved)
        return saved

    def names(self) -> List[str]:
        return sorted(self._sketches)

    def describe_all(self) -> List[Dict[str, object]]:
        return [self._sketches[name].describe() for name in self.names()]

    def __len__(self) -> int:
        return len(self._sketches)

    def __contains__(self, name: object) -> bool:
        return name in self._sketches
