"""Live TreeSketch maintenance under document mutation.

TSBUILD compresses a frozen count-stable summary; this module keeps the
*compressed* synopsis fresh while the document keeps changing, without
ever rebuilding from scratch.  Two layers:

:class:`LivePartition`
    Extends :class:`~repro.core.partition.MergePartition` with the three
    primitive deltas a count-stable summary can undergo (a class's
    signature is interned and immutable for its lifetime, so the only
    possible changes are class *births*, *deaths*, and *count changes*).
    Each primitive maintains every partition table exactly -- grouped
    adjacency, reverse index, per-edge sufficient statistics, edge counts,
    version stamps -- so the existing merge machinery (``scored_merge``,
    ``apply_merge``, CREATEPOOL, the versioned merge memo) keeps working
    unchanged on the mutated state.  It also adds :meth:`dissolve`, the
    inverse of ``apply_merge``: a cluster is split back into per-class
    singletons with exactly reconstructed statistics, which is what lets a
    local re-merge *reduce* error instead of only trading space.

    All sufficient statistics are sums of integer-valued floats, so the
    incremental adds/subtracts are exact (no drift) well below 2**53 --
    the randomized oracle in tests/test_live_maintain.py holds the
    maintained tables bitwise-equal to a from-scratch reconstruction.

:class:`SketchMaintainer`
    The subsystem facade: owns a :class:`~repro.core.maintain.StableMaintainer`
    (document + evolving summary), drains its per-edit class deltas,
    routes newborn classes into structurally close existing clusters
    (singleton fallback on miss), tracks per-cluster **error debt**
    (absolute squared-error drift accumulated per mutation), and triggers
    **bounded local re-merges** -- TSBUILD's CREATEPOOL and heap drain
    over only the debt-crossing clusters and their neighbours -- when
    debt crosses the configured threshold or the synopsis outgrows its
    budget.  Local and full (``remerge(full=True)``) passes both run
    :class:`~repro.core.build.TreeSketchBuilder` on the live partition.

Cost per edit: O(affected classes x their degree) dictionary work plus an
occasional bounded re-merge -- versus tens of seconds for a full TSBUILD
(the ``maintain`` arm of BENCH_build.json records the gap).  Consistency
guarantees and the debt model are documented in docs/MAINTENANCE.md.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.build import TreeSketchBuilder
from repro.core.maintain import StableMaintainer
from repro.core.partition import MergePartition
from repro.core.treesketch import TreeSketch
from repro.obs import get_metrics, get_tracer
from repro.xmltree.node import XMLNode
from repro.xmltree.tree import XMLTree

#: Multiplicative headroom over the byte budget before an oversize
#: re-merge triggers (mutations may add singleton clusters faster than
#: debt accrues).
SIZE_SLACK = 1.25
#: Relative slack on the average-total-child-count component of the
#: structural key when routing a newborn class into an existing cluster.
ROUTE_TOLERANCE = 0.25
#: Cap on the number of clusters a local re-merge considers (debt seeds
#: first, then neighbours).
MAX_REGION = 64

#: :class:`DebtController` steps: on a blown error budget the threshold
#: is multiplied by ``TIGHTEN_FACTOR``, floored at ``MIN_THRESHOLD_FRACTION``
#: of the configured base; after a calm stretch (burn rate below
#: ``RELAX_BELOW``) it is multiplied by ``RELAX_FACTOR``, capped at the base.
TIGHTEN_FACTOR = 0.25
RELAX_FACTOR = 2.0
RELAX_BELOW = 0.5
MIN_THRESHOLD_FRACTION = 1 / 1024


@dataclass
class LiveOptions:
    """Tuning knobs of live maintenance.

    * ``debt_threshold`` -- squared-error drift a cluster may accumulate
      before it seeds a local re-merge (units of squared error, same
      scale as ``MergePartition.total_sq``);
    * ``max_dissolve`` -- cap on the singleton clusters one local
      re-merge may create by dissolving drifted clusters.  Its pool
      scores every same-label pair of the region, so its cost is
      quadratic in the region size; without this cap, dissolving one
      giant cluster (at an aggressive budget a cluster can hold thousands
      of classes) turns a "bounded" re-merge into a near-full TSBUILD.
      Clusters larger than the remaining allowance keep their (still
      exact) statistics and have their debt popped -- they are repaired
      only by :meth:`SketchMaintainer.remerge` with ``full=True``;
    * ``auto_remerge`` -- run re-merges automatically after the edits
      that trigger them (disable to drive :meth:`SketchMaintainer.remerge`
      manually, e.g. from tests);
    * ``track_values`` -- maintain per-class value statistics so
      snapshots carry value summaries (costs one Counter update per
      valued element per edit).
    """

    debt_threshold: float = 32.0
    max_dissolve: int = 256
    auto_remerge: bool = True
    track_values: bool = False


class LivePartition(MergePartition):
    """A merge partition that also supports class births, deaths, count
    changes, and cluster dissolution -- the primitives of live
    maintenance."""

    def __init__(self, stable) -> None:
        super().__init__(stable)
        # Live class adjacency (the frozen ``stable.out`` goes stale as
        # classes are born and die); ground truth for ``gs`` regrouping.
        self.s_out: Dict[int, Dict[int, float]] = {
            nid: {dst: float(k) for dst, k in stable.out.get(nid, {}).items()}
            for nid in stable.node_ids()
        }
        self.live_root_class: int = stable.root_id
        self.live_doc_height: int = stable.doc_height
        # Version stamp last held by each live class's id while it named a
        # cluster, so an id that comes back (a member re-made a cluster by
        # dissolve) restarts *above* its old stamps and the versioned merge
        # memo / heap entries can never go stale-valid.  Class ids are
        # never reused, so a dead class's id never comes back and keeps no
        # floor.
        self._stamp_floor: Dict[int, int] = {}
        # Batch state for begin_batch/end_batch reconciliation.
        self._dirty: Set[int] = set()
        self._version_only: Set[int] = set()

    # ------------------------------------------------------------------
    # Overrides keeping the base machinery correct on live state
    # ------------------------------------------------------------------

    def source_out(self, s_id: int) -> Dict[int, float]:
        return self.s_out.get(s_id, {})

    def root_cluster(self) -> int:
        return self.assign[self.live_root_class]

    def doc_height(self) -> int:
        return self.live_doc_height

    def apply_merge(self, u: int, v: int) -> int:
        ver = self.version.get(v, 0)
        merged = super().apply_merge(u, v)
        self._note_floor(v, ver)
        return merged

    def _note_floor(self, cid: int, version: int) -> None:
        if cid in self.s_count:  # a live class: its id may name a cluster again
            self._stamp_floor[cid] = max(self._stamp_floor.get(cid, 0),
                                         version)

    def _resurrect(self, cid: int) -> None:
        self.version[cid] = self._stamp_floor.pop(cid, 0) + 1

    # ------------------------------------------------------------------
    # Batch reconciliation of stable-summary deltas
    # ------------------------------------------------------------------

    def begin_batch(self) -> None:
        """Start a reconciliation batch (one document edit)."""
        self._dirty.clear()
        self._version_only.clear()

    def end_batch(self) -> Dict[int, float]:
        """Finish a batch: prune zero dims, recompute squared errors,
        bump version stamps with the ``apply_merge`` discipline.

        Returns the per-cluster absolute squared-error drift of this
        batch -- the raw material of the maintainer's error debt.
        """
        drift: Dict[int, float] = {}
        # Sorted so total_sq accumulates in a deterministic order.
        for u in sorted(self._dirty):
            if u not in self.members:
                continue  # cluster died within the batch
            out = self.out_stats[u]
            dead_dims = [t for t, (s, sq) in out.items() if s == 0.0 and sq == 0.0]
            for t in dead_dims:
                del out[t]
                self.num_edges -= 1
            count = self.count[u]
            new_sq = 0.0
            for s, sq in out.values():
                new_sq += sq - (s * s) / count
            old_sq = self.cluster_sq[u]
            self.cluster_sq[u] = new_sq
            self.total_sq += new_sq - old_sq
            drift[u] = abs(new_sq - old_sq)
            # Same discipline as apply_merge: the changed cluster and its
            # children (scores read the parent side) bump their versions.
            self.version[u] = self.version.get(u, 0) + 1
            for child in out:
                if child != u:
                    self.version[child] = self.version.get(child, 0) + 1
        for t in self._version_only:
            if t in self.members and t not in self._dirty:
                self.version[t] = self.version.get(t, 0) + 1
        self._dirty.clear()
        self._version_only.clear()
        return drift

    def live_add_class(
        self,
        cid: int,
        label: str,
        depth: int,
        count: int,
        out: Dict[int, float],
        target: Optional[int] = None,
    ) -> int:
        """Register a newborn stable class.

        With ``target=None`` the class becomes a fresh singleton cluster;
        otherwise it is routed into the existing cluster ``target`` (same
        label required).  Returns the owning cluster id.
        """
        if cid in self.s_count:
            raise ValueError(f"class {cid} already tracked")
        self.s_count[cid] = count
        self.s_label[cid] = label
        self.s_depth[cid] = depth
        self.s_out[cid] = dict(out)
        assign = self.assign
        grouped: Dict[int, float] = {}
        for dst, k in out.items():
            c = assign[dst]
            grouped[c] = grouped.get(c, 0.0) + k
        self.gs[cid] = grouped

        if target is None:
            owner = cid
            self.members[cid] = {cid}
            self.count[cid] = count
            self.cluster_label[cid] = label
            self.cluster_depth[cid] = depth
            self.out_stats[cid] = {}
            self.cluster_sq[cid] = 0.0
            self.in_sources.setdefault(cid, set())
            self._resurrect(cid)
        else:
            owner = target
            if self.cluster_label[target] != label:
                raise ValueError(
                    f"cannot route {label!r} class into "
                    f"{self.cluster_label[target]!r} cluster {target}"
                )
            self.members[target].add(cid)
            self.count[target] += count
            if depth > self.cluster_depth[target]:
                self.cluster_depth[target] = depth
        assign[cid] = owner
        self.src[cid] = [grouped, owner, count]

        out_o = self.out_stats[owner]
        for t, k in grouped.items():
            self.in_sources[t].add(cid)
            acc = out_o.get(t)
            if acc is None:
                out_o[t] = (count * k, count * k * k)
                self.num_edges += 1
            else:
                out_o[t] = (acc[0] + count * k, acc[1] + count * k * k)
            # The targets gained a parent class: their merge scores
            # changed even if their own dims did not.
            self._version_only.add(t)
        self._dirty.add(owner)
        return owner

    def live_remove_class(self, cid: int) -> None:
        """Remove a dead stable class, killing its cluster if emptied."""
        owner = self.assign.pop(cid)
        count = self.s_count.pop(cid)
        self._stamp_floor.pop(cid, None)
        del self.s_label[cid]
        del self.s_depth[cid]
        del self.s_out[cid]
        grouped = self.gs.pop(cid)
        del self.src[cid]
        out_o = self.out_stats[owner]
        for t, k in grouped.items():
            s, sq = out_o[t]
            out_o[t] = (s - count * k, sq - count * k * k)
            self.in_sources[t].discard(cid)
            self._version_only.add(t)
        self.members[owner].discard(cid)
        self.count[owner] -= count
        self._dirty.add(owner)
        if self.count[owner] == 0:
            self._kill_cluster(owner)

    def live_change_count(self, cid: int, new_count: int) -> None:
        """Propagate a surviving class's element-count change."""
        old = self.s_count[cid]
        delta = new_count - old
        if delta == 0:
            return
        self.s_count[cid] = new_count
        self.src[cid][2] = new_count
        owner = self.assign[cid]
        out_o = self.out_stats[owner]
        for t, k in self.gs[cid].items():
            s, sq = out_o[t]
            out_o[t] = (s + delta * k, sq + delta * k * k)
        self.count[owner] += delta
        self._dirty.add(owner)

    def _kill_cluster(self, owner: int) -> None:
        assert not self.members[owner], "cluster emptied with members left"
        del self.members[owner]
        del self.count[owner]
        del self.cluster_label[owner]
        del self.cluster_depth[owner]
        out = self.out_stats.pop(owner)
        self.num_edges -= len(out)
        self.total_sq -= self.cluster_sq.pop(owner)
        sources = self.in_sources.pop(owner)
        # Liveness: a live class pointing into this cluster would mean a
        # live member -- contradiction; parents died earlier in the batch
        # (class-DAG edges go from larger to smaller ids, and deaths are
        # processed in descending id order).
        assert not sources, f"dead cluster {owner} still has sources {sources}"
        self._note_floor(owner, self.version.pop(owner, 0))
        self._dirty.discard(owner)

    # ------------------------------------------------------------------
    # Dissolution (inverse of apply_merge)
    # ------------------------------------------------------------------

    def dissolve(self, u: int) -> List[int]:
        """Split cluster ``u`` back into one singleton cluster per member
        class, with exactly reconstructed statistics.

        The inverse of ``apply_merge``: afterwards a local re-merge can
        re-cluster the region under *current* statistics, which is what
        lets accuracy recover (merging alone can only trade error for
        space).  Returns the new cluster ids (the member class ids).
        """
        member_set = self.members.pop(u)
        members = sorted(member_set)
        old_out = self.out_stats.pop(u)
        self.num_edges -= len(old_out)
        self.total_sq -= self.cluster_sq.pop(u)
        del self.count[u]
        del self.cluster_label[u]
        del self.cluster_depth[u]
        sources = self.in_sources.pop(u)
        self._note_floor(u, self.version.pop(u, 0))

        for m in members:
            self.assign[m] = m
            self.src[m][1] = m
            self.members[m] = {m}
            self.count[m] = self.s_count[m]
            self.cluster_label[m] = self.s_label[m]
            self.cluster_depth[m] = self.s_depth[m]
            self.in_sources[m] = set()
            self._resurrect(m)

        # Regroup every source's adjacency: the aggregated ->u entry
        # splits into per-singleton entries (s_out is the ground truth).
        for s_id in sources:
            gs = self.gs[s_id]
            gs.pop(u, None)
            for dst, k in self.s_out[s_id].items():
                if dst in member_set:
                    gs[dst] = gs.get(dst, 0.0) + k
                    self.in_sources[dst].add(s_id)

        # Fresh singleton statistics (zero squared error by construction).
        for m in members:
            count = self.s_count[m]
            out_m = {
                t: (count * k, count * k * k) for t, k in self.gs[m].items()
            }
            self.out_stats[m] = out_m
            self.num_edges += len(out_m)
            self.cluster_sq[m] = 0.0

        # External parents: the single ->u dim splits per member.
        parent_clusters = {self.assign[s] for s in sources} - member_set
        for p in parent_clusters:
            out_p = self.out_stats[p]
            count_p = self.count[p]
            old_stats = out_p.pop(u, None)
            old_dim_sq = 0.0
            if old_stats is not None:
                self.num_edges -= 1
                old_dim_sq = old_stats[1] - (old_stats[0] * old_stats[0]) / count_p
            acc: Dict[int, List[float]] = {}
            for s_id in self.members[p]:
                if s_id not in sources:
                    continue
                sc = self.s_count[s_id]
                for t, k in self.gs[s_id].items():
                    if t in member_set:
                        entry = acc.get(t)
                        if entry is None:
                            acc[t] = [sc * k, sc * k * k]
                        else:
                            entry[0] += sc * k
                            entry[1] += sc * k * k
            new_dim_sq = 0.0
            for t, (sp, sqp) in acc.items():
                out_p[t] = (sp, sqp)
                self.num_edges += 1
                new_dim_sq += sqp - (sp * sp) / count_p
            self.cluster_sq[p] += new_dim_sq - old_dim_sq
            self.total_sq += new_dim_sq - old_dim_sq
            self.version[p] = self.version.get(p, 0) + 1

        # Former siblings-through-u: targets of the old cluster keep their
        # dims but their parent set changed composition.
        for t in old_out:
            if t in self.members and t not in member_set:
                self.version[t] = self.version.get(t, 0) + 1
        return members


class DebtController:
    """Drift-adaptive ``debt_threshold``: accuracy-driven, not guessed.

    ``debt_threshold`` trades re-merge work against drift, but the right
    setting depends on the workload: a threshold that is fine for a cold
    sketch lets windowed relative error blow past its budget once churn
    concentrates on a few clusters, while an always-tight threshold
    re-merges constantly for accuracy nobody asked for.  The controller
    closes the loop from *measured* error (the shadow sampler / accuracy
    ledger feed :meth:`observe`) back to the knob:

    * when the trailing-window mean error exceeds ``target_rel_error``
      (burn rate > 1), the threshold is multiplied by ``TIGHTEN_FACTOR``
      (clamped at ``min_threshold``) and a re-merge runs immediately so
      the already-accumulated debt is settled at the new, tighter bar;
      the error window is cleared so recovery is measured on the
      repaired sketch rather than on stale pre-repair samples;
    * when the burn rate stays below ``RELAX_BELOW`` for ``cooldown``
      consecutive observations, the threshold is multiplied by
      ``RELAX_FACTOR`` (clamped at ``max_threshold``, the configured
      fixed setting) -- accuracy headroom is traded back for fewer
      re-merges.

    Metrics: ``live.adaptive.observations`` / ``.tightened`` /
    ``.relaxed`` counters and ``live.adaptive.threshold`` /
    ``.burn_rate`` gauges.
    """

    def __init__(
        self,
        maintainer: "SketchMaintainer",
        target_rel_error: float = 0.25,
        window: int = 16,
        min_samples: int = 4,
        cooldown: int = 32,
    ) -> None:
        if target_rel_error <= 0:
            raise ValueError("target_rel_error must be positive")
        self.maintainer = maintainer
        base = maintainer.options.debt_threshold
        self.target_rel_error = float(target_rel_error)
        self.min_samples = max(1, int(min_samples))
        self.cooldown = max(1, int(cooldown))
        self.min_threshold = base * MIN_THRESHOLD_FRACTION
        self.max_threshold = base
        self.errors: deque = deque(maxlen=max(1, int(window)))
        self.observations = 0
        self.tightened = 0
        self.relaxed = 0
        self._calm = 0
        metrics = get_metrics()
        self._m_obs = metrics.counter("live.adaptive.observations")
        self._m_tight = metrics.counter("live.adaptive.tightened")
        self._m_relax = metrics.counter("live.adaptive.relaxed")
        self._g_threshold = metrics.gauge("live.adaptive.threshold")
        self._g_burn = metrics.gauge("live.adaptive.burn_rate")
        self._g_threshold.set(maintainer.options.debt_threshold)

    def burn_rate(self) -> float:
        if not self.errors:
            return 0.0
        return (sum(self.errors) / len(self.errors)) / self.target_rel_error

    def observe(self, rel_error: float) -> None:
        """Fold one measured relative error into the control loop."""
        self.observations += 1
        self._m_obs.inc()
        self.errors.append(float(rel_error))
        burn = self.burn_rate()
        self._g_burn.set(burn)
        if len(self.errors) < self.min_samples:
            return
        opts = self.maintainer.options
        if burn > 1.0:
            self._calm = 0
            tightened = max(
                self.min_threshold, opts.debt_threshold * TIGHTEN_FACTOR
            )
            if tightened < opts.debt_threshold:
                opts.debt_threshold = tightened
                self.tightened += 1
                self._m_tight.inc()
                self._g_threshold.set(tightened)
            # Settle debt already sitting above the tighter bar now --
            # waiting for the next edit would keep serving the drifted
            # sketch -- and restart measurement on the repaired state.
            self.maintainer._maybe_remerge()
            self.errors.clear()
            self._g_burn.set(0.0)
        elif burn < RELAX_BELOW:
            self._calm += 1
            if (self._calm >= self.cooldown
                    and opts.debt_threshold < self.max_threshold):
                opts.debt_threshold = min(
                    self.max_threshold,
                    opts.debt_threshold * RELAX_FACTOR,
                )
                self.relaxed += 1
                self._m_relax.inc()
                self._g_threshold.set(opts.debt_threshold)
                self._calm = 0
        else:
            self._calm = 0

    def info(self) -> Dict[str, object]:
        return {
            "target_rel_error": self.target_rel_error,
            "threshold": self.maintainer.options.debt_threshold,
            "min_threshold": self.min_threshold,
            "max_threshold": self.max_threshold,
            "burn_rate": self.burn_rate(),
            "observations": self.observations,
            "tightened": self.tightened,
            "relaxed": self.relaxed,
            "window_n": len(self.errors),
        }


class SketchMaintainer:
    """Keeps a budgeted TreeSketch fresh under subtree insert/delete.

    Owns the document (via :class:`StableMaintainer`), the live partition,
    the per-cluster error debt, and the re-merge policy.  ``snapshot()``
    exports a regular :class:`TreeSketch` at any point; every estimator
    downstream works unchanged.
    """

    def __init__(
        self,
        tree: XMLTree,
        budget_bytes: int,
        options: Optional[LiveOptions] = None,
    ) -> None:
        self.options = options or LiveOptions()
        self.budget_bytes = budget_bytes
        self.stable = StableMaintainer(tree)
        self.partition = LivePartition(self.stable.summary())
        TreeSketchBuilder(
            self.partition.stable, partition=self.partition
        ).compress_to(budget_bytes)
        self.stable.track_deltas()

        self.debt: Dict[int, float] = {}
        self.mutations = 0
        self.remerges = 0
        self.remerge_merges = 0
        self.routed = 0
        self.singletons = 0
        # Clusters touched since the last re-merge (oversize-trigger seeds).
        self._touched: Set[int] = set()
        # Lazily (re)built (label, depth) -> cluster ids index for routing.
        self._label_index: Optional[Dict[Tuple[str, int], List[int]]] = None

        # Optional drift-adaptive debt_threshold loop (enable_adaptive).
        self.adaptive: Optional[DebtController] = None

        self._value_counts: Optional[Dict[int, Counter]] = None
        if self.options.track_values:
            self.stable.track_value_moves()
            counts: Dict[int, Counter] = {}
            for node in tree.root.iter_preorder():
                if node.value is not None:
                    cid = self.stable.class_of(node)
                    counts.setdefault(cid, Counter())[node.value] += 1
            self._value_counts = counts

        metrics = get_metrics()
        self._m_mutations = metrics.counter("live.mutations")
        self._m_inserts = metrics.counter("live.inserts")
        self._m_deletes = metrics.counter("live.deletes")
        self._m_routed = metrics.counter("live.routed")
        self._m_singletons = metrics.counter("live.singletons")
        self._m_remerges = metrics.counter("live.remerges")
        self._m_remerge_merges = metrics.counter("live.remerge_merges")
        self._m_remerge_s = metrics.histogram("live.remerge_seconds")
        self._g_debt = metrics.gauge("live.debt_total")
        self._g_clusters = metrics.gauge("live.clusters")
        self._g_size = metrics.gauge("live.size_bytes")
        self._refresh_gauges()

    @property
    def tree(self) -> XMLTree:
        """The live document (owned by the stable maintainer)."""
        return self.stable.tree

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------

    def insert_subtree(
        self, parent: XMLNode, spec: Union[str, tuple, XMLNode]
    ) -> XMLNode:
        """Attach a subtree under ``parent`` and reconcile the sketch."""
        node = self.stable.insert_subtree(parent, spec)
        self._m_inserts.inc()
        self._reconcile()
        return node

    def delete_subtree(self, node: XMLNode) -> None:
        """Detach ``node``'s subtree and reconcile the sketch."""
        self.stable.delete_subtree(node)
        self._m_deletes.inc()
        self._reconcile()

    def _reconcile(self) -> None:
        part = self.partition
        deltas = self.stable.drain_deltas()
        births: List[int] = []
        deaths: List[int] = []
        changes: List[Tuple[int, int]] = []
        for cid, delta in deltas.items():
            alive = self.stable.count_of(cid)
            if cid in part.s_count:
                if alive is None:
                    deaths.append(cid)
                elif delta:
                    changes.append((cid, alive))
            elif alive is not None:
                births.append(cid)
            # else: born and died within this edit; nothing to reconcile.

        part.begin_batch()
        # Deaths in descending class id = parents before children (class-
        # DAG edges always point from larger to smaller interned ids), so
        # reverse-index removals find their targets alive.
        for cid in sorted(deaths, reverse=True):
            part.live_remove_class(cid)
            self.debt.pop(cid, None)
        for cid, new_count in changes:
            part.live_change_count(cid, new_count)
        # Births ascending = children before parents, so grouping sees
        # every referenced class already assigned.
        for cid in sorted(births):
            label, child_counts = self.stable.signature_of(cid)
            out = {c: float(k) for c, k in child_counts}
            depth = 1 + max((part.s_depth[c] for c in out), default=-1)
            count = self.stable.count_of(cid)
            target = self._route(label, depth, out)
            owner = part.live_add_class(
                cid, label, depth, count, out, target=target
            )
            if target is None:
                self.singletons += 1
                self._m_singletons.inc()
                self._index_add(label, depth, cid)
            else:
                self.routed += 1
                self._m_routed.inc()
            self._touched.add(owner)
        drift = part.end_batch()

        root_class = self.stable.class_of(self.stable.tree.root)
        part.live_root_class = root_class
        part.live_doc_height = part.s_depth[root_class]

        for u, d in drift.items():
            self.debt[u] = self.debt.get(u, 0.0) + d
            self._touched.add(u)
        for u in list(self.debt):
            if u not in part.members:
                del self.debt[u]

        if self._value_counts is not None:
            self._apply_value_moves()

        self.mutations += 1
        self._m_mutations.inc()
        self._refresh_gauges()
        if self.options.auto_remerge:
            self._maybe_remerge()

    def _apply_value_moves(self) -> None:
        counts = self._value_counts
        for value, old_cid, new_cid in self.stable.drain_value_moves():
            if old_cid is not None:
                counter = counts.get(old_cid)
                if counter is not None:
                    counter[value] -= 1
                    if counter[value] <= 0:
                        del counter[value]
                    if not counter:
                        del counts[old_cid]
            if new_cid is not None:
                counts.setdefault(new_cid, Counter())[value] += 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _ensure_index(self) -> Dict[Tuple[str, int], List[int]]:
        index = self._label_index
        if index is None:
            index = {}
            part = self.partition
            for cid, label in part.cluster_label.items():
                index.setdefault((label, part.cluster_depth[cid]), []).append(cid)
            self._label_index = index
        return index

    def _index_add(self, label: str, depth: int, cid: int) -> None:
        if self._label_index is not None:
            self._label_index.setdefault((label, depth), []).append(cid)

    def _route(
        self, label: str, depth: int, out: Dict[int, float]
    ) -> Optional[int]:
        """Find an existing cluster structurally close enough to absorb a
        newborn class; None = fall back to a singleton."""
        part = self.partition
        candidates = self._ensure_index().get((label, depth))
        if not candidates:
            return None
        grouped: Dict[int, float] = {}
        for dst, k in out.items():
            c = part.assign[dst]
            grouped[c] = grouped.get(c, 0.0) + k
        degree = len(grouped)
        total = sum(grouped.values())
        tolerance = ROUTE_TOLERANCE
        best = None
        best_gap = None
        scanned = 0
        for cid in candidates:
            if cid not in part.members or part.cluster_label.get(cid) != label:
                continue  # stale index entry (merged or dead); skip lazily
            scanned += 1
            if scanned > 32:
                break
            key_degree, key_total, _count = part.structural_key(cid)
            if abs(degree - key_degree) > 1:
                continue
            gap = abs(total - key_total)
            if gap > tolerance * max(1.0, key_total):
                continue
            if best_gap is None or gap < best_gap:
                best, best_gap = cid, gap
        return best

    # ------------------------------------------------------------------
    # Error debt and re-merging
    # ------------------------------------------------------------------

    def enable_adaptive(self, target_rel_error: float = 0.25,
                        **kwargs) -> DebtController:
        """Attach a drift-adaptive ``debt_threshold`` controller.

        Measured errors flow in through :meth:`observe_error` (the
        serving tier subscribes the accuracy ledger to it); the
        controller tightens and relaxes ``options.debt_threshold``.
        """
        self.adaptive = DebtController(
            self, target_rel_error=target_rel_error, **kwargs)
        return self.adaptive

    def observe_error(self, rel_error: float) -> None:
        """Feed one measured relative error to the adaptive controller
        (no-op unless :meth:`enable_adaptive` was called)."""
        if self.adaptive is not None:
            self.adaptive.observe(rel_error)

    def total_debt(self) -> float:
        return sum(self.debt.values())

    def max_debt(self) -> float:
        return max(self.debt.values(), default=0.0)

    def size_bytes(self) -> int:
        return self.partition.size_bytes()

    def _maybe_remerge(self) -> None:
        threshold = self.options.debt_threshold
        part = self.partition
        crossing = [
            u for u, d in self.debt.items()
            if d > threshold and u in part.members
        ]
        oversize = part.size_bytes() > self.budget_bytes * SIZE_SLACK
        if crossing or oversize:
            self._run_remerge(crossing, oversize)

    def remerge(self, full: bool = False) -> int:
        """Run a re-merge now; ``full=True`` forces a global TSBUILD pass
        over the live partition (no rebuild -- the same state object).
        Returns the number of merges applied."""
        if full:
            return self._run_remerge([], oversize=True, full=True)
        crossing = [
            u for u, d in self.debt.items()
            if d > self.options.debt_threshold and u in self.partition.members
        ]
        return self._run_remerge(crossing, oversize=True)

    def _run_remerge(
        self, crossing: List[int], oversize: bool, full: bool = False
    ) -> int:
        part = self.partition
        started = time.perf_counter()
        with get_tracer().span(
            "live.remerge", seeds=len(crossing), full=full
        ) as span:
            # A fresh builder per re-merge: its forwarding map must not
            # outlive births, deaths or dissolves.
            builder = TreeSketchBuilder(part.stable, partition=part)
            if full:
                builder.compress_to(self.budget_bytes)
                self.debt.clear()
            else:
                self._remerge_region(builder, crossing, oversize)
            merges = builder.merges_applied
            span.annotate(merges=merges, size_bytes=part.size_bytes())
        self.remerges += 1
        self.remerge_merges += merges
        self._m_remerges.inc()
        self._m_remerge_merges.inc(merges)
        self._m_remerge_s.observe(time.perf_counter() - started)
        self._touched.clear()
        self._label_index = None
        self._refresh_gauges()
        return merges

    def _remerge_region(self, builder: TreeSketchBuilder,
                        crossing: List[int], oversize: bool) -> None:
        """Bounded local re-merge: dissolve the debt-crossing clusters,
        then one TSBUILD pass over them and their neighbours."""
        part = self.partition
        opts = self.options
        region: Set[int] = set(crossing)
        if oversize:
            region |= {u for u in self._touched if u in part.members}
        seeds = sorted(
            region, key=lambda u: self.debt.get(u, 0.0), reverse=True
        )[:MAX_REGION]
        region = set(seeds)
        for u in seeds:
            region |= part.parents_of(u)
            region.update(t for t in part.out_stats[u] if t in part.members)
        region = {u for u in region if u in part.members}
        if len(region) > MAX_REGION:
            region = set(sorted(
                region, key=lambda u: self.debt.get(u, 0.0), reverse=True
            )[:MAX_REGION])

        # Dissolve the clusters whose statistics drifted past the
        # threshold: re-clustering them from exact singletons is what
        # makes accuracy recover instead of only compounding merges.
        # Largest debt first, under a singleton allowance: the pool
        # below scores every same-label pair (quadratic in region size),
        # so a giant cluster must never explode the region.
        threshold = opts.debt_threshold
        dissolve_left = opts.max_dissolve
        for u in sorted(region, key=lambda c: (-self.debt.get(c, 0.0), c)):
            members = part.members.get(u)
            if (
                self.debt.get(u, 0.0) > threshold
                and members is not None
                and 1 < len(members) <= dissolve_left
            ):
                region.discard(u)
                born = part.dissolve(u)
                region.update(born)
                dissolve_left -= len(born)
        for u in list(self.debt):
            if u not in part.members:
                del self.debt[u]

        builder.merge_region(region, self.budget_bytes)
        for u in region:
            self.debt.pop(u, None)

    # ------------------------------------------------------------------
    # Export and introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> TreeSketch:
        """Freeze the current live partition into a TreeSketch."""
        sketch = self.partition.to_treesketch()
        if self._value_counts:
            from repro.values import ValueSummary, annotate_sketch_values

            summaries = {
                cid: ValueSummary.from_values(list(counter.elements()))
                for cid, counter in self._value_counts.items()
                if counter
            }
            annotate_sketch_values(sketch, summaries)
        return sketch

    def info(self) -> Dict[str, object]:
        part = self.partition
        return {
            "mutations": self.mutations,
            "nodes": part.num_nodes,
            "edges": part.num_edges,
            "size_bytes": part.size_bytes(),
            "budget_bytes": self.budget_bytes,
            "squared_error": part.total_sq,
            "debt_total": self.total_debt(),
            "debt_max": self.max_debt(),
            "remerges": self.remerges,
            "remerge_merges": self.remerge_merges,
            "routed": self.routed,
            "singletons": self.singletons,
            "debt_threshold": self.options.debt_threshold,
            "adaptive": (
                self.adaptive.info() if self.adaptive is not None else None
            ),
        }

    def check(self) -> None:
        """Expensive consistency audit (test suite)."""
        self.partition.check_invariants()
        part = self.partition
        total = sum(part.cluster_sq.values())
        assert abs(total - part.total_sq) < 1e-6 * max(1.0, abs(total)), \
            (total, part.total_sq)
        # The document's label index is, node for node, a fresh scan.
        scan: Dict[str, List[XMLNode]] = {}
        for node in self.tree.root.iter_preorder():
            scan.setdefault(node.label, []).append(node)
        assert {label: self.tree.nodes_with_label(label)
                for label in self.tree.labels} == scan
        assert sum(part.count.values()) == sum(map(len, scan.values()))

    def _refresh_gauges(self) -> None:
        self._g_debt.set(self.total_debt())
        self._g_clusters.set(self.partition.num_nodes)
        self._g_size.set(self.partition.size_bytes())


def find_labeled(
    maintainer: Union[SketchMaintainer, StableMaintainer],
    label: str,
    ordinal: int = 0,
) -> Optional[XMLNode]:
    """The ``ordinal``-th node labeled ``label`` in document pre-order.

    This is the wire protocol's node addressing scheme (``label`` +
    ``ordinal`` in an ``update`` request).  It is an index lookup in the
    maintained document's label index (:meth:`XMLTree.node_at`), which
    the document's own edits keep current.  Returns ``None`` when no such
    node exists (``ordinal`` negative or past the last match).
    """
    return maintainer.tree.node_at(label, ordinal)


def rebuild_partition_like(
    maintainer: SketchMaintainer,
) -> Tuple[MergePartition, Dict[int, int]]:
    """A from-scratch partition replaying the maintainer's clustering.

    Builds a fresh :class:`MergePartition` over the *current* summary and
    merges it into exactly the maintainer's cluster membership.  Because
    every sufficient statistic is a sum of integer-valued floats, the
    replayed tables must equal the live ones bitwise -- the oracle
    tests/test_live_maintain.py holds the subsystem to.

    Returns ``(fresh, id_map)`` where ``id_map`` maps each live cluster id
    to its replayed id (live ids can outlive their founding class, so the
    replay anchors each cluster on its smallest surviving member).
    """
    live = maintainer.partition
    fresh = MergePartition(maintainer.stable.summary())
    id_map: Dict[int, int] = {}
    for cid in sorted(live.members):
        members = sorted(live.members[cid])
        anchor = members[0]
        id_map[cid] = anchor
        for member in members[1:]:
            fresh.apply_merge(anchor, member)
    return fresh, id_map
