"""Array-based TSBUILD scoring kernel: flat, integer-indexed partition state.

:class:`KernelPartition` mirrors :class:`repro.core.partition.MergePartition`
semantics exactly -- same sufficient statistics, same merge algebra, same
floating-point accumulation order -- but stores the synopsis in flat,
integer-indexed structures so the scoring hot path
(:meth:`KernelPartition._eval_raw`) runs tight loops over contiguous
buffers with no per-edge dict or tuple allocation:

* stable classes are densely numbered ``0..N-1`` (``build_stable`` already
  emits dense ids; cluster ids are a shrinking subset, so every per-class
  and per-cluster table below is a flat length-``N`` buffer);
* ``gs`` (the grouped stable out-adjacency) is a CSR layout --
  ``array('l')`` index + ``array('d')`` data with per-row live lengths
  (rows only ever shrink as targets collapse);
* ``out_stats`` is a pair of parallel sum / sum-of-squares arrays keyed by
  an open-addressed ``(cluster, target) -> slot`` table (a CPython dict on
  packed ``target * N + cluster`` integer keys -- CPython's dict *is* an
  open-addressed hash table; target-major so the scorer's parent-dim
  probes share one per-call base instead of a per-parent multiply), plus
  a per-cluster slot list that preserves
  the dict path's dimension order (insertion order is load-bearing: it
  fixes the floating-point summation order);
* ``count`` / ``cluster_sq`` / ``s_count`` / owner are dense arrays;
* each cluster keeps an **in-edge transpose** (``in_src[c]`` /
  ``in_k[c]``: source ids and their grouped counts toward ``c``), which
  replaces the dict path's two-``dict.get``-per-source inner loop -- the
  dominant cost of large builds -- with one scatter into an epoch-stamped
  scratch buffer and one flat read per source.

Two structures deliberately stay as Python objects:

* ``in_sources`` / ``members`` remain plain sets with the *same
  construction history* as the dict path.  The scorer iterates
  ``in_sources[u] | in_sources[v]``, and a set's iteration order is a
  hash-table artifact of its operation history -- the only way to
  reproduce the reference accumulation order bit-for-bit is to perform
  the identical set operations;
* ``version`` / ``struct_version`` / ``cluster_label`` / ``cluster_depth``
  remain dicts: they are the external contract that
  :mod:`repro.core.build` and :mod:`repro.core.pool` share across both
  partition implementations (heap staleness stamps, memo keys, pool
  grouping).

Hot reads use CPython lists rather than ``array``/numpy buffers: an
``array('d')`` element access boxes a fresh float object on every read,
and numpy reductions (``np.sum`` is pairwise, not left-associated) are
unusable wherever bit-exactness against the reference scorer is required.
The CSR buffers are only walked inside ``apply_merge`` (cold relative to
scoring), where the boxing cost is irrelevant.

Bit-exactness proof obligations (enforced by
tests/test_build_equivalence.py and tests/test_kernel_state.py):

* ``_eval_raw`` reproduces ``evaluate_merge_reference`` '' ``(errd,
  sized)`` bitwise on every pair: identical merged-dimension insertion
  order, identical source-union iteration order, identical first-touch
  parent order, left-associated products (``sc*k*k`` reuses ``t = sc*k``);
* ``apply_merge`` leaves every table bitwise-equal to the dict path's
  (state-sync oracle over randomized merge sequences).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.core.partition import MergeResult, ScoredMerge
from repro.core.size import EDGE_BYTES, NODE_BYTES
from repro.core.stable import StableSummary
from repro.core.treesketch import TreeSketch

class KernelPartition:
    """Flat-array twin of :class:`MergePartition` (same merge semantics).

    Requires densely numbered stable classes (``0..N-1``); raises
    ``ValueError`` otherwise so ``TSBuildOptions(kernel="auto")`` can fall
    back to the dict path for hand-built sparse summaries.
    """

    def __init__(self, stable: StableSummary) -> None:
        ids = list(stable.node_ids())
        n = len(ids)
        if sorted(ids) != list(range(n)):
            raise ValueError(
                "KernelPartition requires dense stable ids 0..N-1 "
                "(use kernel='dicts' for sparse summaries)"
            )
        self.stable = stable
        self._n = n

        # Dense per-stable-class state.
        self.s_count: List[int] = [stable.count[i] for i in range(n)]
        self.s_label: Dict[int, str] = dict(stable.label)
        self.s_depth: Dict[int, int] = dict(stable.depth)
        self.owner: List[int] = list(range(n))  # dense twin of ``assign``

        # Cluster state; initially one cluster per stable class (same ids).
        # The dicts mirror MergePartition's construction history exactly --
        # their iteration order is observable (to_treesketch node order,
        # pool grouping).
        self.members: Dict[int, Set[int]] = {nid: {nid} for nid in ids}
        self.count: List[int] = [stable.count[i] for i in range(n)]
        self.cluster_label: Dict[int, str] = dict(stable.label)
        self.cluster_depth: Dict[int, int] = dict(stable.depth)
        self.assign: Dict[int, int] = {nid: nid for nid in ids}

        # --- gs as CSR: array('l') index + array('d') data. -------------
        indptr = array("l", [0] * (n + 1))
        col_chunks: List[int] = []
        val_chunks: List[float] = []
        pos = 0
        for s in range(n):
            row = stable.out.get(s, {})
            for dst, k in row.items():
                col_chunks.append(dst)
                val_chunks.append(float(k))
            pos += len(row)
            indptr[s + 1] = pos
        self._gs_indptr = indptr
        self._gs_col = array("l", col_chunks)
        self._gs_val = array("d", val_chunks)
        # Live row lengths: rows shrink in place as targets collapse.
        self._gs_len = array(
            "l", [indptr[s + 1] - indptr[s] for s in range(n)]
        )

        # Reverse index (sets: identical construction history to the dict
        # path -- set-union iteration order in the scorer depends on it).
        self.in_sources: Dict[int, Set[int]] = {nid: set() for nid in ids}
        for src, dst, _ in stable.edges():
            self.in_sources[dst].add(src)

        # In-edge transpose per cluster: sources and their grouped counts.
        self.in_src: List[Optional[List[int]]] = [[] for _ in range(n)]
        self.in_k: List[Optional[List[float]]] = [[] for _ in range(n)]
        for src, dst, k in stable.edges():
            self.in_src[dst].append(src)
            self.in_k[dst].append(float(k))

        # --- out_stats: parallel sum/sum-sq arrays + slot table. ---------
        # slot_of maps packed (target * n + cluster) -> slot index into the
        # parallel arrays; out_slots[c] lists c's live slots in dimension
        # order (== the dict path's insertion order).
        self.stat_sum: List[float] = []
        self.stat_sq: List[float] = []
        self.stat_tgt: List[int] = []
        self.slot_of: Dict[int, int] = {}
        self._free: List[int] = []
        self.out_slots: List[Optional[List[int]]] = [None] * n
        for c in range(n):
            count = self.s_count[c]
            slots: List[int] = []
            for dst, k in stable.out.get(c, {}).items():
                slot = len(self.stat_sum)
                self.stat_sum.append(count * float(k))
                self.stat_sq.append(count * float(k) ** 2)
                self.stat_tgt.append(dst)
                self.slot_of[dst * n + c] = slot
                slots.append(slot)
            self.out_slots[c] = slots

        self.cluster_sq: List[float] = [0.0] * n
        self.num_edges: int = stable.num_edges
        self.total_sq: float = 0.0

        # Version stamps (external contract shared with the dict path):
        # ``version`` bumps on every state change touching a cluster's
        # score inputs; ``struct_version`` only on child-side changes
        # (own dims / count), the part the pool's structural key reads.
        self.version: Dict[int, int] = {nid: 0 for nid in ids}
        self.struct_version: Dict[int, int] = {nid: 0 for nid in ids}

        # Versioned memo of merge scores (see enable_memo).
        self.merge_memo: Optional[
            Dict[Tuple[int, int], Tuple[int, int, float, float, int]]
        ] = None
        self.memo_hits: int = 0
        self.memo_misses: int = 0

        # Epoch-stamped scratch buffers: merged dims (by target), combined
        # source counts (by stable class), parent accumulators (by cluster).
        # One epoch bump invalidates all three in O(1).
        self._epoch: int = 0
        self._m_stamp: List[int] = [0] * n
        self._m_sum: List[float] = [0.0] * n
        self._m_sq: List[float] = [0.0] * n
        self._k_stamp: List[int] = [0] * n
        self._kk: List[float] = [0.0] * n
        self._p_stamp: List[int] = [0] * n
        self._p_sum: List[float] = [0.0] * n
        self._p_sq: List[float] = [0.0] * n

    # ------------------------------------------------------------------
    # Size and quality
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.members)

    def size_bytes(self) -> int:
        return NODE_BYTES * self.num_nodes + EDGE_BYTES * self.num_edges

    def alive(self, cid: int) -> bool:
        return cid in self.members

    def parents_of(self, cid: int) -> Set[int]:
        """Clusters with at least one edge into ``cid``."""
        owner = self.owner
        return {owner[s] for s in self.in_sources[cid]}

    def structural_key(self, cid: int) -> Tuple[float, float, int]:
        """CREATEPOOL's cheap locality key (same floats as the dict path)."""
        slots = self.out_slots[cid]
        stat_sum = self.stat_sum
        total = 0.0
        for slot in slots:
            total += stat_sum[slot]
        count = self.count[cid]
        return (len(slots), total / max(1, count), count)

    # ------------------------------------------------------------------
    # Candidate scoring
    # ------------------------------------------------------------------

    def evaluate_merge(self, u: int, v: int) -> MergeResult:
        """Score merging clusters ``u`` and ``v`` without applying it."""
        errd, sized = self._eval_raw(u, v)
        return MergeResult(errd, sized)

    def _eval_raw(self, u: int, v: int) -> Tuple[float, int]:
        """Hot-path scoring core, bit-identical to the reference scorer.

        Same accumulation structure as ``MergePartition._eval_raw`` with
        every dict/tuple replaced by a flat read: v's dimensions are
        scattered into the epoch-stamped ``_m_*`` scratch, then one walk
        over u's dimensions and a remainder walk over v's emit each merged
        dimension's closed-form contribution in exactly the dict path's
        insertion order (u's dims first, v-only dims after, overlaps
        combined as ``st + acc``); the source loop reads pre-combined
        counts ``k_u + k_v`` scattered from the in-edge transpose into
        ``_kk``; parent accumulators land in ``_p_*`` in first-touch
        order.
        """
        if u == v:
            raise ValueError("cannot merge a cluster with itself")
        cnt = self.count
        count_w = cnt[u] + cnt[v]
        slots_u = self.out_slots[u]
        slots_v = self.out_slots[v]
        stat_tgt = self.stat_tgt
        stat_sum = self.stat_sum
        stat_sq = self.stat_sq
        self._epoch = epoch = self._epoch + 1

        # --- out dimensions toward targets outside {u, v}: additive.
        # Fused: scatter v's dims, then emit each merged dimension's
        # closed-form contribution during a single walk over u's dims
        # (overlaps combined as ``st + acc`` -- v's value + u's, the
        # reference operand order -- and their stamps cleared), followed
        # by v's un-consumed remainder.  The floating-point adds into
        # ``sq_new_w`` happen in exactly the dict path's insertion order:
        # u's dims first, v-only dims after.
        m_stamp = self._m_stamp
        m_sum = self._m_sum
        m_sq = self._m_sq
        for slot in slots_v:
            t = stat_tgt[slot]
            if t == u or t == v:
                continue
            m_stamp[t] = epoch
            m_sum[t] = stat_sum[slot]
            m_sq[t] = stat_sq[slot]
        sq_new_w = 0.0
        out_edges_new = 0
        for slot in slots_u:
            t = stat_tgt[slot]
            if t == u or t == v:
                continue
            out_edges_new += 1
            if m_stamp[t] == epoch:
                m_stamp[t] = 0  # consumed: skip in the remainder walk
                s_ = m_sum[t] + stat_sum[slot]
                sq_new_w += (m_sq[t] + stat_sq[slot]) - (s_ * s_) / count_w
            else:
                s_ = stat_sum[slot]
                sq_new_w += stat_sq[slot] - (s_ * s_) / count_w
        for slot in slots_v:
            t = stat_tgt[slot]
            if t == u or t == v:
                continue
            if m_stamp[t] == epoch:
                out_edges_new += 1
                s_ = m_sum[t]
                sq_new_w += m_sq[t] - (s_ * s_) / count_w

        # --- scatter combined source counts k_u + k_v into scratch.
        k_stamp = self._k_stamp
        kk = self._kk
        for s, k in zip(self.in_src[u], self.in_k[u]):
            k_stamp[s] = epoch
            kk[s] = k
        for s, k in zip(self.in_src[v], self.in_k[v]):
            if k_stamp[s] == epoch:
                kk[s] = kk[s] + k  # k_u + k_v, reference operand order
            else:
                k_stamp[s] = epoch
                kk[s] = k

        # --- self dimension toward w and parent dims, one source pass.
        sources = self.in_sources[u] | self.in_sources[v]
        owner = self.owner
        s_cnt = self.s_count
        p_stamp = self._p_stamp
        p_sum = self._p_sum
        p_sq = self._p_sq
        p_order: List[int] = []
        p_append = p_order.append
        sum_w = sq_w = 0.0
        has_self = False
        for s in sources:
            k = kk[s]
            p = owner[s]
            t = s_cnt[s] * k
            if p == u or p == v:
                sum_w += t
                sq_w += t * k
                has_self = True
            elif p_stamp[p] == epoch:
                p_sum[p] += t
                p_sq[p] += t * k
            else:
                p_stamp[p] = epoch
                p_sum[p] = t
                p_sq[p] = t * k
                p_append(p)

        if has_self:
            sq_new_w += sq_w - (sum_w * sum_w) / count_w
            out_edges_new += 1
        cluster_sq = self.cluster_sq
        errd = sq_new_w - cluster_sq[u] - cluster_sq[v]

        # --- parent dimensions: ->u and ->v collapse into ->w.  Keys are
        # target-major, so both probes share a per-call base.
        slot_get = self.slot_of.get
        n = self._n
        base_u = u * n
        base_v = v * n
        in_edges_removed = 0
        for p in p_order:
            count_p = cnt[p]
            old_sq = 0.0
            old_dims = 0
            slot = slot_get(base_u + p)
            if slot is not None:
                s_ = stat_sum[slot]
                old_sq += stat_sq[slot] - (s_ * s_) / count_p
                old_dims += 1
            slot = slot_get(base_v + p)
            if slot is not None:
                s_ = stat_sum[slot]
                old_sq += stat_sq[slot] - (s_ * s_) / count_p
                old_dims += 1
            a0 = p_sum[p]
            errd += (p_sq[p] - (a0 * a0) / count_p) - old_sq
            in_edges_removed += old_dims - 1

        out_edges_old = len(slots_u) + len(slots_v)
        edges_removed = (out_edges_old - out_edges_new) + in_edges_removed
        return errd, NODE_BYTES + EDGE_BYTES * edges_removed

    # ------------------------------------------------------------------
    # Versioned score memoization (same discipline as the dict path)
    # ------------------------------------------------------------------

    def enable_memo(self) -> None:
        if self.merge_memo is None:
            self.merge_memo = {}

    def scored_merge(self, u: int, v: int) -> ScoredMerge:
        """Memo-aware scoring: ``(ratio, errd, sized)`` for merging u, v."""
        memo = self.merge_memo
        if memo is None:
            errd, sized = self._eval_raw(u, v)
            return (
                errd / sized if sized > 0 else float("inf"),
                errd,
                sized,
            )
        version = self.version
        ver_u = version.get(u, 0)
        ver_v = version.get(v, 0)
        key = (u, v)
        entry = memo.get(key)
        if entry is not None and entry[0] == ver_u and entry[1] == ver_v:
            self.memo_hits += 1
            return entry[2], entry[3], entry[4]
        self.memo_misses += 1
        errd, sized = self._eval_raw(u, v)
        ratio = errd / sized if sized > 0 else float("inf")
        memo[key] = (ver_u, ver_v, ratio, errd, sized)
        return ratio, errd, sized

    def eval_block(self, pairs: List[Tuple[int, int]]) -> List[Tuple[float, int]]:
        """``(errd, sized)`` per pair: CREATEPOOL's batch scoring call."""
        raw = self._eval_raw
        return [raw(u, v) for u, v in pairs]

    # ------------------------------------------------------------------
    # Applying a merge
    # ------------------------------------------------------------------

    def _collapse_row(self, s: int, u: int, v: int) -> float:
        """Collapse row ``s``'s entries toward ``u``/``v`` into one ``u``
        entry; returns the combined count ``k_u + k_v`` (0.0 if neither
        target present).  Row order is not observable, so removal is by
        swap-compaction."""
        base = self._gs_indptr[s]
        length = self._gs_len[s]
        col = self._gs_col
        val = self._gs_val
        iu = iv = -1
        for i in range(base, base + length):
            c = col[i]
            if c == u:
                iu = i
            elif c == v:
                iv = i
        if iu >= 0:
            k = val[iu] + (val[iv] if iv >= 0 else 0.0)
            val[iu] = k
            if iv >= 0:
                last = base + length - 1
                col[iv] = col[last]
                val[iv] = val[last]
                self._gs_len[s] = length - 1
            return k
        if iv >= 0:
            k = 0.0 + val[iv]
            col[iv] = u
            val[iv] = k
            return k
        return 0.0

    def _alloc_slot(self, packed: int, tgt: int, s: float, sq: float) -> int:
        free = self._free
        if free:
            slot = free.pop()
            self.stat_sum[slot] = s
            self.stat_sq[slot] = sq
            self.stat_tgt[slot] = tgt
        else:
            slot = len(self.stat_sum)
            self.stat_sum.append(s)
            self.stat_sq.append(sq)
            self.stat_tgt.append(tgt)
        self.slot_of[packed] = slot
        return slot

    def apply_merge(self, u: int, v: int) -> int:
        """Merge cluster ``v`` into cluster ``u``; returns the merged id.

        Step for step the dict path's ``apply_merge``, with the CSR /
        slot-table updates in place of dict mutation.  Every set operation
        (union, in-place union, membership probes) is performed on the
        same objects in the same order, so iteration orders -- and hence
        downstream floating-point sums -- match bitwise.
        """
        if not (self.alive(u) and self.alive(v)) or u == v:
            raise ValueError(f"cannot merge {u} and {v}")
        n = self._n
        self._epoch = epoch = self._epoch + 1
        k_stamp = self._k_stamp
        kk = self._kk

        # 1. Re-group stable adjacencies pointing into u or v; rebuild u's
        # in-edge transpose and stamp each source's combined count.
        src_union = self.in_sources[u] | self.in_sources.pop(v)
        new_in_src: List[int] = []
        new_in_k: List[float] = []
        for s_id in src_union:
            k = self._collapse_row(s_id, u, v)
            if k:
                new_in_src.append(s_id)
                new_in_k.append(k)
                k_stamp[s_id] = epoch
                kk[s_id] = k
        self.in_sources[u] = src_union
        self.in_src[u] = new_in_src
        self.in_k[u] = new_in_k
        self.in_src[v] = None
        self.in_k[v] = None

        # 2. Absorb v's members.
        assign = self.assign
        owner = self.owner
        for s_id in self.members[v]:
            assign[s_id] = u
            owner[s_id] = u
        self.members[u] |= self.members.pop(v)
        count = self.count
        count[u] += count[v]
        self.cluster_depth[u] = max(
            self.cluster_depth[u], self.cluster_depth.pop(v)
        )
        self.cluster_label.pop(v)

        # 3. Rebuild u's out dimensions (additive except the self dim).
        slots_u = self.out_slots[u]
        slots_v = self.out_slots[v]
        old_edges_out = len(slots_u) + len(slots_v)
        stat_tgt = self.stat_tgt
        stat_sum = self.stat_sum
        stat_sq = self.stat_sq
        m_stamp = self._m_stamp
        m_sum = self._m_sum
        m_sq = self._m_sq
        m_order: List[int] = []
        for slots in (slots_u, slots_v):
            for slot in slots:
                t = stat_tgt[slot]
                if t == u or t == v:
                    continue
                if m_stamp[t] == epoch:
                    m_sum[t] = stat_sum[slot] + m_sum[t]
                    m_sq[t] = stat_sq[slot] + m_sq[t]
                else:
                    m_stamp[t] = epoch
                    m_sum[t] = stat_sum[slot]
                    m_sq[t] = stat_sq[slot]
                    m_order.append(t)
        sum_w = sq_w = 0.0
        has_self = False
        mem_u = self.members[u]
        s_cnt = self.s_count
        # Iterate the smaller of (sources, members) for the intersection.
        probe, other = (
            (src_union, mem_u)
            if len(src_union) <= len(mem_u)
            else (mem_u, src_union)
        )
        for s_id in probe:
            if s_id in other:
                # Stamped iff s_id has a (positive) count toward u.
                if k_stamp[s_id] == epoch:
                    k = kk[s_id]
                    sc = s_cnt[s_id]
                    t = sc * k
                    sum_w += t
                    sq_w += t * k
                    has_self = True

        # Free old slots, then allocate the rebuilt dimension list (old
        # values were already copied into scratch above).
        slot_of = self.slot_of
        free = self._free
        for slot in slots_u:
            del slot_of[stat_tgt[slot] * n + u]
            free.append(slot)
        for slot in slots_v:
            del slot_of[stat_tgt[slot] * n + v]
            free.append(slot)
        alloc = self._alloc_slot
        new_slots = [
            alloc(t * n + u, t, m_sum[t], m_sq[t]) for t in m_order
        ]
        if has_self:
            new_slots.append(alloc(u * n + u, u, sum_w, sq_w))
        self.out_slots[u] = new_slots
        self.out_slots[v] = None

        count_u = count[u]
        cluster_sq = self.cluster_sq
        old_sq_u = cluster_sq[u] + cluster_sq[v]
        cluster_sq[v] = 0.0
        new_sq_u = 0.0
        for t in m_order:
            s_ = m_sum[t]
            new_sq_u += m_sq[t] - (s_ * s_) / count_u
        if has_self:
            new_sq_u += sq_w - (sum_w * sum_w) / count_u
        cluster_sq[u] = new_sq_u
        self.total_sq += new_sq_u - old_sq_u
        self.num_edges += len(new_slots) - old_edges_out

        # 4. Parents outside {u}: collapse their ->u / ->v dims into ->u.
        p_stamp = self._p_stamp
        p_sum = self._p_sum
        p_sq = self._p_sq
        p_order: List[int] = []
        for s_id in src_union:
            p = owner[s_id]
            if p == u:
                continue
            if k_stamp[s_id] != epoch:
                continue  # no remaining count toward u
            k = kk[s_id]
            sc = s_cnt[s_id]
            t = sc * k
            if p_stamp[p] == epoch:
                p_sum[p] += t
                p_sq[p] += t * k
            else:
                p_stamp[p] = epoch
                p_sum[p] = t
                p_sq[p] = t * k
                p_order.append(p)
        version = self.version
        struct_version = self.struct_version
        base_u = u * n
        base_v = v * n
        for p in p_order:
            count_p = count[p]
            slots_p = self.out_slots[p]
            old_sq = 0.0
            old_dims = 0
            slot = slot_of.pop(base_u + p, None)
            if slot is not None:
                s_ = stat_sum[slot]
                old_sq += stat_sq[slot] - (s_ * s_) / count_p
                old_dims += 1
                slots_p.remove(slot)
                free.append(slot)
            slot = slot_of.pop(base_v + p, None)
            if slot is not None:
                s_ = stat_sum[slot]
                old_sq += stat_sq[slot] - (s_ * s_) / count_p
                old_dims += 1
                slots_p.remove(slot)
                free.append(slot)
            sp = p_sum[p]
            sqp = p_sq[p]
            # Combined dim appended at the end (dict path: new key).
            slots_p.append(alloc(base_u + p, u, sp, sqp))
            new_sq = sqp - (sp * sp) / count_p
            cluster_sq[p] += new_sq - old_sq
            self.total_sq += new_sq - old_sq
            self.num_edges += 1 - old_dims
            version[p] = version.get(p, 0) + 1
            struct_version[p] = struct_version.get(p, 0) + 1

        # 5. Invalidate heap entries touching u, its parents, its children.
        # Children get a full-version bump only: their own (child-side)
        # state is untouched, so their structural key -- which reads
        # struct_version -- stays cached.
        version[u] = version.get(u, 0) + 1
        struct_version[u] = struct_version.get(u, 0) + 1
        version.pop(v, None)
        struct_version.pop(v, None)
        for slot in new_slots:
            child = stat_tgt[slot]
            if child != u:
                version[child] = version.get(child, 0) + 1
        return u

    # ------------------------------------------------------------------
    # Export and diagnostics
    # ------------------------------------------------------------------

    def to_treesketch(self) -> TreeSketch:
        """Freeze the current partition into a TreeSketch synopsis.

        Same table order as :meth:`MergePartition.to_treesketch` (nodes by
        ascending id, each node's edges by ascending target).
        """
        sketch = TreeSketch()
        count = self.count
        ids = sorted(self.cluster_label)
        for cid in ids:
            sketch.add_node(cid, self.cluster_label[cid], count[cid])
        stat_tgt = self.stat_tgt
        stat_sum = self.stat_sum
        stat_sq = self.stat_sq
        for cid in ids:
            c_count = count[cid]
            for t, slot in sorted(
                (stat_tgt[slot], slot) for slot in self.out_slots[cid]
            ):
                s = stat_sum[slot]
                sketch.add_edge(cid, t, s / c_count)
                sketch.stats[(cid, t)] = (s, stat_sq[slot])
        sketch.root_id = self.assign[self.stable.root_id]
        sketch.doc_height = self.stable.doc_height
        sketch.members = {cid: set(self.members[cid]) for cid in ids}
        return sketch

    def out_dims(self, cid: int) -> Dict[int, Tuple[float, float]]:
        """Cluster ``cid``'s dimensions as a dict, in slot (dict) order.

        Diagnostic accessor for tests and audits -- the dict-path
        equivalent of ``out_stats[cid]``.
        """
        return {
            self.stat_tgt[slot]: (self.stat_sum[slot], self.stat_sq[slot])
            for slot in self.out_slots[cid]
        }

    def gs_row(self, s: int) -> Dict[int, float]:
        """Stable class ``s``'s grouped adjacency as a dict (diagnostic)."""
        base = self._gs_indptr[s]
        return {
            self._gs_col[i]: self._gs_val[i]
            for i in range(base, base + self._gs_len[s])
        }

    def check_invariants(self) -> None:
        """Expensive consistency audit used by the test suite."""
        n = self._n
        # Edge count bookkeeping.
        actual_edges = sum(
            len(self.out_slots[c]) for c in self.members
        )
        assert actual_edges == self.num_edges, (actual_edges, self.num_edges)
        # Cluster counts vs. members; owner array vs. assign dict.
        for cid, mem in self.members.items():
            assert self.count[cid] == sum(self.s_count[s] for s in mem)
            for s_id in mem:
                assert self.assign[s_id] == cid
                assert self.owner[s_id] == cid
        # CSR grouping matches stable adjacency under current assignment.
        for s_id in range(n):
            expected: Dict[int, float] = {}
            for dst, k in self.stable.out.get(s_id, {}).items():
                c = self.assign[dst]
                expected[c] = expected.get(c, 0.0) + float(k)
            assert self.gs_row(s_id) == expected, (s_id, expected)
        # Slot table: bijective with live dimensions, targets alive.
        seen_slots: Set[int] = set()
        for cid in self.members:
            for slot in self.out_slots[cid]:
                t = self.stat_tgt[slot]
                assert self.slot_of.get(t * n + cid) == slot
                assert t in self.members, (cid, t)
                assert slot not in seen_slots
                seen_slots.add(slot)
        assert len(self.slot_of) == len(seen_slots)
        assert not (seen_slots & set(self._free))
        # In-edge transpose consistent with in_sources and the CSR.
        for cid in self.members:
            srcs = self.in_src[cid]
            ks = self.in_k[cid]
            assert set(srcs) == self.in_sources[cid], cid
            assert len(srcs) == len(set(srcs))
            for s_id, k in zip(srcs, ks):
                assert self.gs_row(s_id).get(cid) == k, (s_id, cid)
        # Stats match a from-scratch recomputation.
        for cid, mem in self.members.items():
            fresh: Dict[int, List[float]] = {}
            for s_id in mem:
                sc = self.s_count[s_id]
                for t, k in self.gs_row(s_id).items():
                    acc = fresh.setdefault(t, [0.0, 0.0])
                    acc[0] += sc * k
                    acc[1] += sc * k * k
            stored = self.out_dims(cid)
            assert set(fresh) == set(stored), (cid, set(fresh), set(stored))
            for t, (a, b) in fresh.items():
                sa, sb = stored[t]
                assert abs(a - sa) < 1e-6 and abs(b - sb) < 1e-6
        # Version stamps cover exactly the live clusters.
        assert set(self.version) == set(self.members)
        assert set(self.struct_version) == set(self.members)
        # Bulk audit of the CSR buffers (bounds / positivity).
        assert all(length >= 0 for length in self._gs_len)
        assert all(0 <= col < n for col in self._gs_col)
        assert all(val > 0 for val in self._gs_val)
