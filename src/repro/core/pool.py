"""CREATEPOOL: bottom-up generation of candidate merge operations (Fig. 6).

A merge of two synopsis nodes clusters well only when their sub-trees are
similar, and sub-trees become similar only after *their* children have been
merged.  CREATEPOOL therefore scans same-label cluster pairs in increasing
order of depth (the longest downward path of any extent element) and keeps
the best ``Uh`` candidates by marginal-gain ratio ``errd / sized`` in a
bounded heap; generation stops once the current depth is exhausted and the
heap is full.

On top of the paper's scheme, very large (label, depth) groups are thinned
with a locality window: group members are sorted by a cheap structural key
(out-degree, total child count, extent size) and each node is paired only
with its ``pair_window`` nearest neighbours.  ``pair_window=None`` restores
the exhaustive behaviour (see DESIGN.md).

TSBUILD calls CREATEPOOL afresh whenever its heap drains (Fig. 5), and
each call groups the partition it is given from scratch: nothing outlives
a call.  Performance machinery (docs/PERFORMANCE.md):

* within one call, each label's partner list (and its key-sorted variant)
  is accumulated level by level with linear merges instead of the seed's
  per-level re-sort;
* scoring goes through the partition's versioned merge memo, so pairs
  whose neighbourhood is unchanged since the previous regeneration are
  not re-scored.

:func:`create_pool` emits the *same candidate set* as the seed
implementation (:func:`create_pool_reference`): candidate selection in the
bounded heap is a top-``Uh`` under a total order, hence independent of
scoring order.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.partition import MergePartition

# A pool entry: (ratio, errd, sized, u, v).
PoolEntry = Tuple[float, float, int, int, int]


class _BoundedBest:
    """Keeps the ``limit`` entries with the smallest ratio.

    Selection is a top-``limit`` under the *total* order of the (negated)
    entry tuples, so the retained set does not depend on push order — the
    property that lets :func:`create_pool` push in another order than the
    seed.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        # Max-heap by ratio via negation, so the worst entry pops first.
        self._heap: List[Tuple[float, float, int, int, int]] = []

    def push(self, entry: PoolEntry) -> None:
        ratio, errd, sized, u, v = entry
        item = (-ratio, errd, sized, u, v)
        if len(self._heap) < self.limit:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            # Strictly better (smaller ratio) than the current worst.
            heapq.heapreplace(self._heap, item)

    def __len__(self) -> int:
        return len(self._heap)

    def entries(self) -> List[PoolEntry]:
        return [(-nratio, errd, sized, u, v) for nratio, errd, sized, u, v in self._heap]


class _LabelAccumulator:
    """Per-label partner list, accumulated level by level within one call."""

    __slots__ = ("plain", "keyed", "keys")

    def __init__(self) -> None:
        self.plain: List[int] = []
        # Lazily built once the group outgrows the pair window; kept as two
        # parallel sorted lists ((key, cid) pairs and bare keys for bisect).
        self.keyed: Optional[List[Tuple[Tuple[float, float, int], int]]] = None
        self.keys: Optional[List[Tuple[float, float, int]]] = None


def _merge_keyed(older, newer):
    """Linear merge of two (key, cid)-sorted lists; returns (keyed, keys)."""
    merged: List[Tuple[Tuple[float, float, int], int]] = []
    append = merged.append
    i = j = 0
    len_a, len_b = len(older), len(newer)
    while i < len_a and j < len_b:
        if older[i] <= newer[j]:
            append(older[i])
            i += 1
        else:
            append(newer[j])
            j += 1
    if i < len_a:
        merged.extend(older[i:])
    if j < len_b:
        merged.extend(newer[j:])
    return merged, [k for k, _ in merged]


def _level_pairs(
    news: List[int],
    acc: _LabelAccumulator,
    pair_window: Optional[int],
    key_of,
) -> List[Tuple[int, int]]:
    """Pairs (a, b), a < b, joining this level's ``news`` into the group.

    Mirrors the seed ``_pair_up`` semantics: every new node is paired with
    all partners of depth <= level (exhaustive mode) or with its
    ``pair_window`` nearest neighbours by structural key (windowed mode).
    Updates ``acc`` with the new nodes as a side effect.
    """
    plain = acc.plain
    total = len(plain) + len(news)
    if pair_window is None or total <= pair_window + 1:
        pairs = [(a, b) if a < b else (b, a) for a in news for b in plain]
        pairs += [(a, b) if a < b else (b, a)
                  for i, a in enumerate(news) for b in news[i + 1:]]
        plain.extend(news)
        return pairs

    news_keyed = sorted((key_of(a), a) for a in news)
    if acc.keyed is None:
        acc.keyed = sorted((key_of(c), c) for c in plain)
        acc.keys = [k for k, _ in acc.keyed]
    acc.keyed, acc.keys = _merge_keyed(acc.keyed, news_keyed)
    plain.extend(news)

    keys, order = acc.keys, acc.keyed
    half = max(1, pair_window // 2)
    size = len(order)
    pairs: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, int]] = set()
    for key, a in news_keyed:
        pos = bisect_left(keys, key)
        lo = 0 if pos <= half else pos - half
        hi = min(size, pos + half + 1)
        for _, b in order[lo:hi]:
            if a == b:
                continue
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                continue
            seen.add(pair)
            pairs.append(pair)
    return pairs


# ----------------------------------------------------------------------
# Optimized CREATEPOOL
# ----------------------------------------------------------------------


def create_pool(
    partition,
    heap_upper: int,
    pair_window: Optional[int] = 32,
    stop_when_full: bool = False,
    *,
    clusters: Optional[Iterable[int]] = None,
) -> List[PoolEntry]:
    """Generate up to ``heap_upper`` scored merge candidates, bottom-up.

    With ``stop_when_full=True`` generation terminates once the current
    depth is exhausted and the heap is full -- the literal Fig. 6
    behaviour.  The default keeps scanning all levels while retaining only
    the best ``heap_upper`` candidates: when the space budget is reached
    before the pool is ever regenerated, the literal variant never
    considers upper-level merges and leaves redundancy there (see the
    pool ablation benchmark); scanning costs the same asymptotics and
    strictly improves the candidate set.

    ``clusters`` restricts the pool to those live cluster ids (a re-merge
    region); by default every live cluster takes part.  Scores are served
    from, and written to, the partition's versioned merge memo (enabled
    on first use).  The candidate set equals
    :func:`create_pool_reference`'s (property-tested in
    tests/test_build_equivalence.py).
    """
    best = _BoundedBest(heap_upper)

    # Group the clusters by label, then by depth.
    groups: Dict[str, Dict[int, List[int]]] = {}
    max_depth = 0
    label_of = partition.cluster_label
    depth_of = partition.cluster_depth
    for cid in label_of if clusters is None else clusters:
        depth = depth_of[cid]
        groups.setdefault(label_of[cid], {}).setdefault(depth, []).append(cid)
        if depth > max_depth:
            max_depth = depth

    # Labels where any merge is possible at all.
    active = [
        (buckets, _LabelAccumulator())
        for buckets in groups.values()
        if sum(len(b) for b in buckets.values()) >= 2
    ]
    # ``_level_pairs`` keys each cluster at most once per call.
    key_of = partition.structural_key

    partition.enable_memo()
    memo = partition.merge_memo
    version = partition.version
    eval_block = partition.eval_block

    # The bounded-best push, inlined for the million-candidate hot loops.
    heap = best._heap
    heappush, heapreplace = heapq.heappush, heapq.heapreplace

    for level in range(max_depth + 1):
        for buckets, acc in active:
            news = buckets.get(level)
            if not news:
                continue
            pairs = _level_pairs(news, acc, pair_window, key_of)
            # Serve memo hits inline; only misses need scoring.
            hits = 0
            misses: List[Tuple[int, int]] = []
            miss = misses.append
            for pair in pairs:
                entry = memo.get(pair)
                if (
                    entry is not None
                    and entry[0] == version[pair[0]]
                    and entry[1] == version[pair[1]]
                ):
                    hits += 1
                    if entry[4] <= 0:
                        continue  # non-improving: never pooled
                    item = (-entry[2], entry[3], entry[4], pair[0], pair[1])
                    if len(heap) < heap_upper:
                        heappush(heap, item)
                    elif item > heap[0]:
                        heapreplace(heap, item)
                else:
                    miss(pair)
            partition.memo_hits += hits
            if not misses:
                continue
            partition.memo_misses += len(misses)
            for (u, v), (errd, sized) in zip(misses, eval_block(misses)):
                ratio = errd / sized if sized > 0 else float("inf")
                memo[(u, v)] = (version[u], version[v], ratio, errd, sized)
                if sized <= 0:
                    continue  # non-improving: skip at insertion
                item = (-ratio, errd, sized, u, v)
                if len(heap) < heap_upper:
                    heappush(heap, item)
                elif item > heap[0]:
                    heapreplace(heap, item)
        if stop_when_full and len(best) >= heap_upper:
            break
    return best.entries()


# ----------------------------------------------------------------------
# Seed implementation (reference mode)
# ----------------------------------------------------------------------


def create_pool_reference(
    partition: MergePartition,
    heap_upper: int,
    pair_window: Optional[int] = 32,
    stop_when_full: bool = False,
) -> List[PoolEntry]:
    """The seed CREATEPOOL, verbatim: regroups and re-sorts on every call.

    Scoring goes through :meth:`MergePartition.evaluate_merge_reference`.
    Kept as the "before" arm of the benchmark feed and as the oracle the
    optimized :func:`create_pool` is equivalence-tested against.
    """
    best = _BoundedBest(heap_upper)

    # Group clusters by label, bucketed by depth.
    by_label: Dict[str, Dict[int, List[int]]] = {}
    max_depth = 0
    for cid, label in partition.cluster_label.items():
        depth = partition.cluster_depth[cid]
        by_label.setdefault(label, {}).setdefault(depth, []).append(cid)
        if depth > max_depth:
            max_depth = depth

    # Labels where any merge is possible at all.
    mergeable = {
        label: buckets
        for label, buckets in by_label.items()
        if sum(len(b) for b in buckets.values()) >= 2
    }

    for level in range(max_depth + 1):
        for buckets in mergeable.values():
            news = buckets.get(level)
            if not news:
                continue
            partners: List[int] = []
            for depth, bucket in buckets.items():
                if depth <= level:
                    partners.extend(bucket)
            if len(partners) < 2:
                continue
            _pair_up(partition, news, partners, level, pair_window, best)
        if stop_when_full and len(best) >= heap_upper:
            break
    return best.entries()


def _pair_up(
    partition: MergePartition,
    news: List[int],
    partners: List[int],
    level: int,
    pair_window: Optional[int],
    best: _BoundedBest,
) -> None:
    """Score pairs (a, b) with ``a`` at the current level, max-depth = level."""
    if pair_window is None or len(partners) <= pair_window + 1:
        seen = set()
        for a in news:
            for b in partners:
                if a == b:
                    continue
                key = (a, b) if a < b else (b, a)
                if key in seen:
                    continue
                seen.add(key)
                _score(partition, key[0], key[1], best)
        return

    keyed = sorted(
        ((partition.structural_key(cid), cid) for cid in partners),
    )
    keys = [k for k, _ in keyed]
    order = [cid for _, cid in keyed]
    half = max(1, pair_window // 2)
    seen = set()
    for a in news:
        pos = bisect_left(keys, partition.structural_key(a))
        lo = max(0, pos - half)
        hi = min(len(order), pos + half + 1)
        for b in order[lo:hi]:
            if a == b:
                continue
            key = (a, b) if a < b else (b, a)
            if key in seen:
                continue
            seen.add(key)
            _score(partition, key[0], key[1], best)


def _score(partition: MergePartition, u: int, v: int, best: _BoundedBest) -> None:
    result = partition.evaluate_merge_reference(u, v)
    if result.sized <= 0:
        return  # non-improving by definition: skip at pool insertion
    best.push((result.ratio, result.errd, result.sized, u, v))
