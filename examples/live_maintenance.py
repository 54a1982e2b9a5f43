#!/usr/bin/env python3
"""Keeping synopses fresh: incremental maintenance under updates.

The paper builds synopses offline; a live system must also track inserts
and deletes.  Count stability localizes every edit to a root path, so the
stable summary can follow a change stream at microsecond cost per edit
and the query-time TreeSketch can be recompressed on demand.

This script simulates a day of auction activity on an XMark-like site --
new auctions open, bidders arrive, auctions close and are deleted -- and
shows (a) per-edit maintenance cost vs a full rebuild, and (b) that
estimates served from a freshly recompressed sketch track the moving
truth.

Run:  python examples/live_maintenance.py
"""

import random
import time

from repro import ExactEvaluator, parse_twig
from repro.core.build import build_treesketch
from repro.core.evaluate import eval_query
from repro.core.estimate import estimate_selectivity
from repro.core.maintain import StableMaintainer
from repro.core.stable import build_stable
from repro.datagen import xmark_like

MONITOR_QUERY = "//open_auction (/bidder (/increase ?))"
EDIT_BATCHES = 4
EDITS_PER_BATCH = 150


def new_auction(rng):
    bidders = [("bidder", [("date", []), ("personref", []), ("increase", [])])
               for _ in range(rng.randint(0, 6))]
    return ("open_auction", [("initial", []), ("itemref", [])] + bidders)


def main() -> None:
    print("generating auction site ...")
    tree = xmark_like(scale=4.0, seed=12)
    maintainer = StableMaintainer(tree)
    rng = random.Random(9)
    query = parse_twig(MONITOR_QUERY)

    open_auctions = tree.nodes_with_label("open_auctions")[0]
    inserted = list(open_auctions.children)
    print(f"  {len(list(tree.root.iter_preorder())):,} elements, "
          f"{maintainer.num_classes} stable classes\n")

    print(f"monitored query: {MONITOR_QUERY}")
    print(f"{'batch':>6} {'edits':>6} {'ms/edit':>8} {'truth':>9} "
          f"{'estimate':>10} {'err':>6} {'rebuild ms':>11}")
    print("-" * 64)

    for batch in range(1, EDIT_BATCHES + 1):
        start = time.perf_counter()
        for _ in range(EDITS_PER_BATCH):
            if rng.random() < 0.6 or len(inserted) < 10:
                inserted.append(
                    maintainer.insert_subtree(open_auctions, new_auction(rng))
                )
            else:
                maintainer.delete_subtree(
                    inserted.pop(rng.randrange(len(inserted)))
                )
        per_edit_ms = (time.perf_counter() - start) * 1000 / EDITS_PER_BATCH

        # Recompress a fresh 10 KB sketch from the maintained summary and
        # serve an estimate; compare against the moving ground truth.
        summary = maintainer.summary()
        sketch = build_treesketch(summary, 10 * 1024)
        estimate = estimate_selectivity(eval_query(sketch, query))

        # A from-scratch rebuild re-indexes the edited document (its oid
        # indexes were left for the first read) and re-summarizes it.
        start = time.perf_counter()
        rebuilt = build_stable(tree)
        rebuild_ms = (time.perf_counter() - start) * 1000
        truth = ExactEvaluator(tree).selectivity(query)
        err = abs(estimate - truth) / max(truth, 1)

        print(f"{batch:>6} {EDITS_PER_BATCH:>6} {per_edit_ms:>8.3f} "
              f"{truth:>9,} {estimate:>10,.0f} {err:>5.1%} {rebuild_ms:>11.1f}")
        assert rebuilt.num_nodes == summary.num_nodes  # maintained == fresh

    print("\nper-edit maintenance stays microseconds-to-milliseconds while a")
    print("full rebuild costs ~the document size -- and the recompressed")
    print("sketch keeps tracking the moving answer.")


if __name__ == "__main__":
    main()
