"""Synopsis maintenance under updates (beyond the paper).

A production deployment must keep summaries fresh as documents change.
Count stability localizes edits to a root path, so incremental
maintenance (`repro.core.maintain`) should beat a from-scratch
BUILD_STABLE by orders of magnitude per edit.  The benchmark applies a
stream of random sub-tree insertions/deletions to a generated document
and compares per-edit cost against rebuilds, asserting correctness
(equivalence to a fresh summary) at the end.
"""

import random

from benchmarks.conftest import emit
from repro.core.maintain import StableMaintainer
from repro.core.stable import build_stable
from repro.datagen.datasets import sprot_like
from repro.experiments.reporting import format_table
from repro.obs import get_clock
from repro.xmltree.tree import XMLTree

EDITS = 200


def _canonical(summary):
    order = summary.topological_order()
    form = {}
    for nid in reversed(order):
        children = tuple(sorted(
            (form[c], int(k)) for c, k in summary.out.get(nid, {}).items()
        ))
        form[nid] = (summary.label[nid], children)
    return sorted((form[nid], summary.count[nid]) for nid in summary.label)


def test_incremental_maintenance_vs_rebuild(benchmark):
    clock = get_clock()
    tree = sprot_like(scale=3.0, seed=6)
    rng = random.Random(11)
    maintainer = StableMaintainer(tree)

    donors = [
        ("feature", [("ftype", []), ("location", ["begin", "end"])]),
        ("ref", [("citation", []), "author", "author"]),
        ("keyword", []),
    ]

    # Pre-select edit targets so only maintenance itself is timed
    # (inserted sub-trees are also the only deletion victims, keeping the
    # pre-selected parents valid throughout).
    initial_nodes = list(tree.root.iter_preorder())
    parents = [rng.choice(initial_nodes) for _ in range(EDITS)]

    start = clock.now()
    inserted = []
    for i in range(EDITS):
        if i % 3 != 2 or not inserted:
            inserted.append(
                maintainer.insert_subtree(parents[i], rng.choice(donors))
            )
        else:
            maintainer.delete_subtree(inserted.pop(rng.randrange(len(inserted))))
    incremental_total = clock.now() - start
    per_edit_ms = incremental_total * 1000 / EDITS

    start = clock.now()
    fresh = build_stable(XMLTree(tree.root))
    rebuild_ms = (clock.now() - start) * 1000

    emit(
        "maintenance",
        format_table(
            "Synopsis maintenance: incremental edit vs full rebuild",
            ["edits", "per-edit (ms)", "full rebuild (ms)", "speedup/edit"],
            [[EDITS, per_edit_ms, rebuild_ms, rebuild_ms / max(per_edit_ms, 1e-9)]],
        ),
    )

    # Correctness: the maintained summary equals a fresh rebuild.
    assert _canonical(maintainer.summary()) == _canonical(fresh)
    # Performance: an edit must be much cheaper than a rebuild.
    assert per_edit_ms * 10 < rebuild_ms

    benchmark.pedantic(
        lambda: maintainer.insert_subtree(tree.root.children[0], ("keyword", [])),
        rounds=5,
        iterations=1,
    )


def test_sketch_maintenance_vs_rebuild(benchmark):
    """The live tier (repro.core.live): the *compressed* sketch is kept
    fresh through the same edit stream, and a maintained edit must beat a
    full build_stable + TSBUILD rebuild by an order of magnitude."""
    from repro.core.build import TreeSketchBuilder
    from repro.core.live import SketchMaintainer

    clock = get_clock()
    tree = sprot_like(scale=2.0, seed=6)
    budget = 10 * 1024
    rng = random.Random(11)
    maintainer = SketchMaintainer(tree, budget)
    donors = [
        ("feature", [("ftype", []), ("location", ["begin", "end"])]),
        ("ref", [("citation", []), "author", "author"]),
        ("keyword", []),
    ]
    initial_nodes = list(tree.root.iter_preorder())
    parents = [rng.choice(initial_nodes) for _ in range(EDITS)]

    start = clock.now()
    inserted = []
    for i in range(EDITS):
        if i % 3 != 2 or not inserted:
            inserted.append(
                maintainer.insert_subtree(parents[i], rng.choice(donors)))
        else:
            maintainer.delete_subtree(
                inserted.pop(rng.randrange(len(inserted))))
    incremental_total = clock.now() - start
    per_edit_ms = incremental_total * 1000 / EDITS

    start = clock.now()
    fresh = TreeSketchBuilder(
        build_stable(XMLTree(tree.root))).compress_to(budget)
    rebuild_ms = (clock.now() - start) * 1000

    emit(
        "maintenance_sketch",
        format_table(
            "Live sketch maintenance: incremental edit vs full rebuild",
            ["edits", "per-edit (ms)", "full rebuild (ms)", "speedup/edit"],
            [[EDITS, per_edit_ms, rebuild_ms,
              rebuild_ms / max(per_edit_ms, 1e-9)]],
        ),
    )

    # Correctness: the maintained sketch is servable and honoured its
    # debt bound (auto_remerge settles drift as it crosses threshold).
    maintainer.check()
    maintainer.snapshot().validate()
    assert maintainer.max_debt() <= maintainer.options.debt_threshold + 1e-9
    assert fresh.size_bytes() <= budget
    # Performance: an edit must be much cheaper than a rebuild.
    assert per_edit_ms * 10 < rebuild_ms

    benchmark.pedantic(
        lambda: maintainer.insert_subtree(
            tree.root.children[0], ("keyword", [])),
        rounds=5,
        iterations=1,
    )


def test_adaptive_debt_threshold_vs_fixed():
    """Drift-adaptive maintenance (repro.core.live.DebtController) vs the
    fixed ``debt_threshold`` knob, over one shared mutation stream.

    A delete-heavy stream shrinks a SwissProt-like document by most of
    its nodes while the synopsis budget stays fixed, so the seed
    clustering goes stale: branch-predicate probes measured against
    exact truth drift past a tight error budget unless re-merges keep
    repairing the partition.  Three arms replay the same ops:

    * ``fixed-loose``  -- a threshold drift never crosses: the error
      budget burns for long stretches and never recovers;
    * ``adaptive``     -- starts identically loose, but the controller
      tightens from *measured* burn (exactly what the serving tier
      feeds it via the accuracy ledger) and repairs on the spot;
    * ``always-tight`` -- the hand-tuned ideal: accurate, but it pays a
      re-merge for nearly every edit.

    The claim: adaptive matches (here: beats) always-tight's budget
    outcome at roughly half the re-merge work, with no hand-tuning.
    Burn accounting starts after a warm-up: the first probes measure the
    *initial compression's* error at this budget, which no maintenance
    policy can repair and every arm shares.
    """
    from repro.core.estimate import estimate_selectivity
    from repro.core.evaluate import eval_query
    from repro.core.live import LiveOptions, SketchMaintainer
    from repro.engine.exact import ExactEvaluator
    from repro.obs.accuracy import STATE_BURNING, AccuracyLedger
    from repro.query.parser import parse_twig
    from repro.workload.mutations import apply_mutation, make_mutation_workload

    target = 0.02          # 2% trailing-window rel-error budget
    budget = 2048
    base_threshold = 512.0  # "loose": drift never crosses it
    warmup = 50             # probes before burn accounting starts

    base_tree = sprot_like(scale=0.3, seed=9)
    ops = make_mutation_workload(base_tree, num_ops=500, seed=7,
                                 insert_fraction=0.0, max_subtree_nodes=10)
    probes = [parse_twig(q) for q in [
        "//entry[//ref] (//feature)",
        "//entry[//feature] (//ref (/author))",
        "//feature (/location)",
    ]]

    def run_arm(name, threshold, adaptive):
        maintainer = SketchMaintainer(
            base_tree.copy(), budget, LiveOptions(debt_threshold=threshold))
        if adaptive:
            maintainer.enable_adaptive(
                target_rel_error=target, window=8, min_samples=4,
                cooldown=16)
        ledger = AccuracyLedger(target_rel_error=target, window=8)
        probed = burning = streak = max_streak = 0
        errors = []
        for i, op in enumerate(ops):
            apply_mutation(maintainer, op)
            if i % 2:
                continue  # probe every other edit
            truth_ev = ExactEvaluator(maintainer.tree)
            snapshot = maintainer.snapshot()
            per_probe = []
            for query in probes:
                truth = float(truth_ev.selectivity(query))
                estimate = estimate_selectivity(eval_query(snapshot, query))
                per_probe.append(abs(estimate - truth) / max(truth, 1.0))
            error = sum(per_probe) / len(per_probe)
            errors.append(error)
            state = ledger.record(name, error)
            maintainer.observe_error(error)  # no-op unless adaptive
            probed += 1
            if state == STATE_BURNING:
                if probed > warmup:
                    burning += 1
                    streak += 1
                    max_streak = max(max_streak, streak)
            elif probed > warmup:
                streak = 0
        return {
            "name": name,
            "remerges": maintainer.remerges,
            "threshold": maintainer.options.debt_threshold,
            "mean_error": sum(errors) / len(errors),
            "burning": burning,
            "max_streak": max_streak,
            "final_state": ledger.state(name),
            "probes": probed - warmup,
        }

    loose = run_arm("fixed-loose", base_threshold, adaptive=False)
    adaptive = run_arm("adaptive", base_threshold, adaptive=True)
    tight = run_arm("always-tight", 0.5, adaptive=False)

    emit(
        "maintenance_adaptive",
        format_table(
            "Drift-adaptive debt_threshold vs fixed (shared edit stream, "
            f"{target:.0%} budget, post-warmup burn)",
            ["arm", "re-merges", "final threshold", "mean rel-err",
             "burning probes", "worst burn streak", "final state"],
            [[a["name"], a["remerges"], a["threshold"],
              round(a["mean_error"], 4), a["burning"], a["max_streak"],
              a["final_state"]]
             for a in (loose, adaptive, tight)],
        ),
    )

    # The loose fixed threshold lets windowed error blow the budget --
    # for sustained stretches, not blips.
    assert loose["burning"] >= 40
    assert loose["max_streak"] >= 16
    # Adaptive control holds the budget: at most stray blips past
    # warm-up, never a sustained burn, and it ends healthy.
    assert adaptive["burning"] <= 5
    assert adaptive["max_streak"] <= 4
    assert adaptive["final_state"] != STATE_BURNING
    assert adaptive["threshold"] < base_threshold  # it really tightened
    # ... at meaningfully less re-merge work than the hand-tuned tight
    # knob needs for a worse burn outcome.
    assert adaptive["remerges"] < tight["remerges"]
    assert adaptive["burning"] <= tight["burning"]
