"""Memory ablation: the RP-tree's footprint vs its Lemma 2 bound.

Two structural claims from Section 4.2.1 are quantified here:

* **Lemma 2** — the node count of an RP-tree is bounded by the total
  size of the candidate-item projections, and prefix sharing keeps it
  far below the bound in practice;
* **tail-node ts-lists** — keeping occurrence timestamps only at tail
  nodes stores exactly one entry per transaction, versus the full
  projection size if every node on a path carried its own list (the
  naive design the paper's related work improves on).

It also reports what the built tree retains under ``tracemalloc``, per
node, and gates it on quest (at most :data:`MAX_QUEST_BYTES_PER_NODE`):
a node holds its only child directly and no ts-list until one is
stored, so a tree of mostly one-child interior nodes stays small.
shop14 and twitter have few nodes per transaction, so their tail
ts-lists weigh more per node.
"""

import tracemalloc

import pytest

from repro.bench.reporting import format_table
from repro.core.model import MiningParameters
from repro.core.rp_list import build_rp_list
from repro.core.rp_tree import build_rp_tree

SETTINGS = {
    "quest": MiningParameters(per=360, min_ps=0.002, min_rec=1),
    "shop14": MiningParameters(per=1440, min_ps=0.002, min_rec=1),
    "twitter": MiningParameters(per=360, min_ps=0.02, min_rec=1),
}

#: Gate on the quest tree's retained bytes per node.
MAX_QUEST_BYTES_PER_NODE = 150


def _retained_tree(db, params, rp_list):
    """The RP-tree and the ``tracemalloc`` bytes it retains once built."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree, _ = build_rp_tree(db, params, rp_list)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return tree, retained


@pytest.mark.parametrize("dataset", sorted(SETTINGS))
def test_tree_construction_runtime(dataset, benchmark, request):
    db = request.getfixturevalue(f"{dataset}_db")
    params = SETTINGS[dataset].resolve(len(db))
    benchmark(build_rp_tree, db, params)


def test_memory_accounting(benchmark, record_artifact, request):
    def run():
        rows = []
        for dataset, params in sorted(SETTINGS.items()):
            db = request.getfixturevalue(f"{dataset}_db")
            resolved = params.resolve(len(db))
            rp_list = build_rp_list(db, resolved)
            tree, retained = _retained_tree(db, resolved, rp_list)
            bound = sum(
                len(rp_list.sort_transaction(itemset))
                for _, itemset in db
            )
            rows.append(
                (
                    dataset,
                    tree.node_count(),
                    bound,
                    f"{tree.node_count() / max(1, bound):.3f}",
                    tree.ts_entry_count(),
                    round(retained / max(1, tree.node_count())),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_artifact(
        "memory_rp_tree",
        format_table(
            [
                "dataset",
                "tree nodes",
                "Lemma 2 bound",
                "nodes/bound",
                "ts entries (tail-only)",
                "bytes/node",
            ],
            rows,
            title="RP-tree footprint vs the Lemma 2 bound",
        ),
    )
    for dataset, nodes, bound, _, ts_entries, bytes_per_node in rows:
        # Lemma 2 holds...
        assert nodes <= bound, dataset
        # ...and prefix sharing plus tail-only storage actually pay:
        # the tree stores fewer ts entries than the naive
        # every-node-keeps-its-list design would (= the bound).
        assert ts_entries <= bound, dataset
        if dataset == "quest":
            assert bytes_per_node <= MAX_QUEST_BYTES_PER_NODE, bytes_per_node
