"""Unit tests for RP-tree construction (Algorithms 2-3, Figure 5)."""

import gc
import pickle
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import MiningParameters
from repro.core.rp_growth import RPGrowth
from repro.core.rp_tree import ITEM_ORDERS, RPTree, build_rp_tree
from repro.obs.counters import MiningStats
from repro.timeseries.database import TransactionalDatabase
from tests.conftest import mining_parameters, small_databases

PARAMS = MiningParameters(per=2, min_ps=3, min_rec=2)


@pytest.fixture
def paper_tree(running_example):
    tree, rp_list = build_rp_tree(
        running_example, PARAMS.resolve(len(running_example))
    )
    return tree


# The tail-carrying root-to-tail paths of Figure 5(b).
FIGURE_5B_PATHS = [
    (("a", "b"), (1, 14)),
    (("a", "b", "c"), (7,)),
    (("a", "b", "c", "d"), (4,)),
    (("a", "b", "c", "d", "e", "f"), (12,)),
    (("a", "b", "e", "f"), (3, 11)),
    (("a", "c", "d"), (2,)),
    (("c", "d"), (9,)),
    (("c", "d", "e", "f"), (5, 10)),
    (("e", "f"), (6,)),
]


class TestPaperFigure5:
    def test_paths_match_figure(self, paper_tree):
        assert paper_tree.paths() == sorted(FIGURE_5B_PATHS)

    def test_node_count(self, paper_tree):
        assert paper_tree.node_count() == 16

    def test_after_first_transaction(self, running_example):
        # Figure 5(a): only the branch a-b with tail ts-list [1].
        first_only = TransactionalDatabase([running_example[0]])
        params = PARAMS.resolve(len(running_example))
        full_list = build_rp_tree(
            running_example, params
        )[1]
        tree = RPTree(
            {item: rank for rank, item in enumerate(full_list.candidates)}
        )
        tree.insert(full_list.sort_transaction(first_only[0].items), (1,))
        assert tree.paths() == [(("a", "b"), (1,))]

    def test_pruned_item_never_appears(self, paper_tree):
        assert "g" not in paper_tree.nodes_by_item


class TestTreeOperations:
    def test_insert_empty_path_is_noop(self):
        tree = RPTree({"a": 0})
        tree.insert([], (1,))
        assert tree.node_count() == 0

    def test_header_bottom_up_order(self, paper_tree):
        assert paper_tree.header_bottom_up() == ["f", "e", "d", "c", "b", "a"]

    def test_pattern_timestamps_single_item(self, paper_tree, running_example):
        # TS^f from the full tree = the item's point sequence.
        assert paper_tree.pattern_timestamps("f") == list(
            running_example.item_timestamps()["f"]
        )

    def test_prefix_paths_of_f(self, paper_tree):
        base = {
            (tuple(path), tuple(sorted(ts)))
            for path, ts in paper_tree.prefix_paths("f")
        }
        # Figure 6(a): the prefix sub-paths of item f.
        assert base == {
            (("a", "b", "c", "d", "e"), (12,)),
            (("a", "b", "e"), (3, 11)),
            (("c", "d", "e"), (5, 10)),
            (("e",), (6,)),
        }

    def test_remove_item_pushes_ts_lists_up(self, paper_tree):
        paper_tree.remove_item("f")
        assert "f" not in paper_tree.nodes_by_item
        # e inherits f's ts-lists (Figure 6(c)): TS^e is now complete.
        assert paper_tree.pattern_timestamps("e") == [3, 5, 6, 10, 11, 12]

    def test_sweep_pushes_nothing_into_the_root(
        self, paper_tree, running_example
    ):
        found = []
        RPGrowth(PARAMS.per, PARAMS.min_ps, PARAMS.min_rec)._mine_tree(
            paper_tree, (), PARAMS.resolve(len(running_example)), found,
            MiningStats(),
        )
        assert len(found) == 8  # Table 2
        assert paper_tree.root.ts_list is None
        assert not paper_tree.root.children

    def test_remove_non_leaf_raises(self, paper_tree):
        with pytest.raises(RuntimeError):
            paper_tree.remove_item("a")

    def test_remove_absent_item_is_noop(self, paper_tree):
        paper_tree.remove_item("zz")
        assert paper_tree.node_count() == 16

    def test_path_items_tail_to_root(self, paper_tree):
        node = paper_tree.nodes_by_item["d"][0]
        path = node.path_items()
        assert path[-1] == "a"  # root end last


class TestSubtreePrefixPaths:
    """The identity the parallel RP-growth partition rests on: a header
    item's base read off the initial tree is what ``prefix_paths``
    returns once the bottom-up sweep has pushed everything below it up
    (Lemma 3).  A pickled clone, the form a ``spawn`` worker receives,
    reads the same."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        db=small_databases(),
        params=mining_parameters(),
        item_order=st.sampled_from(ITEM_ORDERS),
    )
    def test_read_equals_swept_prefix_paths(self, db, params, item_order):
        resolved = MiningParameters(*params).resolve(max(len(db), 1))
        tree, rp_list = build_rp_tree(db, resolved, item_order=item_order)
        swept, _ = build_rp_tree(db, resolved, rp_list, item_order=item_order)
        expected = {}
        for item in swept.header_bottom_up():
            expected[item] = [
                (path, sorted(ts)) for path, ts in swept.prefix_paths(item)
            ]
            swept.remove_item(item)
        before = tree.paths()
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.paths() == before
        # Top-down: each read is independent of every other suffix.
        for item in reversed(list(expected)):
            for read_from in (tree, clone):
                read = read_from.subtree_prefix_paths(item)
                assert [(path, sorted(ts)) for path, ts in read] == (
                    expected[item]
                )
        assert tree.paths() == before


class TestRelease:
    def test_unswept_tree_is_freed_without_the_cycle_collector(self):
        # A read-only tree (the parallel layer's initial tree) is never
        # swept, so its parent/children links would form cycles.
        class Tag:
            pass

        a, b = Tag(), Tag()
        tree = RPTree({a: 0, b: 1})
        tree.insert([a, b], (1.0,))
        tree.subtree_prefix_paths(b)
        # The root and a's node link to each other as much as a's node
        # and b's do.
        alive = [weakref.ref(a), weakref.ref(b)]
        del a, b
        gc.disable()
        try:
            del tree
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()


class TestPickle:
    def test_round_trip_keeps_every_order(self, paper_tree):
        clone = pickle.loads(pickle.dumps(paper_tree))
        assert clone.paths() == paper_tree.paths()
        assert clone.order == paper_tree.order
        assert list(clone.nodes_by_item) == list(paper_tree.nodes_by_item)
        for item, nodes in paper_tree.nodes_by_item.items():
            assert [node.path_items() for node in nodes] == [
                node.path_items() for node in clone.nodes_by_item[item]
            ]
        clone.remove_item("f")  # the clone's nodes are linked up
        assert clone.pattern_timestamps("e") == [3, 5, 6, 10, 11, 12]

    def test_deep_tree_round_trips(self):
        # A path far deeper than the default pickler's recursion allows.
        depth = 1000
        tree = RPTree({rank: rank for rank in range(depth)})
        tree.insert(list(range(depth)), (1.0, 2.0))
        clone = pickle.loads(pickle.dumps(tree))
        assert clone.node_count() == depth
        assert clone.prefix_paths(depth - 1) == tree.prefix_paths(depth - 1)


class TestCompactLayout:
    def test_unshared_paths_retain_at_most_150_bytes_per_node(self):
        # No two paths share a prefix, so every interior node has one
        # child and no ts-list: the case that dominates a real tree
        # (82% of the nodes at quest-0.2).  With a dict of children and
        # an empty ts-list in every node this tree retained about 350
        # bytes per node.
        depth, paths = 10, 2000
        shared = list(range(paths, paths + depth - 1))
        tree = RPTree({rank: rank for rank in range(paths + depth)})
        rows = [([first] + shared, (float(first),)) for first in range(paths)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for items, timestamps in rows:
                tree.insert(items, timestamps)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert tree.node_count() == depth * paths
        assert tree.ts_entry_count() == paths
        assert retained / tree.node_count() <= 150

    def test_child_slot_holds_none_one_node_or_a_dict(self):
        tree = RPTree({"a": 0, "b": 1, "c": 2})
        tree.insert(["a", "b"], (1,))
        (a,) = tree.nodes_by_item["a"]
        (b,) = tree.nodes_by_item["b"]
        assert a.children is b and b.children is None
        assert a.ts_list is None and b.ts_list == [1]
        tree.insert(["a", "c"], (2,))
        (c,) = tree.nodes_by_item["c"]
        assert a.children == {"b": b, "c": c}
        pushed = c.ts_list
        tree.remove_item("c")
        # The push-up hands c's list to a, which held none ...
        assert a.ts_list is pushed
        tree.remove_item("b")
        # ... and extends it from then on.
        assert a.ts_list == [2, 1]
        assert not a.children


class TestLemma2Bound:
    def test_node_count_bounded_by_projection_sizes(self, running_example):
        params = PARAMS.resolve(len(running_example))
        tree, rp_list = build_rp_tree(running_example, params)
        bound = sum(
            len(rp_list.sort_transaction(itemset))
            for _, itemset in running_example
        )
        assert tree.node_count() <= bound


class TestConstructionEdgeCases:
    def test_empty_database(self):
        db = TransactionalDatabase()
        tree, rp_list = build_rp_tree(db, PARAMS.resolve(1))
        assert tree.node_count() == 0

    def test_transaction_of_only_pruned_items(self):
        # Only item x recurs; y appears once and is pruned.
        db = TransactionalDatabase(
            [(1, "xy"), (2, "x"), (3, "x"), (10, "x"), (11, "x"), (12, "x")]
        )
        params = MiningParameters(per=1, min_ps=3, min_rec=2).resolve(len(db))
        tree, rp_list = build_rp_tree(db, params)
        assert rp_list.candidates == ("x",)
        assert tree.node_count() == 1


class TestItemOrderStrategies:
    def test_unknown_order_rejected(self, running_example):
        params = PARAMS.resolve(len(running_example))
        with pytest.raises(ValueError, match="item_order"):
            build_rp_tree(running_example, params, item_order="random")

    def test_orders_change_tree_shape_not_content(self, running_example):
        params = PARAMS.resolve(len(running_example))
        trees = {
            order: build_rp_tree(running_example, params, item_order=order)[0]
            for order in ("support-desc", "support-asc", "lexicographic")
        }
        # Same transactions represented (same total ts entries) ...
        entries = {t.ts_entry_count() for t in trees.values()}
        assert len(entries) == 1
        # ... but support-descending is at least as compact here.
        assert trees["support-desc"].node_count() <= (
            trees["support-asc"].node_count()
        )

    def test_mining_output_is_order_invariant(self, running_example):
        from repro.core.rp_growth import RPGrowth

        reference = RPGrowth(2, 3, 2).mine(running_example)
        for order in ("support-asc", "lexicographic"):
            assert RPGrowth(2, 3, 2, item_order=order).mine(
                running_example
            ) == reference
