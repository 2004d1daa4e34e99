"""RP-tree structure and construction — Algorithms 2–3 of the paper.

An RP-tree is an FP-tree-like prefix tree over the candidate-item
projections of transactions, with two deviations (Section 4.2.1):

* nodes carry **no support counts**;
* every transaction's occurrence timestamp is stored in the *ts-list*
  of the **tail node** of its (sorted) path — interior nodes carry no
  occurrence information of their own until mining pushes ts-lists up.

The same structure is reused for prefix trees and conditional trees
during mining, so the class also exposes the push-up primitive of
Lemma 3 and conditional construction from accumulated paths.
"""

from __future__ import annotations

import bisect
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Reversible,
    Sequence,
    Tuple,
    Union,
)

from repro.core.model import ResolvedParameters
from repro.core.rp_list import RPList, build_rp_list
from repro.timeseries.database import TransactionalDatabase
from repro.timeseries.events import Item

__all__ = ["RPTreeNode", "RPTree", "build_rp_tree"]


class RPTreeNode:
    """One prefix-tree node.

    The node is kept small, because a tree holds one per distinct
    prefix (Lemma 2) and most of them are interior nodes with one
    child and no occurrence information of their own:

    * ``children`` is ``None`` for a leaf, the child node itself while
      the node has one child, and a dict ``item -> child`` once a
      second child arrives (removals leave it a dict);
    * ``ts_list`` is ``None`` until a timestamp is stored at the node
      (it is the tail of an inserted transaction, or receives
      pushed-up ts-lists during mining, or is unpickled with one).

    A ts-list is *not* kept sorted — it is a concatenation of sorted
    runs, and consumers sort on assembly, which Timsort's run detection
    resolves as a C-speed k-way merge.  Keeping the list eagerly sorted
    (or merging with :func:`heapq.merge`) measured strictly slower; see
    docs/performance.md.  The list never contains duplicates, because
    each timestamp identifies a unique transaction and each
    transaction maps to exactly one path (Property 3).
    """

    __slots__ = ("item", "parent", "children", "ts_list")

    def __init__(self, item: Optional[Item], parent: Optional["RPTreeNode"]):
        self.item = item
        self.parent = parent
        self.children: Union[
            None, "RPTreeNode", Dict[Item, "RPTreeNode"]
        ] = None
        self.ts_list: Optional[List[float]] = None

    def child_nodes(self) -> Reversible["RPTreeNode"]:
        """This node's children, in insertion order."""
        children = self.children
        if children is None:
            return ()
        if type(children) is dict:
            return children.values()
        return (children,)

    def add_child(self, child: "RPTreeNode") -> None:
        """Link ``child`` (whose item no child of this node has)."""
        children = self.children
        if children is None:
            self.children = child
        elif type(children) is dict:
            children[child.item] = child
        else:
            self.children = {children.item: children, child.item: child}

    def path_items(self) -> List[Item]:
        """Items from this node's parent up to (excluding) the root.

        Returned tail-to-root; callers that need insertion order
        reverse the list.
        """
        items: List[Item] = []
        node = self.parent
        while node is not None and node.item is not None:
            items.append(node.item)
            node = node.parent
        return items

    def __repr__(self) -> str:
        label = "root" if self.item is None else repr(self.item)
        return f"RPTreeNode({label}, ts_list={self.ts_list!r})"


class RPTree:
    """Prefix tree plus the per-item node registry (the node links).

    Parameters
    ----------
    order:
        Global item order (item -> rank); candidate items appear in the
        tree in increasing rank from the root (support-descending order
        per the RP-list).
    """

    def __init__(self, order: Dict[Item, int]):
        self.root = RPTreeNode(None, None)
        self.order = order
        self.nodes_by_item: Dict[Item, List[RPTreeNode]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def insert(self, sorted_items: Sequence[Item], timestamps: Iterable[float]) -> None:
        """Insert one path (Algorithm 3).

        ``sorted_items`` must already be in global-order; the tail node
        receives all of ``timestamps`` in its ts-list.  Inserting an
        empty item list is a no-op.
        """
        if not sorted_items:
            return
        node = self.root
        for item in sorted_items:
            children = node.children
            if type(children) is dict:
                child = children.get(item)
            elif children is not None and children.item == item:
                child = children
            else:
                child = None
            if child is None:
                child = RPTreeNode(item, node)
                node.add_child(child)
                self.nodes_by_item.setdefault(item, []).append(child)
            node = child
        if node.ts_list is None:
            node.ts_list = list(timestamps)
        else:
            node.ts_list.extend(timestamps)

    # ------------------------------------------------------------------
    # Mining support
    # ------------------------------------------------------------------
    def header_bottom_up(self) -> List[Item]:
        """Items present in the tree, least-frequent (highest rank) first.

        This is the processing order of RP-growth's outer loop.
        """
        return sorted(self.nodes_by_item, key=self.order.__getitem__, reverse=True)

    def pattern_timestamps(self, item: Item) -> List[float]:
        """Sorted union of the ts-lists of every node of ``item``.

        When the tree is a conditional tree for suffix ``α``, this is
        exactly ``TS^{ {item} ∪ α }``.  Every ts-list is a
        concatenation of sorted runs, so the ``sort()`` here is
        effectively a C-speed k-way merge (Timsort run detection).
        """
        merged: List[float] = []
        for node in self.nodes_by_item.get(item, ()):
            if node.ts_list:
                merged.extend(node.ts_list)
        merged.sort()
        return merged

    def prefix_paths(self, item: Item) -> List[Tuple[List[Item], List[float]]]:
        """The conditional pattern base of ``item``.

        Each entry is ``(path_items_root_to_parent, ts_list)`` for one
        node of ``item`` that carries occurrence information.  By
        Property 4, the tail node's ts-list covers every node on its
        path.
        """
        base: List[Tuple[List[Item], List[float]]] = []
        for node in self.nodes_by_item.get(item, ()):
            if not node.ts_list:
                continue
            path = node.path_items()
            path.reverse()
            base.append((path, node.ts_list))
        return base

    def subtree_prefix_paths(
        self, item: Item
    ) -> List[Tuple[List[Item], List[float]]]:
        """What :meth:`prefix_paths` returns when the bottom-up sweep
        reaches ``item``, read without mutating the tree.

        By then :meth:`remove_item` has pushed every item ranked below
        ``item`` up into its nodes (Lemma 3), so each node's ts-list is
        every ts in its subtree; this gathers those directly.  Entries
        come in :meth:`prefix_paths` order, each ts-list a concatenation
        of sorted runs like a pushed-up one.
        """
        base: List[Tuple[List[Item], List[float]]] = []
        for node in self.nodes_by_item.get(item, ()):
            ts_list: List[float] = []
            stack = [node]
            while stack:
                current = stack.pop()
                if current.ts_list:
                    ts_list.extend(current.ts_list)
                stack.extend(current.child_nodes())
            if not ts_list:
                continue
            path = node.path_items()
            path.reverse()
            base.append((path, ts_list))
        return base

    def remove_item(self, item: Item) -> None:
        """Push ts-lists to parents and delete every node of ``item``.

        This is line 9 of Algorithm 4, justified by Lemma 3: after the
        push-up, each parent's ts-list describes the shortened path for
        the same transactions.  The push-up concatenates; sorting is
        deferred to the consumers (:meth:`pattern_timestamps` and the
        conditional-tree build), which pay one Timsort run-merge each
        instead of a merge per push-up level.  A parent with no ts-list
        of its own takes the removed node's list as it is.  The root
        stands for the empty path, which no read asks for, so nothing
        is pushed into it.
        """
        root = self.root
        for node in self.nodes_by_item.get(item, ()):
            # An item's nodes are always leaves when it is the
            # bottom-most remaining item; guard anyway so misuse fails
            # loudly instead of silently dropping subtrees.
            if node.children:
                raise RuntimeError(
                    f"cannot remove item {item!r}: node still has children"
                )
            parent = node.parent
            if node.ts_list and parent is not root:
                if parent.ts_list is None:
                    parent.ts_list = node.ts_list
                else:
                    parent.ts_list.extend(node.ts_list)
            if parent.children is node:
                parent.children = None
            else:
                del parent.children[item]
        self.nodes_by_item.pop(item, None)

    def __del__(self) -> None:
        # Nodes link both ways, so a tree that was read but never swept
        # (the parallel layer's initial tree) would otherwise wait for a
        # full cyclic collection; unlinking children frees it at once.
        self.root.children = None
        for nodes in self.nodes_by_item.values():
            for node in nodes:
                node.children = None

    def __getstate__(self) -> dict:
        # Flat pre-order form for ``spawn`` workers: pickling the linked
        # nodes directly recurses per level and overflows on deep trees.
        position: Dict[Optional[RPTreeNode], int] = {None: -1}
        flat: List[Tuple[Optional[Item], int, Optional[List[float]]]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            position[node] = len(flat)
            flat.append((node.item, position[node.parent], node.ts_list))
            stack.extend(reversed(node.child_nodes()))
        by_item = {
            item: [position[node] for node in nodes]
            for item, nodes in self.nodes_by_item.items()
        }
        return {"order": self.order, "nodes": flat, "by_item": by_item}

    def __setstate__(self, state: dict) -> None:
        nodes: List[RPTreeNode] = []
        for item, parent, ts_list in state["nodes"]:
            node = RPTreeNode(item, nodes[parent] if parent >= 0 else None)
            node.ts_list = ts_list
            if node.parent is not None:
                node.parent.add_child(node)
            nodes.append(node)
        self.root = nodes[0]
        self.order = state["order"]
        self.nodes_by_item = {
            item: [nodes[index] for index in positions]
            for item, positions in state["by_item"].items()
        }

    # ------------------------------------------------------------------
    # Introspection (used by tests against the paper's Figures 5-6)
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Number of item nodes (the bound of Lemma 2 applies to this)."""
        return sum(len(nodes) for nodes in self.nodes_by_item.values())

    def ts_entry_count(self) -> int:
        """Total timestamps stored across all ts-lists.

        In a freshly built tree this equals the number of inserted
        transactions (one entry at each transaction's tail node) — the
        memory argument of Section 4.2.1: a design that stored
        occurrence information at *every* node on the path would pay
        the full Lemma 2 bound instead.
        """
        return sum(
            len(node.ts_list)
            for nodes in self.nodes_by_item.values()
            for node in nodes
            if node.ts_list
        )

    def paths(self) -> List[Tuple[Tuple[Item, ...], Tuple[float, ...]]]:
        """All root-to-tail paths that carry a ts-list, sorted.

        Used to compare a constructed tree against the paper's drawn
        figures without depending on dict iteration order.
        """
        collected: List[Tuple[Tuple[Item, ...], Tuple[float, ...]]] = []

        def visit(node: RPTreeNode, prefix: Tuple[Item, ...]) -> None:
            if node.item is not None:
                prefix = prefix + (node.item,)
                if node.ts_list:
                    collected.append((prefix, tuple(sorted(node.ts_list))))
            for child in node.child_nodes():
                visit(child, prefix)

        visit(self.root, ())
        collected.sort()
        return collected


ITEM_ORDERS = ("support-desc", "support-asc", "lexicographic")


def build_rp_tree(
    database: TransactionalDatabase,
    params: ResolvedParameters,
    rp_list: Optional[RPList] = None,
    item_order: str = "support-desc",
) -> Tuple[RPTree, RPList]:
    """Algorithms 1–3: scan for candidates, then build the RP-tree.

    Returns the tree together with the RP-list used to order it (the
    caller usually needs both).  Transactions whose candidate-item
    projection is empty contribute nothing, mirroring Property 3.  The
    scan reads the database's id rows, not its row objects.

    ``item_order`` selects the global item order of the prefix tree.
    The paper uses support-descending "to facilitate a high degree of
    compactness"; the alternatives exist for the ablation that
    quantifies that claim (mining output is order-invariant — tested —
    only the tree size changes).
    """
    if item_order not in ITEM_ORDERS:
        raise ValueError(
            f"item_order must be one of {ITEM_ORDERS}, got {item_order!r}"
        )
    if rp_list is None:
        rp_list = build_rp_list(database, params)
    candidates = list(rp_list.candidates)  # already support-descending
    if item_order == "support-asc":
        candidates.reverse()
    elif item_order == "lexicographic":
        candidates.sort(key=repr)
    order = {item: rank for rank, item in enumerate(candidates)}
    tree = RPTree(order)
    # Item id -> tree rank; a non-candidate ranks after every candidate,
    # so a row's sorted ranks end with the ones its projection drops.
    n_candidates = len(candidates)
    rank = [order.get(item, n_candidates) for item in database.item_labels]
    for ts, ids in database.id_rows():
        ranks = sorted(map(rank.__getitem__, ids))
        kept = bisect.bisect_left(ranks, n_candidates)
        if kept:
            tree.insert([candidates[r] for r in ranks[:kept]], (ts,))
    return tree, rp_list
