"""Materialized base views of query edges, over one store of live edges.

Every distinct (generalised) query edge present in the query database owns a
materialized view ``matV[e]`` holding all stream updates that satisfy it
(paper Section 4.1, "Materialization").  Views materialize only edges that
occur in registered queries — the engines never index the full graph, which
is exactly the behaviour the paper calls out in Section 3.2.

The registry itself counts *every* live edge, matched or not, as plain
``(source, target)`` string pairs per label: the multigraph multiplicities
that decide when a tuple leaves its views, and what a key registered
mid-stream fills its new view from.  A late query therefore answers over
the graph as it stands, whichever queries were registered when its edges
arrived; unmatched traffic costs one string count and never grows the
vertex dictionary.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..graph.elements import Edge
from ..graph.interning import VertexInterner
from ..query.terms import EdgeKey, candidate_keys_for_edge
from .relation import Relation, Row

__all__ = ["EdgeViewRegistry"]

# Base edge views use the schema of a depth-1 trie view (source and target
# vertex): a trie root's view *is* the base view of its key.  Columns are read
# by position, never by name.
EDGE_VIEW_SCHEMA = ("p0", "p1")


class EdgeViewRegistry:
    """Registry of base materialized views keyed by generalised edge keys.

    The registry is the interning boundary of the matching layer: incoming
    edges have their endpoint strings dictionary-encoded through a
    :class:`~repro.graph.interning.VertexInterner`, so every view row — and
    everything joined from it downstream — is a tuple of dense ints.  Each
    view is born with maintained ``source -> rows`` and ``target -> rows``
    adjacency indexes, created while the view is still empty and patched by
    its own mutations ever after (never rebuilt on the stream path).
    """

    def __init__(self, interner: Optional[VertexInterner] = None) -> None:
        #: The string <-> dense-int vertex encoding shared by every view.
        self.interner = interner if interner is not None else VertexInterner()
        self._views: Dict[EdgeKey, Relation] = {}
        # label -> keys with that label; avoids probing all four candidate
        # generalisations when no registered key uses the label at all.
        self._keys_by_label: Dict[str, Set[EdgeKey]] = {}
        # label -> (source, target) -> live copies, over every live edge.
        # Views hold *distinct* tuples, so a tuple is only retracted once
        # every copy has been deleted; a new key's view starts from here.
        self._live: Dict[str, Counter[Tuple[str, str]]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, key: EdgeKey) -> Relation:
        """Ensure a view exists for ``key`` and return it.

        A new view starts from every live edge that satisfies ``key``, so a
        key registered mid-stream is current at once.
        """
        view = self._views.get(key)
        if view is None:
            view = Relation(EDGE_VIEW_SCHEMA)
            # Adjacency indexes registered at birth: built over zero rows,
            # then maintained incrementally for the view's lifetime.
            view.ensure_index((0,))
            view.ensure_index((1,))
            self._views[key] = view
            self._keys_by_label.setdefault(key.label, set()).add(key)
            intern_pair = self.interner.intern_pair
            view.add_all(
                intern_pair(source, target)
                for source, target in self._live.get(key.label, ())
                if key.matches(Edge(key.label, source, target))
            )
        return view

    def register_all(self, keys: Iterable[EdgeKey]) -> None:
        """Register every key in ``keys``."""
        for key in keys:
            self.register(key)

    def view(self, key: EdgeKey) -> Relation:
        """Return the view for ``key`` (registering it on first use)."""
        return self.register(key)

    def get(self, key: EdgeKey) -> Relation | None:
        """Return the view for ``key`` or ``None`` when not registered."""
        return self._views.get(key)

    def __contains__(self, key: EdgeKey) -> bool:
        return key in self._views

    def __len__(self) -> int:
        return len(self._views)

    def keys(self) -> Iterator[EdgeKey]:
        """Iterate over registered keys."""
        return iter(self._views)

    def has_label(self, label: str) -> bool:
        """``True`` when at least one registered key uses ``label``."""
        return bool(self._keys_by_label.get(label))

    # ------------------------------------------------------------------
    # Stream maintenance
    # ------------------------------------------------------------------
    def matching_keys(self, edge: Edge) -> List[EdgeKey]:
        """Registered keys that the concrete ``edge`` satisfies (at most four)."""
        if not self.has_label(edge.label):
            return []
        return [key for key in candidate_keys_for_edge(edge) if key in self._views]

    def _apply_addition(self, edge: Edge) -> Tuple[List[Tuple[EdgeKey, bool]], Row | None]:
        """Count ``edge`` live and add it to every view it satisfies.

        Returns the ``(key, is_new)`` pairs of the affected views — ``is_new``
        is ``False`` when the tuple was already present (duplicate multigraph
        edge) — and the interned row (``None`` if unmatched).  Endpoints are
        only interned once the edge is known to match a registered key, so
        non-matching stream traffic never grows the vertex dictionary.
        """
        copies = self._live.get(edge.label)
        if copies is None:
            copies = self._live[edge.label] = Counter()
        copies[edge.source, edge.target] += 1
        keys = self.matching_keys(edge)
        if not keys:
            return [], None
        results: List[Tuple[EdgeKey, bool]] = []
        row = self.interner.intern_pair(edge.source, edge.target)
        for key in keys:
            is_new = self._views[key].add(row)
            results.append((key, is_new))
        return results, row

    def _apply_deletion(self, edge: Edge) -> Tuple[List[EdgeKey], Row | None]:
        """Remove one copy of ``edge``: the keys whose view changed and the
        interned row (``None`` if unmatched).

        With multigraph semantics the tuple only leaves the views once the
        last remaining copy of the edge has been deleted; deleting an edge
        that is not live changes nothing.
        """
        copies = self._live.get(edge.label)
        pair = (edge.source, edge.target)
        remaining = copies.get(pair, 0) if copies else 0
        if remaining != 1:
            if remaining:
                copies[pair] = remaining - 1
            return [], None
        del copies[pair]
        if not copies:
            del self._live[edge.label]
        keys = self.matching_keys(edge)
        if not keys:
            return [], None
        affected: List[EdgeKey] = []
        row = self.interner.intern_pair(edge.source, edge.target)
        for key in keys:
            if self._views[key].remove(row):
                affected.append(key)
        return affected, row

    def multiplicity(self, edge: Edge) -> int:
        """Number of live copies of ``edge``."""
        copies = self._live.get(edge.label)
        return copies.get((edge.source, edge.target), 0) if copies else 0

    # ------------------------------------------------------------------
    # Micro-batch maintenance
    # ------------------------------------------------------------------
    def apply_additions(self, edges: Iterable[Edge]) -> Dict[EdgeKey, List[Row]]:
        """Add a micro-batch of edges; group the genuinely new tuples by key.

        Returns a mapping from each affected generalised key to the list of
        ``(source, target)`` tuples that were new to its view — exactly the
        per-key positive deltas the engines join down their structures.
        """
        new_by_key: Dict[EdgeKey, List[Row]] = {}
        for edge in edges:
            changed, row = self._apply_addition(edge)
            for key, is_new in changed:
                if is_new:
                    new_by_key.setdefault(key, []).append(row)
        return new_by_key

    def apply_deletions(self, edges: Iterable[Edge]) -> Dict[EdgeKey, Set[Row]]:
        """Delete a micro-batch of edges; group the retracted tuples by key.

        Returns a mapping from each affected generalised key to the set of
        ``(source, target)`` tuples its view lost — the per-key negative
        deltas, symmetric to :meth:`apply_additions`.
        """
        removed_by_key: Dict[EdgeKey, Set[Row]] = {}
        for edge in edges:
            affected, row = self._apply_deletion(edge)
            for key in affected:
                removed_by_key.setdefault(key, set()).add(row)
        return removed_by_key

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_rows(self) -> int:
        """Total number of tuples across all views (for memory reports)."""
        return sum(len(view) for view in self._views.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeViewRegistry(views={len(self._views)}, rows={self.total_rows()})"
