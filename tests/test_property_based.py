"""Property-based tests (hypothesis) over the core data structures and engines.

The central property is the one the whole repository rests on: for any query
set and any update stream, the incremental engines report exactly the same
per-update answers as the naive re-evaluation oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NaiveEngine, TRICEngine, TRICPlusEngine, add, delete
from repro.baselines.inc import INCPlusEngine
from repro.baselines.inv import INVEngine
from repro.graph import Edge, Graph
from repro.matching.evaluator import find_embeddings
from repro.query import QueryGraphPattern, covering_paths

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
LABELS = ("a", "b")
VERTICES = ("v0", "v1", "v2", "v3")
TERMS = ("?x", "?y", "?z", "v0", "v1")


@st.composite
def connected_patterns(draw):
    """Small connected query patterns over a tiny vocabulary."""
    num_edges = draw(st.integers(min_value=1, max_value=3))
    edges = []
    terms = [draw(st.sampled_from(TERMS))]
    for i in range(num_edges):
        label = draw(st.sampled_from(LABELS))
        anchor = draw(st.sampled_from(terms))
        other = draw(st.sampled_from(TERMS))
        if draw(st.booleans()):
            edges.append((label, anchor, other))
        else:
            edges.append((label, other, anchor))
        terms.append(other)
    # Guarantee at least one variable so this is a pattern, not a fact.
    if not any(t.startswith("?") for triple in edges for t in triple[1:]):
        label, _, target = edges[0]
        edges[0] = (label, "?x", target)
    return QueryGraphPattern(draw(st.uuids()).hex, edges)


edge_streams = st.lists(
    st.tuples(st.sampled_from(LABELS), st.sampled_from(VERTICES), st.sampled_from(VERTICES)),
    min_size=1,
    max_size=25,
)


@st.composite
def mixed_update_streams(draw):
    """Interleaved additions and deletions; deletions retract live edges."""
    events = draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=2**16),
                st.sampled_from(LABELS),
                st.sampled_from(VERTICES),
                st.sampled_from(VERTICES),
            ),
            min_size=1,
            max_size=30,
        )
    )
    live, updates = [], []
    for is_deletion, pick, label, source, target in events:
        if is_deletion and live:
            edge = live.pop(pick % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
        else:
            update = add(label, source, target)
            live.append(update.edge)
            updates.append(update)
    return updates


# ----------------------------------------------------------------------
# Covering-path and engine properties
# ----------------------------------------------------------------------
class TestCoveringPathProperties:
    @given(connected_patterns())
    @settings(max_examples=50, deadline=None)
    def test_decomposition_preserves_the_edge_multiset(self, pattern):
        paths = covering_paths(pattern)
        covered = {index for path in paths for index in path.edge_indices()}
        assert covered == {edge.index for edge in pattern.edges}


class TestEngineEquivalenceProperties:
    @given(st.lists(connected_patterns(), min_size=1, max_size=3), edge_streams)
    @settings(max_examples=25, deadline=None)
    def test_tric_agrees_with_the_oracle(self, patterns, triples):
        patterns = _unique_ids(patterns)
        tric, oracle = TRICEngine(), NaiveEngine()
        for engine in (tric, oracle):
            engine.register_all(patterns)
        for label, source, target in triples:
            update = add(label, source, target)
            assert tric.on_update(update) == oracle.on_update(update)
        assert tric.satisfied_queries() == oracle.satisfied_queries()

    @given(st.lists(connected_patterns(), min_size=1, max_size=3), edge_streams)
    @settings(max_examples=15, deadline=None)
    def test_caching_never_changes_answers(self, patterns, triples):
        patterns = _unique_ids(patterns)
        cached, plain = TRICPlusEngine(), TRICEngine()
        for engine in (cached, plain):
            engine.register_all(patterns)
        for label, source, target in triples:
            update = add(label, source, target)
            assert cached.on_update(update) == plain.on_update(update)

    @given(st.lists(connected_patterns(), min_size=1, max_size=2), edge_streams)
    @settings(max_examples=15, deadline=None)
    def test_inverted_index_baselines_agree_with_the_oracle(self, patterns, triples):
        patterns = _unique_ids(patterns)
        engines = [INVEngine(), INCPlusEngine(), NaiveEngine()]
        for engine in engines:
            engine.register_all(patterns)
        for label, source, target in triples:
            update = add(label, source, target)
            answers = [engine.on_update(update) for engine in engines]
            assert answers[0] == answers[2]
            assert answers[1] == answers[2]

    @given(st.lists(connected_patterns(), min_size=1, max_size=2), edge_streams)
    @settings(max_examples=15, deadline=None)
    def test_final_matches_equal_graph_level_embeddings(self, patterns, triples):
        """After the whole stream, matches_of must equal the embeddings of the
        final graph (queries registered before any update arrive)."""
        patterns = _unique_ids(patterns)
        engine = TRICEngine()
        engine.register_all(patterns)
        graph = Graph()
        for label, source, target in triples:
            engine.on_update(add(label, source, target))
            graph.add_edge(Edge(label, source, target))
        for pattern in patterns:
            expected = {
                tuple(sorted(assignment.items()))
                for assignment in find_embeddings(graph, pattern)
            }
            actual = {
                tuple(sorted(assignment.items()))
                for assignment in engine.matches_of(pattern.query_id)
            }
            assert actual == expected


class TestDeletionAndBatchingProperties:
    """The unified delta pipeline's core properties.

    For any query set and any interleaved add/delete stream, (1) the
    counting-based incremental engines agree with the naive oracle update by
    update, and (2) driving an engine through micro-batches of any size is
    answer-equivalent to driving it per update.
    """

    @given(st.lists(connected_patterns(), min_size=1, max_size=3), mixed_update_streams())
    @settings(max_examples=20, deadline=None)
    def test_counting_deletions_agree_with_the_oracle(self, patterns, updates):
        patterns = _unique_ids(patterns)
        tric, tric_plus, oracle = TRICEngine(), TRICPlusEngine(), NaiveEngine()
        for engine in (tric, tric_plus, oracle):
            engine.register_all(patterns)
        for update in updates:
            expected = oracle.on_update(update)
            assert tric.on_update(update) == expected
            assert tric_plus.on_update(update) == expected
        assert tric.satisfied_queries() == oracle.satisfied_queries()
        assert tric_plus.satisfied_queries() == oracle.satisfied_queries()
        for pattern in patterns:
            expected = oracle.matches_of(pattern.query_id)
            assert tric.matches_of(pattern.query_id) == expected
            assert tric_plus.matches_of(pattern.query_id) == expected

    @given(
        st.lists(connected_patterns(), min_size=1, max_size=3),
        mixed_update_streams(),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=20, deadline=None)
    def test_batched_drive_is_answer_equivalent(self, patterns, updates, batch_size):
        patterns = _unique_ids(patterns)
        for factory in (TRICPlusEngine, NaiveEngine):
            per_update, batched = factory(), factory()
            for engine in (per_update, batched):
                engine.register_all(patterns)
            for start in range(0, len(updates), batch_size):
                window = updates[start : start + batch_size]
                union = frozenset().union(*(per_update.on_update(u) for u in window))
                assert batched.on_batch(window) == union
            assert batched.satisfied_queries() == per_update.satisfied_queries()
            for pattern in patterns:
                assert batched.matches_of(pattern.query_id) == per_update.matches_of(
                    pattern.query_id
                )


def _unique_ids(patterns):
    """Give every generated pattern a unique query id."""
    unique = []
    for index, pattern in enumerate(patterns):
        unique.append(QueryGraphPattern(f"Q{index}", [
            (edge.label, edge.source, edge.target) for edge in pattern.edges
        ]))
    return unique
