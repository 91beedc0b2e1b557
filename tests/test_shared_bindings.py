"""Queries probe the shared trie views directly.

TRIC keeps no per-query copy of a covering path's bindings: the terminal
node's positional view (or, for a path that repeats a variable, the node's
filtered view) *is* the binding relation, shared — rows, maintained indexes
and all — by every query ending on that node.  A materialised (TRIC+) query
is a reader of its terminal views' delta logs; relations without a reader
record none.

The properties below churn TRIC and TRIC+ (homomorphic and injective) with
chain, star, fork, cycle, self-loop and self-join queries and hold them, after
every batch, to the Naive oracle, to a never-polled twin and to a freshly
built engine; the structural tests pin what must *not* exist any more, and
that a trie root's view is its key's base view — one relation, never a copy.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NaiveEngine, TRICEngine, TRICPlusEngine, add, create_sharded_engine, delete
from repro.core.engine import ContinuousEngine
from repro.matching import answers as answers_module
from repro.pubsub import SubscriptionBroker, canonical_key, replay_deltas
from repro.query import QueryGraphPattern

LABELS = ("a", "b")
VERTICES = ("v0", "v1", "v2")

#: Query shapes by what they exercise in the shared-view design.
SHAPES = {
    # one path, no repeated variable: the terminal view itself is probed
    "chain": [("a", "?x", "?y"), ("b", "?y", "?z")],
    "literal": [("a", "?x", "?y"), ("b", "?y", "v0")],
    # the same key twice: the terminal is hit directly *and* by propagation
    "selfjoin": [("a", "?x", "?y"), ("a", "?y", "?z")],
    # two covering paths on two terminals
    "star": [("a", "?h", "?x"), ("b", "?h", "?y"), ("a", "?z", "?h")],
    "diamond": [("a", "?x", "?y"), ("b", "?x", "?z"), ("a", "?y", "?w"), ("b", "?z", "?w")],
    # two covering paths on the *same* terminal (one view read twice)
    "fork": [("a", "?x", "?y"), ("b", "?y", "?z"), ("b", "?y", "?w")],
    # repeated variables: the node's filtered view is probed
    "loop": [("a", "?x", "?x")],
    "cycle": [("a", "?x", "?y"), ("b", "?y", "?x")],
    "triangle": [("a", "?x", "?y"), ("a", "?y", "?z"), ("b", "?z", "?x")],
    # filtered and unfiltered readers of one terminal, in one query
    "cycle_fork": [("a", "?x", "?y"), ("b", "?y", "?x"), ("b", "?y", "?w")],
}


def _patterns(names):
    return [QueryGraphPattern(name, SHAPES[name]) for name in names]


def _answer_keys(engine, query_id):
    return {canonical_key(binding) for binding in engine.matches_of(query_id)}


@st.composite
def churn(draw):
    """Interleaved add/delete stream (deletions retract live edges, duplicate
    additions occur) cut into micro-batches."""
    events = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=2**16),
                st.sampled_from(LABELS),
                st.sampled_from(VERTICES),
                st.sampled_from(VERTICES),
            ),
            min_size=4,
            max_size=40,
        )
    )
    live, updates = [], []
    for roll, pick, label, source, target in events:
        if roll < 4 and live:
            edge = live.pop(pick % len(live))
            updates.append(delete(edge.label, edge.source, edge.target))
        else:
            update = add(label, source, target)
            live.append(update.edge)
            updates.append(update)
    batches = []
    while updates:
        size = draw(st.integers(min_value=1, max_value=8))
        batches.append(updates[:size])
        updates = updates[size:]
    return batches


query_sets = st.lists(st.sampled_from(sorted(SHAPES)), min_size=2, max_size=5, unique=True)


# ----------------------------------------------------------------------
# The property: oracle, never-polled twin, freshly built engine
# ----------------------------------------------------------------------
class TestSharedViewsStayExact:
    @given(
        st.sampled_from([TRICEngine, TRICPlusEngine]),
        st.booleans(),
        query_sets,
        churn(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_churn_against_oracle_twin_and_fresh_engine(
        self, factory, injective, names, batches, data
    ):
        queries = _patterns(names)
        engine, twin = factory(injective=injective), factory(injective=injective)
        oracle = NaiveEngine(injective=injective)
        for each in (engine, twin, oracle):
            each.register_all(queries)
        broker = SubscriptionBroker(engine)
        # When each query is first polled / subscribed: deltas are pending on
        # its terminal views by then, and its neighbours may already be live.
        first_poll = {
            name: data.draw(st.integers(min_value=0, max_value=len(batches)), label=f"poll {name}")
            for name in names
        }
        subscribe_at = {
            name: data.draw(st.integers(min_value=0, max_value=len(batches)), label=f"sub {name}")
            for name in names[:2]
        }
        feeds, frames = {}, {}
        previous = {name: set() for name in names}
        replayed = []
        for index, batch in enumerate(batches):
            for name, when in subscribe_at.items():
                if when == index:
                    feeds[name] = broker.subscribe(f"listener-{name}", [name])
                    frames[name] = []
            report = broker.on_batch(batch).notified
            twin_report = twin.on_batch(batch)
            oracle_report = oracle.on_batch(batch)
            replayed.append(batch)

            # Notifications equal the oracle's; the affected set is the
            # twin's (polling and subscribing change neither) and complete.
            assert set(report) == set(oracle_report) == set(twin_report)
            assert report.affected == twin_report.affected
            assert report <= report.affected
            current = {name: _answer_keys(oracle, name) for name in names}
            changed = {name for name in names if current[name] != previous[name]}
            assert changed <= report.affected
            previous = current

            fresh = factory(injective=injective)
            fresh.register_all(queries)
            for earlier in replayed:
                fresh.on_batch(earlier)
            for name in names:
                if first_poll[name] > index and index < len(batches) - 1:
                    continue  # not polled yet: stays unmaterialised
                expected = oracle.matches_of(name)
                assert engine.matches_of(name) == expected
                assert fresh.matches_of(name) == expected
                assert engine.has_matches(name) == fresh.has_matches(name) == bool(expected)
            for name, feed in feeds.items():
                frames[name].extend(feed.drain())
                assert replay_deltas(frames[name]).get(name, set()) == current[name]
        assert engine.satisfied_queries() == oracle.satisfied_queries()

    @given(st.booleans(), query_sets, query_sets, churn())
    @settings(max_examples=30, deadline=None)
    def test_register_after_updates(self, injective, early_names, late_names, batches):
        """Late queries land on terminals that already carry rows (and live
        readers): backfilled nodes, and filtered views created from a
        populated view."""
        late_names = [name for name in late_names if name not in early_names]
        engine, oracle = TRICPlusEngine(injective=injective), NaiveEngine(injective=injective)
        for each in (engine, oracle):
            each.register_all(_patterns(early_names))
        half = len(batches) // 2
        for batch in batches[:half]:
            engine.on_batch(batch)
            oracle.on_batch(batch)
        for name in early_names:  # materialise: live maintainers on the terminals
            assert engine.matches_of(name) == oracle.matches_of(name)
        for each in (engine, oracle):
            each.register_all(_patterns(late_names))
        # A late query starts from the graph as it stands: its new keys'
        # views fill from the registry's live edges, its shared ones are
        # already current.
        for name in late_names:
            assert engine.matches_of(name) == oracle.matches_of(name)
        for batch in batches[half:]:
            assert engine.on_batch(batch) == oracle.on_batch(batch)
            for name in early_names + late_names:
                assert engine.matches_of(name) == oracle.matches_of(name)


# ----------------------------------------------------------------------
# An answer determines its derivation: a maintained answer relation is a set
# ----------------------------------------------------------------------
#: Multi-path shapes mixing literals into cycles and repeated variables.
LITERAL_SHAPES = {
    "literal_cycle": [("a", "?x", "?y"), ("b", "?y", "v0"), ("a", "v0", "?x")],
    "literal_fork": [("a", "v0", "?x"), ("b", "?x", "?y"), ("b", "?x", "?x")],
    "literal_star": [("a", "?h", "v1"), ("b", "?h", "?y"), ("a", "?y", "?h")],
}
multi_path_sets = st.lists(
    st.sampled_from(
        ["star", "diamond", "fork", "cycle_fork", "triangle", *sorted(LITERAL_SHAPES)]
    ),
    min_size=2,
    max_size=4,
    unique=True,
)
#: Longer streams than one ``churn()``: multi-path answers need several edges.
long_churn = st.lists(churn(), min_size=2, max_size=4).map(
    lambda parts: [batch for part in parts for batch in part]
)


class _RecordingAnswers:
    """Stands in for a maintainer's answer relation during one ``sync``,
    recording whether each ``add`` / ``remove`` changed visibility."""

    def __init__(self, relation, outcomes):
        self._relation = relation
        self._outcomes = outcomes

    def add(self, row):
        changed = self._relation.add(row)
        self._outcomes.append(("add", row, changed))
        return changed

    def remove(self, row):
        changed = self._relation.remove(row)
        self._outcomes.append(("remove", row, changed))
        return changed


class TestAnswersAreSets:
    @given(st.booleans(), multi_path_sets, long_churn)
    @settings(max_examples=60, deadline=None)
    def test_every_sync_mutation_changes_visibility(self, injective, names, batches):
        """Derivation enumeration never repeats an answer, so every answer
        ``sync`` adds is new and every answer it removes was present."""
        shapes = {**SHAPES, **LITERAL_SHAPES}
        queries = [QueryGraphPattern(name, shapes[name]) for name in names]
        engine, oracle = TRICPlusEngine(injective=injective), NaiveEngine(injective=injective)
        for each in (engine, oracle):
            each.register_all(queries)
        for name in names:  # live maintainers from the start
            assert engine.matches_of(name) == []
        outcomes = []
        sync = answers_module.MaterializedAnswers.sync

        def recording_sync(self, relations):
            real = self.relation
            self.relation = _RecordingAnswers(real, outcomes)
            try:
                sync(self, relations)
            finally:
                self.relation = real

        answers_module.MaterializedAnswers.sync = recording_sync
        try:
            for batch in batches:
                engine.on_batch(batch)
                oracle.on_batch(batch)
                for name in names:
                    assert engine.matches_of(name) == oracle.matches_of(name)
                    derivations = list(
                        engine._plans[name].iter_derivations(
                            engine._binding_relations[name], injective=injective
                        )
                    )
                    assert len(derivations) == len(set(derivations))
        finally:
            answers_module.MaterializedAnswers.sync = sync
        assert all(changed for _, _, changed in outcomes), [
            outcome for outcome in outcomes if not outcome[2]
        ]


# ----------------------------------------------------------------------
# Deterministic corners of the materialised feed
# ----------------------------------------------------------------------
class TestMaterialisedFeed:
    def _subscribed(self, name):
        engine, oracle = TRICPlusEngine(), NaiveEngine()
        for each in (engine, oracle):
            each.register_all(_patterns([name]))
        broker = SubscriptionBroker(engine)
        return engine, oracle, broker, broker.subscribe("app", [name])

    def test_one_batch_changing_both_paths_uses_the_old_state_overlay(self, monkeypatch):
        """Additions and deletions on both covering paths of a subscribed
        query inside one batch: path 0's net delta must be joined against
        path 1 *as it was*, which only the overlay can answer now that the
        views are shared and already new."""
        overlay_probes = []
        probe = answers_module._OldState.probe

        def spy(self, positions, key):
            overlay_probes.append(positions)
            return probe(self, positions, key)

        monkeypatch.setattr(answers_module._OldState, "probe", spy)
        engine, oracle, broker, feed = self._subscribed("diamond")
        warmup = [
            add("a", "v0", "v1"), add("a", "v1", "v3"), add("b", "v0", "v2"), add("b", "v2", "v3"),
            add("a", "v1", "v2"), add("b", "v2", "v2"),
        ]
        batch = [
            add("a", "v0", "v2"), add("a", "v2", "v3"), add("b", "v0", "v1"), add("b", "v1", "v3"),
            delete("a", "v1", "v3"), delete("b", "v2", "v3"), delete("b", "v2", "v2"),
            add("b", "v2", "v3"),
        ]
        frames = list(feed.drain())
        for updates in (warmup, batch):
            broker.on_batch(updates)
            oracle.on_batch(updates)
            frames.extend(feed.drain())
            assert engine.matches_of("diamond") == oracle.matches_of("diamond")
            assert replay_deltas(frames)["diamond"] == _answer_keys(oracle, "diamond")
        assert overlay_probes, "both paths had pending deltas: the overlay must have been probed"

    @given(st.booleans(), churn())
    @settings(max_examples=40, deadline=None)
    def test_live_maintainers_under_batches_touching_several_paths(self, injective, batches):
        """Every multi-path shape materialised from the start, fed by batches
        that routinely change more than one of a query's paths at once."""
        names = ["star", "diamond", "fork", "cycle_fork"]
        engine, oracle = TRICPlusEngine(injective=injective), NaiveEngine(injective=injective)
        for each in (engine, oracle):
            each.register_all(_patterns(names))
        for name in names:
            assert engine.matches_of(name) == []
        for batch in batches:
            assert set(engine.on_batch(batch)) == set(oracle.on_batch(batch))
            for name in names:
                assert engine.matches_of(name) == oracle.matches_of(name)
                assert engine.has_matches(name) == oracle.has_matches(name)

    def test_delta_log_compaction_mid_stream(self):
        """Add/remove churn on a tracked terminal compacts its log (an epoch
        bump): the reader rebuilds instead of patching, nothing is lost."""
        engine, oracle, broker, feed = self._subscribed("chain")
        terminal = engine._binding_relations["chain"][0]
        frames = list(feed.drain())
        epoch = terminal.epoch
        stream = [add("a", "v0", "v1"), add("b", "v1", "v2")]
        for _ in range(40):
            stream += [delete("b", "v1", "v2"), add("b", "v1", "v2")]
        stream += [add("b", "v1", "v3")]
        for update in stream:
            broker.on_update(update)
            oracle.on_update(update)
            frames.extend(feed.drain())
            assert replay_deltas(frames).get("chain", set()) == _answer_keys(oracle, "chain")
        assert terminal.epoch > epoch
        assert terminal.log_length < 64
        assert engine.matches_of("chain") == oracle.matches_of("chain")

    def test_first_poll_with_deltas_pending_on_a_shared_terminal(self):
        """``fork`` reads one terminal twice and shares it with ``chain``: a
        maintainer created mid-stream starts from the view as it is now and
        must not replay what an earlier reader's log already holds."""
        engine, oracle = TRICPlusEngine(), NaiveEngine()
        for each in (engine, oracle):
            each.register_all(_patterns(["chain", "fork"]))
        first = [add("a", "v0", "v1"), add("b", "v1", "v2"), add("b", "v1", "v3")]
        second = [add("a", "v2", "v1"), delete("b", "v1", "v2"), add("b", "v1", "v0")]
        for each in (engine, oracle):
            each.on_batch(first)
        assert engine.matches_of("chain") == oracle.matches_of("chain")  # reader 1
        for each in (engine, oracle):
            each.on_batch(second)
        assert engine.matches_of("fork") == oracle.matches_of("fork")  # reader 2, mid-log
        third = [delete("a", "v0", "v1"), add("b", "v1", "v2")]
        for each in (engine, oracle):
            each.on_batch(third)
        for name in ("chain", "fork"):
            assert engine.matches_of(name) == oracle.matches_of(name)


# ----------------------------------------------------------------------
# Structural pins: what no longer exists
# ----------------------------------------------------------------------
def _relations_of(engine):
    """Every relation reachable from the engine, by role."""
    base = [engine.views.view(key) for key in engine.views.keys()]
    nodes = list(engine.forest.nodes())
    return base, nodes


class TestNoPerQueryState:
    def _streamed(self, factory):
        engine = factory()
        engine.register_all(_patterns(sorted(SHAPES)))
        for source in VERTICES:
            for target in VERTICES:
                engine.on_batch([add("a", source, target), add("b", target, source)])
        engine.on_batch([delete("a", "v0", "v1"), delete("b", "v2", "v2")])
        return engine

    def test_binding_relations_are_the_nodes_own_views(self):
        engine = self._streamed(TRICEngine)
        owned = set()
        for node in engine.forest.nodes():
            owned.add(id(node.view))
            owned.update(id(relation) for relation in node.filtered_views.values())
            # a filtered view is exactly the view's rows passing its signature
            for equality, relation in node.filtered_views.items():
                assert relation.rows == {
                    row for row in node.view.rows if all(row[i] == row[j] for i, j in equality)
                }
        for query_id, relations in engine._binding_relations.items():
            plan = engine._plans[query_id]
            for path_plan, relation in zip(plan.path_plans, relations):
                assert id(relation) in owned  # no per-query binding rows exist
                assert relation.schema == path_plan.schema  # positional, not projected

    def test_queries_sharing_a_terminal_share_its_indexes(self):
        engine = self._streamed(TRICEngine)
        chain, fork = engine._binding_relations["chain"], engine._binding_relations["fork"]
        view = chain[0]
        assert view is fork[0] is fork[1]  # one terminal, read three times
        # cycle and cycle_fork's first path share the node's *filtered* view;
        # cycle_fork's second path reads the unfiltered one.
        assert engine._binding_relations["cycle"][0] is engine._binding_relations["cycle_fork"][0]
        assert engine._binding_relations["cycle_fork"][1] is view
        # fork probes the terminal on its (?x, ?y) columns: the view maintains
        # that index once, however many queries of that shape end here.
        assert (0, 1) in view.maintained_index_positions
        crowded = TRICEngine()
        shapes = sorted(SHAPES)
        crowded.register_all(_patterns(shapes))
        crowded.register_all(
            QueryGraphPattern(f"fork{i}", SHAPES["fork"]) for i in range(5)
        )
        for source in VERTICES:
            for target in VERTICES:
                crowded.on_batch([add("a", source, target), add("b", target, source)])
        crowded.on_batch([delete("a", "v0", "v1"), delete("b", "v2", "v2")])
        crowded_view = crowded._binding_relations["fork0"][0]
        assert crowded_view is crowded._binding_relations["fork4"][1]
        assert crowded_view.rows == view.rows
        assert sorted(crowded_view.maintained_index_positions) == sorted(
            view.maintained_index_positions
        )

    def test_only_relations_with_a_reader_record_a_delta_log(self):
        engine = self._streamed(TRICPlusEngine)
        base, nodes = _relations_of(engine)

        def tracked():
            return {
                id(relation)
                for node in nodes
                for relation in [node.view, *node.filtered_views.values()]
                if relation.tracks_deltas
            }

        # Nothing was polled: nobody reads, nobody records.
        assert not tracked()
        assert not any(view.tracks_deltas for view in base)

        engine.matches_of("star")  # a maintainer: reader of star's two terminals
        readers = {id(relation) for relation in engine._binding_relations["star"]}
        assert tracked() == readers
        answers = engine._answers["star"].relation
        assert not answers.tracks_deltas  # polled, but nobody subscribed

        broker = SubscriptionBroker(engine)
        broker.subscribe("app", ["cycle"])  # a delta tracker: reader of the answers
        readers |= {id(relation) for relation in engine._binding_relations["cycle"]}
        assert tracked() == readers
        assert engine._answers["cycle"].relation.tracks_deltas
        assert not any(view.tracks_deltas for view in base)
        interior = [node for node in nodes if not node.query_paths]
        assert interior and not any(node.view.tracks_deltas for node in interior)

        # The base engine never has a reader at all.
        plain = self._streamed(TRICEngine)
        plain.matches_of("star")
        base, nodes = _relations_of(plain)
        assert not any(view.tracks_deltas for view in base)
        assert not any(node.view.tracks_deltas for node in nodes)


# ----------------------------------------------------------------------
# A trie root's view is its key's base view
# ----------------------------------------------------------------------
def _assert_roots_are_base_views(engine):
    assert engine.forest.roots
    for key, root in engine.forest.roots.items():
        assert root.view is engine.views.get(key)


def _churned_batches(seed, count, size=5):
    """Deterministic add/delete batches over ``LABELS`` x ``VERTICES``
    (self-loops included, deletions retract live edges)."""
    rng = random.Random(seed)
    live, batches = [], []
    for _ in range(count):
        batch = []
        for _ in range(size):
            if live and rng.random() < 0.4:
                edge = live.pop(rng.randrange(len(live)))
                batch.append(delete(edge.label, edge.source, edge.target))
            else:
                update = add(rng.choice(LABELS), rng.choice(VERTICES), rng.choice(VERTICES))
                live.append(update.edge)
                batch.append(update)
        batches.append(batch)
    return batches


#: Registered mid-stream: both are rooted at ``b``, a key the early queries
#: only use below their roots, so the new root lands on a populated view.
LATE = [
    QueryGraphPattern("late_edge", [("b", "?u", "?v")]),
    QueryGraphPattern("late_chain", [("b", "?x", "?y"), ("a", "?y", "?z")]),
]


class TestRootsAreBaseViews:
    @pytest.mark.parametrize("factory", [TRICEngine, TRICPlusEngine])
    def test_through_churn_restore_and_a_late_root(self, factory):
        early = _patterns(["chain", "loop", "star", "cycle_fork"])
        engine, oracle = factory(), NaiveEngine()
        for each in (engine, oracle):
            each.register_all(early)
        _assert_roots_are_base_views(engine)  # at registration
        batches = _churned_batches(seed=43, count=24)

        def run(batches, names):
            for batch in batches:
                assert engine.on_batch(batch) == oracle.on_batch(batch)
                for name in names:
                    assert _answer_keys(engine, name) == _answer_keys(oracle, name)

        names = [pattern.query_id for pattern in early]
        run(batches[:8], names)
        _assert_roots_are_base_views(engine)  # after churn
        # ``loop`` reads its root through a filtered view, patched from the
        # rows the registry applied to the shared base view.
        (root,) = engine.forest.roots.values()
        (loop_view,) = root.filtered_views.values()
        assert loop_view.rows == {row for row in root.view.rows if row[0] == row[1]}

        engine = ContinuousEngine.restore(engine.snapshot())
        _assert_roots_are_base_views(engine)  # after restore
        run(batches[8:16], names)

        roots_before = set(engine.forest.roots)
        for each in (engine, oracle):
            each.register_all(LATE)
        assert len(engine.forest.roots) == len(roots_before) + 1
        _assert_roots_are_base_views(engine)  # after a mid-stream new root
        names += [pattern.query_id for pattern in LATE]
        run(batches[16:], names)
        _assert_roots_are_base_views(engine)
        if factory is TRICPlusEngine:
            # a polled single-edge path ends on the root: its base view has a reader
            (new_key,) = set(engine.forest.roots) - roots_before
            assert engine.views.get(new_key).tracks_deltas

    def test_inside_process_shard_workers(self):
        # hash assignment puts chain, loop and LATE on shard 0, cycle and
        # triangle on shard 1: every worker holds roots
        queries = _patterns(["chain", "loop", "cycle", "triangle"]) + LATE
        group = create_sharded_engine("TRIC+", 2, executor="process")
        oracle = NaiveEngine()
        try:
            for each in (group, oracle):
                each.register_all(queries)
            for batch in _churned_batches(seed=7, count=10):
                assert group.on_batch(batch) == oracle.on_batch(batch)
            for query in queries:
                assert group.matches_of(query.query_id) == oracle.matches_of(query.query_id)
            for shard in group.shards:
                blob = shard._supervised(lambda worker: worker.snapshot())
                _assert_roots_are_base_views(ContinuousEngine.restore(blob))
        finally:
            group.close()
