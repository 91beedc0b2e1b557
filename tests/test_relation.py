"""Tests for relations and path-row extension."""

from __future__ import annotations

import pytest

from repro.matching.relation import Relation, extend_path_rows


class TestRelationBasics:
    def test_empty_relation(self):
        relation = Relation(("a", "b"))
        assert len(relation) == 0
        assert not relation
        assert relation.arity == 2

    def test_add_and_contains(self):
        relation = Relation(("a", "b"))
        assert relation.add(("x", "y"))
        assert ("x", "y") in relation
        assert len(relation) == 1

    def test_add_duplicate_returns_false(self):
        relation = Relation(("a",), [("x",)])
        assert not relation.add(("x",))
        assert len(relation) == 1

    def test_add_wrong_arity_raises(self):
        relation = Relation(("a", "b"))
        with pytest.raises(ValueError):
            relation.add(("only-one",))

    def test_add_all_returns_new_rows_only(self):
        relation = Relation(("a",), [("x",)])
        added = relation.add_all([("x",), ("y",), ("z",), ("y",)])
        assert added == [("y",), ("z",)]

    def test_remove(self):
        relation = Relation(("a",), [("x",)])
        assert relation.remove(("x",))
        assert not relation.remove(("x",))

    def test_delta_log_is_opt_in(self):
        relation = Relation(("a",), [("w",)])
        assert not relation.tracks_deltas
        relation.add(("x",))
        with pytest.raises(RuntimeError):
            relation.deltas_since(0)
        with pytest.raises(RuntimeError):
            relation.log_length
        relation.track_deltas()
        assert relation.tracks_deltas
        # The log starts empty: a reader's first sync is a snapshot of rows.
        mark = relation.log_length
        assert mark == 0
        relation.add(("y",))
        relation.track_deltas()  # idempotent: does not reset the log
        assert list(relation.deltas_since(mark)) == [(("y",), 1)]

    def test_bulk_mutators_reject_wrong_arity_without_side_effects(self):
        relation = Relation(("a", "b"), [("x", "y")])
        relation.ensure_index((0,))
        relation.track_deltas()
        with pytest.raises(ValueError):
            relation.add_all([("p", "q"), ("only-one",)])
        assert relation.rows == {("x", "y")}
        assert relation.log_length == 0
        assert relation.probe((0,), ("p",)) == set()

    def test_bulk_mutators_patch_indexes_and_log_like_the_per_row_forms(self):
        bulk = Relation(("a", "b", "c"))
        single = Relation(("a", "b", "c"))
        for relation in (bulk, single):
            relation.track_deltas()
            for positions in [(0,), (1, 2), (0, 1, 2)]:
                relation.ensure_index(positions)
        rows = [(i % 3, i % 5, i) for i in range(30)]
        assert bulk.add_all(rows + rows[:4]) == [row for row in rows if single.add(row)]
        gone = rows[::2] + [(9, 9, 9)]
        assert bulk.remove_all(gone) == [row for row in gone if single.remove(row)]
        assert bulk.rows == single.rows
        assert list(bulk.deltas_since(0)) == list(single.deltas_since(0))
        for positions in bulk.maintained_index_positions:
            assert bulk.index_map(positions) == single.index_map(positions)

    def test_clear_and_replace(self):
        relation = Relation(("a",), [("x",), ("y",)])
        relation.replace_rows([("z",)])
        assert relation.rows == {("z",)}
        relation.clear()
        assert len(relation) == 0

    def test_copy_is_independent(self):
        relation = Relation(("a",), [("x",)])
        clone = relation.copy()
        clone.add(("y",))
        assert len(relation) == 1


class TestDeltaLog:
    def test_removals_are_logged_with_negative_sign(self):
        relation = Relation(("a",), [("x",)])
        relation.track_deltas()
        mark = relation.log_length
        relation.add(("y",))
        relation.remove(("x",))
        assert list(relation.deltas_since(mark)) == [(("y",), 1), (("x",), -1)]

    def test_remove_all_reports_only_removed_rows(self):
        relation = Relation(("a",), [("x",), ("y",)])
        removed = relation.remove_all([("x",), ("z",), ("x",)])
        assert removed == [("x",)]
        assert relation.rows == {("y",)}

    def test_log_positions_stay_valid_across_removals(self):
        relation = Relation(("a",))
        relation.track_deltas()
        relation.add(("x",))
        mark = relation.log_length
        relation.remove(("x",))
        relation.add(("z",))
        assert list(relation.deltas_since(mark)) == [(("x",), -1), (("z",), 1)]

    def test_churn_compacts_the_log_instead_of_growing_it(self):
        relation = Relation(("a",))
        relation.track_deltas()
        epoch = relation.epoch
        # Add/remove cycles grow the log without growing the row set; the
        # relation must eventually reset it (with an epoch bump) rather
        # than retaining one entry per mutation forever.
        for i in range(500):
            row = (f"x{i}",)
            relation.add(row)
            relation.remove(row)
        assert relation.log_length < 100
        assert relation.epoch > epoch
        assert relation.rows == set()

    def test_wholesale_operations_bump_the_epoch(self):
        relation = Relation(("a",), [("x",)])
        relation.track_deltas()
        relation.add(("w",))
        epoch = relation.epoch
        relation.replace_rows([("y",)])
        assert relation.epoch == epoch + 1
        assert relation.log_length == 0  # old positions are stale anyway
        relation.clear()
        assert relation.epoch == epoch + 2
        assert relation.log_length == 0


class TestSetSemantics:
    """A row is present or absent: maintained answer relations rely on it,
    since an answer determines its derivation."""

    def test_visibility_changes_are_logged_once(self):
        relation = Relation(("a",))
        relation.track_deltas()
        assert relation.add(("x",))
        assert not relation.add(("x",))
        assert relation.remove(("x",))
        assert not relation.remove(("x",))
        assert list(relation.deltas_since(0)) == [(("x",), 1), (("x",), -1)]

    def test_removing_an_absent_row_changes_nothing(self):
        relation = Relation(("a", "b"), [("x", "y")])
        relation.ensure_index((0,))
        relation.track_deltas()
        epoch = relation.epoch
        assert not relation.remove(("z", "y"))
        assert relation.rows == {("x", "y")}
        assert relation.log_length == 0
        assert relation.epoch == epoch
        assert relation.probe((0,), ("x",)) == {("x", "y")}

    def test_remove_patches_maintained_indexes(self):
        relation = Relation(("a", "b"), [("x", "y"), ("x", "z"), ("w", "y")])
        relation.ensure_index((0,))
        relation.ensure_index((1,))
        assert relation.remove(("x", "y"))
        assert relation.probe((0,), ("x",)) == {("x", "z")}
        assert relation.probe((1,), ("y",)) == {("w", "y")}

    def test_replace_rows_collapses_duplicates(self):
        relation = Relation(("a",), [("x",)])
        relation.replace_rows([("y",), ("y",)])
        assert relation.rows == {("y",)}
        assert relation.remove(("y",))
        assert len(relation) == 0

    def test_remove_all_logs_each_removed_row_once(self):
        relation = Relation(("a",), [("x",), ("y",)])
        relation.track_deltas()
        assert relation.remove_all([("x",), ("x",), ("q",)]) == [("x",)]
        assert list(relation.deltas_since(0)) == [(("x",), -1)]

    def test_row_mutations_keep_the_epoch(self):
        relation = Relation(("a",))
        relation.track_deltas()
        epoch = relation.epoch
        relation.add(("x",))
        relation.add_all([("y",), ("z",)])
        relation.remove(("x",))
        relation.remove_all([("y",)])
        assert relation.epoch == epoch
        assert relation.log_length == 5


class TestRelationalOperators:
    def test_select_positions_equal(self):
        relation = Relation(("a", "b", "c"), [("x", "y", "x"), ("x", "y", "z")])
        filtered = relation.select_positions_equal([(0, 2)])
        assert filtered.rows == {("x", "y", "x")}


class TestExtendPathRows:
    def test_forward_extension(self):
        base = Relation(("s", "t"), [("b", "c"), ("b", "d"), ("x", "y")])
        extended = extend_path_rows([("a", "b")], base)
        assert set(extended) == {("a", "b", "c"), ("a", "b", "d")}

    def test_backward_extension(self):
        base = Relation(("s", "t"), [("a", "b"), ("z", "b"), ("q", "r")])
        extended = extend_path_rows([("b", "c")], base, direction="backward")
        assert set(extended) == {("a", "b", "c"), ("z", "b", "c")}

    def test_unknown_direction_raises(self):
        with pytest.raises(ValueError):
            extend_path_rows([("a", "b")], Relation(("s", "t")), direction="sideways")

    def test_no_match_yields_empty(self):
        base = Relation(("s", "t"), [("x", "y")])
        assert extend_path_rows([("a", "b")], base) == []
