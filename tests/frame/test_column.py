"""Unit tests for repro.frame.column."""

import numpy as np
import pytest

from repro.frame import CATEGORICAL, NUMERIC, Column, concat_columns


class TestConstruction:
    def test_numeric_factory_builds_float64(self):
        col = Column.numeric("age", [1, 2, 3])
        assert col.kind == NUMERIC
        assert col.values.dtype == np.float64

    def test_numeric_factory_maps_none_to_nan(self):
        col = Column.numeric("age", [1.0, None, 3.0])
        assert np.isnan(col.values[1])

    def test_categorical_factory_keeps_none(self):
        col = Column.categorical("job", ["a", None, "b"])
        assert col.values[1] is None

    def test_categorical_factory_maps_nan_to_none(self):
        col = Column.categorical("job", ["a", float("nan"), "b"])
        assert col.values[1] is None

    def test_categorical_factory_stringifies(self):
        col = Column.categorical("code", [1, 2])
        assert list(col.values) == ["1", "2"]

    def test_trailing_nul_codes_as_the_shortened_string(self):
        """The category table is built through a numpy str array, which
        drops trailing NULs; codes must follow the same table. They used
        to come out past its end ("b\\0" alone) or on a neighbour's
        category ("b\\0" beside "c" read as "c")."""
        assert list(Column.categorical("x", ["b\x00"]).values) == ["b"]
        col = Column.categorical("x", ["b\x00", "c", "b", None])
        assert list(col.categories) == ["b", "c"]
        assert col.codes.tolist() == [0, 1, 0, -1]

    def test_from_values_infers_numeric(self):
        col = Column.from_values("x", [1, 2.5, None])
        assert col.kind == NUMERIC

    def test_from_values_infers_categorical(self):
        col = Column.from_values("x", ["a", "b", None])
        assert col.kind == CATEGORICAL

    def test_from_values_respects_explicit_kind(self):
        col = Column.from_values("x", [1, 2], kind=CATEGORICAL)
        assert col.kind == CATEGORICAL
        assert list(col.values) == ["1", "2"]

    def test_from_values_numpy_numeric_array(self):
        col = Column.from_values("x", np.array([1, 2, 3]))
        assert col.kind == NUMERIC

    def test_from_values_copies_other_column(self):
        original = Column.numeric("x", [1.0, 2.0])
        copy = Column.from_values("y", original)
        copy.values[0] = 99.0
        assert original.values[0] == 1.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown column kind"):
            Column("x", np.array([1.0]), "weird")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            Column("", np.array([1.0]), NUMERIC)


class TestMissing:
    def test_missing_mask_numeric(self):
        col = Column.numeric("x", [1.0, None, 3.0])
        assert list(col.missing_mask()) == [False, True, False]

    def test_missing_mask_categorical(self):
        col = Column.categorical("x", ["a", None])
        assert list(col.missing_mask()) == [False, True]

    def test_num_missing(self):
        col = Column.numeric("x", [None, None, 1.0])
        assert col.num_missing() == 2

    def test_has_missing_false_for_complete(self):
        assert not Column.numeric("x", [1.0, 2.0]).has_missing()

    def test_fill_missing_numeric(self):
        col = Column.numeric("x", [1.0, None]).fill_missing(0.0)
        assert list(col.values) == [1.0, 0.0]

    def test_fill_missing_categorical(self):
        col = Column.categorical("x", ["a", None]).fill_missing("b")
        assert list(col.values) == ["a", "b"]

    def test_fill_missing_returns_copy(self):
        col = Column.numeric("x", [1.0, None])
        col.fill_missing(0.0)
        assert np.isnan(col.values[1])


class TestSelection:
    def test_take_reorders(self):
        col = Column.numeric("x", [10.0, 20.0, 30.0])
        assert list(col.take([2, 0]).values) == [30.0, 10.0]

    def test_mask_filters(self):
        col = Column.categorical("x", ["a", "b", "c"])
        assert list(col.mask([True, False, True]).values) == ["a", "c"]

    def test_mask_length_mismatch_raises(self):
        col = Column.numeric("x", [1.0, 2.0])
        with pytest.raises(ValueError, match="mask length"):
            col.mask([True])

    def test_set_where_numeric(self):
        col = Column.numeric("x", [1.0, 2.0, 3.0])
        out = col.set_where([False, True, True], [9.0, 10.0])
        assert list(out.values) == [1.0, 9.0, 10.0]
        assert list(col.values) == [1.0, 2.0, 3.0]

    def test_set_where_categorical_scalar(self):
        col = Column.categorical("x", ["a", "b"])
        out = col.set_where([True, False], "z")
        assert list(out.values) == ["z", "b"]


class TestSummaries:
    def test_unique_preserves_first_seen_order(self):
        col = Column.categorical("x", ["b", "a", "b", None, "c"])
        assert col.unique() == ["b", "a", "c"]

    def test_value_counts_sorted_by_count(self):
        col = Column.categorical("x", ["a", "b", "b", None])
        assert col.value_counts() == {"b": 2, "a": 1}

    def test_mode(self):
        col = Column.categorical("x", ["a", "b", "b"])
        assert col.mode() == "b"

    def test_mode_all_missing_is_none(self):
        assert Column.categorical("x", [None, None]).mode() is None

    def test_mean_ignores_missing(self):
        col = Column.numeric("x", [1.0, None, 3.0])
        assert col.mean() == 2.0

    def test_mean_on_categorical_raises(self):
        with pytest.raises(TypeError):
            Column.categorical("x", ["a"]).mean()

    def test_min_max(self):
        col = Column.numeric("x", [5.0, None, -1.0])
        assert col.min() == -1.0
        assert col.max() == 5.0

    def test_std_empty_is_nan(self):
        assert np.isnan(Column.numeric("x", [None]).std())


class TestEquality:
    def test_equals_with_nan(self):
        a = Column.numeric("x", [1.0, None])
        b = Column.numeric("x", [1.0, None])
        assert a.equals(b)

    def test_not_equals_different_kind(self):
        a = Column.numeric("x", [1.0])
        b = Column.categorical("x", ["1.0"])
        assert not a.equals(b)

    def test_not_equals_different_values(self):
        a = Column.categorical("x", ["a"])
        b = Column.categorical("x", ["b"])
        assert not a.equals(b)


class TestConcat:
    def test_concat_numeric(self):
        a = Column.numeric("x", [1.0])
        b = Column.numeric("x", [2.0, None])
        merged = concat_columns([a, b])
        assert len(merged) == 3
        assert np.isnan(merged.values[2])

    def test_concat_categorical_keeps_object_dtype(self):
        a = Column.categorical("x", ["p"])
        b = Column.categorical("x", [None])
        merged = concat_columns([a, b])
        assert merged.values.dtype == object
        assert merged.values[1] is None

    def test_concat_kind_mismatch_raises(self):
        with pytest.raises(ValueError, match="cannot concat kinds"):
            concat_columns(
                [Column.numeric("x", [1.0]), Column.categorical("x", ["a"])]
            )

    def test_concat_empty_raises(self):
        with pytest.raises(ValueError):
            concat_columns([])
