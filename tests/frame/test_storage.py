"""Frame store: streamed spills must be byte-identical to in-memory reads.

The store's contract is exactness, not approximation: a CSV spilled
batch-by-batch through ``FrameStoreWriter`` loads back (memory-mapped)
with per-column bytes equal to ``read_csv`` of the same file — including
the categorical code canonicalization that rewrites provisional
first-seen ids into sorted-table ranks at close time.
"""

import os

import numpy as np
import pytest

from repro.frame import (
    Column,
    DataFrame,
    FrameStore,
    FrameStoreWriter,
    read_csv,
    spill_csv,
    write_csv,
)


def mixed_frame(n=500, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    x[rng.random(n) < 0.15] = np.nan
    pool = ["zebra", "alpha", "mid", ""]
    labels = [pool[i] for i in rng.integers(0, len(pool), n)]
    return DataFrame([
        Column.numeric("x", x),
        Column.numeric("count", rng.integers(0, 50, n).astype(float)),
        Column.categorical("label", labels),
    ])


def assert_store_equals_frame(store, frame):
    loaded = store.frame()
    assert loaded.columns == frame.columns
    assert store.n_rows == frame.num_rows
    for name in frame.columns:
        a, b = frame.col(name), loaded.col(name)
        assert a.kind == b.kind
        if a.is_numeric:
            assert np.asarray(b.values).tobytes() == a.values.tobytes()
        else:
            assert list(b.categories) == list(a.categories)
            assert np.asarray(b.codes).tobytes() == a.codes.tobytes()


class TestSpillRoundTrip:
    @pytest.mark.parametrize("chunk_rows", [1, 37, 100_000])
    def test_spilled_csv_equals_read_csv(self, tmp_path, chunk_rows):
        frame = mixed_frame()
        path = os.path.join(tmp_path, "data.csv")
        write_csv(frame, path)
        store = spill_csv(
            path, os.path.join(tmp_path, "store"), chunk_rows=chunk_rows
        )
        assert_store_equals_frame(store, read_csv(path))

    def test_quoted_csv_spills_identically(self, tmp_path):
        tricky = ["a,b", "two\nlines", 'quo"te', "plain"] * 50
        frame = DataFrame([
            Column.categorical("tricky", tricky),
            Column.numeric("i", np.arange(len(tricky), dtype=float)),
        ])
        path = os.path.join(tmp_path, "tricky.csv")
        write_csv(frame, path)
        store = spill_csv(path, os.path.join(tmp_path, "store"), chunk_rows=33)
        assert_store_equals_frame(store, read_csv(path))

    def test_reopen_after_spill(self, tmp_path):
        frame = mixed_frame(100)
        path = os.path.join(tmp_path, "data.csv")
        write_csv(frame, path)
        spill_csv(path, os.path.join(tmp_path, "store"), chunk_rows=7)
        reopened = FrameStore.open(os.path.join(tmp_path, "store"))
        assert_store_equals_frame(reopened, read_csv(path))


class TestWriter:
    def test_category_canonicalization_across_batches(self, tmp_path):
        # batch 2 introduces categories that sort *before* batch 1's, so
        # the close-time remap must rewrite batch 1's provisional codes
        first = DataFrame([Column.categorical("c", ["zulu", "mike", "zulu"])])
        second = DataFrame([Column.categorical("c", ["alpha", "zulu", "bravo"])])
        with FrameStoreWriter(os.path.join(tmp_path, "store")) as writer:
            writer.append(first)
            writer.append(second)
        store = FrameStore.open(os.path.join(tmp_path, "store"))
        column = store.column("c")
        assert list(column.categories) == ["alpha", "bravo", "mike", "zulu"]
        assert list(column.decoded()) == [
            "zulu", "mike", "zulu", "alpha", "zulu", "bravo",
        ]

    def test_missing_codes_survive_the_remap(self, tmp_path):
        batch = DataFrame(
            [Column.from_codes("c", np.asarray([1, -1, 0, -1], np.int32), ["b", "a"])]
        )
        with FrameStoreWriter(os.path.join(tmp_path, "store")) as writer:
            writer.append(batch)
            writer.append(batch)
        column = FrameStore.open(os.path.join(tmp_path, "store")).column("c")
        assert list(column.categories) == ["a", "b"]
        np.testing.assert_array_equal(np.asarray(column.codes), [0, -1, 1, -1] * 2)

    def test_schema_mismatch_rejected(self, tmp_path):
        writer = FrameStoreWriter(os.path.join(tmp_path, "store"))
        writer.append(DataFrame([Column.numeric("a", np.arange(3.0))]))
        with pytest.raises(ValueError, match="schema"):
            writer.append(DataFrame([Column.categorical("a", ["x", "y", "z"])]))
        writer.abort()

    def test_empty_writer_cannot_close(self, tmp_path):
        writer = FrameStoreWriter(os.path.join(tmp_path, "store"))
        with pytest.raises(ValueError, match="no batches"):
            writer.close()

    def test_overwrite_guard(self, tmp_path):
        root = os.path.join(tmp_path, "store")
        with FrameStoreWriter(root) as writer:
            writer.append(DataFrame([Column.numeric("a", np.arange(3.0))]))
        with pytest.raises(FileExistsError, match="overwrite=True"):
            FrameStoreWriter(root)
        with FrameStoreWriter(root, overwrite=True) as writer:
            writer.append(DataFrame([Column.numeric("a", np.arange(5.0))]))
        assert FrameStore.open(root).n_rows == 5

    def test_aborted_write_leaves_no_loadable_store(self, tmp_path):
        root = os.path.join(tmp_path, "store")
        with pytest.raises(RuntimeError):
            with FrameStoreWriter(root) as writer:
                writer.append(DataFrame([Column.numeric("a", np.arange(3.0))]))
                raise RuntimeError("midway crash")
        with pytest.raises(FileNotFoundError, match="manifest"):
            FrameStore.open(root)

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            FrameStore.open(os.path.join(tmp_path, "nothing"))


class TestStoreAccess:
    def test_columns_are_memory_mapped(self, tmp_path):
        frame = mixed_frame(200)
        path = os.path.join(tmp_path, "data.csv")
        write_csv(frame, path)
        store = spill_csv(path, os.path.join(tmp_path, "store"), chunk_rows=64)
        import mmap

        values = store.column("x").values
        base = values
        while isinstance(getattr(base, "base", None), np.ndarray):
            base = base.base
        assert isinstance(base, np.memmap) or isinstance(
            getattr(base, "base", None), mmap.mmap
        )

    def test_column_lookup_and_missing(self, tmp_path):
        frame = mixed_frame(50)
        path = os.path.join(tmp_path, "data.csv")
        write_csv(frame, path)
        store = spill_csv(path, os.path.join(tmp_path, "store"))
        assert store.columns == frame.columns
        with pytest.raises(KeyError, match="no column"):
            store.column("nope")

    def test_batches_cover_all_rows_in_order(self, tmp_path):
        frame = mixed_frame(157)
        path = os.path.join(tmp_path, "data.csv")
        write_csv(frame, path)
        store = spill_csv(path, os.path.join(tmp_path, "store"), chunk_rows=64)
        batches = list(store.batches(chunk_rows=50))
        assert [b.num_rows for b in batches] == [50, 50, 50, 7]
        from repro.frame import concat_rows

        assert concat_rows(batches).equals(read_csv(path))

    def test_store_feeds_a_tree_fit(self, tmp_path):
        # the point of the store: mmap-backed columns flow straight into
        # matrix assembly and model fitting without materializing rows
        rng = np.random.default_rng(4)
        n = 2000
        frame = DataFrame([
            Column.numeric("f0", rng.integers(0, 9, n).astype(float)),
            Column.numeric("f1", rng.integers(0, 30, n).astype(float)),
            Column.numeric("label", rng.integers(0, 2, n).astype(float)),
        ])
        path = os.path.join(tmp_path, "fit.csv")
        write_csv(frame, path)
        store = spill_csv(path, os.path.join(tmp_path, "store"), chunk_rows=500)
        loaded = store.frame()
        X = np.column_stack([loaded.col("f0").values, loaded.col("f1").values])
        y = np.asarray(loaded.col("label").values)
        from repro.learn import DecisionTreeClassifier

        model = DecisionTreeClassifier(max_depth=4).fit(X, y, presort="histogram")
        assert model.tree_["n_samples"][0] == n
