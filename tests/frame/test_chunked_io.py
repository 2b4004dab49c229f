"""Chunked CSV reader: batch-wise reads must equal the whole-file read.

``read_csv_chunked`` promises that concatenating its batches reproduces
``read_csv`` exactly — same column kinds, same category tables, same
missing sentinels (NaN / code ``-1``) — on both the quote-free fast path
and the csv-module fallback, with kinds pinned from the first batch.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.frame import (
    CATEGORICAL,
    NUMERIC,
    Column,
    DataFrame,
    concat_rows,
    read_csv,
    read_csv_chunked,
    write_csv,
)


def roundtrip_frame(tmp_path, frame, chunk_rows, **kwargs):
    path = os.path.join(tmp_path, "frame.csv")
    write_csv(frame, path)
    whole = read_csv(path, **kwargs)
    batches = list(read_csv_chunked(path, chunk_rows=chunk_rows, **kwargs))
    return whole, batches


def mixed_frame(n=997, seed=3):
    rng = np.random.default_rng(seed)
    age = rng.integers(18, 90, n).astype(float)
    age[rng.random(n) < 0.1] = np.nan
    score = np.round(rng.normal(size=n), 3)
    city_pool = ["amsterdam", "berlin", "cairo", "delhi", ""]
    city = [city_pool[i] for i in rng.integers(0, len(city_pool), n)]
    return DataFrame([
        Column.numeric("age", age),
        Column.numeric("score", score),
        Column.categorical("city", city),
    ])


class TestChunkedRoundTrip:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 100, 10_000])
    def test_batches_concat_to_whole_read(self, tmp_path, chunk_rows):
        whole, batches = roundtrip_frame(tmp_path, mixed_frame(), chunk_rows)
        expected = -(-whole.num_rows // min(chunk_rows, whole.num_rows))
        assert len(batches) == expected
        assert all(batch.num_rows <= chunk_rows for batch in batches)
        assert concat_rows(batches).equals(whole)

    def test_batches_share_kinds_and_missing_sentinels(self, tmp_path):
        whole, batches = roundtrip_frame(tmp_path, mixed_frame(), 100)
        for batch in batches:
            assert batch.columns == whole.columns
            for name in batch.columns:
                assert batch.col(name).kind == whole.col(name).kind
        # numeric missing is NaN, categorical missing is code -1, in
        # exactly the rows the whole-file read marks
        recon = concat_rows(batches)
        np.testing.assert_array_equal(
            recon.col("age").missing_mask(), whole.col("age").missing_mask()
        )
        np.testing.assert_array_equal(
            recon.col("city").codes == -1, whole.col("city").codes == -1
        )

    def test_per_batch_category_tables_are_local_but_decode_equal(self, tmp_path):
        # a batch only dictionary-encodes the categories it saw; the
        # *decoded* values must still agree with the whole-file read
        whole, batches = roundtrip_frame(tmp_path, mixed_frame(), 50)
        start = 0
        decoded_whole = whole.col("city").decoded()
        for batch in batches:
            decoded = batch.col("city").decoded()
            np.testing.assert_array_equal(
                decoded, decoded_whole[start : start + batch.num_rows]
            )
            start += batch.num_rows

    def test_quote_fallback_with_embedded_newlines(self, tmp_path):
        tricky = ["a,b", "line1\nline2", 'quo"te', "plain", "end,"] * 101
        frame = DataFrame([
            Column.categorical("tricky", tricky),
            Column.numeric("x", np.arange(len(tricky), dtype=float)),
        ])
        whole, batches = roundtrip_frame(tmp_path, frame, 37)
        assert concat_rows(batches).equals(whole)

    def test_quoted_header_and_crlf(self, tmp_path):
        path = os.path.join(tmp_path, "crlf.csv")
        with open(path, "w", newline="") as handle:
            handle.write('"name,full",value\r\na,1\r\nb,2\r\n')
        whole = read_csv(path)
        batches = list(read_csv_chunked(path, chunk_rows=1))
        assert concat_rows(batches).equals(whole)
        assert whole.columns == ["name,full", "value"]

    def test_blank_lines_are_skipped_like_read_csv(self, tmp_path):
        path = os.path.join(tmp_path, "blanks.csv")
        with open(path, "w") as handle:
            handle.write("a,b\n1,x\n\n2,y\n\n\n3,z\n")
        whole = read_csv(path)
        recon = concat_rows(list(read_csv_chunked(path, chunk_rows=2)))
        assert recon.equals(whole)
        assert recon.num_rows == 3


class TestKindPinning:
    def test_first_chunk_inference_pins_later_chunks(self, tmp_path):
        # "1"/"2" in the first batch parse as floats, but the column
        # must stay categorical if pinned explicitly
        path = os.path.join(tmp_path, "pin.csv")
        with open(path, "w") as handle:
            handle.write("code,x\n" + "".join(f"{i},{i}\n" for i in range(10)))
        inferred = concat_rows(list(read_csv_chunked(path, chunk_rows=3)))
        assert inferred.col("code").kind == NUMERIC
        pinned = concat_rows(
            list(read_csv_chunked(path, chunk_rows=3, kinds={"code": CATEGORICAL}))
        )
        assert pinned.col("code").kind == CATEGORICAL
        assert read_csv(path, kinds={"code": CATEGORICAL}).equals(pinned)

    def test_numeric_columns_parameter(self, tmp_path):
        path = os.path.join(tmp_path, "numcols.csv")
        with open(path, "w") as handle:
            handle.write("a,b\n1,x\n2,y\n3,z\n")
        recon = concat_rows(
            list(read_csv_chunked(path, chunk_rows=2, numeric_columns=["a"]))
        )
        assert recon.col("a").kind == NUMERIC

    def test_late_chunk_breaking_inference_names_the_fix(self, tmp_path):
        # the first batch is all-numeric, a later batch holds a string:
        # whole-file inference would have made the column categorical,
        # chunked inference pinned numeric — the error says what to pass
        path = os.path.join(tmp_path, "drift.csv")
        with open(path, "w") as handle:
            handle.write("v\n" + "".join(f"{i}\n" for i in range(50)) + "oops\n")
        with pytest.raises(ValueError, match="kinds=\\{'v': 'categorical'\\}"):
            list(read_csv_chunked(path, chunk_rows=10))
        fixed = concat_rows(
            list(read_csv_chunked(path, chunk_rows=10, kinds={"v": CATEGORICAL}))
        )
        assert fixed.equals(read_csv(path))


class TestChunkedErrors:
    def test_empty_file(self, tmp_path):
        path = os.path.join(tmp_path, "empty.csv")
        open(path, "w").close()
        with pytest.raises(ValueError, match="empty CSV"):
            list(read_csv_chunked(path))

    def test_header_only(self, tmp_path):
        path = os.path.join(tmp_path, "header.csv")
        with open(path, "w") as handle:
            handle.write("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            list(read_csv_chunked(path))

    def test_ragged_row_numbered_globally(self, tmp_path):
        path = os.path.join(tmp_path, "ragged.csv")
        with open(path, "w") as handle:
            handle.write("a,b\n" + "".join(f"{i},{i}\n" for i in range(10)))
            handle.write("too,many,fields\n")
        # data row 11 -> file row 12, regardless of which batch held it
        with pytest.raises(ValueError, match="row 12"):
            list(read_csv_chunked(path, chunk_rows=4))
        with pytest.raises(ValueError, match="row 12"):
            read_csv(path)

    def test_chunk_rows_validated(self, tmp_path):
        path = os.path.join(tmp_path, "x.csv")
        with open(path, "w") as handle:
            handle.write("a\n1\n")
        with pytest.raises(ValueError, match="chunk_rows"):
            list(read_csv_chunked(path, chunk_rows=0))


# ----------------------------------------------------------------------
# fuzzing the chunked reader against the whole-file reader
# ----------------------------------------------------------------------
TEXT_PIECES = ["a", "b", " ", ",", '"', "\n", "\r\n", "\r", "7"]


def csv_field(value, quote):
    """One CSV field; quoted when ``quote`` or when the value needs it."""
    if quote or any(special in value for special in (",", '"', "\n", "\r")):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def raw_csv(draw):
    """Raw CSV text, the row count and pinned column kinds.

    Covers quoted fields with embedded commas, quotes and newlines,
    ``\n``, ``\r\n`` and bare ``\r`` endings mixed per line, blank lines, empty
    (missing) fields and a missing final line ending. Kinds are pinned:
    first-batch inference may legitimately differ from whole-file
    inference (see ``TestKindPinning``).
    """
    n_cols = draw(st.integers(1, 3))
    kinds, names = {}, []
    for j in range(n_cols):
        name = f"c{j}" + draw(st.sampled_from(["", ",x", ' "q"']))
        names.append(name)
        kinds[name] = draw(st.sampled_from([NUMERIC, CATEGORICAL]))
    number = st.one_of(
        st.just(""),
        st.integers(-50, 50).map(str),
        st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    )
    text = st.lists(st.sampled_from(TEXT_PIECES), max_size=4).map("".join)
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(csv_field(name, draw(st.booleans())) for name in names)]
    n_rows = draw(st.integers(1, 8))
    for _ in range(n_rows):
        fields = [
            csv_field(draw(number if kinds[name] == NUMERIC else text), draw(st.booleans()))
            for name in names
        ]
        lines.append(",".join(fields))
        lines.extend([""] * draw(st.integers(0, 2)))  # blank lines
    content = "".join(line + draw(newline) for line in lines)
    if draw(st.booleans()):
        content = content.rstrip("\r\n")
    return content, n_rows, kinds


def outcome(read):
    """``(frame, None)``, or ``(None, message)`` when ``read`` refuses."""
    try:
        return read(), None
    except ValueError as exc:
        return None, str(exc)


class TestChunkedFuzz:
    @settings(max_examples=80, deadline=None)
    @given(raw_csv())
    def test_every_chunk_size_reproduces_read_csv(self, case):
        content, n_rows, kinds = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.csv")
            with open(path, "w", newline="") as handle:
                handle.write(content)
            # a one-column file whose fields are all unquoted and empty is
            # all blank lines: both readers must refuse it the same way
            whole, error = outcome(lambda: read_csv(path, kinds=kinds))
            for chunk_rows in range(1, n_rows + 2):
                frame, chunk_error = outcome(lambda: concat_rows(list(
                    read_csv_chunked(path, chunk_rows=chunk_rows, kinds=kinds)
                )))
                assert chunk_error == error, chunk_rows
                assert error is not None or frame.equals(whole), chunk_rows


    # found by the fuzz above: csv.reader saw the text split on "\n"
    # only, so a bare "\r" line ending raised _csv.Error in read_csv
    @pytest.mark.parametrize("content,kinds,expected", [
        ("c0,c1\r,\n", {"c0": NUMERIC, "c1": NUMERIC}, [[np.nan], [np.nan]]),
        ('a,b\r1,x\r2,"y\rz"\r', {}, [[1.0, 2.0], ["x", "y\rz"]]),
    ])
    def test_bare_carriage_return_line_endings(self, tmp_path, content, kinds, expected):
        path = os.path.join(tmp_path, "cr.csv")
        with open(path, "w", newline="") as handle:
            handle.write(content)
        whole = read_csv(path, kinds=kinds)
        for name, values in zip(whole.columns, expected):
            column = whole.col(name)
            decoded = column.values if column.is_numeric else column.decoded()
            np.testing.assert_array_equal(decoded, values)
        for chunk_rows in (1, 2, 3):
            batches = list(read_csv_chunked(path, chunk_rows=chunk_rows, kinds=kinds))
            assert concat_rows(batches).equals(whole)


class TestCsvFallbackCounter:
    def read_counting(self, path, **kwargs):
        fallback = telemetry.counter("frame.read_csv.csv_fallback")
        before = fallback.value
        frame = read_csv(path, **kwargs)
        return frame, fallback.value - before

    def test_quoted_csv_counts_once(self, tmp_path):
        path = os.path.join(tmp_path, "quoted.csv")
        with open(path, "w") as handle:
            handle.write('a,b\n"x,y",1\nz,2\nw,3\n')
        frame, fired = self.read_counting(path)
        assert fired == 1
        assert frame.col("a").decoded().tolist() == ["x,y", "z", "w"]

    def test_plain_csv_stays_on_the_fast_path(self, tmp_path):
        path = os.path.join(tmp_path, "plain.csv")
        with open(path, "w") as handle:
            handle.write("a,b\nx,1\nz,2\n")
        _, fired = self.read_counting(path)
        assert fired == 0

    def test_chunked_reader_counts_each_fallback_batch(self, tmp_path):
        # only the batch holding the quoted record leaves the fast path
        path = os.path.join(tmp_path, "one_quoted.csv")
        with open(path, "w") as handle:
            handle.write('a,b\nx,1\nz,2\n"q,r",3\nw,4\n')
        fallback = telemetry.counter("frame.read_csv.csv_fallback")
        before = fallback.value
        list(read_csv_chunked(path, chunk_rows=2))
        assert fallback.value - before == 1
        list(read_csv_chunked(path, chunk_rows=1))
        assert fallback.value - before == 2
