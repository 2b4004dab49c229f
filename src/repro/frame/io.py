"""CSV round-trip for :class:`repro.frame.DataFrame`.

Experiments write their per-run metrics as CSV/JSON; the reader exists so
that analysis code (and users with their own data) can load frames without
pandas. Missing values serialize as empty fields; in a single-column frame
a missing value is quoted (``""``) so it never serializes as a blank line,
which readers skip. Integral float columns render as integers (``5``
instead of ``5.0``) — a byte-level change from the old ``repr`` formatting
that parses back to the identical float64 value.

Both directions are column-wise and vectorized. The writer formats each
column in one pass (numeric via ``np.where(isnan, '', ...)``-style masking,
categorical by indexing the category table with the codes) and emits the
body with batched row joins; quoting is only needed when a category or
column name contains a CSV metacharacter, which is detected on the (small)
category tables, so the fallback to :mod:`csv` machinery is taken exactly
when the data requires it. The reader mirrors this: quote-free content is
split wholesale and dictionary-encoded per column; anything quoted (or with
``\r`` line endings) goes through ``csv.reader``.
"""

from __future__ import annotations

import csv
import io
import os
from itertools import islice, repeat
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from .column import CATEGORICAL, NUMERIC, Column
from .dataframe import DataFrame

_CSV_SPECIALS = (",", '"', "\n", "\r")

#: counts every parse that leaves the split-based fast path for
#: ``csv.reader``: once per :func:`read_csv` call, once per
#: :func:`read_csv_chunked` batch
CSV_FALLBACK = "frame.read_csv.csv_fallback"


def write_csv(frame: DataFrame, path: str) -> None:
    """Write a frame to CSV with a header row; missing values become ''."""
    names = frame.columns
    formatted = []
    plain = not any(
        any(special in name for special in _CSV_SPECIALS) for name in names
    )
    for name in names:
        column = frame.col(name)
        if column.is_numeric:
            formatted.append(_format_numeric(column.values))
        else:
            # quoting is decided on the category table, not the row data:
            # the table holds every distinct string the column can emit
            plain = plain and not any(
                any(special in category for special in _CSV_SPECIALS)
                for category in column.categories
            )
            formatted.append(column._decode_table(fill="")[column.codes])
    if plain and len(names) == 1:
        # a lone empty field would serialize as a blank line, which readers
        # skip; csv.writer quotes it ("") so the row survives the round-trip
        plain = not np.any(formatted[0] == "")
    if plain:
        rows = zip(*[block.tolist() for block in formatted])
        body = "\n".join(map(",".join, rows))
        with open(path, "w", newline="") as handle:
            handle.write(",".join(names) + "\n" + body + "\n")
        return
    with open(path, "w", newline="") as handle:
        # same LF line endings as the plain fast path, so the newline
        # convention never depends on whether the data needed quoting
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(zip(*formatted))


def _format_numeric(values: np.ndarray) -> np.ndarray:
    """Render a float column to strings; NaN becomes the empty field.

    All-integral columns (the common case for count-like attributes) render
    through the much cheaper int64 formatter; everything else uses numpy's
    shortest-repr float formatting.
    """
    nan_mask = np.isnan(values)
    filled = np.where(nan_mask, 0.0, values)
    integral = bool(
        np.all(
            np.isfinite(filled)
            & (np.abs(filled) < 2**63)
            & (filled == np.floor(filled))
        )
        # int64 would render -0.0 as "0", losing the sign bit
        and not np.any(np.signbit(values) & (values == 0.0))
    )
    # format only the distinct values (typically far fewer than rows) and
    # broadcast the rendered strings back through the inverse index
    distinct, inverse = np.unique(
        filled.astype(np.int64) if integral else values, return_inverse=True
    )
    strings = distinct.astype(str)[inverse]
    strings[nan_mask] = ""
    return strings


def read_csv(
    path: str,
    numeric_columns: Optional[Sequence[str]] = None,
    kinds: Optional[Dict[str, str]] = None,
) -> DataFrame:
    """Read a CSV into a frame.

    Column kinds are resolved in priority order: explicit ``kinds``, then
    membership in ``numeric_columns``, then inference (a column whose
    non-empty fields all parse as floats is numeric).
    """
    with open(path, newline="") as handle:
        content = handle.read()
    kinds = dict(kinds or {})
    if numeric_columns:
        for name in numeric_columns:
            kinds.setdefault(name, NUMERIC)
    if '"' not in content and "\r" not in content:
        header, columns = _split_plain(content, path)
    else:
        header, columns = _split_quoted(content, path)
    return DataFrame(
        [
            _build_column(name, fields, kinds.get(name), path)
            for name, fields in zip(header, columns)
        ]
    )


def _split_plain(content: str, path: str) -> tuple:
    """Split quote-free CSV text into a header and per-column field lists."""
    lines = content.split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    del lines[0]
    columns = _split_plain_lines(lines, len(header), path, 0)
    if columns is None:
        raise ValueError(f"{path}: CSV has a header but no data rows")
    return header, columns


def _split_plain_lines(
    lines: List[str], n_cols: int, path: str, row_offset: int
) -> Optional[List[List[str]]]:
    """Quote-free data lines into per-column field lists.

    ``row_offset`` is the count of data rows consumed before these lines
    (0 for the whole-file reader), so error messages number rows
    globally. Returns ``None`` when the lines are all blank.
    """
    if "" in lines:
        lines = [line for line in lines if line]
    if not lines:
        return None
    # exact per-row field-count validation via C-level comma counting, so
    # ragged rows can never silently misalign the column slices below
    widths = list(map(str.count, lines, repeat(",")))
    expected = n_cols - 1
    if min(widths) != expected or max(widths) != expected:
        # data-row-based numbering, matching the csv.reader path (which
        # also filters blank rows before numbering)
        bad = next(i for i, w in enumerate(widths) if w != expected)
        raise ValueError(
            f"{path}: row {row_offset + bad + 2} has {widths[bad] + 1} fields, "
            f"expected {n_cols}"
        )
    flat = ",".join(lines).split(",")
    return [flat[j::n_cols] for j in range(n_cols)]


def _csv_reader(text: str):
    """``csv.reader`` over in-memory text, split into lines the way the
    file was read (``newline=""``): ``\n``, ``\r\n`` and a bare ``\r``
    each end a line, and embedded line breaks reach the reader verbatim."""
    return csv.reader(io.StringIO(text, newline=""))


def _split_quoted(content: str, path: str) -> tuple:
    """Field splitting through ``csv.reader`` (quoted or CR-terminated data)."""
    telemetry.counter(CSV_FALLBACK).inc()
    reader = _csv_reader(content)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty CSV") from None
    raw_rows = [row for row in reader if row]
    if not raw_rows:
        raise ValueError(f"{path}: CSV has a header but no data rows")
    return header, _split_quoted_rows(raw_rows, len(header), path, 0)


def _split_quoted_rows(
    raw_rows: List[List[str]], n_cols: int, path: str, row_offset: int
) -> List[List[str]]:
    for i, row in enumerate(raw_rows):
        if len(row) != n_cols:
            raise ValueError(
                f"{path}: row {row_offset + i + 2} has {len(row)} fields, "
                f"expected {n_cols}"
            )
    return [[row[j] for row in raw_rows] for j in range(n_cols)]


def read_csv_chunked(
    path: str,
    chunk_rows: int = 65536,
    numeric_columns: Optional[Sequence[str]] = None,
    kinds: Optional[Dict[str, str]] = None,
):
    """Iterate a CSV as :class:`DataFrame` batches of ≤ ``chunk_rows`` rows.

    The out-of-core counterpart of :func:`read_csv`: the file is streamed
    record by record, so peak memory is bounded by the batch size, not
    the file size. Records are assembled with quote-parity line joining
    (a physical line only ends a record when the cumulative ``\"`` count
    is even), so quoted fields with embedded newlines batch correctly;
    batches that contain quotes or ``\\r`` fall back to :mod:`csv`
    per-batch exactly like the whole-file reader.

    Column kinds not pinned by ``kinds``/``numeric_columns`` are inferred
    from the **first batch** and pinned for the rest of the file, so
    every batch carries identical dtypes and can be concatenated or
    spilled column-by-column (:mod:`repro.frame.storage`). If a later
    batch breaks a first-batch numeric inference, the error says which
    column to pin. Rows of each batch match :func:`read_csv` of the same
    records byte for byte.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    kinds = dict(kinds or {})
    if numeric_columns:
        for name in numeric_columns:
            kinds.setdefault(name, NUMERIC)
    # detached: a generator's span must not sit on the thread's nesting
    # stack while the frame is suspended between batches
    read_span = telemetry.span(
        "frame.read_csv_chunked",
        detached=True,
        path=os.path.basename(path),
        chunk_rows=chunk_rows,
    )
    chunks_read = 0
    with open(path, newline="") as handle, read_span:
        records = _iter_records(handle)
        try:
            header_text = next(records)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        if '"' in header_text or "\r" in header_text:
            header = next(_csv_reader(header_text))
        else:
            header = header_text.rstrip("\n").split(",")
        n_cols = len(header)
        row_offset = 0
        first = True
        while True:
            batch = list(islice(records, chunk_rows))
            if not batch:
                break
            columns = _split_records(batch, n_cols, path, row_offset)
            if columns is None:  # the batch held only blank lines
                continue
            if first:
                for name, fields in zip(header, columns):
                    if name not in kinds:
                        kinds[name] = (
                            NUMERIC if _all_parse_as_float(fields) else CATEGORICAL
                        )
                first = False
            telemetry.counter("frame.chunks_read").inc()
            chunks_read += 1
            yield DataFrame(
                [
                    _build_chunk_column(name, fields, kinds[name], path)
                    for name, fields in zip(header, columns)
                ]
            )
            row_offset += len(columns[0])
        read_span.set(chunks=chunks_read, rows=row_offset)
        if first:
            raise ValueError(f"{path}: CSV has a header but no data rows")


def _iter_records(handle):
    """Yield logical CSV records (with line endings) from a text stream.

    A physical line ends a record only when the quote count so far is
    even — inside an open quoted field, the newline belongs to the field
    and the next physical line continues the same record.
    """
    pending: List[str] = []
    quotes = 0
    for line in handle:
        quotes += line.count('"')
        pending.append(line)
        if quotes % 2 == 0:
            yield "".join(pending) if len(pending) > 1 else pending[0]
            pending.clear()
            quotes = 0
    if pending:  # unterminated quote at EOF: surface it to csv.reader
        yield "".join(pending)


def _split_records(
    records: List[str], n_cols: int, path: str, row_offset: int
) -> Optional[List[List[str]]]:
    """One batch of logical records into per-column field lists."""
    content = "".join(records)
    if '"' not in content and "\r" not in content:
        lines = content.split("\n")
        while lines and lines[-1] == "":
            lines.pop()
        return _split_plain_lines(lines, n_cols, path, row_offset)
    telemetry.counter(CSV_FALLBACK).inc()
    raw_rows = [row for row in _csv_reader(content) if row]
    if not raw_rows:
        return None
    return _split_quoted_rows(raw_rows, n_cols, path, row_offset)


def _build_chunk_column(name: str, fields: List[str], kind: str, path: str) -> Column:
    try:
        return _build_column(name, fields, kind, path)
    except ValueError as exc:
        raise ValueError(
            f"{exc} (column kinds are pinned from the first chunk; pass "
            f"kinds={{{name!r}: 'categorical'}} to override the inference)"
        ) from None


def _build_column(
    name: str, fields: List[str], kind: Optional[str], path: str
) -> Column:
    if kind is None:
        kind = NUMERIC if _all_parse_as_float(fields) else CATEGORICAL
    if kind == NUMERIC:
        return Column(name, _parse_numeric(fields, name, path), NUMERIC)
    # dictionary-encode straight from the raw string fields: distinct
    # values via one set pass, codes via one C-level dict-lookup map
    categories = sorted(set(fields) - {""})
    index = {category: code for code, category in enumerate(categories)}
    index[""] = -1
    codes = np.asarray(list(map(index.__getitem__, fields)), dtype=np.int32)
    table = np.empty(len(categories), dtype=object)
    table[:] = categories
    return Column._with_codes(name, codes, table)


def _parse_numeric(fields: List[str], name: str, path: str) -> np.ndarray:
    try:
        return np.asarray(fields, dtype=np.float64)
    # lint: allow(silent-except) -- fallback control flow, not a swallow:
    # the retry below substitutes NaN for empty fields and re-raises with
    # context if the column still fails to parse
    except ValueError:
        pass
    try:
        return np.asarray(
            [field if field else "nan" for field in fields], dtype=np.float64
        )
    except ValueError as exc:
        raise ValueError(f"{path}: column {name!r}: {exc}") from None


def _all_parse_as_float(fields: List[str]) -> bool:
    if not any(fields):  # all-empty columns stay categorical
        return False
    try:
        np.asarray([field if field else "nan" for field in fields], dtype=np.float64)
    except ValueError:
        return False
    return True
