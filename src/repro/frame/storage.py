"""Columnar spill store for frames larger than RAM.

:func:`repro.frame.io.read_csv_chunked` bounds the memory of *parsing*;
this module bounds the memory of *materializing*: a
:class:`FrameStoreWriter` streams frame batches column-by-column into
append-only ``.npy`` files and a JSON manifest, and :class:`FrameStore`
memory-maps them back into a :class:`~repro.frame.DataFrame` whose
columns are OS-paged views — the frame "loads" in milliseconds at any
size, and only the pages a computation touches ever occupy RAM.

On-disk layout (one directory per store)::

    store/
      manifest.json   {version, n_rows, columns: [{name, kind, file,
                       categories}]}
      c000.npy        float64 values (numeric) or int32 codes (categorical)
      c001.npy        ...

These are exactly the members an ``.npz`` archive would hold, laid out
unzipped because ``np.load(..., mmap_mode=...)`` cannot memory-map
inside a zip container. Category tables live in the manifest (they are
small by construction — distinct strings, not rows).

Two details make streaming writes exact:

* **Append-only npy.** Each column file starts with a fixed-size npy
  v1.0 header whose shape is patched on close, so batches append as raw
  little-endian bytes with no buffering of previous batches.
* **Provisional category codes.** Batch ``k``'s dictionary only knows
  the categories seen in batch ``k``, but the store-wide table must be
  sorted (a :class:`~repro.frame.column.Column` invariant). The writer
  assigns provisional ids in first-seen order while streaming, then on
  close remaps every code file **in place, block-wise** through a
  provisional→sorted lookup table (missing ``-1`` passes through). The
  result is byte-identical to encoding the whole file at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Dict, List, Optional

import numpy as np

from ..durable import crash_safe_write
from .column import CATEGORICAL, NUMERIC, Column
from .dataframe import DataFrame

MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1

_NPY_HEADER_SIZE = 128  # fixed: magic(6) + version(2) + len(2) + dict(118)
_REMAP_BLOCK = 1 << 22  # int32 codes per in-place remap block (16 MiB)


def _npy_header(dtype: np.dtype, n_rows: int) -> bytes:
    """Fixed-width npy v1.0 header for a 1-D array of ``n_rows``."""
    descr = np.lib.format.dtype_to_descr(dtype)
    payload = ("{'descr': %r, 'fortran_order': False, 'shape': (%d,), }" % (
        descr, n_rows
    )).encode("latin1")
    pad = _NPY_HEADER_SIZE - 10 - 1 - len(payload)
    if pad < 0:  # pragma: no cover - would need a ~90-digit row count
        raise ValueError(f"npy header overflow for {n_rows} rows")
    return (
        b"\x93NUMPY\x01\x00"
        + struct.pack("<H", _NPY_HEADER_SIZE - 10)
        + payload
        + b" " * pad
        + b"\n"
    )


class _NpyAppendWriter:
    """Append-only single-column ``.npy`` writer (header patched on close)."""

    def __init__(self, path: str, dtype) -> None:
        self.path = path
        self.dtype = np.dtype(dtype)
        self.n_rows = 0
        self._handle = open(path, "wb")
        self._handle.write(b"\x00" * _NPY_HEADER_SIZE)

    def append(self, values: np.ndarray) -> None:
        block = np.ascontiguousarray(values, dtype=self.dtype)
        self._handle.write(block.tobytes())
        self.n_rows += block.shape[0]

    def close(self) -> None:
        if self._handle.closed:
            return
        self._handle.seek(0)
        self._handle.write(_npy_header(self.dtype, self.n_rows))
        self._handle.close()

    def abort(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def _remap_file_inplace(path: str, lut: np.ndarray) -> None:
    """Rewrite an int32 code file through ``lut`` block by block.

    ``lut`` has one slot per provisional id plus a trailing ``-1`` slot,
    so missing codes (``-1``) index the last entry and pass through —
    the same convention as :func:`repro.frame.column.remap_table`.
    """
    with open(path, "r+b") as handle:
        handle.seek(_NPY_HEADER_SIZE)
        position = _NPY_HEADER_SIZE
        while True:
            raw = handle.read(_REMAP_BLOCK * 4)
            if not raw:
                break
            codes = np.frombuffer(raw, dtype="<i4")
            remapped = np.ascontiguousarray(lut[codes], dtype="<i4")
            handle.seek(position)
            handle.write(remapped.tobytes())
            position += len(raw)


class FrameStoreWriter:
    """Stream :class:`DataFrame` batches into an on-disk column store.

    The first batch pins the schema (column names, order, and kinds);
    every later batch must match it. Use as a context manager — the
    manifest is only written by a clean :meth:`close`, so a crashed
    write never leaves a loadable half-store behind.
    """

    def __init__(self, root: str, overwrite: bool = False) -> None:
        manifest = os.path.join(root, MANIFEST_NAME)
        if os.path.exists(manifest) and not overwrite:
            raise FileExistsError(
                f"{root} already holds a frame store; pass overwrite=True"
            )
        os.makedirs(root, exist_ok=True)
        if os.path.exists(manifest):
            os.remove(manifest)  # never a loadable store mid-overwrite
        self.root = root
        self.n_rows = 0
        self._schema: Optional[List[tuple]] = None
        self._writers: List[_NpyAppendWriter] = []
        self._seen: List[Optional[Dict[str, int]]] = []
        self._closed = False

    def append(self, frame: DataFrame) -> None:
        if self._closed:
            raise ValueError("writer is closed")
        schema = [(name, frame.col(name).kind) for name in frame.columns]
        if self._schema is None:
            self._schema = schema
            for i, (_, kind) in enumerate(schema):
                dtype = "<f8" if kind == NUMERIC else "<i4"
                path = os.path.join(self.root, f"c{i:03d}.npy")
                self._writers.append(_NpyAppendWriter(path, dtype))
                self._seen.append(None if kind == NUMERIC else {})
        elif schema != self._schema:
            raise ValueError(
                f"batch schema {schema} does not match the first batch's "
                f"{self._schema}"
            )
        for i, (name, kind) in enumerate(schema):
            column = frame.col(name)
            if kind == NUMERIC:
                self._writers[i].append(column.values)
                continue
            seen = self._seen[i]
            # provisional ids in first-seen order; the close-time remap
            # rewrites them to ranks in the final sorted table
            batch_to_store = np.empty(len(column.categories) + 1, dtype=np.int32)
            for j, category in enumerate(column.categories):
                batch_to_store[j] = seen.setdefault(category, len(seen))
            batch_to_store[-1] = -1
            self._writers[i].append(batch_to_store[column.codes])
        self.n_rows += frame.num_rows

    def close(self) -> "FrameStore":
        if self._closed:
            raise ValueError("writer is already closed")
        if self._schema is None:
            raise ValueError("no batches were appended")
        self._closed = True
        manifest_columns = []
        for i, (name, kind) in enumerate(self._schema):
            self._writers[i].close()
            entry = {"name": name, "kind": kind, "file": f"c{i:03d}.npy"}
            if kind == CATEGORICAL:
                seen = self._seen[i]
                categories = sorted(seen)
                rank = {category: r for r, category in enumerate(categories)}
                lut = np.empty(len(seen) + 1, dtype=np.int32)
                for category, provisional in seen.items():
                    lut[provisional] = rank[category]
                lut[-1] = -1
                _remap_file_inplace(
                    os.path.join(self.root, entry["file"]), lut
                )
                entry["categories"] = categories
            manifest_columns.append(entry)
        manifest = {
            "version": _MANIFEST_VERSION,
            "n_rows": self.n_rows,
            "columns": manifest_columns,
        }
        with crash_safe_write(os.path.join(self.root, MANIFEST_NAME)) as handle:
            json.dump(manifest, handle, indent=1)
        return FrameStore.open(self.root)

    def abort(self) -> None:
        self._closed = True
        for writer in self._writers:
            writer.abort()

    def __enter__(self) -> "FrameStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            if not self._closed:
                self.close()
        else:
            self.abort()


class FrameStore:
    """A spilled frame: manifest + per-column memory-mapped ``.npy``."""

    def __init__(self, root: str, manifest: dict) -> None:
        self.root = root
        self.n_rows = int(manifest["n_rows"])
        self._columns = manifest["columns"]

    @classmethod
    def open(cls, root: str) -> "FrameStore":
        manifest_path = os.path.join(root, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"{root} is not a frame store (no manifest)")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        if manifest.get("version") != _MANIFEST_VERSION:
            raise ValueError(
                f"{root}: unsupported frame-store version {manifest.get('version')!r}"
            )
        return cls(root, manifest)

    @property
    def columns(self) -> List[str]:
        return [entry["name"] for entry in self._columns]

    def fingerprint(self) -> str:
        """Deterministic identity of the stored dataset, from the manifest.

        Two stores spilled from the same data fingerprint equal regardless
        of directory path or machine, so experiment-plan ``run_key``s
        computed against a store match across distributed workers without
        anyone re-reading (or re-shipping) the underlying rows.
        """
        payload = {"n_rows": self.n_rows, "columns": self._columns}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]
        return f"store:{digest}|rows={self.n_rows}"

    def column(self, name: str) -> Column:
        for entry in self._columns:
            if entry["name"] == name:
                return self._load_column(entry)
        raise KeyError(f"no column {name!r} in frame store {self.root}")

    def _load_column(self, entry: dict) -> Column:
        # mmap_mode="r": read-only pages are safe to share because Column
        # operations copy before mutating; np.asarray over the memmap is
        # zero-copy, so nothing materializes until a computation reads it
        data = np.load(os.path.join(self.root, entry["file"]), mmap_mode="r")
        if entry["kind"] == NUMERIC:
            return Column(entry["name"], data, NUMERIC)
        table = np.empty(len(entry["categories"]), dtype=object)
        table[:] = entry["categories"]
        return Column._with_codes(entry["name"], np.asarray(data), table)

    def frame(self) -> DataFrame:
        """The whole store as a DataFrame over memory-mapped columns."""
        return DataFrame([self._load_column(entry) for entry in self._columns])

    def batches(self, chunk_rows: int = 65536):
        """Iterate the store as materialized row slices (copies)."""
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        whole = self.frame()
        for start in range(0, self.n_rows, chunk_rows):
            yield whole.take(np.arange(start, min(start + chunk_rows, self.n_rows)))


def spill_csv(
    csv_path: str,
    root: str,
    chunk_rows: int = 65536,
    numeric_columns=None,
    kinds=None,
    overwrite: bool = False,
) -> FrameStore:
    """Stream a CSV straight into a frame store, batch by batch.

    Peak memory is one batch of parsed fields plus the growing category
    dictionaries — independent of row count. The resulting store's
    columns are byte-identical to ``read_csv(csv_path)``'s.
    """
    from .io import read_csv_chunked

    with FrameStoreWriter(root, overwrite=overwrite) as writer:
        for batch in read_csv_chunked(
            csv_path,
            chunk_rows=chunk_rows,
            numeric_columns=numeric_columns,
            kinds=kinds,
        ):
            writer.append(batch)
        return writer.close()
