"""Binary column codec: :class:`~repro.sqldb.vector.Vector` columns as a
JSON header plus raw buffers.

One codec serves every place a vector leaves the process: the ``results``
frames of the wire protocol (:mod:`repro.sqldb.protocol`) and the table
and materialised-view columns of checkpoint and replica-snapshot images
(:mod:`repro.sqldb.catalog`, :mod:`repro.sqldb.wal`).  :func:`encode`
turns columns into one header per column and the buffers behind them,
in column order; :func:`payload_size` checks a header against a row
count and says how many bytes its buffers take; :func:`decode` reads
them back.

Every column header is a JSON object with a ``tag`` and the byte
``sizes`` of its buffers, the last of which is always the NULL bitmap
(LSB first, empty when the column has no NULL)::

    numbers   {"tag": "<i1" | "<i2" | "<i4" | "<f8", "sizes": [values, nulls]}
    bool      {"tag": "|b1", "sizes": [values, nulls]}      one byte a row
    text      {"tag": "text", "dict": [...], "sizes": [codes, nulls]}
    arrays    {"tag": "array", "count": m, "elements": <column header>,
               "sizes": [offsets, nulls]}   then the element buffers
    other     {"tag": "json", "cells": [...], "sizes": [nulls]}

* *Numbers* (float64 storage) travel as the narrowest of int8, int16 and
  int32 whose float64 round trip is bit-identical, else as float64 —
  NaN, ±inf, -0.0 and fractions stay float64.  Cells under NULL are
  written as 0 and decode as NaN, the engine's convention.
* *Text* is a dictionary in first-occurrence order plus int32 codes; a
  NULL row's code is ``len(dict)``.  It is written straight from the
  vector's own codes, remapped to the dictionary entries its rows use,
  and decodes to a text vector over that dictionary.
* *Arrays* are int64 end offsets plus the element column of ``m`` rows,
  coded by these same rules (nested arrays recursively, mixed-type
  elements as JSON): a compact array vector's own buffers (a filtered one
  is compacted first, so only the elements its rows hold travel).
* Mixed-type object cells send the column's cells as JSON in the header;
  a JSON column whose cells are all lists (an array column of an older
  image) decodes to an array column.

Byte order is little-endian and written into the tag; dtypes come from a
fixed table, so no header string ever reaches ``np.dtype``.  A ``None``
cell is NULL.  Everything read is validated — tags, sizes against the
row count, dictionary codes, offsets, bitmaps — and anything malformed
raises :class:`MalformedColumns` (a ``ValueError``); callers map it to
their own error class (08P01 on the wire, ``DurabilityError`` on disk).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.sqldb.vector import (
    Vector,
    array_column,
    array_runs,
    array_vector,
    compact,
    first_occurrence_ranks,
)

__all__ = ["MalformedColumns", "encode", "payload_size", "decode"]


class MalformedColumns(ValueError):
    """A column header or buffer that is not what :func:`encode` writes."""


#: every numeric tag a header may name, and the dtype it stands for
_NUMBERS = {
    tag: np.dtype(tag) for tag in ("<i1", "<i2", "<i4", "<f8")
}
#: the integer tags a float64 column may narrow to, narrowest first
_NARROW = [
    (tag, np.dtype(tag), float(np.iinfo(tag).min), float(np.iinfo(tag).max))
    for tag in ("<i1", "<i2", "<i4")
]
_BOOL = "|b1"
_CODES = np.dtype("<i4")
_OFFSETS = np.dtype("<i8")
_F8 = np.dtype("<f8")
#: arrays of arrays nest at most this deep in a header
_MAX_DEPTH = 32


# -- encoding -------------------------------------------------------------------


def encode(vectors: Sequence[Vector]) -> tuple[list[dict], list[bytes]]:
    """One header per column and the buffers behind them, in order."""
    headers: list[dict] = []
    buffers: list[bytes] = []
    for vector in vectors:
        headers.append(_encode_column(vector, buffers))
    return headers, buffers


def _bitmap(nulls: np.ndarray) -> bytes:
    if not nulls.any():
        return b""
    return np.packbits(nulls, bitorder="little").tobytes()


def _encode_column(vector: Vector, buffers: list[bytes]) -> dict:
    values, nulls = vector.values, vector.nulls
    if vector.dictionary is not None:
        return _encode_text(vector, buffers)
    if vector.elements is not None:
        vector = compact(vector)
        data = array_runs(vector)[1].astype(_OFFSETS).tobytes()
        bitmap = _bitmap(nulls)
        buffers += [data, bitmap]
        return {
            "tag": "array",
            "count": len(vector.elements),
            "elements": _encode_column(vector.elements, buffers),
            "sizes": [len(data), len(bitmap)],
        }
    kind = values.dtype.kind
    if kind == "f" and values.dtype.itemsize == 8:
        return _encode_numbers(values, nulls, buffers)
    if kind == "b":
        return _encode_bools(values, nulls, buffers)
    return _encode_json(values.tolist(), nulls, buffers)


def _encode_numbers(
    values: np.ndarray, nulls: np.ndarray, buffers: list[bytes]
) -> dict:
    if nulls.any():
        values = np.where(nulls, 0.0, values)
    tag, data = "<f8", None
    if len(values) == 0:
        tag, data = "<i1", b""
    else:
        # NaN makes both bounds NaN, and NaN fails every range test
        lo, hi = values.min(), values.max()
        for narrow_tag, dtype, low, high in _NARROW:
            if low <= lo and hi <= high:
                narrow = values.astype(dtype)
                back = narrow.astype(np.float64)
                # by bit pattern: -0.0 narrows to 0, which is not it
                if np.array_equal(back.view(np.int64), values.view(np.int64)):
                    tag, data = narrow_tag, narrow.tobytes()
                break
    if data is None:
        data = values.astype(_F8, copy=False).tobytes()
    bitmap = _bitmap(nulls)
    buffers += [data, bitmap]
    return {"tag": tag, "sizes": [len(data), len(bitmap)]}


def _encode_bools(
    values: np.ndarray, nulls: np.ndarray, buffers: list[bytes]
) -> dict:
    if nulls.any():
        values = values & ~nulls
    data = values.astype(np.uint8).tobytes()
    bitmap = _bitmap(nulls)
    buffers += [data, bitmap]
    return {"tag": _BOOL, "sizes": [len(data), len(bitmap)]}


def _encode_text(vector: Vector, buffers: list[bytes]) -> dict:
    """A text vector as the dictionary entries its rows use, in order of
    first occurrence, and int32 codes into them, ``len(dict)`` under
    NULL: a remap of the stored codes."""
    nulls = vector.nulls
    present = vector.values[~nulls] if nulls.any() else vector.values
    dense, first = first_occurrence_ranks(present, len(vector.dictionary))
    used = present[first]
    codes = np.full(len(vector), len(used), dtype=_CODES)
    codes[~nulls] = dense
    data = codes.tobytes()
    bitmap = _bitmap(nulls)
    buffers += [data, bitmap]
    keys = vector.dictionary[used].tolist()
    return {"tag": "text", "dict": keys, "sizes": [len(data), len(bitmap)]}


def _encode_json(cells: list, nulls: np.ndarray, buffers: list[bytes]) -> dict:
    nulls = nulls | np.fromiter(
        (c is None for c in cells), dtype=bool, count=len(cells)
    )
    for k in np.flatnonzero(nulls):
        cells[k] = None
    bitmap = _bitmap(nulls)
    buffers.append(bitmap)
    return {"tag": "json", "cells": cells, "sizes": [len(bitmap)]}


# -- validation -----------------------------------------------------------------


def payload_size(headers: Any, rows: Any) -> int:
    """The bytes the buffers of *headers* take for *rows* rows; raises
    :class:`MalformedColumns` for any header :func:`encode` would not
    write.  Reads no buffer, so a header that claims more rows than its
    buffers hold is refused before anything is allocated."""
    if type(rows) is not int or rows < 0:
        raise MalformedColumns(f"a row count of {rows!r}")
    if type(headers) is not list:
        raise MalformedColumns("column headers are not a list")
    return sum(_column_size(header, rows, 0) for header in headers)


def _column_size(header: Any, rows: int, depth: int) -> int:
    if type(header) is not dict or depth > _MAX_DEPTH:
        raise MalformedColumns("a column header is not an object")
    tag, sizes = header.get("tag"), header.get("sizes")
    bitmap = (rows + 7) // 8
    if (
        type(sizes) is not list
        or not sizes
        or not all(type(size) is int for size in sizes)
        or sizes[-1] not in (0, bitmap)
    ):
        raise MalformedColumns(f"column sizes {sizes!r} for {rows} rows")
    nested = 0
    if type(tag) is not str:
        raise MalformedColumns(f"a column tag of {tag!r}")
    if tag in _NUMBERS:
        expected = [rows * _NUMBERS[tag].itemsize]
    elif tag == _BOOL:
        expected = [rows]
    elif tag == "text":
        keys = header.get("dict")
        if type(keys) is not list or not all(type(k) is str for k in keys):
            raise MalformedColumns("a text dictionary that is not strings")
        if len(set(keys)) != len(keys):
            raise MalformedColumns("a text dictionary with repeats")
        expected = [rows * _CODES.itemsize]
    elif tag == "array":
        count = header.get("count")
        if type(count) is not int or count < 0:
            raise MalformedColumns(f"an element count of {count!r}")
        expected = [rows * _OFFSETS.itemsize]
        nested = _column_size(header.get("elements"), count, depth + 1)
    elif tag == "json":
        cells = header.get("cells")
        if type(cells) is not list or len(cells) != rows:
            raise MalformedColumns(f"JSON cells that are not {rows} rows")
        expected = []
    else:
        raise MalformedColumns(f"unknown column tag {tag!r}")
    if sizes[:-1] != expected:
        raise MalformedColumns(
            f"{tag} column sizes {sizes!r} for {rows} rows"
        )
    return sum(sizes) + nested


# -- decoding -------------------------------------------------------------------


class _Reader:
    """Consecutive slices of one buffer."""

    __slots__ = ("view", "pos")

    def __init__(self, data: bytes | memoryview) -> None:
        self.view = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        chunk = self.view[self.pos:self.pos + n]
        self.pos += n
        return chunk


def decode(headers: Any, rows: Any, data: bytes | memoryview) -> list[Vector]:
    """The columns :func:`encode` wrote, each *rows* long, from *data*
    (exactly their buffers).  Arrays come back writeable and fresh: no
    vector holds on to *data*."""
    size = payload_size(headers, rows)
    if size != len(data):
        raise MalformedColumns(
            f"{len(data)} bytes of column buffers where the headers "
            f"take {size}"
        )
    reader = _Reader(data)
    return [_decode_column(header, rows, reader) for header in headers]


def _unpack(bitmap: bytes | memoryview, rows: int) -> np.ndarray:
    if not len(bitmap):
        return np.zeros(rows, dtype=bool)
    bits = np.unpackbits(
        np.frombuffer(bitmap, dtype=np.uint8), count=rows, bitorder="little"
    )
    return bits.view(bool)


def _decode_column(header: dict, rows: int, reader: _Reader) -> Vector:
    tag, sizes = header["tag"], header["sizes"]
    if tag == "array":
        offsets = np.frombuffer(reader.take(sizes[0]), dtype=_OFFSETS)
        nulls = _unpack(reader.take(sizes[1]), rows)
        lengths = np.diff(offsets, prepend=0)
        count = header["count"]
        if (
            (lengths < 0).any()
            or (len(offsets) and offsets[-1] != count)
            or (not len(offsets) and count)
            or lengths[nulls].any()
        ):
            raise MalformedColumns("array offsets that do not tile the elements")
        elements = _decode_column(header["elements"], count, reader)
        return array_column(lengths, nulls, elements)
    if tag == "json":
        nulls = _unpack(reader.take(sizes[0]), rows)
        cells = header["cells"]
        if any(cells[k] is not None for k in np.flatnonzero(nulls).tolist()):
            raise MalformedColumns("a JSON cell under NULL")
        present = [cell for cell in cells if cell is not None]
        if present and all(type(cell) is list for cell in present):
            return array_vector(cells)
        return Vector(np.fromiter(cells, dtype=object, count=rows), nulls)
    return _decode_scalar(header, rows, reader)


def _decode_scalar(header: dict, rows: int, reader: _Reader) -> Vector:
    """A number, bool or text column."""
    tag, sizes = header["tag"], header["sizes"]
    data = reader.take(sizes[0])
    nulls = _unpack(reader.take(sizes[1]), rows)
    if tag in _NUMBERS:
        values = np.frombuffer(data, dtype=_NUMBERS[tag]).astype(np.float64)
        values[nulls] = np.nan
        return Vector(values, nulls)
    if tag == _BOOL:
        raw = np.frombuffer(data, dtype=np.uint8)
        if (raw > 1).any():
            raise MalformedColumns("a bool byte that is not 0 or 1")
        return Vector(raw.astype(bool), nulls)
    keys = header["dict"]
    codes = np.frombuffer(data, dtype=_CODES)
    n = len(keys)
    if ((codes < 0) | (codes > n)).any() or ((codes == n) != nulls).any():
        raise MalformedColumns("a text code outside the dictionary")
    dictionary = np.empty(n, dtype=object)
    dictionary[:] = keys
    return Vector(np.where(nulls, 0, codes).astype(np.int32), nulls, dictionary)
