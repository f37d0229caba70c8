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
    arrays    {"tag": "array", "count": m, "elements": <scalar header>,
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
* *Arrays* are int64 end offsets plus one element column coded by the
  scalar rules, with its own bitmap; they decode to per-row lists whose
  elements are what :func:`~repro.sqldb.vector.to_python` returns.
  Each distinct list object is flattened once (rows produced by one
  kernel call share theirs).
* Anything else — mixed-type object cells, nested arrays, array elements
  a float64 round trip would not give back as they are — sends the
  column's cells as JSON in the header.

Byte order is little-endian and written into the tag; dtypes come from a
fixed table, so no header string ever reaches ``np.dtype``.  A ``None``
cell is NULL.  Everything read is validated — tags, sizes against the
row count, dictionary codes, offsets, bitmaps — and anything malformed
raises :class:`MalformedColumns` (a ``ValueError``); callers map it to
their own error class (08P01 on the wire, ``DurabilityError`` on disk).
"""

from __future__ import annotations

import itertools
from typing import Any, Sequence

import numpy as np

from repro.sqldb.vector import (
    Vector,
    cells as stored_cells,
    first_occurrence_codes,
    first_occurrence_ranks,
    gather,
    python_list,
    text_vector,
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

#: an exactly representable integer as float64, at most
_EXACT_INT = 2 ** 53


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
    kind = values.dtype.kind
    if kind == "f" and values.dtype.itemsize == 8:
        return _encode_numbers(values, nulls, buffers)
    if kind == "b":
        return _encode_bools(values, nulls, buffers)
    cells = values.tolist()
    if kind == "O":
        return _encode_objects(cells, nulls, buffers)
    return _encode_json(cells, nulls, buffers)


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


def _encode_objects(cells: list, nulls: np.ndarray, buffers: list[bytes]) -> dict:
    for k in np.flatnonzero(nulls):
        cells[k] = None
    # arrays and other objects by identity: one per distinct object
    codes, n = first_occurrence_codes(list(map(id, cells)))
    first = np.empty(n, dtype=np.int64)
    first[codes] = np.arange(len(cells))
    unique = [cells[i] for i in first.tolist()]
    if all(type(cell) is list or cell is None for cell in unique):
        header = _encode_arrays(unique, codes, buffers)
        if header is not None:
            return header
    return _encode_json(cells, nulls, buffers)


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


def _element_vector(elements: list) -> Vector | None:
    """The distinct lists' elements as one scalar column, or None when a
    typed column would not give every element back as it is."""
    kinds = set(map(type, elements)) - {type(None)}
    nulls = np.fromiter(
        (e is None for e in elements), dtype=bool, count=len(elements)
    )
    if kinds <= {int, float}:
        # only what decodes to itself: to_python turns an integral float
        # into an int, and float64 holds integers exactly up to 2**53
        if not all(
            -_EXACT_INT <= e <= _EXACT_INT if type(e) is int
            else not e.is_integer()
            for e in elements if e is not None
        ):
            return None
        values = np.array(
            [0.0 if e is None else e for e in elements], dtype=np.float64
        )
    elif kinds == {bool}:
        values = np.array([e is True for e in elements], dtype=bool)
    elif kinds == {str}:
        return text_vector(elements, nulls)
    else:
        return None
    return Vector(values, nulls)


def _encode_arrays(
    unique: list, codes: np.ndarray, buffers: list[bytes]
) -> dict | None:
    elements = _element_vector(
        list(itertools.chain.from_iterable(c for c in unique if c is not None))
    )
    if elements is None:
        return None
    # every row's run of elements, gathered from its distinct list's run
    unique_lengths = np.array(
        [0 if cell is None else len(cell) for cell in unique], dtype=np.int64
    )
    lengths = unique_lengths[codes]
    offsets = np.cumsum(lengths, dtype=np.int64)
    count = int(offsets[-1]) if len(offsets) else 0
    unique_starts = np.cumsum(unique_lengths) - unique_lengths
    take = np.repeat(unique_starts[codes] - (offsets - lengths), lengths)
    take += np.arange(count, dtype=np.int64)
    data = offsets.astype(_OFFSETS).tobytes()
    bitmap = _bitmap(np.array([c is None for c in unique], dtype=bool)[codes])
    buffers += [data, bitmap]
    element_header = _encode_column(gather(elements, take), buffers)
    return {
        "tag": "array",
        "count": count,
        "elements": element_header,
        "sizes": [len(data), len(bitmap)],
    }


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
    return sum(_column_size(header, rows, False) for header in headers)


def _column_size(header: Any, rows: int, element: bool) -> int:
    if type(header) is not dict:
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
    elif tag == "array" and not element:
        count = header.get("count")
        if type(count) is not int or count < 0:
            raise MalformedColumns(f"an element count of {count!r}")
        expected = [rows * _OFFSETS.itemsize]
        nested = _column_size(header.get("elements"), count, True)
    elif tag == "json" and not element:
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
        starts = np.concatenate(([0], offsets[:-1])).astype(np.int64)
        count = header["count"]
        if (
            (offsets < starts).any()
            or (len(offsets) and offsets[-1] != count)
            or (not len(offsets) and count)
            or (offsets[nulls] != starts[nulls]).any()
        ):
            raise MalformedColumns("array offsets that do not tile the elements")
        elements, element_nulls, data = _elements(
            header["elements"], count, reader
        )
        lengths = offsets - starts
        if rows and not element_nulls.any() and (lengths == lengths[0]).all():
            values = _equal_arrays(elements, data, rows, int(lengths[0]))
        else:
            items = elements.tolist()
            for k in np.flatnonzero(element_nulls).tolist():
                items[k] = None
            cells = map(
                items.__getitem__, map(slice, starts.tolist(), offsets.tolist())
            )
            values = np.fromiter(cells, dtype=object, count=rows)
        values[nulls] = None
        return Vector(values, nulls)
    if tag == "json":
        nulls = _unpack(reader.take(sizes[0]), rows)
        cells = header["cells"]
        if any(cells[k] is not None for k in np.flatnonzero(nulls).tolist()):
            raise MalformedColumns("a JSON cell under NULL")
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


def _equal_arrays(
    elements: np.ndarray, data: memoryview, rows: int, width: int
) -> np.ndarray:
    """Arrays of one length (one-hot vectors): one list per distinct run
    of element bytes, shared by the rows holding it — a handful of lists
    where a per-row decode would allocate one a row."""
    if width == 0:
        first, codes = np.zeros(1, dtype=np.int64), np.zeros(rows, dtype=np.int64)
    else:
        first, codes = _equal_runs(data, rows)
    lists = elements.reshape(rows, width)[first].tolist()
    return np.fromiter(iter(lists), dtype=object, count=len(first))[codes]


#: odd 64-bit multiplier of the run hash (2**64 / golden ratio)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _equal_runs(data: memoryview, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A row standing for each distinct byte run of *data* (*rows* runs
    of one size) and each row's index into them: runs are hashed into one
    uint64, grouped by hash, and the grouping is checked byte for byte
    (a collision falls back to grouping the runs' bytes in a dict)."""
    runs = np.frombuffer(data, dtype=np.uint8).reshape(rows, -1)
    words = np.zeros((rows, -(-runs.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :runs.shape[1]] = runs
    words = words.view("<u8")
    hashed = words[:, 0].copy()
    for j in range(1, words.shape[1]):
        hashed = hashed * _MIX ^ words[:, j]
    distinct, codes = np.unique(hashed, return_inverse=True)
    n = len(distinct)
    first = np.empty(n, dtype=np.int64)
    first[codes] = np.arange(rows)  # any row of a run stands for it
    if (runs != runs[first[codes]]).any():  # a hash collision: by value
        codes, n = first_occurrence_codes(
            np.frombuffer(data, dtype=np.dtype((np.void, runs.shape[1]))).tolist()
        )
        first = np.empty(n, dtype=np.int64)
        first[codes] = np.arange(rows)
    return first, codes


def _elements(
    header: dict, count: int, reader: _Reader
) -> tuple[np.ndarray, np.ndarray, memoryview]:
    """The elements of an array column — an array whose ``tolist()`` is
    what :func:`~repro.sqldb.vector.to_python` gives — their NULLs, and
    their value (or code) buffer."""
    tag, sizes = header["tag"], header["sizes"]
    data = reader.view[reader.pos:reader.pos + sizes[0]]
    if tag in _NUMBERS and tag != "<f8":
        # narrowed integers: tolist() gives Python ints at C speed
        reader.take(sizes[0])
        nulls = _unpack(reader.take(sizes[1]), count)
        return np.frombuffer(data, dtype=_NUMBERS[tag]), nulls, data
    elements = _decode_scalar(header, count, reader)
    values, nulls = stored_cells(elements), elements.nulls
    if tag == "<f8":
        items = np.empty(count, dtype=object)
        items[:] = python_list(values)
        return items, nulls, data
    return values, nulls, data
