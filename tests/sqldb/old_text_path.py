"""The object-array text path that dictionary-coded text replaced, kept
verbatim as a reference oracle (``test_text_codes_oracle.py``).

Text used to be an object array of ``str`` (one object per distinct
string after COPY), factorised by building a dict over every row, and
integer keys were factorised by sorting (``np.unique``).  These are the
parent versions of COPY's text typing (``CsvColumn``), ``vector.
_object_codes``, ``hashing._factorize_values``, ``factorize_columns``,
``group_codes`` and the sort-based ``executor._equi_join_positions``,
over object vectors (``Vector(values, nulls)``, None under NULL).
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.sqldb.vector import Vector

INVALID = np.int64(-1)


def first_occurrence_codes(keys, distinct=None):
    if distinct is None:
        distinct = dict.fromkeys(keys)
    n = len(distinct)
    if n <= 1:
        return np.zeros(len(keys), dtype=np.int64), n
    if n == len(keys):
        return np.arange(n, dtype=np.int64), n
    numbering = {key: code for code, key in enumerate(distinct)}
    codes = np.fromiter(
        map(numbering.__getitem__, keys), dtype=np.int64, count=len(keys)
    )
    return codes, n


def object_codes(cells):
    """``vector._object_codes``: text by value, anything else by identity."""
    try:
        distinct = dict.fromkeys(cells)
    except TypeError:
        distinct = None
    if distinct is not None and (
        len(distinct) == len(cells) or set(map(type, distinct)) <= {str}
    ):
        return first_occurrence_codes(cells, distinct)
    return first_occurrence_codes(list(map(id, cells)))


class OldCsvText:
    """``CsvColumn``'s text typing: one dict of string objects for the
    whole COPY, an object ``fromiter`` and one ``values == key`` NULL
    mask per NULL text."""

    def __init__(self, null_text: str) -> None:
        self.null_keys = tuple(dict.fromkeys(("", null_text)))
        self.parts = []
        self.rows = 0
        self.known = {}

    def add(self, cells) -> None:
        self.parts.append(list(map(self.known.setdefault, cells, cells)))
        self.rows += len(cells)

    def vector(self) -> Vector:
        values = np.fromiter(
            itertools.chain.from_iterable(self.parts), object, self.rows
        )
        nulls = np.zeros(self.rows, dtype=bool)
        for key in self.null_keys:
            if key in self.known:
                nulls |= values == key
        values[nulls] = None
        return Vector(values, nulls)


def factorize_values(values, nulls):
    codes = np.full(len(values), -2, dtype=np.int64)
    present = ~nulls
    if not present.any():
        return codes
    subset = values[present]
    if subset.dtype == object:
        codes[present] = first_occurrence_codes(subset.tolist())[0]
        return codes
    _, inverse = np.unique(subset, return_inverse=True)
    codes[present] = inverse.astype(np.int64)
    return codes


def _mixed_radix(parts):
    combined = parts[0].copy()
    invalid = combined < 0
    for part in parts[1:]:
        radix = int(part.max(initial=-1)) + 1 or 1
        combined = combined * radix + part
        invalid |= part < 0
    return combined, invalid


def _combine(parts):
    combined, invalid = _mixed_radix(parts)
    combined[invalid] = INVALID
    valid = ~invalid
    if valid.any():
        _, inverse = np.unique(combined[valid], return_inverse=True)
        combined[valid] = inverse
    return combined


def factorize_columns(column_pairs, null_safe):
    n_left = len(column_pairs[0][0])
    left_parts, right_parts = [], []
    for (left, right), safe in zip(column_pairs, null_safe):
        if left.values.dtype == object or right.values.dtype == object:
            values = np.concatenate(
                [left.values.astype(object), right.values.astype(object)]
            )
        else:
            values = np.concatenate(
                [
                    left.values.astype(np.float64, copy=False),
                    right.values.astype(np.float64, copy=False),
                ]
            )
        nulls = np.concatenate([left.nulls, right.nulls])
        codes = factorize_values(values, nulls)
        null_rows = codes == -2
        if safe:
            codes[null_rows] = codes.max(initial=-1) + 1
        else:
            codes[null_rows] = INVALID
        left_parts.append(codes[:n_left])
        right_parts.append(codes[n_left:])
    combined = _combine(
        [np.concatenate([l, r]) for l, r in zip(left_parts, right_parts)]
    )
    return combined[:n_left], combined[n_left:]


def group_codes(vectors):
    parts = []
    for vec in vectors:
        codes = factorize_values(vec.values, vec.nulls)
        null_rows = codes == -2
        codes[null_rows] = codes.max(initial=-1) + 1
        parts.append(codes)
    combined, _ = _mixed_radix(parts)
    _, first_positions, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return inverse.astype(np.int64), first_positions.astype(np.int64)


def equi_join_positions(left_codes, right_codes, kind):
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    first_valid = np.searchsorted(sorted_codes, 0, side="left")
    order = order[first_valid:]
    sorted_codes = sorted_codes[first_valid:]
    probe_codes = np.where(left_codes < 0, np.int64(-1), left_codes)
    starts = np.searchsorted(sorted_codes, probe_codes, side="left")
    ends = np.searchsorted(sorted_codes, probe_codes, side="right")
    counts = ends - starts
    counts[left_codes < 0] = 0
    total = int(counts.sum())
    left_pos = np.repeat(np.arange(len(left_codes), dtype=np.int64), counts)
    prefix = np.zeros(len(counts), dtype=np.int64)
    if len(counts) > 1:
        prefix[1:] = np.cumsum(counts[:-1])
    offsets = (
        np.arange(total, dtype=np.int64)
        - np.repeat(prefix, counts)
        + np.repeat(starts, counts)
    )
    right_pos = order[offsets]
    if kind in ("left", "full"):
        unmatched = np.flatnonzero(counts == 0)
        if len(unmatched):
            left_pos = np.concatenate([left_pos, unmatched])
            right_pos = np.concatenate(
                [right_pos, np.full(len(unmatched), -1, dtype=np.int64)]
            )
            order = np.argsort(left_pos, kind="stable")
            left_pos = left_pos[order]
            right_pos = right_pos[order]
    if kind in ("right", "full"):
        matched = np.zeros(len(right_codes), dtype=bool)
        matched[right_pos[right_pos >= 0]] = True
        unmatched = np.flatnonzero(~matched)
        left_pos = np.concatenate(
            [left_pos, np.full(len(unmatched), -1, dtype=np.int64)]
        )
        right_pos = np.concatenate([right_pos, unmatched])
    return left_pos, right_pos
