"""Vectorised key factorisation for joins, grouping and distinct.

Dense int64 codes replace per-row Python key tuples: each key column is
factorised over the union of both join sides (so equal values share codes),
multi-column keys combine codes with mixed-radix arithmetic, and nulls
either get their own shared code (null-safe joins, GROUP BY) or the
invalid code -1 (plain SQL equality, which never matches null).

Storage already knows most keys: text is coded by its dictionary (equal
text, equal code), and an integral key whose range is at most about twice
its row count — ``ctid`` always — is coded as ``value - min``.  Only other
numbers are sorted (``np.unique``), mixed-type cells are hashed as Python
objects, and an array is keyed by the codes of its elements.
"""

from __future__ import annotations

import numpy as np

from repro.sqldb.vector import (
    Vector,
    array_runs,
    cells,
    concat_vectors,
    find_codes,
    first_occurrence_codes,
    first_occurrence_ranks,
)

__all__ = ["INVALID", "factorize_columns", "group_codes"]

INVALID = np.int64(-1)

#: a code range up to this many times the row count (plus a constant) is
#: addressed directly — counted with ``bincount`` — instead of sorted
_DENSE_FACTOR = 2
_DENSE_SLACK = 1024


def _small_range(top: int, rows: int) -> bool:
    return top <= _DENSE_FACTOR * rows + _DENSE_SLACK


def _offset_codes(values: np.ndarray) -> np.ndarray | None:
    """``value - min`` for integral numbers whose range is small, else
    None: ascending codes with no sort."""
    if values.dtype.kind not in "fiu":
        return None
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return None
    if not _small_range(int(hi - lo) + 1, len(values)):
        return None
    offsets = values - lo
    codes = offsets.astype(np.int64)
    if not np.array_equal(codes, offsets):
        return None  # a fraction
    return codes


def _factorize_values(vector: Vector) -> np.ndarray:
    """Codes >= 0 for non-null values (equal value = equal code), -2 marker
    for nulls (callers decide their meaning).

    Text codes are its dictionary codes, numeric codes ascend with the
    value, and mixed-type object cells and arrays (tuples of their
    elements' codes) are numbered by value in first-occurrence order."""
    codes = np.full(len(vector), -2, dtype=np.int64)
    present = ~vector.nulls
    if not present.any():
        return codes
    if vector.elements is not None:
        elements = _factorize_values(vector.elements).tolist()
        starts, ends = array_runs(vector)
        codes[present] = first_occurrence_codes([
            tuple(elements[a:b])
            for a, b in zip(starts[present].tolist(), ends[present].tolist())
        ])[0]
        return codes
    subset = vector.values[present]
    if vector.dictionary is not None:
        codes[present] = subset
        return codes
    if subset.dtype == object:
        codes[present] = first_occurrence_codes(subset.tolist())[0]
        return codes
    offsets = _offset_codes(subset)
    if offsets is None:
        _, offsets = np.unique(subset, return_inverse=True)
    codes[present] = offsets.reshape(-1)
    return codes


def _mixed_radix(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-radix combination of per-column codes, and the rows where any
    part is negative (invalid)."""
    combined = parts[0].copy()
    invalid = combined < 0
    for part in parts[1:]:
        radix = int(part.max(initial=-1)) + 1 or 1
        combined = combined * radix + part
        invalid |= part < 0
    return combined, invalid


def _densify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Non-negative *codes* renumbered ``0..m-1`` in ascending order, and
    ``m``: ``bincount`` + ``cumsum`` over a small range, else a sort."""
    top = int(codes.max(initial=-1)) + 1
    if _small_range(top, len(codes)):
        present = np.bincount(codes, minlength=top) > 0
        rank = np.cumsum(present) - 1
        return rank[codes], int(rank[-1]) + 1 if top else 0
    distinct, inverse = np.unique(codes, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), len(distinct)


def _combine(parts: list[np.ndarray]) -> np.ndarray:
    """Dense combined codes; a row with any -1 part stays invalid."""
    combined, invalid = _mixed_radix(parts)
    combined[invalid] = INVALID
    # densify so downstream bincounts and direct addresses stay small
    valid = ~invalid
    if valid.any():
        combined[valid] = _densify(combined[valid])[0]
    return combined


def _joint_codes(left: Vector, right: Vector) -> tuple[np.ndarray, np.ndarray]:
    """Codes of one key column on both join sides (-2 under NULL), equal
    values sharing a code: two dictionaries meet by remapping the right
    one's k entries, never its rows."""
    n_left = len(left)
    if left.dictionary is not None and right.dictionary is not None:
        left_codes = _factorize_values(left)
        right_codes = _factorize_values(right)
        if right.dictionary is not left.dictionary:
            remap = find_codes(left.dictionary, right.dictionary.tolist())
            absent = np.flatnonzero(remap < 0)
            remap[absent] = len(left.dictionary) + np.arange(len(absent))
            present = right_codes >= 0
            right_codes[present] = remap[right_codes[present]]
        return left_codes, right_codes
    if left.elements is not None or right.elements is not None:
        codes = _factorize_values(concat_vectors([left, right]))
        return codes[:n_left], codes[n_left:]
    if any(
        v.dictionary is not None or v.values.dtype == object
        for v in (left, right)
    ):
        # text against numbers, arrays or mixed cells: equal as Python values
        values = np.concatenate(
            [cells(left).astype(object), cells(right).astype(object)]
        )
    else:
        values = np.concatenate(
            [
                left.values.astype(np.float64, copy=False),
                right.values.astype(np.float64, copy=False),
            ]
        )
    nulls = np.concatenate([left.nulls, right.nulls])
    codes = _factorize_values(Vector(values, nulls))
    return codes[:n_left], codes[n_left:]


def factorize_columns(
    column_pairs: list[tuple[Vector, Vector]],
    null_safe: list[bool],
) -> tuple[np.ndarray, np.ndarray]:
    """Joint factorisation of the key columns of two join sides.

    Returns (left_codes, right_codes); equal keys across sides share a
    code, and rows whose key can never match carry ``INVALID``.
    """
    n_left = len(column_pairs[0][0])
    joined: list[np.ndarray] = []
    for (left, right), safe in zip(column_pairs, null_safe):
        codes = np.concatenate(_joint_codes(left, right))
        null_rows = codes == -2
        if safe:
            codes[null_rows] = codes.max(initial=-1) + 1
        else:
            codes[null_rows] = INVALID
        joined.append(codes)
    combined = _combine(joined)
    return combined[:n_left], combined[n_left:]


def group_codes(vectors: list[Vector]) -> tuple[np.ndarray, np.ndarray]:
    """Dense group codes treating null as a regular value (GROUP BY).

    Returns (codes, representative_positions).  Groups are ordered key
    column by key column: numbers ascending, text and other objects in
    order of first occurrence, null after every value; each
    representative is the first row of its group.
    """
    parts = []
    for vec in vectors:
        codes = _factorize_values(vec)
        null_rows = codes == -2
        if vec.dictionary is not None and not null_rows.all():
            present = ~null_rows
            codes[present] = first_occurrence_ranks(
                codes[present], len(vec.dictionary)
            )[0]
        codes[null_rows] = codes.max(initial=-1) + 1
        parts.append(codes)
    # no part is negative (null is a code of its own)
    combined, _ = _mixed_radix(parts)
    inverse, m = _densify(combined)
    first = np.full(m, len(combined), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(combined), dtype=np.int64))
    return inverse, first
