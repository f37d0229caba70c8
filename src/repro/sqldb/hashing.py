"""Vectorised key factorisation for joins, grouping and distinct.

Dense int64 codes replace per-row Python key tuples: each key column is
factorised over the union of both join sides (so equal values share codes),
multi-column keys combine codes with mixed-radix arithmetic, and nulls
either get their own shared code (null-safe joins, GROUP BY) or the
invalid code -1 (plain SQL equality, which never matches null).
"""

from __future__ import annotations

import numpy as np

from repro.sqldb.vector import Vector, first_occurrence_codes

__all__ = ["INVALID", "factorize_columns", "group_codes"]

INVALID = np.int64(-1)


def _factorize_values(values: np.ndarray, nulls: np.ndarray) -> np.ndarray:
    """Codes >= 0 for non-null values (equal value = equal code), -2 marker
    for nulls (callers decide their meaning)."""
    codes = np.full(len(values), -2, dtype=np.int64)
    present = ~nulls
    if not present.any():
        return codes
    subset = values[present]
    if subset.dtype == object:
        # dict-based factorisation: avoids O(n log n) Python-compare sorts
        # on string columns.  Codes follow first occurrence for determinism.
        codes[present] = first_occurrence_codes(subset.tolist())[0]
        return codes
    _, inverse = np.unique(subset, return_inverse=True)
    codes[present] = inverse.astype(np.int64)
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


def _combine(parts: list[np.ndarray]) -> np.ndarray:
    """Dense combined codes; a row with any -1 part stays invalid."""
    combined, invalid = _mixed_radix(parts)
    combined[invalid] = INVALID
    # densify so downstream bincounts stay small
    valid = ~invalid
    if valid.any():
        _, inverse = np.unique(combined[valid], return_inverse=True)
        combined[valid] = inverse
    return combined


def factorize_columns(
    column_pairs: list[tuple[Vector, Vector]],
    null_safe: list[bool],
) -> tuple[np.ndarray, np.ndarray]:
    """Joint factorisation of the key columns of two join sides.

    Returns (left_codes, right_codes); equal keys across sides share a
    code, and rows whose key can never match carry ``INVALID``.
    """
    n_left = len(column_pairs[0][0])
    left_parts: list[np.ndarray] = []
    right_parts: list[np.ndarray] = []
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
        codes = _factorize_values(values, nulls)
        null_rows = codes == -2
        if safe:
            codes[null_rows] = codes.max(initial=-1) + 1
        else:
            codes[null_rows] = INVALID
        left_parts.append(codes[:n_left])
        right_parts.append(codes[n_left:])
    combined = _combine([np.concatenate([l, r]) for l, r in zip(left_parts, right_parts)])
    return combined[:n_left], combined[n_left:]


def group_codes(vectors: list[Vector]) -> tuple[np.ndarray, np.ndarray]:
    """Dense group codes treating null as a regular value (GROUP BY).

    Returns (codes, representative_positions); groups are numbered in
    ascending key order and each representative is the first row of its
    group in that ordering.
    """
    parts = []
    for vec in vectors:
        codes = _factorize_values(vec.values, vec.nulls)
        null_rows = codes == -2
        codes[null_rows] = codes.max(initial=-1) + 1
        parts.append(codes)
    # no part is negative (null is a code of its own): one np.unique both
    # densifies and finds the representatives
    combined, _ = _mixed_radix(parts)
    _, first_positions, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return inverse.astype(np.int64), first_positions.astype(np.int64)
