"""Unit tests for the Vector value model and the factorisation kernels."""

import numpy as np
import pytest

from repro.sqldb import hashing, vector
from repro.sqldb.vector import Vector, constant, from_values, gather


class TestVectorConstruction:
    def test_from_values_numeric(self):
        v = from_values([1, 2, None])
        assert v.values.dtype == np.float64
        assert v.nulls.tolist() == [False, False, True]

    def test_from_values_bool(self):
        v = from_values([True, False])
        assert v.is_bool

    def test_from_values_text(self):
        v = from_values(["a", None])
        assert v.is_text and v.values.dtype == np.int32
        assert v.tolist() == ["a", None]

    def test_item_integral_float_becomes_int(self):
        v = from_values([2.0, 2.5])
        assert v.item(0) == 2 and isinstance(v.item(0), int)
        assert v.item(1) == 2.5

    def test_item_null_is_none(self):
        assert from_values([None]).item(0) is None

    def test_constant_null(self):
        v = constant(None, 3)
        assert v.nulls.all()

    def test_constant_text(self):
        assert constant("x", 2).tolist() == ["x", "x"]


class TestVectorOps:
    def test_arithmetic_null_propagates(self):
        out = vector.arithmetic("+", from_values([1, None]), from_values([1, 1]))
        assert out.tolist() == [2, None]

    def test_division_by_zero_null(self):
        out = vector.arithmetic("/", from_values([1]), from_values([0]))
        assert out.tolist() == [None]

    def test_concat_strings_and_arrays(self):
        strings = vector.arithmetic(
            "||", from_values(["a"]), from_values(["b"])
        )
        assert strings.tolist() == ["ab"]
        arrays = vector.arithmetic(
            "||", from_values([[1, 2]]), from_values([3])
        )
        assert arrays.tolist() == [[1, 2, 3]]

    def test_compare_null_is_unknown(self):
        out = vector.compare("=", from_values([None]), from_values([1]))
        assert out.nulls.tolist() == [True]

    def test_three_valued_and_or(self):
        true = from_values([True])
        null = Vector(np.array([False]), np.array([True]))
        false = from_values([False])
        assert vector.logical_and(null, false).nulls.tolist() == [False]
        assert vector.logical_and(null, true).nulls.tolist() == [True]
        assert vector.logical_or(null, true).nulls.tolist() == [False]
        assert vector.logical_or(null, false).nulls.tolist() == [True]

    def test_gather_with_holes(self):
        v = from_values(["a", "b"])
        out = gather(v, np.array([1, -1, 0]), missing_null=True)
        assert out.tolist() == ["b", None, "a"]

    def test_gather_empty_vector_all_holes(self):
        v = from_values([])
        out = gather(v, np.array([-1, -1]), missing_null=True)
        assert out.tolist() == [None, None]

    def test_concat_vectors_mixed_dtypes(self):
        out = vector.concat_vectors([from_values([1]), from_values(["x"])])
        assert out.tolist() == [1.0, "x"]


class TestFactorization:
    def test_equal_values_share_codes_across_sides(self):
        left = from_values(["a", "b", "c"])
        right = from_values(["c", "a"])
        lc, rc = hashing.factorize_columns([(left, right)], [False])
        assert lc[0] == rc[1]  # 'a'
        assert lc[2] == rc[0]  # 'c'
        assert lc[1] not in (rc[0], rc[1])  # 'b' unmatched

    def test_nulls_invalid_unless_null_safe(self):
        left = from_values([None, "a"])
        right = from_values([None])
        lc, rc = hashing.factorize_columns([(left, right)], [False])
        assert lc[0] == hashing.INVALID
        assert rc[0] == hashing.INVALID
        lc, rc = hashing.factorize_columns([(left, right)], [True])
        assert lc[0] == rc[0] != hashing.INVALID

    def test_multi_column_keys(self):
        a = from_values(["x", "x"])
        b = from_values([1, 2])
        lc, rc = hashing.factorize_columns(
            [(a, a), (b, b)], [False, False]
        )
        assert lc[0] != lc[1]  # ('x',1) vs ('x',2)
        assert (lc == rc).all()

    def test_group_codes_null_is_a_group(self):
        codes, representatives = hashing.group_codes(
            [from_values(["a", None, "a", None])]
        )
        assert codes[0] == codes[2]
        assert codes[1] == codes[3]
        assert codes[0] != codes[1]
        assert len(representatives) == 2

    def test_group_codes_numeric_sorted_order(self):
        codes, _ = hashing.group_codes([from_values([30, 10, 20])])
        assert codes.tolist() == [2, 0, 1]

    def test_group_codes_empty(self):
        codes, representatives = hashing.group_codes([from_values([])])
        assert len(codes) == 0
        assert len(representatives) == 0

    def test_mixed_type_object_column_falls_back(self):
        mixed = from_values([1, "a", 1, "a"])
        codes, reps = hashing.group_codes([mixed])
        assert codes[0] == codes[2]
        assert codes[1] == codes[3]
        assert len(reps) == 2
