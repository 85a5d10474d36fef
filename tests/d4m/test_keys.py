"""Key-space utilities."""

import numpy as np
import pytest

from repro.d4m.keys import (
    as_key_array,
    canonicalize,
    intersect_keys,
    recode,
    resolve_selector,
    union_keys,
)


class TestAsKeyArray:
    def test_plain_string_is_singleton(self):
        np.testing.assert_array_equal(as_key_array("abc"), ["abc"])

    def test_separator_terminated_splits(self):
        np.testing.assert_array_equal(as_key_array("a,b,c,"), ["a", "b", "c"])

    def test_other_separators(self):
        np.testing.assert_array_equal(as_key_array("x|y|"), ["x", "y"])

    def test_numbers_stringified(self):
        np.testing.assert_array_equal(as_key_array([1, 2.0, 3]), ["1", "2", "3"])

    def test_scalar_int(self):
        np.testing.assert_array_equal(as_key_array(7), ["7"])

    def test_bytes_decoded(self):
        np.testing.assert_array_equal(as_key_array([b"ip"]), ["ip"])

    def test_utf8_bytes_ndarray_decoded_like_list(self):
        keys = ["é".encode(), b"ip"]
        np.testing.assert_array_equal(as_key_array(np.asarray(keys)), ["é", "ip"])
        np.testing.assert_array_equal(as_key_array(np.asarray(keys)), as_key_array(keys))

    def test_string_ndarray_passthrough(self):
        arr = np.asarray(["a", "b"])
        np.testing.assert_array_equal(as_key_array(arr), arr)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            as_key_array(np.asarray([["a"]]))


class TestSpaces:
    def test_canonicalize(self):
        unique, codes = canonicalize(np.asarray(["b", "a", "b"]))
        np.testing.assert_array_equal(unique, ["a", "b"])
        np.testing.assert_array_equal(unique[codes.astype(int)], ["b", "a", "b"])

    def test_union_keys_recoding(self):
        a = np.asarray(["a", "c"])
        b = np.asarray(["b", "c"])
        union, ca, cb = union_keys(a, b)
        np.testing.assert_array_equal(union, ["a", "b", "c"])
        np.testing.assert_array_equal(union[ca.astype(int)], a)
        np.testing.assert_array_equal(union[cb.astype(int)], b)

    def test_intersect(self):
        np.testing.assert_array_equal(
            intersect_keys(np.asarray(["a", "b"]), np.asarray(["b", "c"])), ["b"]
        )

    def test_recode_missing_key_raises(self):
        with pytest.raises(KeyError):
            recode(np.asarray(["z"]), np.asarray(["a", "b"]))


class TestSelectors:
    SPACE = np.asarray(["apple", "banana", "cherry"])

    def test_colon_selects_all(self):
        np.testing.assert_array_equal(resolve_selector(":", self.SPACE), self.SPACE)

    def test_list_intersects(self):
        np.testing.assert_array_equal(
            resolve_selector(["banana", "zzz"], self.SPACE), ["banana"]
        )

    def test_slice_range(self):
        np.testing.assert_array_equal(
            resolve_selector(slice("b", "c"), self.SPACE), ["banana"]
        )

    def test_open_slice(self):
        np.testing.assert_array_equal(
            resolve_selector(slice("b", None), self.SPACE), ["banana", "cherry"]
        )

    def test_stepped_slice_rejected(self):
        with pytest.raises(ValueError):
            resolve_selector(slice("a", "c", 2), self.SPACE)
