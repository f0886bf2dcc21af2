"""Tests for payload fragmentation."""

import pytest
from hypothesis import given, strategies as st

from repro.link.fragmentation import fragment_payload


class TestFragmentPayload:
    def test_even_split(self):
        frags = fragment_payload(b"abcdef", 3)
        assert frags == [b"ab", b"cd", b"ef"]

    def test_remainder_goes_to_leading_fragments(self):
        frags = fragment_payload(b"abcdefg", 3)
        assert frags == [b"abc", b"de", b"fg"]

    def test_more_fragments_than_bytes(self):
        frags = fragment_payload(b"ab", 5)
        assert frags == [b"a", b"b"]

    def test_empty_payload(self):
        assert fragment_payload(b"", 4) == [b""]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            fragment_payload(b"abc", 0)

    @given(st.binary(max_size=300), st.integers(1, 40))
    def test_concatenation_reconstructs(self, payload, n):
        assert b"".join(fragment_payload(payload, n)) == payload
