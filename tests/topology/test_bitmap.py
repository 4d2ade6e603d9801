"""Bitmap algebra tests, heavily property-based."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.topology import Bitmap

bits = st.sets(st.integers(min_value=0, max_value=200), max_size=32)


class TestConstruction:
    def test_from_iterable(self):
        b = Bitmap([0, 3, 5])
        assert list(b) == [0, 3, 5]

    def test_from_range(self):
        assert list(Bitmap.from_range(2, 5)) == [2, 3, 4]

    def test_empty_range(self):
        assert Bitmap.from_range(3, 3).is_empty()

    def test_bad_range_raises(self):
        with pytest.raises(TopologyError):
            Bitmap.from_range(5, 2)

    def test_negative_rejected(self):
        with pytest.raises(TopologyError):
            Bitmap([-1])

    def test_parse_forms(self):
        assert list(Bitmap.parse("0-2,5")) == [0, 1, 2, 5]
        assert Bitmap.parse("").is_empty()
        assert list(Bitmap.parse("7")) == [7]

    def test_parse_bad_span(self):
        with pytest.raises(TopologyError):
            Bitmap.parse("5-2")


class TestIndexTypes:
    """Indices go through ``operator.index``: numpy integers behave like
    ints, non-integers are a TopologyError."""

    def test_numpy_indices_construct(self):
        assert Bitmap([np.int64(70)]) == Bitmap([70])
        assert list(Bitmap([np.int64(3), np.int32(5)])) == [3, 5]
        assert Bitmap(np.arange(4)) == Bitmap.from_range(0, 4)

    def test_numpy_queries_and_updates(self):
        b = Bitmap.from_range(0, 300)
        assert b.isset(np.int64(250))
        assert np.int64(299) in b and np.int64(300) not in b
        assert not b.isset(np.int64(-1))
        assert Bitmap().set(np.int64(200)) == Bitmap([200])
        assert b.clr(np.int64(250)) == b.andnot(Bitmap([250]))

    @pytest.mark.parametrize("bad", [2.0, 2.5, "2", None])
    def test_non_integer_indices_rejected(self, bad):
        with pytest.raises(TopologyError):
            Bitmap([bad])
        with pytest.raises(TopologyError):
            Bitmap([1]).isset(bad)
        with pytest.raises(TopologyError):
            Bitmap([1]).set(bad)
        with pytest.raises(TopologyError):
            Bitmap([1]).clr(bad)

    def test_negative_numpy_index_rejected(self):
        with pytest.raises(TopologyError):
            Bitmap([np.int64(-1)])
        with pytest.raises(TopologyError):
            Bitmap().set(np.int64(-1))


class TestQueries:
    def test_first_last_weight(self):
        b = Bitmap([3, 9, 17])
        assert b.first() == 3
        assert b.last() == 17
        assert b.weight() == 3

    def test_empty_conventions(self):
        b = Bitmap()
        assert b.first() == -1
        assert b.last() == -1
        assert not b
        assert len(b) == 0

    def test_contains(self):
        b = Bitmap([4])
        assert 4 in b and 5 not in b
        assert not b.isset(-1)


class TestAlgebra:
    def test_set_clr_immutably(self):
        b = Bitmap([1])
        b2 = b.set(2)
        assert 2 in b2 and 2 not in b

    def test_andnot(self):
        assert list(Bitmap([1, 2, 3]).andnot(Bitmap([2]))) == [1, 3]

    def test_operators(self):
        a, b = Bitmap([1, 2]), Bitmap([2, 3])
        assert list(a & b) == [2]
        assert list(a | b) == [1, 2, 3]
        assert list(a ^ b) == [1, 3]

    @given(bits, bits)
    def test_inclusion_definition(self, xs, ys):
        a, b = Bitmap(xs), Bitmap(ys)
        assert a.includes(b) == ys.issubset(xs)

    @given(bits, bits)
    def test_intersection_definition(self, xs, ys):
        assert Bitmap(xs).intersects(Bitmap(ys)) == bool(xs & ys)

    @given(bits, bits)
    def test_demorgan_on_union(self, xs, ys):
        a, b = Bitmap(xs), Bitmap(ys)
        assert set(a | b) == xs | ys
        assert set(a & b) == xs & ys
        assert set(a ^ b) == xs ^ ys

    @given(bits)
    def test_roundtrip_list_syntax(self, xs):
        b = Bitmap(xs)
        assert Bitmap.parse(b.to_list_syntax()) == b

    @given(bits)
    def test_weight_matches_len(self, xs):
        assert Bitmap(xs).weight() == len(xs)

    @given(bits, bits)
    def test_hash_eq_consistency(self, xs, ys):
        a, b = Bitmap(xs), Bitmap(ys)
        if a == b:
            assert hash(a) == hash(b)
            assert xs == ys

    @given(bits)
    def test_iteration_sorted(self, xs):
        assert list(Bitmap(xs)) == sorted(xs)


# Any syntactically valid list string: unsorted, overlapping spans and
# duplicates allowed — parse must still accept it.
spans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=1,
    max_size=8,
)


class TestListSyntaxRoundtrip:
    """parse ↔ to_list_syntax round-trips, both directions."""

    @given(spans)
    def test_parse_then_render_is_canonical(self, parts):
        text = ",".join(
            f"{lo}-{lo + length}" if length else str(lo)
            for lo, length in parts
        )
        b = Bitmap.parse(text)
        canonical = b.to_list_syntax()
        # Rendering loses nothing: re-parsing gives the same set back.
        assert Bitmap.parse(canonical) == b
        # The canonical form is a fixed point of parse ∘ render.
        assert Bitmap.parse(canonical).to_list_syntax() == canonical

    @given(bits)
    def test_render_then_parse_preserves_bits(self, xs):
        assert set(Bitmap.parse(Bitmap(xs).to_list_syntax())) == xs

    def test_canonical_form_merges_adjacent(self):
        assert Bitmap.parse("0,1,2,5").to_list_syntax() == "0-2,5"
