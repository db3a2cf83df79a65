"""Pairwise value similarity tests."""

import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import lev_ref
from ldtruth.similarity import levenshtein, sim
from ldtruth.values import NormalizedValue, normalize_object


def number(text):
    return NormalizedValue.from_number(text)


class TestNumberSimilarity:
    def test_identity(self):
        assert sim(number("93"), number("93")) == 1.0

    def test_relative_gap(self):
        # 1 - |93 - 46.0248| / (93 + 46.0248)
        expected = 1.0 - 46.9752 / 139.0248
        assert sim(number("93"), number("46.0248")) == pytest.approx(expected, abs=1e-12)
        assert sim(number("93"), number("46.0248")) == pytest.approx(0.66213, abs=5e-5)

    def test_opposite_signs_sit_at_zero(self):
        assert sim(number("5"), number("-5")) == pytest.approx(0.0, abs=1e-9)

    def test_both_zero(self):
        assert sim(number("0"), number("0")) == 1.0

    def test_beyond_float_range(self):
        huge = number("1e400")
        assert sim(huge, huge) == 1.0
        assert sim(number("-3e400"), number("-3e400")) == 1.0
        # rescaled by the larger magnitude before the float ratio
        assert sim(huge, number("2e400")) == sim(number("0.5"), number("1"))
        assert sim(huge, number("2e400")) == pytest.approx(2 / 3)
        assert sim(number("1e-400"), huge) == sim(number("0"), number("1"))
        # finite floats whose magnitudes sum past the float maximum
        assert sim(number("1.7e308"), number("1e308")) == \
            pytest.approx(1 - 0.7 / 2.7)
        assert sim(number("1.7e308"), number("-1.7e308")) == \
            sim(number("1"), number("-1"))

    def test_monotone_in_gap(self):
        rng = random.Random(1203)
        for _ in range(200):
            b = rng.uniform(1.0, 100.0)
            a1 = b + rng.uniform(0.0, 50.0)
            a2 = a1 + rng.uniform(0.1, 50.0)
            s1 = sim(number(repr(a1)), number(repr(b)))
            s2 = sim(number(repr(a2)), number(repr(b)))
            assert s2 <= s1


class TestDateSimilarity:
    def test_wildcards_match_anything(self):
        full = normalize_object("1886-10-28")
        partial = normalize_object("1886-#-#")
        assert sim(full, partial) == 1.0

    def test_component_fractions(self):
        a = NormalizedValue.from_date(1886, 10, 28)
        assert sim(a, NormalizedValue.from_date(1886, 10, 27)) == pytest.approx(2 / 3)
        assert sim(a, NormalizedValue.from_date(1886, 9, 28)) == pytest.approx(2 / 3)
        assert sim(a, NormalizedValue.from_date(1885, 9, 27)) == 0.0

    def test_partial_versus_partial(self):
        a = NormalizedValue.from_date(1886, 10, None)
        b = NormalizedValue.from_date(1886, None, None)
        assert sim(a, b) == 1.0


class TestTextSimilarity:
    def test_identity_and_case(self):
        a = NormalizedValue.from_text("Liberty Island")
        b = NormalizedValue.from_text("liberty island")
        assert sim(a, a) == 1.0
        assert sim(a, b) == 1.0

    def test_edit_distance_agrees_with_reference(self):
        rng = random.Random(7710)
        letters = string.ascii_lowercase
        for _ in range(150):
            a = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            b = "".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            assert levenshtein(a, b) == lev_ref(a, b)
            expected = 1.0 - lev_ref(a, b) / max(len(a), len(b))
            assert sim(NormalizedValue.from_text(a),
                       NormalizedValue.from_text(b)) == pytest.approx(expected)


class TestReferenceSimilarity:
    def test_exact_match_only(self):
        a = NormalizedValue.from_reference("http://example.org/a")
        b = NormalizedValue.from_reference("http://example.org/b")
        assert sim(a, a) == 1.0
        assert sim(a, b) == 0.0


def random_value(rng):
    pick = rng.randrange(4)
    if pick == 0:
        return NormalizedValue.from_number(repr(rng.uniform(-50, 50)))
    if pick == 1:
        month = rng.choice([None, rng.randint(1, 12)])
        day = None if month is None else rng.choice([None, rng.randint(1, 28)])
        return NormalizedValue.from_date(rng.randint(1800, 2100), month, day)
    if pick == 2:
        return NormalizedValue.from_text(
            "".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 9))))
    return NormalizedValue.from_reference(
        f"http://example.org/{rng.randrange(40)}")


class TestSimilarityProperties:
    def test_symmetry_range_and_identity(self):
        rng = random.Random(5150)
        for _ in range(400):
            a, b = random_value(rng), random_value(rng)
            s = sim(a, b)
            assert 0.0 <= s <= 1.0
            assert s == sim(b, a)
            assert sim(a, a) == 1.0

    def test_cross_kind_is_zero(self):
        rng = random.Random(6121)
        for _ in range(200):
            a, b = random_value(rng), random_value(rng)
            if a.kind != b.kind:
                assert sim(a, b) == 0.0


values = st.one_of(
    st.builds(lambda coef, exp: NormalizedValue.from_number(f"{coef}E{exp}"),
              st.integers(-10**20, 10**20), st.integers(-1000, 1000)),
    st.builds(NormalizedValue.from_date, st.integers(0, 9999),
              st.none() | st.integers(1, 12), st.none())
    | st.builds(NormalizedValue.from_date, st.integers(0, 9999),
                st.integers(1, 12), st.integers(1, 28)),
    st.builds(NormalizedValue.from_text, st.text(max_size=12)),
    st.builds(NormalizedValue.from_reference,
              st.text(max_size=6).map(lambda t: "http://example.org/" + t)),
)


class TestSimilarityHypothesis:
    @given(values, values)
    def test_symmetric_and_in_unit_range(self, a, b):
        s = sim(a, b)
        assert 0.0 <= s <= 1.0
        assert s == sim(b, a)

    @given(values)
    def test_self_similarity_is_one(self, a):
        assert sim(a, a) == 1.0
