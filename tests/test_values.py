"""Canonical value normalization tests."""

import calendar
import random
import re
import types
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldtruth.eval_harness import _literal_for
from ldtruth.values import (
    KIND_DATE,
    KIND_NUMBER,
    KIND_REFERENCE,
    KIND_TEXT,
    NormalizedValue,
    _parse_date_lexical,
    normalize_object,
)
from oracles import parse_date_ref

XSD = "http://www.w3.org/2001/XMLSchema#"


class TestNumbers:
    def test_typed_integer(self):
        value = normalize_object("93", XSD + "integer")
        assert value.kind == KIND_NUMBER
        assert value.payload == Decimal("93")
        assert value.render() == "93"

    def test_typed_decimal(self):
        value = normalize_object("46.0248", XSD + "decimal")
        assert value.payload == Decimal("46.0248")
        assert value.render() == "46.0248"

    def test_untyped_numeral_stays_text(self):
        # without a numeric datatype nothing is guessed
        value = normalize_object("93")
        assert value.kind == KIND_TEXT
        assert value.payload == "93"

    def test_exponent_renders_plain(self):
        value = normalize_object("1e3", XSD + "double")
        assert value.kind == KIND_NUMBER
        assert value.render() == "1000"

    def test_trailing_zeros_collapse(self):
        a = normalize_object("0.5000", XSD + "decimal")
        b = normalize_object("0.5", XSD + "decimal")
        assert a == b
        assert a.render() == "0.5"

    def test_negative_zero_renders_zero(self):
        value = normalize_object("-0", XSD + "integer")
        assert value.render() == "0"
        assert value == normalize_object("0", XSD + "integer")

    def test_non_numeric_lexical_falls_through(self):
        value = normalize_object("tall", XSD + "integer")
        assert value.kind == KIND_TEXT

    def test_nan_rejected(self):
        value = normalize_object("NaN", XSD + "double")
        assert value.kind == KIND_TEXT

    @pytest.mark.parametrize("lexical", [
        "1e1000000", "1e2000000000", "-2.5e-1000000", "1e-2000000000",
        "0e2000000000",
    ])
    def test_exponent_beyond_default_range_stays_text(self, lexical):
        # a plain rendering would need one digit per unit of exponent
        value = normalize_object(lexical, XSD + "decimal")
        assert value.kind == KIND_TEXT
        assert value.render() == lexical

    def test_exponent_at_range_edge_renders(self):
        value = normalize_object("1e999999", XSD + "decimal")
        assert value.kind == KIND_NUMBER
        assert value.render() == "1E+999999"

    @pytest.mark.parametrize("lexical, rendered", [
        ("1e39", "1" + "0" * 39), ("1e40", "1E+40"),
        ("-2.5e-39", "-0." + "0" * 38 + "25"), ("-2.5e-40", "-2.5E-40"),
        ("1234.5e60", "1.2345E+63"),
    ])
    def test_scientific_past_forty_digits(self, lexical, rendered):
        assert normalize_object(lexical, XSD + "decimal").render() == rendered


class TestDates:
    @pytest.mark.parametrize("lexical", [
        "1886-10-28", "10/28/1886", "28 October 1886", "28 Oct 1886",
    ])
    def test_full_date_forms_unify(self, lexical):
        value = normalize_object(lexical)
        assert value.kind == KIND_DATE
        assert value.payload == (1886, 10, 28)
        assert value.render() == "1886-10-28"

    def test_wildcard_form(self):
        value = normalize_object("1886-#-#")
        assert value.payload == (1886, None, None)
        assert value.render() == "1886-#-#"

    def test_year_month(self):
        assert normalize_object("1886-10").payload == (1886, 10, None)
        assert normalize_object("October 1886").payload == (1886, 10, None)
        assert normalize_object("1886-10").render() == "1886-10-#"

    @pytest.mark.parametrize("month", range(1, 13))
    def test_every_month_name_as_the_generator_writes_it(self, month):
        # randrange(3) == 2 picks the generator's spelled-out form
        spelled = types.SimpleNamespace(randrange=lambda n: 2)
        literal = _literal_for(spelled, NormalizedValue.from_date(
            1886, month, 28))
        assert re.fullmatch(r'"28 [A-Z][a-z]+ 1886"', literal)
        value = normalize_object(literal.strip('"'))
        assert value.payload == (1886, month, 28)

    def test_sept_abbreviation(self):
        assert normalize_object("Sept 1944").payload == (1944, 9, None)

    def test_concrete_day_needs_concrete_month(self):
        # the shape is recognizable but the combination is not a date
        value = normalize_object("1886-#-28")
        assert value.kind == KIND_TEXT

    def test_out_of_range_components_fall_through(self):
        assert normalize_object("1886-13-05").kind == KIND_TEXT
        assert normalize_object("32 October 1886").kind == KIND_TEXT

    @pytest.mark.parametrize("lexical, is_date", [
        ("2020-02-31", False),
        ("2019-02-29", False),
        ("04/31/2020", False),
        ("31 April 2020", False),
        ("1900-02-29", False),
        ("2020-02-29", True),
        ("2000-02-29", True),
        ("0000-02-29", True),
        ("2020-04-30", True),
        ("12/31/2020", True),
    ])
    def test_day_checked_against_month_length(self, lexical, is_date):
        assert (normalize_object(lexical).kind == KIND_DATE) == is_date
        typed = normalize_object(lexical, XSD + "date")
        assert (typed.kind == KIND_DATE) == is_date

    def test_two_digit_year_is_not_a_date(self):
        assert normalize_object("86-10-28").kind == KIND_TEXT

    def test_unknown_month_name(self):
        assert normalize_object("28 Octember 1886").kind == KIND_TEXT

    def test_typed_date(self):
        value = normalize_object("1886-10-28", XSD + "date")
        assert value.payload == (1886, 10, 28)

    def test_typed_datetime_keeps_date_part(self):
        value = normalize_object("1886-10-28T14:30:00Z", XSD + "dateTime")
        assert value.payload == (1886, 10, 28)

    def test_typed_gyear(self):
        value = normalize_object("1886", XSD + "gYear")
        assert value.payload == (1886, None, None)

    def test_typed_gyearmonth(self):
        value = normalize_object("1886-10", XSD + "gYearMonth")
        assert value.payload == (1886, 10, None)

    def test_typed_date_with_timezone(self):
        value = normalize_object("1886-10-28+05:00", XSD + "date")
        assert value.payload == (1886, 10, 28)

    @pytest.mark.parametrize("lexical, datatype, payload", [
        # cut, then read by the untyped date shapes
        ("1886-10Z", "date", (1886, 10, None)),
        ("10/28/1886Z", "date", (1886, 10, 28)),
        ("28 October 1886-03:00", "date", (1886, 10, 28)),
        ("1886-#-#+05:00", "gYearMonth", (1886, None, None)),
        ("1886-10-28Z", "gYear", (1886, 10, 28)),
        ("1886-10T14:30:00Z", "dateTime", (1886, 10, None)),
        # a bare year is read only under gYear
        ("1886Z", "gYear", (1886, None, None)),
        ("1886", "gYear", (1886, None, None)),
        # a cut that breaks the shape falls back to the whole form
        ("28 OCTOBER 1886", "dateTime", (1886, 10, 28)),
    ])
    def test_typed_cut_then_date_shapes(self, lexical, datatype, payload):
        value = normalize_object(lexical, XSD + datatype)
        assert (value.kind, value.payload) == (KIND_DATE, payload)

    @pytest.mark.parametrize("lexical, datatype", [
        ("1886", "date"), ("1886", "dateTime"), ("1886-13Z", "gYearMonth"),
        ("  1886-02-30Z ", "date"), ("1886-10-28T09:00:00", "date"),
        ("1886-10-28T09:00:00", "gYear"),
    ])
    def test_typed_text_comes_from_the_uncut_form(self, lexical, datatype):
        value = normalize_object(lexical, XSD + datatype)
        assert (value.kind, value.payload) == (KIND_TEXT, lexical.strip())


# date-like text: every shape, its parts drawn from ASCII digits, digits
# that \d also matches (Arabic-Indic, fullwidth, Devanagari), wildcards,
# month names and stray words, joined by mixed whitespace, with text
# before or after that may break the shape
DATE_TEMPLATES = ("{y}-{m}-{d}", "{y}-{m}", "{m}/{d}/{y}", "{d}{w}{n}{w}{y}",
                  "{n}{w}{y}", "{y}{w}{m}")
YEARS = ("1886", "2024", "0000", "188", "\u0661\u0668\u0668\u0666",
         "\uff11\uff18\uff18\uff16", "\u0967\u096e\u096e\u096c")
PARTS = ("10", "2", "02", "31", "29", "13", "0", "123", "#",
         "\u0661\u0660", "\uff12", "\u0968\u0966")
NAMES = ("October", "OCT", "sept", "Feb", "Mayo", "x")
SPACES = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", " \t", "")
EDGES = ("", "", " ", "\n", "x", "-")


@st.composite
def date_like(draw):
    pick = lambda options: draw(st.sampled_from(options))   # noqa: E731
    text = pick(DATE_TEMPLATES).format(y=pick(YEARS), m=pick(PARTS),
                                       d=pick(PARTS), n=pick(NAMES),
                                       w=pick(SPACES))
    return pick(EDGES) + text + pick(EDGES)


class TestDateScreen:
    @settings(max_examples=400, deadline=None)
    @given(date_like() | st.text(st.sampled_from(
        "0123456789#-/ \t\n\u0663\uff15aZ"), max_size=12))
    def test_screen_keeps_every_shape_result(self, text):
        # the one-pattern screen turns away only texts no shape matches
        assert _parse_date_lexical(text) == parse_date_ref(text)


class TestTextAndReferences:
    def test_whitespace_collapses(self):
        value = normalize_object("  New   York\tHarbor ")
        assert value.payload == "New York Harbor"

    def test_iri_objects_become_references(self):
        value = normalize_object("http://example.org/a", is_iri=True)
        assert value.kind == KIND_REFERENCE
        assert value.payload == "http://example.org/a"

    @pytest.mark.parametrize("lexical", ["", "   ", "NULL", "null", "Null"])
    def test_null_markers_yield_nothing(self, lexical):
        assert normalize_object(lexical) is None


class TestValueInvariants:
    def test_exactly_one_payload(self):
        # one payload of the type its kind names, and a known kind
        for kind, payload in [
                (KIND_NUMBER, "1"), (KIND_NUMBER, 1), (KIND_NUMBER, None),
                (KIND_DATE, "1886-10-28"), (KIND_DATE, None),
                (KIND_DATE, ("1886", 10, None)),
                (KIND_TEXT, Decimal(1)), (KIND_TEXT, None),
                (KIND_REFERENCE, ("http://example.org/a",)),
                ("boolean", "true")]:
            with pytest.raises(ValueError):
                NormalizedValue(kind, payload)

    @pytest.mark.parametrize("number", [
        float("nan"), float("inf"), float("-inf"), "NaN", "sNaN",
        "-Infinity", Decimal("NaN")])
    def test_number_is_finite(self, number):
        # a NaN or infinite number would build, then raise in sim, in
        # sort_key's comparisons or (sNaN) in render
        with pytest.raises(ValueError, match="no 'number' value holds"):
            NormalizedValue.from_number(number)
        assert NormalizedValue.from_number(1e308).render() == "1E+308"

    def test_wildcard_month_with_day_rejected(self):
        with pytest.raises(ValueError):
            NormalizedValue.from_date(1886, None, 28)

    def test_month_range_checked(self):
        with pytest.raises(ValueError):
            NormalizedValue.from_date(1886, 13, 1)

    @pytest.mark.parametrize("day", [0, 29, 30])
    def test_day_checked_against_month_length(self, day):
        with pytest.raises(ValueError):
            NormalizedValue.from_date(2019, 2, day)
        assert NormalizedValue.from_date(2019, 3, 30).payload == (2019, 3, 30)

    def test_kind_order(self):
        number = NormalizedValue.from_number("5")
        date = NormalizedValue.from_date(1886, 10, 28)
        text = NormalizedValue.from_text("abc")
        ref = NormalizedValue.from_reference("http://example.org/a")
        keys = [v.sort_key() for v in (number, date, text, ref)]
        assert keys == sorted(keys)

    def test_wildcards_sort_before_concrete(self):
        partial = NormalizedValue.from_date(1886, None, None)
        full = NormalizedValue.from_date(1886, 1, 1)
        assert partial.sort_key() < full.sort_key()

    def test_render_round_trip_is_injective(self):
        rng = random.Random(4821)
        seen = {}
        for _ in range(300):
            pick = rng.randrange(3)
            if pick == 0:
                value = NormalizedValue.from_number(
                    Decimal(rng.randint(-10**6, 10**6)) / (10 ** rng.randrange(4)))
            elif pick == 1:
                month = rng.choice([None, rng.randint(1, 12)])
                day = None if month is None else rng.choice(
                    [None, rng.randint(1, 28)])
                value = NormalizedValue.from_date(rng.randint(1500, 2100),
                                                  month, day)
            else:
                value = NormalizedValue.from_text(
                    "".join(rng.choice("abcdef ") for _ in range(8)).strip() or "x")
            rendered = (value.kind, value.render())
            if rendered in seen:
                assert seen[rendered] == value
            seen[rendered] = value

    def test_date_render_reparses(self):
        rng = random.Random(977)
        for _ in range(200):
            month = rng.choice([None, rng.randint(1, 12)])
            day = None if month is None else rng.choice([None, rng.randint(1, 28)])
            value = NormalizedValue.from_date(rng.randint(1000, 2999), month, day)
            assert normalize_object(value.render()) == value


# decimals with up to 40 significant digits and exponents up to +-1000,
# built from text so no context precision rounds them
decimals = st.builds(lambda coef, exp: Decimal(f"{coef}E{exp}"),
                     st.integers(-10**40, 10**40), st.integers(-1000, 1000))


@st.composite
def dates(draw):
    year = draw(st.integers(0, 9999))
    month = draw(st.none() | st.integers(1, 12))
    if month is None:
        return NormalizedValue.from_date(year, None, None)
    days = (31, 29 if calendar.isleap(year) else 28, 31, 30, 31, 30, 31, 31,
            30, 31, 30, 31)[month - 1]
    return NormalizedValue.from_date(year, month,
                                     draw(st.none() | st.integers(1, days)))


class TestRoundTripProperties:
    @given(decimals)
    def test_number_render_reparses(self, number):
        value = NormalizedValue.from_number(number)
        assert normalize_object(value.render(), XSD + "decimal") == value

    @given(st.integers(-10**40, 10**40),
           st.integers(-10**6 + 50, 10**6 - 50))
    def test_wide_exponents_render_short_and_reparse(self, coef, exp):
        value = normalize_object(f"{coef}E{exp}", XSD + "decimal")
        assert value.kind == KIND_NUMBER
        rendered = value.render()
        assert len(rendered) <= len(str(abs(coef))) + 50
        assert normalize_object(rendered, XSD + "decimal") == value

    @given(dates())
    def test_date_render_reparses(self, value):
        assert normalize_object(value.render()) == value
