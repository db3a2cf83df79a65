"""Normalized object values.

Every claim object is reduced to one of four kinds before any comparison
happens: numbers, calendar dates with optional wildcard components, free
text, and references to other resources.  A value is its kind and one
payload: a ``Decimal``, a ``(year, month, day)`` tuple or a string.
Normalization is what lets the same fact spelled four different ways
collapse into one candidate, so the rules here are deliberately
conservative: if a lexical form does not match a known shape it stays
text rather than being guessed at.
"""

from __future__ import annotations

import re
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                     InvalidOperation)
from typing import NamedTuple

KIND_NUMBER = "number"
KIND_DATE = "date"
KIND_TEXT = "text"
KIND_REFERENCE = "reference"

_KIND_RANK = {KIND_NUMBER: 0, KIND_DATE: 1, KIND_TEXT: 2, KIND_REFERENCE: 3}
_PAYLOAD_TYPE = {KIND_NUMBER: Decimal, KIND_DATE: tuple, KIND_TEXT: str,
                 KIND_REFERENCE: str}

_XSD = "http://www.w3.org/2001/XMLSchema#"

NUMERIC_DATATYPES = frozenset(
    _XSD + name
    for name in (
        "integer", "decimal", "double", "float", "long", "int", "short",
        "byte", "nonNegativeInteger", "nonPositiveInteger",
        "positiveInteger", "negativeInteger", "unsignedLong", "unsignedInt",
        "unsignedShort", "unsignedByte",
    )
)

DATE_DATATYPES = frozenset(
    _XSD + name for name in ("date", "dateTime", "gYear", "gYearMonth")
)

MONTH_NAMES = ("january", "february", "march", "april", "may", "june", "july",
               "august", "september", "october", "november", "december")
_MONTHS = {key: i for i, name in enumerate(MONTH_NAMES, start=1)
           for key in (name, name[:3])} | {"sept": 9}

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# normalize() under the default context rounds to 28 digits and overflows
# past its exponent range; this one keeps every digit
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# numbers render in fixed point while their leading digit sits fewer than
# this many places from the point, in scientific notation beyond
_FIXED_DIGITS = 40

# (pattern, year group, month group, day group), tried in order; no day
# group leaves the day open.  Year is pinned to four digits everywhere so
# short numerics never get mistaken for dates.
_DATE_SHAPES = (
    (re.compile(r"^(\d{4})-(\d{1,2}|#)-(\d{1,2}|#)$"), 1, 2, 3),
    (re.compile(r"^(\d{4})-(\d{1,2})$"), 1, 2, None),
    (re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$"), 3, 1, 2),
    (re.compile(r"^(\d{1,2})\s+([A-Za-z]+)\s+(\d{4})$"), 3, 2, 1),
    (re.compile(r"^([A-Za-z]+)\s+(\d{4})$"), 2, 1, None),
)
# one pass that every shape is in: most texts are no date at all
_ANY_DATE_SHAPE = re.compile("|".join(p.pattern for p, *_ in _DATE_SHAPES))
# a date datatype only cuts a dateTime's time and a trailing timezone
# such as Z or +05:00 before the shapes above; gYear also takes a bare year
_TIMEZONE = re.compile(r"(Z|[+-]\d\d:\d\d)$")


class _ValueFields(NamedTuple):
    kind: str
    payload: Decimal | tuple | str


class NormalizedValue(_ValueFields):
    """One canonical claim object.

    The payload's type is the one ``kind`` names.  Date components use
    ``None`` as the wildcard; a concrete day is only allowed when the
    month is concrete too, and must exist in that month.  As a tuple it
    hashes and compares as ``(kind, payload)``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, row: cls(*row))  # so _replace checks

    def __new__(cls, kind: str, payload):
        # an unknown kind has no payload type; no number is NaN or infinite
        if not isinstance(payload, _PAYLOAD_TYPE.get(kind, ())) or (
                kind == KIND_NUMBER and not payload.is_finite()):
            raise ValueError(f"no {kind!r} value holds {payload!r}")
        if kind == KIND_DATE:
            # the same calendar rule the parsers apply
            if not isinstance(payload[0], int) or _checked(*payload) is None:
                raise ValueError(f"no such date: {payload}")
        return tuple.__new__(cls, (kind, payload))

    @classmethod
    def from_number(cls, value) -> "NormalizedValue":
        if isinstance(value, float):
            value = repr(value)
        return cls(KIND_NUMBER, Decimal(value))

    @classmethod
    def from_date(cls, year: int, month: int | None, day: int | None) -> "NormalizedValue":
        return cls(KIND_DATE, (year, month, day))

    @classmethod
    def from_text(cls, text: str) -> "NormalizedValue":
        return cls(KIND_TEXT, text)

    @classmethod
    def from_reference(cls, iri: str) -> "NormalizedValue":
        return cls(KIND_REFERENCE, iri)

    def render(self) -> str:
        """Canonical string form; injective within each kind."""
        if self.kind == KIND_NUMBER:
            return _canonical_decimal(self.payload)
        if self.kind == KIND_DATE:
            year, month, day = self.payload
            m = "#" if month is None else f"{month:02d}"
            d = "#" if day is None else f"{day:02d}"
            return f"{year:04d}-{m}-{d}"
        return self.payload

    def sort_key(self):
        """Total order: numbers, then dates, then text, then references.

        Within dates a wildcard component sorts before any concrete one.
        """
        rank = _KIND_RANK[self.kind]
        if self.kind == KIND_DATE:
            year, month, day = self.payload
            return (rank, year, -1 if month is None else month,
                    -1 if day is None else day)
        return (rank, self.payload)


def _canonical_decimal(dec: Decimal) -> str:
    if dec == 0:
        return "0"
    dec = dec.normalize(_EXACT)
    return format(dec, "f" if abs(dec.adjusted()) < _FIXED_DIGITS else "E")


def _parse_date_lexical(text: str) -> tuple[int, int | None, int | None] | None:
    if _ANY_DATE_SHAPE.match(text) is None:
        return None
    for pattern, *groups in _DATE_SHAPES:
        match = pattern.match(text)
        if match:
            return _checked(*(None if g is None else _component(match[g])
                              for g in groups))
    return None


def _component(text: str) -> int | None:
    """A digit group's number, ``None`` for ``#``, or a month name's
    number (0, which no calendar rule accepts, for an unknown name)."""
    if text == "#":
        return None
    return int(text) if text.isdecimal() else _MONTHS.get(text.lower(), 0)


def _checked(year, month, day):
    if month is not None and not 1 <= month <= 12:
        return None
    if day is not None:
        if month is None:
            return None
        # the proleptic Gregorian rule, year 0 included
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        if not 1 <= day <= _DAYS_IN_MONTH[month - 1] + (month == 2 and leap):
            return None
    return (year, month, day)


def normalize_object(lexical: str, datatype: str | None = None,
                     *, is_iri: bool = False) -> NormalizedValue | None:
    """Map one raw object term to its canonical value.

    Returns ``None`` for empty and NULL-marker literals, which callers
    treat as the absence of a claim.  Resolution order: reference for IRI
    objects, declared numeric datatype, recognised date shapes (under a
    declared date datatype first with its cuts, see ``_TIMEZONE``), free
    text otherwise.  A failed typed parse falls through to the later
    rules instead of erroring.
    """
    if is_iri:
        return NormalizedValue.from_reference(lexical)
    stripped = lexical.strip()
    if not stripped or stripped.upper() == "NULL":
        return None
    if datatype in NUMERIC_DATATYPES:
        try:
            dec = Decimal(stripped)
            # past the default context's exponent range the plain rendering
            # spells out a digit per unit of exponent, gigabytes for one line
            if dec.is_finite() and abs(dec.adjusted()) < 10**6:
                return NormalizedValue(KIND_NUMBER, dec)
        except InvalidOperation:
            pass
    parts = None
    if datatype in DATE_DATATYPES:
        body = stripped.split("T", 1)[0] if datatype == _XSD + "dateTime" \
            else stripped
        body = _TIMEZONE.sub("", body)
        year = datatype == _XSD + "gYear" and len(body) == 4 and body.isdecimal()
        parts = (int(body), None, None) if year else _parse_date_lexical(body)
    # a cut may have broken a date shape that the whole form has
    parts = parts or _parse_date_lexical(stripped)
    if parts is not None:
        return NormalizedValue(KIND_DATE, parts)
    return NormalizedValue(KIND_TEXT, " ".join(stripped.split()))
