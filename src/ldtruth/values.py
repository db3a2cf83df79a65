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
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal,
                     InvalidOperation)

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

_MONTHS = {}
for _i, _name in enumerate(
    ("january", "february", "march", "april", "may", "june", "july",
     "august", "september", "october", "november", "december"),
    start=1,
):
    _MONTHS[_name] = _i
    _MONTHS[_name[:3]] = _i
_MONTHS["sept"] = 9

_DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# normalize() under the default context rounds to 28 digits and overflows
# past its exponent range; this one keeps every digit
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# numbers render in fixed point while their leading digit sits fewer than
# this many places from the point, in scientific notation beyond
_FIXED_DIGITS = 40

# Year is pinned to four digits everywhere so short numerics never get
# mistaken for dates.
_ISO_YMD = re.compile(r"^(\d{4})-(\d{1,2}|#)-(\d{1,2}|#)$")
_ISO_YM = re.compile(r"^(\d{4})-(\d{1,2})$")
_SLASH_MDY = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
_DAY_NAME_YEAR = re.compile(r"^(\d{1,2})\s+([A-Za-z]+)\s+(\d{4})$")
_NAME_YEAR = re.compile(r"^([A-Za-z]+)\s+(\d{4})$")


@dataclass(frozen=True)
class NormalizedValue:
    """One canonical claim object.

    The payload's type is the one ``kind`` names.  Date components use
    ``None`` as the wildcard; a concrete day is only allowed when the
    month is concrete too, and must exist in that month.
    """

    kind: str
    payload: Decimal | tuple | str

    def __post_init__(self):
        # an unknown kind has no payload type, so nothing passes
        if not isinstance(self.payload, _PAYLOAD_TYPE.get(self.kind, ())):
            raise ValueError(f"no {self.kind!r} value holds {self.payload!r}")
        if self.kind == KIND_DATE:
            # the same calendar rule the parsers apply
            if not isinstance(self.payload[0], int) or _checked(*self.payload) is None:
                raise ValueError(f"no such date: {self.payload}")

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

    def __str__(self):
        return self.render()


def _canonical_decimal(dec: Decimal) -> str:
    if dec == 0:
        return "0"
    dec = dec.normalize(_EXACT)
    return format(dec, "f" if abs(dec.adjusted()) < _FIXED_DIGITS else "E")


def _parse_date_lexical(text: str) -> tuple[int, int | None, int | None] | None:
    match = _ISO_YMD.match(text)
    if match:
        year = int(match.group(1))
        month = None if match.group(2) == "#" else int(match.group(2))
        day = None if match.group(3) == "#" else int(match.group(3))
        return _checked(year, month, day)
    match = _ISO_YM.match(text)
    if match:
        return _checked(int(match.group(1)), int(match.group(2)), None)
    match = _SLASH_MDY.match(text)
    if match:
        return _checked(int(match.group(3)), int(match.group(1)), int(match.group(2)))
    match = _DAY_NAME_YEAR.match(text)
    if match:
        month = _MONTHS.get(match.group(2).lower())
        if month is None:
            return None
        return _checked(int(match.group(3)), month, int(match.group(1)))
    match = _NAME_YEAR.match(text)
    if match:
        month = _MONTHS.get(match.group(1).lower())
        if month is None:
            return None
        return _checked(int(match.group(2)), month, None)
    return None


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


def _parse_typed_date(lexical: str, datatype: str):
    body = lexical.strip()
    if datatype == _XSD + "dateTime":
        body = body.split("T", 1)[0]
    # trailing timezone on date forms: 1886-10-28Z or 1886-10-28+05:00
    body = re.sub(r"(Z|[+-]\d\d:\d\d)$", "", body)
    if datatype == _XSD + "gYear":
        if re.fullmatch(r"\d{4}", body):
            return (int(body), None, None)
        return None
    if datatype == _XSD + "gYearMonth":
        match = re.fullmatch(r"(\d{4})-(\d{2})", body)
        if match:
            return _checked(int(match.group(1)), int(match.group(2)), None)
        return None
    match = re.fullmatch(r"(\d{4})-(\d{2})-(\d{2})", body)
    if match:
        return _checked(int(match.group(1)), int(match.group(2)), int(match.group(3)))
    return None


def normalize_object(lexical: str, datatype: str | None = None,
                     *, is_iri: bool = False) -> NormalizedValue | None:
    """Map one raw object term to its canonical value.

    Returns ``None`` for empty and NULL-marker literals, which callers
    treat as the absence of a claim.  Resolution order: declared numeric
    datatype, declared date datatype, recognised date shapes, reference
    for IRI objects, free text otherwise.  A failed typed parse falls
    through to the later rules instead of erroring.
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
    if datatype in DATE_DATATYPES:
        parts = _parse_typed_date(stripped, datatype)
        if parts is not None:
            return NormalizedValue(KIND_DATE, parts)
    parts = _parse_date_lexical(stripped)
    if parts is not None:
        return NormalizedValue(KIND_DATE, parts)
    return NormalizedValue.from_text(" ".join(stripped.split()))
