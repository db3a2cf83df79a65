"""Reading claim corpora from N-Triples and N-Quads files.

The parser is hand rolled: one statement per line, and Python's
universal newlines end each line.  A plain line is matched whole by one
compiled pattern; any other line is scanned term by term.  Literals
decode character escapes and ``\\u`` and ``\\U`` escapes, IRIs only the
last two.  It covers the slice of the grammar these corpora use.  Blank
nodes are recognised but statements using them are set aside with a
diagnostic, since every downstream structure keys on absolute IRIs.
"""

from __future__ import annotations

import functools
import io
import re
import sys
from collections import Counter
from typing import NamedTuple
from urllib.parse import urlsplit

from .public_suffix import pay_level_domain
from .values import NormalizedValue, normalize_object

OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"

POLICY_HOST = "host"
POLICY_PLD = "pld"
POLICY_NAMED_GRAPH = "graph"
POLICIES = (POLICY_HOST, POLICY_PLD, POLICY_NAMED_GRAPH)

FORMAT_NTRIPLES = "ntriples"
FORMAT_NQUADS = "nquads"
FORMATS = (FORMAT_NTRIPLES, FORMAT_NQUADS)


class MalformedLineError(ValueError):
    """Raised for an unparseable line in strict mode, or in any mode
    when there is no diagnostics list to record it in."""

    def __init__(self, line: int, reason: str, path: str | None = None):
        where = f"{path}:{line}" if path else f"line {line}:"
        super().__init__(f"{where} {reason}")
        self.line = line
        self.reason = reason


class EncodingError(MalformedLineError):
    """Raised, as a malformed line is, for a line that is not valid UTF-8."""


class RdfStatement(NamedTuple):
    """One statement; ``object`` is an IRI, or a literal's lexical form
    when ``is_literal``."""

    subject: str
    predicate: str
    object: str
    is_literal: bool = False
    datatype: str | None = None
    lang: str | None = None
    graph: str | None = None


class Diagnostic(NamedTuple):
    line: int
    category: str
    reason: str


class ObjectSupport(NamedTuple):
    value: NormalizedValue
    sources: tuple      # the supporting sources, sorted


class _ConflictSetFields(NamedTuple):
    entity: str
    predicate: str
    objects: tuple


class ConflictSet(_ConflictSetFields):
    """All mutually exclusive candidates for one (entity, predicate) slot."""

    __slots__ = ()
    _make = classmethod(lambda cls, row: cls(*row))  # so _replace checks

    def __new__(cls, entity: str, predicate: str, objects: tuple):
        if len(objects) < 2:
            raise ValueError("a conflict set needs at least two candidates")
        return tuple.__new__(cls, (entity, predicate, objects))


class ClaimStore(NamedTuple):
    """(entity, predicate, value, source) claims in first-seen order, the
    conflict sets by sorted key, and ``incidence``: every claim source,
    sorted, to the ascending (key, candidate slot) pairs it backs."""

    claims: list
    conflict_sets: dict
    incidence: dict
    drop_counts: dict


_IRI_NOT = r'<>"{}|^`\\\x00-\x20'  # what no IRI holds written out
_IRI_CHAR = f"[^{_IRI_NOT}]"
_SCHEME = "[A-Za-z][A-Za-z0-9+.-]*:"  # how an absolute IRI opens (RFC 3987)
_IRI_BODY = f"{_SCHEME}{_IRI_CHAR}*"
_IRI_CHAR_RE = re.compile(_IRI_CHAR)
_SCHEME_RE = re.compile(_SCHEME)
# an IRI may also write any character as \uXXXX or \UXXXXXXXX
_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_IRI_RE = re.compile(r"<(%s*(?:%s%s*)*)>" % (_IRI_CHAR, _UCHAR, _IRI_CHAR))
_BNODE_RE = re.compile(r"_:[A-Za-z0-9][A-Za-z0-9._-]*")
_LITERAL_RE = re.compile(r'"((?:[^"\\\n\r]|\\.)*)"')
_LANG_RE = re.compile(r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)")
_WS_RE = re.compile(r"[ \t]*")

# The plain line: single spaces, no escapes, no blank nodes, nothing
# after the dot.  Groups: subject, predicate, the object IRI or the
# literal's lexical form, datatype and language tag, the graph.
_PLAIN_LINE_RE = re.compile(
    rf'<({_IRI_BODY})> <({_IRI_BODY})> (?:<({_IRI_BODY})>|"([^"\\\n\r]*)"'
    rf'(?:\^\^<({_IRI_BODY})>|{_LANG_RE.pattern})?)(?: <({_IRI_BODY})>)? \.')
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")  # surrogateescape's bytes

_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}
# a matched literal pairs every backslash with the character after it
_ESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")


def _unescape(raw: str, line: int, iri: bool = False) -> str:
    if "\\" not in raw:
        return raw

    def decode(match):
        key = match.group(1)
        if key in _ESCAPES:
            return _ESCAPES[key]
        if key in ("u", "U"):
            raise MalformedLineError(line, f"bad \\{key} escape")
        if len(key) == 1:
            raise MalformedLineError(line, f"unknown escape \\{key}")
        code = int(key[1:], 16)
        # only Unicode scalar values: no surrogates, nothing past U+10FFFF
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise MalformedLineError(line, f"bad \\{key[0]} escape")
        char = chr(code)
        # an IRI may not escape a character it could not hold written out
        if iri and not _IRI_CHAR_RE.fullmatch(char):
            raise MalformedLineError(line, "bad IRI escape")
        return char

    return _ESCAPE_RE.sub(decode, raw)


def _iri(raw: str, line: int) -> str:
    """The text of an IRI term, which must be absolute once unescaped."""
    iri = _unescape(raw, line, iri=True)
    if not _SCHEME_RE.match(iri):
        raise MalformedLineError(line, "relative IRI")
    return iri


def _skip_ws(text: str, pos: int) -> int:
    return _WS_RE.match(text, pos).end()


def _parse_term(text: str, pos: int, line: int, *, allow_literal: bool):
    """Returns ((text, is_literal, datatype, lang), end position), with
    None in place of the parts for a blank node."""
    if pos >= len(text):
        raise MalformedLineError(line, "unexpected end of line")
    ch = text[pos]
    if ch == "<":
        match = _IRI_RE.match(text, pos)
        if not match:
            raise MalformedLineError(line, "unterminated or invalid IRI")
        return (_iri(match.group(1), line), False, None, None), match.end()
    if ch == "_":
        match = _BNODE_RE.match(text, pos)
        if not match:
            raise MalformedLineError(line, "invalid blank node label")
        return None, match.end()
    if ch == '"' and allow_literal:
        match = _LITERAL_RE.match(text, pos)
        if not match:
            raise MalformedLineError(line, "unterminated literal")
        lexical = _unescape(match.group(1), line)
        end = match.end()
        datatype = lang = None
        if text.startswith("^^", end):
            dt_match = _IRI_RE.match(text, end + 2)
            if not dt_match:
                raise MalformedLineError(line, "bad datatype IRI")
            datatype = _iri(dt_match.group(1), line)
            end = dt_match.end()
        elif text.startswith("@", end):
            lang_match = _LANG_RE.match(text, end)
            if not lang_match:
                raise MalformedLineError(line, "bad language tag")
            lang = lang_match.group(1)
            end = lang_match.end()
        return (lexical, True, datatype, lang), end
    raise MalformedLineError(line, f"unexpected character {ch!r}")


def _parse_plain(text: str, fmt: str):
    """The statement of a plain line, or None to defer to ``_parse_line``:
    one pattern match instead of the term-by-term scan."""
    match = _PLAIN_LINE_RE.fullmatch(text)
    if match is None:
        return None
    subject, predicate, iri, lexical, datatype, lang, graph = match.groups()
    if graph is not None and fmt != FORMAT_NQUADS:
        return None
    # statements share one copy of each predicate and graph, which nearly
    # every line repeats; subjects repeat too seldom to pay for the lookup
    return tuple.__new__(RdfStatement, (
        subject, sys.intern(predicate), lexical if iri is None else iri,
        iri is None, datatype, lang, graph and sys.intern(graph)))


def _parse_line(text: str, lineno: int, fmt: str):
    """One statement, None for blank and comment lines, or "bnode"."""
    pos = _skip_ws(text, 0)
    if pos >= len(text) or text[pos] == "#":
        return None
    subject, pos = _parse_term(text, pos, lineno, allow_literal=False)
    pos = _skip_ws(text, pos)
    predicate, pos = _parse_term(text, pos, lineno, allow_literal=False)
    pos = _skip_ws(text, pos)
    obj, pos = _parse_term(text, pos, lineno, allow_literal=True)
    pos = _skip_ws(text, pos)
    graph = (None,)     # the parts of an absent graph term
    if pos < len(text) and text[pos] not in ".":
        if fmt != FORMAT_NQUADS:
            raise MalformedLineError(lineno, "unexpected fourth term")
        graph, pos = _parse_term(text, pos, lineno, allow_literal=False)
        pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != ".":
        raise MalformedLineError(lineno, "missing terminating dot")
    pos = _skip_ws(text, pos + 1)
    if pos < len(text) and text[pos] != "#":
        raise MalformedLineError(lineno, "trailing garbage after dot")
    if None in (subject, predicate, obj, graph):
        return "bnode"
    return RdfStatement(subject[0], sys.intern(predicate[0]), *obj,
                        graph[0] and sys.intern(graph[0]))


def _set_aside(diagnostics, error, category: str, fatal: bool):
    """Record a set-aside line, or raise ``error`` if fatal or unrecorded."""
    if fatal or diagnostics is None:
        raise error
    diagnostics.append(Diagnostic(error.line, category, error.reason))


def parse_triples(source, fmt: str = FORMAT_NTRIPLES, mode: str = "lenient",
                  diagnostics: list | None = None):
    """Statements, lazily, from a string, a binary stream, or text lines.

    A string or a binary stream (UTF-8, left open) is read with universal
    newlines: CR, LF and CRLF each end a line; text lines keep their own
    line ends.  A byte order mark opening the input is dropped.  A line
    that is malformed, undecodable (holds U+DC80 to U+DCFF, which stand
    for bytes that are not UTF-8) or uses a blank node is set aside:
    recorded in ``diagnostics`` while parsing goes on.  ``mode="strict"``
    raises on a malformed or undecodable line instead, and without a
    ``diagnostics`` list every set-aside line raises, as does, in every
    mode, a text stream's own decoding error, as an ``EncodingError``.
    Line numbers are 1-based positions in the input; a statement has none.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    if mode not in ("lenient", "strict"):
        raise ValueError(f"unknown mode: {mode!r}")
    return _statements(source, fmt, mode == "strict", diagnostics)


def _statements(source, fmt: str, strict: bool, diagnostics):
    """``parse_triples`` over the text lines of ``source``."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    binary = isinstance(source, (io.BufferedIOBase, io.RawIOBase))
    lines = io.TextIOWrapper(source, "utf-8", "surrogateescape",
                             newline=None) if binary else source
    lineno = 0
    try:
        for lineno, text in enumerate(lines, 1):
            if not text.isascii() and _ESCAPED_BYTE_RE.search(text):
                try:    # the error that decoding the line's bytes raises
                    text.encode("utf-8", "surrogateescape").decode("utf-8")
                    text.encode("utf-8")    # a string may spell out UTF-8
                except UnicodeError as exc:
                    _set_aside(diagnostics, EncodingError(lineno, str(exc)),
                               "encoding", strict)
                continue
            text = text.rstrip("\r\n")
            parsed = _parse_plain(text, fmt)
            if parsed is None:
                if lineno == 1:
                    text = text.removeprefix("\ufeff")
                try:
                    parsed = _parse_line(text, lineno, fmt)
                except MalformedLineError as exc:
                    _set_aside(diagnostics, exc, "malformed", strict)
                    continue
                if parsed == "bnode":
                    _set_aside(diagnostics, MalformedLineError(
                        lineno, "blank node outside supported subset"),
                        "blank_node", False)
                    continue
            if parsed is not None:
                yield parsed
    except UnicodeDecodeError as exc:   # a text stream's own decoder: fatal
        # it decodes a block at a time, from within the line being read
        head = exc.object[:exc.start] + b"."
        raise EncodingError(lineno + len(head.splitlines()), str(exc)) from None
    finally:   # a wrapper that is collected closes the stream it wraps
        if binary and not source.closed:
            lines.detach()


# ``scheme://authority``, ending where urlsplit ends the authority.  An
# IRI with whitespace or a control character there, which urlsplit
# strips or deletes, does not match and goes to urlsplit whole, so the
# cache only sees authorities that urlsplit reads as written.
_AUTHORITY_RE = re.compile(_SCHEME + r"//[^/?#\x00-\x20]*(?![^/?#])")


def _host_source(iri: str, policy: str):
    """The source of ``iri``'s host under ``policy``, None without a host,
    as where urlsplit rejects the IRI.  Each cache miss checks ``policy``."""
    if policy not in POLICIES:
        raise ValueError(f"unknown source policy: {policy!r}")
    # a trailing dot only marks the name as absolute (RFC 1034 section
    # 3.1), so "a.org." is "a.org" and "." is no host
    try:
        host = (urlsplit(iri).hostname or "").removesuffix(".")
    except ValueError:
        return None
    if host and policy == POLICY_PLD:
        return pay_level_domain(host)
    return host or None


# the host of an IRI depends only on its scheme and authority, which
# many IRIs share
_authority_source = functools.lru_cache(maxsize=1 << 14)(_host_source)


def extract_source(iri: str, policy: str = POLICY_HOST) -> str | None:
    """Source identifier for an IRI under the given granularity policy,
    None when the IRI has no usable authority.

    ``host`` and ``graph`` take the lower-cased authority host of the IRI
    handed in, less one trailing root dot, since an IRI on its own names
    no graph; ``pld`` shortens it to the registrable domain.
    """
    return statement_source(iri, iri, policy)[0]


def load_alignment(path: str) -> dict:
    """Two-column tab-separated table: predicate IRI to canonical id.
    Every error names the file, and a bad row its line too."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            rows = list(enumerate(handle, start=1))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    table = {}
    for lineno, raw in rows:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno} bad alignment row: {text!r}")
        predicate, canonical = parts
        if table.setdefault(predicate, canonical) != canonical:
            raise ValueError(f"{path}:{lineno} alignment maps {predicate!r} "
                             f"to both {table[predicate]!r} and {canonical!r}")
    return table


def is_identity_link(st: RdfStatement) -> bool:
    """An ``owl:sameAs`` statement with an IRI object: the one kind of
    statement the identity graph takes."""
    return st.predicate == OWL_SAMEAS and not st.is_literal


def statement_source(subject: str, graph: str | None, policy: str):
    """The source of a statement about ``subject`` in ``graph`` (None for
    a triple), as (source, None), or (None, reason) when it names none.

    The one rule for claims and identity links alike: under the graph
    policy the graph's host states it, else ``subject``'s host or PLD.
    """
    if policy == POLICY_NAMED_GRAPH:
        if graph is None:
            return None, "missing_graph"
        subject = graph
    match = _AUTHORITY_RE.match(subject)
    source = (_authority_source(match.group(), policy) if match
              else _host_source(subject, policy))
    return source, None if source else "no_source"


def build_claims(statements, clusters, alignment: dict | None = None,
                 policy: str = POLICY_HOST) -> ClaimStore:
    """Turn parsed statements into a deduplicated claim store.

    Every dropped statement lands in exactly one drop counter, so
    ``len(claims) + sum(drop_counts.values())`` equals the number of
    statements handed in.  Identity links are counted but contribute no
    claims; they feed the graph stage instead.  An ``owl:sameAs`` with a
    literal object is neither, and counts as ``literal_sameas``.
    """
    if policy not in POLICIES:     # an empty input looks up no source
        raise ValueError(f"unknown source policy: {policy!r}")
    alignment = alignment or {}
    drop_counts = Counter()

    claims = []
    by_slot = {}        # slot key -> value -> set of sources
    # (lexical, datatype) of a literal, or an IRI -> its normalized value
    normalized = {}
    cluster = clusters.cluster
    for subject, predicate, obj, is_literal, datatype, _, graph in statements:
        if predicate == OWL_SAMEAS:
            drop_counts["literal_sameas" if is_literal else "sameas"] += 1
            continue
        source, err = statement_source(subject, graph, policy)
        if err is not None:
            drop_counts[err] += 1
            continue
        raw = (obj, datatype) if is_literal else obj
        value = normalized.get(raw)
        if value is None and raw not in normalized:
            value = normalized[raw] = normalize_object(obj, datatype,
                                                       is_iri=not is_literal)
        if value is None:
            drop_counts["null_object"] += 1
            continue
        key = (cluster(subject), alignment.get(predicate, predicate))
        support = by_slot.get(key)
        if support is None:
            by_slot[key] = {value: {source}}
        elif (backers := support.get(value)) is None:
            support[value] = {source}
        elif source in backers:
            drop_counts["duplicate"] += 1
            continue
        else:
            backers.add(source)
        claims.append(key + (value, source))

    # slots ascend by key and candidates by value, so each source's
    # incidence list comes out ascending
    incidence = {source: [] for source in sorted({c[3] for c in claims})}
    conflict_sets = {}
    for key in sorted(k for k, support in by_slot.items() if len(support) > 1):
        support = by_slot[key]
        objects = []
        values = sorted(support, key=NormalizedValue.sort_key)
        for slot, value in enumerate(values):
            sources = tuple(sorted(support[value]))
            objects.append(ObjectSupport(value, sources))
            for source in sources:
                incidence[source].append((key, slot))
        conflict_sets[key] = ConflictSet(key[0], key[1], tuple(objects))

    return ClaimStore(claims=claims, conflict_sets=conflict_sets,
                      incidence=incidence, drop_counts=drop_counts)
