"""Line parser, source attribution, and claim building tests."""

import gzip
import io
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies

from ldtruth import rdf_ingest
from ldtruth.public_suffix import (_EXCEPTION_RULES, _PLAIN_RULES,
                                   _WILDCARD_RULES, pay_level_domain)
from ldtruth.rdf_ingest import (
    _IRI_BODY,
    _parse_line,
    _parse_plain,
    FORMAT_NQUADS,
    FORMAT_NTRIPLES,
    OWL_SAMEAS,
    POLICIES,
    POLICY_NAMED_GRAPH,
    POLICY_PLD,
    EncodingError,
    MalformedLineError,
    RdfStatement,
    build_claims,
    extract_source,
    is_identity_link,
    load_alignment,
    parse_triples,
    statement_source,
)
from ldtruth.graph_model import EntityClusterMap, SameAsGraph, project_to_sbg
from ldtruth.pipeline import parse_files
from ldtruth.values import normalize_object
from oracles import (build_claims_ref, format_statement,
                     reference_pay_level_domain, statement_source_ref)


# every IRI the grammar takes inside <...>: absolute, so with a colon
IRIS = strategies.from_regex(_IRI_BODY, fullmatch=True)


def _statements(obj, **annotations):
    # builds draws every field of a NamedTuple, so pin each default
    annotations = {"is_literal": strategies.just(False),
                   "datatype": strategies.none(), "lang": strategies.none(),
                   **annotations}
    return strategies.builds(RdfStatement, IRIS, IRIS, obj, **annotations,
                             graph=strategies.none() | IRIS)


# statements of every object shape, each as format_statement writes it
LITERAL = {"is_literal": strategies.just(True)}
STATEMENTS = strategies.one_of(
    _statements(IRIS),
    _statements(strategies.text(), **LITERAL),
    _statements(strategies.text(), **LITERAL, datatype=IRIS),
    _statements(strategies.text(), **LITERAL, lang=strategies.from_regex(
        r"[a-zA-Z]+(-[a-zA-Z0-9]+)*", fullmatch=True)))

# scheme and authority: ports, userinfo, mixed case, IPv6 literals good
# and bad, percent-escapes, empty hosts, whitespace and control
# characters, and IRIs with no authority at all
_LABEL = r"([A-Za-z0-9-]|%[0-9A-Fa-f]{2}){1,6}"
AUTHORITIES = strategies.builds(
    "".join,
    strategies.tuples(
        strategies.sampled_from(["http", "HTTPS", "git+ssh", "urn", "mailto",
                                 "1http", "ht_tp", ""]),
        strategies.sampled_from(["://", ":", ":/", "//", ":/\t/", " ://"]),
        strategies.sampled_from(["", "user@", "User:Pw@", "a%40b@", "@"]),
        strategies.one_of(
            strategies.from_regex(rf"{_LABEL}(\.{_LABEL}){{0,3}}",
                                  fullmatch=True),
            strategies.sampled_from([
                "", "data.Example.CO.UK", "a.b.example.co.uk", "github.io",
                "[::1]", "[FE80::1%25Eth0]", "[v1.fe]", "[not-ipv6]", "[::1",
                "::1]", "h\u2100st", "ex ample.org", "ex\tample.org",
                "\x01host.org", "isbn:0451450523", ".", "Example.ORG.",
                "10.0.0.1", "[::ffff:1.2.3.4]"])),
        strategies.sampled_from(["", ":", ":8080", ":port", ":8080:9"])))
AFTER_AUTHORITY = strategies.sampled_from(
    ["", "/", "/path/x", "?q=1", "#frag", "/a?b#c", "?/#", "\t/x", " /x"])


def parse_one(line, **kwargs):
    statements = list(parse_triples(line, **kwargs))
    assert len(statements) == 1
    return statements[0]


class TestLineParser:
    def test_plain_triple(self):
        st = parse_one('<http://a.org/s> <http://a.org/p> <http://a.org/o> .')
        assert st.subject == "http://a.org/s"
        assert st.predicate == "http://a.org/p"
        assert (st.object, st.is_literal, st.datatype, st.lang) == \
            ("http://a.org/o", False, None, None)
        assert st.graph is None

    def test_typed_literal(self):
        st = parse_one('<http://a.org/s> <http://a.org/p> '
                       '"93"^^<http://www.w3.org/2001/XMLSchema#integer> .')
        assert st.is_literal
        assert st.object == "93"
        assert st.datatype == "http://www.w3.org/2001/XMLSchema#integer"

    def test_language_tag(self):
        st = parse_one('<http://a.org/s> <http://a.org/p> "statue"@en-US .')
        assert st.lang == "en-US"
        assert st.datatype is None

    def test_literal_escapes(self):
        st = parse_one(r'<http://a.org/s> <http://a.org/p> '
                       r'"say \"hi\"\né\U0001F600\\" .')
        assert st.object == 'say "hi"\né\U0001F600\\'

    def test_comments_blanks_and_trailing_comment(self):
        text = ("# header\n"
                "\n"
                "   \n"
                '<http://a.org/s> <http://a.org/p> "x" . # trailing\n'
                "<http://a.org/s> <http://a.org/p> .\n")
        diagnostics = []
        statements = list(parse_triples(text, diagnostics=diagnostics))
        assert [st.object for st in statements] == ["x"]
        # comment and blank lines count toward a diagnostic's line number
        assert [d.line for d in diagnostics] == [5]

    def test_crlf_and_tabs(self):
        st = parse_one('<http://a.org/s>\t<http://a.org/p>\t"x"\t.\r\n')
        assert st.object == "x"
        # CR, LF and CRLF each end a line, in any mix, and line numbers
        # count every one of them
        first = '<http://a.org/s> <http://a.org/p> "x" .'
        second = '<http://a.org/s> <http://a.org/p> "y" .'
        for text in (f"{first}\r{second}\r", f"{first}\r\n\r{second}",
                     f"{first}\r\r\n{second}\n", f"\r{first}\n{second}\r\n"):
            for source in (text, io.BytesIO(text.encode("utf-8"))):
                diagnostics = []
                statements = list(parse_triples(source, diagnostics=diagnostics))
                assert [st.object for st in statements] == ["x", "y"]
                assert diagnostics == []
        for source in (f"{first}\r\r{second}\r\nbroken\n{first}",
                       io.BytesIO(f"{first}\r\r{second}\r\nbroken\n"
                                  f"{first}".encode("utf-8"))):
            diagnostics = []
            statements = list(parse_triples(source, diagnostics=diagnostics))
            assert [st.object for st in statements] == ["x", "y", "x"]
            assert [(d.line, d.category) for d in diagnostics] == \
                [(4, "malformed")]
        # a raw CR, which a literal may not hold, ends the line there
        diagnostics = []
        statements = list(parse_triples(f'{first[:-5]}"a\rb" .\n{second}',
                                        diagnostics=diagnostics))
        assert [st.object for st in statements] == ["y"]
        assert [(d.line, d.category) for d in diagnostics] == \
            [(1, "malformed"), (2, "malformed")]
        # an undecodable line among CR-ended ones loses that line alone
        payload = f"{first}\r".encode("utf-8") + b'"\xff"\r' + \
            f"{second}\rbroken\n".encode("utf-8")
        diagnostics = []
        statements = list(parse_triples(io.BytesIO(payload),
                                        diagnostics=diagnostics))
        assert [st.object for st in statements] == ["x", "y"]
        assert [(d.line, d.category) for d in diagnostics] == \
            [(2, "encoding"), (4, "malformed")]

    def test_byte_order_mark_is_not_data(self, tmp_path):
        text = ('\ufeff<http://a.org/s> <http://a.org/p> "x" .\n'
                '<http://a.org/s> <http://a.org/p> "y" .\n')
        for source in (text, io.BytesIO(text.encode("utf-8"))):
            statements = list(parse_triples(source, mode="strict"))
            assert [st.object for st in statements] == ["x", "y"]
        path = tmp_path / "bom.nt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
        statements = parse_files([str(path)], mode="strict")
        assert [st.object for st in statements] == ["x", "y"]
        # only before the first line
        with pytest.raises(MalformedLineError) as err:
            list(parse_triples(text + text, mode="strict"))
        assert err.value.line == 3

    def test_nquads_graph_term(self):
        st = parse_one('<http://a.org/s> <http://a.org/p> "x" <http://g.org/g> .',
                       fmt=FORMAT_NQUADS)
        assert st.graph == "http://g.org/g"

    def test_fourth_term_rejected_in_triples(self):
        with pytest.raises(MalformedLineError) as err:
            list(parse_triples(
                '<http://a.org/s> <http://a.org/p> "x" <http://g.org/g> .',
                mode="strict"))
        assert err.value.line == 1
        assert "fourth" in err.value.reason

    @pytest.mark.parametrize("line,fragment", [
        ('<http://a.org/s> <http://a.org/p> "x"', "dot"),
        ('<http://a.org/s> <http://a.org/p> .', "unexpected character"),
        ('<http://a.org/s> "lit" <http://a.org/o> .', "unexpected character"),
        ('<http://a.org/s> <http://a.org/p> "unterminated .', "unterminated"),
        ('<http://a.org/s> <http://a.org/p> "x" . junk', "trailing"),
        ('<nocolon> <http://a.org/p> "x" .', "relative"),
        ('<http://a.org/s> <http://a.org/p> "x"^^bad .', "datatype"),
        (r'<http://a.org/s> <http://a.org/p> "\q" .', "escape"),
        (r'<http://a.org/s> <http://a.org/p> "\u12G4" .', r"bad \u escape"),
        (r'<http://a.org/s> <http://a.org/p> "\uFFF" .', r"bad \u escape"),
        (r'<http://a.org/s> <http://a.org/p> "\U0010FFF" .', r"bad \U escape"),
        ('<http://a.org/s> <http://a.org/p>', "unexpected end of line"),
        ('_:-b <http://a.org/p> "x" .', "invalid blank node label"),
        ('<http://a.org/s> <http://a.org/p> "x"@1 .', "bad language tag"),
        # an IRI is checked as it is read, before a later fault
        ('<rel> <http://a.org/p> _:b .', "relative IRI"),
        ('<http://a.org/s> <http://a.org/p> <rel> . junk', "relative IRI"),
    ])
    def test_malformed_lines_strict(self, line, fragment):
        with pytest.raises(MalformedLineError) as err:
            list(parse_triples(line, mode="strict"))
        assert fragment in err.value.reason

    def test_lenient_records_and_continues(self):
        text = ('<http://a.org/s> <http://a.org/p> "ok" .\n'
                "broken line\n"
                '<http://a.org/s2> <http://a.org/p> "ok2" .\n')
        diagnostics = []
        statements = list(parse_triples(text, diagnostics=diagnostics))
        assert [st.object for st in statements] == ["ok", "ok2"]
        assert len(diagnostics) == 1
        assert diagnostics[0].line == 2
        assert diagnostics[0].category == "malformed"

    @pytest.mark.parametrize("escape", [
        r"\U00110000", r"\UFFFFFFFF", r"\uD800", r"\uDFFF", r"\U0000DC00"])
    def test_escape_outside_unicode_scalars(self, escape):
        key = escape[1]
        text = (f'<http://a.org/s> <http://a.org/p> "x{escape}y" .\n'
                '<http://a.org/s> <http://a.org/p> "ok" .\n')
        diagnostics = []
        statements = list(parse_triples(text, diagnostics=diagnostics))
        assert [st.object for st in statements] == ["ok"]
        assert [(d.line, d.category, d.reason) for d in diagnostics] == \
            [(1, "malformed", f"bad \\{key} escape")]
        with pytest.raises(MalformedLineError) as err:
            list(parse_triples(text, mode="strict"))
        assert str(err.value) == f"line 1: bad \\{key} escape"

    def test_largest_scalar_escapes_decode(self):
        st = parse_one(r'<http://a.org/s> <http://a.org/p> '
                       r'"\U0010FFFF\uD7FF\uE000" .')
        assert st.object == "\U0010FFFF\uD7FF\uE000"

    def test_blank_nodes_are_set_aside(self):
        text = ('_:b1 <http://a.org/p> "x" .\n'
                '<http://a.org/s> <http://a.org/p> _:b2 .\n')
        diagnostics = []
        statements = list(parse_triples(text, diagnostics=diagnostics))
        assert statements == []
        assert [d.category for d in diagnostics] == ["blank_node", "blank_node"]

    def test_invalid_utf8_lenient_and_strict(self):
        payload = (b'<http://a.org/s> <http://a.org/p> "ok" .\n'
                   b'<http://a.org/s> <http://a.org/p> "\xff\xfe" .\n')
        diagnostics = []
        statements = list(parse_triples(io.BytesIO(payload),
                                        diagnostics=diagnostics))
        assert len(statements) == 1
        assert diagnostics[0].category == "encoding"
        with pytest.raises(EncodingError):
            list(parse_triples(io.BytesIO(payload), mode="strict"))

    def test_a_bad_byte_after_a_block_ending_cr_names_its_line(self,
                                                               tmp_path):
        # 72 + 203 * 40 bytes end the first 8 KB block on a CR; a strict
        # text stream's decoder holds that CR back, so its error may name
        # the line before, while the byte reading the commands use names
        # line 205
        first = b'<http://a.org/s> <http://a.org/p> "' + b"a" * 33 + b'" .\r'
        line = b'<http://a.org/s> <http://a.org/p> "x" .\r'
        payload = first + line * 203 + line.replace(b"x", b"\xff")
        assert len(first + line * 203) == 8192
        path = tmp_path / "cr.nt"
        path.write_bytes(payload)
        with pytest.raises(EncodingError) as err:
            list(parse_triples(io.BytesIO(payload), mode="strict"))
        assert err.value.line == 205
        with pytest.raises(EncodingError) as err:
            parse_files([str(path)], mode="strict")
        assert err.value.line == 205
        found = []
        assert len(parse_files([str(path)], diagnostics=found)) == 204
        assert [(d.line, d.category) for _, d in found] == [(205, "encoding")]
        with pytest.raises(EncodingError) as err:
            list(parse_triples(io.TextIOWrapper(io.BytesIO(payload), "utf-8",
                                                newline=None), mode="strict"))
        assert err.value.line in (204, 205)

    @pytest.mark.parametrize("end", ["\r", "\n"], ids=["cr", "lf"])
    @pytest.mark.parametrize("tail", ["", "^^<http://a.org/t>", "@en"],
                             ids=["plain", "typed", "tagged"])
    def test_raw_line_end_inside_a_literal_is_malformed(self, end, tail,
                                                         tmp_path):
        # N-Triples' STRING_LITERAL_QUOTE holds neither CR nor LF; a list
        # can hand over either, a text stream opened with newline="\n" a CR
        bad = f'<http://a.org/s> <http://a.org/p> "a{end}b"{tail} .'
        ok = '<http://a.org/s> <http://a.org/p> "ok" .'
        path = tmp_path / "lines.nt"
        path.write_text(ok + "\n" + bad + "\n", encoding="utf-8",
                        newline="")
        sources = [lambda: [ok, bad]]
        if end == "\r":
            sources.append(lambda: open(path, encoding="utf-8", newline="\n"))
        for opened in sources:
            diagnostics = []
            source = opened()
            statements = list(parse_triples(source, diagnostics=diagnostics))
            getattr(source, "close", lambda: None)()
            assert [st.object for st in statements] == ["ok"]
            assert [(d.line, d.category, d.reason) for d in diagnostics] == \
                [(2, "malformed", "unterminated literal")]

    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"],
                             ids=["lf", "cr", "crlf"])
    @pytest.mark.parametrize("bad", [2, 400], ids=["line2", "line400"])
    def test_strictly_decoded_stream_names_the_line(self, tmp_path, mode,
                                                     end, bad):
        # the caller's decoder raises and cannot go on, so every mode
        # raises, naming the line that holds the byte
        lines = [f'<http://a.org/s{i}> <http://a.org/p> "x{i}" .'
                 for i in range(1, 501)]
        lines[bad - 1] = lines[bad - 1].replace('"x', '"\udcff')
        path = tmp_path / "strict.nt"
        path.write_bytes(end.join(lines).encode("utf-8", "surrogateescape"))
        with open(path, encoding="utf-8") as handle, \
                pytest.raises(EncodingError) as err:
            list(parse_triples(handle, mode=mode, diagnostics=[]))
        assert err.value.line == bad
        assert "invalid start byte" in err.value.reason
        assert str(err.value).startswith(f"line {bad}: 'utf-8' codec")

    @pytest.mark.parametrize("mode, bad, error, reason", [
        ("lenient", b'<http://a.org/s> <http://a.org/p> "open .',
         MalformedLineError, "unterminated literal"),
        ("lenient", b'_:b <http://a.org/p> "x" .', MalformedLineError,
         "blank node outside supported subset"),
        ("strict", b'_:b <http://a.org/p> "x" .', MalformedLineError,
         "blank node outside supported subset"),
        ("lenient", b'<http://a.org/s> <http://a.org/p> "\xff" .',
         EncodingError, "invalid start byte"),
    ], ids=["malformed", "blank_node", "blank_node_strict", "undecodable"])
    def test_no_diagnostics_list_raises(self, mode, bad, error, reason):
        # with nowhere to record it, a line set aside is an error, never
        # a silent drop; strict mode already raises on the other two
        payload = b'<http://a.org/s> <http://a.org/p> "ok" .\n' + bad + b"\n"
        with pytest.raises(error) as err:
            list(parse_triples(io.BytesIO(payload), mode=mode))
        assert err.value.line == 2
        assert reason in err.value.reason

    # the whole set-aside rule: each line kind under each mode, with and
    # without a diagnostics list, gives the error raised or the
    # (line, category) recorded while parsing goes on
    SET_ASIDE_LINES = {
        "malformed": b'<http://a.org/s> <http://a.org/p> "open .',
        "undecodable": b'<http://a.org/s> <http://a.org/p> "\xff" .',
        "blank_node": b'_:b <http://a.org/p> "x" .',
    }
    RECORDED = {"malformed": (2, "malformed"), "undecodable": (2, "encoding"),
                "blank_node": (2, "blank_node")}
    RAISED = {"malformed": MalformedLineError, "undecodable": EncodingError,
              "blank_node": MalformedLineError}

    @pytest.mark.parametrize("kind", SET_ASIDE_LINES)
    @pytest.mark.parametrize("has_list", [True, False],
                             ids=["list", "no_list"])
    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    def test_set_aside_table(self, mode, has_list, kind):
        records = mode == "lenient" or kind == "blank_node"
        ok = b'<http://a.org/s> <http://a.org/p> "ok" .\n'
        payload = ok + self.SET_ASIDE_LINES[kind] + b"\n" + ok
        diagnostics = [] if has_list else None
        parsed = parse_triples(io.BytesIO(payload), mode=mode,
                               diagnostics=diagnostics)
        if has_list and records:
            assert len(list(parsed)) == 2
            assert [(d.line, d.category) for d in diagnostics] == \
                [self.RECORDED[kind]]
            return
        with pytest.raises(MalformedLineError) as err:
            list(parsed)
        assert type(err.value) is self.RAISED[kind]
        assert err.value.line == 2
        assert diagnostics in ([], None)

    def test_parse_files_without_a_list_raises(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text('<http://a.org/s> <http://a.org/p> "ok" .\n'
                        "broken line\n")
        found = []
        assert len(parse_files([str(path)], diagnostics=found)) == 1
        assert [(p, d.line) for p, d in found] == [(str(path), 2)]
        with pytest.raises(MalformedLineError):
            parse_files([str(path)])

    def test_unknown_format_or_mode(self):
        with pytest.raises(ValueError):
            list(parse_triples("", fmt="turtle"))
        with pytest.raises(ValueError):
            list(parse_triples("", mode="silent"))


# one line of each kind the reader tells apart, as (bytes, what it
# gives): a statement, None for a comment, or a set-aside category
def _contract_line(kind, i):
    s, p = f"http://a.org/s{i}", "http://a.org/p"
    if kind == "plain":
        return (f'<{s}> <{p}> "v{i}" .'.encode(),
                RdfStatement(s, p, f"v{i}", True))
    if kind == "term_parser":
        return (f'<{s}>\t<{p}> "é\\t{i}"@en . # note'.encode(),
                RdfStatement(s, p, f"é\t{i}", True, lang="en"))
    if kind == "comment":
        return f"# comment {i}".encode(), None
    if kind == "malformed":
        return f'<{s}> <{p}> "open{i} .'.encode(), "malformed"
    if kind == "blank_node":
        return f'_:b{i} <{p}> "x" .'.encode(), "blank_node"
    if kind == "undecodable":
        return f'<{s}> <{p}> "{i}\xff" .'.encode("latin-1"), "encoding"
    # a bad sequence cut off by the line end
    return f'<{s}> <{p}> "{i}" . \xe2\x82'.encode("latin-1"), "encoding"


LINE_KINDS = ("plain", "term_parser", "comment", "malformed", "blank_node",
              "undecodable", "cut_off")


class TestLineEndContract:
    """CR, LF and CRLF end a line in every reading of the same input, and
    a line's number is its position in the input."""

    @staticmethod
    def _read(source, **kwargs):
        diagnostics = []
        statements = list(parse_triples(source, diagnostics=diagnostics,
                                        **kwargs))
        return statements, diagnostics

    @settings(max_examples=80, deadline=None)
    @given(strategies.lists(strategies.tuples(
               strategies.sampled_from(LINE_KINDS),
               strategies.sampled_from(["\n", "\r", "\r\n"])),
               min_size=1, max_size=12),
           strategies.sampled_from(["", "\n", "\r", "\r\n"]),
           strategies.booleans())
    def test_every_reading_agrees(self, lines, last_end, bom):
        built = [_contract_line(kind, i) for i, (kind, _) in enumerate(lines)]
        ends = [end for _, end in lines[:-1]] + [last_end]
        payload = b"".join(raw + end.encode() for (raw, _), end in
                           zip(built, ends))
        if bom:
            payload = b"\xef\xbb\xbf" + payload
        expected = [got for _, got in built if isinstance(got, RdfStatement)]
        set_aside = [(n, got) for n, (_, got) in enumerate(built, 1)
                     if isinstance(got, str)]

        stream = io.BytesIO(payload)
        readings = {"bytes": self._read(stream)}
        assert not stream.closed
        stream.seek(0)
        abandoned = parse_triples(stream, diagnostics=[])
        next(abandoned, None)
        del abandoned
        assert not stream.closed
        if "encoding" not in dict(set_aside).values():
            readings["str"] = self._read(payload.decode("utf-8"))
        for newline in (None, ""):
            text = io.TextIOWrapper(io.BytesIO(payload), "utf-8",
                                    "surrogateescape", newline=newline)
            readings[f"text {newline!r}"] = self._read(text)
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "input.nt.gz")
            with gzip.open(path, "wb") as handle:
                handle.write(payload)
            found = []
            readings["gzip"] = (parse_files([path], diagnostics=found),
                                [d for _, d in found])
            assert {p for p, _ in found} <= {path}

        first = readings["bytes"][1]
        for name, (statements, diagnostics) in readings.items():
            assert statements == expected, name
            assert [(d.line, d.category) for d in diagnostics] == \
                set_aside, name
            # the reasons agree too, the byte offsets of an encoding error
            # included
            assert diagnostics == first, name

    def test_a_binary_stream_stays_open(self):
        # a text wrapper that is collected closes the stream it wraps, so
        # the reader lets go of the caller's stream however it stops
        line = b'<http://a.org/s> <http://a.org/p> "x" .\n'
        stream = io.BytesIO(line * 3)
        parsed = parse_triples(stream)
        next(parsed)
        del parsed          # abandoned halfway through
        assert not stream.closed
        stream.seek(0)
        assert len(list(parse_triples(stream))) == 3
        assert not stream.closed
        # a stream the caller closes halfway needs no letting go
        parsed = parse_triples(stream)
        stream.seek(0)
        next(parsed)
        stream.close()
        parsed.close()

    def test_text_lines_keep_their_own_ends(self):
        # only a string or a binary stream is read with universal
        # newlines, so a CR inside a list item is part of that line
        line = '<http://a.org/s> <http://a.org/p> "x" .'
        diagnostics = []
        statements = list(parse_triples([f"{line}\r{line}\r\n", line],
                                        diagnostics=diagnostics))
        assert statements == [parse_one(line)]
        assert [(d.line, d.category) for d in diagnostics] == \
            [(1, "malformed")]


class TestRoundTrip:
    def test_format_then_parse_is_identity(self):
        rng = random.Random(3377)
        alphabet = 'abc"\\\n\txyz '
        for i in range(200):
            if rng.random() < 0.5:
                obj = ("".join(rng.choice(alphabet) for _ in range(6)), True,
                       rng.choice(
                           [None, "http://www.w3.org/2001/XMLSchema#string"]))
            else:
                obj = (f"http://o.example.org/{i}", False, None)
            graph = f"http://g.example.org/{i}" if rng.random() < 0.3 else None
            st = RdfStatement(f"http://s.example.org/{i}",
                              f"http://p.example.org/{i}", *obj, graph=graph)
            fmt = FORMAT_NQUADS if graph else "ntriples"
            back = parse_one(format_statement(st), fmt=fmt, mode="strict")
            assert back == st

    @settings(max_examples=200, deadline=None)
    @given(STATEMENTS)
    def test_round_trip_property(self, statement):
        line = format_statement(statement)
        back = parse_one(line, fmt=FORMAT_NQUADS, mode="strict")
        assert back == statement
        # the plain-line pattern agrees with the term parser or defers to
        # it, and it takes every line written without an escape
        for fmt in (FORMAT_NQUADS, FORMAT_NTRIPLES):
            fast = _parse_plain(line, fmt)
            if fast is not None:
                assert fast == _parse_line(line, 1, fmt)
            plain = "\\" not in line and (
                fmt == FORMAT_NQUADS or statement.graph is None)
            assert (fast is not None) == plain


# lines the plain-line pattern must leave to the term parser, each made
# from a plain line and the subject it starts with
DEFERRED = {
    "tab": lambda line, subject: line.replace(" ", "\t", 1),
    "doubled space": lambda line, subject: line.replace(" ", "  ", 1),
    "space before the dot missing": lambda line, subject: line[:-2] + ".",
    "trailing comment": lambda line, subject: line + " # note",
    "escape": lambda line, subject:
        f"<{subject}\\u0041>" + line[len(subject) + 2:],
    "blank node": lambda line, subject: "_:b1" + line[len(subject) + 2:],
    "relative IRI": lambda line, subject: "<rel>" + line[len(subject) + 2:],
}


# an N-Quads line for each place an IRI can stand
IRI_POSITIONS = {
    "subject": '<{}> <http://a.org/p> "x" <http://g.org/g> .',
    "predicate": '<http://a.org/s> <{}> "x" <http://g.org/g> .',
    "object": '<http://a.org/s> <http://a.org/p> <{}> <http://g.org/g> .',
    "datatype": '<http://a.org/s> <http://a.org/p> "x"^^<{}> <http://g.org/g> .',
    "graph": '<http://a.org/s> <http://a.org/p> "x" <{}> .',
}
CAFE = "http://dbpedia.org/resource/Caf"


class TestIriEscapes:
    @pytest.mark.parametrize("separator", [" ", "\t"],
                             ids=["plain", "term_parser"])
    @pytest.mark.parametrize("position", sorted(IRI_POSITIONS))
    def test_relative_iri_is_one_bad_line(self, position, separator):
        # an IRI must open with an RFC 3987 scheme once unescaped, in every
        # position, however the line is spaced; a colon written as \u003A
        # counts, but a colon alone, or one after a slash, is no scheme
        template = IRI_POSITIONS[position].replace(" ", separator, 1)
        relative = ("rel/x", r"Caf\u00E9/x", ":x", "a/b:c", "1http://x",
                    r"\u003Ax")
        for iri in relative:
            assert _parse_plain(template.format(iri), FORMAT_NQUADS) is None
        text = "\n".join((*map(template.format, relative),
                          template.format(r"urn\u003Ax"), ""))
        diagnostics = []
        statements = list(parse_triples(text, fmt=FORMAT_NQUADS,
                                        diagnostics=diagnostics))
        assert statements == [parse_one(template.format("urn:x"),
                                        fmt=FORMAT_NQUADS)]
        assert diagnostics == [(line, "malformed", "relative IRI")
                               for line in range(1, len(relative) + 1)]
        with pytest.raises(MalformedLineError, match="line 1: relative IRI"):
            list(parse_triples(text, fmt=FORMAT_NQUADS, mode="strict"))

    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    @pytest.mark.parametrize("position", sorted(IRI_POSITIONS))
    def test_uchar_decodes(self, position, mode):
        template = IRI_POSITIONS[position]
        escaped = template.format(CAFE + r"\u00E9_\U0001F600\u003a")
        written = template.format(CAFE + "\u00e9_\U0001F600:")
        assert parse_one(escaped, fmt=FORMAT_NQUADS, mode=mode) == \
            parse_one(written, fmt=FORMAT_NQUADS)

    @pytest.mark.parametrize("escape, reason", [
        # character escapes and short \u forms are not IRI syntax at all
        (r"\n", None), (r"\t", None), (r"\\", None), (r'\"', None),
        (r"\u00E", None), (r"\U0001F60", None), (r"\uZZZZ", None),
        (r"\uD800", r"bad \u escape"), (r"\uDFFF", r"bad \u escape"),
        (r"\U00110000", r"bad \U escape"), (r"\U0000DC00", r"bad \U escape"),
        *[(rf"\u{ord(ch):04X}", "bad IRI escape")
          for ch in ' \x00\x1f<>"{}|^`\\'],
    ])
    @pytest.mark.parametrize("position", sorted(IRI_POSITIONS))
    def test_bad_escape_is_one_bad_line(self, position, escape, reason):
        if reason is None:
            reason = "bad datatype IRI" if position == "datatype" \
                else "unterminated or invalid IRI"
        text = (IRI_POSITIONS[position].format(CAFE + escape) + "\n"
                + IRI_POSITIONS[position].format(CAFE + "e") + "\n")
        diagnostics = []
        statements = list(parse_triples(text, fmt=FORMAT_NQUADS,
                                        diagnostics=diagnostics))
        assert statements == [parse_one(
            IRI_POSITIONS[position].format(CAFE + "e"), fmt=FORMAT_NQUADS)]
        assert [(d.line, d.category, d.reason) for d in diagnostics] == \
            [(1, "malformed", reason)]
        with pytest.raises(MalformedLineError) as err:
            list(parse_triples(text, fmt=FORMAT_NQUADS, mode="strict"))
        assert str(err.value) == f"line 1: {reason}"


_CHAR_ESCAPES = {"\t": r"\t", "\b": r"\b", "\n": r"\n", "\r": r"\r",
                 "\f": r"\f", '"': r'\"', "'": r"\'", "\\": r"\\"}


@strategies.composite
def written_out(draw, chars, raw, char_escapes):
    """A text over ``chars`` and one way to write it: each character
    raw where ``raw`` allows it, as a character escape from
    ``char_escapes``, or as \\u or \\U with upper or lower case digits."""
    text = draw(strategies.text(chars))
    out = []
    for ch in text:
        code = ord(ch)
        forms = [f"\\U{code:08X}", f"\\U{code:08x}"]
        if code <= 0xFFFF:
            forms += [f"\\u{code:04X}", f"\\u{code:04x}"]
        if raw(ch):
            forms.append(ch)
        if ch in char_escapes:
            forms.append(char_escapes[ch])
        out.append(draw(strategies.sampled_from(forms)))
    return text, "".join(out)


class TestDecoderProperties:
    @settings(max_examples=300, deadline=None)
    @given(written_out(strategies.characters(blacklist_categories=("Cs",))
                       | strategies.sampled_from(sorted(_CHAR_ESCAPES)),
                       lambda ch: ch not in '"\\\n\r', _CHAR_ESCAPES))
    def test_literal_text_reads_back(self, written):
        text, lexical = written
        line = f'<http://a.org/s> <http://a.org/p> "{lexical}" .'
        assert parse_one(line, mode="strict").object == text

    @settings(max_examples=300, deadline=None)
    @given(written_out(strategies.characters(
               min_codepoint=0x21, blacklist_categories=("Cs",),
               blacklist_characters='<>"{}|^`\\'),
               lambda ch: True, {}),
           strategies.sampled_from(sorted(IRI_POSITIONS)))
    def test_iri_reads_back(self, written, position):
        iri, body = written
        template = IRI_POSITIONS[position]
        back = parse_one(template.format(CAFE + body), fmt=FORMAT_NQUADS,
                         mode="strict")
        assert back == parse_one(template.format(CAFE + iri),
                                 fmt=FORMAT_NQUADS)


class TestPlainLineFastPath:
    @settings(max_examples=60, deadline=None)
    @given(STATEMENTS, strategies.sampled_from(sorted(DEFERRED)))
    def test_unusual_lines_take_the_term_parser(self, statement, variant):
        line = format_statement(statement)
        varied = DEFERRED[variant](line, statement.subject)
        assert _parse_plain(varied, FORMAT_NQUADS) is None
        if variant == "escape":
            assert parse_one(varied, fmt=FORMAT_NQUADS, mode="strict") == \
                statement._replace(subject=statement.subject + "A")

    @pytest.mark.parametrize("line", [
        '<http://a.org/s> <http://a.org/p> "x"@en <http://g.org/g> .',
        '<http://a.org/s>\t<http://a.org/p> "x"@en <http://g.org/g> .'],
        ids=["plain", "term_parser"])
    def test_statement_is_one_slotted_record(self, line):
        st = parse_one(line, fmt=FORMAT_NQUADS)
        assert not hasattr(st, "__dict__")
        assert (st.object, st.is_literal, st.lang, st.graph) == \
            ("x", True, "en", "http://g.org/g")
        with pytest.raises(AttributeError):
            st.object = "y"

    def test_fourth_term_defers_in_triples(self):
        line = '<http://a.org/s> <http://a.org/p> "x" <http://g.org/g> .'
        assert _parse_plain(line, FORMAT_NTRIPLES) is None
        assert _parse_plain(line, FORMAT_NQUADS).graph == "http://g.org/g"


class TestSourceExtraction:
    def test_host_policy(self):
        assert extract_source("http://DBpedia.ORG/resource/x") == "dbpedia.org"

    def test_pay_level_domain(self):
        assert extract_source("http://data.nytimes.com/x",
                              POLICY_PLD) == "nytimes.com"
        assert extract_source("http://a.b.example.co.uk/x",
                              POLICY_PLD) == "example.co.uk"
        # an IP literal is its own source: two publishers, not one "0.1"
        assert extract_source("http://127.0.0.1:8890/e",
                              POLICY_PLD) == "127.0.0.1"
        assert extract_source("http://10.0.0.1/e", POLICY_PLD) == "10.0.0.1"
        assert extract_source("http://[::ffff:1.2.3.4]/e",
                              POLICY_PLD) == "::ffff:1.2.3.4"

    @pytest.mark.parametrize("policy, expected", [
        ("host", "a.example.org"), ("pld", "example.org"),
        ("graph", "a.example.org")])
    def test_trailing_root_dot_is_dropped(self, policy, expected):
        # "a.example.org." names the same host as "a.example.org"
        assert extract_source("http://a.example.org./x", policy) == expected
        assert extract_source("http://A.Example.ORG/x", policy) == expected

    @pytest.mark.parametrize("iri", [
        "urn:isbn:0451450523",
        "http://[::1/x",        # urlsplit rejects the authority
        "http://[::1 /x",       # ... also where it reads the IRI whole
        "http:///x",
        "http://./x",           # the root alone names no host
    ])
    def test_no_authority_is_no_source(self, iri):
        for policy in POLICIES:
            assert extract_source(iri, policy) is None

    def test_unknown_policy(self):
        # first with a cold authority cache, then with each authority
        # cached under a valid policy: every entry point still raises
        rdf_ingest._authority_source.cache_clear()
        link = SameAsGraph([("http://a.org/x", "http://b.org/y", None)])
        claim = RdfStatement("http://a.org/x", "http://a.org/p", "v", True)
        for warm in (False, True):
            if warm:
                assert project_to_sbg(link).multiplicity == \
                    {("a.org", "b.org"): 1}
                assert len(build_claims([claim], EntityClusterMap({}))
                           .claims) == 1
            for policy in ("origin", None, "HOST"):
                for call in (
                        lambda: extract_source("http://a.org/x", policy),
                        lambda: extract_source("urn:isbn:1", policy),
                        lambda: statement_source("http://a.org/x", None,
                                                 policy),
                        lambda: statement_source("http://a.org/x",
                                                 "http://b.org/g", policy),
                        lambda: project_to_sbg(link, policy),
                        lambda: build_claims([claim], EntityClusterMap({}),
                                             policy=policy),
                        lambda: build_claims([], EntityClusterMap({}),
                                             policy=policy)):
                    with pytest.raises(ValueError,
                                       match="unknown source policy"):
                        call()
        # one that the cache cannot hash fails as loudly, as a TypeError
        with pytest.raises(TypeError):
            extract_source("http://a.org/x", ["host"])

    def test_policy_names_are_the_flag_names(self):
        assert POLICIES == ("host", "pld", "graph")

    @pytest.mark.parametrize("subject, graph, policy, expected", [
        ("http://data.example.com/s", None, "host",
         ("data.example.com", None)),
        ("http://data.example.com/s", "http://g.org/1", "host",
         ("data.example.com", None)),
        ("http://data.example.com/s", "http://g.org/1", "pld",
         ("example.com", None)),
        ("urn:isbn:1", "http://g.org/1", "pld", (None, "no_source")),
        ("urn:isbn:1", "http://G.org/1", "graph", ("g.org", None)),
        ("http://data.example.com/s", None, "graph",
         (None, "missing_graph")),
        ("http://data.example.com/s", "urn:graph:1", "graph",
         (None, "no_source")),
    ])
    def test_statement_source(self, subject, graph, policy, expected):
        # under the graph policy the graph states the statement, else
        # its subject does
        assert statement_source(subject, graph, policy) == expected

    @settings(max_examples=300, deadline=None)
    @given(AUTHORITIES, strategies.lists(AFTER_AUTHORITY, min_size=2,
                                         max_size=2),
           strategies.none() | strategies.tuples(AUTHORITIES, AFTER_AUTHORITY)
           .map("".join))
    def test_cached_host_matches_urlsplit(self, authority, tails, graph):
        # two IRIs share each authority, so the second lookup of every
        # policy hits the cache the first one filled; the reference reads
        # every host with urlsplit and the two-step pay-level domain
        for tail in tails:
            iri = authority + tail
            for policy in POLICIES:
                assert statement_source(iri, graph, policy) == \
                    statement_source_ref(iri, graph, policy)
                assert extract_source(iri, policy) == \
                    statement_source_ref(iri, iri, policy)[0]

    def test_authority_is_looked_up_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rdf_ingest, "pay_level_domain",
                            lambda host: calls.append(host) or host)
        for path in ("/a", "/b?q", "#c", ""):
            assert extract_source(f"http://Once.Example.ORG:81{path}",
                                  POLICY_PLD) == "once.example.org"
        assert calls == ["once.example.org"]


# hosts of the labels the snapshot's rules are made of, and of a few that
# no rule names: empty, all digits, and plain
SUFFIX_LABELS = sorted({label for rule in (*_PLAIN_RULES, *_WILDCARD_RULES,
                                           *_EXCEPTION_RULES)
                        for label in rule.split(".")}
                       | {"", "a", "example", "1", "127"})
SNAPSHOT_HOSTS = strategies.lists(strategies.sampled_from(SUFFIX_LABELS),
                                  min_size=1, max_size=5).map(".".join)


class TestPayLevelDomain:

    @pytest.mark.parametrize("host, expected", [
        ("a.b.ck", "a.b.ck"),                # wildcard *.ck: b.ck is a suffix
        ("b.ck", "b.ck"),
        ("www.ck", "www.ck"),                # exception !www.ck
        ("x.www.ck", "www.ck"),
        ("x.co.uk", "x.co.uk"),              # multi-label rule
        ("a.b.x.co.uk", "x.co.uk"),
        ("user.github.io", "user.github.io"),  # hosting domain
        ("a.user.github.io", "user.github.io"),
        ("co.uk", "co.uk"),                  # the host is itself a suffix
        ("localhost", "localhost"),          # a single label
        ("a.example.zz", "example.zz"),      # unlisted: the default rule
        ("a..b.com", "b.com"),               # empty labels
        ("127.0.0.1", "127.0.0.1"),          # an IP literal names no domain
        ("10.0.0.1", "10.0.0.1"),
        ("::ffff:1.2.3.4", "::ffff:1.2.3.4"),
    ])
    def test_snapshot_rules(self, host, expected):
        assert pay_level_domain(host) == expected

    @settings(max_examples=500, deadline=None)
    @given(SNAPSHOT_HOSTS)
    def test_matches_the_two_step_reference(self, host):
        if host.split(".")[-1].isdigit():
            assert pay_level_domain(host) == host
        else:
            assert pay_level_domain(host) == reference_pay_level_domain(host)


def statements_from(text, fmt="ntriples"):
    return list(parse_triples(text, fmt=fmt))


CORPUS = """
<http://one.example.org/e> <http://v.org/height> "93"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://two.example.org/e> <http://v.org/height> "95"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://one.example.org/e> <http://v.org/height> "93"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://two.example.org/e> <http://v.org/name> "NULL" .
<http://one.example.org/e> <http://w.org/alt-height> "94"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://one.example.org/e> <http://www.w3.org/2002/07/owl#sameAs> <http://two.example.org/e> .
"""


class TestBuildClaims:
    def test_every_statement_lands_somewhere(self):
        statements = statements_from(CORPUS)
        store = build_claims(statements, EntityClusterMap({}))
        assert len(store.claims) + sum(store.drop_counts.values()) == len(statements)
        assert store.drop_counts["duplicate"] == 1
        assert store.drop_counts["null_object"] == 1
        assert store.drop_counts["sameas"] == 1

    def test_literal_sameas_is_its_own_drop(self):
        statements = statements_from(
            f'<http://a.org/s> <{OWL_SAMEAS}> "http://b.org/s" .\n'
            f'<http://a.org/s> <{OWL_SAMEAS}> <http://b.org/s> .\n')
        assert [is_identity_link(st) for st in statements] == [False, True]
        store = build_claims(statements, EntityClusterMap({}))
        assert store.claims == []
        assert store.drop_counts == {"literal_sameas": 1, "sameas": 1}

    def test_alignment_merges_predicates(self):
        statements = statements_from(CORPUS)
        alignment = {"http://w.org/alt-height": "http://v.org/height"}
        clusters = EntityClusterMap(cluster_of={
            "http://one.example.org/e": "http://one.example.org/e",
            "http://two.example.org/e": "http://one.example.org/e",
        })
        store = build_claims(statements, clusters, alignment)
        key = ("http://one.example.org/e", "http://v.org/height")
        assert list(store.conflict_sets) == [key]
        values = [obj.value.render() for obj in store.conflict_sets[key].objects]
        assert values == ["93", "94", "95"]

    def test_each_distinct_object_is_normalized_once_per_call(self,
                                                              monkeypatch):
        calls = []

        def counting(lexical, datatype=None, *, is_iri=False):
            calls.append((lexical, datatype, is_iri))
            return normalize_object(lexical, datatype, is_iri=is_iri)

        monkeypatch.setattr(rdf_ingest, "normalize_object", counting)
        text = CORPUS + ('<http://one.example.org/f> <http://v.org/height> '
                         '"93" .\n'
                         '<http://one.example.org/f> <http://v.org/link> '
                         '<http://x.org/93> .\n'
                         '<http://two.example.org/f> <http://v.org/link> '
                         '<http://x.org/93> .\n')
        statements = statements_from(text)
        first = build_claims(statements, EntityClusterMap({}))
        distinct = sorted(calls, key=repr)
        # "93" typed and untyped are two objects, the repeated IRI is one
        assert len(distinct) == len(set(distinct)) == 6
        calls.clear()
        assert build_claims(statements, EntityClusterMap({})) == first
        assert sorted(calls, key=repr) == distinct

    def test_no_clusters_means_no_conflicts_here(self):
        # different subjects stay different entities without identity info
        store = build_claims(statements_from(CORPUS), EntityClusterMap({}))
        assert store.conflict_sets == {}

    def test_supporters_and_incidence(self):
        # sixteen hosts make three claims each about the same three
        # entities, shuffled; lone.example.org has no conflicting claim
        rng = random.Random(7)
        cluster_of = {}
        lines = ['<http://lone.example.org/x> <http://v.org/p> "a" .']
        for i in range(16):
            for k in range(3):
                subject = f"http://s{i:02d}.example.org/e{k}"
                cluster_of[subject] = f"e{k}"
                lines.append(f'<{subject}> <http://v.org/p> '
                             f'"{rng.choice("abc")}" .')
        rng.shuffle(lines)
        store = build_claims(statements_from("\n".join(lines)),
                             EntityClusterMap(cluster_of))
        assert len(store.conflict_sets) == 3
        for cs in store.conflict_sets.values():
            for obj in cs.objects:
                assert all(a < b for a, b in zip(obj.sources, obj.sources[1:]))
        sources = sorted({claim[3] for claim in store.claims})
        assert list(store.incidence) == sources
        assert len(sources) == 17
        assert store.incidence["lone.example.org"] == []
        for source, hits in store.incidence.items():
            rescan = sorted(
                ((e, p), [o.value for o in store.conflict_sets[e, p].objects]
                 .index(v))
                for e, p, v, s in store.claims
                if s == source and (e, p) in store.conflict_sets)
            assert hits == rescan

    def test_named_graph_policy(self):
        quads = ('<http://x.org/e> <http://v.org/p> "1"^^<http://www.w3.org/2001/XMLSchema#integer> <http://one.example.org/g> .\n'
                 '<http://x.org/e> <http://v.org/p> "2"^^<http://www.w3.org/2001/XMLSchema#integer> <http://two.example.org/g> .\n'
                 '<http://x.org/e> <http://v.org/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .\n')
        store = build_claims(statements_from(quads, fmt=FORMAT_NQUADS),
                             EntityClusterMap({}), policy=POLICY_NAMED_GRAPH)
        assert store.drop_counts == {"missing_graph": 1}
        key = ("http://x.org/e", "http://v.org/p")
        sources = {s for obj in store.conflict_sets[key].objects
                   for s in obj.sources}
        assert sources == {"one.example.org", "two.example.org"}


# statements that reach every drop reason under each policy: identity
# and literal sameAs, subjects and graphs with no host, triples under the
# graph policy, NULL and blank literals, and repeats of one claim
_XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"
CLAIM_SUBJECTS = ("http://a.example.org/e1", "http://b.example.org/e1",
                  "http://a.example.org/e2", "http://sub.a.example.co.uk/e1",
                  "urn:x:1")
CLAIM_OBJECTS = (("1", True, _XSD_INT), ("01", True, _XSD_INT),
                 ("1", True, None), ("x", True, None), (" x ", True, None),
                 ("NULL", True, None), ("", True, None),
                 ("1886-10-28", True, None), ("http://o.org/1", False, None),
                 ("http://b.example.org/e1", False, None))
CLAIM_STATEMENTS = strategies.lists(strategies.builds(
    lambda subject, predicate, obj, graph: RdfStatement(
        subject, predicate, *obj, graph=graph),
    strategies.sampled_from(CLAIM_SUBJECTS),
    strategies.sampled_from(("http://v.org/p", "http://v.org/q", OWL_SAMEAS)),
    strategies.sampled_from(CLAIM_OBJECTS),
    strategies.sampled_from((None, "http://g.example.org/g",
                             "http://a.example.org/g", "urn:g:1"))),
    max_size=30)


def same_store(store, ref):
    assert store.claims == ref.claims
    assert list(store.conflict_sets.items()) == \
        list(ref.conflict_sets.items())
    assert list(store.incidence.items()) == list(ref.incidence.items())
    assert store.drop_counts == ref.drop_counts


class TestBuildClaimsReference:
    @settings(max_examples=300, deadline=None)
    @given(CLAIM_STATEMENTS, strategies.sampled_from(POLICIES),
           strategies.dictionaries(strategies.sampled_from(CLAIM_SUBJECTS),
                                   strategies.sampled_from(CLAIM_SUBJECTS)),
           strategies.sampled_from(
               (None, {"http://v.org/q": "http://v.org/p"})))
    def test_matches_the_one_statement_at_a_time_build(
            self, statements, policy, cluster_of, alignment):
        clusters = EntityClusterMap(cluster_of)
        same_store(build_claims(statements, clusters, alignment, policy),
                   build_claims_ref(statements, clusters, alignment, policy))

    @pytest.mark.parametrize("policy, reasons", [
        ("host", {"sameas", "literal_sameas", "no_source", "null_object",
                  "duplicate"}),
        ("pld", {"sameas", "literal_sameas", "no_source", "null_object",
                 "duplicate"}),
        ("graph", {"sameas", "literal_sameas", "no_source", "null_object",
                   "duplicate", "missing_graph"}),
    ])
    def test_every_drop_reason(self, policy, reasons):
        # one list that takes each reason the policy can give, and the
        # same store from both builds
        graph = "http://g.example.org/g"
        rows = [("http://a.example.org/e1", OWL_SAMEAS,
                 "http://b.example.org/e1", False, None, graph),
                ("http://a.example.org/e1", OWL_SAMEAS, "x", True, None, graph),
                ("urn:x:1", "http://v.org/p", "x", True, None, "urn:g:1"),
                ("http://a.example.org/e1", "http://v.org/p", "NULL", True,
                 None, graph),
                ("http://a.example.org/e1", "http://v.org/p", "1", True,
                 _XSD_INT, graph),
                ("http://a.example.org/e1", "http://v.org/p", "01", True,
                 _XSD_INT, graph),
                ("http://b.example.org/e1", "http://v.org/p", "2", True,
                 _XSD_INT, graph),
                ("http://b.example.org/e1", "http://v.org/p", "2", True,
                 _XSD_INT, None)]
        statements = [RdfStatement(s, p, o, lit, dt, graph=g)
                      for s, p, o, lit, dt, g in rows]
        clusters = EntityClusterMap({"http://b.example.org/e1":
                                     "http://a.example.org/e1"})
        store = build_claims(statements, clusters, policy=policy)
        assert set(store.drop_counts) == reasons
        assert store.conflict_sets
        same_store(store, build_claims_ref(statements, clusters,
                                           policy=policy))


class TestAlignmentTable:
    def test_load_and_skip_comments(self, tmp_path):
        path = tmp_path / "alignment.tsv"
        path.write_text("# maps vocabularies\n"
                        "http://w.org/alt-height\thttp://v.org/height\n"
                        "\n", encoding="utf-8")
        table = load_alignment(str(path))
        assert table == {"http://w.org/alt-height": "http://v.org/height"}

    def test_byte_order_mark_is_not_part_of_the_first_row(self, tmp_path):
        path = tmp_path / "alignment.tsv"
        path.write_text("http://a.org/p\tP\n", encoding="utf-8-sig")
        assert load_alignment(str(path)) == {"http://a.org/p": "P"}

    def test_bad_row(self, tmp_path):
        path = tmp_path / "alignment.tsv"
        path.write_text("only-one-column\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_alignment(str(path))

    def test_conflicting_rows(self, tmp_path):
        path = tmp_path / "alignment.tsv"
        path.write_text("http://a.org/p\tP\nhttp://a.org/p\tP\n",
                        encoding="utf-8")
        assert load_alignment(str(path)) == {"http://a.org/p": "P"}
        path.write_text("http://a.org/p\tP\nhttp://a.org/p\tQ\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="'http://a.org/p' to both "
                                             "'P' and 'Q'"):
            load_alignment(str(path))
