"""The type-string parsers agree with a one-character-at-a-time reference scanner.

``reference_scan`` reads a type string one character at a time.  It is the
specification of the package's scanner, which cuts terms with str methods:
every accepted string gives the same terms, and every rejected one the same
``ParseError`` position and message.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp2forms.enumeration import jordan_types, symplectic_types
from sp2forms.hesselink import EpsilonTaggedType, SymplecticType
from sp2forms.jordan import JordanType, ParseError


def _skip_ws(text, pos):
    while pos < len(text) and text[pos] == " ":
        pos += 1
    return pos


def _scan_int(text, pos, what):
    pos = _skip_ws(text, pos)
    start = pos
    while pos < len(text) and text[pos] in "0123456789":
        pos += 1
    if pos == start:
        raise ParseError(text, start, f"expected {what}")
    return int(text[start:pos]), pos


def _strip_parens(text):
    inner = text.strip(" ")
    if inner.startswith("(") and inner.endswith(")"):
        return inner[1:-1]
    return text


def reference_scan(text, tagged):
    text = _strip_parens(text)
    pos = _skip_ws(text, 0)
    if pos < len(text) and text[pos] == "0":
        tail = _skip_ws(text, pos + 1)
        if tail == len(text):
            return ()
        raise ParseError(text, tail, "unexpected input after '0'")
    terms = {}
    while True:
        at = _skip_ws(text, pos)
        d, pos = _scan_int(text, pos, "block size")
        if d == 0:
            raise ParseError(text, at, "block size must be positive")
        if tagged:
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != "_":
                raise ParseError(text, pos, "expected '_' and an eps tag")
            e, pos = _scan_int(text, pos + 1, "eps tag")
            if e not in (0, 1):
                raise ParseError(text, pos - 1, f"eps tag must be 0 or 1, got {e}")
        m = 1
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] == "^":
            m, pos = _scan_int(text, pos + 1, "multiplicity")
            if m == 0:
                raise ParseError(text, pos - 1, "multiplicity must be positive")
        if d in terms:
            raise ParseError(text, at, f"duplicate block size {d}")
        terms[d] = (d, m, e) if tagged else (d, m)
        pos = _skip_ws(text, pos)
        if pos == len(text):
            return tuple(sorted(terms.values()))
        if text[pos] != ",":
            raise ParseError(text, pos, f"expected ',' or end of input, got {text[pos]!r}")
        pos += 1


def _outcome(parse, text):
    """The value, or the error's class, message and (for a ParseError) position."""
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "parse error", exc.pos, exc.args[0]
    except ValueError as exc:  # the value's own validation, e.g. eps = 1 on an odd size
        return type(exc), str(exc)


PARSERS = [
    (JordanType, False),
    (EpsilonTaggedType, True),
    (SymplecticType, True),
]


def _assert_agrees(text):
    for cls, tagged in PARSERS:
        got = _outcome(cls.parse, text)
        want = _outcome(lambda t: cls(reference_scan(t, tagged)), text)
        assert got == want, (cls.__name__, text)


# Every character either grammar gives a meaning to, and some it rejects:
# a tab, a superscript two, an Arabic-Indic three and letters.
ALPHABET = "0123456789_^, ()\t²٣ax"


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=14))
@example("")
@example("0")
@example(" 0 ")
@example("03")
@example("3,03")
@example("3,00")
@example("3^01")
@example("2_01^2")
@example("2_1^2_0")
@example("1_0_1")
@example("(3, 5)")
@example("\t(3,5)\n")
@example("\t3,5")
@example("3,5\n")
@example("3\t")
@example("3,,5")
@example("3^")
@example("٣")
@example("3^²")
@example("1" * 5000)  # past int()'s digit limit
@example(" 3")
@example("(3)")
@example("3,3")
@example("3^0")
@example("3_2")
@example("3,")
@example("2_1,2_1")
@example("2_1^0")
@example("2_1,")
def test_parsers_agree_on_any_string(text):
    _assert_agrees(text)


_FIELD = st.one_of(st.integers(0, 40).map(str), st.sampled_from(["", "00", "01", "²", "٣", " 1", "1 "]))


@st.composite
def _typed_strings(draw):
    """Strings shaped like the grammars, valid or nearly so, so both paths see many of them."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        term = draw(_FIELD)
        if draw(st.booleans()):
            term += "_" + draw(st.sampled_from(["0", "1", "2", "", "01"]))
        if draw(st.booleans()):
            term += "^" + draw(_FIELD)
        terms.append(term)
    text = draw(st.sampled_from([",", ",", ",", ", ", " ,"])).join(terms)  # mostly plain
    return draw(st.sampled_from(["{}", "{}", "{}", "({})", " {} ", "{}x"])).format(text)


@settings(max_examples=300, deadline=None)
@given(_typed_strings())
def test_parsers_agree_on_typed_strings(text):
    _assert_agrees(text)


@pytest.mark.parametrize("n", range(13))
def test_renderings_parse_back(n):
    for j in jordan_types(n):
        assert JordanType.parse(str(j)) == j
        assert JordanType.parse(j.pretty()) == j
    for s in symplectic_types(n):
        for cls in (EpsilonTaggedType, SymplecticType):
            assert cls.parse(str(s)) == s
            assert cls.parse(s.pretty()) == s


@pytest.mark.parametrize("text", ["\t(3,5)\n", "\t3,5", "3,5\n"])
def test_only_spaces_surround_a_type(text):
    # tabs and newlines are not stripped, with or without parentheses
    for cls, _ in PARSERS:
        with pytest.raises(ParseError):
            cls.parse(text)
