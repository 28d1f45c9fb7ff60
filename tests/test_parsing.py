"""The type-string parsers agree with a one-character-at-a-time reference scanner.

``reference_scan`` reads a type string one character at a time.  It is the
specification of the package's scanner, which cuts terms with str methods:
every accepted string gives the same terms, and every rejected one the same
``ParseError`` position and message.  The scanner looks each term up in a
cache of terms already read, so every string is checked from empty caches
and again with warm ones.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sp2forms import hesselink, jordan
from sp2forms.enumeration import jordan_types, symplectic_types
from sp2forms.hesselink import EpsilonTaggedType, SymplecticType
from sp2forms.jordan import JordanType, ParseError

TERM_CACHES = (*jordan._READ_TERMS, jordan._BLOCK_TEXTS, hesselink._ENTRY_TEXTS)


def _clear_term_caches():
    for cache in TERM_CACHES:
        cache.clear()


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


def _assert_agrees_cold_and_warm(text):
    # from empty caches, then with every term of the text that could be stored already stored
    _clear_term_caches()
    _assert_agrees(text)
    _assert_agrees(text)


def _warm(texts):
    for text in texts:
        for cls, _ in PARSERS:
            _outcome(cls.parse, text)


# Every character either grammar gives a meaning to, and some it rejects:
# a tab, a superscript two, an Arabic-Indic three and letters.
ALPHABET = "0123456789_^, ()\t²٣ax"

EXAMPLES = (
    "",
    "0",
    " 0 ",
    "03",
    "3,03",
    "3,00",
    "3^01",
    "2_01^2",
    "2_1^2_0",
    "1_0_1",
    "(3, 5)",
    "\t(3,5)\n",
    "\t3,5",
    "3,5\n",
    "3\t",
    "3,,5",
    "3^",
    "٣",
    "3^²",
    "1" * 5000,  # past int()'s digit limit
    " 3",
    "(3)",
    "3,3",
    "3^0",
    "3_2",
    "3,",
    "2_1,2_1",
    "2_1^0",
    "2_1,",
    "3,²",  # a stored term next to a character no term can take
    "5,3",
    "2_01,4_1",  # stored terms that come back at another position
    "4_1,2_01",
)


def _with_examples(test):
    for text in reversed(EXAMPLES):
        test = example(text)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=14))
@_with_examples
def test_parsers_agree_on_any_string(text):
    _assert_agrees_cold_and_warm(text)


def test_parsers_agree_with_caches_warmed_by_the_examples():
    _clear_term_caches()
    _warm(EXAMPLES)
    assert all(jordan._READ_TERMS)  # both grammars stored terms, so the lookups below are exercised
    for text in EXAMPLES:
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
    _assert_agrees_cold_and_warm(text)


@settings(max_examples=100, deadline=None)
@given(st.lists(_typed_strings(), min_size=1, max_size=20))
def test_parsers_agree_with_caches_warmed_by_typed_strings(texts):
    _clear_term_caches()
    _warm(texts)
    for text in texts:
        _assert_agrees(text)


@pytest.mark.parametrize("cls, text, size, pos", [(JordanType, "3,3", 3, 2), (EpsilonTaggedType, "2_1,2_1", 2, 4)])
def test_a_duplicate_of_a_stored_term_is_reported_where_it_starts(cls, text, size, pos):
    want = ("parse error", pos, f"duplicate block size {size} at position {pos}")
    _clear_term_caches()
    assert _outcome(cls.parse, text) == want  # the first copy is stored before the second is looked up
    _clear_term_caches()
    cls.parse(text.partition(",")[0])
    assert _outcome(cls.parse, text) == want


@pytest.mark.parametrize("text", [" 3", "3 ", "2_1^ 2", "3x", "3^0", "²", "٣", pytest.param("1" * 5000, id="5000 ones")])
def test_terms_off_the_fast_path_are_never_stored(text):
    # the fast path is the lookup of a stored term, and a term is stored only when it reads with nothing left over and
    # contains no space: here a space, a character no field takes, a zero multiplicity, non-ASCII digits and a size
    # past int()'s digit limit
    _clear_term_caches()
    _warm([text])
    assert not any(jordan._READ_TERMS)
    _warm(["3,5^2", "2_1^2,3_0"])
    assert jordan._READ_TERMS == ({"3": (3, 1), "5^2": (5, 2)}, {"2_1^2": (2, 2, 1), "3_0": (3, 1, 0)})


@pytest.mark.parametrize("text, stored", [
    pytest.param("2_01", ({}, {"2_01": (2, 1, 1)}), id="2_01"),
    pytest.param("3,²", ({"3": (3, 1)}, {}), id="3 before a superscript two"),
])
def test_clean_terms_are_stored_under_their_exact_text(text, stored):
    _clear_term_caches()
    _warm([text])
    assert jordan._READ_TERMS == stored


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_typed_strings(), st.text(alphabet=ALPHABET, max_size=14)), min_size=1, max_size=20))
def test_stored_keys_are_plain_terms(texts):
    # after any warming, every key is ASCII digits, "^" and "_", and reads as its stored entry after a first term, as
    # a key such as "03" is only ever met; that first size is longer than any key
    _clear_term_caches()
    _warm(EXAMPLES)
    _warm(texts)
    first = ("9" * 15, "9" * 15 + "_0")
    for grammar, known in enumerate(jordan._READ_TERMS):
        for term, entry in known.items():
            assert term and not term.strip("0123456789^_"), term
            assert reference_scan(f"{first[grammar]},{term}", grammar)[0] == entry


def test_term_caches_stop_at_the_cap():
    # more distinct terms than the cap, each parsed and printed; the outputs are those of the uncached reading
    _clear_term_caches()
    cap = jordan.TERM_CACHE_SIZE
    for d in range(1, cap + 500):
        j, s = JordanType(((d, 2),)), EpsilonTaggedType(((2 * d, 3, 1),))
        assert str(j) == f"{d}^2" and JordanType.parse(f"{d}^2") == j
        assert str(s) == f"{2 * d}_1^3" and EpsilonTaggedType.parse(f"{2 * d}_1^3") == s
    assert [len(cache) for cache in TERM_CACHES] == [cap] * 4
    assert str(JordanType(((1, 2), (cap + 600, 1)))) == f"1^2,{cap + 600}"  # a hit and a miss past the cap
    assert JordanType.parse(f"1^2,{cap + 600}") == JordanType(((1, 2), (cap + 600, 1)))
    assert [len(cache) for cache in TERM_CACHES] == [cap] * 4


@pytest.mark.parametrize("bool_first", [True, False], ids=["bool first", "int first"])
def test_bool_fields_print_as_digits(bool_first):
    # True == 1 and they hash alike, so a stored text must not depend on which of the two was printed first
    pairs = [
        (JordanType(((True, 2),)), JordanType(((1, 2),)), "1^2"),
        (JordanType(((3, True),)), JordanType(((3, 1),)), "3"),
        (EpsilonTaggedType(((2, 1, True),)), EpsilonTaggedType(((2, 1, 1),)), "2_1"),
        (EpsilonTaggedType(((True, 2, False),)), EpsilonTaggedType(((1, 2, 0),)), "1_0^2"),
    ]
    _clear_term_caches()
    for with_bool, with_int, text in pairs:
        for value in (with_bool, with_int) if bool_first else (with_int, with_bool):
            assert str(value) == text
            assert type(value).parse(str(value)) == value


def _printed(cases):
    """Each (class name, entries) case's ``str`` and ``pretty`` texts, or its exception's class name and message."""
    import sp2forms  # this function also runs from its source alone, in a fresh process

    out = []
    for name, entries in cases:
        try:
            value = getattr(sp2forms, name)(entries)
            out.append((str(value), value.pretty()))
        except (TypeError, ValueError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


@st.composite
def _drawn_cases(draw):
    """Cases of each class with increasing sizes, each field drawn as its int, its float or (for 0 and 1) its bool."""
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(["JordanType", "EpsilonTaggedType", "SymplecticType"]))
        entries = []
        for d in sorted(draw(st.sets(st.integers(1, 6), max_size=3))):
            fields = (d, draw(st.integers(1, 3))) + ((draw(st.integers(0, 1)),) if name != "JordanType" else ())
            forms = [(x, float(x), bool(x)) if x < 2 else (x, float(x)) for x in fields]
            entries.append(tuple(draw(st.sampled_from(form)) for form in forms))
        cases.append((name, tuple(entries)))
    return cases


@settings(max_examples=15, deadline=None)
@given(_drawn_cases())
def test_printers_do_not_depend_on_the_caches(cases):
    # the same text, or the same exception, in a fresh process and here after the same entries were printed as ints
    code = f"{inspect.getsource(_printed)}\nimport ast, sys\nprint(repr(_printed(ast.literal_eval(sys.argv[1]))))"
    env = {**os.environ, "PYTHONPATH": str(Path(jordan.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, repr(cases)], env=env, capture_output=True, text=True, check=True)
    _printed([(name, tuple(tuple(map(int, entry)) for entry in entries)) for name, entries in cases])
    assert _printed(cases) == ast.literal_eval(done.stdout)


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
