"""Input files are parsed by orjson alone.

``json.loads`` is the reference for orjson's number and string parsing:
orjson must parse every UTF-8 text it accepts as ``json.loads`` parses
it, to the type and the bit, but for integer literals outside 64 bits,
which it reads as floats of magnitude 2**63 or more.  orjson must refuse
the texts that are not JSON (RFC 8259): ``NaN``, ``Infinity``, ``1e400``,
a lone surrogate escape and a byte order mark.  Each file of an edge
corpus is pinned to the value it loads to or the error it gives, and
each file is parsed once, by orjson, with no second ``json.loads`` parse.
"""

import json
import re
import warnings

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumspaces import io
from sumspaces.cli import main
from sumspaces.counterexamples import CounterexampleSpec, build_counterexample, geometric_alphas
from sumspaces.criterion import EMatrix


def same(got, expected):
    """Equal types and values throughout; floats are compared as int64 bits.

    Where ``expected`` holds an integer outside ``[-2**63, 2**64)``,
    ``got`` must hold a float of magnitude 2**63 or more, as orjson reads
    one.
    """
    if type(expected) is int and not -(2**63) <= expected < 2**64:
        return type(got) is float and abs(got) >= 2**63
    if type(got) is not type(expected):
        return False
    if isinstance(got, float):
        return np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)
    if isinstance(got, list):
        return len(got) == len(expected) and all(map(same, got, expected))
    if isinstance(got, dict):
        return list(got) == list(expected) and all(same(got[k], expected[k]) for k in got)
    return got == expected


def outcome(fn, *args):
    """``fn(*args)``'s value, or its exception's type and message."""
    try:
        return fn(*args), None
    except Exception as exc:  # the exception itself is the result compared
        return None, (type(exc), str(exc))


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, 0.1, 1 / 3, 9007199254740993.0]
    ),
)
# integers about +-2**63 and 2**64, and of 19 digits or more
_LONG_INTEGERS = st.one_of(
    st.integers(-(2**63) - 3, -(2**63) + 3),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(2**64 - 3, 2**64 + 3),
    st.integers(-(10**40), 10**40),
    st.integers(10**19, 10**25).map(lambda i: -i),
)
# literals that repr never writes: 20 to 40 digits, exponents, halfway cases
_DECIMALS = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,5})\.[0-9]{20,40}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
    st.sampled_from(
        ["2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "-1e-400",
         "0.30000000000000004441", "9007199254740993.0000000000000001",
         "1.7976931348623158079e308", "1e00000000000000000000001", "-0", "-0.0e0"]
    ),
)
_LONG_DECIMALS = st.from_regex(
    r"-?[1-9][0-9]{19,39}(\.[0-9]+)?([eE][+-]?[0-9]{1,3})", fullmatch=True
)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
# strings as json.dumps writes them: escaped, or with raw non-ASCII text
_STRINGS = st.one_of(
    _TEXT.map(json.dumps),
    st.builds(json.dumps, _TEXT, ensure_ascii=st.just(False)),
    st.sampled_from(
        ['"\\ud83d\\ude00"', '"\\u00e9\\n\\t\\"\\\\"', '"[{\\"]}"', '"a\\\\"',
         '"1234567890123456789012"', '"true"', '"\u00e9\ufffe\uffff\U0001f600"']
    ),
)
# leaves that orjson accepts
_PLAIN_LEAVES = st.one_of(
    _FLOATS.map(json.dumps),
    st.integers(-(10**18), 10**18).map(str),
    _DECIMALS,
    _STRINGS,
    st.sampled_from(["true", "false", "null"]),
    _LONG_INTEGERS.map(str),
    _LONG_DECIMALS,
)
# and leaves that it refuses
_LEAVES = st.one_of(
    _PLAIN_LEAVES,
    st.sampled_from(['"\\ud800"', '"\\udc00x"', "1e400", "NaN", "Infinity", "-Infinity"]),
)
_SEPARATORS = st.sampled_from([",", ", ", ",\n  ", " ,\t"])
# UTF-8 edge cases: surrogates encoded in UTF-8, overlong forms, truncated
# sequences, a code point above U+10FFFF, bytes UTF-8 never uses,
# U+FFFE and U+FFFF, and the no-break space, which is not JSON whitespace
_UTF8_EDGES = [
    b"\xed\xa0\x80", b"\xed\xbf\xbf", b"\xed\xa0\xbd\xed\xb8\x80",
    b"\xc0\xaf", b"\xc1\xbf", b"\xe0\x80\xaf", b"\xf0\x80\x80\xaf",
    b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xf4\x90\x80\x80", b"\xfe", b"\xff",
    b"\xef\xbf\xbe", b"\xef\xbf\xbf", b"\xc2\xa0",
]


@st.composite
def _arrays(draw, children):
    return "[" + draw(_SEPARATORS).join(draw(st.lists(children, max_size=4))) + "]"


@st.composite
def _objects(draw, children):
    pairs = draw(st.lists(st.tuples(_STRINGS, children), max_size=4))
    sep = draw(_SEPARATORS)
    # keys may repeat: the last value wins, in the place of the first
    return "{" + sep.join(f"{key}: {value}" for key, value in pairs) + "}"


def _documents(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(_arrays(children), _objects(children)),
        max_leaves=30,
    )


@st.composite
def json_documents(draw):
    """UTF-8 bytes of JSON texts, about a third of them damaged by one edit.

    Half are made of leaves that orjson accepts; the others hold any leaf.
    An edit inserts, deletes or truncates at a byte, so it may also cut a
    multi-byte character or insert one of ``_UTF8_EDGES``.
    """
    text = draw(st.one_of(_documents(_PLAIN_LEAVES), _documents(_LEAVES)))
    data = text.encode()
    edit = draw(st.sampled_from([None, None, "insert", "delete", "truncate"]))
    if edit is not None:
        i = draw(st.integers(0, len(data) - 1))
        if edit == "insert":
            inserts = [c.encode() for c in ',]}"\\-.e0 N\x00\ufeff'] + _UTF8_EDGES
            data = data[:i] + draw(st.sampled_from(inserts)) + data[i:]
        elif edit == "delete":
            data = data[:i] + data[i + 1:]
        else:
            data = data[:i]
    return draw(st.sampled_from([b"", b"", b"", b" ", b"\xef\xbb\xbf", b"\xc2\xa0"])) + data


def parses_alike(data):
    """Whether orjson refuses ``data`` or reads it as ``json.loads`` does."""
    try:
        got = orjson.loads(data)
    except orjson.JSONDecodeError:
        return True  # the loaders reject such a file
    # orjson accepted it, so it must be UTF-8, and JSON to json.loads
    return same(got, json.loads(data.decode("utf-8")))


@settings(max_examples=400, deadline=None)
@given(json_documents())
def test_parse_matches_json_loads(data):
    assert parses_alike(data)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"1234567890123456789",
        b"[1234567890123456789]",
        b"[-1234567890123456789]",
        b"[123456789012345678]",
        b'{"n":1234567890123456789}',
        b'{"n": 1234567890123456789}',
        b"[0,\n1234567890123456789]",
        b"[1234567890123456789.5]",
        b"[0.1234567890123456789012]",
        b"[1e-0000000000000000001]",
        b"[1.5e+0000000000000000001]",
        b'["1234567890123456789"]',
        b"[" * 64 + b"]" * 64,
        b"[" * 65 + b"]" * 65,
        b'{"a": ' * 65 + b"1" + b"}" * 65,
        b'[["[[[[[[", "\\\\"], "\\"[[[["]' + b"[" * 62 + b"]" * 62,
        '["é"]'.encode(),
        b'{"\\u00e9": [NaN, Infinity]}',
        b"\xef\xbb\xbf{}",
    ],
)
def test_boundary_texts_parse_alike(data):
    # 19-digit literals, long exponents and fractions, digits in strings,
    # nesting about 64 deep, brackets in strings, non-ASCII text, NaN and a
    # byte order mark
    assert parses_alike(data)


@pytest.mark.parametrize(
    "data",
    [b"[NaN]", b"[Infinity]", b"[-Infinity]", b"[1e400]", b'["\\ud800"]', b"\xef\xbb\xbf{}"],
    ids=["NaN", "Infinity", "-Infinity", "1e400", "lone-surrogate", "bom"],
)
def test_texts_that_are_not_json_are_refused(data):
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(data)


FAMILY = '{"ambient_dim": %s, "subspaces": [{"name": %s, "vectors": [[%s, 0.5]]}]}'
MATRIX = '{"n": %s, "entries": [[0.0, %s], [%s, 0.0]]}'
NUMBERS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e-400",
    "-9223372036854775809", "18446744073709551616", "123456789012345678901",
]
DEEP = "[" * 100_000 + "]" * 100_000
NOT_STRINGS = ["null", "true", "1e300", "[1]"]
FAMILY_CORPUS = {
    **{f"vectors-{x}": FAMILY % ("2", '"A"', x) for x in NUMBERS},
    **{f"ambient_dim-{x}": FAMILY % (x, '"A"', "1.0") for x in NUMBERS[5:]},
    "lone-surrogate-name": FAMILY % ("2", '"\\ud800"', "1.0"),
    "bom": "\ufeff" + FAMILY % ("2", '"A"', "1.0"),
    "duplicate-keys": FAMILY[:-1] % ("3", '"A"', "1.0")
    + ', "ambient_dim": 2, "subspaces": [{"vectors": [[0.0, 1.0]], "name": "B", "name": "C"}]}',
    "nested-100k": DEEP,
    "nested-100k-in-object": FAMILY[:-1] % ("2", '"A"', "1.0") + ', "x": ' + DEEP + "}",
    "nested-100": FAMILY[:-1] % ("2", '"A"', "1.0") + ', "x": ' + "[" * 100 + "]" * 100 + "}",
    "nested-2000": FAMILY[:-1] % ("2", '"A"', "1.0") + ', "x": ' + "[" * 2000 + "]" * 2000 + "}",
    "rank-deficient": FAMILY.replace("[[%s, 0.5]]", "[[%s, 0.5], [2.0, 1.0]]") % ("2", '"A"', "1.0"),
    **{f"name-{x}": FAMILY % ("2", x, "1.0") for x in NOT_STRINGS},
    "name-nested-2000": FAMILY % ("2", "[" * 2000 + "]" * 2000, "1.0"),
}
MATRIX_CORPUS = {
    **{f"entries-{x}": MATRIX % ("2", x, x) for x in NUMBERS},
    **{f"n-{x}": MATRIX % (x, "0.5", "0.5") for x in NUMBERS[5:]},
    "bom": "\ufeff" + MATRIX % ("2", "0.5", "0.5"),
    "duplicate-keys": '{"n": 3, "entries": [[0.0]], "n": 2, "entries": [[0.0, 1], [1, 0.0]]}',
    "nested-100k": DEEP,
    "nested-100k-in-object": MATRIX[:-1] % ("2", "0.5", "0.5") + ', "x": ' + DEEP + "}",
    "nested-2000": MATRIX[:-1] % ("2", "0.5", "0.5") + ', "x": ' + "[" * 2000 + "]" * 2000 + "}",
}


def not_json(kind, column):
    """The start of the error for a file orjson refuses at line 1, ``column``.

    Only the prefix and the position are pinned: orjson's own wording may
    change between its versions.
    """
    return rf"{kind} file is not valid JSON: .*\bline 1 column {column}\b"


def loads_as(text, notices=()):
    """The outcome of loading ``text``, a plain file, with these notices."""
    return text, list(notices)


# long integer entries load as the nearest double, and ambient_dim and n
# must be integers
FAMILY_OUTCOMES = {
    "vectors-NaN": not_json("family", 61),
    "vectors-Infinity": not_json("family", 61),
    "vectors--Infinity": not_json("family", 61),
    "vectors-1e400": not_json("family", 61),
    "vectors--1e-400": loads_as(FAMILY % ("2", '"A"', "-0.0")),
    "vectors--9223372036854775809": loads_as(FAMILY % ("2", '"A"', "-9.223372036854776e+18")),
    "vectors-18446744073709551616": loads_as(FAMILY % ("2", '"A"', "1.8446744073709552e+19")),
    "vectors-123456789012345678901": loads_as(FAMILY % ("2", '"A"', "1.2345678901234568e+20")),
    **{
        f"ambient_dim-{x}": re.escape("family file: 'ambient_dim' must be a JSON integer")
        for x in NUMBERS[5:]
    },
    "lone-surrogate-name": not_json("family", 50),
    "bom": not_json("family", 1),
    "duplicate-keys": loads_as(
        '{"ambient_dim": 2, "subspaces": [{"name": "C", "vectors": [[0.0, 1.0]]}]}'
    ),
    "nested-100k": "family file must be a JSON object",
    "nested-100k-in-object": loads_as(FAMILY % ("2", '"A"', "1.0")),
    "nested-100": loads_as(FAMILY % ("2", '"A"', "1.0")),
    "nested-2000": loads_as(FAMILY % ("2", '"A"', "1.0")),
    "rank-deficient": loads_as(
        FAMILY_CORPUS["rank-deficient"],
        ["subspace 'A': numerical rank 1 is below the 2 supplied vectors"],
    ),
    **{
        f"name-{x}": re.escape("subspace entry 0: name must be a JSON string")
        for x in [*NOT_STRINGS, "nested-2000"]
    },
}
MATRIX_OUTCOMES = {
    "entries-NaN": not_json("matrix", 28),
    "entries-Infinity": not_json("matrix", 28),
    "entries--Infinity": not_json("matrix", 28),
    "entries-1e400": not_json("matrix", 28),
    "entries--1e-400": loads_as(MATRIX % ("2", "-0.0", "-0.0")),
    "entries--9223372036854775809": "entries must be nonnegative",
    "entries-18446744073709551616": loads_as(MATRIX % ("2", *["1.8446744073709552e+19"] * 2)),
    "entries-123456789012345678901": loads_as(MATRIX % ("2", *["1.2345678901234568e+20"] * 2)),
    **{f"n-{x}": re.escape("matrix file: 'n' must be a JSON integer") for x in NUMBERS[5:]},
    "bom": not_json("matrix", 1),
    "duplicate-keys": loads_as('{"n": 2, "entries": [[0.0, 1], [1, 0.0]]}'),
    "nested-100k": "matrix file must be a JSON object",
    "nested-100k-in-object": loads_as(MATRIX % ("2", "0.5", "0.5")),
    "nested-2000": loads_as(MATRIX % ("2", "0.5", "0.5")),
}


def load_outcome(loader, path):
    """The loaded family or matrix as plain values, or the error; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result, error = outcome(loader, path)
    if isinstance(result, tuple):  # a family and its names
        family, names = result
        result = names, [m.basis.view(np.int64).tolist() for m in family.members]
    elif result is not None:  # a matrix
        result = result.n, result.entries.view(np.int64).tolist()
    return result, error, [str(w.message) for w in caught]


def test_every_corpus_file_is_pinned():
    assert FAMILY_OUTCOMES.keys() == FAMILY_CORPUS.keys()
    assert MATRIX_OUTCOMES.keys() == MATRIX_CORPUS.keys()


@pytest.mark.parametrize(
    "loader, text, expected",
    [(io.load_family, FAMILY_CORPUS[k], v) for k, v in FAMILY_OUTCOMES.items()]
    + [(io.load_ematrix, MATRIX_CORPUS[k], v) for k, v in MATRIX_OUTCOMES.items()],
    ids=[f"family-{k}" for k in FAMILY_OUTCOMES] + [f"matrix-{k}" for k in MATRIX_OUTCOMES],
)
def test_edge_corpus_outcomes(tmp_path, capsys, loader, text, expected):
    path = tmp_path / "edge.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    result, error, notices = load_outcome(loader, path)
    if isinstance(expected, str):  # an error message
        assert result is None and error[0] is ValueError
        assert re.match(expected, error[1]), error[1]
    else:
        plain_text, expected_notices = expected
        plain = tmp_path / "plain.json"
        plain.write_text(plain_text)
        assert error is None and notices == expected_notices
        assert (result, error, notices) == load_outcome(loader, plain)
    # through the CLI: exit 1 with the error, or exit 0 with a notice at most
    if loader is io.load_family:
        argv = ["analyze", str(path)]
    else:
        argv = ["counterexample", str(path), "--blocks", "2", "--out", str(tmp_path / "f.json")]
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert (code, len(lines)) in {(0, 0), (0, 1), (1, 1)}, lines
    if error is not None:
        assert code == 1 and lines == [f"error: {error[1]}"]


class TestOneParse:
    """Each file is parsed once, by orjson, and never by ``json.loads``."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        loads = orjson.loads

        def spy(data):
            calls.append(data)
            return loads(data)

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(io.orjson, "loads", spy)
        monkeypatch.setattr(json, "loads", refuse)
        return calls

    def test_plain_family(self, tmp_path, parses):
        path = tmp_path / "plain.json"
        path.write_text(FAMILY % ("2", '"A"', "1.0"))
        family, names = io.load_family(path)
        assert names == ["A"] and family.members[0].dim == 1
        assert parses == [path.read_bytes()]

    # texts that the loaders once parsed a second time, with json.loads
    @pytest.mark.parametrize(
        "text, error",
        [
            (FAMILY % ("2", '"A"', "NaN"), "family file is not valid JSON"),
            (FAMILY % ("2", '"A"', "12345678901234567890"), None),
            (FAMILY % ("2", '"A"', "1e300"), None),
            (FAMILY[:-1] % ("2", '"A"', "1.0") + ', "note": "x"}', None),
            (FAMILY % ("2", "7", "1.0"), "subspace entry 0: name must be a JSON string"),
        ],
        ids=["NaN", "12345678901234567890", "1e300-entry", "extra-key", "numeric-name"],
    )
    def test_former_fallback_texts(self, tmp_path, parses, text, error):
        path = tmp_path / "once.json"
        path.write_text(text)
        result, raised = outcome(io.load_family, path)
        if error is None:
            assert raised is None and len(result[0].members) == 1
        else:
            assert result is None and raised[1].startswith(error)
        assert parses == [path.read_bytes()]

    def test_plain_matrix(self, tmp_path, parses):
        path = tmp_path / "e.json"
        path.write_text(MATRIX % ("2", "0.5", "0.5"))
        assert io.load_ematrix(path).n == 2
        assert parses == [path.read_bytes()]

    def test_written_counterexample(self, tmp_path, parses):
        ring = [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]]
        family = build_counterexample(CounterexampleSpec(EMatrix(4, ring), geometric_alphas(20)))
        path = tmp_path / "family.json"
        io.save_family(path, family)
        loaded, names = io.load_family(path)
        assert names == ["X1", "X2", "X3", "X4"]
        assert [m.dim for m in loaded.members] == [20] * 4
        assert parses == [path.read_bytes()]
