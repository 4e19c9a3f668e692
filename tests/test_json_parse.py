"""Input files are parsed by orjson where it agrees with ``json.loads``.

``io._loads`` must return what ``json.loads`` returns, to the type and
the bit, and raise what it raises, on every text, given the routing of
``io._orjson_agrees`` on the text's bytes.  The loaders must give the
same families, matrices, warnings and errors as the ``json.loads`` route
alone, which is the loader without orjson.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumspaces import io


def parse(text):
    """What ``io._read_object`` makes of a file holding ``text``."""
    return io._loads(text, io._orjson_agrees(text.encode()))


def same(a, b):
    """Equal types and values throughout; floats are compared as int64 bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


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
_ESCAPES = st.sampled_from(
    ['"\\ud83d\\ude00"', '"\\u00e9\\n\\t\\"\\\\"', '"[{\\"]}"', '"a\\\\"',
     '"1234567890123456789012"', '"true"']
)
# leaves that orjson parses as json.loads does
_PLAIN_LEAVES = st.one_of(
    _FLOATS.map(json.dumps),
    st.integers(-(10**18), 10**18).map(str),
    _DECIMALS,
    _TEXT.map(json.dumps),
    _ESCAPES,
    st.sampled_from(["true", "false", "null"]),
)
# and leaves that send the document to json.loads
_LEAVES = st.one_of(
    _PLAIN_LEAVES,
    _LONG_INTEGERS.map(str),
    _LONG_DECIMALS,
    st.builds(json.dumps, _TEXT, ensure_ascii=st.just(False)),
    st.sampled_from(['"\\ud800"', '"\\udc00x"', "1e400", "NaN", "Infinity", "-Infinity"]),
)
_SEPARATORS = st.sampled_from([",", ", ", ",\n  ", " ,\t"])


@st.composite
def _arrays(draw, children):
    return "[" + draw(_SEPARATORS).join(draw(st.lists(children, max_size=4))) + "]"


@st.composite
def _objects(draw, children):
    keys = st.one_of(_TEXT.map(json.dumps), _ESCAPES)
    pairs = draw(st.lists(st.tuples(keys, children), max_size=4))
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
def json_texts(draw):
    """JSON texts, about a third of them damaged by one edit.

    Half are made of leaves that orjson parses; the others hold any leaf.
    """
    text = draw(st.one_of(_documents(_PLAIN_LEAVES), _documents(_LEAVES)))
    edit = draw(st.sampled_from([None, None, "insert", "delete", "truncate"]))
    if edit is not None and text:
        i = draw(st.integers(0, len(text) - 1))
        if edit == "insert":
            char = draw(st.sampled_from(list(',]}"\\-.e0 N\x00\ufeff')))
            text = text[:i] + char + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i]
    return draw(st.sampled_from(["", "", "", " ", "\ufeff"])) + text


@settings(max_examples=400, deadline=None)
@given(json_texts())
def test_parse_matches_json_loads(text):
    expected, expected_error = outcome(json.loads, text)
    got, error = outcome(parse, text)
    assert error == expected_error
    assert same(got, expected)


@pytest.mark.parametrize(
    "data",
    [
        b"[1234567890123456789]",
        b"[-1234567890123456789]",
        b"1234567890123456789",
        b'{"n":1234567890123456789}',
        b'{"n": 1234567890123456789}',
        b"[0,\n1234567890123456789]",
        b"[1234567890123456789.5]",
        b"[1e-0000000000000000001]",
        b"[" * 65 + b"]" * 65,
        b'{"a": ' * 65 + b"1" + b"}" * 65,
        '["é"]'.encode(),
        b"\xef\xbb\xbf{}",
    ],
)
def test_routed_to_json_loads(data):
    assert not io._orjson_agrees(data)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"[123456789012345678]",
        b"[0.1234567890123456789012]",
        b"[1.5e+0000000000000000001]",
        b'["1234567890123456789"]',
        b"[" * 64 + b"]" * 64,
        b'[["[[[[[[", "\\\\"], "\\"[[[["]' + b"[" * 62 + b"]" * 62,
        b'{"\\u00e9": [NaN, Infinity]}',
    ],
)
def test_routed_to_orjson(data):
    assert io._orjson_agrees(data)


FAMILY = '{"ambient_dim": %s, "subspaces": [{"name": %s, "vectors": [[%s, 0.5]]}]}'
MATRIX = '{"n": %s, "entries": [[0.0, %s], [%s, 0.0]]}'
NUMBERS = [
    "NaN", "Infinity", "-Infinity", "1e400", "-1e-400",
    "-9223372036854775809", "18446744073709551616", "123456789012345678901",
]
DEEP = "[" * 100_000 + "]" * 100_000
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


@pytest.mark.parametrize(
    "loader, text",
    [(io.load_family, t) for t in FAMILY_CORPUS.values()]
    + [(io.load_ematrix, t) for t in MATRIX_CORPUS.values()],
    ids=[f"family-{k}" for k in FAMILY_CORPUS] + [f"matrix-{k}" for k in MATRIX_CORPUS],
)
def test_edge_corpus_loads_as_through_json_loads(tmp_path, monkeypatch, loader, text):
    path = tmp_path / "edge.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    got = load_outcome(loader, path)
    monkeypatch.setattr(io, "_orjson_agrees", lambda data: False)
    assert got == load_outcome(loader, path)


@pytest.mark.parametrize(
    "text, error",
    [
        (FAMILY % ("2", '"A"', "NaN"), "subspace 'A': vectors must be finite"),
        (FAMILY % ("2", '"A"', "18446744073709551616"), "subspace 'A': vectors must be JSON numbers"),
        (FAMILY % ("2", '"A"', "-9223372036854775809"), "subspace 'A': vectors must be JSON numbers"),
        (FAMILY % ("123456789012345678901", '"A"', "1.0"), "vectors must all have length"),
        (DEEP, "family file is nested too deeply"),
    ],
    ids=["nan", "2**64", "-2**63-1", "21-digit-ambient_dim", "nested-100k"],
)
def test_edge_corpus_errors(tmp_path, text, error):
    path = tmp_path / "edge.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=error):
        io.load_family(path)


class TestRouting:
    @pytest.fixture
    def json_loads_calls(self, monkeypatch):
        calls = []
        loads = json.loads

        def spy(text, *args, **kwargs):
            calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        return calls

    def test_plain_family_needs_no_json_loads(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.json"
        path.write_text(FAMILY % ("2", '"A"', "1.0"))

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", refuse)
        family, names = io.load_family(path)
        assert names == ["A"] and family.members[0].dim == 1

    @pytest.mark.parametrize("x", ["NaN", "12345678901234567890"])
    def test_fallback_reaches_json_loads(self, tmp_path, json_loads_calls, x):
        path = tmp_path / "fallback.json"
        path.write_text(FAMILY % ("2", '"A"', x))
        outcome(io.load_family, path)
        assert json_loads_calls == [path.read_text()]

    def test_plain_matrix_reaches_orjson_only(self, tmp_path, json_loads_calls):
        path = tmp_path / "e.json"
        path.write_text(MATRIX % ("2", "0.5", "0.5"))
        assert io.load_ematrix(path).n == 2
        assert json_loads_calls == []
