"""Input files are parsed by orjson, and by ``json.loads`` where orjson's
document could differ from its.

orjson must parse every UTF-8 text it accepts as ``json.loads`` parses
it, to the type and the bit, but for integer literals outside 64 bits,
which it reads as floats of magnitude 2**63 or more.  The loaders must
give the same families, matrices, warnings and errors as the
``json.loads`` route alone, which is the loader with orjson refusing
every file.
"""

import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumspaces import CounterexampleSpec, EMatrix, build_counterexample, geometric_alphas, io


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
        return True  # the loaders parse such a file again with json.loads
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


def refuse_orjson(data):
    """orjson refusing every file: the loaders then take the json.loads route."""
    raise orjson.JSONDecodeError("refused", "", 0)


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
    monkeypatch.setattr(io.orjson, "loads", refuse_orjson)
    assert got == load_outcome(loader, path)


_PLAIN_ENTRIES = st.one_of(
    st.floats(0.0, 2.0).map(json.dumps),
    st.sampled_from(["0.0", "-0.0", "1", "0.5", "5e-324", "2.2250738585072014e-308"]),
)
# entries that orjson refuses, that the loaders leave to json.loads (1e300,
# integers of magnitude 2**63 or more, which orjson reads as floats from
# 2**64 on), or that are not numbers
_ODD_ENTRIES = st.sampled_from(
    ["1e300", "NaN", "-Infinity", "1e400",
     *map(str, [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 10**20]),
     "true", "null", '"1"']
)
_ODD_SIZES = st.sampled_from(["2.0", "0", str(2**63), str(2**64), str(10**20), "true", '"2"'])
_PLAIN_NAMES = st.one_of(
    st.sampled_from(['"A"', '"\\u00e9\\"\\\\"', '"\\ud83d\\ude00"']),
    st.builds(json.dumps, _TEXT, ensure_ascii=st.just(False)),
)
_DEEP_2000 = "[" * 2000 + "]" * 2000
_ODD_NAMES = st.sampled_from(
    ['"\\ud800"', "7", "1e300", str(2**64), str(-(2**63) - 1), str(10**20), "true", "[1]", _DEEP_2000]
)
# values under keys that the loaders do not read
_EXTRAS = st.sampled_from(['"x"', str(2**64), _DEEP_2000])


def _json_text(value):
    """``value`` as JSON text; strings in it are already JSON texts."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    return value


def _shuffled(draw, obj):
    return dict(draw(st.permutations(list(obj.items()))))


@st.composite
def family_files(draw):
    """``load_family`` and the text of a family file, about half with one odd part.

    The odd part is an entry, a row's length, a name, ``ambient_dim``, or
    a key that the loader does not read, in the family or in a member.
    Keys come in any order.
    """
    d = draw(st.integers(1, 3))
    members = []
    for _ in range(draw(st.integers(1, 3))):
        rows = st.lists(st.lists(_PLAIN_ENTRIES, min_size=d, max_size=d), min_size=1, max_size=2)
        name = draw(st.one_of(st.none(), _PLAIN_NAMES))
        members.append({"vectors": draw(rows)} | ({} if name is None else {"name": name}))
    family = {"ambient_dim": str(d), "subspaces": members}
    member = draw(st.sampled_from(members))
    row = draw(st.sampled_from(member["vectors"]))
    odd = draw(
        st.sampled_from([None] * 7 + ["entry"] * 3 + ["row", "name", "size", "key", "member-key"])
    )
    if odd == "entry":
        row[draw(st.integers(0, d - 1))] = draw(_ODD_ENTRIES)
    elif odd == "row":
        row.append(draw(_PLAIN_ENTRIES))
    elif odd == "name":
        member["name"] = draw(_ODD_NAMES)
    elif odd == "size":
        family["ambient_dim"] = draw(_ODD_SIZES)
    elif odd == "key":
        family["x"] = draw(_EXTRAS)
    elif odd == "member-key":
        member["note"] = draw(_EXTRAS)
    family["subspaces"] = [_shuffled(draw, m) for m in members]
    return io.load_family, _json_text(_shuffled(draw, family))


@st.composite
def matrix_files(draw):
    """``load_ematrix`` and the text of a symmetric matrix file, about half
    with one odd part: a pair of entries, ``n`` or an extra key."""
    n = draw(st.integers(1, 3))
    rows = [["0.0"] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        rows[i][j] = rows[j][i] = draw(_PLAIN_ENTRIES)
    matrix = {"n": str(n), "entries": rows}
    odd = draw(st.sampled_from([None] * 4 + ["entry"] * 2 + ["size", "key"]))
    if odd == "entry" and pairs:
        i, j = draw(st.sampled_from(pairs))
        rows[i][j] = rows[j][i] = draw(_ODD_ENTRIES)
    elif odd == "size":
        matrix["n"] = draw(_ODD_SIZES)
    elif odd == "key":
        matrix["x"] = draw(_EXTRAS)
    return io.load_ematrix, _json_text(_shuffled(draw, matrix))


@settings(max_examples=500, deadline=None)
@given(st.one_of(family_files(), matrix_files()))
def test_generated_files_load_as_through_json_loads(case):
    loader, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(text.encode())
        got = load_outcome(loader, path)
        with mock.patch.object(io.orjson, "loads", refuse_orjson):
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

    @pytest.mark.parametrize(
        "text",
        [
            FAMILY % ("2", '"A"', "NaN"),
            FAMILY % ("2", '"A"', "12345678901234567890"),
            FAMILY % ("2", '"A"', "1e300"),
            FAMILY[:-1] % ("2", '"A"', "1.0") + ', "note": "x"}',
            FAMILY % ("2", "7", "1.0"),
        ],
        ids=["NaN", "12345678901234567890", "1e300-entry", "extra-key", "numeric-name"],
    )
    def test_fallback_reaches_json_loads(self, tmp_path, json_loads_calls, text):
        path = tmp_path / "fallback.json"
        path.write_text(text)
        outcome(io.load_family, path)
        assert json_loads_calls == [path.read_text()]

    def test_plain_matrix_reaches_orjson_only(self, tmp_path, json_loads_calls):
        path = tmp_path / "e.json"
        path.write_text(MATRIX % ("2", "0.5", "0.5"))
        assert io.load_ematrix(path).n == 2
        assert json_loads_calls == []

    def test_written_counterexample_needs_no_json_loads(self, tmp_path, monkeypatch):
        ring = [[0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5, 0.0]]
        family = build_counterexample(CounterexampleSpec(EMatrix(4, ring), geometric_alphas(20)))
        path = tmp_path / "family.json"
        io.save_family(path, family)

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", refuse)
        loaded, names = io.load_family(path)
        assert names == ["X1", "X2", "X3", "X4"]
        assert [m.dim for m in loaded.members] == [20] * 4
