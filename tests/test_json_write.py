"""Arrays are written with orjson's float texts, and with ``json.dumps``'s
where the two could differ.

The array writer formats the distinct values of a document with one
``orjson.dumps``, and formats again with ``json.dumps`` every value whose
repr has an exponent or is not finite.  It relies on orjson writing every
other float, ``+-0.0`` and ``1e-4 <= |x| < 1e16``, as ``json.dumps``
does; the row texts must be ``json.dumps``'s for every float64, NaN
payloads, subnormals and infinities included.
"""

import json
import math

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import encoded_rows
from sumspaces import io


def trusted(x):
    """Whether the writer takes orjson's text of the float ``x``."""
    return x == 0 or 1e-4 <= abs(x) < 1e16


def from_bits(b):
    """The float64 whose int64 bits are ``b``."""
    return float(np.int64(b).view(np.float64))


def bits(x):
    return int(np.float64(x).view(np.int64))


def ulps_around(x, k=3):
    """The doubles within ``k`` ulps of ``x``, and their negatives."""
    near = np.arange(bits(x) - k, bits(x) + k + 1, dtype=np.int64).view(np.float64)
    near = near[np.isfinite(near)]
    return [*near.tolist(), *(-near).tolist()]


# +-3 ulps about 1e-4 and 1e16, where repr's fixed notation begins and
# ends, 1e-5, where orjson's begins, 1e15, 2**53, above which doubles are
# even integers, 1e22, the largest power of ten a double holds exactly,
# the least subnormal and the largest double; and +-0.0 and the non-finite
_CORPUS = sorted(
    {
        *(
            x
            for c in [1e-5, 1e-4, 1e15, 1e16, 2.0**53, 1e22, 5e-324, 1.7976931348623157e308]
            for x in ulps_around(c)
        ),
        0.0, -0.0, math.inf, -math.inf, math.nan,
    },
    key=bits,
)
# any bit pattern: NaN payloads, subnormals, infinities
_BITS = st.integers(-(2**63), 2**63 - 1).map(from_bits)
# magnitudes log-uniform from 1e-320 to 1e308, of either sign
_LOG_UNIFORM = st.builds(
    lambda e, negative: -(10.0**e) if negative else 10.0**e,
    st.floats(-320, 308),
    st.booleans(),
)
_VALUES = st.one_of(_BITS, _LOG_UNIFORM, st.sampled_from(_CORPUS))


@st.composite
def _arrays(draw):
    """A 2-D float64 array of drawn values, some of them repeated in runs."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 12))
    pool = draw(st.lists(_VALUES, min_size=1, max_size=12))
    size = rows * cols
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    return np.array([pool[i] for i in picks], dtype=np.float64).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(st.lists(_arrays(), min_size=1, max_size=3))
def test_rows_match_the_encoder(arrays):
    assert list(io._row_texts(*arrays)) == [encoded_rows(a) for a in arrays]


def test_corpus_rows_match_the_encoder():
    values = np.array(_CORPUS)
    arrays = [values[None, :], values[::-1, None], np.repeat(values, 3)[None, :]]
    assert list(io._row_texts(*arrays)) == [encoded_rows(a) for a in arrays]


def assert_orjson_writes_as_json_dumps(x):
    """The premise: orjson's text of a trusted float is ``json.dumps``'s."""
    assert trusted(x)
    assert orjson.dumps([x]).decode() == json.dumps([x])


@pytest.mark.parametrize("x", [x for x in _CORPUS if trusted(x)])
def test_orjson_formats_corpus_as_json_dumps(x):
    assert_orjson_writes_as_json_dumps(x)


# every double from 1e-4 up to 1e16, of either sign, and the two zeros
_TRUSTED = st.one_of(
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-1e16, -1e-4, exclude_min=True),
    st.integers(bits(1e-4), bits(1e16) - 1).map(from_bits),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=1000, deadline=None)
@given(_TRUSTED)
def test_orjson_formats_trusted_floats_as_json_dumps(x):
    assert_orjson_writes_as_json_dumps(x)
