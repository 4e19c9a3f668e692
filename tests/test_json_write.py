"""Every float the writer writes reads back to its own bits.

The writer hands floats and 2-D float64 arrays to orjson, whose text of
a float is its shortest round-trip form (``1e-7``, ``0.0000123``).  That
text must parse to the same double through orjson, the package's own
parser, and through the standard library's ``json.loads``: at the
signed zeros, the subnormals, the ulps about 1e-4 and 1e16, where repr
switches to an exponent, and anywhere else.
"""

import json
from io import BytesIO

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumspaces import io


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
# the least subnormal and the largest double; and +-0.0
_CORPUS = sorted(
    {
        *(
            x
            for c in [1e-5, 1e-4, 1e15, 1e16, 2.0**53, 1e22, 5e-324, 1.7976931348623157e308]
            for x in ulps_around(c)
        ),
        0.0, -0.0,
    },
    key=bits,
)
# any finite bit pattern: subnormals and both zeros included
_BITS = st.integers(-(2**63), 2**63 - 1).map(from_bits).filter(np.isfinite)
# magnitudes log-uniform from 1e-320 to 1e308, of either sign
_LOG_UNIFORM = st.builds(
    lambda e, negative: -(10.0**e) if negative else 10.0**e,
    st.floats(-320, 308),
    st.booleans(),
)
_VALUES = st.one_of(_BITS, _LOG_UNIFORM, st.sampled_from(_CORPUS))


def assert_read_back_exactly(values):
    """``values`` written as a float64 row and as floats read back bit for bit."""
    row = np.array(values, dtype=np.float64)
    out = BytesIO()
    io._write_json(out, {"row": row[None, :], "floats": row.tolist()})
    data = out.getvalue()
    for doc in (orjson.loads(data), json.loads(data.decode("utf-8"))):
        for read in (doc["row"][0], doc["floats"]):
            assert np.array(read, dtype=np.float64).view(np.int64).tolist() == (
                row.view(np.int64).tolist()
            )


@pytest.mark.parametrize("x", _CORPUS, ids=repr)
def test_corpus_value_reads_back_exactly(x):
    assert_read_back_exactly([x])


def test_corpus_row_reads_back_exactly():
    assert_read_back_exactly(_CORPUS)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=12))
def test_drawn_doubles_read_back_exactly(values):
    assert_read_back_exactly(values)
