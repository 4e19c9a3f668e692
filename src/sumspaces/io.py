"""JSON/CSV serialization of families, cosine matrices and reports.

Family files carry spanning sets as row vectors; they are orthonormalized
on load, so hand-written files need not be orthonormal.  The loader
validates the members one by one, raising at the first invalid one before
anything is orthonormalized, then orthonormalizes them in one batch
per spanning-set shape (one stacked Gram test and one stacked SVD), so a
family of 300 lines takes one SVD, not 300, and the members are views of
one checked stack per basis shape.  An input file is read once: the
report's digest is the one the loader took of the bytes it read, and
``report_metadata`` reads nothing.  Input files are read as bytes, which
orjson parses as UTF-8 whatever the locale, about six times as fast as
the standard library's parser.  Only JSON (RFC 8259) is accepted:
``NaN``, ``Infinity``, a number too large for a double (``1e400``), a
lone surrogate escape and a byte order mark are not valid JSON, and the
error gives orjson's message with its line and column.  Integer literals
outside ``[-2**63, 2**64)`` are read as the nearest double.

Every JSON output is written by orjson, as UTF-8 bytes; a report sent
to standard output is written as the decoded text.  Reports and
cosine-matrix files are indented by two spaces, one value per line.  A
family file holds one member per line, each the compact text of
``{"name": ..., "vectors": [[...], ...]}``, made from that member's
contiguous row-vector copy alone.  Floats are written in their shortest
round-trip form (``1e-7``, ``0.0000123``), which reads back to the same
bits, so writing a family and re-reading it reproduces identical
numbers; CSV numbers are written by ``repr``.  orjson writes NaN and the
infinities as ``null``: no array the package writes can hold one, and of
the report fields only the leading minors of a failing family, which are
determinants, could overflow, and an overflowed minor would read
``null``.
"""

import hashlib
import os
import secrets
import stat
import sys
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np
import orjson

from ._version import __version__
from .criterion import CriterionReport, EMatrix
from .iteration import ConvergenceReport
from .errors import AllZeroInput
from .subspaces import SubspaceFamily, orthonormalize_all

# Reports and cosine-matrix files: two-space indents, arrays as nested
# lists, a final newline
_INDENTED = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE

# The path a loader read last and the SHA-256 of the bytes read (None when
# it was not a regular file); report_metadata takes the digest from here.
_last_read = (None, None)


def load_family(path):
    """Read a family file; returns (SubspaceFamily, member names).

    Each entry's vectors are treated as a spanning set.  Every entry is
    validated first, in order, and the first invalid one raises before
    anything is orthonormalized or warned about.  Then all are
    orthonormalized together, in one batch per shape
    (``orthonormalize_all``); an all-zero spanning set raises
    AllZeroInput naming its member, before any warning.  Last, a warning
    is emitted, in member order, for each entry whose numerical rank falls
    short of the number of supplied vectors.
    """
    d, arrays, names = _read_object(path, "family", _family_arrays)
    try:
        members = orthonormalize_all([arr.T for arr in arrays])
    except AllZeroInput as exc:
        raise AllZeroInput(f"subspace {names[exc.index]!r}: {exc}", exc.index) from None
    for name, arr, sub in zip(names, arrays, members):
        if sub.dim < arr.shape[0]:
            warnings.warn(
                f"subspace {name!r}: numerical rank {sub.dim} is below the "
                f"{arr.shape[0]} supplied vectors",
                stacklevel=2,
            )
    return SubspaceFamily(d, tuple(members)), names


def _family_arrays(doc, may_hold_bools):
    """The family document's dimension, vector arrays and member names.

    The entries are validated in order, and the first invalid one raises
    its ValueError.  Each entry's lists are freed once converted, so the
    document shrinks as the arrays grow.
    """
    d = _integer_field(doc, "ambient_dim", "family")
    entries = doc.get("subspaces")
    if d < 1:
        raise ValueError(f"ambient_dim must be positive, got {d}")
    if not isinstance(entries, list) or not entries:
        raise ValueError("subspaces must be a non-empty list")
    arrays, names = [], []
    for idx, entry in enumerate(entries):
        name, arr = _member_vectors(idx, entry, d, may_hold_bools)
        entries[idx] = None  # free the member's lists
        arrays.append(arr)
        names.append(name)
    return d, arrays, names


def _member_vectors(idx, entry, d, may_hold_bools):
    """The name and the (m, d) vector array of family entry ``idx``.

    A ``name``, when present, must be a JSON string; without one the
    entry is named ``X<idx + 1>``.  Entries that are not finite are
    rejected, though orjson gives none: the check is on input from
    outside the program.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"subspace entry {idx} must be a JSON object")
    name = entry.get("name", f"X{idx + 1}")
    if not isinstance(name, str):
        raise ValueError(f"subspace entry {idx}: name must be a JSON string")
    vectors = entry.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ValueError(f"subspace {name!r} needs at least one vector")
    arr = _number_array(vectors, f"subspace {name!r}: vectors", may_hold_bools)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"subspace {name!r}: vectors must all have length {d}")
    if not np.isfinite(arr).all():
        raise ValueError(f"subspace {name!r}: vectors must be finite")
    return name, arr


def save_family(path, family: SubspaceFamily, names=None):
    """Write a family file, one member per line; basis columns become row vectors.

    ``names`` holds one ``str`` per member, ``X1``, ``X2``, ... by
    default; names of another count or type, or that are not valid
    UTF-8 (a lone surrogate), raise ValueError before the file is opened.
    Each member's line is made from a C-contiguous copy of its
    ``basis.T``, so only one member's copy and text exist at a time.
    """
    names = [f"X{i + 1}" for i in range(family.n)] if names is None else list(names)
    if len(names) != family.n:
        raise ValueError(f"got {len(names)} names for {family.n} members")
    if not all(isinstance(name, str) for name in names):
        raise ValueError("every name must be a str")
    try:
        orjson.dumps(names)
    except TypeError as exc:
        raise ValueError(f"every name must be valid UTF-8: {exc}") from None
    with open(path, "wb") as fh:
        fh.write(b'{\n  "ambient_dim": %d,\n  "subspaces": [' % family.ambient_dim)
        sep = b"\n    "
        for name, member in zip(names, family.members):
            vectors = np.ascontiguousarray(member.basis.T)
            fh.write(sep)
            member_doc = {"name": name, "vectors": vectors}
            fh.write(orjson.dumps(member_doc, option=orjson.OPT_SERIALIZE_NUMPY))
            sep = b",\n    "
        fh.write(b"\n  ]\n}\n")


def load_ematrix(path) -> EMatrix:
    """Read an angle-cosine matrix file {"n": int, "entries": [[...]]}."""
    return _read_object(path, "matrix", _matrix)


def _matrix(doc, may_hold_bools):
    """The matrix document's EMatrix, which checks its entries."""
    n = _integer_field(doc, "n", "matrix")
    entries = _number_array(doc.get("entries"), "matrix file: entries", may_hold_bools)
    return EMatrix(n, entries)


def save_ematrix(path, e: EMatrix):
    with open(path, "wb") as fh:
        _write_json(fh, {"n": e.n, "entries": e.entries})


def criterion_section(report: CriterionReport) -> dict:
    return {
        "spectral_radius": report.spectral_radius,
        "satisfied": report.satisfied,
        "boundary": report.boundary,
        "margin": report.margin,
        "leading_minors": list(report.leading_minors),
        "angle_sum": report.angle_sum,
    }


def convergence_section(report: ConvergenceReport) -> dict:
    return {
        "convergence": [
            {"N": s.N, "error": s.error, "bound": s.bound} for s in report.steps
        ],
        "frame": {
            "frame_lower": report.frame_lower,
            "frame_upper": report.frame_upper,
            "r": report.r,
            "a_restricted_deviation": report.a_restricted_deviation,
        },
    }


def report_metadata(input_path) -> dict:
    """Report metadata; ``input_sha256`` is the digest of the loaded input.

    When ``input_path`` is the path a loader read last, the digest is the
    one ``_read_object`` took of the bytes it read: nothing is opened or
    read here, so a command reads its input once, and a file changed
    since loading keeps the digest of the bytes that were loaded.  The
    digest is None for any other path, and when the loaded input was not
    a regular file after following links (a pipe, ``/dev/stdin``): the
    loader consumed such an input, and the bytes it read are not a file's
    contents.
    """
    path, digest = _last_read
    return {
        "input_sha256": digest if os.fspath(input_path) == path else None,
        "tool_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }


def write_report(path_or_none, doc: dict):
    """Write a report to a file, or to standard output when no path is given."""
    if path_or_none is None:
        sys.stdout.write(orjson.dumps(doc, option=_INDENTED).decode())
    else:
        with open(path_or_none, "wb") as fh:
            _write_json(fh, doc)


@contextmanager
def staged_outputs(*inputs):
    """Make a command's output files appear all together or not at all.

    Yields ``stage(target)``, which returns a fresh temporary path beside
    ``target`` to write to instead.  When the block ends normally every
    temporary is moved onto its target with ``os.replace``; when it raises,
    or a move fails, the remaining temporaries are removed.  A symbolic
    link is followed, so the file it points to is replaced, not the link.
    A target that exists but is not a regular file (``/dev/null``, a pipe)
    is returned as it is and written directly: replacing it would destroy
    it.  ``stage`` raises ``ValueError`` when a target resolves to a file
    already staged, whose first output the second would silently replace,
    or to one of ``inputs``, the files the command reads.
    """
    moves = []
    taken = dict.fromkeys(map(os.path.realpath, inputs), "would replace the input")

    def stage(target):
        real = os.path.realpath(target)
        if os.path.exists(real) and not os.path.isfile(real):
            return target
        if real in taken:
            raise ValueError(f"output {target} {taken[real]}")
        taken[real] = "is named twice"
        head, tail = os.path.split(real)
        tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
        moves.append((tmp, real))
        return tmp

    try:
        yield stage
        while moves:
            os.replace(*moves[0])
            moves.pop(0)
    finally:
        for tmp, _ in moves:
            if os.path.exists(tmp):
                os.remove(tmp)


def write_convergence_csv(path, report: ConvergenceReport):
    """CSV with header N,error,bound and LF line endings."""
    with open(path, "w", newline="") as fh:
        fh.write("N,error,bound\n")
        for s in report.steps:
            fh.write(f"{s.N},{s.error!r},{s.bound!r}\n")


def _read_object(path, kind, validate):
    """What ``validate(doc, may_hold_bools)`` makes of a JSON object file.

    The file is read once, as bytes; the path is kept for
    ``report_metadata`` with their SHA-256 when it is a regular file, and
    with None otherwise.  ``may_hold_bools`` tells whether the bytes hold
    ``true`` or ``false`` anywhere, strings included: a file without
    either holds no boolean, which spares ``_number_array`` a scan of
    every entry.  orjson parses the bytes as UTF-8, whatever the locale;
    bytes it refuses raise "<kind> file is not valid JSON: <orjson's
    message>", and a document that is not an object "<kind> file must be
    a JSON object".
    """
    global _last_read
    with open(path, "rb") as fh:
        data = fh.read()
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    digest = hashlib.sha256(data).hexdigest() if regular else None
    _last_read = (os.fspath(path), digest)
    may_hold_bools = _holds_boolean_literal(data)
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError as exc:
        raise ValueError(f"{kind} file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file must be a JSON object")
    return validate(doc, may_hold_bools)


def _holds_boolean_literal(data):
    """Whether the bytes ``data`` contain ``true`` or ``false``.

    Each word is looked for at its third letter, ``u`` or ``l``, neither
    of which occurs in a JSON number or in the keys of a family or matrix
    file except once, in ``"subspaces"``.  Finding one byte is a
    ``memchr``: on a 2.6 MB family file this takes about 0.15 ms, where
    finding the two words takes about 4 ms.
    """
    for word in (b"true", b"false"):
        i = data.find(word[2])
        while i >= 0:
            if i >= 2 and data.startswith(word, i - 2):
                return True
            i = data.find(word[2], i + 1)
    return False


def _integer_field(doc, key, kind):
    """``doc[key]``, which must be a JSON integer (not a float, string or bool)."""
    value = doc.get(key)
    if type(value) is not int:
        raise ValueError(f"{kind} file: {key!r} must be a JSON integer")
    return value


def _number_array(value, what, may_hold_bools):
    """``value`` as a float array; every entry must be a JSON number.

    Parsed without a dtype, strings, booleans alone and null give a
    non-numeric array, which is rejected.  Booleans mixed with numbers are
    coerced to numbers, so when the file text may hold a boolean (see
    ``_read_object``) the entries' types are checked one by one.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{what} are invalid: {exc}") from exc
    if arr.dtype.kind not in "iuf" or (
        may_hold_bools
        and bool in set(map(type, np.asarray(value, dtype=object).ravel().tolist()))
    ):
        raise ValueError(f"{what} must be JSON numbers")
    return arr.astype(float, copy=False)


def _write_json(fh, doc):
    """Write ``doc`` to an open binary handle as indented JSON plus a newline."""
    fh.write(orjson.dumps(doc, option=_INDENTED))
