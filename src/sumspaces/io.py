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
outside ``[-2**63, 2**64)`` are read as the nearest double.  Floats are
written with Python's shortest round-trip representation, which is
lossless at double precision, so writing a family and re-reading it
reproduces identical numbers.  Every JSON output goes through one writer
that puts one vector or matrix row per line: a counterexample family file
is about a third of the size of a fully indented one, with the same
numbers.  Families and cosine matrices reach the writer as float arrays,
whose rows are assembled from runs of equal neighbours, a run of n equal
entries being its text repeated n times: a counterexample family is
almost all ``0.0`` in long runs, so it costs Python work per run, not per
entry.  The runs of all the arrays of a document (all the members of a
family) are found first, and each distinct value among their first
entries is formatted once: all of them by one ``orjson.dumps``, and then
those whose repr has an exponent or is not finite (``1e-05``, ``1e+16``,
``NaN``), which orjson writes otherwise, again by one ``json.dumps``.
The rows are then made and written one member at a time.
"""

import hashlib
import json
import os
import secrets
import stat
import sys
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone
from itertools import islice, repeat

import numpy as np
import orjson

from ._version import __version__
from .criterion import CriterionReport, EMatrix
from .iteration import ConvergenceReport
from .errors import AllZeroInput
from .subspaces import SubspaceFamily, orthonormalize_all

# JSON containers; a container holding none of these is written on one line.
_CONTAINERS = (dict, list, tuple, np.ndarray)

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
    """Write a family file; basis columns become row vectors.

    ``names`` holds one ``str`` per member, ``X1``, ``X2``, ... by
    default; names of another count or type raise ValueError before the
    file is opened.
    """
    names = [f"X{i + 1}" for i in range(family.n)] if names is None else list(names)
    if len(names) != family.n:
        raise ValueError(f"got {len(names)} names for {family.n} members")
    if not all(isinstance(name, str) for name in names):
        raise ValueError("every name must be a str")
    doc = {
        "ambient_dim": family.ambient_dim,
        "subspaces": [
            {"name": name, "vectors": member.basis.T}
            for name, member in zip(names, family.members)
        ],
    }
    with open(path, "w") as fh:
        _write_json(fh, doc)


def load_ematrix(path) -> EMatrix:
    """Read an angle-cosine matrix file {"n": int, "entries": [[...]]}."""
    return _read_object(path, "matrix", _matrix)


def _matrix(doc, may_hold_bools):
    """The matrix document's EMatrix, which checks its entries."""
    n = _integer_field(doc, "n", "matrix")
    entries = _number_array(doc.get("entries"), "matrix file: entries", may_hold_bools)
    return EMatrix(n, entries)


def save_ematrix(path, e: EMatrix):
    with open(path, "w") as fh:
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
        _write_json(sys.stdout, doc)
    else:
        with open(path_or_none, "w") as fh:
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
    """Stream ``doc`` to an open text handle as JSON plus a newline.

    Containers that hold containers are indented by two spaces, one member
    per line; a container with no nested container (a vector, a matrix
    row, a convergence step) is written on one line by ``json.dumps``,
    which takes the C encoder.  A 2-D float64 array is written as its
    ``tolist()`` would be, byte for byte, one row per line, but each row
    is joined from its runs of equal entries (see ``_row_texts``), so a
    family file holds one vector per line and no Python float is made per
    entry.  The arrays of the whole document go to one ``_row_texts``
    call before anything is written, so a value that recurs across them
    (across the members of a family) is formatted once, by orjson or,
    where its repr has an exponent or is not finite, by ``json.dumps``,
    and an array that cannot be written raises before the output is
    begun.  A document with no array (a report) formats nothing there.
    Keys must be strings, as in every document the package writes.  The
    output is written container by container; building the whole string
    first would hold a second copy of a large family in memory.
    """
    _write_value(fh, doc, "\n", _row_texts(*_arrays_in(doc)))
    fh.write("\n")


def _arrays_in(value):
    """The arrays in ``value``, in the order ``_write_value`` meets them."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return []
    return [a for v in value if isinstance(v, _CONTAINERS) for a in _arrays_in(v)]


def _write_value(fh, value, newline, rows):
    """Write one JSON value; ``newline`` is a line break plus its indentation.

    ``rows`` yields the row texts of the arrays in ``value``, in order.
    """
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        texts = next(rows)
        if not texts:
            fh.write("[]")
            return
        # three writes: one string would copy the member's rows once more
        fh.write("[" + inner)
        fh.write(("," + inner).join(texts))
        fh.write(newline + "]")
        return
    if isinstance(value, dict):
        children, brackets = value.values(), "{}"
        heads = (json.dumps(key) + ": " for key in value)
    elif isinstance(value, (list, tuple)):
        children, brackets, heads = value, "[]", repeat("")
    else:
        children = ()
    # one test per distinct item type, not per item: rows hold only floats
    if not any(issubclass(t, _CONTAINERS) for t in {*map(type, children)}):
        fh.write(json.dumps(value))
        return
    sep = brackets[0] + inner
    for head, child in zip(heads, children):
        fh.write(sep + head)
        _write_value(fh, child, inner, rows)
        sep = "," + inner
    fh.write(newline + brackets[1])


def _row_texts(*arrays):
    """``json.dumps(row)`` for each row of ``a.tolist()``, for each 2-D float64 ``a``.

    Returns an iterator that gives one list of row texts per array, in
    order.  Each row is assembled from its runs of equal entries, not
    from its entries: a run starts at every row start and wherever an
    entry differs from its left neighbour, so no run spans two rows.
    Entries are compared as int64 bits, so ``-0.0`` and ``0.0`` (and NaNs
    with different payloads) stay apart.  The distinct bit patterns among
    the first entries of the runs of all the arrays are found by one
    ``np.unique`` and formatted together by one ``orjson.dumps``, about
    14 times as fast as ``json.dumps``.  orjson's text of a float is repr's,
    and so the C encoder's, at ``0.0`` and ``-0.0`` and wherever repr
    writes no exponent, ``1e-4 <= |x| < 1e16``; the other values (``1e-05``,
    ``1e+16``, ``NaN``, ``Infinity``), which orjson writes as ``0.00001``,
    ``1e16`` and ``null``, are formatted again by one ``json.dumps``.  A
    run of length L becomes ``(text + ", ") * L``, and each row joins its
    runs and drops the last ``", "``, so the Python-level work grows with
    the number of runs, not of entries, and the formatting with the
    number of distinct values.  A counterexample family is mostly long
    runs of ``0.0``: the 16-member ring with 40 blocks has 11,488 runs in
    409,600 entries, whose first entries take 8,019 distinct values, 152
    of them below 1e-4.  Every array is checked and cut into runs before
    this returns; the iterator then holds the distinct texts and a few
    integers per run, and makes the row texts of one array at a time.
    """
    if not arrays:
        return iter(())
    plans = [_runs(a) for a in arrays]
    cuts = np.cumsum([bits.size for bits, _, _ in plans])[:-1]
    heads = np.concatenate([bits for bits, _, _ in plans])
    plans = [(lengths, counts) for _, lengths, counts in plans]
    # slots[i] is the place of head i's bits among the distinct ones
    values, slots = np.unique(heads, return_inverse=True)
    values = values.view(np.float64)
    del heads
    # each value's text and ", ": orjson's "[a,b]" becomes "a, \nb, ", split
    # at "\n"; with no values that would give one text, ", ", not none
    texts = []
    if values.size:
        texts = (
            orjson.dumps(values.tolist()).decode()[1:-1].replace(",", ", \n") + ", "
        ).split("\n")
    # orjson's text is repr's at +-0.0 and 1e-4 <= |x| < 1e16 only
    magnitudes = np.abs(values)
    others = np.flatnonzero(~((magnitudes >= 1e-4) & (magnitudes < 1e16)) & (values != 0))
    fixed = json.dumps(values[others].tolist())[1:-1].split(", ")
    for i, text in zip(others.tolist(), fixed):
        texts[i] = text + ", "
    return (
        _joined_rows(texts, runs, lengths, counts)
        for runs, (lengths, counts) in zip(np.split(slots, cuts), plans)
    )


def _runs(a):
    """The runs of equal entries in the rows of the 2-D float64 ``a``.

    Returns the int64 bits of each run's first entry and each run's
    length, runs in row-major order, and the number of runs in each row.
    A transposed array is read where it lies, not copied.
    """
    if a.ndim != 2 or a.dtype != np.float64:
        raise TypeError(f"cannot write a {a.ndim}-D {a.dtype} array as JSON")
    bits = a.view(np.int64)
    head = np.empty(a.shape, dtype=bool)
    head[:, :1] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=head[:, 1:])
    lengths = np.diff(np.flatnonzero(head), append=a.size)
    return bits[head], lengths, np.count_nonzero(head, axis=1)


def _joined_rows(texts, slots, lengths, counts):
    """One array's row texts; its run k is ``texts[slots[k]] * lengths[k]``.

    Row r joins the next ``counts[r]`` runs, so only one row's runs are
    held at a time.
    """
    runs = zip(slots.tolist(), lengths.tolist())
    rows = (
        "".join([texts[i] * n for i, n in islice(runs, count)])
        for count in counts.tolist()
    )
    return ["[" + row[:-2] + "]" for row in rows]
