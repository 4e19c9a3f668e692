"""JSON/CSV serialization of families, cosine matrices and reports.

Family files carry spanning sets as row vectors; they are orthonormalized
on load, so hand-written files need not be orthonormal.  Floats are
written with Python's shortest round-trip representation, which is
lossless at double precision, so writing a family and re-reading it
reproduces identical numbers.  Every JSON output goes through one writer
that puts one vector or matrix row per line: a counterexample family file
is about a third of the size of a fully indented one, with the same
numbers.  Families and cosine matrices reach the writer as float arrays,
whose distinct values are each formatted once: a counterexample family is
almost all ``0.0``, which is then formatted once per member, not once per
entry.
"""

import hashlib
import json
import os
import secrets
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from ._version import __version__
from .counterexamples import CounterexampleVerification
from .criterion import CriterionReport, EMatrix
from .iteration import ConvergenceReport
from .subspaces import SubspaceFamily, orthonormalize

# JSON containers; a container holding none of these is written on one line.
_CONTAINERS = (dict, list, tuple, np.ndarray)


def load_family(path):
    """Read a family file; returns (SubspaceFamily, member names).

    Each entry's vectors are treated as a spanning set and orthonormalized;
    a warning is emitted when the numerical rank falls short of the number
    of supplied vectors.
    """
    doc = _read_object(path, "family")
    d = _integer_field(doc, "ambient_dim", "family")
    entries = doc.get("subspaces")
    if d < 1:
        raise ValueError(f"ambient_dim must be positive, got {d}")
    if not isinstance(entries, list) or not entries:
        raise ValueError("subspaces must be a non-empty list")

    members, names = [], []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"subspace entry {idx} must be a JSON object")
        name = str(entry.get("name", f"X{idx + 1}"))
        vectors = entry.get("vectors")
        if not isinstance(vectors, list) or not vectors:
            raise ValueError(f"subspace {name!r} needs at least one vector")
        arr = _number_array(vectors, f"subspace {name!r}: vectors")
        if arr.ndim != 2 or arr.shape[1] != d:
            raise ValueError(
                f"subspace {name!r}: vectors must all have length {d}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"subspace {name!r}: vectors must be finite")
        sub = orthonormalize(arr.T)
        if sub.dim < arr.shape[0]:
            warnings.warn(
                f"subspace {name!r}: numerical rank {sub.dim} is below the "
                f"{arr.shape[0]} supplied vectors",
                stacklevel=2,
            )
        members.append(sub)
        names.append(name)
    return SubspaceFamily(d, tuple(members)), names


def save_family(path, family: SubspaceFamily, names=None):
    """Write a family file; basis columns become row vectors."""
    if names is None:
        names = [f"X{i + 1}" for i in range(family.n)]
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
    doc = _read_object(path, "matrix")
    n = _integer_field(doc, "n", "matrix")
    return EMatrix(n, _number_array(doc.get("entries"), "matrix file: entries"))


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


def verification_section(record: CounterexampleVerification) -> dict:
    return asdict(record)


def report_metadata(input_path) -> dict:
    with open(input_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "input_sha256": digest,
        "tool_version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }


def write_report(path_or_none, doc: dict, stream=None):
    """Write a report to a file, or to the stream when no path is given."""
    if path_or_none is not None:
        with open(path_or_none, "w") as fh:
            _write_json(fh, doc)
    elif stream is not None:
        _write_json(stream, doc)


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


def _read_object(path, kind):
    """Parse a JSON file that must hold one object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{kind} file is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} file must be a JSON object")
    return doc


def _integer_field(doc, key, kind):
    """``doc[key]``, which must be a JSON integer (not a float, string or bool)."""
    value = doc.get(key)
    if type(value) is not int:
        raise ValueError(f"{kind} file: {key!r} must be a JSON integer")
    return value


def _number_array(value, what):
    """``value`` as a float array; every entry must be a JSON number.

    Parsed without a dtype, strings, booleans, null and integers too large
    for a machine word give a non-numeric array, which is rejected.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValueError(f"{what} are invalid: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be JSON numbers")
    return arr.astype(float, copy=False)


def _write_json(fh, doc):
    """Stream ``doc`` to an open text handle as JSON plus a newline.

    Containers that hold containers are indented by two spaces, one member
    per line; a container with no nested container (a vector, a matrix
    row, a convergence step) is written on one line by ``json.dumps``,
    which takes the C encoder.  A 2-D float64 array is written as its
    ``tolist()`` would be, byte for byte, one row per line, but each
    distinct value is formatted once (see ``_row_texts``), so a family
    file holds one vector per line and no Python float is made per entry.
    Keys must be strings, as in every document the package writes.  The
    output is written container by container; building the whole string
    first would hold a second copy of a large family in memory.
    """
    _write_value(fh, doc, "\n")
    fh.write("\n")


def _write_value(fh, value, newline):
    """Write one JSON value; ``newline`` is a line break plus its indentation."""
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        rows = _row_texts(value)
        body = ("," + inner).join(rows)
        fh.write("[" + inner + body + newline + "]" if rows else "[]")
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
        _write_value(fh, child, inner)
        sep = "," + inner
    fh.write(newline + brackets[1])


def _row_texts(a):
    """``json.dumps(row)`` for each row of ``a.tolist()``, for a 2-D float64 ``a``.

    The entries are compared as int64 bits, so ``-0.0`` and ``0.0`` (and
    NaNs with different payloads) stay apart.  The distinct bit patterns
    are found with a sort (``np.unique`` would import ``numpy.ma``, +1.7 MB
    RSS), formatted by one ``json.dumps`` of their list, which gives the C
    encoder's text for each (``Infinity`` included), and gathered back into
    the rows through an object array of those texts.
    """
    if a.ndim != 2 or a.dtype != np.float64:
        raise TypeError(f"cannot write a {a.ndim}-D {a.dtype} array as JSON")
    if not a.size:
        return ["[]"] * a.shape[0]
    bits = a.view(np.int64)
    ordered = np.sort(bits, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    texts = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    cells = np.array(texts, dtype=object)[np.searchsorted(distinct, bits)]
    return ["[" + ", ".join(row) + "]" for row in cells.tolist()]
