"""JSON/CSV serialization of families, cosine matrices and reports.

Family files carry spanning sets as row vectors; they are orthonormalized
on load, so hand-written files need not be orthonormal.  Floats are
written with Python's shortest round-trip representation, which is
lossless at double precision, so writing a family and re-reading it
reproduces identical numbers.
"""

import hashlib
import json
import warnings
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .counterexamples import CounterexampleVerification
from .criterion import CriterionReport, EMatrix
from .iteration import ConvergenceReport
from .subspaces import SubspaceFamily, orthonormalize


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
            {"name": name, "vectors": member.basis.T.tolist()}
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
        _write_json(fh, {"n": e.n, "entries": e.entries.tolist()})


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
    """Stream ``doc`` to an open text handle as indented JSON plus a newline.

    ``json.dump`` writes chunk by chunk; building the whole string first
    would hold a second copy of a large family in memory.
    """
    json.dump(doc, fh, indent=2)
    fh.write("\n")
