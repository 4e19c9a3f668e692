import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from io import BytesIO, StringIO
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_subspace
from sumspaces import (
    CounterexampleSpec,
    EMatrix,
    Subspace,
    SubspaceFamily,
    build_counterexample,
    build_e_matrix,
    geometric_alphas,
    io,
    spectral_radius,
    verify_counterexample,
)
from sumspaces import cli
from sumspaces.cli import main
from sumspaces.errors import (
    AllZeroInput,
    InconsistencyError,
    NumericalError,
    SumspacesError,
    VerificationFailed,
)


def write_family_file(path, vectors_by_name, ambient_dim):
    doc = {
        "ambient_dim": ambient_dim,
        "subspaces": [
            {"name": name, "vectors": vectors}
            for name, vectors in vectors_by_name.items()
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def orthogonal_lines_file(tmp_path):
    return write_family_file(
        tmp_path / "orth.json",
        {"X1": [[1.0, 0.0]], "X2": [[0.0, 1.0]]},
        2,
    )


def three_hundred_lines_file(tmp_path):
    """300 lines of random lengths in R^400, none a unit vector."""
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(300, 400)) * rng.uniform(0.5, 2.0, size=(300, 1))
    vectors = {f"X{i + 1}": [row] for i, row in enumerate(rows.tolist())}
    return write_family_file(tmp_path / "lines.json", vectors, 400)


def sixty_degree_file(tmp_path):
    return write_family_file(
        tmp_path / "sixty.json",
        {"X1": [[1.0, 0.0]], "X2": [[0.5, float(np.sqrt(3) / 2)]]},
        2,
    )


class TestFamilyFiles:
    def test_round_trip_preserves_bases_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        f = SubspaceFamily(6, tuple(random_subspace(rng, 6, 2) for _ in range(3)))
        path = tmp_path / "family.json"
        io.save_family(path, f, names=["a", "b", "c"])
        loaded, names = io.load_family(path)
        assert names == ["a", "b", "c"]
        for orig, back in zip(f.members, loaded.members):
            np.testing.assert_array_equal(orig.basis, back.basis)

    def test_save_load_save_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(10)
        f = SubspaceFamily(5, tuple(random_subspace(rng, 5, 2) for _ in range(2)))
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        io.save_family(first, f)
        loaded, names = io.load_family(first)
        io.save_family(second, loaded, names=names)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "names, message",
        [
            (["A"], "got 1 names for 3 members"),
            (["A", "B", "C", "D"], "got 4 names for 3 members"),
            (["A", 7, "C"], "every name must be a str"),
            (["A", "\ud800", "C"], "every name must be valid UTF-8"),
        ],
        ids=["short", "long", "not-str", "lone-surrogate"],
    )
    def test_names_must_match_the_members(self, tmp_path, names, message):
        rng = np.random.default_rng(11)
        f = SubspaceFamily(4, tuple(random_subspace(rng, 4, 1) for _ in range(3)))
        path = tmp_path / "family.json"
        with pytest.raises(ValueError, match=message):
            io.save_family(path, f, names=names)
        assert not path.exists()

    def test_one_line_per_member(self, tmp_path):
        rng = np.random.default_rng(12)
        f = SubspaceFamily(5, (random_subspace(rng, 5, 2), random_subspace(rng, 5, 1)))
        path = tmp_path / "family.json"
        io.save_family(path, f, names=["A", "B"])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[:3] == ["{", '  "ambient_dim": 5,', '  "subspaces": [']
        assert lines[-2:] == ["  ]", "}"]
        members = [json.loads(line.strip().rstrip(",")) for line in lines[3:-2]]
        assert members == [
            {"name": name, "vectors": m.basis.T.tolist()}
            for name, m in zip(["A", "B"], f.members)
        ]

    def test_spanning_sets_are_orthonormalized(self, tmp_path):
        path = write_family_file(
            tmp_path / "skew.json", {"X1": [[3.0, 0.0], [1.0, 1.0]]}, 2
        )
        family, _ = io.load_family(path)
        assert family.members[0].dim == 2
        q = family.members[0].basis
        assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-10

    def test_rank_deficiency_warns(self, tmp_path):
        path = write_family_file(
            tmp_path / "dep.json", {"X1": [[1.0, 0.0], [2.0, 0.0]]}, 2
        )
        with pytest.warns(UserWarning, match="rank"):
            family, _ = io.load_family(path)
        assert family.members[0].dim == 1

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            '{"ambient_dim": 2}',
            '{"ambient_dim": 0, "subspaces": [{"vectors": [[1.0]]}]}',
            '{"ambient_dim": 2, "subspaces": []}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": []}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[1.0, 0.0, 0.0]]}]}',
            '{"ambient_dim": 2, "subspaces": ["x"]}',
            "not json",
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[NaN, 0.0]]}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[Infinity, 0.0]]}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[1.0, {}]]}]}',
            pytest.param(
                '{"ambient_dim": 1, "subspaces": [{"vectors": [[1%s]]}]}' % ("0" * 400),
                id="integer-overflows-float",
            ),
            '{"ambient_dim": 1e400, "subspaces": [{"vectors": [[1.0]]}]}',
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deeply"),
            '{"ambient_dim": 2.7, "subspaces": [{"vectors": [[1.0, 0.0]]}]}',
            '{"ambient_dim": "2", "subspaces": [{"vectors": [[1.0, 0.0]]}]}',
            '{"ambient_dim": true, "subspaces": [{"vectors": [[1.0]]}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [["1.5", "0"]]}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[true, false]]}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[true, 0.5]]},'
            ' {"vectors": [[0.0, 1.0]]}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[1, false]]}]}',
            '{"ambient_dim": 2, "subspaces": [{"vectors": [[null, 1.0]]}]}',
            pytest.param(
                '{"ambient_dim": 1, "subspaces": [{"name": %s, "vectors": [[1.0]]}]}'
                % ("[" * 2000 + "]" * 2000),
                id="name-nested-2000-deep",
            ),
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ValueError):
            io.load_family(path)

    def test_integers_beyond_a_machine_word_load_as_nearest_doubles(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"ambient_dim": 2, "subspaces": [{"vectors": [[1%s, 1]]}]}' % ("0" * 20))
        plain = write_family_file(tmp_path / "plain.json", {"X1": [[1e20, 1.0]]}, 2)
        (family, _), (expected, _) = io.load_family(path), io.load_family(plain)
        np.testing.assert_array_equal(family.members[0].basis, expected.members[0].basis)

    @pytest.mark.parametrize("name", ["true", "untrue", "false", "no false start"])
    def test_names_holding_boolean_words_load(self, tmp_path, name):
        vectors = {name: [[1.0, 0.0]], "X2": [[0.5, 0.5]]}
        path = write_family_file(tmp_path / "named.json", vectors, 2)
        family, names = io.load_family(path)
        assert names == [name, "X2"]
        renamed = dict(zip("ab", vectors.values()))
        plain, _ = io.load_family(write_family_file(tmp_path / "plain.json", renamed, 2))
        for member, expected in zip(family.members, plain.members):
            np.testing.assert_array_equal(member.basis, expected.basis)

    def test_non_finite_vectors_name_the_subspace(self, tmp_path):
        # -Infinity is not JSON, so the file is rejected before its members
        path = tmp_path / "bad.json"
        path.write_text(
            '{"ambient_dim": 2, "subspaces": [{"name": "A", "vectors": [[1.0, 0.0]]},'
            ' {"name": "B", "vectors": [[-Infinity, 1.0]]}]}'
        )
        message = r"^family file is not valid JSON: .*\bline 1 column 101\b"
        with pytest.raises(ValueError, match=message):
            io.load_family(path)
        # a document that holds one all the same names the member
        doc = {"ambient_dim": 2, "subspaces": [{"name": "B", "vectors": [[-np.inf, 1.0]]}]}
        with pytest.raises(ValueError, match="^subspace 'B': vectors must be finite$"):
            io._family_arrays(doc, False)

    def test_all_zero_vectors_name_the_subspace(self, tmp_path):
        path = write_family_file(
            tmp_path / "zero.json", {"A": [[1.0, 0.0]], "B": [[0.0, 0.0]]}, 2
        )
        with pytest.raises(AllZeroInput, match="^subspace 'B': all columns"):
            io.load_family(path)

    def test_three_hundred_lines_take_one_svd(self, tmp_path, svd_shapes):
        family, _ = io.load_family(three_hundred_lines_file(tmp_path))
        assert svd_shapes == [(300, 400, 1)]
        assert family.n == 300

    def test_one_svd_per_shape_that_needs_one(self, tmp_path, svd_shapes):
        rng = np.random.default_rng(2)
        dims = [1, 2, 1, 3, 2, 1]
        vectors = {f"X{i}": rng.normal(size=(k, 5)).tolist() for i, k in enumerate(dims)}
        # Y1 and Y2 are orthonormal: they pass the Gram test and stay out
        # of their shapes' SVDs
        vectors |= {"Y1": [[1.0, 0, 0, 0, 0], [0, 0, 1.0, 0, 0]], "Y2": [[0, 0, 0, 0, 1.0]]}
        path = write_family_file(tmp_path / "mixed.json", vectors, 5)
        family, _ = io.load_family(path)
        assert sorted(svd_shapes) == [(1, 5, 3), (2, 5, 2), (3, 5, 1)]
        assert [m.dim for m in family.members] == [*dims, 2, 1]

    def test_load_peak_memory(self, tmp_path):
        # The unbatched loader peaked at 6.42 MB on this 2.5 MB file, and a
        # batched loader that keeps the parsed document alive at 7.05 MB.
        # tracemalloc sees the Python objects and numpy buffers only: the
        # document orjson builds before it makes the Python objects (about
        # 16 B per JSON value, plus a copy of the text) is allocated outside
        # Python's allocators, so this bounds the loader's own allocations,
        # not the process's peak (its VmHWM rises by about 2.3 MB more
        # than with json.loads on this file).
        path = three_hundred_lines_file(tmp_path)
        io.load_family(path)
        tracemalloc.start()
        try:
            io.load_family(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.7e6


class TestEMatrixFiles:
    def test_round_trip(self, tmp_path):
        from sumspaces import EMatrix

        e = EMatrix(3, 0.5 * (np.ones((3, 3)) - np.eye(3)))
        path = tmp_path / "e.json"
        io.save_ematrix(path, e)
        back = io.load_ematrix(path)
        np.testing.assert_array_equal(back.entries, e.entries)

    def test_invalid_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "entries": [[0.0, 0.5], [0.4, 0.0]]}')
        with pytest.raises(ValueError):
            io.load_ematrix(path)

    def test_boolean_words_outside_entries_load(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(
            '{"note": "true or false", "n": 2, "entries": [[0.0, 1], [1, 0.0]]}'
        )
        np.testing.assert_array_equal(
            io.load_ematrix(path).entries, [[0.0, 1.0], [1.0, 0.0]]
        )

    def test_overflowing_size_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1e400, "entries": [[0.0]]}')
        with pytest.raises(ValueError, match="matrix file"):
            io.load_ematrix(path)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 2.0, "entries": [[0.0, 0.5], [0.5, 0.0]]}',
            '{"n": "2", "entries": [[0.0, 0.5], [0.5, 0.0]]}',
            '{"n": true, "entries": [[0.0]]}',
            '{"entries": [[0.0]]}',
            '{"n": 2, "entries": [["0", "0.5"], ["0.5", "0"]]}',
            '{"n": 1, "entries": [[false]]}',
            '{"n": 2, "entries": [[0.0, true], [1, 0.0]]}',
            '{"n": 2, "entries": [[0, false], [0, 0]]}',
            '{"n": 2, "entries": [[0.0, null], [null, 0.0]]}',
            '{"n": 1}',
        ],
    )
    def test_non_number_fields_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match="matrix file"):
            io.load_ematrix(path)

    def test_integers_beyond_a_machine_word_load_as_nearest_doubles(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"n": 2, "entries": [[0, 1%s], [1%s, 0]]}' % ("0" * 20, "0" * 20))
        np.testing.assert_array_equal(io.load_ematrix(path).entries, [[0.0, 1e20], [1e20, 0.0]])


def ring_matrix(n, cosine=0.5):
    """Cosine ``cosine`` between cyclic neighbours: r(E) = 2 * cosine."""
    idx = np.arange(n)
    entries = np.zeros((n, n))
    entries[idx, (idx + 1) % n] = entries[(idx + 1) % n, idx] = cosine
    return entries


# Entries that may sit beside an entry sqrt(1 - s^2) in a unit column
_SMALL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-05, -1e-05,
    9.999999999999999e-05, 0.0001, -0.00010000000000000002,
]


@st.composite
def _orthonormal_families(draw):
    """Members of distinct dimensions in R^d, whose entries repeat across members.

    Column j of a member has one entry sqrt(1 - s^2) and one entry s from
    ``_SMALL_VALUES`` on coordinates of its own, and signed zeros
    elsewhere, so its Gram matrix is the identity to within a few ulps
    and the loader keeps the basis as it is written.
    """
    d = draw(st.integers(2, 12))
    dims = draw(st.lists(st.integers(1, d // 2), min_size=1, max_size=4, unique=True))
    members = []
    for k in dims:
        signs = draw(hnp.arrays(bool, (d, k)))
        basis = np.where(signs, -0.0, 0.0)
        coords = draw(st.permutations(range(d)))
        for j in range(k):
            s = draw(st.sampled_from(_SMALL_VALUES))
            sign = draw(st.sampled_from([1.0, -1.0]))
            basis[coords[2 * j], j] = sign * math.sqrt(1.0 - s * s)
            basis[coords[2 * j + 1], j] = s
        members.append(Subspace(d, basis))
    return SubspaceFamily(d, tuple(members))


class TestArrayWriter:
    @settings(max_examples=100, deadline=None)
    @given(_orthonormal_families())
    def test_families_sharing_values_write_and_reload_exactly(self, family):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "family.json"
            io.save_family(path, family)
            loaded, _ = io.load_family(path)
        assert [m.dim for m in loaded.members] == [m.dim for m in family.members]
        for orig, back in zip(family.members, loaded.members):
            # bit for bit: -0.0 reloads as -0.0
            assert np.array_equal(back.basis.view(np.int64), orig.basis.view(np.int64))

    def test_report_layout(self):
        out = BytesIO()
        report = {"criterion": {"spectral_radius": 0.5, "leading_minors": [1.0, 0.75]}, "ok": True}
        io._write_json(out, report)
        assert out.getvalue().decode() == (
            '{\n  "criterion": {\n    "spectral_radius": 0.5,\n'
            '    "leading_minors": [\n      1.0,\n      0.75\n    ]\n  },\n'
            '  "ok": true\n}\n'
        )

    def test_ring_family_write_allocates_no_float_per_entry(self, tmp_path):
        # 16 members of dimension 40 in R^640: 409,600 entries, which as
        # Python floats and lists took 13.2 MB at peak
        spec = CounterexampleSpec(EMatrix(16, ring_matrix(16)), geometric_alphas(40))
        family = build_counterexample(spec)
        tracemalloc.start()
        try:
            io.save_family(tmp_path / "ring.json", family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_family_write_holds_one_member_at_a_time(self, tmp_path):
        # 50 members of dimension 40 in R^2000: one member's basis is
        # 640 kB, the whole family 32 MB; a writer that formats every
        # member before it writes peaked at 12.0 MB
        spec = CounterexampleSpec(EMatrix(50, ring_matrix(50)), geometric_alphas(40))
        family = build_counterexample(spec)
        member_bytes = family.members[0].basis.nbytes
        tracemalloc.start()
        try:
            io.save_family(tmp_path / "ring.json", family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * member_bytes


class TestAnalyzeCommand:
    def test_orthogonal_lines_satisfied(self, tmp_path, capsys):
        path = orthogonal_lines_file(tmp_path)
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["criterion"]["satisfied"] is True
        assert doc["criterion"]["spectral_radius"] == 0.0

    def test_piped_input_has_no_digest(self, tmp_path, capsys):
        # the loader consumes a pipe, so there is nothing left to hash
        text = orthogonal_lines_file(tmp_path).read_bytes()
        r, w = os.pipe()
        os.write(w, text)
        os.close(w)
        try:
            assert main(["analyze", f"/dev/fd/{r}"]) == 0
        finally:
            os.close(r)
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["input_sha256"] is None

    def test_regular_input_digest_is_sha256_of_its_bytes(self, tmp_path, capsys):
        path = orthogonal_lines_file(tmp_path)
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert doc["metadata"]["input_sha256"] == expected

    def test_input_is_read_once(self, tmp_path, capsys, monkeypatch):
        path = orthogonal_lines_file(tmp_path)
        opened = []

        def spy(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", spy, raising=False)
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert opened == [str(path)]
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert doc["metadata"]["input_sha256"] == expected

    def test_duplicate_subspace_boundary_exit(self, tmp_path):
        path = write_family_file(
            tmp_path / "dup.json", {"X1": [[1.0, 0.0]], "X2": [[1.0, 0.0]]}, 2
        )
        report = tmp_path / "report.json"
        assert main(["analyze", str(path), "--report", str(report)]) == 3
        doc = json.loads(report.read_text())
        assert doc["criterion"]["boundary"] is True
        assert doc["criterion"]["spectral_radius"] == pytest.approx(1.0, abs=1e-9)

    def test_malformed_input_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_dim": 2, "subspaces": [{"vectors": [[0.0, 0.0]]}]}')
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1

    def test_report_matches_library_bit_for_bit(self, tmp_path):
        path = write_family_file(
            tmp_path / "f.json",
            {
                "X1": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.25, 0.0]],
                "X2": [[0.0, 0.5, 1.0, 0.0]],
                "X3": [[0.25, 0.0, 0.125, 1.0]],
            },
            4,
        )
        report = tmp_path / "report.json"
        assert main(["analyze", str(path), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        family, _ = io.load_family(path)
        expected = spectral_radius(build_e_matrix(family))
        assert doc["criterion"]["spectral_radius"] == expected

    @pytest.mark.parametrize("old", [None, '{"old": true}\n'], ids=["new", "existing"])
    def test_interrupted_report_write_leaves_no_report(
        self, tmp_path, capsys, monkeypatch, old
    ):
        path = sixty_degree_file(tmp_path)
        report = tmp_path / "report.json"
        if old is not None:
            report.write_text(old)

        def write_part_then_fail(fh, doc):
            fh.write(b'{\n  "criterion": ')
            raise OSError("No space left on device")

        monkeypatch.setattr(io, "_write_json", write_part_then_fail)
        assert main(["analyze", str(path), "--report", str(report)]) == 1
        assert stderr_lines(capsys.readouterr()) == ["error: No space left on device"]
        expected = ["sixty.json"] if old is None else ["report.json", "sixty.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == expected
        if old is not None:
            assert report.read_text() == old

    def test_repeat_runs_identical(self, tmp_path):
        path = sixty_degree_file(tmp_path)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["analyze", str(path), "--report", str(r1)]) == 0
        assert main(["analyze", str(path), "--report", str(r2)]) == 0
        d1, d2 = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert d1["criterion"] == d2["criterion"]
        assert d1["metadata"]["input_sha256"] == d2["metadata"]["input_sha256"]


class TestInputDigest:
    def test_digest_is_of_the_bytes_loaded_last(self, tmp_path, monkeypatch):
        path = orthogonal_lines_file(tmp_path)
        other = sixty_degree_file(tmp_path)
        loaded = hashlib.sha256(path.read_bytes()).hexdigest()
        io.load_family(path)
        path.write_text(path.read_text() + "\n")

        def refuse(*args, **kwargs):
            raise AssertionError("report_metadata must not touch the file system")

        with monkeypatch.context() as m:
            m.setattr(io, "open", refuse, raising=False)
            m.setattr(os, "stat", refuse)
            assert io.report_metadata(path)["input_sha256"] == loaded
            assert io.report_metadata(str(path))["input_sha256"] == loaded
            assert io.report_metadata(other)["input_sha256"] is None

    @pytest.mark.parametrize(
        "command, stage",
        [
            ("analyze", "evaluate_criterion"),
            ("project", "convergence_report"),
            ("counterexample", "build_counterexample"),
        ],
    )
    def test_input_rewritten_mid_command_keeps_the_loaded_digest(
        self, tmp_path, capsys, monkeypatch, command, stage
    ):
        report = tmp_path / "report.json"
        if command == "counterexample":
            path = tmp_path / "e.json"
            path.write_text('{"n": 2, "entries": [[0.0, 1.0], [1.0, 0.0]]}')
            argv = [command, str(path), "--blocks", "3",
                    "--out", str(tmp_path / "f.json"), "--verify", str(report)]
        else:
            path = sixty_degree_file(tmp_path)
            argv = [command, str(path), "--report", str(report)]
            if command == "project":
                argv += ["--n-max", "3"]
        loaded = hashlib.sha256(path.read_bytes()).hexdigest()
        original = getattr(cli, stage)

        def rewrite_then_run(*args):
            path.write_text(path.read_text() + "\n")
            return original(*args)

        monkeypatch.setattr(cli, stage, rewrite_then_run)
        assert main(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() != loaded
        assert json.loads(report.read_text())["metadata"]["input_sha256"] == loaded


class TestProjectCommand:
    def test_sixty_degrees_full_report_and_csv(self, tmp_path):
        path = sixty_degree_file(tmp_path)
        report = tmp_path / "report.json"
        csv_path = tmp_path / "rows.csv"
        code = main(
            [
                "project",
                str(path),
                "--n-max",
                "10",
                "--report",
                str(report),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        doc = json.loads(report.read_text())
        rows = doc["convergence"]
        assert [row["N"] for row in rows] == list(range(1, 11))
        r = doc["frame"]["r"]
        for row in rows:
            assert row["bound"] == pytest.approx(r ** row["N"], rel=1e-12)
            assert row["error"] == pytest.approx(0.5 ** row["N"], abs=1e-12)

        text = csv_path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "N,error,bound"
        assert len(lines) == 12 and lines[-1] == ""
        assert "\r" not in text
        n, error, bound = lines[1].split(",")
        assert (int(n), float(error)) == (1, rows[0]["error"])
        assert float(bound) == rows[0]["bound"]

    def test_orthogonal_lines_tiny_errors(self, tmp_path, capsys):
        path = orthogonal_lines_file(tmp_path)
        assert main(["project", str(path), "--n-max", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(row["error"] <= 1e-12 for row in doc["convergence"])

    def test_criterion_failure_gives_criterion_only_report(self, tmp_path):
        # three nearly parallel lines: every cosine is large, r > 1
        path = write_family_file(
            tmp_path / "flat.json",
            {
                "X1": [[1.0, 0.0]],
                "X2": [[1.0, 0.02]],
                "X3": [[1.0, -0.02]],
            },
            2,
        )
        report = tmp_path / "report.json"
        assert main(["project", str(path), "--n-max", "5", "--report", str(report)]) == 2
        doc = json.loads(report.read_text())
        assert doc["criterion"]["satisfied"] is False
        assert "convergence" not in doc

    def test_boundary_family_exit_three(self, tmp_path):
        path = write_family_file(
            tmp_path / "dup.json", {"X1": [[1.0, 0.0]], "X2": [[1.0, 0.0]]}, 2
        )
        assert main(["project", str(path), "--n-max", "5"]) == 3

    def test_zero_errors_are_positive_zero(self, tmp_path):
        path = orthogonal_lines_file(tmp_path)
        report = tmp_path / "report.json"
        csv_path = tmp_path / "rows.csv"
        argv = ["project", str(path), "--n-max", "3", "--report", str(report)]
        assert main(argv + ["--csv", str(csv_path)]) == 0
        assert "-0.0" not in report.read_text()
        assert "-0.0" not in csv_path.read_text()
        rows = json.loads(report.read_text())["convergence"]
        assert [math.copysign(1.0, row["error"]) for row in rows] == [1.0] * 3

    def test_bad_n_max_exit(self, tmp_path):
        path = orthogonal_lines_file(tmp_path)
        assert main(["project", str(path), "--n-max", "0"]) == 1

    @pytest.mark.parametrize("error", [NumericalError, InconsistencyError])
    def test_iteration_error_exits_one_with_one_line(
        self, tmp_path, capsys, monkeypatch, error
    ):
        def failing_eigvalsh(a, UPLO="L"):
            raise error("deviation is not symmetric")

        # the one eigensolve of G that the errors and frame bounds come from
        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        path = sixty_degree_file(tmp_path)
        report = tmp_path / "report.json"
        assert main(["project", str(path), "--n-max", "5", "--report", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: deviation is not symmetric\n"
        assert not report.exists()


def _criterion_family(tmp_path, kind):
    """A family file, or a ``/dev/fd`` path to a pipe holding one."""
    if kind == "satisfied":
        return str(sixty_degree_file(tmp_path))
    if kind == "failing":
        vectors = {"X1": [[1.0, 0.0]], "X2": [[1.0, 0.02]], "X3": [[1.0, -0.02]]}
    elif kind == "boundary":
        vectors = {"X1": [[1.0, 0.0]], "X2": [[1.0, 0.0]]}
    elif kind == "rank-deficient":
        vectors = {"X1": [[1.0, 0.0], [2.0, 0.0]], "X2": [[0.0, 1.0]]}
    else:
        text = sixty_degree_file(tmp_path).read_bytes()
        r, w = os.pipe()
        os.write(w, text)
        os.close(w)
        return f"/dev/fd/{r}"
    return str(write_family_file(tmp_path / f"{kind}.json", vectors, 2))


class TestCriterionCommands:
    """``analyze`` is ``project`` without the iteration."""

    @pytest.mark.parametrize(
        "kind, code, notices",
        [
            ("satisfied", 0, 0),
            ("failing", 2, 0),
            ("boundary", 3, 0),
            ("rank-deficient", 0, 1),
            ("piped", 0, 0),
        ],
    )
    def test_analyze_reports_what_project_reports(
        self, tmp_path, capsys, kind, code, notices
    ):
        runs = []
        for argv in (["analyze"], ["project", "--n-max", "3"]):
            path = _criterion_family(tmp_path, kind)
            try:
                status = main([*argv, path])
            finally:
                if path.startswith("/dev/fd/"):
                    os.close(int(path[len("/dev/fd/"):]))
            captured = capsys.readouterr()
            doc = json.loads(captured.out)
            del doc["metadata"]["created"]
            runs.append((status, captured.err, doc["criterion"], doc["metadata"]))
        analyze, project = runs
        assert analyze == project
        status, err, _, metadata = analyze
        assert status == code
        lines = err.splitlines()
        assert len(lines) == notices
        assert all(line.startswith("notice: ") for line in lines)
        assert (metadata["input_sha256"] is None) == (kind == "piped")

    @pytest.mark.parametrize(
        "extra", [["--n-max", "3"], ["--csv", "{tmp}/x.csv"]], ids=["n-max", "csv"]
    )
    def test_analyze_takes_no_project_option(self, tmp_path, capsys, extra):
        path = sixty_degree_file(tmp_path)
        argv = ["analyze", str(path), *(arg.format(tmp=tmp_path) for arg in extra)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = stderr_lines(captured)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["sixty.json"]


class TestCounterexampleCommand:
    def write_ematrix(self, path, entries):
        n = len(entries)
        path.write_text(json.dumps({"n": n, "entries": entries}))
        return path

    def test_two_lines_boundary_matrix(self, tmp_path):
        epath = self.write_ematrix(tmp_path / "e.json", [[0.0, 1.0], [1.0, 0.0]])
        out = tmp_path / "family.json"
        verify = tmp_path / "verify.json"
        code = main(
            [
                "counterexample",
                str(epath),
                "--blocks",
                "5",
                "--out",
                str(out),
                "--verify",
                str(verify),
            ]
        )
        assert code == 0
        vdoc = json.loads(verify.read_text())
        assert vdoc["verification"]["passed"] is True
        assert vdoc["verification"]["sigma_min_sq"] <= 2.0**-5 + 1e-9

        report = tmp_path / "report.json"
        assert main(["analyze", str(out), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["criterion"]["spectral_radius"] == pytest.approx(
            1.0 - 2.0**-5, abs=1e-9
        )

    def test_custom_schedule(self, tmp_path):
        epath = self.write_ematrix(tmp_path / "e.json", [[0.0, 1.0], [1.0, 0.0]])
        out = tmp_path / "family.json"
        verify = tmp_path / "verify.json"
        code = main(
            [
                "counterexample",
                str(epath),
                "--blocks",
                "3",
                "--alpha-schedule",
                "custom=0.5,0.75,0.875",
                "--out",
                str(out),
                "--verify",
                str(verify),
            ]
        )
        assert code == 0
        assert json.loads(verify.read_text())["alphas"] == [0.5, 0.75, 0.875]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_three_eigendecompositions_whatever_the_seed(
        self, monkeypatch, tmp_path, seed
    ):
        # the benchmark's permuted 16-node ring
        perm = np.random.default_rng(seed).permutation(16)
        entries = ring_matrix(16)[np.ix_(perm, perm)].tolist()
        epath = self.write_ematrix(tmp_path / "e.json", entries)
        calls = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        code = main(
            ["counterexample", str(epath), "--blocks", "40",
             "--out", str(tmp_path / "family.json"),
             "--verify", str(tmp_path / "verify.json")]
        )
        assert code == 0
        # the spec's radius of the input, then the build's and the
        # verifier's decompositions of the rescaled matrix
        assert calls == [(16, 16)] * 3

    def test_radius_above_one_rescales_with_notice(self, tmp_path, capsys):
        entries = (np.ones((3, 3)) - np.eye(3)).tolist()  # r = 2
        epath = self.write_ematrix(tmp_path / "e.json", entries)
        out = tmp_path / "family.json"
        code = main(
            ["counterexample", str(epath), "--blocks", "1", "--out", str(out)]
        )
        assert code == 0
        assert "rescal" in capsys.readouterr().err
        family, _ = io.load_family(out)
        # construction ran on E/2: measured cosines are alpha_1 * 1/2 = 0.25
        e = build_e_matrix(family)
        assert e.entries[0, 1] == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("big", [1e200, 1e300])
    def test_huge_entries_rescale_with_one_notice(self, tmp_path, capsys, big):
        entries = (big * (np.ones((3, 3)) - np.eye(3))).tolist()  # r = 2 * big
        epath = self.write_ematrix(tmp_path / "e.json", entries)
        out = tmp_path / "family.json"
        code = main(["counterexample", str(epath), "--blocks", "1", "--out", str(out)])
        assert code == 0
        lines = stderr_lines(capsys.readouterr())
        assert len(lines) == 1
        assert lines[0].startswith("notice: ") and "rescaling" in lines[0]
        family, _ = io.load_family(out)
        assert build_e_matrix(family).entries[0, 1] == pytest.approx(0.25, abs=1e-9)

    def test_radius_beyond_largest_double_exits_one(self, tmp_path, capsys):
        # r = 2e308 cannot be represented, so there is no 1/r to rescale by
        entries = (1e308 * (np.ones((3, 3)) - np.eye(3))).tolist()
        epath = self.write_ematrix(tmp_path / "e.json", entries)
        out = tmp_path / "family.json"
        code = main(["counterexample", str(epath), "--blocks", "1", "--out", str(out)])
        assert code == 1
        lines = stderr_lines(capsys.readouterr())
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "overflows" in lines[0]
        assert not out.exists()

    def test_subcritical_matrix_rejected(self, tmp_path, capsys):
        epath = self.write_ematrix(tmp_path / "e.json", [[0.0, 0.5], [0.5, 0.0]])
        out = tmp_path / "family.json"
        code = main(
            ["counterexample", str(epath), "--blocks", "2", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_non_finite_matrix_exits_one_without_output(self, tmp_path, capsys):
        epath = tmp_path / "e.json"
        epath.write_text('{"n": 2, "entries": [[0.0, NaN], [NaN, 0.0]]}')
        out = tmp_path / "family.json"
        code = main(["counterexample", str(epath), "--blocks", "2", "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert re.match(r"error: matrix file is not valid JSON: .*\bline 1 column 28\b", lines[0])
        assert not out.exists()

    def test_invalid_matrix_file(self, tmp_path):
        epath = self.write_ematrix(tmp_path / "e.json", [[0.0, 0.5], [0.4, 0.0]])
        code = main(
            ["counterexample", str(epath), "--blocks", "2", "--out", str(tmp_path / "f.json")]
        )
        assert code == 1

    def test_schedule_length_mismatch(self, tmp_path):
        epath = self.write_ematrix(tmp_path / "e.json", [[0.0, 1.0], [1.0, 0.0]])
        code = main(
            [
                "counterexample",
                str(epath),
                "--blocks",
                "2",
                "--alpha-schedule",
                "custom=0.5",
                "--out",
                str(tmp_path / "f.json"),
            ]
        )
        assert code == 1

    def test_unknown_schedule_exits_one(self, tmp_path, capsys):
        epath = self.write_ematrix(tmp_path / "e.json", [[0.0, 1.0], [1.0, 0.0]])
        out = tmp_path / "family.json"
        schedule = ["--alpha-schedule", "bogus"]
        argv = ["counterexample", str(epath), "--blocks", "2", *schedule, "--out", str(out)]
        assert main(argv) == 1
        lines = stderr_lines(capsys.readouterr())
        assert lines == ["error: unknown alpha schedule 'bogus'"]
        assert not out.exists()

    def run_verified(self, tmp_path, entries, blocks):
        """Exit code, family path and verification path of one command."""
        epath = self.write_ematrix(tmp_path / "e.json", entries)
        out, verify = tmp_path / "family.json", tmp_path / "verify.json"
        code = main(["counterexample", str(epath), "--blocks", str(blocks),
                     "--out", str(out), "--verify", str(verify)])
        return code, out, verify

    def test_verification_record_is_written_as_asdict_gives_it(self, tmp_path):
        entries = ring_matrix(16).tolist()
        code, _, verify = self.run_verified(tmp_path, entries, 40)
        assert code == 0
        spec = CounterexampleSpec(EMatrix(16, entries), geometric_alphas(40))
        record = verify_counterexample(build_counterexample(spec), spec)
        expected = tmp_path / "expected.json"
        io.write_report(expected, {
            "verification": dataclasses.asdict(record),
            "spectral_radius_input": spec.input_radius,
            "alphas": list(spec.alphas),
            "metadata": json.loads(verify.read_text())["metadata"],
        })
        assert verify.read_text() == expected.read_text()

    def test_failed_verification_exits_two_with_both_outputs(
        self, tmp_path, capsys, monkeypatch
    ):
        verify_counterexample = cli.verify_counterexample

        def failing(family, spec):
            record = dataclasses.replace(verify_counterexample(family, spec), passed=False)
            raise VerificationFailed("block 0: forced", record=record)

        monkeypatch.setattr(cli, "verify_counterexample", failing)
        code, out, verify = self.run_verified(tmp_path, [[0.0, 1.0], [1.0, 0.0]], 3)
        assert code == 2
        lines = stderr_lines(capsys.readouterr())
        assert lines == ["verification failed: block 0: forced"]
        assert io.load_family(out)[0].n == 2
        assert json.loads(verify.read_text())["verification"]["passed"] is False

    @pytest.mark.parametrize("blocks", [52, 53])
    def test_rescaled_matrix_takes_every_geometric_block(self, tmp_path, capsys, blocks):
        # r = sqrt(2): E / r alone kept a computed radius a rounding above 1
        entries = [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
        code, _, verify = self.run_verified(tmp_path, entries, blocks)
        assert code == 0
        lines = stderr_lines(capsys.readouterr())
        assert len(lines) == 1
        assert lines[0].startswith("notice: ") and "rescaling" in lines[0]
        assert json.loads(verify.read_text())["verification"]["passed"] is True

    @pytest.mark.parametrize("radius", [1 - 5e-10, 1 + 5e-10])
    @pytest.mark.parametrize("blocks", [1, 53])
    def test_radius_inside_band_builds_quietly(self, tmp_path, capsys, radius, blocks):
        entries = [[0.0, radius], [radius, 0.0]]
        code, _, verify = self.run_verified(tmp_path, entries, blocks)
        assert code == 0
        assert capsys.readouterr().err == ""
        vdoc = json.loads(verify.read_text())
        assert vdoc["verification"]["passed"] is True
        assert vdoc["spectral_radius_input"] == pytest.approx(radius, abs=1e-15)

    @pytest.mark.parametrize("blocks, code", [(53, 0), (54, 1)])
    def test_geometric_schedule_block_limit(self, tmp_path, capsys, blocks, code):
        epath = self.write_ematrix(tmp_path / "e.json", ring_matrix(4).tolist())
        out = tmp_path / "family.json"
        argv = ["counterexample", str(epath), "--blocks", str(blocks), "--out", str(out)]
        assert main(argv) == code
        assert out.exists() == (code == 0)
        lines = stderr_lines(capsys.readouterr())
        if code:
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert "53 blocks" in lines[0] and "alphas" not in lines[0]
        else:
            assert lines == []


class TestRunAsProgram:
    """``python -m sumspaces.cli`` runs the same commands as ``main``."""

    def run(self, *args, cwd, **environ):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, **environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "sumspaces.cli", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_help_exits_zero(self, tmp_path):
        done = self.run("--help", cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert "counterexample" in done.stdout

    def test_readme_round_trip(self, tmp_path):
        (tmp_path / "e.json").write_text('{"n": 2, "entries": [[0.0, 1.0], [1.0, 0.0]]}')
        steps = [
            ["counterexample", "e.json", "--blocks", "20",
             "--out", "family.json", "--verify", "verify.json"],
            ["analyze", "family.json", "--report", "report.json"],
            ["project", "family.json", "--n-max", "5", "--csv", "errors.csv"],
        ]
        for step in steps:
            done = self.run(*step, cwd=tmp_path)
            assert done.returncode == 0, (step, done.stderr)
        assert json.loads((tmp_path / "verify.json").read_text())["verification"]["passed"]
        assert json.loads((tmp_path / "report.json").read_text())["criterion"]["satisfied"]
        assert (tmp_path / "errors.csv").read_text().startswith("N,error,bound\n")

    @pytest.mark.parametrize(
        "vector, code, stderr",
        [
            ("[1.0, 0.0]", 0, r""),
            ('["x", 0.0]', 1, r"error: subspace '.+': vectors must be JSON numbers\n"),
        ],
        ids=["plain", "member-error"],
    )
    def test_non_ascii_name_loads_in_the_c_locale(self, tmp_path, vector, code, stderr):
        # input files are UTF-8 whatever the locale
        text = '{"ambient_dim": 2, "subspaces": [{"name": "\u00e9t\u00e9", "vectors": [%s]}]}'
        (tmp_path / "family.json").write_bytes((text % vector).encode())
        done = self.run(
            "analyze", "family.json", cwd=tmp_path,
            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        )
        assert done.returncode == code, done.stderr
        assert re.fullmatch(stderr, done.stderr)


class TestStagedOutputs:
    def test_outputs_appear_together_on_success(self, tmp_path):
        with io.staged_outputs() as stage:
            for name in ("a.txt", "b.txt"):
                Path(stage(tmp_path / name)).write_text(name)
            assert not (tmp_path / "a.txt").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
        assert (tmp_path / "b.txt").read_text() == "b.txt"

    def test_failure_leaves_old_files_and_no_temporaries(self, tmp_path):
        (tmp_path / "a.txt").write_text("old")
        with pytest.raises(OSError):
            with io.staged_outputs() as stage:
                Path(stage(tmp_path / "a.txt")).write_text("new")
                Path(stage(tmp_path / "missing" / "b.txt")).write_text("new")
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
        assert (tmp_path / "a.txt").read_text() == "old"

    def test_symlink_target_is_written_through(self, tmp_path):
        (tmp_path / "real.txt").write_text("old")
        (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
        with io.staged_outputs() as stage:
            Path(stage(tmp_path / "link.txt")).write_text("new")
        assert (tmp_path / "link.txt").is_symlink()
        assert (tmp_path / "real.txt").read_text() == "new"

    def test_special_file_is_not_staged(self):
        with io.staged_outputs() as stage:
            assert stage(os.devnull) == os.devnull


def stderr_lines(captured):
    return captured.err.splitlines()


class TestCommandBoundary:
    """Every invalid input ends in exit 1 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{family}", "--report", "{missing}/r.json"],
            ["project", "{family}", "--n-max", "3", "--csv", "{missing}/r.csv"],
            [
                "project", "{family}", "--n-max", "3",
                "--report", "{tmp}/r.json", "--csv", "{missing}/r.csv",
            ],
            ["counterexample", "{ematrix}", "--blocks", "2", "--out", "{missing}/f.json"],
            [
                "counterexample", "{ematrix}", "--blocks", "2",
                "--out", "{tmp}/f.json", "--verify", "{missing}/v.json",
            ],
        ],
        ids=[
            "analyze-report", "project-csv", "project-report-csv",
            "counterexample-out", "counterexample-verify",
        ],
    )
    def test_unwritable_output_exits_one(self, tmp_path, capsys, argv):
        paths = {
            "family": sixty_degree_file(tmp_path),
            "ematrix": tmp_path / "e.json",
            "missing": tmp_path / "missing",
            "tmp": tmp_path,
        }
        paths["ematrix"].write_text('{"n": 2, "entries": [[0.0, 1.0], [1.0, 0.0]]}')
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        lines = stderr_lines(captured)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        # no output, and no temporary, is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.json", "sixty.json"]
        if argv[0] == "project":
            assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["project", "{missing}", "--n-max", "0"], "--n-max must be at least 1"),
            (
                ["counterexample", "{missing}", "--blocks", "0", "--out", "{tmp}/f.json"],
                "--blocks must be at least 1",
            ),
        ],
        ids=["n-max", "blocks"],
    )
    def test_bad_count_is_rejected_before_the_input_is_read(
        self, tmp_path, capsys, argv, message
    ):
        paths = {"missing": tmp_path / "missing.json", "tmp": tmp_path}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stderr_lines(captured) == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra", [["--n-max", "abc"], []], ids=["non-integer", "missing"]
    )
    def test_bad_n_max_argument_exits_one(self, tmp_path, capsys, extra):
        path = sixty_degree_file(tmp_path)
        assert main(["project", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = stderr_lines(captured)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--n-max" in lines[0]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["project", "--help"])
        assert exc.value.code == 0
        assert "--n-max" in capsys.readouterr().out

    def test_non_square_matrix_exits_one(self, tmp_path, capsys):
        epath = tmp_path / "e.json"
        epath.write_text('{"n": 1, "entries": [0.0]}')
        out = tmp_path / "f.json"
        assert main(["counterexample", str(epath), "--blocks", "2", "--out", str(out)]) == 1
        lines = stderr_lines(capsys.readouterr())
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "must be square" in lines[0]
        assert not out.exists()

    def test_overflowing_ambient_dim_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient_dim": 1e400, "subspaces": [{"vectors": [[1.0]]}]}')
        assert main(["analyze", str(path)]) == 1
        lines = stderr_lines(capsys.readouterr())
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize(
        "doc, argv",
        [
            (
                '{"ambient_dim": 2, "subspaces": [{"vectors": [[true, 0.5]]},'
                ' {"vectors": [[0.0, 1.0]]}]}',
                ["analyze", "{tmp}/in.json"],
            ),
            (
                '{"n": 2, "entries": [[0.0, true], [1, 0.0]]}',
                [
                    "counterexample", "{tmp}/in.json",
                    "--blocks", "2", "--out", "{tmp}/f.json",
                ],
            ),
        ],
        ids=["family", "matrix"],
    )
    def test_booleans_among_numbers_exit_one(self, tmp_path, capsys, doc, argv):
        (tmp_path / "in.json").write_text(doc)
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = stderr_lines(captured)
        assert len(lines) == 1 and lines[0].endswith("must be JSON numbers")
        assert [p.name for p in tmp_path.iterdir()] == ["in.json"]

    def test_rank_deficiency_is_one_notice(self, tmp_path, capsys):
        path = write_family_file(
            tmp_path / "dep.json",
            {"X1": [[1.0, 0.0], [2.0, 0.0]], "X2": [[0.0, 1.0]]},
            2,
        )
        assert main(["analyze", str(path)]) == 0
        lines = stderr_lines(capsys.readouterr())
        assert len(lines) == 1 and lines[0].startswith("notice: ")
        assert "rank" in lines[0]

    def test_invalid_member_is_the_only_line(self, tmp_path, capsys, svd_shapes):
        # X1 is rank deficient, but the load ends at X2 before X1 is
        # orthonormalized, so no notice precedes the error
        path = write_family_file(
            tmp_path / "mixed.json",
            {"X1": [[1.0, 0.0], [2.0, 0.0]], "X2": [["x", 1.0]]},
            2,
        )
        assert main(["project", str(path), "--n-max", "3"]) == 1
        assert stderr_lines(capsys.readouterr()) == [
            "error: subspace 'X2': vectors must be JSON numbers"
        ]
        assert svd_shapes == []

    @pytest.mark.parametrize(
        "x3, error, svds",
        [
            ([[0.0, 1.0]], "error: subspace 'X3': vectors must all have length 3", []),
            (
                [[0.0, 0.0, 0.0]],
                "error: subspace 'X3': all columns of the spanning set are "
                "numerically zero",
                [(1, 3, 1), (1, 3, 2)],
            ),
        ],
        ids=["invalid", "all-zero"],
    )
    def test_error_is_the_only_line_in_another_shape(
        self, tmp_path, capsys, svd_shapes, x3, error, svds
    ):
        # X1 and X3 are lines and X2 a plane: X3 fails in a shape group
        # that is batched apart from the rank-deficient X2, whose notice
        # is not given.  An invalid X3 ends the load before anything is
        # orthonormalized; an all-zero X3 is found by the batched SVDs.
        path = write_family_file(
            tmp_path / "mixed.json",
            {
                "X1": [[1.0, 0.0, 0.0]],
                "X2": [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]],
                "X3": x3,
            },
            3,
        )
        assert main(["analyze", str(path)]) == 1
        assert stderr_lines(capsys.readouterr()) == [error]
        assert sorted(svd_shapes) == svds

    def test_all_zero_member_is_named(self, tmp_path, capsys):
        path = write_family_file(
            tmp_path / "zero.json", {"A": [[1.0, 0.0]], "B": [[0.0, 0.0]]}, 2
        )
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert stderr_lines(captured) == [
            "error: subspace 'B': all columns of the spanning set are numerically zero"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            [
                "counterexample", "{ematrix}", "--blocks", "3",
                "--out", "{tmp}/x.json", "--verify", "{tmp}/x.json",
            ],
            [
                "counterexample", "{ematrix}", "--blocks", "3",
                "--out", "{tmp}/x.json", "--verify", "{tmp}/link.json",
            ],
            ["counterexample", "{ematrix}", "--blocks", "3", "--out", "{ematrix}"],
            [
                "project", "{family}", "--n-max", "3",
                "--report", "{tmp}/x.json", "--csv", "{tmp}/x.json",
            ],
            ["project", "{family}", "--n-max", "3", "--csv", "{family}"],
            ["analyze", "{family}", "--report", "{family}"],
        ],
        ids=[
            "counterexample-out-verify", "counterexample-through-link",
            "counterexample-input", "project-report-csv", "project-input",
            "analyze-input",
        ],
    )
    def test_colliding_outputs_exit_one(self, tmp_path, capsys, argv):
        family = sixty_degree_file(tmp_path)
        ematrix = tmp_path / "e.json"
        ematrix.write_text('{"n": 2, "entries": [[0.0, 1.0], [1.0, 0.0]]}')
        (tmp_path / "link.json").symlink_to(tmp_path / "x.json")
        before = {p.name: p.read_bytes() for p in (family, ematrix)}
        paths = {"family": family, "ematrix": ematrix, "tmp": tmp_path}
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        lines = stderr_lines(captured)
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert captured.out == ""
        # nothing written, no temporary left, the inputs untouched
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "e.json", "link.json", "sixty.json"
        ]
        assert {p.name: p.read_bytes() for p in (family, ematrix)} == before

    def test_special_file_may_take_two_outputs(self, tmp_path):
        path = sixty_degree_file(tmp_path)
        argv = ["project", str(path), "--n-max", "3"]
        assert main([*argv, "--report", os.devnull, "--csv", os.devnull]) == 0

    def test_unallocatable_step_count_exits_one(self, tmp_path, capsys):
        # numpy refuses the 8 PB error array at once
        path = sixty_degree_file(tmp_path)
        assert main(["project", str(path), "--n-max", str(10**15)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = stderr_lines(captured)
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_huge_vectors_analyze_quietly(self, tmp_path, capsys):
        path = write_family_file(
            tmp_path / "huge.json", {"X1": [[1e300, 0.0]], "X2": [[0.0, 1.0]]}, 2
        )
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["criterion"]["spectral_radius"] == 0.0


_NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from(
        [0.0, 1e300, -1e300, 1e-300, float("nan"), float("inf"), -float("inf")]
    ),
)
_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=2), st.just([]), st.just({})
)


@st.composite
def family_documents(draw):
    """Family documents that are mostly well-formed, with damaged parts."""
    d = draw(st.integers(1, 6))
    vector = st.one_of(
        st.lists(_NUMBERS, min_size=d, max_size=d),
        st.lists(st.one_of(_NUMBERS, _JUNK), max_size=d + 1),
    )
    entry = st.one_of(
        st.builds(lambda v: {"vectors": v}, st.one_of(st.lists(vector, max_size=3), _JUNK)),
        _JUNK,
    )
    ambient = st.one_of(
        st.just(d),
        st.sampled_from([0, -1, 10**12, 1e300, float("inf"), float("nan"), "2", None]),
    )
    subspaces = st.one_of(st.lists(entry, min_size=1, max_size=4), _JUNK)
    return json.dumps({"ambient_dim": draw(ambient), "subspaces": draw(subspaces)})


_PLAIN_ENTRIES = st.one_of(
    st.floats(0.0, 2.0).map(json.dumps),
    st.sampled_from(["0.0", "-0.0", "1", "0.5", "5e-324", "2.2250738585072014e-308"]),
)
# entries that are not JSON, that are huge or integers about 2**63 and 2**64
# (which load as the nearest double from 2**64 on), or that are not numbers
_ODD_ENTRIES = st.sampled_from(
    ["1e300", "NaN", "-Infinity", "1e400",
     *map(str, [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 10**20]),
     "true", "null", '"1"']
)
_ODD_SIZES = st.sampled_from(["2.0", "0", str(2**63), str(2**64), str(10**20), "true", '"2"'])
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
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
    """The text of a family file, about half with one odd part.

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
    return _json_text(_shuffled(draw, family))


@st.composite
def matrix_files(draw):
    """The text of a symmetric matrix file, about half with one odd part:
    a pair of entries, ``n`` or an extra key."""
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
    return _json_text(_shuffled(draw, matrix))


@settings(max_examples=100, deadline=None)
@given(st.one_of(family_documents(), family_files()))
def test_cli_contract_on_generated_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "family.json"
        path.write_text(text)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                io.load_family(path)
            load_error = None
        except (SumspacesError, ValueError, OSError, MemoryError) as exc:
            load_error = f"error: {exc}"
        for argv in (["analyze", str(path)], ["project", str(path), "--n-max", "3"]):
            err = StringIO()
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            lines = err.getvalue().splitlines()
            assert all(line.startswith(("error: ", "notice: ")) for line in lines), lines
            assert sum(line.startswith("error: ") for line in lines) <= 1
            if load_error is not None:
                # a file the loader rejects gives its one error line, no notice
                assert code == 1 and lines == [load_error], lines


@st.composite
def counterexample_arguments(draw):
    """A cosine matrix document, ``--blocks``, ``--alpha-schedule`` and
    whether one part was damaged.

    All are valid, or one part is damaged: ``n``, the entries, one row,
    the block count or the schedule.  A valid matrix is hollow, symmetric
    and nonnegative, and one entry above its diagonal is at least 1, so
    ``r(E) >= 1``: it is on the boundary or rescaled.
    """
    n = draw(st.integers(2, 4))
    entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1.0, 4.0))
    values = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    upper = np.triu(np.reshape(values, (n, n)), 1)
    i = draw(st.integers(0, n - 2))
    upper[i, draw(st.integers(i + 1, n - 1))] = draw(st.floats(1.0, 4.0))
    doc = {"n": n, "entries": (upper + upper.T).tolist()}
    blocks = draw(st.sampled_from([1, 2, 53]))
    ascending = ",".join(map(repr, np.linspace(0.1, 0.9, blocks).tolist()))
    schedule = draw(st.sampled_from(["geometric", "custom=" + ascending]))
    damage = draw(st.sampled_from([None, "n", "entries", "row", "blocks", "schedule"]))
    if damage == "n":
        sizes = [0, n + 1, 10**12, 1e300, float("nan"), "2", None, True]
        doc["n"] = draw(st.sampled_from(sizes))
    elif damage == "entries":
        ragged = st.lists(st.lists(_NUMBERS, max_size=n + 1))
        doc["entries"] = draw(st.one_of(ragged, _JUNK))
    elif damage == "row":
        row = st.lists(st.one_of(_NUMBERS, _JUNK), max_size=n + 1)
        doc["entries"][draw(st.integers(0, n - 1))] = draw(row)
    elif damage == "blocks":
        blocks = draw(st.sampled_from([0, 54]))
    elif damage == "schedule":
        schedule = draw(
            st.sampled_from(
                ["custom=0.5,0.25", "custom=nan", "custom=1.5", "custom=", "other"]
            )
        )
    options = ["--blocks", str(blocks), "--alpha-schedule", schedule]
    return json.dumps(doc), options, damage is not None


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        counterexample_arguments(),
        matrix_files().map(lambda text: (text, ["--blocks", "2"], True)),
    )
)
def test_counterexample_cli_contract_on_generated_documents(arguments):
    text, options, damaged = arguments
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.json"
        path.write_text(text)
        outputs = ["--out", f"{tmp}/f.json", "--verify", f"{tmp}/v.json"]
        err = StringIO()
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
            code = main(["counterexample", str(path), *options, *outputs])
        assert code in (0, 1, 2, 3)
        lines = err.getvalue().splitlines()
        prefixes = ("error: ", "notice: ", "verification failed: ")
        assert all(line.startswith(prefixes) for line in lines), lines
        assert sum(line.startswith("error: ") for line in lines) <= 1
        if not damaged:
            assert code == 0, lines
            assert Path(tmp, "f.json").exists() and Path(tmp, "v.json").exists()


# the strings, numbers and arrays a report or family can hold: text
# without lone surrogates, 64-bit integers, finite floats and C-contiguous
# 2-D float64 arrays
_TRICKY_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from(['"', "\\", '\\"', "\n\t\r", "\x00\x1f", "é", "∑ σ", "😀", "\u2028"]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**64 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    _TRICKY_TEXT,
)
# repeated values, signed zeros and subnormals, some with no rows or columns
_MATRICES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 5e-324, -2.5e-310]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
)
_DOCUMENTS = st.recursive(
    st.one_of(_SCALARS, _MATRICES),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TRICKY_TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_writer_round_trips_generated_documents(doc):
    out = BytesIO()
    io._write_json(out, doc)
    data = out.getvalue()
    expected = _float_bits(_as_lists(doc))
    # every float reads back to its bits, through either parser
    assert _float_bits(orjson.loads(data)) == expected
    assert _float_bits(json.loads(data.decode("utf-8"))) == expected
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    # an array is written byte for byte as its tolist() is
    as_lists = BytesIO()
    io._write_json(as_lists, _as_lists(doc))
    assert data == as_lists.getvalue()


def _as_lists(doc):
    """``doc`` with every array replaced by its ``tolist()``."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: _as_lists(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(map(_as_lists, doc))
    return doc


def _float_bits(doc):
    """``doc`` as JSON reads it back, each float replaced by its int64 bits."""
    if type(doc) is float:
        return ("float", int(np.float64(doc).view(np.int64)))
    if isinstance(doc, dict):
        return {key: _float_bits(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return list(map(_float_bits, doc))
    return doc
